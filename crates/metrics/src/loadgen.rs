//! Load-generation validation of the throughput analysis.
//!
//! [`node_throughput`](crate::throughput::node_throughput) derives the
//! node's capacity analytically (resident concurrency ÷ latency). This
//! module *drives* that capacity: a FIFO multi-server queueing simulation
//! where each resident deployment instance is a server and per-request
//! service times come from measured latency samples. The saturation search
//! finds the highest arrival rate whose sojourn time stays bounded — which
//! must agree with the analytic figure.

use crate::math::fast_ln;
use crate::rng::FastRng;
use crate::stats::LatencySamples;
use chiron_model::SimDuration;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How request arrivals are spaced in open-loop load generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Deterministic spacing of exactly `1/rps` between arrivals.
    Uniform,
    /// Memoryless (exponential) inter-arrival gaps at mean rate `rps`,
    /// drawn from a generator seeded with the given value — the classic
    /// M/G/k arrival side, reproducible run-to-run.
    Poisson { seed: u64 },
    /// Non-homogeneous Poisson arrivals whose instantaneous rate follows
    /// a sinusoid around the phase's mean `rps`:
    /// `rate(t) = rps × (1 + amplitude × sin(2πt / period))`. This is the
    /// diurnal traffic pattern production FaaS fleets see — the pattern
    /// prewarm-pool forecasting exists to track. Integer fields keep the
    /// process `Eq`/hashable: `amplitude_pct` is the swing in percent
    /// (50 → ±50% around the mean) and must stay below 100 so the rate
    /// never reaches zero.
    Diurnal {
        period_ms: u64,
        amplitude_pct: u8,
        seed: u64,
    },
}

/// Stateful inter-arrival gap generator for one [`ArrivalProcess`].
///
/// The random processes draw unit-rate exponentials `-ln(1 − u)` a block
/// of `UNIT_BLOCK` at a time, in stream order, and scale one by the
/// current rate only when its gap is used. A block's logs have no
/// dependency on each other, so they run as one vectorised pass with
/// no unpredictable branch; and since the rate is applied per gap,
/// a rate that changes inside a block (a fleet cluster's gossiped
/// admission rate) yields exactly the gaps of one-at-a-time draws.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: FastRng,
    /// Accumulated simulated time since the stream started — the phase
    /// of the diurnal sinusoid. Unused by the homogeneous processes.
    elapsed: SimDuration,
    /// Unit exponentials drawn ahead; `units[next..]` are still unused.
    units: [f64; UNIT_BLOCK],
    next: usize,
}

/// Unit exponentials drawn per refill of an [`ArrivalGen`].
const UNIT_BLOCK: usize = 64;

/// SplitMix64 finaliser — decorrelates substream seeds derived from a
/// parent seed and a stream index.
fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ArrivalProcess {
    /// Derives the `index`-th substream of this process: the same process
    /// shape with a seed split from the parent's, so a fleet of clusters
    /// can each draw an independent arrival stream that is (a) fully
    /// determined by the parent `(seed, index)` pair and (b) identical no
    /// matter how clusters are grouped into shards or threads. `Uniform`
    /// has no randomness and splits to itself.
    pub fn substream(self, index: u32) -> ArrivalProcess {
        match self {
            ArrivalProcess::Uniform => ArrivalProcess::Uniform,
            ArrivalProcess::Poisson { seed } => ArrivalProcess::Poisson {
                seed: split_seed(seed, u64::from(index)),
            },
            ArrivalProcess::Diurnal {
                period_ms,
                amplitude_pct,
                seed,
            } => ArrivalProcess::Diurnal {
                period_ms,
                amplitude_pct,
                seed: split_seed(seed, u64::from(index)),
            },
        }
    }

    pub fn gaps(self) -> ArrivalGen {
        let seed = match self {
            ArrivalProcess::Uniform => 0,
            ArrivalProcess::Poisson { seed } | ArrivalProcess::Diurnal { seed, .. } => seed,
        };
        ArrivalGen {
            process: self,
            rng: FastRng::seed_from_u64(seed),
            elapsed: SimDuration::ZERO,
            units: [0.0; UNIT_BLOCK],
            next: UNIT_BLOCK,
        }
    }
}

impl ArrivalGen {
    /// The stream's next unit-rate exponential `-ln(1 − u)`; `1 − u`
    /// avoids `ln(0)`.
    #[inline]
    fn next_unit(&mut self) -> f64 {
        if self.next == UNIT_BLOCK {
            // Two passes: the generator's serial state chain first, then
            // the logs, which carry no dependency and so vectorise.
            for unit in &mut self.units {
                *unit = 1.0 - self.rng.next_f64();
            }
            for unit in &mut self.units {
                *unit = -fast_ln(*unit);
            }
            self.next = 0;
        }
        let unit = self.units[self.next];
        self.next += 1;
        unit
    }

    /// Next gap to the following arrival at mean rate `rps`.
    pub fn next_gap(&mut self, rps: f64) -> SimDuration {
        assert!(rps > 0.0, "arrival rate must be positive");
        let gap = match self.process {
            ArrivalProcess::Uniform => SimDuration::from_nanos((1e9 / rps).round() as u64),
            ArrivalProcess::Poisson { .. } => {
                // Inverse-CDF exponential at the asked rate.
                let secs = self.next_unit() / rps;
                // Half-up rounding: same as `round()` for positive gaps,
                // one convert instead of the inlined `round` sequence.
                SimDuration::from_nanos((secs * 1e9 + 0.5) as u64)
            }
            ArrivalProcess::Diurnal {
                period_ms,
                amplitude_pct,
                ..
            } => {
                assert!(period_ms > 0, "diurnal period must be positive");
                assert!(
                    amplitude_pct < 100,
                    "diurnal amplitude must stay below 100%"
                );
                // Exponential gap at the instantaneous rate. The sinusoid
                // is slow relative to inter-arrival gaps, so freezing the
                // rate at the current phase is an accurate thinning-free
                // approximation of the non-homogeneous process.
                let period = period_ms as f64 / 1e3;
                let phase = 2.0 * std::f64::consts::PI * self.elapsed.as_secs_f64() / period;
                let rate = rps * (1.0 + f64::from(amplitude_pct) / 100.0 * phase.sin());
                let secs = self.next_unit() / rate;
                SimDuration::from_nanos((secs * 1e9 + 0.5) as u64)
            }
        };
        self.elapsed += gap;
        gap
    }
}

/// Outcome of driving one arrival rate through the node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    pub offered_rps: f64,
    pub completed: u64,
    /// Mean time from arrival to completion (queueing + service).
    pub mean_sojourn: SimDuration,
    /// 99th-percentile sojourn.
    pub p99_sojourn: SimDuration,
}

/// Simulates `n_requests` uniformly spaced arrivals at `rps` into
/// `servers` parallel deployment instances whose service times cycle
/// through `service_times`.
pub fn drive_load(
    servers: u32,
    service_times: &[SimDuration],
    rps: f64,
    n_requests: u64,
) -> LoadReport {
    drive_load_with(
        servers,
        service_times,
        rps,
        n_requests,
        ArrivalProcess::Uniform,
    )
}

/// [`drive_load`] with an explicit arrival process (uniform or seeded
/// Poisson).
fn drive_load_with(
    servers: u32,
    service_times: &[SimDuration],
    rps: f64,
    n_requests: u64,
    arrivals: ArrivalProcess,
) -> LoadReport {
    assert!(servers > 0, "need at least one server");
    assert!(!service_times.is_empty(), "need service-time samples");
    assert!(rps > 0.0, "arrival rate must be positive");
    let mut gaps = arrivals.gaps();
    // Min-heap of server free times.
    let mut free: BinaryHeap<Reverse<u64>> = (0..servers).map(|_| Reverse(0u64)).collect();
    let mut sojourns = LatencySamples::new();
    let mut arrival = SimDuration::ZERO;
    for i in 0..n_requests {
        let service = service_times[(i as usize) % service_times.len()];
        let Reverse(earliest) = free.pop().expect("servers > 0");
        let start = earliest.max(arrival.as_nanos());
        let done = start + service.as_nanos();
        free.push(Reverse(done));
        sojourns.push(SimDuration::from_nanos(done - arrival.as_nanos()));
        arrival += gaps.next_gap(rps);
    }
    LoadReport {
        offered_rps: rps,
        completed: n_requests,
        mean_sojourn: sojourns.mean(),
        p99_sojourn: sojourns.percentile(0.99),
    }
}

/// Finds the maximum sustainable arrival rate: the largest `rps` whose
/// p99 sojourn stays within `slack × mean service time` (binary search).
pub fn saturation_rps(
    servers: u32,
    service_times: &[SimDuration],
    slack: f64,
    n_requests: u64,
) -> f64 {
    assert!(slack >= 1.0);
    let mean_service =
        service_times.iter().map(|d| d.as_secs_f64()).sum::<f64>() / service_times.len() as f64;
    let bound = SimDuration::from_nanos((mean_service * slack * 1e9).round() as u64);
    let ceiling = f64::from(servers) / mean_service; // work-conservation limit
    let (mut lo, mut hi) = (ceiling * 0.01, ceiling * 1.5);
    for _ in 0..40 {
        let mid = (lo + hi) / 2.0;
        let report = drive_load(servers, service_times, mid, n_requests);
        if report.p99_sojourn <= bound {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn underload_has_no_queueing() {
        let report = drive_load(4, &[ms(100)], 10.0, 200);
        // 10 rps of 100ms work on 4 servers = 25% utilisation.
        assert_eq!(report.mean_sojourn, ms(100));
        assert_eq!(report.p99_sojourn, ms(100));
    }

    #[test]
    fn overload_queues_unboundedly() {
        // 4 servers × 100ms can serve 40 rps; offer 80.
        let report = drive_load(4, &[ms(100)], 80.0, 2000);
        assert!(report.p99_sojourn > ms(1000), "p99 {}", report.p99_sojourn);
    }

    #[test]
    fn saturation_matches_analytic_capacity() {
        // Deterministic service: capacity = servers / service = 40 rps.
        let rps = saturation_rps(4, &[ms(100)], 2.0, 4000);
        assert!(
            (36.0..=42.0).contains(&rps),
            "saturation {rps} vs analytic 40"
        );
    }

    #[test]
    fn heterogeneous_service_times() {
        let samples = vec![ms(50), ms(150)]; // mean 100ms
        let rps = saturation_rps(2, &samples, 3.0, 4000);
        assert!(
            (14.0..=22.0).contains(&rps),
            "saturation {rps} vs analytic 20"
        );
    }

    #[test]
    #[should_panic(expected = "need at least one server")]
    fn zero_servers_rejected() {
        drive_load(0, &[ms(1)], 1.0, 1);
    }

    #[test]
    fn poisson_is_reproducible() {
        let a = drive_load_with(
            4,
            &[ms(100)],
            30.0,
            2000,
            ArrivalProcess::Poisson { seed: 7 },
        );
        let b = drive_load_with(
            4,
            &[ms(100)],
            30.0,
            2000,
            ArrivalProcess::Poisson { seed: 7 },
        );
        assert_eq!(a, b);
        let c = drive_load_with(
            4,
            &[ms(100)],
            30.0,
            2000,
            ArrivalProcess::Poisson { seed: 8 },
        );
        assert_ne!(a.mean_sojourn, c.mean_sojourn);
    }

    #[test]
    fn poisson_queues_more_than_uniform() {
        // At 75% utilisation, bursty arrivals queue; uniform arrivals at the
        // same rate see (nearly) no queueing.
        let uniform = drive_load_with(1, &[ms(100)], 7.5, 4000, ArrivalProcess::Uniform);
        let poisson = drive_load_with(
            1,
            &[ms(100)],
            7.5,
            4000,
            ArrivalProcess::Poisson { seed: 1 },
        );
        assert!(poisson.mean_sojourn > uniform.mean_sojourn);
    }

    #[test]
    fn diurnal_rate_tracks_the_sinusoid() {
        // One 60s period at mean 50 rps, ±60%: the first half-period
        // (peak) must produce arrivals faster than the second (trough).
        let mut gaps = ArrivalProcess::Diurnal {
            period_ms: 60_000,
            amplitude_pct: 60,
            seed: 11,
        }
        .gaps();
        let mut t = SimDuration::ZERO;
        let (mut peak, mut trough) = (0u64, 0u64);
        while t < SimDuration::from_millis(60_000) {
            if t < SimDuration::from_millis(30_000) {
                peak += 1;
            } else {
                trough += 1;
            }
            t += gaps.next_gap(50.0);
        }
        assert!(
            peak as f64 > trough as f64 * 1.5,
            "peak {peak} vs trough {trough}"
        );
        // Over whole periods the mean rate is still ~rps: 60s × 50.
        let total = peak + trough;
        assert!((2_400..=3_600).contains(&total), "total {total}");
    }

    #[test]
    fn diurnal_is_reproducible_and_seed_sensitive() {
        let process = ArrivalProcess::Diurnal {
            period_ms: 10_000,
            amplitude_pct: 40,
            seed: 5,
        };
        let draw = |p: ArrivalProcess| {
            let mut g = p.gaps();
            (0..500).map(|_| g.next_gap(20.0)).collect::<Vec<_>>()
        };
        assert_eq!(draw(process), draw(process));
        let other = ArrivalProcess::Diurnal {
            period_ms: 10_000,
            amplitude_pct: 40,
            seed: 6,
        };
        assert_ne!(draw(process), draw(other));
    }

    #[test]
    #[should_panic(expected = "amplitude must stay below 100%")]
    fn diurnal_full_swing_rejected() {
        ArrivalProcess::Diurnal {
            period_ms: 1_000,
            amplitude_pct: 100,
            seed: 0,
        }
        .gaps()
        .next_gap(10.0);
    }

    #[test]
    fn substreams_are_deterministic_and_decorrelated() {
        let parent = ArrivalProcess::Poisson { seed: 42 };
        let draw = |p: ArrivalProcess| {
            let mut g = p.gaps();
            (0..200).map(|_| g.next_gap(100.0)).collect::<Vec<_>>()
        };
        // Same (parent, index) → same stream, regardless of when or where
        // it is split off.
        assert_eq!(draw(parent.substream(3)), draw(parent.substream(3)));
        // Different indices → different streams; index 0 is not the
        // parent stream either (so "cluster 0" never aliases the fleet
        // seed).
        assert_ne!(draw(parent.substream(0)), draw(parent.substream(1)));
        assert_ne!(draw(parent.substream(0)), draw(parent));
        // The diurnal shape survives splitting; only the seed moves.
        let diurnal = ArrivalProcess::Diurnal {
            period_ms: 5_000,
            amplitude_pct: 30,
            seed: 9,
        };
        match diurnal.substream(7) {
            ArrivalProcess::Diurnal {
                period_ms,
                amplitude_pct,
                seed,
            } => {
                assert_eq!(period_ms, 5_000);
                assert_eq!(amplitude_pct, 30);
                assert_ne!(seed, 9);
            }
            other => panic!("substream changed the process shape: {other:?}"),
        }
        // Uniform is deterministic already and splits to itself.
        assert_eq!(
            ArrivalProcess::Uniform.substream(5),
            ArrivalProcess::Uniform
        );
    }

    #[test]
    fn poisson_gap_mean_matches_rate() {
        let mut gaps = ArrivalProcess::Poisson { seed: 3 }.gaps();
        let n = 20_000;
        let total: f64 = (0..n).map(|_| gaps.next_gap(50.0).as_secs_f64()).sum();
        let mean = total / f64::from(n);
        // Expected gap 20ms; the sample mean should land within a few %.
        assert!((0.018..0.022).contains(&mean), "mean gap {mean}");
    }

    /// The one-at-a-time gap formula block draws replaced: one uniform
    /// per gap, its log taken on the spot.
    struct OneAtATime {
        process: ArrivalProcess,
        rng: FastRng,
        elapsed: SimDuration,
    }

    impl OneAtATime {
        fn new(process: ArrivalProcess, seed: u64) -> Self {
            OneAtATime {
                process,
                rng: FastRng::seed_from_u64(seed),
                elapsed: SimDuration::ZERO,
            }
        }

        fn next_gap(&mut self, rps: f64) -> SimDuration {
            let rate = match self.process {
                ArrivalProcess::Diurnal {
                    period_ms,
                    amplitude_pct,
                    ..
                } => {
                    let phase = 2.0 * std::f64::consts::PI * self.elapsed.as_secs_f64()
                        / (period_ms as f64 / 1e3);
                    rps * (1.0 + f64::from(amplitude_pct) / 100.0 * phase.sin())
                }
                _ => rps,
            };
            let u = self.rng.next_f64();
            let secs = -fast_ln(1.0 - u) / rate;
            let gap = SimDuration::from_nanos((secs * 1e9 + 0.5) as u64);
            self.elapsed += gap;
            gap
        }
    }

    #[test]
    fn block_draws_equal_one_at_a_time_draws() {
        let poisson = ArrivalProcess::Poisson { seed: 21 };
        let diurnal = ArrivalProcess::Diurnal {
            period_ms: 2_000,
            amplitude_pct: 70,
            seed: 22,
        };
        for (process, seed) in [(poisson, 21), (diurnal, 22)] {
            let mut blocked = process.gaps();
            let mut single = OneAtATime::new(process, seed);
            // The rate changes mid-block (a fleet `set_rate`), and at
            // block edges too: 0..=UNIT_BLOCK + 1 straddles both.
            let rate = |i: usize| [40.0, 450.0, 0.5, 7_500.0][(i / 37 + i / 64) % 4];
            for i in 0..=UNIT_BLOCK + 1 {
                assert_eq!(blocked.next_gap(rate(i)), single.next_gap(rate(i)), "{i}");
            }
            // A clone taken mid-block carries the rest of the block and
            // the generator state behind it.
            let mut fork = blocked.clone();
            for i in 0..5 * UNIT_BLOCK {
                let want = single.next_gap(rate(i));
                assert_eq!(blocked.next_gap(rate(i)), want, "{i}");
                assert_eq!(fork.next_gap(rate(i)), want, "fork {i}");
            }
        }
    }
}
