//! The jitter model's table sampler against the lognormal it stands for.
//!
//! For every spread of `JitterModel::cluster()`, 10⁶ draws through the
//! public [`Jitter`] API match the unit-mean lognormal's mean, relative
//! spread and extreme quantiles, and a two-sample Kolmogorov–Smirnov test
//! against the libm Box–Muller sampler the table replaced does not
//! reject. That Box–Muller lives here only, as the statistical reference.

use chiron_model::{JitterModel, SimDuration};
use chiron_runtime::jitter::{Jitter, JitterTables, LognormalTable};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One second: a factor is resolved to 1e-9.
const UNIT: SimDuration = SimDuration::from_nanos(1_000_000_000);

/// The four jitter kinds, each with its spread in `JitterModel::cluster()`.
type Kind = fn(&mut Jitter, SimDuration) -> SimDuration;

fn kinds() -> [(&'static str, f64, Kind); 4] {
    let m = JitterModel::cluster();
    [
        ("startup", m.startup_rel_std, |j, d| j.startup(d)),
        ("cpu", m.cpu_rel_std, |j, d| j.cpu(d)),
        ("io", m.io_rel_std, |j, d| j.io(d)),
        ("comm", m.comm_rel_std, |j, d| j.comm(d)),
    ]
}

/// `n` draws of one kind, as jittered nanoseconds of [`UNIT`].
fn draws(tables: &JitterTables, kind: Kind, seed: u64, n: usize) -> Vec<u64> {
    let mut jit = Jitter::new(tables, seed);
    (0..n).map(|_| kind(&mut jit, UNIT).as_nanos()).collect()
}

/// The libm sampler the tables replaced: Box–Muller's cosine half, then
/// `exp(σz − σ²/2)`, applied to [`UNIT`] as the platform applies a factor.
fn box_muller(sigma: f64, seed: u64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            UNIT.mul_f64((sigma * z - sigma * sigma / 2.0).exp())
                .as_nanos()
        })
        .collect()
}

/// An upper bound on the two-sample KS statistic `sup |F₁ − F₂|` of two
/// equal-size samples, in one counting pass (sorting 2·10⁵ values in a
/// debug build costs more than the rest of the test). `F₁ − F₂` is taken
/// at the edges of 2¹³-ns bins; inside a bin it moves by at most the
/// larger of the two samples' masses there, which is added on.
fn ks_upper_bound(a: &[u64], b: &[u64]) -> f64 {
    const BIN_SHIFT: u32 = 13;
    assert_eq!(a.len(), b.len());
    let bins = (a.iter().chain(b).max().unwrap() >> BIN_SHIFT) as usize + 1;
    let mut diff = vec![0i64; bins];
    let mut mass = vec![(0u32, 0u32); bins];
    for (&x, &y) in a.iter().zip(b) {
        let (i, j) = ((x >> BIN_SHIFT) as usize, (y >> BIN_SHIFT) as usize);
        diff[i] += 1;
        diff[j] -= 1;
        mass[i].0 += 1;
        mass[j].1 += 1;
    }
    let (mut cumulative, mut edge, mut within) = (0i64, 0i64, 0u32);
    for (d, (ma, mb)) in diff.iter().zip(&mass) {
        cumulative += d;
        edge = edge.max(cumulative.abs());
        within = within.max(*ma.max(mb));
    }
    (edge as f64 + f64::from(within)) / a.len() as f64
}

#[test]
fn table_draws_match_the_lognormal() {
    const N: usize = 1_000_000;
    // Φ⁻¹(0.999); Φ⁻¹(0.001) is its negation.
    const Z_999: f64 = 3.090_232_306_167_813;
    let tables = JitterTables::new(&JitterModel::cluster());
    for (name, sigma, kind) in kinds() {
        let mut ns = draws(&tables, kind, 11, N);
        let factor = |ns: u64| ns as f64 / UNIT.as_nanos() as f64;
        let mean = ns.iter().map(|&x| factor(x)).sum::<f64>() / N as f64;
        let var = ns
            .iter()
            .map(|&x| (factor(x) - mean) * (factor(x) - mean))
            .sum::<f64>()
            / (N - 1) as f64;
        assert!((mean - 1.0).abs() < 0.002, "{name}: mean {mean}");
        let rel_std = var.sqrt() / mean;
        let want_std = ((sigma * sigma).exp() - 1.0).sqrt();
        assert!(
            (rel_std / want_std - 1.0).abs() < 0.02,
            "{name}: relative std {rel_std}, lognormal {want_std}"
        );
        for (p, z) in [(0.001, -Z_999), (0.999, Z_999)] {
            let rank = (p * N as f64) as usize;
            let got = factor(*ns.select_nth_unstable(rank).1);
            let want = (sigma * z - sigma * sigma / 2.0).exp();
            assert!(
                (got / want - 1.0).abs() < 0.02,
                "{name}: p{p} {got}, lognormal {want}"
            );
        }
    }
}

#[test]
fn table_draws_pass_ks_against_box_muller() {
    const N: usize = 200_000;
    // c(α) · √((n + m)/(n·m)) with c(0.001) = √(−ln(0.0005)/2).
    let critical = (-(0.0005f64).ln() / 2.0).sqrt() * (2.0 / N as f64).sqrt();
    let tables = JitterTables::new(&JitterModel::cluster());
    for (name, sigma, kind) in kinds() {
        let d = ks_upper_bound(&draws(&tables, kind, 5, N), &box_muller(sigma, 6, N));
        assert!(d < critical, "{name}: KS D ≤ {d}, critical {critical}");
    }
}

#[test]
fn one_draw_per_jittered_cost_and_same_seed_same_stream() {
    let tables = JitterTables::new(&JitterModel::cluster());
    let d = SimDuration::from_millis(10);
    let stream = |seed| {
        let mut jit = Jitter::new(&tables, seed);
        (0..64)
            .flat_map(|_| [jit.startup(d), jit.cpu(d), jit.io(d), jit.comm(d)])
            .collect::<Vec<_>>()
    };
    assert_eq!(stream(7), stream(7));
    assert_ne!(stream(7), stream(8));

    // Each jittered cost takes exactly the next `u64` of the seed's
    // stream; a zero spread takes none.
    let only_cpu = JitterModel {
        cpu_rel_std: 0.06,
        ..JitterModel::NONE
    };
    let tables = JitterTables::new(&only_cpu);
    let table = LognormalTable::new(0.06);
    let mut jit = Jitter::new(&tables, 3);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..100 {
        assert_eq!(jit.io(d), d);
        assert_eq!(jit.comm(d), d);
        assert_eq!(jit.cpu(d), d.mul_f64(table.sample(rng.next_u64())));
        assert_eq!(jit.startup(d), d);
    }
}

#[test]
fn no_jitter_builds_no_table_and_changes_nothing() {
    let tables = JitterTables::new(&JitterModel::NONE);
    assert!(tables.is_empty());
    assert!(!JitterTables::new(&JitterModel::cluster()).is_empty());
    let mut jit = Jitter::new(&tables, 42);
    for ns in [0, 1, 999, 7_500_000, u64::MAX / 4] {
        let d = SimDuration::from_nanos(ns);
        assert_eq!(jit.startup(d), d);
        assert_eq!(jit.cpu(d), d);
        assert_eq!(jit.io(d), d);
        assert_eq!(jit.comm(d), d);
    }
}
