//! Per-tier prewarm pool management: stock, rent, and the
//! create/evict/promote policy keyed by the demand forecast.
//!
//! [`PrewarmPools`] is a pure state machine. The serving simulator drives
//! it from its own event loop — `acquire` on every replica spawn,
//! `on_tick` from the autoscaler tick, `slot_ready` when a background
//! slot build completes — and the pools never see wall-clock time or
//! randomness, so a run's tier-hit sequence is a deterministic function
//! of the (workload, seed) pair exactly like the rest of the simulation.
//!
//! Rent accounting is a lazy integral: each pool keeps `stock × Δt`
//! slot-nanosecond accumulators updated on every state change, so the
//! final rent bill is exact regardless of how irregular the event times
//! were.

use crate::forecast::DemandForecast;
use crate::tier::{LifecycleCosts, StartTier, TierTable};
use chiron_model::{SimDuration, SimTime};

/// Tunables of the tiered lifecycle, carried by `ServeConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleConfig {
    pub costs: LifecycleCosts,
    /// Most snapshot slots the pool may hold.
    pub snapshot_capacity: u32,
    /// Most zygote fork slots the pool may hold.
    pub zygote_capacity: u32,
    /// Most background slot builds started per autoscaler tick.
    pub restock_per_tick: u32,
    /// Multiplier on the forecast-derived snapshot target (provisioning
    /// slack for demand the EWMA has not caught up with yet).
    pub headroom: f64,
    /// EWMA weight of the newest per-tick rate sample.
    pub forecast_alpha: f64,
    /// Surplus snapshot slots tolerated above target before eviction
    /// starts reclaiming rent.
    pub evict_hysteresis: u32,
}

impl LifecycleConfig {
    pub fn paper_calibrated() -> Self {
        LifecycleConfig {
            costs: LifecycleCosts::paper_calibrated(),
            snapshot_capacity: 8,
            zygote_capacity: 8,
            restock_per_tick: 2,
            headroom: 1.2,
            forecast_alpha: 0.3,
            evict_hysteresis: 2,
        }
    }
}

/// Snapshot slots built at deployment time (off the measured path).
const INITIAL_SNAPSHOT: u32 = 2;
/// Zygote slots provisioned at deployment time.
const INITIAL_ZYGOTE: u32 = 4;

/// One background slot build the policy scheduled; the driver owes the
/// pool a [`PrewarmPools::slot_ready`] call after `ready_in`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolAction {
    pub tier: StartTier,
    pub ready_in: SimDuration,
    /// The slot is being built by checkpointing a zygote fork (cheaper
    /// and faster than a cold build; consumed one zygote slot).
    pub promoted: bool,
}

/// Lifetime counters of one pool run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Replica starts served, indexed by [`StartTier::code`].
    pub hits: [u64; StartTier::COUNT],
    pub creates: u64,
    pub promotes: u64,
    pub evictions: u64,
}

/// The per-workflow tier pools and their policy state.
#[derive(Debug, Clone)]
pub struct PrewarmPools {
    cfg: LifecycleConfig,
    table: TierTable,
    forecast: DemandForecast,
    snap_stock: u32,
    snap_pending: u32,
    zyg_stock: u32,
    zyg_pending: u32,
    /// Arrivals observed since the last tick (the forecast's sample).
    arrivals_window: u64,
    stats: PoolStats,
    // Rent integrals, in slot-nanoseconds (shared image: plain ns).
    last_ns: u64,
    snap_slot_ns: u128,
    zyg_slot_ns: u128,
    zyg_shared_ns: u128,
    finished: bool,
}

impl PrewarmPools {
    pub fn new(cfg: LifecycleConfig, table: TierTable, now: SimTime) -> Self {
        let snap_stock = INITIAL_SNAPSHOT.min(table.snapshot.capacity);
        let zyg_stock = INITIAL_ZYGOTE.min(table.zygote.capacity);
        let forecast = DemandForecast::new(cfg.forecast_alpha);
        PrewarmPools {
            cfg,
            table,
            forecast,
            snap_stock,
            snap_pending: 0,
            zyg_stock,
            zyg_pending: 0,
            arrivals_window: 0,
            stats: PoolStats::default(),
            last_ns: now.as_nanos(),
            snap_slot_ns: 0,
            zyg_slot_ns: 0,
            zyg_shared_ns: 0,
            finished: false,
        }
    }

    pub fn table(&self) -> &TierTable {
        &self.table
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Integrates `stock × Δt` up to `now`. Every mutation goes through
    /// here first, so the rent bill is exact at any event granularity.
    fn accrue(&mut self, now: SimTime) {
        let now_ns = now.as_nanos();
        debug_assert!(now_ns >= self.last_ns, "pool time must not run backwards");
        let dt = u128::from(now_ns.saturating_sub(self.last_ns));
        self.snap_slot_ns += dt * u128::from(self.snap_stock);
        self.zyg_slot_ns += dt * u128::from(self.zyg_stock);
        if self.table.zygote.capacity > 0 {
            // The shared zygote image exists for the pool's whole life.
            self.zyg_shared_ns += dt;
        }
        self.last_ns = now_ns;
    }

    /// One arrival entered the system (feeds the next tick's forecast).
    pub fn observe_arrival(&mut self) {
        self.arrivals_window += 1;
    }

    /// Satisfies one replica demand from the fastest tier with stock,
    /// falling through to a cold boot. Returns the tier the start pays.
    pub fn acquire(&mut self, now: SimTime) -> StartTier {
        self.accrue(now);
        let snap = self.snap_stock > 0;
        let zyg = self.zyg_stock > 0;
        let tier = match (snap, zyg) {
            (true, true) if self.table.zygote.startup < self.table.snapshot.startup => {
                StartTier::ZygoteFork
            }
            (true, _) => StartTier::SnapshotRestore,
            (false, true) => StartTier::ZygoteFork,
            (false, false) => StartTier::ColdBoot,
        };
        match tier {
            StartTier::SnapshotRestore => self.snap_stock -= 1,
            StartTier::ZygoteFork => self.zyg_stock -= 1,
            _ => {}
        }
        self.stats.hits[tier.code() as usize] += 1;
        tier
    }

    /// The periodic policy pass: fold the window's arrivals into the
    /// forecast, then create (or promote) toward the snapshot target,
    /// evict surplus, and keep the zygote pool topped up. Scheduled slot
    /// builds are appended to `actions`; the driver must call
    /// [`PrewarmPools::slot_ready`] for each after its `ready_in`.
    pub fn on_tick(&mut self, now: SimTime, tick: SimDuration, actions: &mut Vec<PoolAction>) {
        self.accrue(now);
        let tick_secs = tick.as_secs_f64();
        if tick_secs > 0.0 {
            self.forecast
                .observe(self.arrivals_window as f64 / tick_secs);
        }
        self.arrivals_window = 0;

        // Snapshot target: enough fast-restore slots to absorb the
        // arrivals of one would-be cold-boot window at forecast demand.
        let want = self.forecast.rate() * self.table.cold_boot.as_secs_f64() * self.cfg.headroom;
        let target = (want.ceil() as u32).min(self.table.snapshot.capacity);

        // Create toward target, preferring promotion: checkpointing a
        // zygote fork is faster and cheaper than a cold build.
        let mut budget = self.cfg.restock_per_tick;
        while budget > 0 && self.snap_stock + self.snap_pending < target {
            let promoted = self.zyg_stock > 0;
            let ready_in = if promoted {
                self.zyg_stock -= 1;
                self.stats.promotes += 1;
                self.table.promote_create
            } else {
                self.table.snapshot.create
            };
            actions.push(PoolAction {
                tier: StartTier::SnapshotRestore,
                ready_in,
                promoted,
            });
            self.snap_pending += 1;
            self.stats.creates += 1;
            budget -= 1;
        }

        // Evict surplus slots once the forecast sags: rent stops at the
        // eviction instant (accrue above already billed the held time).
        if self.snap_stock > target + self.cfg.evict_hysteresis {
            let drop = self.snap_stock - target;
            self.snap_stock = target;
            self.stats.evictions += u64::from(drop);
        }

        // The zygote pool is cheap to hold; keep it at capacity so the
        // fallback (and the promotion feedstock) never runs dry.
        let mut budget = self.cfg.restock_per_tick;
        while budget > 0 && self.zyg_stock + self.zyg_pending < self.table.zygote.capacity {
            actions.push(PoolAction {
                tier: StartTier::ZygoteFork,
                ready_in: self.table.zygote.create,
                promoted: false,
            });
            self.zyg_pending += 1;
            self.stats.creates += 1;
            budget -= 1;
        }
    }

    /// A background slot build completed. Slots landing above capacity
    /// (the target sagged while they were building) are discarded.
    pub fn slot_ready(&mut self, tier: StartTier, now: SimTime) {
        self.accrue(now);
        match tier {
            StartTier::SnapshotRestore => {
                self.snap_pending = self.snap_pending.saturating_sub(1);
                if self.snap_stock < self.table.snapshot.capacity {
                    self.snap_stock += 1;
                }
            }
            StartTier::ZygoteFork => {
                self.zyg_pending = self.zyg_pending.saturating_sub(1);
                if self.zyg_stock < self.table.zygote.capacity {
                    self.zyg_stock += 1;
                }
            }
            _ => {}
        }
    }

    /// Closes the rent integrals at the run's end. Idempotent. `now` is
    /// clamped forward to the last accrual instant: background slot
    /// builds may complete after the final request, and their held time
    /// is rent like any other.
    pub fn finish(&mut self, now: SimTime) {
        let now = SimTime::from_nanos(now.as_nanos().max(self.last_ns));
        self.accrue(now);
        self.finished = true;
    }

    /// Total pool rent in GB-seconds: held snapshot slots at their
    /// resident fraction, zygote fork slots at their bookkeeping share,
    /// plus the shared zygote image.
    pub fn rent_gb_seconds(&self) -> f64 {
        const GB: f64 = 1024.0 * 1024.0 * 1024.0;
        let snap = self.snap_slot_ns as f64 * self.table.snapshot.slot_bytes as f64;
        let zyg = self.zyg_slot_ns as f64 * self.table.zygote.slot_bytes as f64;
        let shared = self.zyg_shared_ns as f64 * self.table.zygote.shared_bytes as f64;
        (snap + zyg + shared) / 1e9 / GB
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::CostModel;

    /// Pools holding `snapshot` and `zygote` slots at time zero.
    fn pools(snapshot: u32, zygote: u32) -> PrewarmPools {
        let cfg = LifecycleConfig::paper_calibrated();
        let table = TierTable::derive(
            &CostModel::paper_calibrated(),
            &cfg.costs,
            200 << 20,
            3,
            cfg.snapshot_capacity,
            cfg.zygote_capacity,
        );
        let mut pools = PrewarmPools::new(cfg, table, SimTime::ZERO);
        pools.snap_stock = snapshot;
        pools.zyg_stock = zygote;
        pools
    }

    fn at(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn acquire_walks_the_ladder() {
        let mut p = pools(1, 1);
        assert_eq!(p.acquire(at(1)), StartTier::SnapshotRestore);
        assert_eq!(p.acquire(at(2)), StartTier::ZygoteFork);
        assert_eq!(p.acquire(at(3)), StartTier::ColdBoot);
        let hits = p.stats().hits;
        assert_eq!(hits[StartTier::SnapshotRestore.code() as usize], 1);
        assert_eq!(hits[StartTier::ZygoteFork.code() as usize], 1);
        assert_eq!(hits[StartTier::ColdBoot.code() as usize], 1);
    }

    #[test]
    fn forecast_drives_snapshot_restock() {
        let mut p = pools(0, 0);
        let mut actions = Vec::new();
        // 50 rps observed over a 1 s tick → target ≈ ceil(50·0.167·1.2) = 11,
        // clamped to capacity 8; restock is rate-limited per tick.
        for _ in 0..50 {
            p.observe_arrival();
        }
        p.on_tick(at(1), SimDuration::from_millis(1000), &mut actions);
        let snaps = actions
            .iter()
            .filter(|a| a.tier == StartTier::SnapshotRestore)
            .count();
        assert_eq!(snaps, 2, "restock_per_tick caps the build rate");
        assert!(actions
            .iter()
            .any(|a| a.tier == StartTier::ZygoteFork && !a.promoted));
        for a in &actions {
            p.slot_ready(a.tier, at(2));
        }
        assert_eq!(p.snap_stock, 2);
    }

    #[test]
    fn idle_demand_evicts_surplus_snapshots() {
        let mut p = pools(8, 0);
        let mut actions = Vec::new();
        // No arrivals: forecast 0 → target 0 → evict past the hysteresis.
        p.on_tick(at(1), SimDuration::from_millis(1000), &mut actions);
        assert_eq!(p.snap_stock, 0, "surplus slots are evicted");
        assert_eq!(p.stats().evictions, 8);
    }

    #[test]
    fn promotion_consumes_zygote_stock() {
        let mut p = pools(0, 4);
        let mut actions = Vec::new();
        for _ in 0..80 {
            p.observe_arrival();
        }
        p.on_tick(at(1), SimDuration::from_millis(1000), &mut actions);
        let promoted = actions.iter().filter(|a| a.promoted).count();
        assert_eq!(promoted, 2, "zygote feedstock makes promotes, not builds");
        assert_eq!(p.zyg_stock, 2);
        assert_eq!(p.stats().promotes, 2);
    }

    #[test]
    fn rent_integral_is_exact() {
        let mut p = pools(2, 0);
        // 2 snapshot slots held for 10 s, then 1 for another 10 s.
        p.acquire(at(10));
        p.finish(at(20));
        let expected = (2.0 * 10.0 + 1.0 * 10.0) * p.table().snapshot.slot_bytes as f64
            / (1024.0 * 1024.0 * 1024.0)
            + 20.0 * p.table().zygote.shared_bytes as f64 / (1024.0 * 1024.0 * 1024.0);
        assert!(
            (p.rent_gb_seconds() - expected).abs() < 1e-9,
            "rent {} vs {expected}",
            p.rent_gb_seconds()
        );
    }

    #[test]
    fn late_slots_above_capacity_are_discarded() {
        let mut p = pools(8, 8);
        p.slot_ready(StartTier::SnapshotRestore, at(1));
        assert_eq!(p.snap_stock, 8, "capacity is a hard ceiling");
    }
}
