//! The tiered sandbox-start state machine and its cost table.
//!
//! Every scale-up in the serving plane used to pay one flat 167 ms
//! `T_coldStart`. Real platforms sit on a ladder of progressively cheaper
//! (and progressively more expensive to *hold*) start mechanisms:
//!
//! * **`Warm`** — a replica handed over at zero latency: the baseline
//!   `min_replicas` provisioned off-path at deployment time.
//! * **`SnapshotRestore`** — a CRIU-style checkpoint of the whole replica
//!   (every sandbox of the plan) restored in ~12 ms (Aetherless reports
//!   <15 ms restores). Each held snapshot slot pays rent on a fraction of
//!   the replica's resident memory for as long as it sits in the pool.
//! * **`ZygoteFork`** — the plan's sandboxes are forked from a shared,
//!   pre-imported zygote image (the existing `Pool` deployment-mode
//!   semantics lifted to replica granularity): one `T_process` per
//!   sandbox plus a pool dispatch, against a single shared image whose
//!   rent is paid once per workflow, not per slot.
//! * **`ColdBoot`** — the paper's calibrated 167 ms, no standing rent.
//!
//! The state machine is the acquisition ladder: a replica demand is
//! satisfied by the fastest tier with stock and falls through
//! `SnapshotRestore → ZygoteFork → ColdBoot`. [`TierTable::derive`] turns
//! the calibrated [`CostModel`] plus a plan's resource footprint into the
//! per-tier `(startup, create, rent)` table everything downstream — the
//! serving simulator, billing, the prewarm planner and the what-if
//! profiler — shares.

use chiron_model::{CostModel, SimDuration};

/// How a replica's sandboxes came up. The discriminant doubles as the
/// trace encoding (`ReplicaSpawn::tier`) and as an index into per-tier
/// count arrays, so the order is part of the observable contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum StartTier {
    /// Zero-latency handover of a deployment-time baseline replica. No
    /// pool managed here — kept for accounting.
    Warm = 0,
    /// Checkpoint/restore from a held whole-replica snapshot.
    SnapshotRestore = 1,
    /// Per-sandbox fork from the shared zygote image.
    ZygoteFork = 2,
    /// Full sandbox boot, `T_coldStart`.
    ColdBoot = 3,
}

impl StartTier {
    pub const COUNT: usize = 4;
    pub const ALL: [StartTier; Self::COUNT] = [
        StartTier::Warm,
        StartTier::SnapshotRestore,
        StartTier::ZygoteFork,
        StartTier::ColdBoot,
    ];

    /// Trace/array encoding.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`StartTier::code`]; unknown codes decode as `ColdBoot`
    /// (the conservative reading for traces from newer writers).
    pub fn from_code(code: u8) -> StartTier {
        match code {
            0 => StartTier::Warm,
            1 => StartTier::SnapshotRestore,
            2 => StartTier::ZygoteFork,
            _ => StartTier::ColdBoot,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            StartTier::Warm => "warm",
            StartTier::SnapshotRestore => "snapshot",
            StartTier::ZygoteFork => "zygote",
            StartTier::ColdBoot => "coldboot",
        }
    }
}

/// Calibration constants the [`CostModel`] does not carry: the tier
/// mechanics themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleCosts {
    /// Whole-replica checkpoint restore latency (Aetherless: <15 ms).
    pub snapshot_restore: SimDuration,
    /// Extra time to write a checkpoint when building a snapshot slot
    /// (on top of booting or forking the replica being checkpointed).
    pub snapshot_checkpoint: SimDuration,
    /// Fraction of the replica's resident memory a held snapshot slot
    /// keeps paying rent on (shared pages / lazy restore discount).
    pub snapshot_resident_fraction: f64,
    /// Time to provision one zygote fork slot in the background.
    pub zygote_spinup: SimDuration,
}

impl LifecycleCosts {
    pub fn paper_calibrated() -> Self {
        LifecycleCosts {
            snapshot_restore: SimDuration::from_millis(12),
            snapshot_checkpoint: SimDuration::from_millis(25),
            snapshot_resident_fraction: 0.35,
            zygote_spinup: SimDuration::from_millis(5),
        }
    }
}

/// One pooled tier's operating characteristics for a concrete plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// On-path latency from acquisition to schedulable.
    pub startup: SimDuration,
    /// Background latency to build one fresh slot (off-path).
    pub create: SimDuration,
    /// Resident bytes each held slot pays rent on.
    pub slot_bytes: u64,
    /// Resident bytes the pool pays once, shared by every slot (the
    /// zygote image; zero for snapshots).
    pub shared_bytes: u64,
    /// Most slots the pool may hold.
    pub capacity: u32,
}

/// The full tier cost table for one `(plan, workflow)` deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierTable {
    pub snapshot: TierSpec,
    pub zygote: TierSpec,
    /// `T_coldStart` — the bottom of the ladder, no pool and no rent.
    pub cold_boot: SimDuration,
    /// Building a snapshot slot by checkpointing a zygote fork instead of
    /// a cold boot — the *promote* transition of the pool policy.
    pub promote_create: SimDuration,
}

impl TierTable {
    /// Derives the table from the calibrated platform constants and the
    /// plan's footprint. `replica_bytes` is the plan's resident memory
    /// per replica (`plan_resources`), `sandbox_count` the number of
    /// sandboxes a zygote start must fork.
    pub fn derive(
        costs: &CostModel,
        lifecycle: &LifecycleCosts,
        replica_bytes: u64,
        sandbox_count: u32,
        snapshot_capacity: u32,
        zygote_capacity: u32,
    ) -> TierTable {
        let zygote_startup =
            costs.process_startup * u64::from(sandbox_count.max(1)) + costs.pool_dispatch;
        let snapshot_slot_bytes =
            (replica_bytes as f64 * lifecycle.snapshot_resident_fraction).round() as u64;
        TierTable {
            snapshot: TierSpec {
                startup: lifecycle.snapshot_restore,
                create: costs.sandbox_cold_start + lifecycle.snapshot_checkpoint,
                slot_bytes: snapshot_slot_bytes,
                shared_bytes: 0,
                capacity: snapshot_capacity,
            },
            zygote: TierSpec {
                startup: zygote_startup,
                create: lifecycle.zygote_spinup,
                slot_bytes: costs.thread_overhead_bytes,
                shared_bytes: costs.sandbox_base_bytes
                    + costs.process_overhead_bytes * u64::from(sandbox_count.max(1)),
                capacity: zygote_capacity,
            },
            cold_boot: costs.sandbox_cold_start,
            promote_create: zygote_startup + lifecycle.snapshot_checkpoint,
        }
    }

    /// On-path startup latency a start from `tier` pays.
    pub fn startup_of(&self, tier: StartTier) -> SimDuration {
        match tier {
            StartTier::Warm => SimDuration::ZERO,
            StartTier::SnapshotRestore => self.snapshot.startup,
            StartTier::ZygoteFork => self.zygote.startup,
            StartTier::ColdBoot => self.cold_boot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(sandboxes: u32) -> TierTable {
        TierTable::derive(
            &CostModel::paper_calibrated(),
            &LifecycleCosts::paper_calibrated(),
            200 << 20,
            sandboxes,
            8,
            8,
        )
    }

    #[test]
    fn tier_codes_round_trip() {
        for tier in StartTier::ALL {
            assert_eq!(StartTier::from_code(tier.code()), tier);
        }
        assert_eq!(StartTier::from_code(200), StartTier::ColdBoot);
    }

    #[test]
    fn multi_sandbox_ladder_orders_by_latency() {
        // A 3-sandbox replica: restore (12 ms) < 3 forks (~22.7 ms) <
        // cold boot (167 ms).
        let t = table(3);
        assert!(t.snapshot.startup < t.zygote.startup);
        assert!(t.zygote.startup < t.cold_boot);
        assert_eq!(t.startup_of(StartTier::Warm), SimDuration::ZERO);
        assert_eq!(t.startup_of(StartTier::ColdBoot), t.cold_boot);
    }

    #[test]
    fn single_sandbox_fork_undercuts_restore() {
        // One fork (7.7 ms) beats a 12 ms restore — the acquire ladder
        // must pick by latency, not by a fixed tier order.
        let t = table(1);
        assert!(t.zygote.startup < t.snapshot.startup);
    }

    #[test]
    fn rent_economics_are_opposed() {
        // Snapshots: dear per slot, nothing shared. Zygote: cheap per
        // slot, one shared image.
        let t = table(3);
        assert!(t.snapshot.slot_bytes > t.zygote.slot_bytes);
        assert_eq!(t.snapshot.shared_bytes, 0);
        assert!(t.zygote.shared_bytes > 0);
        // Promotion is cheaper than building a snapshot from a cold boot.
        assert!(t.promote_create < t.snapshot.create);
    }
}
