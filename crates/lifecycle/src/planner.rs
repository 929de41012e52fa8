//! Cost-model-aware prewarm planning: how much of each tier a deployment
//! should hold, and what the residual startup exposure costs a plan.
//!
//! This is the deployment-time counterpart of the online pool policy in
//! [`crate::pool`]: given a rent budget (USD/hour) and a demand forecast
//! (requests/second), [`plan_tier_mix`] fills the start-tier ladder
//! greedily — fastest tier first, while the budget holds — and reports
//! the expected startup latency of the resulting mix. Because a plan's
//! memory footprint sets the snapshot slot price, *plans with smaller
//! replicas buy more fast-start coverage from the same budget*: this is
//! the lever the PGP scheduler's co-optimisation pulls via
//! [`penalty_for_plan`], which folds the residual exposure into the
//! candidate-plan objective as an amortised per-request penalty.

use crate::tier::{LifecycleCosts, TierTable};
use chiron_metrics::plan_resources;
use chiron_model::{CostModel, DeploymentPlan, SimDuration, Workflow};
use serde::{Deserialize, Serialize};

/// Planner input: what the deployment may spend on standing prewarm
/// capacity, and the demand it should be provisioned for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrewarmBudget {
    /// Rent ceiling for held tier slots, USD per hour.
    pub usd_per_hour: f64,
    /// Demand forecast the mix is sized against, requests/second.
    pub demand_rps: f64,
}

impl PrewarmBudget {
    pub fn new(usd_per_hour: f64, demand_rps: f64) -> Self {
        PrewarmBudget {
            usd_per_hour,
            demand_rps,
        }
    }
}

/// Fraction of requests that ride a fresh replica start (scale-up churn):
/// the amortisation weight of the startup penalty.
const START_FRACTION: f64 = 0.02;

/// The tier mix a budget affords for one plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierMix {
    pub snapshot_slots: u32,
    pub zygote_slots: u32,
    /// Demand-window starts not covered by any pooled tier (they pay the
    /// full cold boot).
    pub uncovered: u32,
    /// Expected latency of one replica start under this mix.
    pub expected_start: SimDuration,
    /// Standing rent of the mix, USD per hour.
    pub rent_usd_per_hour: f64,
}

const GB: f64 = 1024.0 * 1024.0 * 1024.0;

fn slot_usd_per_hour(bytes: u64, usd_per_gb_second: f64) -> f64 {
    bytes as f64 / GB * usd_per_gb_second * 3600.0
}

/// Sizes the tier pools for `budget` against `table`, fastest tier
/// first. The target slot count is one cold-boot window's worth of
/// arrivals at the forecast demand — the starts the deployment would
/// otherwise expose to `T_coldStart` while a replacement boots.
pub fn plan_tier_mix(table: &TierTable, budget: &PrewarmBudget, usd_per_gb_second: f64) -> TierMix {
    let target = (budget.demand_rps * table.cold_boot.as_secs_f64()).ceil() as u32;
    if target == 0 {
        return TierMix {
            snapshot_slots: 0,
            zygote_slots: 0,
            uncovered: 0,
            expected_start: SimDuration::ZERO,
            rent_usd_per_hour: 0.0,
        };
    }
    let snap_price = slot_usd_per_hour(table.snapshot.slot_bytes, usd_per_gb_second);
    let zyg_price = slot_usd_per_hour(table.zygote.slot_bytes, usd_per_gb_second);
    let zyg_shared_price = slot_usd_per_hour(table.zygote.shared_bytes, usd_per_gb_second);

    let mut remaining = budget.usd_per_hour;
    let mut rent = 0.0;
    let mut snapshot_slots = 0u32;
    while snapshot_slots < target.min(table.snapshot.capacity) && remaining >= snap_price {
        snapshot_slots += 1;
        remaining -= snap_price;
        rent += snap_price;
    }
    let mut zygote_slots = 0u32;
    let mut covered = snapshot_slots;
    while covered < target
        && zygote_slots < table.zygote.capacity
        && remaining
            >= zyg_price
                + if zygote_slots == 0 {
                    zyg_shared_price
                } else {
                    0.0
                }
    {
        let price = zyg_price
            + if zygote_slots == 0 {
                zyg_shared_price
            } else {
                0.0
            };
        zygote_slots += 1;
        covered += 1;
        remaining -= price;
        rent += price;
    }
    let uncovered = target - covered;

    let expected_ns = (f64::from(snapshot_slots) * table.snapshot.startup.as_nanos() as f64
        + f64::from(zygote_slots) * table.zygote.startup.as_nanos() as f64
        + f64::from(uncovered) * table.cold_boot.as_nanos() as f64)
        / f64::from(target);
    TierMix {
        snapshot_slots,
        zygote_slots,
        uncovered,
        expected_start: SimDuration::from_nanos(expected_ns.round() as u64),
        rent_usd_per_hour: rent,
    }
}

/// The amortised per-request latency cost of a concrete `(plan,
/// workflow)`'s residual startup exposure: derives the plan's tier table
/// from its resource footprint, sizes the mix the budget affords, and
/// weights the mix's expected start latency by the scale-up fraction.
/// The PGP objective adds it to the plan's predicted latency.
/// Deterministic, so the fast and reference schedulers stay
/// byte-identical.
pub fn penalty_for_plan(
    plan: &DeploymentPlan,
    workflow: &Workflow,
    costs: &CostModel,
    lifecycle: &LifecycleCosts,
    budget: &PrewarmBudget,
    usd_per_gb_second: f64,
) -> SimDuration {
    let usage = plan_resources(plan, workflow, costs);
    let caps = crate::pool::LifecycleConfig::paper_calibrated();
    let table = TierTable::derive(
        costs,
        lifecycle,
        usage.memory_bytes,
        plan.sandbox_count() as u32,
        caps.snapshot_capacity,
        caps.zygote_capacity,
    );
    plan_tier_mix(&table, budget, usd_per_gb_second)
        .expected_start
        .mul_f64(START_FRACTION)
}

/// Coverage fraction of the mix per tier, for reports: how the demand
/// window's starts split across `snapshot / zygote / coldboot`.
pub fn mix_fractions(mix: &TierMix) -> [f64; 3] {
    let total = f64::from(mix.snapshot_slots + mix.zygote_slots + mix.uncovered);
    if total == 0.0 {
        return [0.0, 0.0, 0.0];
    }
    [
        f64::from(mix.snapshot_slots) / total,
        f64::from(mix.zygote_slots) / total,
        f64::from(mix.uncovered) / total,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::BillingModel;

    fn table() -> TierTable {
        TierTable::derive(
            &CostModel::paper_calibrated(),
            &LifecycleCosts::paper_calibrated(),
            200 << 20,
            3,
            8,
            8,
        )
    }

    fn per_gb_second() -> f64 {
        BillingModel::paper_calibrated().usd_per_gb_second
    }

    #[test]
    fn zero_budget_leaves_everything_cold() {
        let mix = plan_tier_mix(&table(), &PrewarmBudget::new(0.0, 50.0), per_gb_second());
        assert_eq!(mix.snapshot_slots, 0);
        assert_eq!(mix.zygote_slots, 0);
        assert!(mix.uncovered > 0);
        assert_eq!(mix.expected_start, table().cold_boot);
        assert_eq!(mix.rent_usd_per_hour, 0.0);
    }

    #[test]
    fn budget_buys_down_expected_start() {
        let t = table();
        let gbs = per_gb_second();
        let poor = plan_tier_mix(&t, &PrewarmBudget::new(1e-4, 50.0), gbs);
        let rich = plan_tier_mix(&t, &PrewarmBudget::new(1.0, 50.0), gbs);
        assert!(rich.expected_start < poor.expected_start);
        assert!(rich.rent_usd_per_hour >= poor.rent_usd_per_hour);
        assert!(rich.rent_usd_per_hour <= 1.0 + 1e-12, "budget respected");
    }

    #[test]
    fn smaller_replicas_buy_more_coverage() {
        // The co-optimisation lever: halving replica memory halves the
        // snapshot slot price, so the same budget covers more starts.
        let costs = CostModel::paper_calibrated();
        let lc = LifecycleCosts::paper_calibrated();
        let small = TierTable::derive(&costs, &lc, 100 << 20, 3, 8, 8);
        let large = TierTable::derive(&costs, &lc, 800 << 20, 3, 8, 8);
        let budget = PrewarmBudget::new(2e-3, 50.0);
        let gbs = per_gb_second();
        let small_mix = plan_tier_mix(&small, &budget, gbs);
        let large_mix = plan_tier_mix(&large, &budget, gbs);
        assert!(small_mix.snapshot_slots > large_mix.snapshot_slots);
        assert!(small_mix.expected_start < small.cold_boot);
        assert!(large_mix.expected_start < large.cold_boot);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mix = plan_tier_mix(&table(), &PrewarmBudget::new(1e-3, 50.0), per_gb_second());
        let f = mix_fractions(&mix);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_demand_needs_nothing() {
        let mix = plan_tier_mix(&table(), &PrewarmBudget::new(5.0, 0.0), per_gb_second());
        assert_eq!(mix.expected_start, SimDuration::ZERO);
        assert_eq!(mix.rent_usd_per_hour, 0.0);
    }
}
