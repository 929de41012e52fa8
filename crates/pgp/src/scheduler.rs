//! PGP: the prediction-based graph-partitioning scheduler (Algorithm 2).
//!
//! PGP answers three questions for every workflow stage: how many processes
//! `n` to use, which functions share each process (threads), and how the
//! processes are packed into wraps/sandboxes — then allocates the minimum
//! CPUs that keep the predicted end-to-end latency within the SLO.
//!
//! The search is Algorithm 2's incremental-iterative structure:
//!
//! 1. for `n = 1..M` (max parallelism): round-robin the stage's functions
//!    into `n` processes (line 9), refine every pair of processes with
//!    Kernighan–Lin swapping guided by the Predictor (lines 10–11);
//! 2. the first `n` whose conservatively predicted latency meets the SLO
//!    wins (line 13); its processes are then packed into as few wraps as
//!    possible (lines 14–16) and CPUs are trimmed greedily, both while the
//!    prediction still meets the SLO;
//! 3. with no SLO (performance-first mode) PGP instead keeps the plan with
//!    the lowest predicted latency.
//!
//! §3.4's placement constraints are honoured: functions with conflicting
//! language runtimes or overlapping output files are pinned into singleton
//! wraps of their own.
//!
//! ## Performance
//!
//! Every prediction the search makes goes through a [`PgpEval`] evaluator.
//! The default ([`CachedEval`]) memoises per-process Algorithm 1 outcomes
//! in a content-addressed [`PredictionCache`] shared across KL rounds,
//! candidate swaps, every value of `n`, the wrap-packing sweep and the
//! CPU-trim loop, and runs those simulations allocation-free against a
//! [`SegmentCatalog`]. A KL candidate whose process is CPU-only skips the
//! cache: Algorithm 1's closed form scores it from its round's tables,
//! with no key and no probe, so KL recomputes such sets rather than
//! storing them. When every function of a round's two sets is CPU-only,
//! the round is one integer scan ([`SwapScan`]) that picks the loop's
//! swap and counts its prunes; most of FINRA's rounds are. A round with a
//! block rebuilds two [`StaggeredSummary`]s and scores candidate by
//! candidate, the CPU-only ones in O(1) and the others keyed by
//! [`StaggeredSet::key`], the key the plan evaluator uses for the same
//! process. The evaluator also owns the KL pass's work vectors
//! ([`KlScratch`]), so a schedule's passes reuse them. The
//! pre-optimisation path is preserved verbatim as
//! [`PgpScheduler::schedule_reference`], the one user of the reference
//! evaluator; both produce byte-identical plans (enforced by the
//! `identical_plans` property test and the root `plan_identity` test).
//!
//! The cached evaluator also memoises each stage's KL partition per
//! process count `n` in the same cache, keyed by [`partition_key`] (the
//! stage's ordered function contents, `n`, the switch interval and the
//! thread spacing). An entry holds the swaps the search applied and its
//! [`KlStats`]; a hit replays the swaps onto the round-robin split and
//! adds the stored counters. A schedule's own searches enter the memo
//! when it ends, so a cold schedule never replays them and its audit,
//! cache lookups included, is the search's. A warm re-plan runs no KL
//! pass, and its `audit.kl` equals the cold one's. `audit.cache_hits` and
//! `audit.cache_misses` still count physical Algorithm 1 lookups, so a
//! replayed stage and a CPU-only KL candidate add none: a warm re-plan's
//! hits come from packing and trimming alone. `schedule_reference` keeps
//! no memo, and [`PgpScheduler::partitions`] searches with the cached
//! evaluator on a fresh cache it drops.
//!
//! The search runs on one thread. §5 also explores partitions in
//! parallel; a cache-sharing parallel variant was removed because its
//! work gate (distinct behaviours × candidate `n` < 2000) sent every
//! workflow here — the paper apps, FINRA-200 and the benchmark
//! synthetics — back to this sequential rule.

use crate::kl::{kernighan_lin_with_stats, KlObjective, KlScratch, KlStats, Side};
use chiron_lifecycle::{penalty_for_plan, LifecycleCosts, PrewarmBudget};
use chiron_model::plan::{
    DeploymentPlan, IsolationKind, ProcessPlan, ProcessSpawn, RuntimeKind, SandboxId, SandboxPlan,
    SchedulingKind, StagePlan, SystemKind, TransferKind, WrapPlan,
};
use chiron_model::{BillingModel, CostModel, FunctionId, LanguageRuntime, SimDuration, Workflow};
use chiron_obs::StaticCounter;
use chiron_predict::{
    partition_key, predict_threads, PartitionMemo, PredictScratch, PredictionCache, Predictor,
    SegmentCatalog, SimThread, StaggeredSet, StaggeredSummary, SwapScan,
};
use chiron_profiler::WorkflowProfile;
use std::collections::HashMap;

// Process-wide mirrors of the per-schedule audit counters, registered in
// the chiron-obs metrics registry so `figures -- obs` reports aggregate
// scheduler effort alongside the cache and runtime counters.
static SCHEDULES: StaticCounter = StaticCounter::new("pgp.schedules");
static KL_ROUNDS: StaticCounter = StaticCounter::new("pgp.kl.rounds");
static KL_CANDIDATES: StaticCounter = StaticCounter::new("pgp.kl.candidates");
static KL_PRUNED: StaticCounter = StaticCounter::new("pgp.kl.pruned");
static KL_APPLIED: StaticCounter = StaticCounter::new("pgp.kl.applied");

/// Which execution mechanism the generated wraps use (§4's variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PgpMode {
    /// Combined processes and native threads (plain Chiron).
    NativeThread,
    /// Threads isolated with Intel MPK for sequential functions; parallel
    /// functions always fork (§4's fair-comparison configuration). Block
    /// overhead is amortised by spreading processes over multiple wraps.
    Mpk,
    /// A pre-forked process pool in a single wrap (`n = 1` of the m-to-n
    /// model), with CPU sharing via affinity (§4 "True Parallelism").
    Pool,
}

/// PGP's inputs beyond the workflow itself.
#[derive(Debug, Clone, Copy)]
pub struct PgpConfig {
    /// Latency SLO. `None` = performance-first: minimise predicted latency
    /// and allocate CPUs for it.
    pub slo: Option<SimDuration>,
    pub mode: PgpMode,
    /// Inflation applied to the Predictor's overhead parameters when
    /// checking the SLO (§6.2). 1.0 disables it.
    pub conservative_margin: f64,
    /// Cap on the process-count search (the paper parallelises this search
    /// for large workflows; we bound it).
    pub max_process_search: usize,
    /// Tier-mix co-optimisation: with a prewarm budget, every candidate
    /// plan's objective gains the amortised startup exposure its resource
    /// footprint leaves uncovered under that budget
    /// ([`chiron_lifecycle::penalty_for_plan`]). Smaller-footprint plans
    /// buy more fast-start coverage from the same rent, so the search is
    /// biased toward plans that prewarm cheaply. `None` keeps the
    /// latency-only objective — and byte-identical legacy plans. SLO
    /// checks always use the raw predicted latency.
    pub prewarm: Option<PrewarmBudget>,
    /// Wrap-to-wrap transfer mechanism of every emitted plan.
    /// [`TransferKind::RpcPayload`] (the default) keeps legacy plans
    /// byte-identical; [`TransferKind::ShmRing`] lets co-located wrap
    /// pairs ride the zero-copy shared-memory ring while split pairs fall
    /// back to RPC — the evaluator prices both through the same first-fit
    /// node packing the platform uses, so the search sees the savings.
    pub transfer: TransferKind,
}

impl PgpConfig {
    pub fn with_slo(slo: SimDuration) -> Self {
        PgpConfig {
            slo: Some(slo),
            mode: PgpMode::NativeThread,
            conservative_margin: 1.25,
            max_process_search: 32,
            prewarm: None,
            transfer: TransferKind::RpcPayload,
        }
    }

    pub fn performance_first() -> Self {
        PgpConfig {
            slo: None,
            mode: PgpMode::NativeThread,
            conservative_margin: 1.0,
            max_process_search: 32,
            prewarm: None,
            transfer: TransferKind::RpcPayload,
        }
    }

    pub fn with_mode(mut self, mode: PgpMode) -> Self {
        self.mode = mode;
        self
    }

    pub fn with_prewarm(mut self, budget: PrewarmBudget) -> Self {
        self.prewarm = Some(budget);
        self
    }

    pub fn with_transfer(mut self, transfer: TransferKind) -> Self {
        self.transfer = transfer;
        self
    }
}

/// The plan-selection penalty of `config`'s prewarm budget for one
/// candidate plan: zero without a budget (so legacy searches compare raw
/// latencies, bit for bit), otherwise the amortised residual-startup
/// exposure of the tier mix the budget affords this plan's footprint.
fn prewarm_penalty(
    workflow: &Workflow,
    plan: &DeploymentPlan,
    costs: &CostModel,
    config: &PgpConfig,
) -> SimDuration {
    match &config.prewarm {
        Some(budget) => penalty_for_plan(
            plan,
            workflow,
            costs,
            &LifecycleCosts::paper_calibrated(),
            budget,
            BillingModel::paper_calibrated().usd_per_gb_second,
        ),
        None => SimDuration::ZERO,
    }
}

/// What PGP decided.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    pub plan: DeploymentPlan,
    /// Conservatively predicted end-to-end latency of `plan`.
    pub predicted: SimDuration,
    /// Amortised residual-startup penalty of `plan` under the configured
    /// prewarm budget — the tier-mix term the search's objective added on
    /// top of `predicted`. Zero when no budget was configured.
    pub startup_penalty: SimDuration,
    /// Whether the SLO (if any) is met by the prediction.
    pub met_slo: bool,
    /// The chosen process count `n` for parallel stages.
    pub processes: usize,
    /// How the search arrived at the decision (for `figures -- obs`).
    pub audit: PgpAudit,
}

/// The decision audit of one schedule: how much search Algorithm 2
/// performed and what came out, beyond the plan itself. Describes the
/// search actually run — the cached and reference evaluators may legally
/// differ here (the reference search neither prunes nor memoises) even
/// though their plans are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PgpAudit {
    /// Process counts `n` evaluated end-to-end (partition + pack + trim).
    pub candidates_examined: u64,
    /// Kernighan–Lin effort summed over every pass of the search; a
    /// replayed partition adds the effort of the search it replays.
    pub kl: KlStats,
    /// Algorithm 1 lookups this schedule answered from the prediction
    /// cache (a replayed partition and a CPU-only KL candidate make none).
    pub cache_hits: u64,
    /// Prediction-cache misses (fresh simulations) for this schedule.
    pub cache_misses: u64,
    /// Per-function execution mode in the final plan, indexed by
    /// `FunctionId` ("fork", "pool", "main", or "unplaced").
    pub function_modes: Vec<&'static str>,
}

/// One mode label per function, read off the final plan — the
/// per-function-mode component of the decision audit.
fn function_modes(workflow: &Workflow, plan: &DeploymentPlan) -> Vec<&'static str> {
    let mut modes = vec!["unplaced"; workflow.function_count()];
    for stage in &plan.stages {
        for wrap in &stage.wraps {
            for proc in &wrap.processes {
                let label = match proc.spawn {
                    ProcessSpawn::Fork => "fork",
                    ProcessSpawn::Pool => "pool",
                    ProcessSpawn::MainReuse => "main",
                };
                for &f in &proc.functions {
                    modes[f.index()] = label;
                }
            }
        }
    }
    modes
}

/// Folds a finished schedule's audit into the process-wide obs counters.
fn publish_audit(audit: &PgpAudit) {
    SCHEDULES.incr();
    KL_ROUNDS.add(audit.kl.rounds);
    KL_CANDIDATES.add(audit.kl.candidates);
    KL_PRUNED.add(audit.kl.pruned);
    KL_APPLIED.add(audit.kl.applied);
}

/// The two predictions the Algorithm 2 search needs: the makespan of one
/// candidate process (the KL objective, in ms, of a set run as one
/// process of clone-staggered, unstretched threads) and the end-to-end
/// latency of a candidate plan (packing, trimming, selection). Routing
/// both through one trait lets the cached and reference implementations
/// swap cleanly while the search logic stays shared — and byte-identical.
trait PgpEval: KlObjective {
    /// Conservative end-to-end latency of `plan`.
    fn plan_latency(&mut self, plan: &DeploymentPlan) -> SimDuration;

    /// Lines 6–11 of Algorithm 2 for one stage ([`partition_one_stage`]),
    /// its search effort added to `stats`.
    fn partition(
        &mut self,
        stage: &[FunctionId],
        n: usize,
        stats: &mut KlStats,
    ) -> Vec<Vec<FunctionId>>;
}

/// Memoised, allocation-free evaluator (the default).
///
/// A KL round over two CPU-only sets is tabulated and scanned in integer
/// nanoseconds ([`SwapScan`]). Any other round's candidates are scored
/// against per-side [`StaggeredSummary`]s, rebuilt for that round into
/// buffers that live as long as the evaluator: a candidate's lower bound,
/// and a CPU-only candidate's makespan, are O(1) deltas of its round's
/// sets instead of O(set) recomputations.
struct CachedEval<'a> {
    predictor: &'a Predictor,
    check: &'a Predictor,
    workflow: &'a Workflow,
    catalog: &'a SegmentCatalog,
    cache: &'a PredictionCache,
    scratch: PredictScratch,
    /// The round's tables when both working sets are CPU-only.
    scan: SwapScan,
    /// The round's summaries otherwise.
    sides: [StaggeredSummary; 2],
    kl: KlScratch,
    /// Partitions searched by this schedule, memoised only when it ends:
    /// a schedule never replays its own searches (two stages with equal
    /// contents are both searched), so its cache hits and misses match a
    /// search without the memo.
    searched: Vec<(u64, PartitionMemo)>,
}

impl<'a> CachedEval<'a> {
    fn new(
        predictor: &'a Predictor,
        check: &'a Predictor,
        workflow: &'a Workflow,
        catalog: &'a SegmentCatalog,
        cache: &'a PredictionCache,
    ) -> Self {
        CachedEval {
            predictor,
            check,
            workflow,
            catalog,
            cache,
            scratch: PredictScratch::new(),
            scan: SwapScan::default(),
            sides: Default::default(),
            kl: KlScratch::default(),
            searched: Vec::new(),
        }
    }

    /// The KL objective's process shape for `set`.
    fn staggered<'s>(&self, set: &'s [FunctionId]) -> StaggeredSet<'s>
    where
        'a: 's,
    {
        StaggeredSet {
            set,
            catalog: self.catalog,
            spacing: self.predictor.costs.thread_clone,
            base: SimDuration::ZERO,
        }
    }

    /// The makespan of `set`, memoised under its [`StaggeredSet::key`].
    fn cached_makespan_ms(&mut self, set: &[FunctionId]) -> f64 {
        let src = self.staggered(set);
        let interval = self.predictor.costs.gil_switch_interval;
        self.cache
            .get_or_simulate(src.key(interval), &src, interval, &mut self.scratch.arena)
            .makespan
            .as_millis_f64()
    }
}

impl KlObjective for CachedEval<'_> {
    fn eval(&mut self, set: &[FunctionId]) -> f64 {
        match self.staggered(set).cpu_only_makespan() {
            Some(makespan) => makespan.as_millis_f64(),
            None => self.cached_makespan_ms(set),
        }
    }

    fn begin_round(&mut self, a: &[FunctionId], b: &[FunctionId]) {
        let (src_a, src_b) = (self.staggered(a), self.staggered(b));
        if !self.scan.begin(&src_a, &src_b) {
            self.sides[0].rebuild(&src_a);
            self.sides[1].rebuild(&src_b);
        }
    }

    fn best_swap(
        &mut self,
        free_a: &[usize],
        free_b: &[usize],
        stats: &mut KlStats,
    ) -> Option<(usize, usize, f64)> {
        let (ia, ib, score) = self.scan.best_swap(free_a, free_b, stats)?;
        Some((ia, ib, score.as_millis_f64()))
    }

    fn swapped_lower_bound(&mut self, side: Side, set: &[FunctionId], pos: usize) -> f64 {
        self.sides[side as usize]
            .lower_bound_with(self.catalog, pos, set[pos])
            .as_millis_f64()
    }

    fn swapped_eval(&mut self, side: Side, set: &[FunctionId], pos: usize) -> f64 {
        match self.sides[side as usize].makespan_with(self.catalog, pos, set[pos]) {
            Some(makespan) => makespan.as_millis_f64(),
            None => self.cached_makespan_ms(set),
        }
    }
}

impl PgpEval for CachedEval<'_> {
    fn plan_latency(&mut self, plan: &DeploymentPlan) -> SimDuration {
        self.check.predict_cached(
            self.workflow,
            plan,
            self.catalog,
            self.cache,
            &mut self.scratch,
        )
    }

    /// Memoised in the cache per stage content and `n` by an earlier
    /// schedule: a hit replays the recorded swaps onto the round-robin
    /// split and adds the recorded effort, so the audit reads as if the
    /// search had run.
    fn partition(
        &mut self,
        stage: &[FunctionId],
        n: usize,
        stats: &mut KlStats,
    ) -> Vec<Vec<FunctionId>> {
        if n.min(stage.len()) < 2 {
            return round_robin(stage, n); // one process: nothing to search
        }
        let costs = &self.predictor.costs;
        let key = partition_key(
            self.catalog,
            stage,
            n,
            costs.gil_switch_interval,
            costs.thread_clone,
        );
        if let Some(memo) = self.cache.partition(key) {
            let mut sets = round_robin(stage, n);
            for &[i, j, ia, ib] in &memo.swaps {
                let (left, right) = sets.split_at_mut(j as usize);
                std::mem::swap(
                    &mut left[i as usize][ia as usize],
                    &mut right[0][ib as usize],
                );
            }
            *stats += memo.stats;
            return sets;
        }
        let mut memo = PartitionMemo::default();
        let mut kl = std::mem::take(&mut self.kl);
        let sets = partition_one_stage(stage, n, self, &mut kl, &mut memo.stats, &mut memo.swaps);
        self.kl = kl;
        *stats += memo.stats;
        self.searched.push((key, memo));
        sets
    }
}

/// The pre-optimisation evaluator: owned `Vec<SimThread>` per objective
/// call, no memoisation. Kept as the oracle for the identical-output
/// guarantee and the before/after benchmarks.
struct ReferenceEval<'a> {
    predictor: &'a Predictor,
    check: &'a Predictor,
    workflow: &'a Workflow,
    profile: &'a WorkflowProfile,
}

impl KlObjective for ReferenceEval<'_> {
    fn eval(&mut self, set: &[FunctionId]) -> f64 {
        let clone_cost = self.predictor.costs.thread_clone;
        let threads: Vec<SimThread> = set
            .iter()
            .enumerate()
            .map(|(ti, &fid)| SimThread {
                created_at: clone_cost * ti as u64,
                segments: self.profile.function(fid).segments(),
            })
            .collect();
        predict_threads(&threads, self.predictor.costs.gil_switch_interval)
            .makespan
            .as_millis_f64()
    }

    // The pre-optimisation pass evaluated both sides of every candidate
    // swap; disabling the prunes reproduces that cost model exactly.
    fn prunes(&self) -> bool {
        false
    }
}

impl PgpEval for ReferenceEval<'_> {
    fn plan_latency(&mut self, plan: &DeploymentPlan) -> SimDuration {
        self.check.predict(self.workflow, self.profile, plan)
    }

    fn partition(
        &mut self,
        stage: &[FunctionId],
        n: usize,
        stats: &mut KlStats,
    ) -> Vec<Vec<FunctionId>> {
        partition_one_stage(
            stage,
            n,
            self,
            &mut KlScratch::default(),
            stats,
            &mut Vec::new(),
        )
    }
}

/// The PGP scheduler.
#[derive(Debug, Clone)]
pub struct PgpScheduler {
    predictor: Predictor,
}

impl PgpScheduler {
    pub fn new(predictor: Predictor) -> Self {
        PgpScheduler { predictor }
    }

    pub fn paper_calibrated() -> Self {
        PgpScheduler::new(Predictor::paper_calibrated())
    }

    /// Runs Algorithm 2 and returns the chosen deployment plan.
    pub fn schedule(
        &self,
        workflow: &Workflow,
        profile: &WorkflowProfile,
        config: &PgpConfig,
    ) -> ScheduleOutcome {
        self.schedule_with_cache(workflow, profile, config, &PredictionCache::new())
    }

    /// [`PgpScheduler::schedule`] against a caller-owned prediction cache.
    /// Keys are content-addressed, so one cache can outlive many schedules
    /// (e.g. re-scheduling variants of a workflow, or online re-runs on
    /// autoscale events) and keeps getting warmer.
    pub fn schedule_with_cache(
        &self,
        workflow: &Workflow,
        profile: &WorkflowProfile,
        config: &PgpConfig,
        cache: &PredictionCache,
    ) -> ScheduleOutcome {
        let check = self.predictor.conservative(config.conservative_margin);
        let catalog = SegmentCatalog::new(profile);
        let mut eval = CachedEval::new(&self.predictor, &check, workflow, &catalog, cache);
        let before = cache.stats();
        let mut outcome = self.dispatch(workflow, config, &mut eval);
        let after = cache.stats();
        for (key, memo) in eval.searched {
            cache.put_partition(key, memo);
        }
        outcome.audit.cache_hits = after.hits - before.hits;
        outcome.audit.cache_misses = after.misses - before.misses;
        outcome.audit.function_modes = function_modes(workflow, &outcome.plan);
        publish_audit(&outcome.audit);
        outcome
    }

    /// The scheduler exactly as it was before memoisation: per-call owned
    /// allocations, every candidate re-simulated. Oracle for the
    /// byte-identical-plans property test and the before/after benches.
    pub fn schedule_reference(
        &self,
        workflow: &Workflow,
        profile: &WorkflowProfile,
        config: &PgpConfig,
    ) -> ScheduleOutcome {
        let check = self.predictor.conservative(config.conservative_margin);
        let mut eval = ReferenceEval {
            predictor: &self.predictor,
            check: &check,
            workflow,
            profile,
        };
        // The reference path audits its own (prune-free, uncached) search;
        // cache deltas stay zero and nothing is published to obs.
        let mut outcome = self.dispatch(workflow, config, &mut eval);
        outcome.audit.function_modes = function_modes(workflow, &outcome.plan);
        outcome
    }

    fn dispatch(
        &self,
        workflow: &Workflow,
        config: &PgpConfig,
        eval: &mut dyn PgpEval,
    ) -> ScheduleOutcome {
        match config.mode {
            PgpMode::Pool => self.schedule_pool(workflow, config, eval),
            PgpMode::Mpk => self.schedule_mpk(workflow, config, eval),
            PgpMode::NativeThread => self.schedule_native(workflow, config, eval),
        }
    }

    // ---------------------------------------------------------------------
    // Native-thread mode: the full Algorithm 2.
    // ---------------------------------------------------------------------
    fn schedule_native(
        &self,
        workflow: &Workflow,
        config: &PgpConfig,
        eval: &mut dyn PgpEval,
    ) -> ScheduleOutcome {
        let max_n = workflow
            .max_parallelism()
            .min(config.max_process_search)
            .max(1);
        // `best` carries (plan, raw predicted latency, objective, n); the
        // objective adds the prewarm-budget startup penalty (zero without
        // one, so legacy searches are untouched).
        let mut best: Option<(DeploymentPlan, SimDuration, SimDuration, usize)> = None;
        let mut stale_rounds = 0usize;
        let mut audit = PgpAudit::default();

        for n in 1..=max_n {
            audit.candidates_examined += 1;
            // Lines 6–11: initial partition + KL refinement per stage.
            let partitions = self.partition_stages(workflow, n, eval, &mut audit.kl);
            // Lines 13–16 (and CPU minimisation): pack and trim under the
            // SLO, or latency-optimally without one.
            let plan =
                self.pack_and_allocate(workflow, &partitions, config, IsolationKind::None, eval);
            let predicted = eval.plan_latency(&plan);
            let objective =
                predicted + prewarm_penalty(workflow, &plan, &self.predictor.costs, config);
            let improved = best
                .as_ref()
                .map(|(_, _, o, _)| objective < *o)
                .unwrap_or(true);
            if improved {
                best = Some((plan, predicted, objective, n));
                stale_rounds = 0;
            } else {
                stale_rounds += 1;
            }
            if let Some(slo) = config.slo {
                if predicted <= slo {
                    let (plan, predicted, objective, n) = best.expect("just inserted");
                    return ScheduleOutcome {
                        plan,
                        predicted,
                        startup_penalty: objective - predicted,
                        met_slo: true,
                        processes: n,
                        audit,
                    };
                }
            } else if stale_rounds >= 3 {
                break; // latency stopped improving; stop widening.
            }
        }
        let (plan, predicted, objective, n) = best.expect("n = 1 always evaluated");
        let met_slo = config.slo.map(|slo| predicted <= slo).unwrap_or(true);
        ScheduleOutcome {
            plan,
            predicted,
            startup_penalty: objective - predicted,
            met_slo,
            processes: n,
            audit,
        }
    }

    /// Lines 6–11 of Algorithm 2 for every stage: round-robin into `n`
    /// sets, then KL-refine every pair of sets.
    fn partition_stages(
        &self,
        workflow: &Workflow,
        n: usize,
        eval: &mut dyn PgpEval,
        stats: &mut KlStats,
    ) -> Vec<Vec<Vec<FunctionId>>> {
        workflow
            .stages
            .iter()
            .map(|stage| eval.partition(&stage.functions, n, stats))
            .collect()
    }

    /// Packs each stage's processes into wraps and allocates CPUs
    /// (lines 13–16 plus the resource-efficiency objective).
    fn pack_and_allocate(
        &self,
        workflow: &Workflow,
        partitions: &[Vec<Vec<FunctionId>>],
        config: &PgpConfig,
        isolation: IsolationKind,
        eval: &mut dyn PgpEval,
    ) -> DeploymentPlan {
        // Start from the most co-located plan (1 wrap per stage) and widen
        // the busiest stage until the SLO is met or wraps are singletons.
        // Wrap-count comparisons use the prewarm-penalised objective (more
        // wraps = more sandboxes = costlier tier coverage); the SLO gate
        // stays on the raw latency.
        let max_procs = partitions.iter().map(Vec::len).max().unwrap_or(1);
        let mut chosen: Option<DeploymentPlan> = None;
        let mut best_obj = SimDuration::from_nanos(u64::MAX);
        for wraps in 1..=max_procs {
            let plan = self.build_plan(workflow, partitions, wraps, isolation, 0, config.transfer);
            let lat = eval.plan_latency(&plan);
            let obj = lat + prewarm_penalty(workflow, &plan, &self.predictor.costs, config);
            match config.slo {
                Some(slo) => {
                    if lat <= slo {
                        chosen = Some(plan);
                        break; // fewest wraps meeting the SLO
                    }
                    // Keep the best-effort fallback.
                    if obj < best_obj {
                        best_obj = obj;
                        chosen = Some(plan);
                    }
                }
                None => {
                    if obj < best_obj {
                        best_obj = obj;
                        chosen = Some(plan);
                    }
                }
            }
        }
        let mut plan = chosen.expect("at least one packing evaluated");
        self.trim_cpus(&mut plan, config, eval);
        plan
    }

    /// Public access to the plan materialiser, used by the evaluation
    /// harness to enumerate candidate wrap designs (Fig. 12 explores "all
    /// possible wraps").
    pub fn materialize(
        &self,
        workflow: &Workflow,
        partitions: &[Vec<Vec<FunctionId>>],
        wrap_count: usize,
        isolation: IsolationKind,
        pool_size: u32,
    ) -> DeploymentPlan {
        // Plan enumeration keeps the legacy RPC-payload tier so Fig. 12's
        // candidate space (and its digests) are unchanged.
        self.build_plan(
            workflow,
            partitions,
            wrap_count,
            isolation,
            pool_size,
            TransferKind::RpcPayload,
        )
    }

    /// Round-robin stage partitions into `n` processes followed by KL
    /// refinement (Algorithm 2 lines 6–11), exposed for plan enumeration.
    /// Searched by the cached evaluator on a fresh cache, whose prunes are
    /// exact: the partitions are the reference search's.
    pub fn partitions(
        &self,
        workflow: &Workflow,
        profile: &WorkflowProfile,
        n: usize,
    ) -> Vec<Vec<Vec<FunctionId>>> {
        let catalog = SegmentCatalog::new(profile);
        let cache = PredictionCache::new();
        let mut eval =
            CachedEval::new(&self.predictor, &self.predictor, workflow, &catalog, &cache);
        self.partition_stages(workflow, n, &mut eval, &mut KlStats::default())
    }

    /// Materialises a plan: `wrap_count` wraps per parallel stage,
    /// processes distributed round-robin, conflicting functions pinned to
    /// singleton wraps, CPU allocations initialised to each sandbox's peak
    /// process count.
    fn build_plan(
        &self,
        workflow: &Workflow,
        partitions: &[Vec<Vec<FunctionId>>],
        wrap_count: usize,
        isolation: IsolationKind,
        pool_size: u32,
        transfer: TransferKind,
    ) -> DeploymentPlan {
        let pooled = pool_size > 0;
        let mut stages = Vec::with_capacity(partitions.len());
        let mut max_sandbox = 0u32;
        // Pinned (conflicting) functions get sandboxes disjoint from every
        // possible normal wrap id, across all stages: a conflicting runtime
        // image can never share a sandbox with anything else.
        let mut next_pinned = partitions.iter().map(Vec::len).max().unwrap_or(1) as u32;
        for sets in partitions {
            // §3.4: pin conflicting functions into singleton wraps.
            let conflicts = StageConflicts::new(workflow, sets);
            let mut pinned: Vec<FunctionId> = Vec::new();
            let mut normal: Vec<Vec<FunctionId>> = Vec::new();
            for set in sets {
                let mut keep = Vec::new();
                for &f in set {
                    if conflicts.pinned(f) {
                        pinned.push(f);
                    } else {
                        keep.push(f);
                    }
                }
                if !keep.is_empty() {
                    normal.push(keep);
                }
            }

            let w = wrap_count.min(normal.len()).max(1);
            let mut wraps: Vec<WrapPlan> = (0..w)
                .map(|k| WrapPlan {
                    sandbox: SandboxId(k as u32),
                    processes: Vec::new(),
                })
                .collect();
            for (i, set) in normal.into_iter().enumerate() {
                let spawn = if pooled {
                    ProcessPlan::pooled(set)
                } else {
                    ProcessPlan::forked(set)
                };
                wraps[i % w].processes.push(spawn);
            }
            wraps.retain(|wrap| !wrap.processes.is_empty());
            // Single-process wraps run on their orchestrator's threads
            // (Fig. 9's `Thread(f1, req)` wrap form) unless pooled.
            for wrap in &mut wraps {
                if !pooled && wrap.processes.len() == 1 {
                    wrap.processes[0] =
                        ProcessPlan::main_reuse(std::mem::take(&mut wrap.processes[0].functions));
                }
            }
            // Pinned singleton wraps go to dedicated sandboxes.
            for f in pinned {
                wraps.push(WrapPlan {
                    sandbox: SandboxId(next_pinned),
                    processes: vec![ProcessPlan::main_reuse(vec![f])],
                });
                next_pinned += 1;
            }
            assert!(!wraps.is_empty(), "a stage always yields at least one wrap");
            for wrap in &wraps {
                max_sandbox = max_sandbox.max(wrap.sandbox.0);
            }
            stages.push(StagePlan { wraps });
        }

        // Initial CPU allocation: each sandbox's peak concurrent process
        // count (one GIL-bound CPU per process). Only sandboxes actually
        // referenced by some wrap are materialised.
        let mut cpus = vec![0u32; max_sandbox as usize + 1];
        for stage in &stages {
            for wrap in &stage.wraps {
                let demand = wrap.processes.len().max(1) as u32;
                let slot = &mut cpus[wrap.sandbox.index()];
                *slot = (*slot).max(demand);
            }
        }
        let sandboxes: Vec<SandboxPlan> = cpus
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| SandboxPlan {
                id: SandboxId(i as u32),
                cpus: c,
                pool_size: if i == 0 { pool_size } else { 0 },
            })
            .collect();

        DeploymentPlan {
            system: SystemKind::Chiron,
            workflow: workflow.name.clone(),
            runtime: RuntimeKind::PseudoParallel,
            isolation,
            transfer,
            scheduling: SchedulingKind::PreDeployed,
            sandboxes,
            stages,
        }
    }

    /// Greedily removes CPUs (non-uniform allocation, Observation 4) while
    /// the conservative prediction still meets the SLO. Without an SLO the
    /// trim keeps the latency-optimal allocation (removing a CPU must not
    /// increase the prediction). The sandbox contents never change here, so
    /// with the cached evaluator each candidate decrement is a lookup — and
    /// the prewarm penalty, a function of the memory footprint and sandbox
    /// count only, is invariant under CPU trims and cancels out of the
    /// comparison.
    fn trim_cpus(&self, plan: &mut DeploymentPlan, config: &PgpConfig, eval: &mut dyn PgpEval) {
        let limit = config.slo.unwrap_or_else(|| eval.plan_latency(plan));
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..plan.sandboxes.len() {
                while plan.sandboxes[i].cpus > 1 {
                    plan.sandboxes[i].cpus -= 1;
                    if eval.plan_latency(plan) <= limit {
                        changed = true;
                    } else {
                        plan.sandboxes[i].cpus += 1;
                        break;
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------------------
    // MPK mode (§4): sequential stages as MPK threads, parallel stages as
    // forked single-function processes, block overhead amortised across
    // wraps.
    // ---------------------------------------------------------------------
    fn schedule_mpk(
        &self,
        workflow: &Workflow,
        config: &PgpConfig,
        eval: &mut dyn PgpEval,
    ) -> ScheduleOutcome {
        // Every parallel function its own process: n = stage parallelism.
        let partitions: Vec<Vec<Vec<FunctionId>>> = workflow
            .stages
            .iter()
            .map(|s| s.functions.iter().map(|&f| vec![f]).collect())
            .collect();
        let plan = self.pack_and_allocate(workflow, &partitions, config, IsolationKind::Mpk, eval);
        let mut plan = plan;
        plan.system = SystemKind::ChironM;
        let predicted = eval.plan_latency(&plan);
        let startup_penalty = prewarm_penalty(workflow, &plan, &self.predictor.costs, config);
        let met_slo = config.slo.map(|slo| predicted <= slo).unwrap_or(true);
        let processes = workflow.max_parallelism();
        ScheduleOutcome {
            plan,
            predicted,
            startup_penalty,
            met_slo,
            processes,
            // MPK mode has no n-search and no KL passes: the single fixed
            // partition is the only candidate.
            audit: PgpAudit {
                candidates_examined: 1,
                ..PgpAudit::default()
            },
        }
    }

    // ---------------------------------------------------------------------
    // Pool mode (§4): one wrap, pre-forked workers, shared CPUs.
    // ---------------------------------------------------------------------
    fn schedule_pool(
        &self,
        workflow: &Workflow,
        config: &PgpConfig,
        eval: &mut dyn PgpEval,
    ) -> ScheduleOutcome {
        let partitions: Vec<Vec<Vec<FunctionId>>> = workflow
            .stages
            .iter()
            .map(|s| s.functions.iter().map(|&f| vec![f]).collect())
            .collect();
        let pool_size = workflow.max_parallelism() as u32;
        let mut plan = self.build_plan(
            workflow,
            &partitions,
            usize::MAX,
            IsolationKind::None,
            pool_size,
            config.transfer,
        );
        // A pool is a single wrap: force everything into sandbox 0.
        for stage in &mut plan.stages {
            let processes: Vec<ProcessPlan> =
                stage.wraps.drain(..).flat_map(|w| w.processes).collect();
            stage.wraps = vec![WrapPlan {
                sandbox: SandboxId(0),
                processes,
            }];
        }
        plan.sandboxes = vec![SandboxPlan {
            id: SandboxId(0),
            cpus: workflow.max_parallelism() as u32,
            pool_size,
        }];
        plan.system = SystemKind::ChironP;
        self.trim_cpus(&mut plan, config, eval);
        let predicted = eval.plan_latency(&plan);
        let startup_penalty = prewarm_penalty(workflow, &plan, &self.predictor.costs, config);
        let met_slo = config.slo.map(|slo| predicted <= slo).unwrap_or(true);
        ScheduleOutcome {
            plan,
            predicted,
            startup_penalty,
            met_slo,
            processes: pool_size as usize,
            audit: PgpAudit {
                candidates_examined: 1,
                ..PgpAudit::default()
            },
        }
    }
}

/// Line 9 of Algorithm 2: `fns` round-robin into `n` sets ({f1, f_{n+1},
/// ...}, {f2, ...}, ..., {f_n, ...}), never more sets than functions.
fn round_robin(fns: &[FunctionId], n: usize) -> Vec<Vec<FunctionId>> {
    let n_eff = n.min(fns.len()).max(1);
    let mut sets: Vec<Vec<FunctionId>> = vec![Vec::new(); n_eff];
    for (i, &f) in fns.iter().enumerate() {
        sets[i % n_eff].push(f);
    }
    sets
}

/// Line 9 + lines 10–11 of Algorithm 2 for one stage: the round-robin
/// split, then KL over every pair; objective = the slower of the two
/// candidate processes. §7 identifies KL as PGP's complexity bottleneck;
/// we bound each pass to pairs whose swap space is tractable (large
/// same-stage sets are nearly homogeneous round-robin splits, where KL's
/// gain vanishes). Every applied swap is appended to `swaps` as `[i, j,
/// position in set i, position in set j]`. Generic rather than `dyn`, so
/// the KL loop's per-candidate scoring calls are static.
fn partition_one_stage<E: PgpEval>(
    fns: &[FunctionId],
    n: usize,
    eval: &mut E,
    kl: &mut KlScratch,
    stats: &mut KlStats,
    swaps: &mut Vec<[u32; 4]>,
) -> Vec<Vec<FunctionId>> {
    let mut sets = round_robin(fns, n);
    let n_eff = sets.len();
    const MAX_SWAP_SPACE: usize = 256;
    for i in 0..n_eff {
        for j in (i + 1)..n_eff {
            let (left, right) = sets.split_at_mut(j);
            if left[i].len() * right[0].len() > MAX_SWAP_SPACE {
                continue;
            }
            let mut a = std::mem::take(&mut left[i]);
            let mut b = std::mem::take(&mut right[0]);
            let (_, applied) = kernighan_lin_with_stats(&mut a, &mut b, eval, stats, kl);
            swaps.extend(
                applied
                    .into_iter()
                    .map(|(ia, ib)| [i as u32, j as u32, ia as u32, ib as u32]),
            );
            left[i] = a;
            right[0] = b;
        }
    }
    sets
}

/// §3.4's sharing constraints over one stage: a function must be pinned
/// when another function of the stage (by id) runs an incompatible
/// language runtime or writes a file it writes. The runtimes and written
/// files are counted once over the stage, so each check is O(1) in the
/// stage size instead of a scan of every other function.
struct StageConflicts<'w> {
    workflow: &'w Workflow,
    /// Functions of the stage (with multiplicity) per language runtime.
    runtimes: Vec<(LanguageRuntime, usize)>,
    functions: usize,
    /// Functions of the stage (with multiplicity) writing each file.
    writers: HashMap<&'w str, usize>,
    /// How often each file-writing function occurs in the stage; its own
    /// copies never conflict with it.
    copies: HashMap<FunctionId, usize>,
}

impl<'w> StageConflicts<'w> {
    fn new(workflow: &'w Workflow, sets: &[Vec<FunctionId>]) -> Self {
        let mut conflicts = StageConflicts {
            workflow,
            runtimes: Vec::new(),
            functions: 0,
            writers: HashMap::new(),
            copies: HashMap::new(),
        };
        for &f in sets.iter().flatten() {
            let spec = workflow.function(f);
            conflicts.functions += 1;
            match conflicts
                .runtimes
                .iter_mut()
                .find(|(r, _)| r.compatible(spec.runtime))
            {
                Some((_, n)) => *n += 1,
                None => conflicts.runtimes.push((spec.runtime, 1)),
            }
            if spec.writes_files.is_empty() {
                continue;
            }
            *conflicts.copies.entry(f).or_default() += 1;
            for (k, file) in spec.writes_files.iter().enumerate() {
                if !spec.writes_files[..k].contains(file) {
                    *conflicts.writers.entry(file.as_str()).or_default() += 1;
                }
            }
        }
        conflicts
    }

    fn pinned(&self, f: FunctionId) -> bool {
        let spec = self.workflow.function(f);
        let same_runtime = self
            .runtimes
            .iter()
            .find(|(r, _)| r.compatible(spec.runtime))
            .map_or(0, |&(_, n)| n);
        if same_runtime < self.functions {
            return true;
        }
        spec.writes_files
            .iter()
            .any(|file| self.writers[file.as_str()] > self.copies[&f])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::{apps, FunctionSpec, LanguageRuntime, Segment};
    use chiron_profiler::Profiler;

    fn profile(wf: &Workflow) -> WorkflowProfile {
        Profiler::default().profile_workflow(wf)
    }

    #[test]
    fn finra5_prefers_threads() {
        // Sub-millisecond-heavy FINRA-5 is best served by thread execution
        // (Observation 3): PGP should choose few processes.
        let wf = apps::finra(5);
        let out = PgpScheduler::paper_calibrated().schedule(
            &wf,
            &profile(&wf),
            &PgpConfig::performance_first(),
        );
        assert!(out.processes <= 2, "chose {} processes", out.processes);
        assert!(out.met_slo);
        let stage_sets: Vec<Vec<FunctionId>> =
            wf.stages.iter().map(|s| s.functions.clone()).collect();
        out.plan.validate(&stage_sets).unwrap();
    }

    #[test]
    fn slapp_prefers_processes() {
        // 36ms CPU-heavy functions serialised by the GIL: PGP must split
        // them across processes.
        let wf = apps::slapp();
        let out = PgpScheduler::paper_calibrated().schedule(
            &wf,
            &profile(&wf),
            &PgpConfig::performance_first(),
        );
        assert!(out.processes >= 2, "chose {} processes", out.processes);
    }

    #[test]
    fn slo_mode_meets_slo_with_fewer_cpus() {
        let wf = apps::finra(50);
        let prof = profile(&wf);
        let sched = PgpScheduler::paper_calibrated();
        let fast = sched.schedule(&wf, &prof, &PgpConfig::performance_first());
        // A relaxed SLO: 40% above the performance-first prediction.
        let slo = fast.predicted.mul_f64(1.4);
        let eff = sched.schedule(&wf, &prof, &PgpConfig::with_slo(slo));
        assert!(eff.met_slo);
        assert!(eff.predicted <= slo);
        assert!(
            eff.plan.total_cpus() <= fast.plan.total_cpus(),
            "SLO mode must not use more CPUs: {} vs {}",
            eff.plan.total_cpus(),
            fast.plan.total_cpus()
        );
    }

    #[test]
    fn prewarm_budget_penalises_and_stays_deterministic() {
        let wf = apps::finra(50);
        let prof = profile(&wf);
        let sched = PgpScheduler::paper_calibrated();

        let base = sched.schedule(&wf, &prof, &PgpConfig::performance_first());
        assert_eq!(base.startup_penalty, SimDuration::ZERO);

        // A thin budget leaves most of the demand window exposed to the
        // cold boot, so the chosen plan carries a positive penalty.
        let budget = PrewarmBudget::new(1e-4, 50.0);
        let cfg = PgpConfig::performance_first().with_prewarm(budget);
        let tiered = sched.schedule(&wf, &prof, &cfg);
        assert!(tiered.startup_penalty > SimDuration::ZERO);
        let stage_sets: Vec<Vec<FunctionId>> =
            wf.stages.iter().map(|s| s.functions.clone()).collect();
        tiered.plan.validate(&stage_sets).unwrap();

        // The penalty is deterministic: the memoised search and the
        // pre-optimisation oracle agree byte for byte under a budget too.
        let reference = sched.schedule_reference(&wf, &prof, &cfg);
        assert_eq!(tiered.plan, reference.plan);
        assert_eq!(tiered.predicted, reference.predicted);
        assert_eq!(tiered.startup_penalty, reference.startup_penalty);
    }

    #[test]
    fn unsatisfiable_slo_reports_best_effort() {
        let wf = apps::slapp();
        let out = PgpScheduler::paper_calibrated().schedule(
            &wf,
            &profile(&wf),
            &PgpConfig::with_slo(SimDuration::from_millis(1)),
        );
        assert!(!out.met_slo);
        assert!(out.predicted > SimDuration::from_millis(1));
    }

    #[test]
    fn plans_validate_for_all_benchmarks() {
        let sched = PgpScheduler::paper_calibrated();
        for wf in [
            apps::social_network(),
            apps::movie_reviewing(),
            apps::slapp_v(),
        ] {
            let out = sched.schedule(&wf, &profile(&wf), &PgpConfig::performance_first());
            let stage_sets: Vec<Vec<FunctionId>> =
                wf.stages.iter().map(|s| s.functions.clone()).collect();
            out.plan.validate(&stage_sets).unwrap();
        }
    }

    #[test]
    fn mpk_mode_forks_parallel_functions() {
        let wf = apps::finra(5);
        let out = PgpScheduler::paper_calibrated().schedule(
            &wf,
            &profile(&wf),
            &PgpConfig::performance_first().with_mode(PgpMode::Mpk),
        );
        assert_eq!(out.plan.isolation, IsolationKind::Mpk);
        // Parallel stage: single-function processes only. (Single-process
        // wraps legitimately become thread execution under MPK.)
        for wrap in &out.plan.stages[1].wraps {
            for proc in &wrap.processes {
                assert_eq!(proc.functions.len(), 1);
            }
        }
    }

    #[test]
    fn pool_mode_uses_single_wrap_and_shared_cpus() {
        let wf = apps::finra(50);
        let out = PgpScheduler::paper_calibrated().schedule(
            &wf,
            &profile(&wf),
            &PgpConfig::performance_first().with_mode(PgpMode::Pool),
        );
        assert_eq!(out.plan.sandbox_count(), 1);
        assert_eq!(out.plan.sandboxes[0].pool_size, 50);
        for stage in &out.plan.stages {
            assert_eq!(stage.wraps.len(), 1);
        }
        let stage_sets: Vec<Vec<FunctionId>> =
            wf.stages.iter().map(|s| s.functions.clone()).collect();
        out.plan.validate(&stage_sets).unwrap();
    }

    #[test]
    fn conflicting_runtimes_are_pinned() {
        let fns = vec![
            FunctionSpec::new("py3", vec![Segment::cpu_ms(5)]),
            FunctionSpec::new("py2", vec![Segment::cpu_ms(5)])
                .with_runtime(LanguageRuntime::Python2),
            FunctionSpec::new("py3b", vec![Segment::cpu_ms(5)]),
        ];
        let wf = Workflow::new("mixed", fns, vec![vec![0, 1, 2]]).unwrap();
        let prof = Profiler::default().profile_workflow(&wf);
        let out =
            PgpScheduler::paper_calibrated().schedule(&wf, &prof, &PgpConfig::performance_first());
        // The Python 2 function must sit alone in its wrap.
        let wrap_of = |f: u32| {
            out.plan.stages[0]
                .wraps
                .iter()
                .position(|w| w.functions().any(|x| x == FunctionId(f)))
                .unwrap()
        };
        let w1 = wrap_of(1);
        assert_eq!(out.plan.stages[0].wraps[w1].function_count(), 1);
        let stage_sets: Vec<Vec<FunctionId>> =
            wf.stages.iter().map(|s| s.functions.clone()).collect();
        out.plan.validate(&stage_sets).unwrap();
    }

    #[test]
    fn stage_conflicts_match_the_pairwise_rule() {
        let spec = |name: &str, runtime, files: &[&str]| {
            files.iter().fold(
                FunctionSpec::new(name, vec![Segment::cpu_ms(1)]).with_runtime(runtime),
                |f, file| f.with_writes_file(*file),
            )
        };
        let fns = vec![
            spec("a", LanguageRuntime::Python3, &[]),
            spec("b", LanguageRuntime::Python3, &["/x", "/x"]),
            spec("c", LanguageRuntime::Python3, &["/x", "/y"]),
            spec("d", LanguageRuntime::Python3, &["/z"]),
            spec("e", LanguageRuntime::Python2, &[]),
            spec("f", LanguageRuntime::Python3, &["/w"]),
        ];
        let wf = Workflow::new("conflicts", fns, vec![vec![0, 1, 2, 3, 4, 5]]).unwrap();
        // The §3.4 rule as stated: another function of the stage, by id,
        // with an incompatible runtime or a shared written file.
        let pairwise = |sets: &[Vec<FunctionId>], f: FunctionId| {
            let fa = wf.function(f);
            sets.iter().flatten().any(|&g| {
                let fb = wf.function(g);
                g != f && (!fa.runtime.compatible(fb.runtime) || fa.file_conflict(fb))
            })
        };
        let ids = |v: &[u32]| v.iter().map(|&i| FunctionId(i)).collect::<Vec<_>>();
        // Partitions as `materialize` may receive them, repeats included.
        for sets in [
            vec![ids(&[0, 1, 2, 3, 4, 5])],
            vec![ids(&[0, 1]), ids(&[3, 5])],
            vec![ids(&[1, 1]), ids(&[5, 5, 3])],
            vec![ids(&[1]), ids(&[2, 0])],
            vec![ids(&[4, 4])],
            vec![ids(&[4, 0])],
        ] {
            let conflicts = StageConflicts::new(&wf, &sets);
            for &f in sets.iter().flatten() {
                assert_eq!(conflicts.pinned(f), pairwise(&sets, f), "{f:?} in {sets:?}");
            }
        }
    }

    #[test]
    fn shared_cache_is_exercised_and_harmless() {
        // One cache across repeated schedules: hit rate climbs, outputs
        // stay identical to cold-cache runs.
        let wf = apps::finra(20);
        let prof = profile(&wf);
        let sched = PgpScheduler::paper_calibrated();
        let config = PgpConfig::performance_first();
        let cold = sched.schedule(&wf, &prof, &config);
        let cache = PredictionCache::new();
        let first = sched.schedule_with_cache(&wf, &prof, &config, &cache);
        let after_first = cache.stats();
        assert!(after_first.hits > 0, "memoisation must be exercised");
        let second = sched.schedule_with_cache(&wf, &prof, &config, &cache);
        let after_second = cache.stats();
        assert_eq!(cold.plan, first.plan);
        assert_eq!(first.plan, second.plan);
        // The second run re-uses the first run's entries: no new misses.
        assert_eq!(after_first.misses, after_second.misses);
        assert_eq!(after_first.entries, after_second.entries);
    }

    #[test]
    fn cpu_trim_is_non_uniform_and_minimal() {
        let wf = apps::slapp();
        let prof = profile(&wf);
        let sched = PgpScheduler::paper_calibrated();
        let fast = sched.schedule(&wf, &prof, &PgpConfig::performance_first());
        let generous = sched.schedule(
            &wf,
            &prof,
            &PgpConfig::with_slo(fast.predicted.mul_f64(2.0)),
        );
        // With double the latency budget, fewer CPUs must suffice.
        assert!(generous.plan.total_cpus() < fast.plan.total_cpus().max(2));
    }
}
