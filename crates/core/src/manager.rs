//! The Chiron deployment manager — the pipeline of Fig. 9.
//!
//! ➊ the user submits a workflow definition and a latency SLO; ➋ the
//! Profiler collects each function's execution behaviour; ➌ PGP explores
//! the optimal wrap design with the Predictor; ➍ the Generator emits each
//! wrap's orchestrator code; ➎ the platform spawns a sandbox per wrap;
//! ➏ invocations are routed to wrap 1, which drives the rest.

use chiron_deploy::{generate, GeneratedWrap};
use chiron_model::{DeploymentPlan, PlanError, PlatformConfig, SimDuration, Workflow};
use chiron_obs::WhatIfReport;
use chiron_pgp::{PgpConfig, PgpMode, PgpScheduler, ScheduleOutcome};
use chiron_predict::{PredictionCache, Predictor};
use chiron_profiler::{Profiler, WorkflowProfile};
use chiron_runtime::{RequestOutcome, VirtualPlatform};
use chiron_serve::{FaultPlan, ServeConfig, ServeError, ServeReport, ServeSimulation, Workload};

/// A deployed workflow: the artefacts of steps ➋–➎.
#[derive(Debug, Clone)]
pub struct Deployment {
    pub profile: WorkflowProfile,
    pub schedule: ScheduleOutcome,
    pub wraps: Vec<GeneratedWrap>,
}

impl Deployment {
    pub fn plan(&self) -> &DeploymentPlan {
        &self.schedule.plan
    }
}

/// The deployment manager.
#[derive(Debug)]
pub struct Chiron {
    platform: VirtualPlatform,
    profiler: Profiler,
    scheduler: PgpScheduler,
    /// Content-addressed Algorithm 1 memo shared by every schedule this
    /// manager runs: keys are pure functions of thread content, so entries
    /// stay valid across SLOs, modes, margins, profiler seeds — and even
    /// across workflows that share function profiles (dynamic-workflow
    /// variants overlap heavily).
    prediction_cache: PredictionCache,
}

impl Chiron {
    pub fn new(config: PlatformConfig) -> Self {
        let scheduler = PgpScheduler::new(Predictor::from_config(&config));
        Chiron {
            platform: VirtualPlatform::new(config),
            profiler: Profiler::default(),
            scheduler,
            prediction_cache: PredictionCache::new(),
        }
    }

    pub fn platform(&self) -> &VirtualPlatform {
        &self.platform
    }

    fn run_scheduler(
        &self,
        workflow: &Workflow,
        profile: &WorkflowProfile,
        config: &PgpConfig,
    ) -> ScheduleOutcome {
        self.scheduler
            .schedule_with_cache(workflow, profile, config, &self.prediction_cache)
    }

    /// Steps ➋–➎: profile, schedule, generate.
    pub fn deploy(
        &self,
        workflow: &Workflow,
        slo: Option<SimDuration>,
        mode: PgpMode,
    ) -> Deployment {
        let profile = self.profiler.profile_workflow(workflow);
        let config = match slo {
            Some(slo) => PgpConfig::with_slo(slo).with_mode(mode),
            None => PgpConfig::performance_first().with_mode(mode),
        };
        let schedule = self.run_scheduler(workflow, &profile, &config);
        let wraps = generate(workflow, &schedule.plan);
        Deployment {
            profile,
            schedule,
            wraps,
        }
    }

    /// Steps ➋–➎ with a caller-supplied PGP configuration — the hook for
    /// opting into non-default knobs like the shm-ring transfer tier
    /// (`PgpConfig::with_transfer`) while keeping the same profiling and
    /// wrap-generation pipeline as [`Chiron::deploy`].
    pub fn deploy_with_config(&self, workflow: &Workflow, config: &PgpConfig) -> Deployment {
        let profile = self.profiler.profile_workflow(workflow);
        let schedule = self.run_scheduler(workflow, &profile, config);
        let wraps = generate(workflow, &schedule.plan);
        Deployment {
            profile,
            schedule,
            wraps,
        }
    }

    /// Step ➏: routes one request through the deployed wraps.
    pub fn invoke(
        &self,
        workflow: &Workflow,
        deployment: &Deployment,
        seed: u64,
    ) -> Result<RequestOutcome, PlanError> {
        self.platform.execute(workflow, deployment.plan(), seed)
    }

    /// Online serving: drives an open-loop workload against the deployed
    /// wraps on the virtual cluster — router, autoscaler and failure
    /// recovery per [`chiron_serve`]. Deterministic in `(workload, seed)`.
    pub fn serve(
        &self,
        workflow: &Workflow,
        deployment: &Deployment,
        config: ServeConfig,
        workload: &Workload,
        seed: u64,
    ) -> Result<ServeReport, ServeError> {
        self.serve_with_faults(
            workflow,
            deployment,
            config,
            FaultPlan::none(),
            workload,
            seed,
        )
    }

    /// [`Chiron::serve`] with scripted node kills.
    pub fn serve_with_faults(
        &self,
        workflow: &Workflow,
        deployment: &Deployment,
        config: ServeConfig,
        faults: FaultPlan,
        workload: &Workload,
        seed: u64,
    ) -> Result<ServeReport, ServeError> {
        ServeSimulation::new(workflow.clone(), deployment.plan().clone(), config)
            .with_faults(faults)
            .run(workload, seed)
    }

    /// Traced serving run plus exact latency attribution: enables the
    /// trace sink around one [`Chiron::serve_with_faults`] run, then
    /// reconstructs every request's critical path and decomposes its
    /// sojourn into `{queueing, cold start, GIL block, interaction,
    /// execution, retry}` — the six components sum to the sojourn
    /// *exactly*, in integer nanoseconds.
    ///
    /// Returns the serve report together with the attribution. The
    /// tracing flag is restored to its previous state even on error.
    pub fn attribution_report(
        &self,
        workflow: &Workflow,
        deployment: &Deployment,
        config: ServeConfig,
        faults: FaultPlan,
        workload: &Workload,
        seed: u64,
    ) -> Result<(ServeReport, chiron_obs::AttributionReport), ServeError> {
        let was_tracing = chiron_obs::tracing_enabled();
        chiron_obs::set_tracing(true);
        // ~8 events per request life cycle (arrival/enqueue/dispatch/
        // complete plus replica churn and DES spans).
        chiron_obs::begin_capture_sized(workload.total_requests() as usize * 8);
        let result = ServeSimulation::new(workflow.clone(), deployment.plan().clone(), config)
            .with_faults(faults)
            .run(workload, seed);
        let trace = chiron_obs::end_capture();
        chiron_obs::set_tracing(was_tracing);
        let report = result?;
        Ok((report, chiron_obs::attribute(&trace)))
    }

    /// Coz-style what-if profiling: for the `top_n` most-blamed
    /// components of `attrib`, re-runs the serving DES with that
    /// component's underlying constant scaled to 75% / 50% / 25% and
    /// ranks components by the best predicted p99 improvement.
    ///
    /// Constants scaled per component: cold start → the platform's
    /// `sandbox_cold_start`; execution / GIL block / interaction → the
    /// warm service time, shrunk by the component's share of the DES
    /// service window. Queueing and retry are emergent (no constant to
    /// scale) and are reported as unsupported.
    #[allow(clippy::too_many_arguments)]
    pub fn whatif_report(
        &self,
        workflow: &Workflow,
        deployment: &Deployment,
        config: ServeConfig,
        faults: FaultPlan,
        workload: &Workload,
        seed: u64,
        baseline: &ServeReport,
        attrib: &chiron_obs::AttributionReport,
        top_n: usize,
    ) -> WhatIfReport {
        use chiron_obs::Component;
        let baseline_p99_ms = baseline.sojourns.percentile(0.99).as_millis_f64();
        // The serve sim's own warm-execution service base, reproduced so
        // the service-window components can be scaled around it.
        let service_base = VirtualPlatform::new(config.platform.clone())
            .with_cold_starts(false)
            .execute(workflow, deployment.plan(), 0)
            .map(|outcome| outcome.e2e)
            .ok();
        let weights = attrib.service_weights;
        let weight_total: u64 = weights.iter().sum();
        let candidates: Vec<_> = attrib.blame_ranking().into_iter().take(top_n).collect();
        let runner = |component: Component, scale: f64| -> Option<f64> {
            let sim = match component {
                Component::ColdStart => {
                    let mut cfg = config.clone();
                    cfg.platform.costs.sandbox_cold_start =
                        cfg.platform.costs.sandbox_cold_start.mul_f64(scale);
                    ServeSimulation::new(workflow.clone(), deployment.plan().clone(), cfg)
                }
                Component::Execution | Component::GilBlock | Component::Interaction => {
                    let base = service_base?;
                    if weight_total == 0 {
                        return None;
                    }
                    let slot = match component {
                        Component::GilBlock => 1,
                        Component::Interaction => 2,
                        _ => 3,
                    };
                    let share = weights[slot] as f64 / weight_total as f64;
                    let scaled = base.mul_f64(1.0 - share * (1.0 - scale));
                    ServeSimulation::new(
                        workflow.clone(),
                        deployment.plan().clone(),
                        config.clone(),
                    )
                    .with_service_base_override(scaled)
                }
                // Queueing, retry, and cross-cluster forwarding are
                // emergent properties of the DES — there is no single
                // constant whose virtual speedup models them honestly.
                Component::Queueing | Component::Retry | Component::Forwarding => return None,
            };
            let report = sim.with_faults(faults.clone()).run(workload, seed).ok()?;
            Some(report.sojourns.percentile(0.99).as_millis_f64())
        };
        chiron_obs::whatif::run(&candidates, baseline_p99_ms, runner)
    }
}

/// A dynamic workflow deployed variant-by-variant (§7's future-work
/// scenario, implemented): PGP pre-plans every resolvable shape offline;
/// requests are routed to the matching variant's wraps at invocation time.
#[derive(Debug, Clone)]
pub struct DynamicDeployment {
    pub source: chiron_model::DynamicWorkflow,
    /// `(choice vector, concrete workflow, its deployment)` per variant.
    pub variants: Vec<(Vec<usize>, Workflow, Deployment)>,
}

impl Chiron {
    /// Pre-plans every variant of a dynamic workflow (switch stages, §7).
    pub fn deploy_dynamic(
        &self,
        workflow: &chiron_model::DynamicWorkflow,
        slo: Option<SimDuration>,
        mode: PgpMode,
    ) -> DynamicDeployment {
        let variants = workflow
            .variants()
            .into_iter()
            .map(|(choices, wf)| {
                let deployment = self.deploy(&wf, slo, mode);
                (choices, wf, deployment)
            })
            .collect();
        DynamicDeployment {
            source: workflow.clone(),
            variants,
        }
    }

    /// Routes one request through a dynamic deployment: the switch
    /// selectors pick the variant from the request's payload size, then the
    /// variant's pre-deployed wraps serve it.
    pub fn invoke_dynamic(
        &self,
        deployment: &DynamicDeployment,
        request_bytes: u64,
        seed: u64,
    ) -> Result<(Vec<usize>, RequestOutcome), PlanError> {
        let choices = deployment.source.route(request_bytes);
        let (_, wf, dep) = deployment
            .variants
            .iter()
            .find(|(c, _, _)| *c == choices)
            .expect("every routable choice vector was pre-planned");
        let outcome = self.invoke(wf, dep, seed)?;
        Ok((choices, outcome))
    }
}

impl Default for Chiron {
    fn default() -> Self {
        Chiron::new(PlatformConfig::paper_calibrated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::apps;

    #[test]
    fn deploy_and_invoke_roundtrip() {
        let chiron = Chiron::default();
        let wf = apps::finra(5);
        let deployment = chiron.deploy(&wf, None, PgpMode::NativeThread);
        assert_eq!(deployment.wraps.len(), deployment.plan().sandbox_count());
        let outcome = chiron.invoke(&wf, &deployment, 0).unwrap();
        assert!(!outcome.e2e.is_zero());
        assert_eq!(outcome.timelines.len(), wf.function_count());
    }

    #[test]
    fn serve_facade_runs_a_deployment_online() {
        let chiron = Chiron::default();
        let wf = apps::finra(5);
        let deployment = chiron.deploy(&wf, None, PgpMode::NativeThread);
        let report = chiron
            .serve(
                &wf,
                &deployment,
                ServeConfig::paper_testbed(),
                &Workload::steady(20.0, 500),
                11,
            )
            .unwrap();
        assert_eq!(report.completed, 500);
        assert_eq!(report.lost, 0);
        // The warm single-request latency lower-bounds every sojourn.
        let single = chiron.invoke(&wf, &deployment, 0).unwrap().e2e;
        assert!(report.sojourns.min() >= single.mul_f64(1.0 - 0.05 - 1e-9));
    }

    #[test]
    fn slo_deployment_meets_slo_in_ground_truth() {
        let chiron = Chiron::default();
        let wf = apps::slapp();
        // Derive a realistic SLO from a performance-first run.
        let fast = chiron.deploy(&wf, None, PgpMode::NativeThread);
        let slo = fast.schedule.predicted.mul_f64(1.5);
        let deployment = chiron.deploy(&wf, Some(slo), PgpMode::NativeThread);
        assert!(deployment.schedule.met_slo);
        let outcome = chiron.invoke(&wf, &deployment, 0).unwrap();
        assert!(
            outcome.e2e <= slo,
            "ground truth {} exceeded SLO {}",
            outcome.e2e,
            slo
        );
    }

    #[test]
    fn dynamic_workflow_routes_per_request() {
        use chiron_model::{BranchSelector, DynStage, DynamicWorkflow, FunctionId};
        use chiron_model::{FunctionSpec, Segment};
        let f = |name: &str, ms: u64, out: u64| {
            FunctionSpec::new(name, vec![Segment::cpu_ms(ms)]).with_output_bytes(out)
        };
        let dw = DynamicWorkflow {
            name: "VideoFFmpeg".into(),
            functions: vec![
                f("upload", 5, 8 << 20),
                f("simple_process", 20, 1 << 20),
                f("split_a", 12, 2 << 20),
                f("split_b", 12, 2 << 20),
                f("merge", 8, 1 << 20),
            ],
            stages: vec![
                DynStage::Static(vec![FunctionId(0)]),
                DynStage::Switch {
                    selector: BranchSelector::OutputBytesAbove { threshold: 4 << 20 },
                    branches: vec![vec![FunctionId(1)], vec![FunctionId(2), FunctionId(3)]],
                },
                DynStage::Static(vec![FunctionId(4)]),
            ],
        };
        let chiron = Chiron::default();
        let deployment = chiron.deploy_dynamic(&dw, None, PgpMode::NativeThread);
        assert_eq!(deployment.variants.len(), 2);
        let (choices, outcome) = chiron.invoke_dynamic(&deployment, 1024, 0).unwrap();
        // upload's 8MB output exceeds the 4MB threshold → the split branch.
        assert_eq!(choices, vec![1]);
        assert_eq!(outcome.timelines.len(), 4);
        assert!(!outcome.e2e.is_zero());
    }

    #[test]
    fn attribution_and_whatif_facades() {
        use chiron_deploy::NodeId;
        use chiron_model::SimTime;
        let chiron = Chiron::default();
        let wf = apps::finra(12);
        let deployment = chiron.deploy(&wf, None, PgpMode::NativeThread);
        let workload = Workload::steady(25.0, 400);
        let faults = FaultPlan::none().kill_at(SimTime::from_millis_f64(5_000.0), NodeId(0));
        let (report, attrib) = chiron
            .attribution_report(
                &wf,
                &deployment,
                ServeConfig::paper_testbed(),
                faults.clone(),
                &workload,
                3,
            )
            .unwrap();
        assert_eq!(report.completed, 400);
        assert_eq!(attrib.workflow, "FINRA-12");
        assert!(attrib.sums_exact());
        assert_eq!(attrib.requests.len() as u64, report.completed);

        let whatif = chiron.whatif_report(
            &wf,
            &deployment,
            ServeConfig::paper_testbed(),
            faults,
            &workload,
            3,
            &report,
            &attrib,
            4,
        );
        assert!(
            whatif.ranking.len() + whatif.unsupported.len() >= 3,
            "top-4 candidates must produce rankings or explicit unsupporteds"
        );
        assert!(
            !whatif.ranking.is_empty(),
            "at least one component has a scalable constant"
        );
        // Shrinking a constant can only help (or be neutral): the best
        // experiment must not predict a slowdown beyond noise.
        for r in &whatif.ranking {
            assert!(r.best_improvement_ms > -50.0, "{:?}", r);
        }
    }

    #[test]
    fn shared_cache_warms_across_deploys() {
        let chiron = Chiron::default();
        let wf = apps::finra(20);
        chiron.deploy(&wf, None, PgpMode::NativeThread);
        let after_first = chiron.prediction_cache.stats();
        assert!(after_first.hits > 0);
        assert!(after_first.entries > 0);
        // A re-deploy re-uses every entry: no new simulations.
        chiron.deploy(&wf, None, PgpMode::NativeThread);
        let after_second = chiron.prediction_cache.stats();
        assert_eq!(after_first.misses, after_second.misses);
        assert!(after_second.hits > after_first.hits);
    }
}
