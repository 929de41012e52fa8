//! The evaluation harness behind every figure of §6: deploy a workflow
//! under any of the eleven systems, replay requests on the virtual
//! platform (optionally jittered), and report latency, resources,
//! throughput and dollar cost.
//!
//! The harness holds no state of its own. Profiles, plans and paper SLOs
//! are pure functions of their inputs and are derived afresh at every
//! call, so two figures running at once share nothing.

use chiron_deploy as deploy;
use chiron_metrics::{
    node_throughput, plan_resources, request_cost, CostReport, LatencySamples, ResourceUsage,
    ThroughputReport,
};
use chiron_model::{
    DeploymentPlan, JitterModel, PlatformConfig, SimDuration, SystemKind, Workflow,
};
use chiron_profiler::{Profiler, WorkflowProfile};
use chiron_runtime::{RequestOutcome, VirtualPlatform};

/// Profiles `workflow` with the default profiler.
pub fn profile_for(workflow: &Workflow) -> WorkflowProfile {
    Profiler::default().profile_workflow(workflow)
}

/// How a system evaluation replays requests.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Requests executed (each with a distinct jitter seed).
    pub requests: u32,
    pub jitter: JitterModel,
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            requests: 10, // §6.2: "at least 10 times"
            jitter: JitterModel::NONE,
            seed: 1,
        }
    }
}

impl EvalConfig {
    pub fn jittered(requests: u32) -> Self {
        EvalConfig {
            requests,
            jitter: JitterModel::cluster(),
            seed: 1,
        }
    }

    /// The virtual platform this config replays requests on.
    pub fn platform(&self) -> VirtualPlatform {
        VirtualPlatform::new(PlatformConfig::paper_calibrated().with_jitter(self.jitter))
    }

    /// Jitter seed of request `r` — the `r`-th request of a sequential
    /// replay, so sweep cells can execute individual requests and still
    /// match [`evaluate_plan`] byte-for-byte.
    pub fn request_seed(&self, r: u32) -> u64 {
        self.seed + u64::from(r)
    }
}

/// Everything §6 reports about one (system, workflow) pair.
#[derive(Debug, Clone)]
pub struct SystemEval {
    pub system: SystemKind,
    pub plan: DeploymentPlan,
    pub latencies: LatencySamples,
    pub mean_latency: SimDuration,
    pub usage: ResourceUsage,
    pub throughput: ThroughputReport,
    pub cost: CostReport,
    /// One representative request outcome (first seed) with full
    /// per-function timelines.
    pub sample_outcome: RequestOutcome,
}

/// Builds the deployment plan for any evaluated system. Chiron variants
/// run PGP against `slo` (or performance-first when `None`).
pub fn plan_for(
    system: SystemKind,
    workflow: &Workflow,
    profile: &WorkflowProfile,
    slo: Option<SimDuration>,
) -> DeploymentPlan {
    if let Some(plan) = deploy::baseline(system, workflow) {
        return plan;
    }
    match system {
        SystemKind::Chiron => deploy::chiron(workflow, profile, slo).plan,
        SystemKind::ChironM => deploy::chiron_m(workflow, profile, slo).plan,
        SystemKind::ChironP => deploy::chiron_p(workflow, profile, slo).plan,
        _ => unreachable!("baseline() covers every other system"),
    }
}

/// Billed ASF state transitions per request: one per function state plus
/// one per stage transition of the state machine.
pub fn state_transitions(workflow: &Workflow) -> u32 {
    (workflow.function_count() + workflow.stage_count()) as u32
}

/// Evaluates one pre-built plan.
pub fn evaluate_plan(workflow: &Workflow, plan: DeploymentPlan, config: &EvalConfig) -> SystemEval {
    let platform_config = PlatformConfig::paper_calibrated().with_jitter(config.jitter);
    let platform = VirtualPlatform::new(platform_config.clone());
    let mut latencies = LatencySamples::new();
    let mut sample_outcome = None;
    for r in 0..config.requests.max(1) {
        let outcome = platform
            .execute(workflow, &plan, config.seed + u64::from(r))
            .expect("plan validated by the planner");
        latencies.push(outcome.e2e);
        if sample_outcome.is_none() {
            sample_outcome = Some(outcome);
        }
    }
    let mean_latency = latencies.mean();
    let usage: ResourceUsage = plan_resources(&plan, workflow, &platform_config.costs);
    let throughput = node_throughput(usage, mean_latency, &platform_config.costs);
    let cost = request_cost(
        plan.system,
        usage,
        mean_latency,
        platform_config.costs.cpu_ghz,
        &platform_config.billing,
        state_transitions(workflow),
    );
    SystemEval {
        system: plan.system,
        latencies,
        mean_latency,
        usage,
        throughput,
        cost,
        sample_outcome: sample_outcome.expect("at least one request"),
        plan,
    }
}

/// [`plan_for`] with profiling folded in.
pub fn system_plan(
    system: SystemKind,
    workflow: &Workflow,
    slo: Option<SimDuration>,
) -> DeploymentPlan {
    plan_for(system, workflow, &profile_for(workflow), slo)
}

/// Profiles the workflow, builds the system's plan, and evaluates it.
pub fn evaluate_system(
    system: SystemKind,
    workflow: &Workflow,
    slo: Option<SimDuration>,
    config: &EvalConfig,
) -> SystemEval {
    let plan = system_plan(system, workflow, slo);
    evaluate_plan(workflow, plan, config)
}

/// The paper's SLO convention (§6.2): "the average latency of Faastlane
/// with an additional 10 ms slack".
pub fn paper_slo(workflow: &Workflow) -> SimDuration {
    let faastlane = evaluate_plan(
        workflow,
        deploy::faastlane(workflow),
        &EvalConfig {
            requests: 1,
            ..EvalConfig::default()
        },
    );
    faastlane.mean_latency + SimDuration::from_millis(10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::apps;

    #[test]
    fn chiron_beats_the_deployment_model_baselines() {
        // The headline claim (Fig. 13): Chiron's latency is below ASF,
        // OpenFaaS, SAND and Faastlane on every benchmark we spot-check.
        let cfg = EvalConfig::default();
        for wf in [apps::finra(5), apps::finra(50), apps::slapp()] {
            let slo = Some(paper_slo(&wf));
            let chiron = evaluate_system(SystemKind::Chiron, &wf, slo, &cfg);
            for sys in [
                SystemKind::Asf,
                SystemKind::OpenFaas,
                SystemKind::Sand,
                SystemKind::Faastlane,
            ] {
                let base = evaluate_system(sys, &wf, None, &cfg);
                assert!(
                    chiron.mean_latency <= base.mean_latency,
                    "{}: Chiron {} vs {sys} {}",
                    wf.name,
                    chiron.mean_latency,
                    base.mean_latency
                );
            }
        }
    }

    #[test]
    fn chiron_throughput_dominates_faastlane() {
        // Fig. 16: better latency and fewer resources compound into a
        // large throughput advantage.
        let cfg = EvalConfig::default();
        let wf = apps::finra(50);
        let slo = Some(paper_slo(&wf));
        let chiron = evaluate_system(SystemKind::Chiron, &wf, slo, &cfg);
        let faastlane = evaluate_system(SystemKind::Faastlane, &wf, None, &cfg);
        assert!(
            chiron.throughput.rps > 2.0 * faastlane.throughput.rps,
            "Chiron {} req/s vs Faastlane {} req/s",
            chiron.throughput.rps,
            faastlane.throughput.rps
        );
    }

    #[test]
    fn openfaas_memory_exceeds_many_to_one() {
        // Observation 4 / Fig. 16: runtime-image duplication dominates.
        let cfg = EvalConfig::default();
        let wf = apps::finra(50);
        let openfaas = evaluate_system(SystemKind::OpenFaas, &wf, None, &cfg);
        let faastlane = evaluate_system(SystemKind::Faastlane, &wf, None, &cfg);
        assert!(openfaas.usage.memory_bytes > 5 * faastlane.usage.memory_bytes);
    }

    #[test]
    fn asf_cost_towers_over_chiron() {
        // Fig. 19: state transitions make ASF orders of magnitude dearer.
        let cfg = EvalConfig::default();
        let wf = apps::social_network();
        let asf = evaluate_system(SystemKind::Asf, &wf, None, &cfg);
        let chiron = evaluate_system(SystemKind::Chiron, &wf, Some(paper_slo(&wf)), &cfg);
        assert!(asf.cost.usd_per_million > 20.0 * chiron.cost.usd_per_million);
    }

    #[test]
    fn prewarmed_chiron_plan_deploys_and_stays_competitive() {
        // The tier-mix co-optimised plan is a valid deployment and keeps
        // Chiron's latency edge over Faastlane (the penalty only biases
        // plan selection; it never degrades the plan below the baselines).
        let cfg = EvalConfig::default();
        let wf = apps::finra(50);
        let profile = profile_for(&wf);
        let budget = chiron_pgp::PrewarmBudget::new(1e-4, 50.0);
        let out = deploy::chiron_prewarmed(&wf, &profile, None, budget);
        assert!(out.startup_penalty > SimDuration::ZERO);
        let prewarmed = evaluate_plan(&wf, out.plan, &cfg);
        let faastlane = evaluate_system(SystemKind::Faastlane, &wf, None, &cfg);
        assert!(
            prewarmed.mean_latency <= faastlane.mean_latency,
            "prewarmed Chiron {} vs Faastlane {}",
            prewarmed.mean_latency,
            faastlane.mean_latency
        );
    }

    #[test]
    fn jittered_eval_produces_spread() {
        let cfg = EvalConfig::jittered(20);
        let wf = apps::finra(5);
        let eval = evaluate_system(SystemKind::Faastlane, &wf, None, &cfg);
        assert_eq!(eval.latencies.len(), 20);
        assert!(eval.latencies.min() < eval.latencies.max());
    }
}
