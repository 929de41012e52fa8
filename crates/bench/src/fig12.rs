//! Fig. 12: prediction error of Chiron's white-box Predictor vs the
//! learned baselines (RFR, LSTM, GNN) across "all possible wraps" of five
//! workflows under native-thread, Intel-MPK and process-pool execution
//! (§6.1).
//!
//! Methodology mirrors the paper:
//!
//! * candidate wrap designs are enumerated per workflow (process counts ×
//!   wrap counts, with the per-mode isolation/pool settings);
//! * ground truth is the jittered virtual platform (mean over seeds);
//! * Chiron's Predictor needs no training; the learned models are trained
//!   leave-one-workflow-out — exactly the "lack of diversity in training
//!   data" condition the paper blames for their inconsistency.

use crate::common::{pct, Table};
use crate::sweep::par_map_workers;
use chiron::metrics::prediction_error;
use chiron::ml::{
    plan_features, plan_graph, stage_sequence, ForestConfig, GnnConfig, GnnRegressor, LstmConfig,
    LstmRegressor, RandomForest,
};
use chiron::model::{apps, DeploymentPlan, IsolationKind, JitterModel, PlatformConfig};
use chiron::predict::Predictor;
use chiron::PgpScheduler;
use chiron_model::{SimDuration, Workflow};
use chiron_profiler::{Profiler, WorkflowProfile};
use chiron_runtime::VirtualPlatform;

/// One execution-mechanism column of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fig12Mode {
    NativeThread,
    IntelMpk,
    ProcessPool,
}

impl Fig12Mode {
    fn label(self) -> &'static str {
        match self {
            Fig12Mode::NativeThread => "Native Thread",
            Fig12Mode::IntelMpk => "Intel MPK",
            Fig12Mode::ProcessPool => "Process Pool",
        }
    }
}

/// Node-feature matrix plus adjacency matrix of one plan graph.
pub type PlanGraph = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// One enumerated sample: a candidate plan plus its measured latency.
#[derive(Debug)]
struct Sample {
    workflow_idx: usize,
    plan: DeploymentPlan,
    actual: SimDuration,
    predicted_chiron: SimDuration,
}

/// The five workflows of the prediction study.
pub fn workflows() -> Vec<Workflow> {
    vec![
        apps::social_network(),
        apps::movie_reviewing(),
        apps::finra(5),
        apps::slapp(),
        apps::slapp_v(),
    ]
}

/// Enumerates candidate wrap designs for one workflow and mode.
fn enumerate_plans(
    workflow: &Workflow,
    profile: &WorkflowProfile,
    mode: Fig12Mode,
) -> Vec<DeploymentPlan> {
    let sched = PgpScheduler::paper_calibrated();
    let max_par = workflow.max_parallelism().min(6);
    let mut plans = Vec::new();
    match mode {
        Fig12Mode::NativeThread | Fig12Mode::IntelMpk => {
            let isolation = if mode == Fig12Mode::IntelMpk {
                IsolationKind::Mpk
            } else {
                IsolationKind::None
            };
            for n in 1..=max_par {
                let partitions = sched.partitions(workflow, profile, n);
                for w in 1..=n {
                    plans.push(sched.materialize(workflow, &partitions, w, isolation, 0));
                }
            }
        }
        Fig12Mode::ProcessPool => {
            // Pool designs vary in the shared CPU allocation.
            let pool = workflow.max_parallelism() as u32;
            let partitions: Vec<Vec<Vec<chiron_model::FunctionId>>> = workflow
                .stages
                .iter()
                .map(|s| s.functions.iter().map(|&f| vec![f]).collect())
                .collect();
            for cpus in 1..=pool {
                let mut plan =
                    sched.materialize(workflow, &partitions, 1, IsolationKind::None, pool);
                for sb in &mut plan.sandboxes {
                    sb.cpus = cpus;
                }
                plans.push(plan);
            }
        }
    }
    plans
}

/// Builds the full sample set for one mode: enumerate, measure (jittered
/// ground truth), and attach the Chiron prediction.
fn build_samples(mode: Fig12Mode, truth_seeds: u32, workers: usize) -> Vec<Sample> {
    let wfs = workflows();
    let profiles: Vec<WorkflowProfile> = wfs
        .iter()
        .map(|wf| Profiler::default().profile_workflow(wf))
        .collect();
    // Enumerate every candidate plan up front; each (workflow, plan) pair
    // is then one sweep cell measuring jittered ground truth from fixed
    // seeds, so worker count cannot change any sample.
    let cells: Vec<(usize, DeploymentPlan)> = wfs
        .iter()
        .enumerate()
        .flat_map(|(wi, wf)| {
            enumerate_plans(wf, &profiles[wi], mode)
                .into_iter()
                .map(move |plan| (wi, plan))
        })
        .collect();
    par_map_workers(&cells, workers, |_, (wi, plan)| {
        let platform = VirtualPlatform::new(
            PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
        );
        let predictor = Predictor::paper_calibrated();
        let wf = &wfs[*wi];
        let mut total = SimDuration::ZERO;
        for seed in 0..truth_seeds.max(1) {
            total += platform
                .execute(wf, plan, 1000 + u64::from(seed))
                .expect("enumerated plans validate")
                .e2e;
        }
        Sample {
            workflow_idx: *wi,
            plan: plan.clone(),
            actual: total / u64::from(truth_seeds.max(1)),
            predicted_chiron: predictor.predict(wf, &profiles[*wi], plan),
        }
    })
}

/// Per-workflow mean absolute prediction errors of the four predictors.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub workflow: String,
    pub chiron: f64,
    pub rfr: f64,
    pub lstm: f64,
    pub gnn: f64,
}

/// Runs the full Fig. 12 study for one mode. `fast` shrinks training for
/// tests.
fn run_mode(mode: Fig12Mode, fast: bool, workers: usize) -> Vec<Fig12Row> {
    let wfs = workflows();
    let profiles: Vec<WorkflowProfile> = wfs
        .iter()
        .map(|wf| Profiler::default().profile_workflow(wf))
        .collect();
    let samples = build_samples(mode, if fast { 2 } else { 5 }, workers);

    // Feature representations for the learned models.
    let flat: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| plan_features(&wfs[s.workflow_idx], &profiles[s.workflow_idx], &s.plan))
        .collect();
    let seqs: Vec<Vec<Vec<f64>>> = samples
        .iter()
        .map(|s| stage_sequence(&wfs[s.workflow_idx], &profiles[s.workflow_idx], &s.plan))
        .collect();
    let graphs: Vec<PlanGraph> = samples
        .iter()
        .map(|s| plan_graph(&wfs[s.workflow_idx], &profiles[s.workflow_idx], &s.plan))
        .collect();
    let targets: Vec<f64> = samples.iter().map(|s| s.actual.as_millis_f64()).collect();

    // One sweep cell per held-out workflow: training is deterministic
    // given the (fixed) sample split, so the cells are independent.
    let holdouts: Vec<usize> = (0..wfs.len()).collect();
    par_map_workers(&holdouts, workers, |_, &wi| {
        let wf = &wfs[wi];
        let test: Vec<usize> = (0..samples.len())
            .filter(|&i| samples[i].workflow_idx == wi)
            .collect();
        let train: Vec<usize> = (0..samples.len())
            .filter(|&i| samples[i].workflow_idx != wi)
            .collect();
        assert!(!test.is_empty() && !train.is_empty());

        // Chiron's white-box predictor (no training).
        let chiron_err = mean_err(
            test.iter()
                .map(|&i| prediction_error(samples[i].predicted_chiron, samples[i].actual).abs()),
        );

        // RFR.
        let tx: Vec<Vec<f64>> = train.iter().map(|&i| flat[i].clone()).collect();
        let ty: Vec<f64> = train.iter().map(|&i| targets[i]).collect();
        let forest = RandomForest::fit(
            &tx,
            &ty,
            ForestConfig {
                n_trees: if fast { 10 } else { 50 },
                ..ForestConfig::default()
            },
        )
        .expect("a non-empty training set, one target per sample");
        let rfr_err = mean_err(test.iter().map(|&i| {
            let predicted = forest
                .predict(&flat[i])
                .expect("every plan has the same features");
            rel_err(predicted, targets[i])
        }));

        // LSTM.
        let sx: Vec<Vec<Vec<f64>>> = train.iter().map(|&i| seqs[i].clone()).collect();
        let lstm = LstmRegressor::fit(
            &sx,
            &ty,
            LstmConfig {
                epochs: if fast { 15 } else { 80 },
                ..LstmConfig::default()
            },
        )
        .expect("a non-empty training set, one target per sample");
        let lstm_err = mean_err(test.iter().map(|&i| {
            let predicted = lstm
                .predict(&seqs[i])
                .expect("every plan has the same features");
            rel_err(predicted, targets[i])
        }));

        // GNN.
        let gx: Vec<PlanGraph> = train.iter().map(|&i| graphs[i].clone()).collect();
        let gnn = GnnRegressor::fit(
            &gx,
            &ty,
            GnnConfig {
                epochs: if fast { 20 } else { 100 },
                ..GnnConfig::default()
            },
        )
        .expect("a non-empty training set, one target per sample");
        let gnn_err = mean_err(test.iter().map(|&i| {
            let (nodes, adj) = &graphs[i];
            let predicted = gnn
                .predict(nodes, adj)
                .expect("every plan has the same features");
            rel_err(predicted, targets[i])
        }));

        Fig12Row {
            workflow: wf.name.clone(),
            chiron: chiron_err,
            rfr: rfr_err,
            lstm: lstm_err,
            gnn: gnn_err,
        }
    })
}

fn rel_err(predicted: f64, actual: f64) -> f64 {
    ((predicted - actual) / actual).abs()
}

fn mean_err(errs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = errs.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// The full Fig. 12 report across all three modes.
pub fn fig12(workers: usize) -> String {
    let mut out = String::from(
        "Fig. 12 — mean absolute prediction error (paper: Chiron averages \
         6.7%, 1.4–14.2% per workflow; −78.1%/−86.6%/−70.1% vs \
         RFR/LSTM/GNN)\n\n",
    );
    for mode in [
        Fig12Mode::NativeThread,
        Fig12Mode::IntelMpk,
        Fig12Mode::ProcessPool,
    ] {
        let rows = run_mode(mode, false, workers);
        let mut table = Table::new(vec!["workflow", "Chiron", "RFR", "LSTM", "GNN"]);
        let mut sums = [0.0; 4];
        for r in &rows {
            sums[0] += r.chiron;
            sums[1] += r.rfr;
            sums[2] += r.lstm;
            sums[3] += r.gnn;
            table.row(vec![
                r.workflow.clone(),
                pct(r.chiron),
                pct(r.rfr),
                pct(r.lstm),
                pct(r.gnn),
            ]);
        }
        let n = rows.len() as f64;
        table.row(vec![
            "MEAN".to_string(),
            pct(sums[0] / n),
            pct(sums[1] / n),
            pct(sums[2] / n),
            pct(sums[3] / n),
        ]);
        out.push_str(&format!("({})\n{}\n", mode.label(), table.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_produces_valid_plans() {
        for mode in [
            Fig12Mode::NativeThread,
            Fig12Mode::IntelMpk,
            Fig12Mode::ProcessPool,
        ] {
            let wf = apps::finra(5);
            let profile = Profiler::default().profile_workflow(&wf);
            let plans = enumerate_plans(&wf, &profile, mode);
            assert!(plans.len() >= 3, "{mode:?}: {} plans", plans.len());
            let stage_sets: Vec<Vec<chiron_model::FunctionId>> =
                wf.stages.iter().map(|s| s.functions.clone()).collect();
            for plan in &plans {
                plan.validate(&stage_sets).unwrap();
            }
        }
    }

    #[test]
    fn chiron_predictor_is_accurate_on_enumerated_plans() {
        let samples = build_samples(Fig12Mode::NativeThread, 3, 2);
        let mean = mean_err(
            samples
                .iter()
                .map(|s| prediction_error(s.predicted_chiron, s.actual).abs()),
        );
        // The paper reports 6.7% on real hardware; demand < 15% here.
        assert!(mean < 0.15, "Chiron mean error {mean}");
    }

    #[test]
    fn chiron_beats_learned_baselines_on_average() {
        let rows = run_mode(Fig12Mode::NativeThread, true, 2);
        let mean =
            |f: &dyn Fn(&Fig12Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
        let chiron = mean(&|r| r.chiron);
        let rfr = mean(&|r| r.rfr);
        let lstm = mean(&|r| r.lstm);
        let gnn = mean(&|r| r.gnn);
        assert!(
            chiron < rfr && chiron < lstm && chiron < gnn,
            "chiron {chiron} rfr {rfr} lstm {lstm} gnn {gnn}"
        );
    }
}
