//! `figures -- transfer`: the zero-copy data-plane figure, written to
//! `BENCH_TRANSFER.json`.
//!
//! Three layers of the shm-ring tier are pinned together here:
//!
//! * **the model** — the full Fig. 4 tier ladder (S3 → MinIO → RPC
//!   payload → pipe → shm ring) evaluated at 1 KB / 1 MB / 1 GB;
//! * **the real ring** — `chiron_runtime::measure_fit()` runs the actual
//!   lock-free SPSC ring on this host and reports its measured
//!   `floor + bytes/bandwidth` fit next to the model's calibrated
//!   constants. CI gates `ring_floor_lt_pipe_floor`: the measured ring
//!   floor must sit below the modelled pipe floor (50 µs), i.e. the tier
//!   the model promises must be physically achievable;
//! * **the planner and the serving plane** — with the tier opted in
//!   (`PgpConfig::with_transfer`), the fast, reference and parallel PGP
//!   searches must stay byte-identical (`plans_identical_with_shm_tier`),
//!   the sharded fleet must reproduce the same `FleetReport` bytes for
//!   every (shards, workers) combination (`fleet_digests_identical`), and
//!   a FINRA-12 serving run's attributed `interaction` blame must shrink
//!   against the same deployment on the legacy RPC-payload tier
//!   (`interaction_blame_reduced`).

use chiron::serving::{ServeConfig, ServeReport, ServeSimulation, Workload};
use chiron::{Chiron, FleetConfig, FleetSimulation, FleetWorkload, PgpConfig, PgpScheduler};
use chiron_metrics::ArrivalProcess;
use chiron_model::{apps, DeploymentPlan, SimDuration, TransferKind, Workflow};
use chiron_obs::{attribute, AttributionReport, Component, Trace};
use chiron_predict::PredictionCache;
use chiron_profiler::Profiler;
use chiron_runtime::measure_fit;
use chiron_store::TransferModel;

const SEED: u64 = 2023;
/// Full-figure request count (the PR 7 observability baseline scale).
const REQUESTS: u64 = 12_000;

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

/// The Fig. 4 ladder with the shm-ring rung: per-tier modelled latency at
/// three payload sizes, as JSON rows.
fn model_rows(model: &TransferModel) -> String {
    let tiers: [(&str, &chiron_store::LinkModel); 5] = [
        ("s3", &model.s3),
        ("minio", &model.minio),
        ("rpc_payload", &model.rpc_payload),
        ("pipe", &model.pipe),
        ("shm_ring", &model.shm_ring),
    ];
    let rows: Vec<String> = tiers
        .iter()
        .map(|(name, link)| {
            format!(
                concat!(
                    "{{\"tier\": \"{}\", \"floor_us\": {}, \"1kb_ms\": {}, ",
                    "\"1mb_ms\": {}, \"1gb_ms\": {}}}"
                ),
                name,
                num(link.floor.as_nanos() as f64 / 1e3),
                num(link.latency(1 << 10).as_millis_f64()),
                num(link.latency(1 << 20).as_millis_f64()),
                num(link.latency(1 << 30).as_millis_f64()),
            )
        })
        .collect();
    rows.join(",\n    ")
}

/// Fast and reference searches under the opted-in shm tier must
/// agree byte for byte — the identical-output contract does not bend for
/// the new objective.
fn plans_identical_with_shm_tier(wf: &Workflow) -> bool {
    let prof = Profiler::default().profile_workflow(wf);
    let sched = PgpScheduler::paper_calibrated();
    for config in [
        PgpConfig::performance_first().with_transfer(TransferKind::ShmRing),
        PgpConfig::with_slo(SimDuration::from_millis(100)).with_transfer(TransferKind::ShmRing),
    ] {
        let cache = PredictionCache::new();
        let fast = sched.schedule_with_cache(wf, &prof, &config, &cache);
        let reference = sched.schedule_reference(wf, &prof, &config);
        if fast.plan != reference.plan
            || fast.predicted != reference.predicted
            || fast.plan.transfer != TransferKind::ShmRing
        {
            return false;
        }
    }
    true
}

/// One captured serving pass: the central-fifo cell's report plus its
/// latency attribution.
fn attributed_serve(
    wf: &Workflow,
    plan: &DeploymentPlan,
    requests: u64,
) -> (ServeReport, AttributionReport) {
    let workload =
        Workload::steady(50.0, requests).with_arrivals(ArrivalProcess::Poisson { seed: 7 });
    chiron_obs::begin_capture_sized(requests as usize * 10);
    let sim = ServeSimulation::new(wf.clone(), plan.clone(), ServeConfig::paper_testbed());
    let report = sim.run(&workload, SEED).expect("serving run");
    let trace: Trace = chiron_obs::end_capture();
    let attrib = attribute(&trace);
    (report, attrib)
}

fn interaction_ns(attrib: &AttributionReport) -> u64 {
    attrib
        .blame_ranking()
        .into_iter()
        .find(|(c, _)| *c == Component::Interaction)
        .map(|(_, ns)| ns)
        .unwrap_or(0)
}

/// The report with custom scale (the unit test shrinks the serving run
/// and the fleet). `workers` is the multi-worker side of the fleet
/// digest check.
pub fn transfer_report(workers: usize, requests: u64, fleet_ms: u64) -> String {
    let model = TransferModel::paper_calibrated();

    // Layer 1: the real ring, measured on this host.
    let fit = measure_fit();
    let pipe_floor_ns = model.pipe.floor.as_nanos() as f64;
    let ring_floor_gate = fit.floor_ns < pipe_floor_ns;

    // Layer 2: the planner contract under the opted-in tier.
    let plans_gate = plans_identical_with_shm_tier(&apps::finra(8));

    // Layer 3a: serving — FINRA-12 under the legacy RPC-payload tier vs
    // the same pipeline redeployed onto the shm tier. The `interaction`
    // component of the latency attribution (transfers + IPC) is exactly
    // where the ring bites.
    let chiron = Chiron::default();
    let wf = apps::finra(12);
    let rpc_plan = chiron
        .deploy_with_config(&wf, &PgpConfig::performance_first())
        .plan()
        .clone();
    let shm_plan = chiron
        .deploy_with_config(
            &wf,
            &PgpConfig::performance_first().with_transfer(TransferKind::ShmRing),
        )
        .plan()
        .clone();
    chiron_obs::set_tracing(true);
    let (rpc_report, rpc_attrib) = attributed_serve(&wf, &rpc_plan, requests);
    let (shm_report, shm_attrib) = attributed_serve(&wf, &shm_plan, requests);
    chiron_obs::set_tracing(false);
    let rpc_interaction = interaction_ns(&rpc_attrib);
    let shm_interaction = interaction_ns(&shm_attrib);
    let blame_gate = shm_interaction < rpc_interaction;
    let blame_reduction = if rpc_interaction > 0 {
        1.0 - shm_interaction as f64 / rpc_interaction as f64
    } else {
        0.0
    };

    // Layer 3b: the sharded fleet on the shm plan must stay byte-identical
    // for every (shards, workers) combination — the tier must not leak
    // shard- or worker-dependent state into the merged report.
    let fleet = FleetSimulation::new(wf.clone(), shm_plan.clone(), FleetConfig::paper_fleet(2))
        .expect("fleet construction");
    let fleet_workload = FleetWorkload::steady(200.0, SimDuration::from_millis(fleet_ms));
    let digests: Vec<u64> = [(1usize, 1usize), (4, 1), (4, workers.max(2))]
        .iter()
        .map(|&(shards, w)| {
            fleet
                .run_sharded(&fleet_workload, SEED, shards, w)
                .expect("fleet run")
                .digest()
        })
        .collect();
    let fleet_gate = digests.iter().all(|&d| d == digests[0]);

    format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"FINRA-12, steady 50 rps x {requests} requests, ",
            "Poisson seed 7, seed {seed}\",\n",
            "  \"model_tiers\": [\n    {rows}\n  ],\n",
            "  \"measured_ring\": {{\"floor_ns\": {floor}, \"bytes_per_sec\": {bps}}},\n",
            "  \"modelled_ring\": {{\"floor_ns\": {m_floor}, \"bytes_per_sec\": {m_bps}}},\n",
            "  \"modelled_pipe_floor_ns\": {pipe_floor},\n",
            "  \"ring_floor_lt_pipe_floor\": {ring_gate},\n",
            "  \"plans_identical_with_shm_tier\": {plans_gate},\n",
            "  \"fleet_digests_identical\": {fleet_gate},\n",
            "  \"fleet_digests\": [{digests}],\n",
            "  \"serve_p50_ms\": {{\"rpc_payload\": {rpc_p50}, \"shm_ring\": {shm_p50}}},\n",
            "  \"serve_p99_ms\": {{\"rpc_payload\": {rpc_p99}, \"shm_ring\": {shm_p99}}},\n",
            "  \"interaction_blame_ms\": {{\"rpc_payload\": {rpc_int}, ",
            "\"shm_ring\": {shm_int}}},\n",
            "  \"interaction_blame_reduction\": {reduction},\n",
            "  \"interaction_blame_reduced\": {blame_gate}\n",
            "}}"
        ),
        requests = requests,
        seed = SEED,
        rows = model_rows(&model),
        floor = num(fit.floor_ns),
        bps = num(fit.bytes_per_sec),
        m_floor = num(model.shm_ring.floor.as_nanos() as f64),
        m_bps = num(model.shm_ring.bytes_per_sec),
        pipe_floor = num(pipe_floor_ns),
        ring_gate = ring_floor_gate,
        plans_gate = plans_gate,
        fleet_gate = fleet_gate,
        digests = digests
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        rpc_p50 = num(rpc_report.sojourns.percentile(0.50).as_millis_f64()),
        shm_p50 = num(shm_report.sojourns.percentile(0.50).as_millis_f64()),
        rpc_p99 = num(rpc_report.sojourns.percentile(0.99).as_millis_f64()),
        shm_p99 = num(shm_report.sojourns.percentile(0.99).as_millis_f64()),
        rpc_int = num(rpc_interaction as f64 / 1e6),
        shm_int = num(shm_interaction as f64 / 1e6),
        reduction = num(blame_reduction),
        blame_gate = blame_gate,
    )
}

/// The full figure: the 12 000-request FINRA-12 serving comparison plus a
/// 30-second two-cluster fleet digest sweep.
pub fn transfer_figure(workers: usize) -> String {
    transfer_report(workers.max(2), REQUESTS, 30_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_report_gates_hold() {
        let report = transfer_report(2, 600, 3_000);
        for gate in [
            "\"plans_identical_with_shm_tier\": true",
            "\"fleet_digests_identical\": true",
            "\"interaction_blame_reduced\": true",
        ] {
            assert!(report.contains(gate), "{gate} not met:\n{report}");
        }
        // All five tiers present, ring under pipe in the model.
        for tier in ["s3", "minio", "rpc_payload", "pipe", "shm_ring"] {
            assert!(report.contains(&format!("\"tier\": \"{tier}\"")));
        }
        // The measured-fit gate is host- and build-dependent (a debug
        // build on a loaded single-core box can exceed the 50 µs pipe
        // floor), so the unit test only demands the measurement ran.
        assert!(report.contains("\"measured_ring\""));
        let opens = report.matches('{').count();
        assert_eq!(opens, report.matches('}').count());
        assert!(!report.contains(",\n}"));
    }
}
