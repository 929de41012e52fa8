//! Quickstart: deploy a serverless workflow with Chiron and invoke it.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks the full Fig. 9 pipeline: submit a workflow (FINRA with 5 parallel
//! trade-validation rules), let the Profiler measure each function, let PGP
//! partition the functions into wraps with a process/thread execution mode
//! each, inspect the generated orchestrator code, and route a request
//! through the deployed wraps.

use chiron::model::{apps, PlatformConfig};
use chiron::runtime::SpanKind;
use chiron::{Chiron, PgpMode};

fn main() {
    let manager = Chiron::new(PlatformConfig::paper_calibrated());
    let workflow = apps::finra(5);

    println!("== workflow: {} ==", workflow.name);
    for (si, stage) in workflow.stages.iter().enumerate() {
        let names: Vec<&str> = stage
            .functions
            .iter()
            .map(|&f| workflow.function(f).name.as_str())
            .collect();
        println!("  stage {si}: {names:?}");
    }

    // Deploy performance-first (no SLO): PGP picks the latency-optimal
    // m-to-n design.
    let deployment = manager.deploy(&workflow, None, PgpMode::NativeThread);
    let plan = deployment.plan();
    println!(
        "\n== PGP chose {} sandbox(es), {} CPUs, predicted latency {} ==",
        plan.sandbox_count(),
        plan.total_cpus(),
        deployment.schedule.predicted
    );
    for (si, stage) in plan.stages.iter().enumerate() {
        for (wi, wrap) in stage.wraps.iter().enumerate() {
            for proc in &wrap.processes {
                let names: Vec<&str> = proc
                    .functions
                    .iter()
                    .map(|&f| workflow.function(f).name.as_str())
                    .collect();
                println!(
                    "  stage {si} wrap {wi} [{}] {:?} -> {names:?}",
                    wrap.sandbox, proc.spawn
                );
            }
        }
    }

    println!("\n== generated orchestrator (first 12 lines) ==");
    for line in deployment.wraps[0].handler_py.lines().take(12) {
        println!("  {line}");
    }

    // Invoke a request.
    let outcome = manager
        .invoke(&workflow, &deployment, 0)
        .expect("valid plan");
    println!("\n== request executed: end-to-end {} ==", outcome.e2e);
    for t in &outcome.timelines {
        println!(
            "  {:<22} exec {:>7} startup {:>7} io {:>7} done at {:>9}",
            workflow.function(t.function).name,
            format!("{}", t.total(&outcome.spans, SpanKind::Exec)),
            format!("{}", t.startup_overhead()),
            format!("{}", t.total(&outcome.spans, SpanKind::Io)),
            format!("{}", t.completed)
        );
    }
}
