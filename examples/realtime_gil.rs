//! Runs wrap workloads on **real OS threads** with an emulated GIL and
//! compares the measured wall-clock against the fluid simulator — the
//! pseudo-parallelism phenomenon of Fig. 2, live.
//!
//! ```text
//! cargo run --release --example realtime_gil
//! ```

use chiron::model::{RuntimeKind, Segment, SimDuration, SimTime, SyscallKind};
use chiron::runtime::{execute_sandbox, run_realtime, RtTask, ThreadTask};

fn cpu(ms: u64) -> Segment {
    Segment::cpu_ms(ms)
}

fn io(ms: u64) -> Segment {
    Segment::block_ms(SyscallKind::Sleep, ms as f64)
}

fn run_case(label: &str, workload: &[Vec<Segment>], runtime: RuntimeKind) {
    let interval = SimDuration::from_millis(5);
    let simulated = execute_sandbox(
        &workload
            .iter()
            .map(|segments| ThreadTask {
                process: 0,
                start: SimTime::ZERO,
                segments: segments.clone(),
            })
            .collect::<Vec<_>>(),
        4,
        runtime,
        interval,
    )
    .expect("four CPUs and a 5 ms GIL interval are a valid sandbox");
    let sim_ms = simulated
        .iter()
        .map(|r| r.end.as_millis_f64())
        .fold(0.0, f64::max);

    let real = run_realtime(
        &workload
            .iter()
            .map(|segments| RtTask {
                process: 0,
                segments: segments.clone(),
            })
            .collect::<Vec<_>>(),
        &[],
        runtime,
        interval,
    );
    let real_ms = real
        .iter()
        .map(|r| r.finished.as_secs_f64() * 1e3)
        .fold(0.0, f64::max);

    println!("{label:<42} simulated {sim_ms:>7.1} ms | real threads {real_ms:>7.1} ms");
}

fn main() {
    println!(
        "4 CPUs available to the sandbox; each workload has 3 function \
         threads.\n"
    );

    let cpu_bound: Vec<Vec<Segment>> = vec![vec![cpu(30)], vec![cpu(30)], vec![cpu(30)]];
    run_case(
        "CPU-bound, GIL (pseudo-parallel)",
        &cpu_bound,
        RuntimeKind::PseudoParallel,
    );
    run_case(
        "CPU-bound, no GIL (Java/pool)",
        &cpu_bound,
        RuntimeKind::TrueParallel,
    );

    let io_heavy: Vec<Vec<Segment>> = vec![
        vec![cpu(5), io(40), cpu(5)],
        vec![io(45), cpu(5)],
        vec![cpu(5), io(40)],
    ];
    run_case(
        "I/O-heavy, GIL (blocking drops it)",
        &io_heavy,
        RuntimeKind::PseudoParallel,
    );
    run_case("I/O-heavy, no GIL", &io_heavy, RuntimeKind::TrueParallel);

    println!(
        "\nExpected shape: the GIL triples the CPU-bound makespan but barely \
         hurts the I/O-heavy one (Fig. 2 / Observation 3) — and the \
         simulator tracks the real threads."
    );
}
