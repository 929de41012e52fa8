//! The five benchmark workflows of the paper's evaluation (§6, Table under
//! "Testbed and Benchmarks"), rebuilt as deterministic segment-level
//! specifications:
//!
//! * **Social Network** (SN): 4 stages, 10 functions, max parallelism 5.
//! * **Movie Reviewing** (MR): 4 stages, 9 functions, max parallelism 4.
//! * **SLApp**: 2 stages, 7 functions, max parallelism 4, *no sequential
//!   stage*; functions have similar latency but split across CPU-, disk-I/O-
//!   and network-I/O-intensive classes.
//! * **SLApp-V**: 5 stages, 10 functions, max parallelism 5.
//! * **FINRA-N**: 2 stages (a market-data fetch followed by N parallel
//!   trade-validation rules), N ∈ {5, 25, 50, 100, 200}.
//!
//! Segment durations are chosen so that the motivating observations hold:
//! FINRA validators are millisecond-scale (so `T_Startup` ≈ 7.5 ms is ~10×
//! their execution time, Observation 2), and the four SLApp-style functions
//! used by Fig. 7 have similar ≈36 ms solo latency with very different
//! CPU/block mixes.

use crate::function::{FunctionSpec, Segment, SyscallKind, WorkloadClass};
use crate::workflow::Workflow;

fn cpu(ms: f64) -> Segment {
    Segment::cpu_ms_f64(ms)
}

fn disk(ms: f64) -> Segment {
    Segment::block_ms(SyscallKind::DiskIo, ms)
}

fn net(ms: f64) -> Segment {
    Segment::block_ms(SyscallKind::NetIo, ms)
}

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// Social Network (DeathStarBench-derived \[23\]): compose → 5 parallel text /
/// media services → 3 parallel storage writers → respond.
pub fn social_network() -> Workflow {
    let functions = vec![
        FunctionSpec::new("compose_post", vec![cpu(1.6), net(1.2), cpu(0.6)])
            .with_class(WorkloadClass::Mixed)
            .with_output_bytes(24 * KB),
        FunctionSpec::new("unique_id", vec![cpu(0.5)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(KB / 4),
        FunctionSpec::new("media_filter", vec![cpu(2.8), disk(2.0), cpu(0.5)])
            .with_class(WorkloadClass::DiskIoIntensive)
            .with_output_bytes(512 * KB),
        FunctionSpec::new("user_tag", vec![cpu(1.0), net(2.1)])
            .with_class(WorkloadClass::NetIoIntensive)
            .with_output_bytes(2 * KB),
        FunctionSpec::new("url_shorten", vec![cpu(1.4)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(KB),
        FunctionSpec::new("text_filter", vec![cpu(3.9)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(8 * KB),
        FunctionSpec::new("home_timeline", vec![cpu(0.9), net(2.8)])
            .with_class(WorkloadClass::NetIoIntensive)
            .with_output_bytes(KB),
        FunctionSpec::new("user_timeline", vec![cpu(0.8), net(2.2)])
            .with_class(WorkloadClass::NetIoIntensive)
            .with_output_bytes(KB),
        FunctionSpec::new("social_graph", vec![cpu(1.8), net(1.9)])
            .with_class(WorkloadClass::Mixed)
            .with_output_bytes(4 * KB),
        FunctionSpec::new("respond", vec![cpu(0.9)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(KB),
    ];
    Workflow::new(
        "SocialNetwork",
        functions,
        vec![vec![0], vec![1, 2, 3, 4, 5], vec![6, 7, 8], vec![9]],
    )
    .expect("static workflow is valid")
}

/// Movie Reviewing \[23\]: upload → 4 parallel review processors → 3 parallel
/// storage updates → respond.
pub fn movie_reviewing() -> Workflow {
    let functions = vec![
        FunctionSpec::new("upload_review", vec![cpu(1.4), net(1.0)]).with_output_bytes(16 * KB),
        FunctionSpec::new("unique_id", vec![cpu(0.5)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(KB / 4),
        FunctionSpec::new("rate_movie", vec![cpu(1.9), net(1.1)])
            .with_class(WorkloadClass::Mixed)
            .with_output_bytes(KB),
        FunctionSpec::new("review_text", vec![cpu(3.1)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(8 * KB),
        FunctionSpec::new("movie_info", vec![cpu(0.8), net(2.9)])
            .with_class(WorkloadClass::NetIoIntensive)
            .with_output_bytes(4 * KB),
        FunctionSpec::new("store_review", vec![cpu(0.9), disk(2.6)])
            .with_class(WorkloadClass::DiskIoIntensive)
            .with_output_bytes(KB),
        FunctionSpec::new("update_rating", vec![cpu(1.3), net(1.2)])
            .with_class(WorkloadClass::Mixed)
            .with_output_bytes(KB),
        FunctionSpec::new("update_user", vec![cpu(0.9), net(1.8)])
            .with_class(WorkloadClass::NetIoIntensive)
            .with_output_bytes(KB),
        FunctionSpec::new("respond", vec![cpu(0.8)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(KB),
    ];
    Workflow::new(
        "MovieReviewing",
        functions,
        vec![vec![0], vec![1, 2, 3, 4], vec![5, 6, 7], vec![8]],
    )
    .expect("static workflow is valid")
}

/// The four SLApp-style reference functions used by Fig. 7: similar ≈36 ms
/// solo latency, very different CPU/block composition.
pub fn slapp_reference_functions() -> Vec<FunctionSpec> {
    vec![
        FunctionSpec::new("factorial", vec![cpu(36.0)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(KB),
        FunctionSpec::new("fibonacci", vec![cpu(35.0)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(KB),
        FunctionSpec::new(
            "disk_io",
            vec![cpu(4.0), disk(13.0), cpu(2.0), disk(14.0), cpu(3.0)],
        )
        .with_class(WorkloadClass::DiskIoIntensive)
        .with_output_bytes(256 * KB),
        FunctionSpec::new("network_io", vec![cpu(2.0), net(31.0), cpu(2.0)])
            .with_class(WorkloadClass::NetIoIntensive)
            .with_output_bytes(64 * KB),
    ]
}

/// SLApp (generated from the SLApp model \[33\]): 2 parallel stages, 7
/// functions, no sequential stage.
pub fn slapp() -> Workflow {
    let reference = slapp_reference_functions();
    let functions = vec![
        reference[0].clone(), // factorial
        reference[2].clone(), // disk_io
        reference[3].clone(), // network_io
        reference[1].clone(), // fibonacci
        FunctionSpec::new("factorial_b", vec![cpu(34.0)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(KB),
        FunctionSpec::new("disk_io_b", vec![cpu(3.0), disk(30.0), cpu(2.0)])
            .with_class(WorkloadClass::DiskIoIntensive)
            .with_output_bytes(128 * KB),
        FunctionSpec::new("network_io_b", vec![net(33.0), cpu(3.0)])
            .with_class(WorkloadClass::NetIoIntensive)
            .with_output_bytes(32 * KB),
    ];
    Workflow::new("SLApp", functions, vec![vec![0, 1, 2], vec![3, 4, 5, 6]])
        .expect("static workflow is valid")
}

/// SLApp-V: a 5-stage, 10-function variant generated from the same model.
pub fn slapp_v() -> Workflow {
    let functions = vec![
        FunctionSpec::new("ingest", vec![cpu(4.0), net(9.0)]).with_output_bytes(MB),
        FunctionSpec::new("shard_a", vec![cpu(15.0)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(64 * KB),
        FunctionSpec::new("shard_b", vec![cpu(14.0)])
            .with_class(WorkloadClass::CpuIntensive)
            .with_output_bytes(64 * KB),
        FunctionSpec::new("shard_c", vec![cpu(2.0), disk(13.0), cpu(1.0)])
            .with_class(WorkloadClass::DiskIoIntensive)
            .with_output_bytes(128 * KB),
        FunctionSpec::new("shard_d", vec![cpu(1.0), net(14.0)])
            .with_class(WorkloadClass::NetIoIntensive)
            .with_output_bytes(32 * KB),
        FunctionSpec::new("shard_e", vec![cpu(8.0), net(7.0)])
            .with_class(WorkloadClass::Mixed)
            .with_output_bytes(32 * KB),
        FunctionSpec::new("merge_left", vec![cpu(7.0), disk(6.0)])
            .with_class(WorkloadClass::Mixed)
            .with_output_bytes(256 * KB),
        FunctionSpec::new("merge_right", vec![cpu(8.0), net(5.0)])
            .with_class(WorkloadClass::Mixed)
            .with_output_bytes(256 * KB),
        FunctionSpec::new("aggregate", vec![cpu(11.0), disk(4.0)])
            .with_class(WorkloadClass::Mixed)
            .with_output_bytes(128 * KB),
        FunctionSpec::new("respond", vec![cpu(6.0), net(5.0)]).with_output_bytes(16 * KB),
    ];
    Workflow::new(
        "SLApp-V",
        functions,
        vec![vec![0], vec![1, 2, 3, 4, 5], vec![6, 7], vec![8], vec![9]],
    )
    .expect("static workflow is valid")
}

/// FINRA with `n` parallel trade-validation rules \[2, 30\]: a network-bound
/// fetch of portfolio/market data, then `n` millisecond-scale rule checks.
///
/// Rule execution times cycle deterministically through 0.5–12 ms: the
/// shortest rules are sub-millisecond (so the 7.5 ms fork startup is ~10×
/// their execution time, Observation 2), while heavier rules make pure
/// GIL-serialised thread execution unattractive at high parallelism — the
/// heterogeneity that gives the combined process/thread "m-to-n" model its
/// advantage (Observation 3, Fig. 6).
pub fn finra(n: usize) -> Workflow {
    assert!(n >= 1, "FINRA needs at least one validation rule");
    let mut functions = Vec::with_capacity(n + 1);
    functions.push(
        FunctionSpec::new("fetch_market_data", vec![cpu(1.5), net(40.0), cpu(1.5)])
            .with_class(WorkloadClass::NetIoIntensive)
            .with_output_bytes(200 * KB),
    );
    const RULE_MS: [f64; 5] = [0.5, 0.7, 6.0, 1.0, 12.0];
    for i in 0..n {
        let exec_ms = RULE_MS[i % RULE_MS.len()];
        functions.push(
            FunctionSpec::new(format!("validate_rule_{i:03}"), vec![cpu(exec_ms)])
                .with_class(WorkloadClass::CpuIntensive)
                .with_output_bytes(KB)
                .with_workingset_bytes(128 * KB),
        );
    }
    let rules: Vec<u32> = (1..=n as u32).collect();
    Workflow::new(format!("FINRA-{n}"), functions, vec![vec![0], rules])
        .expect("static workflow is valid")
}

/// The eight workflows of the headline evaluation (Fig. 13/16/17/19).
pub fn evaluation_suite() -> Vec<Workflow> {
    vec![
        social_network(),
        movie_reviewing(),
        slapp(),
        slapp_v(),
        finra(5),
        finra(50),
        finra(100),
        finra(200),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finra_shape() {
        for n in [5usize, 50, 100, 200] {
            let wf = finra(n);
            assert_eq!(wf.stage_count(), 2);
            assert_eq!(wf.function_count(), n + 1);
            assert_eq!(wf.max_parallelism(), n);
        }
    }

    #[test]
    fn slapp_reference_classes_differ() {
        let fns = slapp_reference_functions();
        assert_eq!(fns[0].class, WorkloadClass::CpuIntensive);
        assert_eq!(fns[2].class, WorkloadClass::DiskIoIntensive);
        assert_eq!(fns[3].class, WorkloadClass::NetIoIntensive);
        // disk/net functions spend most of their time blocked.
        assert!(fns[2].block_time() > fns[2].cpu_time());
        assert!(fns[3].block_time() > fns[3].cpu_time());
    }
}
