//! Random planned workflows, shared by the property tests.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use chiron_model::{DeploymentPlan, FunctionSpec, Segment, SimDuration, SyscallKind, Workflow};
use chiron_pgp::{PgpConfig, PgpMode, PgpScheduler};
use chiron_profiler::Profiler;
use proptest::prelude::*;
use std::ops::Range;

/// Two-stage workflows of `functions` functions: an entry function, then
/// a parallel stage mixing CPU-bound and IO-punctuated functions with
/// varied durations — the shapes that drive PGP through different `n`,
/// KL swap sequences and wrap packings, and the fluid engine through its
/// GIL/CFS interleaving.
pub fn arb_workflow(functions: Range<usize>) -> impl Strategy<Value = Workflow> {
    prop::collection::vec((0u8..2, 1u64..20, 1u64..4), functions).prop_map(|parts| {
        let fns: Vec<FunctionSpec> = parts
            .iter()
            .enumerate()
            .map(|(i, &(kind, ms, lead))| {
                let segments = if kind == 0 {
                    vec![Segment::cpu_ms(ms)]
                } else {
                    vec![
                        Segment::cpu_ms(lead),
                        Segment::Block {
                            kind: SyscallKind::NetIo,
                            dur: SimDuration::from_millis(ms),
                        },
                        Segment::cpu_ms(1),
                    ]
                };
                FunctionSpec::new(format!("f{i:02}"), segments)
            })
            .collect();
        let parallel: Vec<u32> = (1..fns.len() as u32).collect();
        Workflow::new("synthetic", fns, vec![vec![0], parallel]).unwrap()
    })
}

/// Plans the workflow the way the harness does: profile, then PGP.
pub fn plan_for(wf: &Workflow, mode: PgpMode) -> DeploymentPlan {
    let prof = Profiler::default().profile_workflow(wf);
    let sched = PgpScheduler::paper_calibrated();
    let config = PgpConfig::performance_first().with_mode(mode);
    sched.schedule(wf, &prof, &config).plan
}
