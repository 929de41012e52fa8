//! The committed event count of the jittered DES.
//!
//! The fluid engine counts one event per iteration of its shared loop. A
//! sandbox it replays one domain (a GIL process, or a thread without the
//! GIL) at a time counts the instants each domain visits, summed over the
//! domains: two domains that visit the same instant count it twice. The
//! total over the evaluation suite pins that bookkeeping: an instant
//! dropped from or added to the count moves it even when every outcome
//! holds. The counter is process-global, so this test lives in its own
//! binary, and it is the binary's only test.

use chiron::model::{
    apps, JitterModel, PlatformConfig, RuntimeKind, Segment, SimDuration, SimTime,
};
use chiron::{Chiron, PgpMode};
use chiron_deploy::planners;
use chiron_runtime::{
    alloc_stats, execute_sandbox, reset_alloc_stats, SimScratch, ThreadTask, VirtualPlatform,
};

/// Fluid events of the suite × {Chiron, Faastlane, OpenFaaS} × `SEEDS`
/// on the jittered platform.
const SUITE_EVENTS: u64 = 86_244;
const SEEDS: u64 = 32;

#[test]
fn evaluation_suite_event_count() {
    let platform = VirtualPlatform::new(
        PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
    );
    let mut scratch = SimScratch::new();
    reset_alloc_stats();
    for wf in &apps::evaluation_suite() {
        let chiron = Chiron::default()
            .deploy(wf, None, PgpMode::NativeThread)
            .plan()
            .clone();
        for plan in [chiron, planners::faastlane(wf), planners::openfaas(wf)] {
            for seed in 0..SEEDS {
                platform
                    .execute_with_scratch(wf, &plan, seed, &mut scratch)
                    .expect("suite plans execute");
            }
        }
    }
    let events = alloc_stats().events;
    assert_eq!(
        events, SUITE_EVENTS,
        "suite event count moved: committed {SUITE_EVENTS}, now {events}"
    );

    // Two one-thread processes with the same segments, each on a CPU of
    // its own: each domain visits 0, 3 and 5 ms, so the shared instants
    // count once per domain.
    let task = |process| ThreadTask {
        process,
        start: SimTime::ZERO,
        segments: vec![Segment::cpu_ms(3), Segment::cpu_ms(2)],
    };
    reset_alloc_stats();
    execute_sandbox(
        &[task(0), task(1)],
        2,
        RuntimeKind::PseudoParallel,
        SimDuration::from_millis(5),
    )
    .expect("valid sandbox");
    assert_eq!(alloc_stats().events, 6);
}
