//! The committed event count of the jittered DES.
//!
//! The fluid engine counts one event per distinct instant its loop visits,
//! and a sandbox it replays without the loop counts the instants the loop
//! would have visited. The total over the evaluation suite pins that
//! bookkeeping: an instant dropped from or added to the count moves it even
//! when every outcome holds. The counter is process-global, so this test
//! lives in its own binary, and it is the binary's only test.

use chiron::model::{apps, JitterModel, PlatformConfig};
use chiron::{Chiron, PgpMode};
use chiron_deploy::planners;
use chiron_runtime::{alloc_stats, reset_alloc_stats, SimScratch, VirtualPlatform};

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
}
