//! Committed digests of jittered DES outcomes.
//!
//! The simulator is deterministic, so a digest over its outputs pins its
//! behaviour to the bit: a change to the jitter tables, the order of the
//! draws, or any cost the replay charges moves the digest. A deliberate
//! change updates the constant here by hand, and names the old and new
//! values in CHANGES.md.

use chiron::model::{apps, JitterModel, PlatformConfig, Workflow};
use chiron::{Chiron, PgpMode};
use chiron_deploy::planners;
use chiron_runtime::{SimScratch, VirtualPlatform};

/// FNV-1a over the little-endian bytes of each `e2e` in nanoseconds,
/// in suite × {Chiron, Faastlane, OpenFaaS} × seed order.
const SUITE_E2E_DIGEST: u64 = 0xc458_c662_5560_a201;
const SEEDS: u64 = 32;

fn fnv1a(hash: u64, bytes: [u8; 8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn chiron_plan(wf: &Workflow) -> chiron::model::DeploymentPlan {
    Chiron::default()
        .deploy(wf, None, PgpMode::NativeThread)
        .plan()
        .clone()
}

#[test]
fn evaluation_suite_e2e_digest() {
    let platform = VirtualPlatform::new(
        PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
    );
    let mut scratch = SimScratch::new();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for wf in &apps::evaluation_suite() {
        for plan in [
            chiron_plan(wf),
            planners::faastlane(wf),
            planners::openfaas(wf),
        ] {
            for seed in 0..SEEDS {
                let outcome = platform
                    .execute_with_scratch(wf, &plan, seed, &mut scratch)
                    .expect("suite plans execute");
                digest = fnv1a(digest, outcome.e2e.as_nanos().to_le_bytes());
            }
        }
    }
    assert_eq!(
        digest, SUITE_E2E_DIGEST,
        "jittered suite e2e digest moved: committed {SUITE_E2E_DIGEST:#018x}, now {digest:#018x}"
    );
}
