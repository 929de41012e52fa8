//! Data-flow accounting: a one-to-one deployment (OpenFaaS+MinIO) passes
//! each non-final function's output to the next stage through the object
//! store, and the platform charges exactly the store model's write cost
//! for it.

use chiron::model::{apps, SimDuration, SystemKind};
use chiron::runtime::SpanKind;
use chiron::store::TransferModel;
use chiron::{evaluate_system, EvalConfig};

#[test]
fn one_to_one_transfer_out_is_the_minio_model() {
    let wf = apps::social_network();
    let minio = TransferModel::paper_calibrated().minio;
    let last = wf.stage_count() - 1;
    let modelled_write: SimDuration = wf.stages[..last]
        .iter()
        .flat_map(|stage| &stage.functions)
        .map(|&fid| minio.latency(wf.function(fid).output_bytes))
        .sum();

    let eval = evaluate_system(
        SystemKind::OpenFaas,
        &wf,
        None,
        &EvalConfig {
            requests: 1,
            ..EvalConfig::default()
        },
    );
    let platform_out = eval.sample_outcome.total(SpanKind::TransferOut);
    let diff = (platform_out.as_millis_f64() - modelled_write.as_millis_f64()).abs();
    assert!(diff < 1.0, "write accounting differs by {diff}ms");
    assert!(eval.sample_outcome.total(SpanKind::TransferIn) > SimDuration::ZERO);
}
