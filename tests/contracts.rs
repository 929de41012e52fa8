//! Cross-crate contracts checked from the public API.
//!
//! * **Exact attribution.** A traced serve run decomposes every request's
//!   sojourn into seven components (queueing, cold start, GIL block,
//!   interaction, execution, retry, forwarding) that sum to it exactly.
//! * **Ring corruption detection.** The shm ring frames every payload
//!   with a CRC32 that the consumer recomputes over the (possibly
//!   wrap-split) payload before handing it out. The detector rejects
//!   every single-bit and every short burst flip, and a frame split at any
//!   point validates as the contiguous payload does, so wrapped frames
//!   are never misreported as torn. Injecting raw corruption needs the
//!   ring's private buffer; that half stays in the ring's unit tests.

use chiron::deploy::NodeId;
use chiron::model::{apps, SimTime};
use chiron::{Chiron, FaultPlan, PgpMode, ServeConfig, Workload};
use chiron_runtime::rt::ring::crc32_pair;
use chiron_runtime::{crc32, ring, RingError};

#[test]
fn traced_serve_run_attributes_every_request_exactly() {
    let chiron = Chiron::default();
    let wf = apps::finra(12);
    let deployment = chiron.deploy(&wf, None, PgpMode::NativeThread);
    let workload = Workload::steady(25.0, 300);
    // A node kill mid-run puts retry time on some requests.
    let faults = FaultPlan::none().kill_at(SimTime::from_millis_f64(5_000.0), NodeId(0));
    let (report, attrib) = chiron
        .attribution_report(
            &wf,
            &deployment,
            ServeConfig::paper_testbed(),
            faults,
            &workload,
            3,
        )
        .expect("serve run completes");
    assert_eq!(report.completed, 300);
    assert_eq!(attrib.requests.len() as u64, report.completed);
    assert_eq!(attrib.incomplete, 0);
    for r in &attrib.requests {
        assert_eq!(r.components.len(), 7);
        assert_eq!(
            r.components.iter().sum::<u64>(),
            r.sojourn_ns,
            "request {} does not sum to its sojourn",
            r.request
        );
    }
    assert!(attrib.sums_exact());
    assert!(
        attrib.requests.iter().any(|r| r.components[5] > 0),
        "the node kill must leave retry time on some request"
    );
}

#[test]
fn ring_crc_rejects_bit_flips_and_bursts() {
    let payload: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
    let good = crc32(&payload);
    for bit in 0..payload.len() * 8 {
        let mut torn = payload.clone();
        torn[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(
            crc32(&torn),
            good,
            "single-bit flip at bit {bit} undetected"
        );
    }
    // CRC32 catches every burst of up to 32 bits.
    for start in 0..payload.len() - 4 {
        for burst in [0x0000_0101u32, 0x8000_0001, 0xffff_ffff] {
            let mut torn = payload.clone();
            for (k, b) in burst.to_le_bytes().iter().enumerate() {
                torn[start + k] ^= b;
            }
            assert_ne!(crc32(&torn), good, "burst at byte {start} undetected");
        }
    }
    // The consumer validates a wrapped frame as its two slices: every
    // split point must agree with the contiguous payload.
    for split in 0..=payload.len() {
        let (a, b) = payload.split_at(split);
        assert_eq!(crc32_pair(a, b), good, "split at {split}");
    }
}

#[test]
fn ring_delivers_wrapped_frames_intact() {
    let (mut tx, mut rx) = ring(256);
    let mut expected = std::collections::VecDeque::new();
    for i in 0..2_000u32 {
        let len = (i * 7 % 120) as usize;
        let payload: Vec<u8> = (0..len).map(|j| (i as u8).wrapping_add(j as u8)).collect();
        loop {
            match tx.try_push(&payload) {
                Ok(()) => break,
                Err(RingError::Full) => {
                    let want: Vec<u8> = expected.pop_front().expect("a frame is queued");
                    assert_eq!(rx.pop(), Ok(Some(want)));
                }
                Err(e) => panic!("frame {i}: {e}"),
            }
        }
        expected.push_back(payload);
    }
    while let Some(want) = expected.pop_front() {
        assert_eq!(rx.pop(), Ok(Some(want)));
    }
    assert_eq!(rx.pop(), Ok(None));
}
