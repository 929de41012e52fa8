//! Property tests of the real SPSC ring (`chiron-runtime::rt::ring`):
//! FIFO integrity and CRC framing across wrap boundaries under random
//! payload sizes, and a threaded producer/consumer stress pass. These
//! live in the bench crate so the runtime crate's own tests stay a quick
//! smoke layer while the randomised coverage rides the heavier harness.

use chiron_runtime::{ring, RingError};
use proptest::prelude::*;

/// Deterministic content of frame `seq`, byte `j` — any reordering,
/// truncation or duplication shows up as a byte mismatch.
fn frame_byte(seq: usize, j: usize) -> u8 {
    (seq as u8)
        .wrapping_mul(167)
        .wrapping_add((j as u8).wrapping_mul(13))
        .wrapping_add(5)
}

fn frame(seq: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| frame_byte(seq, j)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single-threaded FIFO: a stream of random-sized frames through a
    /// deliberately small ring (so frames wrap constantly) comes back in
    /// order, byte for byte, with every CRC validating.
    #[test]
    fn fifo_and_crc_hold_across_wraps(sizes in prop::collection::vec(0usize..120, 1..80)) {
        let (mut tx, mut rx) = ring(256);
        let mut next_pop = 0usize;
        for (seq, &len) in sizes.iter().enumerate() {
            let payload = frame(seq, len);
            // Drain just enough to make room, popping in FIFO order.
            loop {
                match tx.try_push(&payload) {
                    Ok(()) => break,
                    Err(RingError::Full) => {
                        let got = rx.pop().expect("uncorrupted").expect("frame ready");
                        prop_assert_eq!(&got, &frame(next_pop, got.len()));
                        prop_assert_eq!(got.len(), sizes[next_pop]);
                        next_pop += 1;
                    }
                    Err(e) => prop_assert!(false, "unexpected push error: {e}"),
                }
            }
        }
        while next_pop < sizes.len() {
            let got = rx.pop().expect("uncorrupted").expect("frame ready");
            prop_assert_eq!(&got, &frame(next_pop, got.len()));
            prop_assert_eq!(got.len(), sizes[next_pop]);
            next_pop += 1;
        }
        prop_assert!(rx.pop().expect("uncorrupted").is_none());
    }

    /// The zero-copy read path: wherever the payload lands relative to
    /// the physical end of the buffer, the two borrowed slices
    /// concatenate to exactly the pushed bytes.
    #[test]
    fn wrapped_slices_concatenate_exactly(
        prefix in 0usize..120,
        len in 0usize..120,
    ) {
        let (mut tx, mut rx) = ring(128);
        // Advance the indices by `prefix` bytes so the payload's position
        // relative to the wrap point is arbitrary.
        if prefix > 0 {
            tx.try_push(&vec![0u8; prefix]).expect("prefix fits");
            rx.pop().expect("uncorrupted").expect("prefix frame");
        }
        let payload = frame(7, len);
        tx.try_push(&payload).expect("payload fits");
        let got = rx
            .pop_with(|a, b| {
                let mut v = Vec::with_capacity(a.len() + b.len());
                v.extend_from_slice(a);
                v.extend_from_slice(b);
                v
            })
            .expect("uncorrupted")
            .expect("frame ready");
        prop_assert_eq!(got, payload);
    }
}

/// Frames of 16 B to 64 KiB, each through a ring about four frames deep,
/// come back intact as the ring wraps.
#[test]
fn large_frames_round_trip_intact() {
    for size in [16usize, 1 << 10, 16 << 10, 64 << 10] {
        let (mut tx, mut rx) = ring((size + 8) * 4);
        for seq in 0..12 {
            let want = frame(seq, size);
            tx.try_push(&want).expect("frame fits");
            assert_eq!(rx.pop(), Ok(Some(want)), "{size}-byte frame {seq}");
        }
    }
}

proptest! {
    // Threaded stress is expensive; fewer, bigger cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Threaded producer/consumer stress: one thread pushes every frame
    /// (blocking on full), the other pops them (blocking on empty); the
    /// consumer sees the exact sequence, every CRC valid, across
    /// thousands of wrap-arounds of a small ring.
    #[test]
    fn threaded_stream_is_exact(sizes in prop::collection::vec(0usize..200, 50..400)) {
        let (mut tx, mut rx) = ring(512);
        let producer_sizes = sizes.clone();
        let producer = std::thread::spawn(move || {
            for (seq, &len) in producer_sizes.iter().enumerate() {
                tx.push_blocking(&frame(seq, len)).expect("push succeeds");
            }
        });
        for (seq, &len) in sizes.iter().enumerate() {
            let got = rx
                .pop_with_blocking(|a, b| {
                    let mut v = Vec::with_capacity(a.len() + b.len());
                    v.extend_from_slice(a);
                    v.extend_from_slice(b);
                    v
                })
                .expect("uncorrupted stream");
            prop_assert_eq!(&got, &frame(seq, len), "frame {}", seq);
        }
        producer.join().expect("producer thread");
        prop_assert!(rx.pop().expect("uncorrupted").is_none());
    }
}
