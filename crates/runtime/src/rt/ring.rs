//! Lock-free SPSC ring buffer: the zero-copy shared-memory data plane for
//! intra-node wrap-to-wrap transfers (the sub-microsecond regime at the
//! left edge of the paper's Fig. 4 five-decade span).
//!
//! Layout and protocol (in the style of Aetherless's shm ring):
//!
//! ```text
//!   capacity = 2^k bytes                      frame = [len u32 LE]
//!   ┌────────────────────────────────┐                [crc u32 LE]
//!   │ ..::[frame][frame][fra ]::.... │                [payload len B]
//!   └────▲───────────────────▲───────┘
//!        head (consumer)     tail (producer)   — free-running indices,
//!                                                masked on access
//! ```
//!
//! * One producer, one consumer, each on its own cache line
//!   (`CachePadded`) so the hot indices never false-share.
//! * Fast path touches no shared atomic: the producer caches the last
//!   head it observed and only refreshes (Acquire) when the ring looks
//!   full; the consumer mirrors that with a cached tail.
//! * Frames wrap: a payload crossing the physical end of the buffer is
//!   written as two copies and read back as two borrowed slices
//!   ([`Consumer::pop_with`]) — the consumer sees the bytes in place,
//!   zero-copy.
//! * Every frame carries a CRC32 (IEEE) over its payload, validated on
//!   pop; a mismatch surfaces as [`RingError::Corrupt`] instead of
//!   silently delivering torn data.
//!
//! The measured `floor + bytes/bandwidth` fit of this ring
//! ([`measure_fit`], run and gated by `figures -- transfer`) calibrates
//! the `shm_ring` tier in `chiron-store::transfer`.

use super::Backoff;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Bytes of frame header preceding every payload: `[len u32][crc u32]`.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Smallest ring the constructor will build.
pub const MIN_CAPACITY: usize = 64;

/// Why a push or pop could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// Not enough free space for the frame right now.
    Full,
    /// The frame can never fit this ring's capacity.
    TooLarge,
    /// CRC mismatch between the stored frame and its payload bytes.
    Corrupt,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Full => write!(f, "ring full"),
            RingError::TooLarge => write!(f, "frame exceeds ring capacity"),
            RingError::Corrupt => write!(f, "frame CRC mismatch"),
        }
    }
}

impl std::error::Error for RingError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table generated at compile time.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = (state >> 8) ^ CRC_TABLE[((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(u32::MAX, bytes)
}

/// CRC32 (IEEE) of the concatenation of two slices (a wrapped payload).
pub fn crc32_pair(a: &[u8], b: &[u8]) -> u32 {
    !crc32_update(crc32_update(u32::MAX, a), b)
}

// ---------------------------------------------------------------------------
// Shared ring state
// ---------------------------------------------------------------------------

/// Pads the hot indices to their own cache lines so producer and consumer
/// never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Shared {
    buf: Box<[UnsafeCell<u8>]>,
    mask: usize,
    /// Consumer's free-running read index.
    head: CachePadded<AtomicUsize>,
    /// Producer's free-running write index.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the buffer is only written between `head` and `tail` by the
// single producer and only read by the single consumer, with the
// Release/Acquire pairs on the indices ordering those accesses; the
// producer/consumer halves are !Clone, so exactly one thread is on each
// side.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

impl Shared {
    fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Copies `data` into the buffer starting at free-running index `at`,
    /// wrapping past the physical end.
    ///
    /// SAFETY: caller must hold the producer role and have verified that
    /// `[at, at + data.len())` lies in the free region.
    unsafe fn write(&self, at: usize, data: &[u8]) {
        let idx = at & self.mask;
        let first = data.len().min(self.capacity() - idx);
        std::ptr::copy_nonoverlapping(data.as_ptr(), self.buf[idx].get(), first);
        if first < data.len() {
            std::ptr::copy_nonoverlapping(
                data.as_ptr().add(first),
                self.buf[0].get(),
                data.len() - first,
            );
        }
    }

    /// Borrows `len` bytes starting at free-running index `at` as (up to)
    /// two wrap-aware slices.
    ///
    /// SAFETY: caller must hold the consumer role and have verified that
    /// `[at, at + len)` lies in the readable region published by the
    /// producer's Release store.
    unsafe fn slices(&self, at: usize, len: usize) -> (&[u8], &[u8]) {
        let idx = at & self.mask;
        let first = len.min(self.capacity() - idx);
        let a = std::slice::from_raw_parts(self.buf[idx].get() as *const u8, first);
        let b = std::slice::from_raw_parts(self.buf.as_ptr() as *const u8, len - first);
        (a, b)
    }
}

/// Builds a ring of at least `capacity` bytes (rounded up to a power of
/// two, minimum [`MIN_CAPACITY`]) and returns its two endpoints.
pub fn ring(capacity: usize) -> (Producer, Consumer) {
    let cap = capacity.next_power_of_two().max(MIN_CAPACITY);
    let buf: Box<[UnsafeCell<u8>]> = (0..cap).map(|_| UnsafeCell::new(0)).collect();
    let shared = Arc::new(Shared {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: shared.clone(),
            tail: 0,
            cached_head: 0,
        },
        Consumer {
            shared,
            head: 0,
            cached_tail: 0,
        },
    )
}

/// The write endpoint. `!Clone`: exactly one thread may produce.
pub struct Producer {
    shared: Arc<Shared>,
    /// Local copy of the free-running write index (only this side moves it).
    tail: usize,
    /// Last head observed — refreshed (Acquire) only on apparent-full.
    cached_head: usize,
}

impl std::fmt::Debug for Producer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("capacity", &self.shared.capacity())
            .field("tail", &self.tail)
            .finish()
    }
}

impl Producer {
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Appends one CRC-framed payload. Zero allocation; two bounded
    /// memcpys (header + payload, each possibly split at the wrap point).
    pub fn try_push(&mut self, payload: &[u8]) -> Result<(), RingError> {
        let frame = FRAME_HEADER_BYTES + payload.len();
        if frame > self.shared.capacity() {
            return Err(RingError::TooLarge);
        }
        // Fast path: judge freeness against the cached head; only touch
        // the shared atomic when the ring looks full.
        if self.shared.capacity() - self.tail.wrapping_sub(self.cached_head) < frame {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            if self.shared.capacity() - self.tail.wrapping_sub(self.cached_head) < frame {
                return Err(RingError::Full);
            }
        }
        let mut header = [0u8; FRAME_HEADER_BYTES];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        // SAFETY: the region `[tail, tail + frame)` was just verified free,
        // and this is the unique producer.
        unsafe {
            self.shared.write(self.tail, &header);
            self.shared
                .write(self.tail.wrapping_add(FRAME_HEADER_BYTES), payload);
        }
        self.tail = self.tail.wrapping_add(frame);
        // Publish: the consumer's Acquire load of `tail` sees the bytes.
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Waits (spin-then-yield) until `payload` fits — the consumer side
    /// must be draining.
    pub fn push_blocking(&mut self, payload: &[u8]) -> Result<(), RingError> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_push(payload) {
                Err(RingError::Full) => {
                    backoff.snooze();
                }
                other => return other,
            }
        }
    }
}

/// The read endpoint. `!Clone`: exactly one thread may consume.
pub struct Consumer {
    shared: Arc<Shared>,
    /// Local copy of the free-running read index (only this side moves it).
    head: usize,
    /// Last tail observed — refreshed (Acquire) only on apparent-empty.
    cached_tail: usize,
}

impl std::fmt::Debug for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("capacity", &self.shared.capacity())
            .field("head", &self.head)
            .finish()
    }
}

impl Consumer {
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Whether a frame is ready right now (refreshes the cached tail).
    pub fn is_empty(&mut self) -> bool {
        if self.head == self.cached_tail {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
        }
        self.head == self.cached_tail
    }

    /// Pops one frame, handing the payload to `read` as two wrap-aware
    /// borrowed slices (second empty unless the payload wraps) — the
    /// zero-copy read path. The CRC is validated before `read` runs;
    /// `Ok(None)` means the ring is empty.
    pub fn pop_with<R>(
        &mut self,
        read: impl FnOnce(&[u8], &[u8]) -> R,
    ) -> Result<Option<R>, RingError> {
        if self.is_empty() {
            return Ok(None);
        }
        let readable = self.cached_tail.wrapping_sub(self.head);
        // The producer publishes whole frames, so a readable region
        // shorter than its own framing is corruption, not emptiness.
        if readable < FRAME_HEADER_BYTES {
            return Err(RingError::Corrupt);
        }
        // SAFETY: `[head, head + readable)` was published by the
        // producer's Release store, and this is the unique consumer.
        let (len, crc) = unsafe {
            let (a, b) = self.shared.slices(self.head, FRAME_HEADER_BYTES);
            let mut header = [0u8; FRAME_HEADER_BYTES];
            header[..a.len()].copy_from_slice(a);
            header[a.len()..].copy_from_slice(b);
            (
                u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize,
                u32::from_le_bytes(header[4..].try_into().expect("4 bytes")),
            )
        };
        if FRAME_HEADER_BYTES + len > readable {
            return Err(RingError::Corrupt);
        }
        // SAFETY: same published region, offset past the header.
        let (a, b) = unsafe {
            self.shared
                .slices(self.head.wrapping_add(FRAME_HEADER_BYTES), len)
        };
        if crc32_pair(a, b) != crc {
            return Err(RingError::Corrupt);
        }
        let out = read(a, b);
        self.head = self.head.wrapping_add(FRAME_HEADER_BYTES + len);
        // Release the space back to the producer.
        self.shared.head.0.store(self.head, Ordering::Release);
        Ok(Some(out))
    }

    /// [`Consumer::pop_with`] collecting the payload into an owned vector.
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>, RingError> {
        self.pop_with(|a, b| {
            let mut v = Vec::with_capacity(a.len() + b.len());
            v.extend_from_slice(a);
            v.extend_from_slice(b);
            v
        })
    }

    /// Waits (spin-then-yield) until a frame arrives and pops it zero-copy.
    pub fn pop_with_blocking<R>(
        &mut self,
        read: impl FnOnce(&[u8], &[u8]) -> R,
    ) -> Result<R, RingError> {
        let mut backoff = Backoff::new();
        while self.is_empty() {
            backoff.snooze();
        }
        match self.pop_with(read)? {
            Some(r) => Ok(r),
            None => unreachable!("a frame was ready after the non-empty check"),
        }
    }
}

// ---------------------------------------------------------------------------
// Measured fit
// ---------------------------------------------------------------------------

/// A measured `floor + bytes/bandwidth` fit of the real ring, in the same
/// shape as `chiron-store`'s `LinkModel`.
#[derive(Debug, Clone, Copy)]
pub struct RingFit {
    /// One-way small-frame latency (half a cross-thread round trip), ns.
    pub floor_ns: f64,
    /// Sustained large-frame bandwidth, bytes per second.
    pub bytes_per_sec: f64,
}

/// Measures the live ring on this machine: a two-thread ping-pong of
/// 16-byte frames for the floor, then a bulk stream of 64 KiB frames for
/// the bandwidth.
///
/// The floor is the **minimum** over several batches of the per-batch mean
/// half-round-trip: an oversubscribed host preempts the spinning threads
/// for milliseconds at a time, which poisons a global mean but leaves the
/// best batch close to the hardware floor. Wall-clock either way, so the
/// result varies by host — the model keeps fixed calibrated constants and
/// `figures -- transfer` records this fit next to them.
pub fn measure_fit() -> RingFit {
    // Debug builds are ~an order of magnitude slower through the CRC and
    // copy paths; scale the sample counts so tests stay quick.
    let rounds: u32 = if cfg!(debug_assertions) { 200 } else { 2_000 };
    let batches: u32 = 10;
    let (mut to_echo, mut from_main) = ring(1 << 12);
    let (mut to_main, mut from_echo) = ring(1 << 12);
    let total = rounds * batches;
    let echo = std::thread::spawn(move || {
        let mut buf = [0u8; 16];
        for _ in 0..total {
            let n = from_main
                .pop_with_blocking(|a, b| {
                    buf[..a.len()].copy_from_slice(a);
                    buf[a.len()..a.len() + b.len()].copy_from_slice(b);
                    a.len() + b.len()
                })
                .expect("uncorrupted ping");
            to_main.push_blocking(&buf[..n]).expect("pong fits");
        }
    });
    let payload = [7u8; 16];
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..rounds {
            to_echo.push_blocking(&payload).expect("ping fits");
            from_echo
                .pop_with_blocking(|a, b| a.len() + b.len())
                .expect("uncorrupted pong");
        }
        let per_hop = start.elapsed().as_nanos() as f64 / f64::from(rounds) / 2.0;
        best = best.min(per_hop);
    }
    echo.join().expect("echo thread");
    let floor_ns = best;

    const FRAME: usize = 64 << 10;
    let frames: usize = if cfg!(debug_assertions) { 256 } else { 2048 };
    let (mut tx, mut rx) = ring(1 << 20);
    let drain = std::thread::spawn(move || {
        for _ in 0..frames {
            rx.pop_with_blocking(|a, b| a.len() + b.len())
                .expect("uncorrupted stream");
        }
    });
    let chunk = vec![0xA5u8; FRAME];
    let start = Instant::now();
    for _ in 0..frames {
        tx.push_blocking(&chunk).expect("frame fits");
    }
    drain.join().expect("drain thread");
    let elapsed = start.elapsed().as_secs_f64();
    let bytes_per_sec = (FRAME * frames) as f64 / elapsed.max(f64::MIN_POSITIVE);

    RingFit {
        floor_ns,
        bytes_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_roundtrip() {
        let (mut tx, mut rx) = ring(256);
        tx.try_push(b"alpha").unwrap();
        tx.try_push(b"").unwrap();
        tx.try_push(b"gamma").unwrap();
        assert_eq!(rx.pop().unwrap().unwrap(), b"alpha");
        assert_eq!(rx.pop().unwrap().unwrap(), b"");
        assert_eq!(rx.pop().unwrap().unwrap(), b"gamma");
        assert!(rx.pop().unwrap().is_none());
    }

    #[test]
    fn frames_wrap_across_the_physical_end() {
        let (mut tx, mut rx) = ring(64);
        // 24-byte frames: the third wraps the 64-byte buffer.
        for round in 0..20u8 {
            let payload = [round; 16];
            tx.try_push(&payload).unwrap();
            let got = rx.pop().unwrap().unwrap();
            assert_eq!(got, payload, "round {round}");
        }
    }

    #[test]
    fn wrapped_payload_surfaces_as_two_slices() {
        let (mut tx, mut rx) = ring(64);
        // Advance the indices so the next payload straddles the end.
        tx.try_push(&[1u8; 40]).unwrap();
        rx.pop().unwrap().unwrap();
        tx.try_push(&[2u8; 32]).unwrap();
        let (a_len, b_len) = rx
            .pop_with(|a, b| (a.len(), b.len()))
            .unwrap()
            .expect("frame ready");
        assert_eq!(a_len + b_len, 32);
        assert!(b_len > 0, "payload should have wrapped");
    }

    #[test]
    fn full_and_too_large() {
        let (mut tx, mut rx) = ring(64);
        assert_eq!(tx.try_push(&[0u8; 100]), Err(RingError::TooLarge));
        tx.try_push(&[1u8; 20]).unwrap();
        tx.try_push(&[2u8; 20]).unwrap();
        assert_eq!(tx.try_push(&[3u8; 20]), Err(RingError::Full));
        rx.pop().unwrap().unwrap();
        tx.try_push(&[3u8; 20]).unwrap();
    }

    #[test]
    fn crc_catches_corruption() {
        let (mut tx, mut rx) = ring(128);
        tx.try_push(b"payload-bytes").unwrap();
        // Flip a payload byte behind the ring's back.
        unsafe {
            *tx.shared.buf[FRAME_HEADER_BYTES + 2].get() ^= 0xFF;
        }
        assert_eq!(rx.pop(), Err(RingError::Corrupt));
    }

    #[test]
    fn crc32_known_vector() {
        // The IEEE polynomial's classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_pair(b"12345", b"6789"), 0xCBF4_3926);
        assert_eq!(crc32_pair(b"", b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn threaded_stream_preserves_order_and_content() {
        let (mut tx, mut rx) = ring(1 << 10);
        const N: u32 = 5000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let len = (i % 97) as usize;
                let mut payload = vec![0u8; len];
                for (j, b) in payload.iter_mut().enumerate() {
                    *b = (i as u8).wrapping_add(j as u8);
                }
                tx.push_blocking(&payload).unwrap();
            }
        });
        for i in 0..N {
            let got = loop {
                match rx.pop().unwrap() {
                    Some(v) => break v,
                    None => std::thread::yield_now(),
                }
            };
            assert_eq!(got.len(), (i % 97) as usize, "frame {i} length");
            for (j, &b) in got.iter().enumerate() {
                assert_eq!(b, (i as u8).wrapping_add(j as u8), "frame {i} byte {j}");
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn measured_fit_is_sane() {
        let fit = measure_fit();
        assert!(fit.floor_ns > 0.0 && fit.floor_ns.is_finite());
        assert!(fit.bytes_per_sec > 1e6, "bw {}", fit.bytes_per_sec);
        // The modelled pipe floor is 50µs; a release-built real shm hop
        // sits orders of magnitude below it (the `figures -- transfer`
        // gate checks exactly this). Debug builds on a loaded host only
        // get a sanity bound.
        let bound = if cfg!(debug_assertions) {
            10_000_000.0
        } else {
            50_000.0
        };
        assert!(fit.floor_ns < bound, "floor {}ns", fit.floor_ns);
    }
}
