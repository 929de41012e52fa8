//! The discrete-event core: a time-ordered queue with a deterministic
//! tiebreaker, kept as a sorted ring because the serve loop's events
//! arrive nearly in firing order.

use chiron_deploy::NodeId;
use chiron_model::SimTime;

/// What happens at an event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The next request of the open-loop stream arrives.
    Arrival,
    /// A request another cluster spilled over arrives through the
    /// federation channel. Admitted like an arrival, but it neither
    /// advances the local arrival RNG nor re-arms the arrival train —
    /// so injections cannot perturb the cluster's own stream.
    Forwarded,
    /// A replica finishes the request it dispatched at `dispatch_seq`.
    /// Stale completions (the replica died or the request was re-queued)
    /// are recognised by a sequence mismatch and dropped.
    Completion {
        replica: u32,
        request: u64,
        dispatch_seq: u64,
    },
    /// A cold-started or prewarmed replica becomes schedulable.
    ReplicaReady { replica: u32 },
    /// Periodic autoscaler evaluation.
    AutoscaleTick,
    /// A background prewarm-pool slot build (scheduled by the lifecycle
    /// policy on an autoscaler tick) completes. `tier` is the
    /// `StartTier` code of the pool gaining the slot.
    PoolSlotReady { tier: u8 },
    /// Periodic node-liveness check.
    Heartbeat,
    /// Fault injection: the node disappears (crash-stop).
    NodeKill { node: NodeId },
}

/// An event with its firing time and insertion sequence (the tiebreaker
/// that makes simultaneous events deterministic). The queue orders events
/// by their packed `(time, seq)` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

/// Packed total-order key: one u128 comparison instead of a
/// lexicographic pair — the queue's only comparison currency. The
/// `(time, seq)` pair is fully recoverable from the key, so the ring
/// stores only keys (and payloads beside them).
#[inline]
fn pack_key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

#[inline]
fn unpack_key(key: u128) -> (SimTime, u64) {
    (SimTime::from_nanos((key >> 64) as u64), key as u64)
}

/// Priority queue of events in (time, insertion-order).
///
/// The serve loop's event stream is nearly FIFO: a dispatch schedules its
/// completion one service time ahead, which is almost always at or near
/// the latest pending event. So the queue is a ring of events kept sorted
/// from head to tail: `pop` takes the head and `push` inserts by scanning
/// from the tail, moving each later event one slot back. On the serve
/// ladder a push moves one or two events on average, so both operations
/// are close to O(1), with no sift and no comparison chain.
///
/// The open-loop arrival train — exactly one pending
/// [`EventKind::Arrival`] at any time, about half of all queue traffic —
/// lives in a one-element slot beside the ring. The slot still draws its
/// sequence number from the shared counter, and `pop`/`peek` order it
/// against the ring head by the same key.
///
/// The `(time, seq)` key is a total order, so any correct priority queue
/// pops the same sequence: this one pops bit for bit what a binary heap
/// would. Keys and payloads live in parallel arrays, so the tail scan
/// reads packed `u128` keys only.
#[derive(Debug)]
pub struct EventQueue {
    /// Packed `(time, seq)` keys, ascending from `head` around the ring;
    /// `kinds[i]` is `keys[i]`'s payload. Both have the same power-of-two
    /// length (or are empty), and only the `len` slots from `head` on
    /// are live.
    keys: Vec<u128>,
    kinds: Vec<EventKind>,
    head: usize,
    len: usize,
    /// The pending arrival's packed key, or [`EMPTY_SLOT`] when none. The
    /// slot's kind is always [`EventKind::Arrival`], so the key alone
    /// carries the whole event; the sentinel compares greater than every
    /// real key (`u64::MAX` nanoseconds is unreachable), which lets
    /// `pop` order slot against ring head with a single `u128` compare
    /// and no `Option` branching.
    slot_key: u128,
    next_seq: u64,
}

/// Sentinel for an empty arrival slot — later than any reachable event.
const EMPTY_SLOT: u128 = u128::MAX;

/// Smallest ring allocated on first use.
const MIN_RING: usize = 16;

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-sizes the ring. The simulator's queue holds one in-flight
    /// completion per busy replica plus a handful of control events, so a
    /// capacity around the replica cap avoids every growth reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        let ring = if capacity == 0 {
            0
        } else {
            capacity.next_power_of_two().max(MIN_RING)
        };
        EventQueue {
            keys: vec![0; ring],
            kinds: vec![EventKind::Heartbeat; ring],
            head: 0,
            len: 0,
            slot_key: EMPTY_SLOT,
            next_seq: 0,
        }
    }

    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = pack_key(at, seq);
        // Opportunistic: a second simultaneous pending arrival (which the
        // simulator never produces) would simply fall through to the ring
        // with ordering intact.
        if matches!(kind, EventKind::Arrival) && self.slot_key == EMPTY_SLOT {
            self.slot_key = key;
            return;
        }
        if self.len == self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        // Scan from the tail, moving each later event one slot back. Keys
        // are unique (the sequence number is), and a new key's sequence is
        // the largest yet, so it lands after every event at its instant.
        let mut i = self.len;
        while i > 0 {
            let from = (self.head + i - 1) & mask;
            let k = self.keys[from];
            if k < key {
                break;
            }
            let to = (self.head + i) & mask;
            self.keys[to] = k;
            self.kinds[to] = self.kinds[from];
            i -= 1;
        }
        let to = (self.head + i) & mask;
        self.keys[to] = key;
        self.kinds[to] = kind;
        self.len += 1;
    }

    /// Doubles the full ring, first rotating its events to the front.
    fn grow(&mut self) {
        let ring = (self.keys.len() * 2).max(MIN_RING);
        self.keys.rotate_left(self.head);
        self.kinds.rotate_left(self.head);
        self.keys.resize(ring, 0);
        self.kinds.resize(ring, EventKind::Heartbeat);
        self.head = 0;
    }

    /// Ring-head key, or a sentinel past every real event when empty.
    #[inline]
    fn head_key(&self) -> u128 {
        if self.len == 0 {
            EMPTY_SLOT
        } else {
            self.keys[self.head]
        }
    }

    fn pop_head(&mut self) -> Event {
        let (at, seq) = unpack_key(self.keys[self.head]);
        let kind = self.kinds[self.head];
        self.head = (self.head + 1) & (self.keys.len() - 1);
        self.len -= 1;
        Event { at, seq, kind }
    }

    #[inline]
    fn take_slot(&mut self) -> Event {
        let (at, seq) = unpack_key(self.slot_key);
        self.slot_key = EMPTY_SLOT;
        Event {
            at,
            seq,
            kind: EventKind::Arrival,
        }
    }

    pub fn pop(&mut self) -> Option<Event> {
        if self.slot_key <= self.head_key() {
            // Both sentinels equal means both stores are empty.
            if self.slot_key == EMPTY_SLOT {
                return None;
            }
            Some(self.take_slot())
        } else {
            Some(self.pop_head())
        }
    }

    /// Pops the next event only if it fires strictly before `limit` — the
    /// fused peek-then-pop the epoch-barrier driver runs per event, so a
    /// cluster's loop stops exactly at the barrier without paying the
    /// slot-vs-ring comparison twice.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<Event> {
        let head_key = self.head_key();
        if self.slot_key <= head_key {
            // The sentinel's time component is `u64::MAX`, never strictly
            // below a limit, so an empty queue falls out here too.
            if (self.slot_key >> 64) as u64 >= limit.as_nanos() {
                return None;
            }
            Some(self.take_slot())
        } else if ((head_key >> 64) as u64) < limit.as_nanos() {
            Some(self.pop_head())
        } else {
            None
        }
    }

    /// The firing time and kind of the next event without removing it.
    pub fn peek(&self) -> Option<Event> {
        let head_key = self.head_key();
        let (key, kind) = if self.slot_key <= head_key {
            if self.slot_key == EMPTY_SLOT {
                return None;
            }
            (self.slot_key, EventKind::Arrival)
        } else {
            (head_key, self.kinds[self.head])
        };
        let (at, seq) = unpack_key(key);
        Some(Event { at, seq, kind })
    }

    pub fn is_empty(&self) -> bool {
        self.slot_key == EMPTY_SLOT && self.len == 0
    }

    pub fn len(&self) -> usize {
        usize::from(self.slot_key != EMPTY_SLOT) + self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        let t = |ns| SimTime::from_nanos(ns);
        q.push(t(20), EventKind::AutoscaleTick);
        q.push(t(10), EventKind::Arrival);
        q.push(t(10), EventKind::Heartbeat);
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            order,
            vec![
                EventKind::Arrival,
                EventKind::Heartbeat,
                EventKind::AutoscaleTick
            ]
        );
    }

    #[test]
    fn arrival_slot_preserves_simultaneous_ordering() {
        // An arrival pushed *after* a same-timestamp event must still pop
        // second (higher seq), even though it bypasses the ring.
        let mut q = EventQueue::new();
        let t = |ns| SimTime::from_nanos(ns);
        q.push(t(10), EventKind::Heartbeat);
        q.push(t(10), EventKind::Arrival);
        q.push(t(5), EventKind::AutoscaleTick);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek().map(|e| e.kind), Some(EventKind::AutoscaleTick));
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            order,
            vec![
                EventKind::AutoscaleTick,
                EventKind::Heartbeat,
                EventKind::Arrival
            ]
        );
        assert!(q.is_empty());
    }
}
