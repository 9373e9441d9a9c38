//! The pending-event set: a stable priority queue keyed on time.
//!
//! Events scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO), which keeps simulations deterministic without requiring
//! the event payload type to be `Ord`.
//!
//! [`EventQueue`] is a hierarchical timing wheel tuned for the simulator's
//! short-horizon traffic. A small sorted *active* vector holds only the
//! imminent events; the near future is an array of 1 µs buckets with an
//! occupancy bitmap; the far future overflows into a heap. Most pushes are
//! an O(1) bucket append instead of an O(log n) sift, pops are O(1)
//! front-pops, and sorting happens once per bucket drain.
//!
//! Event payloads live in a [`Slab`]; the ordering structures (active deque,
//! buckets, far heap) move 24-byte [`Entry`] index records, not the fat event
//! enums themselves. A payload is touched exactly twice — once in, once out —
//! regardless of how many bucket drains or sorts its entry rides through
//! (DESIGN.md §15).
//!
//! The unit tests check the wheel's `(time, class, insertion-seq)` pop order
//! against a plain binary-heap oracle (DESIGN.md §6).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::slab::Slab;
use crate::time::SimTime;

/// Delivery class within an instant. Wire-boundary events sort before all
/// ordinary events scheduled for the same nanosecond, regardless of when
/// either was pushed. This gives cross-shard packet hand-offs a canonical
/// position in the instant that does not depend on scheduling order — the
/// property the parallel engine's deterministic merge rests on (the
/// sequential engine uses the same rule, so both modes agree bit-for-bit).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum EventClass {
    /// A wire hand-off boundary (drained first at its instant).
    Wire = 0,
    /// An ordinary event (FIFO after any wire boundaries at the instant).
    Normal = 1,
}

/// One pending event's ordering record: its sort key plus the arena index of
/// its payload. `Copy` and 24 bytes, so bucket drains, sorts, and heap sifts
/// move flat integers instead of event enums.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    class: EventClass,
    seq: u64,
    idx: u32,
}

impl Entry {
    /// Chronological sort key; wire boundaries first, then FIFO, within an
    /// instant.
    #[inline]
    fn key(&self) -> (SimTime, EventClass, u64) {
        (self.time, self.class, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops first.
        other.key().cmp(&self.key())
    }
}

/// log2 of the bucket width: 1024 ns buckets, matching the ~0.1–16 µs grain
/// of link serialization and hop delays.
const BUCKET_SHIFT: u64 = 10;
/// Number of buckets: 2048 × 1 µs ≈ 2.1 ms of near-future coverage, beyond
/// the longest single-packet timing in the model; later events overflow to
/// the far heap.
const BUCKETS: usize = 2048;
const BUCKET_WIDTH: u64 = 1 << BUCKET_SHIFT;
const WINDOW: u64 = (BUCKETS as u64) * BUCKET_WIDTH;

/// Near-future timing wheel with a sorted-deque active tier and far-future
/// overflow.
///
/// `active` is a `VecDeque` in ascending (time, seq) order: the earliest
/// event pops from the front in O(1), an event later than everything pending
/// appends at the back in O(1) (the hot path for causal chains), and a
/// mid-span insert moves only the shorter side of the ring. A bucket drain
/// is one extend plus one small sort instead of n heap sifts — the
/// calendar-queue trick that beats a binary heap even at modest queue sizes.
///
/// Partition invariants (checked implicitly by the differential tests):
///
/// * `floor` is the time of the last popped event; the simulation never
///   schedules below it, so every pending event has `time ≥ floor`;
/// * `active` holds every pending event with `time < active_end`;
/// * `buckets[i]` holds events with `base + i·W ≤ time < base + (i+1)·W`,
///   and all bucketed events satisfy `time ≥ active_end`;
/// * `far` holds events with `time ≥ base + WINDOW`;
/// * `active` is refilled lazily: `ensure_active` (called by peek and pop)
///   drains the next occupied bucket when `active` is empty. Anchoring
///   `base` at `floor` keeps pushes out of `active` — a burst of pushes at
///   arbitrary pending times (workload prefill) lands in the buckets at
///   O(1) each instead of degenerating to sorted-insert churn.
struct Wheel {
    /// Sorted ascending by (time, seq); earliest event at the front.
    active: VecDeque<Entry>,
    /// Exclusive upper bound of the span `active` covers.
    active_end: SimTime,
    /// Time of the last popped event; no pending event is earlier.
    floor: u64,
    /// Wheel origin: bucket 0 spans `[base, base + W)` ns.
    base: u64,
    /// Index of the first bucket not yet drained into `active`.
    cursor: usize,
    buckets: Vec<Vec<Entry>>,
    /// One bit per bucket; lets `refill` skip empty buckets 64 at a time.
    occupied: [u64; BUCKETS / 64],
    far: BinaryHeap<Entry>,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            active: VecDeque::new(),
            active_end: SimTime::ZERO,
            floor: 0,
            base: 0,
            cursor: 0,
            buckets: std::iter::repeat_with(Vec::new).take(BUCKETS).collect(),
            occupied: [0; BUCKETS / 64],
            far: BinaryHeap::new(),
        }
    }

    /// Insert into `active`, preserving ascending (time, seq) order. Only
    /// events inside the already-drained span (`time < active_end`, i.e.
    /// within one bucket width of the clock) land here, so `active` stays
    /// small and the end cases dominate.
    fn insert_active(&mut self, entry: Entry) {
        let k = entry.key();
        // O(1) end cases first; they dominate real schedules (an event later
        // than everything imminent, or earlier than everything pending).
        match self.active.back() {
            None => return self.active.push_back(entry),
            Some(b) if b.key() < k => return self.active.push_back(entry),
            _ => {}
        }
        if self.active.front().map(Entry::key) > Some(k) {
            return self.active.push_front(entry);
        }
        let pos = self.active.partition_point(|e| e.key() < k);
        self.active.insert(pos, entry);
    }

    // simlint::hot
    fn push(&mut self, entry: Entry) {
        let t = entry.time.as_nanos();
        if entry.time < self.active_end {
            self.insert_active(entry);
        } else if t.wrapping_sub(self.base) < WINDOW {
            let idx = ((t - self.base) >> BUCKET_SHIFT) as usize;
            debug_assert!(idx >= self.cursor, "bucketed event behind the drain cursor");
            self.buckets[idx].push(entry);
            self.occupied[idx / 64] |= 1 << (idx % 64);
        } else {
            // Beyond the window — including after a long idle gap that left
            // `base` far behind the clock; the next refill rebases.
            self.far.push(entry);
        }
    }

    /// Restore "`active` non-empty" when events are pending elsewhere.
    /// `pending` is the count of events the wheel holds.
    fn ensure_active(&mut self, pending: usize) {
        if self.active.is_empty() && pending > 0 {
            self.refill();
        }
    }

    // simlint::hot
    fn pop(&mut self, pending: usize) -> Option<Entry> {
        self.ensure_active(pending);
        let entry = self.active.pop_front()?;
        self.floor = entry.time.as_nanos();
        Some(entry)
    }

    /// Move the next non-empty time span into `active`. Caller guarantees at
    /// least one event is pending in the buckets or the far heap.
    fn refill(&mut self) {
        loop {
            // Bitmap scan for the first occupied bucket at or after cursor.
            let mut word_i = self.cursor / 64;
            let mut word = match self.occupied.get(word_i) {
                Some(&w) => w & (!0u64 << (self.cursor % 64)),
                None => 0,
            };
            while word == 0 {
                word_i += 1;
                if word_i >= self.occupied.len() {
                    // Wheel exhausted: re-anchor at the earliest far event
                    // and spill the far heap's next window into the buckets.
                    let head = self.far.peek().expect("refill on empty queue");
                    debug_assert!(
                        head.time.as_nanos() >= self.floor,
                        "far event behind the simulation clock"
                    );
                    self.base = head.time.as_nanos();
                    self.active_end = SimTime::from_nanos(self.base);
                    self.cursor = 0;
                    while let Some(head) = self.far.peek() {
                        if head.time.as_nanos().wrapping_sub(self.base) >= WINDOW {
                            break;
                        }
                        let e = self.far.pop().expect("peeked");
                        let idx = ((e.time.as_nanos() - self.base) >> BUCKET_SHIFT) as usize;
                        self.buckets[idx].push(e);
                        self.occupied[idx / 64] |= 1 << (idx % 64);
                    }
                    word_i = 0;
                    // Bucket 0 now holds the far head, so this is non-zero.
                }
                word = self.occupied[word_i];
            }
            let idx = word_i * 64 + word.trailing_zeros() as usize;
            self.occupied[word_i] &= !(1 << (idx % 64));
            self.cursor = idx + 1;
            // The wheel indexes on raw bucket-shifted nanoseconds by design;
            // this is the one place it converts back to typed time.
            let end_ns = self.base.saturating_add(((idx as u64) + 1) << BUCKET_SHIFT);
            self.active_end = SimTime::from_nanos(end_ns);
            if self.buckets[idx].is_empty() {
                continue; // stale bit after clear(); keep scanning
            }
            // Move the whole bucket into the (empty, hence contiguous)
            // active deque and sort it once; subsequent pops are O(1)
            // front-pops.
            debug_assert!(self.active.is_empty());
            self.active.extend(self.buckets[idx].drain(..));
            self.active.make_contiguous().sort_unstable_by_key(Entry::key);
            return;
        }
    }

    fn clear(&mut self) {
        self.active.clear();
        self.far.clear();
        for (i, word) in self.occupied.iter_mut().enumerate() {
            if *word != 0 {
                for b in 0..64 {
                    if *word & (1 << b) != 0 {
                        self.buckets[i * 64 + b].clear();
                    }
                }
                *word = 0;
            }
        }
        self.active_end = SimTime::ZERO;
        self.floor = 0;
        self.base = 0;
        self.cursor = 0;
    }
}

/// A time-ordered, insertion-stable event queue.
///
/// Payloads live in an internal [`Slab`]; the wheel's tiers move only
/// 24-byte [`Entry`] records.
pub struct EventQueue<E> {
    wheel: Wheel,
    arena: Slab<E>,
    next_seq: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            arena: Slab::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedule `event` to fire at `time`.
    // simlint::hot
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_class(time, EventClass::Normal, event);
    }

    /// Schedule a wire-boundary event at `time`: it pops before every
    /// [`EventClass::Normal`] event at the same instant, whenever it was
    /// pushed. Used for packet hand-off drains (see [`EventClass`]).
    pub fn push_wire(&mut self, time: SimTime, event: E) {
        self.push_class(time, EventClass::Wire, event);
    }

    // simlint::hot
    fn push_class(&mut self, time: SimTime, class: EventClass, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            time,
            class,
            seq,
            idx: self.arena.insert(event),
        };
        self.wheel.push(entry);
        self.len += 1;
    }

    /// Remove and return the earliest event.
    // simlint::hot
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.wheel.pop(self.len)?;
        self.len -= 1;
        Some((entry.time, self.arena.take(entry.idx)))
    }

    /// The timestamp of the earliest pending event. Takes `&mut self`
    /// because the wheel refills its active tier lazily.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.ensure_active(self.len);
        self.wheel.active.front().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.wheel.clear();
        self.arena.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::HashMap;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// The reference implementation the wheel is checked against: one
    /// binary heap over `(time, class, seq)` keys, payloads on the side.
    struct HeapOracle<E> {
        heap: BinaryHeap<Reverse<(SimTime, EventClass, u64)>>,
        payloads: HashMap<u64, E>,
        next_seq: u64,
    }

    impl<E> HeapOracle<E> {
        fn new() -> Self {
            HeapOracle {
                heap: BinaryHeap::new(),
                payloads: HashMap::new(),
                next_seq: 0,
            }
        }
    }

    /// The queue surface the tests drive, implemented by the wheel and by
    /// the oracle so one test body runs against both.
    trait TestQueue<E> {
        fn push(&mut self, time: SimTime, event: E);
        fn push_wire(&mut self, time: SimTime, event: E);
        fn pop(&mut self) -> Option<(SimTime, E)>;
        fn peek_time(&mut self) -> Option<SimTime>;
        fn len(&self) -> usize;
        fn clear(&mut self);
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<E> TestQueue<E> for EventQueue<E> {
        fn push(&mut self, time: SimTime, event: E) {
            EventQueue::push(self, time, event);
        }
        fn push_wire(&mut self, time: SimTime, event: E) {
            EventQueue::push_wire(self, time, event);
        }
        fn pop(&mut self) -> Option<(SimTime, E)> {
            EventQueue::pop(self)
        }
        fn peek_time(&mut self) -> Option<SimTime> {
            EventQueue::peek_time(self)
        }
        fn len(&self) -> usize {
            EventQueue::len(self)
        }
        fn clear(&mut self) {
            EventQueue::clear(self);
        }
    }

    impl<E> HeapOracle<E> {
        fn push_class(&mut self, time: SimTime, class: EventClass, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse((time, class, seq)));
            self.payloads.insert(seq, event);
        }
    }

    impl<E> TestQueue<E> for HeapOracle<E> {
        fn push(&mut self, time: SimTime, event: E) {
            self.push_class(time, EventClass::Normal, event);
        }
        fn push_wire(&mut self, time: SimTime, event: E) {
            self.push_class(time, EventClass::Wire, event);
        }
        fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse((time, _, seq)) = self.heap.pop()?;
            Some((time, self.payloads.remove(&seq).expect("payload")))
        }
        fn peek_time(&mut self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((time, _, _))| *time)
        }
        fn len(&self) -> usize {
            self.heap.len()
        }
        fn clear(&mut self) {
            self.heap.clear();
            self.payloads.clear();
        }
    }

    /// A `#[test]` that runs `$body` once against the wheel and once
    /// against the heap oracle, as `q: impl TestQueue<i64>`.
    macro_rules! on_both {
        ($name:ident, |$q:ident| $body:block) => {
            #[test]
            fn $name() {
                fn check(mut $q: impl TestQueue<i64>) $body
                check(EventQueue::new());
                check(HeapOracle::new());
            }
        };
    }

    /// Pop everything left, in order.
    fn drain(q: &mut impl TestQueue<i64>) -> Vec<(SimTime, i64)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    on_both!(pops_in_time_order, |q| {
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(drain(&mut q), vec![(t(10), 1), (t(20), 2), (t(30), 3)]);
    });

    on_both!(ties_are_fifo, |q| {
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    });

    on_both!(interleaved_push_pop_keeps_order, |q| {
        q.push(t(10), 1);
        q.push(t(10), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(t(10), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    });

    on_both!(peek_and_len, |q| {
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(7), 0);
        q.push(t(3), 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(3)));
        q.clear();
        assert!(q.is_empty());
        // The queue is reusable after clear.
        q.push(t(9), 1);
        assert_eq!(q.pop(), Some((t(9), 1)));
    });

    on_both!(wire_class_pops_before_normal_at_same_instant, |q| {
        q.push(t(500), 1);
        q.push(t(500), 2);
        // Pushed last, but the wire class drains first at its instant.
        q.push_wire(t(500), 0);
        q.push(t(400), -1);
        let order = drain(&mut q);
        assert_eq!(order, vec![(t(400), -1), (t(500), 0), (t(500), 1), (t(500), 2)]);
    });

    on_both!(wire_class_is_fifo_within_itself, |q| {
        q.push_wire(t(9), 0);
        q.push(t(9), 2);
        q.push_wire(t(9), 1);
        let order: Vec<i64> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    });

    on_both!(wire_push_mid_drain_preempts_pending_normals, |q| {
        // Pop one of three same-instant normals, then push a wire event at
        // that instant: it must pop before the two remaining normals even
        // though they were pushed first.
        q.push(t(500), 1);
        q.push(t(500), 2);
        q.push(t(500), 3);
        assert_eq!(q.pop(), Some((t(500), 1)));
        q.push_wire(t(500), 0);
        q.push(t(500), 4);
        let order: Vec<i64> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 2, 3, 4]);
    });

    on_both!(push_mid_drain_at_current_instant_pops_after_pending_run, |q| {
        q.push(t(100), 1);
        q.push(t(100), 2);
        assert_eq!(q.pop(), Some((t(100), 1)));
        // Same instant, normal class, later seq: after the pending run.
        q.push(t(100), 3);
        assert_eq!(q.pop(), Some((t(100), 2)));
        assert_eq!(q.pop(), Some((t(100), 3)));
        assert_eq!(q.peek_time(), None);
    });

    on_both!(same_instant_run_survives_interleaved_later_pushes, |q| {
        for i in 0..5 {
            q.push(t(50), i);
        }
        assert_eq!(q.pop(), Some((t(50), 0)));
        // Later pushes in the middle of an instant's run must not disturb it.
        q.push(t(50 + WINDOW * 2), 100);
        q.push(t(60), 99);
        for i in 1..5 {
            assert_eq!(q.pop(), Some((t(50), i)));
        }
        assert_eq!(q.pop(), Some((t(60), 99)));
        assert_eq!(q.pop(), Some((t(50 + WINDOW * 2), 100)));
    });

    on_both!(spans_bucket_and_far_boundaries, |q| {
        // One imminent event anchors the wheel, then events land in every
        // tier: active, several buckets, and far overflow.
        q.push(t(100), 0);
        q.push(t(100 + WINDOW * 3), 5); // far future
        q.push(t(50), 1); // earlier than the anchor: active tier
        q.push(t(100 + BUCKET_WIDTH * 7), 3); // mid wheel
        q.push(t(100 + BUCKET_WIDTH * 2), 2); // near wheel
        q.push(t(100 + WINDOW * 3), 6); // same far instant: FIFO
        q.push(t(100 + WINDOW - 1), 4); // last bucket
        let order: Vec<i64> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 0, 2, 3, 4, 5, 6]);
    });

    on_both!(rebase_after_idle_gap, |q| {
        q.push(t(1_000), 1);
        assert_eq!(q.pop(), Some((t(1_000), 1)));
        // Queue is empty; the next push is far beyond the previous window
        // and must re-anchor cleanly.
        q.push(t(WINDOW * 10), 2);
        q.push(t(WINDOW * 10 + BUCKET_WIDTH), 3);
        assert_eq!(q.pop(), Some((t(WINDOW * 10), 2)));
        assert_eq!(q.pop(), Some((t(WINDOW * 10 + BUCKET_WIDTH), 3)));
        assert_eq!(q.pop(), None);
    });

    /// One step of a queue workout.
    #[derive(Clone, Debug)]
    enum Op {
        /// Push at `last_popped_time + delta` (never into the past, like a
        /// real scheduler; `delta` 0 is an `immediately` during dispatch).
        Push { delta: u64 },
        /// Push a wire-class event at `last_popped_time + delta`.
        PushWire { delta: u64 },
        /// Pop one event.
        Pop,
    }

    /// Run `ops` against the wheel and the oracle, checking after every
    /// step that both agree on the next pop time, the popped event and the
    /// length, then drain both and compare the tails.
    fn assert_same_pops(ops: &[Op]) {
        let mut wheel = EventQueue::new();
        let mut oracle = HeapOracle::new();
        let mut now = 0u64;
        for (id, op) in ops.iter().enumerate() {
            let id = id as i64;
            match *op {
                Op::Push { delta } => {
                    wheel.push(t(now + delta), id);
                    oracle.push(t(now + delta), id);
                }
                Op::PushWire { delta } => {
                    wheel.push_wire(t(now + delta), id);
                    oracle.push_wire(t(now + delta), id);
                }
                Op::Pop => {
                    assert_eq!(wheel.peek_time(), oracle.peek_time());
                    let (a, b) = (wheel.pop(), oracle.pop());
                    assert_eq!(a, b);
                    if let Some((time, _)) = a {
                        assert!(time.as_nanos() >= now, "the clock only moves forward");
                        now = time.as_nanos();
                    }
                }
            }
            assert_eq!(wheel.len(), oracle.len());
            assert_eq!(wheel.is_empty(), oracle.is_empty());
        }
        assert_eq!(drain(&mut wheel), drain(&mut oracle));
    }

    #[test]
    fn wheel_matches_oracle_with_same_instant_pushes_during_drain() {
        // 200 events over 11 instants, drained with a push at the popped
        // instant after every 17th pop.
        let pushes = (0..200u64).map(|i| Op::Push { delta: ((i * 37) % 11) * 100 });
        let pops = (1..=300).flat_map(|i| {
            let echo = (i % 17 == 0).then_some(Op::Push { delta: 0 });
            std::iter::once(Op::Pop).chain(echo)
        });
        assert_same_pops(&pushes.chain(pops).collect::<Vec<_>>());
    }

    #[test]
    fn wheel_matches_oracle_on_dense_random_schedule() {
        // Deterministic xorshift; mixes same-instant ties, short and long
        // horizons, wire-class pushes and interleaved pops.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ops: Vec<Op> = (0..50_000)
            .map(|_| {
                if rnd() % 10 >= 6 {
                    return Op::Pop;
                }
                let delta = match rnd() % 4 {
                    0 => 0,                         // same instant
                    1 => rnd() % 1_000,             // sub-bucket
                    2 => rnd() % (WINDOW / 2),      // mid wheel
                    _ => WINDOW + rnd() % WINDOW,   // far heap
                };
                if rnd() % 8 == 0 {
                    Op::PushWire { delta }
                } else {
                    Op::Push { delta }
                }
            })
            .collect();
        assert_same_pops(&ops);
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Dense short-horizon traffic (sub-bucket and same-bucket).
            (0u64..2_000).prop_map(|delta| Op::Push { delta }),
            // Mid-wheel horizons around the paper's packet timescales.
            (0u64..3_000_000).prop_map(|delta| Op::Push { delta }),
            // Far-future overflow beyond the wheel window.
            (0u64..200_000_000).prop_map(|delta| Op::Push { delta }),
            (0u64..2_000).prop_map(|delta| Op::PushWire { delta }),
            Just(Op::Push { delta: 0 }),
            Just(Op::Pop),
            Just(Op::Pop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn wheel_and_oracle_pop_identically(ops in proptest::collection::vec(op_strategy(), 1..400)) {
            assert_same_pops(&ops);
        }

        #[test]
        fn wheel_drains_in_nondecreasing_stable_order(
            times in proptest::collection::vec(0u64..50_000_000, 1..300),
        ) {
            // All-push-then-drain: pops must come out sorted by (time, push seq).
            let mut wheel = EventQueue::new();
            for (i, &time) in times.iter().enumerate() {
                wheel.push(t(time), i as i64);
            }
            let mut expect: Vec<(SimTime, i64)> =
                times.iter().enumerate().map(|(i, &time)| (t(time), i as i64)).collect();
            expect.sort(); // (time, seq): stable tie order by construction
            prop_assert_eq!(drain(&mut wheel), expect);
        }

        #[test]
        fn clear_resets_wheel_for_reuse(
            first in proptest::collection::vec(0u64..100_000_000, 1..50),
            second in proptest::collection::vec(0u64..100_000_000, 1..50),
        ) {
            let mut wheel = EventQueue::new();
            let mut oracle = HeapOracle::new();
            for (i, &time) in first.iter().enumerate() {
                wheel.push(t(time), i as i64);
                oracle.push(t(time), i as i64);
            }
            wheel.clear();
            oracle.clear();
            prop_assert!(wheel.is_empty());
            for (i, &time) in second.iter().enumerate() {
                wheel.push(t(time), i as i64);
                oracle.push(t(time), i as i64);
            }
            prop_assert_eq!(drain(&mut wheel), drain(&mut oracle));
        }
    }
}
