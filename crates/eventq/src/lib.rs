//! # atlahs-eventq
//!
//! The shared event core of the ATLAHS simulation backends: a
//! hierarchical timer wheel with an overflow heap and an O(1) lane for
//! same-timestamp events ([`EventQueue`]), plus the deterministic fast
//! hashing the hot-path maps use ([`hash`]).
//!
//! Both the packet engine (`atlahs_htsim`) and the message-level backends
//! (`atlahs_lgs`, `atlahs_core::backends::IdealBackend`) schedule millions
//! of events whose delays cluster tightly: serialization times (hundreds
//! of ns), link latencies (500 to 1500 ns), host overheads (200 ns), and
//! zero-delay completions, with a thin tail of retransmission timers
//! (tens of µs, exponentially backed off) and compute releases (up to
//! seconds). A global `BinaryHeap` pays O(log n) comparisons and
//! half-a-cache-line swaps on every one of them. This queue makes the
//! dominant cases O(1):
//!
//! * **Lane** — events scheduled for *exactly* the current timestamp (the
//!   same-tick completions, pull-pacer kicks, and emit chains that
//!   dominate congested runs) are linked onto a FIFO list and pop without
//!   touching the wheel at all.
//! * **Level 0** — a 4096-slot wheel at 1 ns per slot covering the
//!   current 4.1 µs *frame*. One slot holds one exact timestamp, so
//!   insertion order *is* FIFO order and no sorting ever happens.
//! * **Level 1** — a 4096-slot wheel at one frame per slot covering the
//!   current 16.8 ms *superframe*. Slots cascade into level 0 when the
//!   scan enters their frame.
//! * **Overflow** — a plain binary heap, keyed `(time, push seq)`, for
//!   everything beyond the superframe horizon. Its contents migrate into
//!   the wheel when the scan crosses a superframe boundary, so each event
//!   pays at most one heap traversal regardless of how far out it was
//!   scheduled.
//!
//! **Ordering contract:** `pop` yields events in exactly the order a
//! min-heap on `(time, push sequence)` would — ties broken by insertion
//! order — which is what keeps simulation results bit-identical to the
//! backends' previous global-heap implementations. The structure relies
//! on time moving only forward: `push(t, _)` requires `t >= now`, where
//! `now` is the timestamp of the most recently popped event.
//!
//! **Storage:** every event queued in the lane or the wheel lives in one
//! slab of nodes; the lane and each wheel slot are a `(head, tail)` pair
//! of node indices threading a FIFO list through it. Popped nodes go onto
//! a LIFO free list, so the slab holds as many nodes as were ever queued
//! at once and a push reuses the node freed most recently. Popping a slot
//! hands its list to the lane and a cascade relinks nodes into level 0;
//! neither moves a payload.

#![forbid(unsafe_code)]

use std::collections::BinaryHeap;

pub mod hash;

/// log2 of level-0 slots per frame (and ns per frame).
const BITS0: u32 = 12;
/// log2 of level-1 slots per superframe (frames per superframe).
const BITS1: u32 = 12;
const SLOTS: usize = 1 << BITS0;
const MASK0: u64 = (1 << BITS0) - 1;
const MASK1: u64 = (1 << BITS1) - 1;
/// Bitmap words per level (4096 slots / 64 bits).
const WORDS: usize = SLOTS / 64;

#[derive(Clone)]
struct Overflow<T> {
    t: u64,
    seq: u64,
    ev: T,
}

impl<T> PartialEq for Overflow<T> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl<T> Eq for Overflow<T> {}
impl<T> PartialOrd for Overflow<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Overflow<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via reversal.
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// Occupancy bitmap over one wheel level.
#[derive(Clone)]
struct Bits([u64; WORDS]);

impl Bits {
    fn new() -> Bits {
        Bits([0; WORDS])
    }
    #[inline]
    fn set(&mut self, i: usize) {
        self.0[i >> 6] |= 1 << (i & 63);
    }
    #[inline]
    fn clear(&mut self, i: usize) {
        self.0[i >> 6] &= !(1 << (i & 63));
    }
    #[inline]
    fn test(&self, i: usize) -> bool {
        self.0[i >> 6] >> (i & 63) & 1 == 1
    }
    /// First set bit at index `>= from`, if any.
    fn next(&self, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let mut w = from >> 6;
        let mut word = self.0[w] & (!0u64 << (from & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            word = self.0[w];
        }
    }
}

/// Diagnostic counters (cheap; exposed for tests and perf tooling).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes that landed in the same-timestamp lane (the O(1) fast path).
    pub lane_pushes: u64,
    /// Pushes into the level-0 / level-1 wheels.
    pub wheel_pushes: u64,
    /// Pushes that overflowed past the superframe horizon into the heap.
    pub heap_pushes: u64,
    /// Level-1 slots cascaded into level 0.
    pub cascades: u64,
}

/// "No node": the end of a list, an empty list's head, an empty free list.
const NIL: u32 = u32::MAX;

/// One slab entry: a queued event, or (with `ev` empty) a free node.
#[derive(Clone)]
struct Node<T> {
    /// The next node of the list this one is on — a slot's, the lane's,
    /// or the free list.
    next: u32,
    t: u64,
    ev: Option<T>,
}

/// A FIFO list threaded through the slab: the lane or one wheel slot.
/// `tail` means something only while `head` is a node.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List { head: NIL, tail: NIL };

    /// Link node `n`, whose `next` is `NIL`, at the tail.
    #[inline]
    fn append<T>(&mut self, nodes: &mut [Node<T>], n: u32) {
        if self.head == NIL {
            self.head = n;
        } else {
            nodes[self.tail as usize].next = n;
        }
        self.tail = n;
    }
}

/// One wheel level: a list per slot and which of them are occupied.
#[derive(Clone)]
struct Level {
    slots: Box<[List]>,
    bits: Bits,
    /// Occupied slots (set bits).
    occupied: usize,
}

impl Level {
    fn new() -> Level {
        Level { slots: vec![List::EMPTY; SLOTS].into(), bits: Bits::new(), occupied: 0 }
    }

    #[inline]
    fn append<T>(&mut self, nodes: &mut [Node<T>], s: usize, n: u32) {
        if self.slots[s].head == NIL {
            self.bits.set(s);
            self.occupied += 1;
        }
        self.slots[s].append(nodes, n);
    }

    /// Empty occupied slot `s`, returning its list.
    #[inline]
    fn take(&mut self, s: usize) -> List {
        self.bits.clear(s);
        self.occupied -= 1;
        std::mem::replace(&mut self.slots[s], List::EMPTY)
    }
}

/// A discrete-event priority queue ordered by `(time, insertion order)`.
///
/// `Clone` (for `T: Clone`) copies the entire queue — the node slab, the
/// slot tables, the overflow heap, cursor, and sequence counter — so a
/// clone pops the exact same `(time, event)` stream as the original.
/// Backends rely on this for their `Snapshot` implementations: heap
/// entries are keyed `(t, seq)`, so a cloned `BinaryHeap` yields the same
/// total order even though its internal array layout is unspecified.
#[derive(Clone)]
pub struct EventQueue<T> {
    /// Timestamp of the most recent `pop` (and of everything in `lane`).
    now: u64,
    /// Scan position in ns; always `>= now` and `<=` every queued event.
    cursor: u64,
    /// Every event in the lane or the wheel, plus the free nodes.
    nodes: Vec<Node<T>>,
    /// Most recently freed node, linked through `next` to the older ones.
    free: u32,
    /// Events at exactly `now`, in insertion order.
    lane: List,
    l0: Level,
    l1: Level,
    heap: BinaryHeap<Overflow<T>>,
    /// Tie-break sequence for heap entries (wheel slots are FIFO by
    /// construction and need no explicit sequence).
    seq: u64,
    len: usize,
    stats: QueueStats,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    /// Summary only: the slab and the slot tables are noise in debug
    /// output, and `T: Debug` must not be required of backends.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("len", &self.len)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            now: 0,
            cursor: 0,
            nodes: Vec::new(),
            free: NIL,
            lane: List::EMPTY,
            l0: Level::new(),
            l1: Level::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            len: 0,
            stats: QueueStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Timestamp of the most recently popped event.
    pub fn now(&self) -> u64 {
        self.now
    }

    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Put `ev` in a node on no list yet: the most recently freed one
    /// (still in cache), or a new one when none is free.
    #[inline]
    fn alloc(&mut self, t: u64, ev: T) -> u32 {
        let node = Node { next: NIL, t, ev: Some(ev) };
        let n = self.free;
        if n != NIL {
            let slot = &mut self.nodes[n as usize];
            self.free = slot.next;
            *slot = node;
            return n;
        }
        let n = u32::try_from(self.nodes.len()).unwrap_or(NIL);
        assert!(n != NIL, "more than u32::MAX - 1 events queued at once");
        self.nodes.push(node);
        n
    }

    /// Link a new node for `(t, ev)` into the wheel; `t` lies in the
    /// cursor's superframe, at or after the cursor.
    #[inline]
    fn insert(&mut self, t: u64, ev: T) {
        let n = self.alloc(t, ev);
        let frame = t >> BITS0;
        if frame == self.cursor >> BITS0 {
            self.l0.append(&mut self.nodes, (t & MASK0) as usize, n);
        } else {
            self.l1.append(&mut self.nodes, (frame & MASK1) as usize, n);
        }
    }

    /// Schedule `ev` at absolute time `t` (`t >= now()` required).
    pub fn push(&mut self, t: u64, ev: T) {
        debug_assert!(t >= self.now, "time runs forward: {t} < {}", self.now);
        self.len += 1;
        if t == self.now {
            self.stats.lane_pushes += 1;
            let n = self.alloc(t, ev);
            self.lane.append(&mut self.nodes, n);
        } else if t >> (BITS0 + BITS1) == self.cursor >> (BITS0 + BITS1) {
            self.stats.wheel_pushes += 1;
            self.insert(t, ev);
        } else {
            self.stats.heap_pushes += 1;
            self.heap.push(Overflow { t, seq: self.seq, ev });
            self.seq += 1;
        }
    }

    /// Unlink the lane's head, free its node and return its event.
    #[inline]
    fn pop_lane(&mut self) -> (u64, T) {
        let n = self.lane.head;
        let node = &mut self.nodes[n as usize];
        debug_assert_eq!(node.t, self.now);
        let ev = node.ev.take().expect("a linked node holds an event");
        self.lane.head = node.next;
        node.next = self.free;
        self.free = n;
        self.len -= 1;
        (self.now, ev)
    }

    /// Pop the earliest event, `(time, insertion order)`-ordered.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.lane.head != NIL {
            return Some(self.pop_lane());
        }
        if self.len == 0 {
            return None;
        }
        loop {
            // Next occupied level-0 slot within the current frame.
            if self.l0.occupied > 0 {
                let frame_base = (self.cursor >> BITS0) << BITS0;
                // The scan position may never trail time itself nor its
                // own frame: a snapshot restored with a stale cursor
                // would wrap the slot offset below in release builds.
                debug_assert!(
                    self.cursor >= self.now,
                    "cursor {} behind now {} (stale snapshot?)",
                    self.cursor,
                    self.now
                );
                debug_assert!(
                    self.cursor >= frame_base,
                    "cursor {} behind its frame base {frame_base}",
                    self.cursor
                );
                let from = (self.cursor - frame_base) as usize;
                let s =
                    self.l0.bits.next(from).expect("an occupied level-0 slot at/after the cursor");
                let t = frame_base + s as u64;
                debug_assert!(
                    t >= self.cursor,
                    "level-0 slot at {t} behind the cursor {}",
                    self.cursor
                );
                self.cursor = t;
                self.now = t;
                // One slot holds one timestamp, now the current one: its
                // list, already in push order, is the new lane.
                self.lane = self.l0.take(s);
                return Some(self.pop_lane());
            }
            // Frame exhausted: advance to the next frame holding events.
            let cur_frame = self.cursor >> BITS0;
            let next_frame = if self.l1.occupied > 0 {
                let sf_base = (cur_frame >> BITS1) << BITS1;
                debug_assert!(
                    cur_frame + 1 > sf_base,
                    "frame {cur_frame} behind its superframe base {sf_base}"
                );
                let from = (cur_frame + 1 - sf_base) as usize;
                let s = self.l1.bits.next(from).expect("level 1 only holds the current superframe");
                sf_base + s as u64
            } else if let Some(top) = self.heap.peek() {
                // The wheel is empty: jump straight to the heap's head.
                top.t >> BITS0
            } else {
                debug_assert_eq!(self.len, 0);
                return None;
            };
            self.cursor = next_frame << BITS0;
            // Crossing a superframe boundary: migrate that superframe's
            // overflow events into the wheel (in `(t, seq)` order, which
            // keeps slot FIFO order correct).
            if next_frame >> BITS1 != cur_frame >> BITS1 {
                let sf = next_frame >> BITS1;
                while let Some(top) = self.heap.peek() {
                    if top.t >> (BITS0 + BITS1) != sf {
                        break;
                    }
                    let Overflow { t, ev, .. } = self.heap.pop().expect("peeked");
                    self.insert(t, ev);
                }
            }
            // Cascade the new frame's level-1 slot into level 0: relink
            // its nodes, in order, onto the slots of their timestamps.
            let s1 = (next_frame & MASK1) as usize;
            if self.l1.bits.test(s1) {
                self.stats.cascades += 1;
                let mut n = self.l1.take(s1).head;
                while n != NIL {
                    let node = &mut self.nodes[n as usize];
                    let t = node.t;
                    let next = std::mem::replace(&mut node.next, NIL);
                    debug_assert_eq!(t >> BITS0, next_frame);
                    self.l0.append(&mut self.nodes, (t & MASK0) as usize, n);
                    n = next;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::cell::Cell;
    use std::rc::Rc;

    /// Reference implementation: the backends' previous global heap.
    struct RefQueue<T> {
        heap: BinaryHeap<Overflow<T>>,
        seq: u64,
    }

    impl<T> RefQueue<T> {
        fn new() -> Self {
            RefQueue { heap: BinaryHeap::new(), seq: 0 }
        }
        fn push(&mut self, t: u64, ev: T) {
            self.heap.push(Overflow { t, seq: self.seq, ev });
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(u64, T)> {
            self.heap.pop().map(|o| (o.t, o.ev))
        }
    }

    #[test]
    fn empty_pops_none() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_a_timestamp() {
        let mut q = EventQueue::new();
        for (t, id) in [(5u64, 0u32), (5, 1), (3, 2), (5, 3), (3, 4)] {
            q.push(t, id);
        }
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(3, 2), (3, 4), (5, 0), (5, 1), (5, 3)]);
    }

    #[test]
    fn lane_takes_zero_delay_events() {
        let mut q = EventQueue::new();
        q.push(10, 'a');
        assert_eq!(q.pop(), Some((10, 'a')));
        // now == 10: these go through the lane.
        q.push(10, 'b');
        q.push(10, 'c');
        q.push(11, 'd');
        assert!(q.stats().lane_pushes >= 2);
        assert_eq!(q.pop(), Some((10, 'b')));
        assert_eq!(q.pop(), Some((10, 'c')));
        assert_eq!(q.pop(), Some((11, 'd')));
    }

    #[test]
    fn spans_frames_superframes_and_overflow() {
        let mut q = EventQueue::new();
        // One event per tier: current frame, later frame in the same
        // superframe, beyond the superframe horizon (heap), and far out.
        let times = [100u64, 10_000, 20_000_000, 3_000_000_000];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        assert!(q.stats().heap_pushes >= 2);
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_events_keep_fifo_ties() {
        let mut q = EventQueue::new();
        let far = 100_000_000; // beyond the superframe horizon
        for id in 0..32u32 {
            q.push(far, id);
        }
        for id in 0..32u32 {
            assert_eq!(q.pop(), Some((far, id)));
        }
    }

    /// The slab is O(live events): however many events pass through
    /// however many slots, it never holds more nodes than were queued at
    /// once. (With per-slot buffers, every slot kept the capacity of the
    /// busiest moment it ever saw.)
    #[test]
    fn slab_stays_bounded_by_the_standing_population() {
        const STANDING: usize = 4096;
        let mut rng = StdRng::seed_from_u64(0x51AB);
        let mut delay = move || match rng.random::<u64>() % 16 {
            0..=2 => 0,
            3..=8 => rng.random::<u64>() % 4_000,
            9..=13 => rng.random::<u64>() % 2_000_000,
            14 => rng.random::<u64>() % 16_000_000,
            _ => 17_000_000 + rng.random::<u64>() % 100_000_000,
        };
        let mut q = EventQueue::new();
        for id in 0..STANDING as u64 {
            q.push(delay(), id);
        }
        for id in 0..2_000_000u64 {
            let (now, _) = q.pop().expect("standing population");
            q.push(now + delay(), id);
            assert_eq!(q.len(), STANDING);
        }
        assert!(q.nodes.len() <= STANDING, "{} nodes for {STANDING} live events", q.nodes.len());
        let stats = q.stats();
        for tier in [stats.lane_pushes, stats.wheel_pushes, stats.heap_pushes, stats.cascades] {
            assert!(tier > 10_000, "a tier went unexercised: {stats:?}");
        }
    }

    /// Counts constructions (`new` and `clone`) and drops of a payload.
    #[derive(Default)]
    struct Tally {
        made: Cell<usize>,
        dropped: Cell<usize>,
    }

    struct Counted(Rc<Tally>);

    impl Counted {
        fn new(tally: &Rc<Tally>) -> Counted {
            tally.made.set(tally.made.get() + 1);
            Counted(Rc::clone(tally))
        }
    }
    impl Clone for Counted {
        fn clone(&self) -> Counted {
            Counted::new(&self.0)
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.dropped.set(self.0.dropped.get() + 1);
        }
    }

    /// Every payload is dropped exactly once: by whoever popped it, by
    /// dropping a queue it is still in, and — separately — as the copy a
    /// `clone()` taken mid-drain made of it.
    #[test]
    fn payloads_drop_exactly_once() {
        let tally = Rc::new(Tally::default());
        let mut q = EventQueue::new();
        q.push(10, Counted::new(&tally));
        drop(q.pop());
        // One more in the lane, then every other tier, ties included.
        let times = [10, 10, 500, 500, 700, 50_000, 50_000, 60_000_000, 60_000_000, 5_000_000_000];
        for t in times {
            q.push(t, Counted::new(&tally));
        }
        assert_eq!((tally.made.get(), tally.dropped.get()), (11, 1));
        // Popping hands the payload over; nothing is dropped behind it.
        let held: Vec<_> = (0..4).map(|_| q.pop().expect("queued")).collect();
        assert_eq!(tally.dropped.get(), 1);
        drop(held);
        assert_eq!(tally.dropped.get(), 5);
        // Freed nodes are reused and hold no stale payload.
        q.push(700, Counted::new(&tally));
        assert_eq!((tally.made.get(), tally.dropped.get()), (12, 5));
        // A clone copies exactly the queued payloads ...
        let mut snap = q.clone();
        assert_eq!(snap.len(), 7);
        assert_eq!((tally.made.get(), tally.dropped.get()), (19, 5));
        // ... draining it drops exactly those ...
        while snap.pop().is_some() {}
        assert_eq!(tally.dropped.get(), 12);
        drop(snap);
        assert_eq!(tally.dropped.get(), 12);
        // ... and the original, popped across the cascade and then
        // dropped non-empty, drops each of its own once.
        drop(q.pop());
        drop(q.pop());
        drop(q.pop());
        assert_eq!(tally.dropped.get(), 15);
        drop(q);
        assert_eq!((tally.made.get(), tally.dropped.get()), (19, 19));
    }

    /// The contract test: a long random interleaving of pushes and pops
    /// must match the `(t, seq)` binary-heap reference exactly, across
    /// delay scales that exercise lane, both wheel levels, overflow
    /// migration, and empty-wheel jumps.
    #[test]
    fn matches_reference_heap_order_under_stress() {
        let mut rng = StdRng::seed_from_u64(0xA7145);
        for round in 0..4u64 {
            let mut q = EventQueue::new();
            let mut r = RefQueue::new();
            let mut now = 0u64;
            let mut id = 0u64;
            for _ in 0..20_000 {
                let roll = rng.random::<u64>() % 100;
                if roll < 55 {
                    // Push with a delay profile spanning every tier.
                    let delay = match rng.random::<u64>() % 10 {
                        0 => 0,
                        1..=4 => rng.random::<u64>() % 1_000,
                        5..=6 => rng.random::<u64>() % 100_000,
                        7..=8 => rng.random::<u64>() % 30_000_000,
                        _ => rng.random::<u64>() % 5_000_000_000,
                    };
                    q.push(now + delay, id);
                    r.push(now + delay, id);
                    id += 1;
                } else {
                    let a = q.pop();
                    let b = r.pop();
                    assert_eq!(a, b, "divergence in round {round} at id {id}");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                }
            }
            // Drain both completely.
            loop {
                let a = q.pop();
                let b = r.pop();
                assert_eq!(a, b, "drain divergence in round {round}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// Snapshot contract: a cloned queue pops the exact same stream as
    /// the original, including when the clone is taken mid-drain with
    /// the cursor parked exactly on frame and superframe boundaries —
    /// the positions where a stale-cursor restore would underflow the
    /// slot-offset arithmetic `pop` guards with `debug_assert!`.
    #[test]
    fn clone_resumes_identically_at_boundaries() {
        let mut rng = StdRng::seed_from_u64(0xB00);
        let mut q = EventQueue::new();
        let mut now = 0u64;
        // Boundary-heavy schedule: frame edges (multiples of 1 << BITS0),
        // superframe edges (1 << (BITS0 + BITS1)), overflow, plus noise.
        for id in 0..4_000u64 {
            let delay = match rng.random::<u64>() % 8 {
                0 => 0,
                1 => (1 << BITS0) - (now & MASK0), // next frame boundary
                2 => (1 << (BITS0 + BITS1)) - (now & ((1 << (BITS0 + BITS1)) - 1)),
                3..=5 => rng.random::<u64>() % 50_000,
                _ => rng.random::<u64>() % 40_000_000,
            };
            q.push(now + delay, id);
            if rng.random::<u64>() % 3 == 0 {
                if let Some((t, _)) = q.pop() {
                    now = t;
                }
            }
        }
        // Checkpoint at several points of the drain (first pop lands on
        // whatever boundary the schedule reached) and verify the clone's
        // remaining stream is bit-identical to the original's.
        while !q.is_empty() {
            let mut snap = q.clone();
            assert_eq!(snap.len(), q.len());
            assert_eq!(snap.now(), q.now());
            for _ in 0..500 {
                let a = q.pop();
                let b = snap.pop();
                assert_eq!(a, b, "clone diverged from original after checkpoint");
                if a.is_none() {
                    break;
                }
            }
            // Fast-forward the original past the compared prefix — the
            // next checkpoint is taken deeper into the drain.
            q = snap;
            for _ in 0..500 {
                if q.pop().is_none() {
                    break;
                }
            }
        }
    }

    /// A clone taken with events parked in every tier (lane, level 0,
    /// level 1, overflow heap) stays independent of the original: popping
    /// one never perturbs the other.
    #[test]
    fn clone_is_independent_of_the_original() {
        let mut q = EventQueue::new();
        q.push(10, 0u64);
        assert_eq!(q.pop(), Some((10, 0)));
        q.push(10, 1); // lane
        q.push(500, 2); // level 0
        q.push(50_000, 3); // level 1
        q.push(60_000_000, 4); // heap
        let mut snap = q.clone();
        // Drain the original completely; the clone must still replay the
        // full stream afterwards.
        let original: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let cloned: Vec<_> = std::iter::from_fn(|| snap.pop()).collect();
        assert_eq!(original, vec![(10, 1), (500, 2), (50_000, 3), (60_000_000, 4)]);
        assert_eq!(original, cloned);
    }

    #[test]
    fn sparse_far_future_jumps_do_not_scan() {
        // A handful of events spread over 10 simulated seconds must pop
        // quickly (the scan jumps via the heap instead of walking every
        // frame). The time bound is implicit: the test would blow the
        // suite budget if the jump logic regressed to linear scanning.
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            q.push(i * 10_000_000, i);
        }
        for i in 0..1_000u64 {
            assert_eq!(q.pop(), Some((i * 10_000_000, i)));
        }
    }
}
