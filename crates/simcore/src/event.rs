//! The pending-event set.
//!
//! [`EventQueue`] is a monotone radix heap on the firing tick. Its base is
//! the last popped instant, which is the engine's clock. Bucket 0 holds the
//! events due at the base; bucket `b ≥ 1` holds those whose tick first
//! differs from the base at bit `b − 1` (the highest differing bit), so a
//! lower bucket only ever holds earlier events. [`EventQueue::pop`] serves
//! bucket 0 and, when it runs dry, empties the lowest non-empty bucket into
//! lower ones around that bucket's minimum, the new base. Each event moves
//! down at most 64 times, and a pop costs a few list operations instead of
//! a binary heap's `log n` sift with a mispredicted branch per level.
//!
//! Every bucket is a FIFO list threaded through one slab of nodes, so a
//! payload never moves after it is scheduled and the slab's capacity is
//! the peak pending population, as a heap's was. Equal instants always
//! share a bucket and are appended and re-linked in order, so two events
//! scheduled for the same instant fire **in the order they were
//! scheduled**, on every platform and every run — by construction, with no
//! sequence number.
//!
//! The price is a monotone contract: nothing may be scheduled before the
//! last popped instant. Debug builds panic on a violation; release builds
//! clamp the instant to the base, so the clock never runs backwards.

use crate::time::SimTime;

/// End-of-list marker of the slab links.
const NIL: u32 = u32::MAX;

/// Bucket 0 plus one bucket per bit of the tick.
const BUCKETS: usize = u64::BITS as usize + 1;

/// One pending event, or a free slot when `payload` is `None`.
#[derive(Debug, Clone)]
struct Node<T> {
    at: SimTime,
    /// The next node of the same bucket (or of the free list).
    next: u32,
    payload: Option<T>,
}

/// A FIFO list of slab nodes and the earliest instant among them.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    min: SimTime,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
        min: SimTime::MAX,
    };
}

/// The bucket of an event at `at` when the base is `base`: 0 for the base
/// itself, else one more than the highest bit in which the two differ.
#[inline]
fn bucket_of(base: SimTime, at: SimTime) -> usize {
    (u64::BITS - (base.ticks() ^ at.ticks()).leading_zeros()) as usize
}

/// Deterministic pending-event set.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    nodes: Vec<Node<T>>,
    /// Head of the list of free slab slots.
    free: u32,
    buckets: [Bucket; BUCKETS],
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: u128,
    /// The last popped instant; every pending event is at or after it.
    base: SimTime,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            nodes: Vec::with_capacity(cap),
            free: NIL,
            buckets: [Bucket::EMPTY; BUCKETS],
            occupied: 0,
            base: SimTime::ZERO,
            len: 0,
        }
    }

    /// Schedules `payload` to fire at `at`, after every event already
    /// scheduled for the same instant.
    ///
    /// `at` must not be before the last popped instant: debug builds
    /// panic, release builds clamp it to that instant.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        debug_assert!(
            at >= self.base,
            "scheduling before the last popped instant: {at} < {}",
            self.base
        );
        let at = at.max(self.base);
        let node = Node {
            at,
            next: NIL,
            payload: Some(payload),
        };
        let id = if self.free == NIL {
            let id = self.nodes.len();
            assert!(id < NIL as usize, "more than {NIL} pending events");
            self.nodes.push(node);
            id as u32
        } else {
            let id = self.free;
            let slot = &mut self.nodes[id as usize];
            self.free = slot.next;
            *slot = node;
            id
        };
        self.append(bucket_of(self.base, at), id, at);
        self.len += 1;
    }

    /// Links node `id`, firing at `at`, to the tail of bucket `b`.
    #[inline]
    fn append(&mut self, b: usize, id: u32, at: SimTime) {
        let bucket = &mut self.buckets[b];
        match bucket.tail {
            NIL => bucket.head = id,
            tail => self.nodes[tail as usize].next = id,
        }
        bucket.tail = id;
        bucket.min = bucket.min.min(at);
        self.occupied |= 1 << b;
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.occupied & 1 == 0 {
            // Bucket 0 ran dry: the lowest non-empty bucket holds the next
            // instant. Re-base on it and spread the bucket, in order, over
            // the lower ones; every other bucket stays valid, because the
            // old and the new base agree on all bits above that bucket's.
            // An empty queue indexes past the last bucket and returns.
            let b = self.occupied.trailing_zeros() as usize;
            let spread = std::mem::replace(self.buckets.get_mut(b)?, Bucket::EMPTY);
            self.occupied &= !(1 << b);
            self.base = spread.min;
            let mut id = spread.head;
            while id != NIL {
                let node = &mut self.nodes[id as usize];
                let (next, at) = (node.next, node.at);
                node.next = NIL;
                self.append(bucket_of(self.base, at), id, at);
                id = next;
            }
        }
        let bucket = &mut self.buckets[0];
        let id = bucket.head;
        let node = &mut self.nodes[id as usize];
        bucket.head = node.next;
        if bucket.head == NIL {
            *bucket = Bucket::EMPTY;
            self.occupied &= !1;
        }
        // A linked node always holds its payload; only free slots are `None`.
        let payload = node.payload.take()?;
        node.next = self.free;
        self.free = id;
        self.len -= 1;
        Some((self.base, payload))
    }

    /// The firing time of the earliest pending event. Peeking never moves
    /// the base: an event scheduled after a peek, at or after the last
    /// popped instant, still fires in time order.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Bucket 0's minimum is the base; an empty queue indexes past the
        // last bucket.
        let b = self.occupied.trailing_zeros() as usize;
        self.buckets.get(b).map(|bucket| bucket.min)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every pending event. The last popped instant stays the floor
    /// for later schedules.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.buckets = [Bucket::EMPTY; BUCKETS];
        self.occupied = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptest_lite::{check, Gen};
    use crate::time::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "c");
        q.schedule(t(1), "a");
        q.schedule(t(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(t(4), ());
        assert_eq!(q.peek_time(), Some(t(4)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10);
        q.schedule(t(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(t(5), 5);
        q.schedule(t(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    fn extreme_ticks_pop_in_order() {
        let mut q = EventQueue::new();
        for (i, ticks) in [u64::MAX, 0, 1 << 63, u64::MAX, 1].into_iter().enumerate() {
            q.schedule(SimTime::from_ticks(ticks), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![1, 4, 2, 0, 3]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the last popped instant")]
    fn scheduling_before_the_last_pop_panics_in_debug_builds() {
        let mut q = EventQueue::new();
        q.schedule(t(5), ());
        q.pop();
        q.schedule(t(4), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_before_the_last_pop_is_clamped_in_release_builds() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 5);
        q.schedule(t(9), 9);
        q.pop();
        q.schedule(t(4), 4);
        assert_eq!(q.pop(), Some((t(5), 4)), "clamped to the last pop");
        assert_eq!(q.pop(), Some((t(9), 9)));
    }

    /// The binary heap on `(time, seq)` that the radix heap replaced: the
    /// oracle of the differential property.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        next_seq: u64,
    }

    impl HeapOracle {
        fn schedule(&mut self, at: SimTime, payload: u32) {
            self.heap.push(Reverse((at, self.next_seq, payload)));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            self.heap.pop().map(|Reverse((at, _, p))| (at, p))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((at, _, _))| *at)
        }
    }

    /// An instant at or after `floor`, at most `spread` ticks later.
    fn later(g: &mut Gen, floor: SimTime, spread: u64) -> SimTime {
        SimTime::from_ticks(floor.ticks().saturating_add(g.u64_in(0, spread)))
    }

    #[test]
    fn radix_heap_matches_the_binary_heap_oracle() {
        check("radix_heap_matches_the_binary_heap_oracle", |g| {
            // Tick spreads from 1 (every event at the base) to 2^62.
            let spread = 1u64 << g.u64_in(0, 63);
            let mut q = EventQueue::new();
            let mut oracle = HeapOracle::default();
            let mut last = SimTime::ZERO;
            let mut next_payload = 0u32;
            let mut schedule = |q: &mut EventQueue<u32>, o: &mut HeapOracle, at| {
                q.schedule(at, next_payload);
                o.schedule(at, next_payload);
                next_payload += 1;
            };
            for _ in 0..g.usize_in(1, 400) {
                match g.u8_in(0, 16) {
                    // A plain schedule.
                    0..=5 => {
                        let at = later(g, last, spread);
                        schedule(&mut q, &mut oracle, at);
                    }
                    // A zero-delay reschedule at the popped instant.
                    6 => schedule(&mut q, &mut oracle, last),
                    // A same-instant burst.
                    7 => {
                        let at = later(g, last, spread);
                        for _ in 0..g.usize_in(2, 20) {
                            schedule(&mut q, &mut oracle, at);
                        }
                    }
                    // A bulk load.
                    8 => {
                        for _ in 0..g.usize_in(50, 300) {
                            let at = later(g, last, spread);
                            schedule(&mut q, &mut oracle, at);
                        }
                    }
                    9 => {
                        q.clear();
                        oracle.heap.clear();
                    }
                    10 | 11 => assert_eq!(q.peek_time(), oracle.peek_time()),
                    _ => {
                        let popped = q.pop();
                        assert_eq!(popped, oracle.pop());
                        if let Some((at, _)) = popped {
                            last = at;
                        }
                    }
                }
                assert_eq!(q.len(), oracle.heap.len());
                assert_eq!(q.is_empty(), oracle.heap.is_empty());
            }
            while let Some(popped) = oracle.pop() {
                assert_eq!(q.peek_time(), Some(popped.0));
                assert_eq!(q.pop(), Some(popped));
            }
            assert_eq!(q.pop(), None);
        });
    }
}
