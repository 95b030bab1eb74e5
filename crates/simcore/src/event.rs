//! The pending-event set.
//!
//! [`EventQueue`] is a monotone radix queue on the firing tick whose two
//! lowest digits are 12-bit timing wheels, after Varghese & Lauck's
//! hierarchical timing wheels ("Hashed and hierarchical timing wheels",
//! SOSP 1987). Its base is the last popped instant, which is the engine's
//! clock, and every pending event sits on one of three levels, placed by
//! the highest bit in which its tick differs from the base:
//!
//! * **level 0** has one slot per tick of the base's 4 096-tick page (the
//!   event differs from the base in bits 0–11 only), so a slot holds one
//!   instant;
//! * **level 1** has one slot per page of the base's 2²⁴-tick block (the
//!   highest differing bit is 12–23), and each slot keeps its minimum;
//! * the **far buckets** are a binary radix heap over bits 24–63: bucket
//!   `b` holds the events whose highest differing bit is `24 + b`, again
//!   with its minimum.
//!
//! A lower level or slot only ever holds earlier events. [`EventQueue::pop`]
//! serves the first live slot of level 0. When level 0 runs dry it re-bases
//! on the minimum of the first live slot of level 1, or else of the lowest
//! far bucket, and spreads that slot into the lower levels; a level-1 slot
//! lands in level 0 whole, so an event scheduled 2¹²–2²⁴ ticks ahead (the
//! serve runs' 0.25–2.3 s gaps) is relinked once between its schedule and
//! its pop. Each level's 64-word occupancy bitmap and summary word alone
//! say which slots are live, so the slot tables start zeroed and are never
//! reset when a slot empties.
//!
//! Every slot is a FIFO list threaded through one slab kept as parallel
//! arrays (the firing tick, the `u32` link that also threads the free list,
//! and the payload), so a spread reads 12 bytes per event, a payload never
//! moves after it is scheduled, and the slab's capacity is the peak pending
//! population. Equal instants always share a slot and are appended and
//! relinked in order, so two events scheduled for the same instant fire
//! **in the order they were scheduled**, on every platform and every run —
//! by construction, with no sequence number.
//!
//! The price is a monotone contract: nothing may be scheduled before the
//! last popped instant. Debug builds panic on a violation; release builds
//! clamp the instant to the base, so the clock never runs backwards.

use crate::time::SimTime;

/// End-of-list marker of the free list.
const NIL: u32 = u32::MAX;

/// Tick bits one wheel resolves.
const WHEEL_BITS: u32 = 12;

/// Slots per wheel.
const SLOTS: usize = 1 << WHEEL_BITS;

/// The tick bits of one wheel digit.
const DIGIT: u64 = SLOTS as u64 - 1;

/// One far bucket per tick bit above the two wheels.
const FAR_BUCKETS: usize = (u64::BITS - 2 * WHEEL_BITS) as usize;

/// The first and last slab entry of a slot's list.
#[derive(Debug, Clone, Copy, Default)]
struct Ends {
    head: u32,
    tail: u32,
}

/// One level of the queue: a FIFO list of slab entries per slot and a
/// two-level occupancy bitmap. A slot's ends (and minimum) are written
/// when it turns live and mean nothing while its bit is clear, so emptying
/// a slot clears one bit.
#[derive(Debug, Clone)]
struct Level {
    ends: Box<[Ends]>,
    /// The earliest instant per slot, on the levels whose slots span more
    /// than one tick; empty on level 0, whose slot is its instant.
    min: Box<[SimTime]>,
    /// Bit `s % 64` of `words[s / 64]` is set iff slot `s` is live.
    words: Box<[u64]>,
    /// Bit `w` is set iff `words[w]` is non-zero.
    summary: u64,
}

impl Level {
    fn new(slots: usize, keeps_min: bool) -> Self {
        Level {
            ends: vec![Ends::default(); slots].into(),
            min: vec![SimTime::ZERO; if keeps_min { slots } else { 0 }].into(),
            words: vec![0; slots.div_ceil(64)].into(),
            summary: 0,
        }
    }

    /// The lowest live slot, or `None` when the level is empty.
    #[inline]
    fn first(&self) -> Option<usize> {
        let w = self.summary.trailing_zeros() as usize;
        // An empty level indexes past the last word.
        let word = self.words.get(w)?;
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// Links entry `id`, firing at `at`, to the tail of slot `s`.
    #[inline]
    fn append(&mut self, next: &mut [u32], s: usize, id: u32, at: SimTime) {
        let (w, bit) = (s / 64, 1 << (s % 64));
        let ends = &mut self.ends[s];
        let min = self.min.get_mut(s);
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.summary |= 1 << w;
            ends.head = id;
            if let Some(min) = min {
                *min = at;
            }
        } else {
            next[ends.tail as usize] = id;
            if let Some(min) = min {
                *min = (*min).min(at);
            }
        }
        ends.tail = id;
    }

    /// Marks slot `s` empty and returns its list.
    #[inline]
    fn take(&mut self, s: usize) -> Ends {
        let w = s / 64;
        self.words[w] &= !(1 << (s % 64));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
        self.ends[s]
    }
}

/// Deterministic pending-event set.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// The firing instant of each slab entry.
    at: Vec<SimTime>,
    /// The next entry of the same slot (or of the free list). A list ends
    /// at its slot's tail, so a tail's link is never read.
    next: Vec<u32>,
    /// Each entry's payload; only free entries hold `None`.
    payload: Vec<Option<T>>,
    /// Head of the free list.
    free: u32,
    /// Level 0: one slot per tick of the base's page.
    near: Level,
    /// Level 1: one slot per page of the base's block.
    mid: Level,
    /// One bucket per bit from 24 up.
    far: Level,
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
            at: Vec::with_capacity(cap),
            next: Vec::with_capacity(cap),
            payload: Vec::with_capacity(cap),
            free: NIL,
            near: Level::new(SLOTS, false),
            mid: Level::new(SLOTS, true),
            far: Level::new(FAR_BUCKETS, true),
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
        let id = if self.free == NIL {
            let id = self.at.len();
            assert!(id < NIL as usize, "more than {NIL} pending events");
            self.at.push(at);
            self.next.push(NIL);
            self.payload.push(Some(payload));
            id as u32
        } else {
            let id = self.free;
            self.free = self.next[id as usize];
            self.at[id as usize] = at;
            self.payload[id as usize] = Some(payload);
            id
        };
        self.link(id, at);
        self.len += 1;
    }

    /// Links entry `id`, firing at `at`, to the tail of its slot: on level
    /// 0 if it shares the base's page, on level 1 if it shares the base's
    /// block, else in the far bucket of the highest bit in which it
    /// differs from the base.
    #[inline]
    fn link(&mut self, id: u32, at: SimTime) {
        let ticks = at.ticks();
        let diff = ticks ^ self.base.ticks();
        if diff >> WHEEL_BITS == 0 {
            let s = (ticks & DIGIT) as usize;
            self.near.append(&mut self.next, s, id, at);
        } else if diff >> (2 * WHEEL_BITS) == 0 {
            let s = ((ticks >> WHEEL_BITS) & DIGIT) as usize;
            self.mid.append(&mut self.next, s, id, at);
        } else {
            let b = u64::BITS - 1 - diff.leading_zeros() - 2 * WHEEL_BITS;
            self.far.append(&mut self.next, b as usize, id, at);
        }
    }

    /// The instant of level-0 slot `s`.
    #[inline]
    fn near_instant(&self, s: usize) -> SimTime {
        SimTime::from_ticks((self.base.ticks() & !DIGIT) | s as u64)
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let s = match self.near.first() {
            Some(s) => s,
            None => self.refill()?,
        };
        let Ends { head: id, tail } = self.near.ends[s];
        if id == tail {
            self.near.take(s);
        } else {
            self.near.ends[s].head = self.next[id as usize];
        }
        self.base = self.near_instant(s);
        // A linked entry always holds its payload; only free ones are `None`.
        let payload = self.payload[id as usize].take()?;
        self.next[id as usize] = self.free;
        self.free = id;
        self.len -= 1;
        Some((self.base, payload))
    }

    /// Level 0 ran dry: the first live slot of level 1, or else the lowest
    /// far bucket, holds the next instant. Re-bases on that slot's minimum
    /// and spreads the slot, in order, into the lower levels; every other
    /// slot stays valid, because the old and the new base agree on all the
    /// bits that place it. Returns the new base's level-0 slot, or `None`
    /// when the queue is empty.
    fn refill(&mut self) -> Option<usize> {
        let level = if self.mid.summary != 0 {
            &mut self.mid
        } else {
            &mut self.far
        };
        let s = level.first()?;
        self.base = level.min[s];
        let Ends { head, tail } = level.take(s);
        let mut id = head;
        loop {
            let next = self.next[id as usize];
            self.link(id, self.at[id as usize]);
            if id == tail {
                break;
            }
            id = next;
        }
        Some((self.base.ticks() & DIGIT) as usize)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The level holding the earliest pending event: 0, 1, or 2 for the
    /// far buckets.
    #[cfg(test)]
    pub(crate) fn level_of_next(&self) -> Option<u8> {
        [&self.near, &self.mid, &self.far]
            .iter()
            .position(|level| level.summary != 0)
            .map(|level| level as u8)
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

    fn ticks(n: u64) -> SimTime {
        SimTime::from_ticks(n)
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
    fn wheel_boundaries_pop_in_order() {
        let mut q = EventQueue::new();
        // Move the base off every alignment first.
        q.schedule(ticks(1000), 0);
        assert_eq!(q.pop(), Some((ticks(1000), 0)));
        let edges = [
            // Around the end of the base's page and of its block.
            (1 << 12) - 1,
            1 << 12,
            (1 << 12) + 1,
            (1 << 24) - 1,
            1 << 24,
            (1 << 24) + 1,
            // Around base + 2¹² and base + 2²⁴.
            1000 + (1 << 12) - 1,
            1000 + (1 << 12),
            1000 + (1 << 24),
            1000 + (1 << 24) + 1,
        ];
        for (i, &at) in edges.iter().enumerate().rev() {
            q.schedule(ticks(at), i + 1);
        }
        let mut sorted: Vec<_> = edges.iter().copied().zip(1..).collect();
        sorted.sort();
        for (at, i) in sorted {
            assert_eq!(q.pop(), Some((ticks(at), i)));
            // A zero-delay reschedule fires before the next edge.
            q.schedule(ticks(at), 0);
            assert_eq!(q.pop(), Some((ticks(at), 0)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_burst_split_across_a_spread_keeps_its_order() {
        let at = ticks((1 << 24) + 5000);
        let mut q = EventQueue::new();
        // The first half goes in while `at` is a far bucket away …
        for i in 0..3 {
            q.schedule(at, i);
        }
        assert_eq!(q.level_of_next(), Some(2));
        // … the base then enters `at`'s block (level 1) and page (level 0),
        // and each step adds more of the burst.
        q.schedule(ticks(1 << 24), 100);
        assert_eq!(q.pop(), Some((ticks(1 << 24), 100)));
        assert_eq!(q.level_of_next(), Some(1));
        for i in 3..6 {
            q.schedule(at, i);
        }
        q.schedule(ticks((1 << 24) + 4096), 101);
        assert_eq!(q.pop(), Some((ticks((1 << 24) + 4096), 101)));
        assert_eq!(q.level_of_next(), Some(0));
        for i in 6..9 {
            q.schedule(at, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, (0..9).map(|i| (at, i)).collect::<Vec<_>>());
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

    /// The binary heap on `(time, seq)` that the radix queue replaced: the
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
    }

    /// An instant at or after `floor`, at most `spread` ticks later.
    fn later(g: &mut Gen, floor: SimTime, spread: u64) -> SimTime {
        SimTime::from_ticks(floor.ticks().saturating_add(g.u64_in(0, spread)))
    }

    /// An instant within a few ticks of a wheel edge ahead of `floor`:
    /// `floor + 2¹²` or `floor + 2²⁴`, or the end of `floor`'s page or
    /// block; never before `floor`.
    fn near_an_edge(g: &mut Gen, floor: SimTime) -> SimTime {
        let bits = if g.u8_in(0, 2) == 0 { 12 } else { 24 };
        let edge = if g.u8_in(0, 2) == 0 {
            floor.ticks().saturating_add(1 << bits)
        } else {
            (floor.ticks() | ((1 << bits) - 1)).saturating_add(1)
        };
        let at = edge.saturating_add(g.u64_in(0, 7)).saturating_sub(3);
        SimTime::from_ticks(at.max(floor.ticks()))
    }

    #[test]
    fn event_queue_matches_the_binary_heap_oracle() {
        check("event_queue_matches_the_binary_heap_oracle", |g| {
            // Tick spreads from 1 (every event at the base) to 2^62.
            let spread = 1u64 << g.u64_in(0, 63);
            let mut q = EventQueue::new();
            let mut oracle = HeapOracle::default();
            let mut last = SimTime::ZERO;
            // Instants scheduled so far, for bursts resumed later.
            let mut marks = Vec::new();
            let mut next_payload = 0u32;
            let mut schedule = |q: &mut EventQueue<u32>, o: &mut HeapOracle, at| {
                q.schedule(at, next_payload);
                o.schedule(at, next_payload);
                next_payload += 1;
            };
            for _ in 0..g.usize_in(1, 400) {
                match g.u8_in(0, 17) {
                    // A plain schedule.
                    0..=5 => {
                        let at = later(g, last, spread);
                        schedule(&mut q, &mut oracle, at);
                    }
                    // A zero-delay reschedule at the popped instant.
                    6 => schedule(&mut q, &mut oracle, last),
                    // A same-instant burst, remembered for resuming.
                    7 => {
                        let at = later(g, last, spread);
                        for _ in 0..g.usize_in(2, 20) {
                            schedule(&mut q, &mut oracle, at);
                        }
                        marks.push(at);
                    }
                    // A bulk load.
                    8 => {
                        for _ in 0..g.usize_in(50, 300) {
                            let at = later(g, last, spread);
                            schedule(&mut q, &mut oracle, at);
                        }
                    }
                    // A few ticks either side of a wheel edge.
                    9 => {
                        for _ in 0..g.usize_in(1, 6) {
                            let at = near_an_edge(g, last);
                            schedule(&mut q, &mut oracle, at);
                        }
                    }
                    // More of an earlier burst, once the base may have
                    // entered its page (or moved past it).
                    10 => {
                        if let Some(&at) = marks.get(g.usize_in(0, marks.len() + 1)) {
                            if at >= last {
                                for _ in 0..g.usize_in(1, 5) {
                                    schedule(&mut q, &mut oracle, at);
                                }
                            }
                        }
                    }
                    // An event past level 1, with stepping stones in its
                    // block and page, so it travels far → 1 → 0.
                    11 => {
                        let far = later(g, last, 1 << 30).ticks().saturating_add(1 << 24);
                        let block = far & !((1 << 24) - 1);
                        let page = far & !DIGIT;
                        for at in [far, block.max(last.ticks()), page.max(last.ticks())] {
                            schedule(&mut q, &mut oracle, SimTime::from_ticks(at));
                        }
                    }
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
                assert_eq!(q.pop(), Some(popped));
            }
            assert_eq!(q.pop(), None);
        });
    }
}
