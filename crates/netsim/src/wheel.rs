//! Two-tier calendar queue backing the event scheduler.
//!
//! The simulator's event mix is sharply bimodal: the bulk of events are
//! *near-future* — packet serialization at 1 Gbps is ~12 µs per MTU, ACK
//! clocking and mux refills land within a few hundred µs — while a thin
//! tail of *far-future* events (TCP RTOs at hundreds of ms, browser stall
//! timers at seconds, adversarial jitter holds at tens of ms) sits orders
//! of magnitude out. A comparison-based heap pays `O(log n)` per operation
//! with `n` inflated by that far tail; a calendar queue pays `O(1)` for
//! the dense near-future traffic and banishes the tail to an overflow heap
//! it touches only when the calendar runs dry.
//!
//! Layout:
//!
//! * **Near tier** — a ring of [`BUCKET_COUNT`] buckets, each spanning
//!   2^[`BUCKET_NANOS_SHIFT`] ns (32.768 µs), covering a window of ~67 ms
//!   from the window's `epoch` bucket. Each bucket is a singly linked
//!   list threaded through the arena slots, headed by one `u32` per
//!   bucket, so insert is two stores plus a bitmap bit; pop scans the
//!   occupancy bitmap to the next live bucket (word-at-a-time), moves its
//!   list into one reused drain buffer, sorts it, and drains it in order.
//! * **Far tier** — a [`MinHeap4`] of keys whose bucket lies at or beyond
//!   the window's end. When the near tier drains, the window is re-anchored
//!   at the overflow head and every overflow key now inside the new window
//!   is *promoted* into buckets.
//! * **Arena** — event payloads live in a slab ([`Arena`]) with a free
//!   list. Each slot also holds its key `(at, seq)` and the next slot of
//!   its bucket's list; heap and drain-buffer entries are 24-byte
//!   `(at, seq, slot)` keys, so sorting shuffles keys, not payloads. The
//!   ring owns no per-bucket storage: a fresh queue allocates its head
//!   array once, and steady-state push/pop recycles slots and the drain
//!   buffer without touching the allocator.
//!
//! # Determinism
//!
//! Pop order is **exactly** ascending `(at, seq)` — the same strict total
//! order the old global min-heap popped, which the scheduler differential
//! property in `tests/properties.rs` verifies against [`MinHeap4`]
//! directly. The argument:
//!
//! 1. Within a window (`epoch` fixed), every key in the buckets has a
//!    bucket index `< epoch + BUCKET_COUNT`, and every overflow key has a
//!    bucket index `>= epoch + BUCKET_COUNT` — enforced at insert and by
//!    promotion at re-anchor. Hence the near tier always holds the global
//!    minimum when it is non-empty.
//! 2. Bucket index is monotone in `at`, so scanning buckets in ring order
//!    visits keys in bucket-time order, and sorting each bucket on first
//!    drain yields full `(at, seq)` order within the bucket.
//! 3. The caller only pushes keys with `at >=` the last popped `at` (event
//!    handlers schedule at or after `now`), so a partially drained bucket
//!    only ever receives keys that sort after its drain cursor.
//!
//! The queue *requires* invariant 3: pushing a key earlier than the last
//! popped key is a caller bug (debug-asserted).

use crate::heap::MinHeap4;
use crate::time::SimTime;

/// log2 of the bucket span in nanoseconds: buckets are 32.768 µs wide —
/// a few MTU serialization quanta (12 µs at 1 Gbps), so dense bursts put
/// only a handful of keys in each bucket, while the ring still spans the
/// whole delivery/RTT scale.
pub const BUCKET_NANOS_SHIFT: u32 = 15;

/// Number of buckets in the near-future ring (must be a power of two).
/// 2048 × 32.768 µs ≈ 67 ms of look-ahead — comfortably past the
/// calibrated link delays (1 ms / 9 ms), per-packet jitter (~1.5 ms) and
/// the 20 ms RTT that paces ACK-clocked traffic, comfortably short of
/// RTO (≥ 200 ms) and stall-timer (seconds) territory.
pub const BUCKET_COUNT: usize = 2048;

const BUCKET_MASK: u64 = BUCKET_COUNT as u64 - 1;
const WORDS: usize = BUCKET_COUNT / 64;

/// Absolute bucket index of an instant.
#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_NANOS_SHIFT
}

/// A scheduling key: the event's instant, its tie-breaking sequence
/// number, and the arena slot holding its payload. Ordered by
/// `(at, seq)` only — `seq` is unique, so the order is strict and total.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// End of a bucket list.
const NIL: u32 = u32::MAX;

/// One arena slot: a queued event's key, the next slot of its bucket's
/// list, and its payload (`None` once popped, while the slot is free).
#[derive(Debug)]
struct Slot<T> {
    at: SimTime,
    seq: u64,
    /// The next slot in the same ring bucket's list, or [`NIL`]. Unused
    /// while the key waits in the overflow heap or the drain buffer.
    next: u32,
    value: Option<T>,
}

/// Slab of event payloads with a free list. Keys carry `u32` slot indices;
/// after warm-up, push/pop recycles freed slots and never allocates.
#[derive(Debug)]
struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
}

impl<T> Arena<T> {
    const fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, at: SimTime, seq: u64, value: T) -> u32 {
        let entry = Slot {
            at,
            seq,
            next: NIL,
            value: Some(value),
        };
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&slot| slot != NIL)
                    .expect("fewer than 2^32 - 1 live events");
                self.slots.push(entry);
                slot
            }
        }
    }

    fn take(&mut self, slot: u32) -> T {
        let value = self.slots[slot as usize]
            .value
            .take()
            .expect("live arena slot");
        self.free.push(slot);
        value
    }

    /// The keys of the bucket list starting at `head`, in list order.
    fn list(&self, head: u32) -> impl Iterator<Item = Key> + '_ {
        let mut slot = head;
        std::iter::from_fn(move || {
            if slot == NIL {
                return None;
            }
            let entry = &self.slots[slot as usize];
            let key = Key {
                at: entry.at,
                seq: entry.seq,
                slot,
            };
            slot = entry.next;
            Some(key)
        })
    }
}

/// Counters describing how the scheduler behaved over a run; exposed via
/// [`Simulator::sched_stats`](crate::Simulator::sched_stats) and recorded
/// per exhibit by `repro --bench-json` (pinned in `repro_counts.txt`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Keys inserted straight into the near-future bucket ring.
    pub near_inserts: u64,
    /// Keys inserted into the far-future overflow heap.
    pub far_inserts: u64,
    /// Overflow keys promoted into buckets at a window re-anchor.
    pub promotions: u64,
    /// Window re-anchors (near tier drained, overflow non-empty).
    pub rebases: u64,
    /// Peak number of keys resident in the bucket ring.
    pub peak_near: u64,
    /// Peak number of keys resident in the overflow heap.
    pub peak_overflow: u64,
}

impl SchedStats {
    /// Accumulates another run's stats into `self`: counters add, peaks
    /// take the maximum. Use this when the runs are *alternative
    /// executions* of the same workload (sequential trials on one
    /// scheduler): the merged peak answers "how full did a queue ever
    /// get".
    pub fn merge(&mut self, other: &SchedStats) {
        self.near_inserts += other.near_inserts;
        self.far_inserts += other.far_inserts;
        self.promotions += other.promotions;
        self.rebases += other.rebases;
        self.peak_near = self.peak_near.max(other.peak_near);
        self.peak_overflow = self.peak_overflow.max(other.peak_overflow);
    }

    /// Accumulates stats from a *concurrently resident* scheduler into
    /// `self`: counters add, and peaks add too (saturating). Use this when
    /// the runs are shards of one partitioned workload that exist at the
    /// same instant — the fleet exhibit's per-shard wheels — where the
    /// meaningful peak is the population-wide resident total, not the
    /// fullest single shard. Without this, fleet bench JSON would report a
    /// `sched_peak_*` an order of magnitude below the single-pair
    /// exhibits' per-event-count equivalent and the numbers would not be
    /// comparable.
    pub fn merge_concurrent(&mut self, other: &SchedStats) {
        self.near_inserts += other.near_inserts;
        self.far_inserts += other.far_inserts;
        self.promotions += other.promotions;
        self.rebases += other.rebases;
        self.peak_near = self.peak_near.saturating_add(other.peak_near);
        self.peak_overflow = self.peak_overflow.saturating_add(other.peak_overflow);
    }
}

/// The two-tier calendar queue. `T` is the event payload; keys are
/// `(SimTime, u64)` pairs supplied by the caller (the simulator's global
/// sequence counter), popped in ascending order.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Head slot of each ring bucket's list ([`NIL`] when it has none);
    /// ring index = absolute bucket index & `BUCKET_MASK`. The cursor
    /// bucket's list moves into `drain` when its drain starts.
    heads: Box<[u32]>,
    /// One bit per ring slot: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Absolute bucket index where the current window starts. Keys with
    /// bucket index in `[epoch, epoch + BUCKET_COUNT)` live in the ring.
    epoch: u64,
    /// Absolute bucket index of the bucket currently being drained
    /// (always within the window).
    cursor: u64,
    /// The cursor bucket's keys in ascending order once its drain has
    /// started; `drain[drain_pos..]` are still queued. Empty iff the
    /// cursor bucket is not mid-drain. One buffer serves every bucket, so
    /// it allocates only when a bucket holds more keys than any before.
    drain: Vec<Key>,
    /// Next key of `drain` to pop.
    drain_pos: usize,
    /// Total keys resident in the ring (bucket lists and `drain`).
    near_len: usize,
    /// Far-future keys (bucket index `>= epoch + BUCKET_COUNT`).
    overflow: MinHeap4<Key>,
    arena: Arena<T>,
    stats: SchedStats,
    /// Memoized global minimum `(at, seq)`; `None` means *unknown* (not
    /// necessarily empty) and is recomputed lazily by [`Self::min_key`].
    /// Maintained O(1): push lowers it, pop refreshes it from the drain
    /// buffer when the next key is already at hand.
    cached_min: std::cell::Cell<Option<(SimTime, u64)>>,
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue anchored at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            heads: vec![NIL; BUCKET_COUNT].into_boxed_slice(),
            occupied: [0; WORDS],
            epoch: 0,
            cursor: 0,
            drain: Vec::new(),
            drain_pos: 0,
            near_len: 0,
            overflow: MinHeap4::new(),
            arena: Arena::new(),
            stats: SchedStats::default(),
            cached_min: std::cell::Cell::new(None),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.near_len + self.overflow.len()
    }

    /// True iff no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scheduler behaviour counters accumulated so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Inserts an event. `(at, seq)` must be unique and `at` must not
    /// precede the last popped key's `at` (debug-asserted).
    pub fn push(&mut self, at: SimTime, seq: u64, value: T) {
        let slot = self.arena.insert(at, seq, value);
        let key = Key { at, seq, slot };
        let b = bucket_of(at);
        // The window is never re-anchored on push: a key beyond the (possibly
        // stale) window goes to overflow, and the next pop re-anchors. That
        // keeps the window invariant safe against pushes arriving in any
        // order within one handler dispatch.
        if b < self.epoch + BUCKET_COUNT as u64 {
            debug_assert!(b >= self.cursor, "push earlier than the drain cursor");
            self.insert_near(key);
            self.stats.near_inserts += 1;
        } else {
            self.overflow.push(key);
            self.stats.far_inserts += 1;
            self.stats.peak_overflow = self.stats.peak_overflow.max(self.overflow.len() as u64);
        }
        if let Some(min) = self.cached_min.get() {
            if (at, seq) < min {
                self.cached_min.set(Some((at, seq)));
            }
        }
    }

    /// The smallest queued `(at, seq)` key, without removing it. Does not
    /// disturb the drain state, so it is safe to interleave with external
    /// work (the batched link drain peeks between deliveries).
    pub fn min_key(&self) -> Option<(SimTime, u64)> {
        if let Some(min) = self.cached_min.get() {
            return Some(min);
        }
        let min = if self.near_len > 0 {
            let abs = self
                .next_occupied_from(self.cursor)
                .expect("near_len > 0 implies an occupied bucket");
            let key = if abs == self.cursor && !self.drain.is_empty() {
                self.drain[self.drain_pos]
            } else {
                let head = self.heads[(abs & BUCKET_MASK) as usize];
                self.arena
                    .list(head)
                    .min()
                    .expect("occupied bucket is non-empty")
            };
            Some((key.at, key.seq))
        } else {
            self.overflow.peek().map(|k| (k.at, k.seq))
        };
        // Memoize; an empty queue stays unknown (recomputing `None` is
        // as cheap as reading a cached one).
        self.cached_min.set(min);
        min
    }

    /// Removes and returns the smallest event as `(at, seq, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.near_len == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            self.rebase();
        }
        // The cursor only moves on once its bucket has drained, so `drain`
        // is empty whenever it does.
        self.cursor = self
            .next_occupied_from(self.cursor)
            .expect("near_len > 0 implies an occupied bucket");
        let ring = (self.cursor & BUCKET_MASK) as usize;
        if self.drain.is_empty() {
            let head = std::mem::replace(&mut self.heads[ring], NIL);
            self.drain.extend(self.arena.list(head));
            self.drain.sort_unstable();
        }
        let key = self.drain[self.drain_pos];
        self.drain_pos += 1;
        self.near_len -= 1;
        if self.drain_pos == self.drain.len() {
            self.drain.clear();
            self.drain_pos = 0;
            self.occupied[ring / 64] &= !(1u64 << (ring % 64));
            self.cached_min.set(None);
        } else {
            // The cursor bucket strictly precedes every other bucket and
            // the whole overflow tier in time, so its next sorted key IS
            // the global minimum.
            let next = self.drain[self.drain_pos];
            self.cached_min.set(Some((next.at, next.seq)));
        }
        Some((key.at, key.seq, self.arena.take(key.slot)))
    }

    /// Places a key into its ring bucket: onto the bucket's list, or into
    /// the drain buffer at its sorted place when the bucket is mid-drain.
    fn insert_near(&mut self, key: Key) {
        let b = bucket_of(key.at);
        let ring = (b & BUCKET_MASK) as usize;
        if b == self.cursor && !self.drain.is_empty() {
            // New keys carry fresh sequence numbers, so they typically
            // belong at the very end — the binary search makes that
            // O(1)-ish.
            let pos = self.drain_pos + self.drain[self.drain_pos..].partition_point(|k| *k < key);
            self.drain.insert(pos, key);
        } else {
            self.arena.slots[key.slot as usize].next = self.heads[ring];
            self.heads[ring] = key.slot;
        }
        self.occupied[ring / 64] |= 1u64 << (ring % 64);
        self.near_len += 1;
        self.stats.peak_near = self.stats.peak_near.max(self.near_len as u64);
    }

    /// Re-anchors the window at the overflow head and promotes every
    /// overflow key that now falls inside the window.
    fn rebase(&mut self) {
        let head = self.overflow.peek().expect("rebase requires overflow");
        let b = bucket_of(head.at);
        self.epoch = b;
        self.cursor = b;
        let end = b + BUCKET_COUNT as u64;
        while let Some(head) = self.overflow.peek() {
            if bucket_of(head.at) >= end {
                break;
            }
            let key = self.overflow.pop().expect("peeked entry must pop");
            self.insert_near(key);
            self.stats.promotions += 1;
        }
        self.stats.rebases += 1;
    }

    /// Absolute index of the first occupied bucket at or after `from`
    /// within the current window, found by scanning the occupancy bitmap a
    /// word at a time in ring order.
    fn next_occupied_from(&self, from: u64) -> Option<u64> {
        let start = (from & BUCKET_MASK) as usize;
        let mut word_i = start / 64;
        // Mask off ring slots before `start` in the first word; they map to
        // window positions *after* the wrap and are re-scanned at the end.
        let mut word = self.occupied[word_i] & (!0u64 << (start % 64));
        for scanned in 0..=WORDS {
            if word != 0 {
                let ring = word_i * 64 + word.trailing_zeros() as usize;
                // Circular distance from `start` to `ring`.
                let dist = (ring as u64).wrapping_sub(start as u64) & BUCKET_MASK;
                return Some(from + dist);
            }
            if scanned == WORDS {
                break;
            }
            word_i = (word_i + 1) % WORDS;
            word = self.occupied[word_i];
        }
        None
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut CalendarQueue<T>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn empty_queue() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.len(), 0);
        assert_eq!(q.min_key(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn near_keys_pop_in_order() {
        let mut q = CalendarQueue::new();
        // All within one window; shuffled insert order.
        for (i, us) in [40u64, 12, 96, 0, 12, 52].iter().enumerate() {
            q.push(SimTime::from_micros(*us), i as u64, i);
        }
        let popped = drain(&mut q);
        assert_eq!(
            popped,
            vec![
                (SimTime::from_micros(0), 3),
                (SimTime::from_micros(12), 1),
                (SimTime::from_micros(12), 4),
                (SimTime::from_micros(40), 0),
                (SimTime::from_micros(52), 5),
                (SimTime::from_micros(96), 2),
            ]
        );
    }

    #[test]
    fn far_keys_route_through_overflow_and_promote() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_micros(5), 0, 'a');
        q.push(SimTime::from_millis(200), 1, 'b'); // RTO-scale: overflow
        q.push(SimTime::from_secs(3), 2, 'c'); // stall-scale: overflow
        q.push(SimTime::from_micros(30), 3, 'd');
        assert_eq!(q.stats().far_inserts, 2);
        assert_eq!(q.stats().near_inserts, 2);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(order, vec!['a', 'd', 'b', 'c']);
        let stats = q.stats();
        assert_eq!(stats.promotions, 2);
        assert_eq!(stats.rebases, 2);
    }

    #[test]
    fn merge_peaks_max_but_concurrent_peaks_sum() {
        let shard = |peak_near, peak_overflow| SchedStats {
            near_inserts: 10,
            far_inserts: 2,
            promotions: 1,
            rebases: 1,
            peak_near,
            peak_overflow,
        };
        let mut sequential = SchedStats::default();
        sequential.merge(&shard(100, 5));
        sequential.merge(&shard(40, 8));
        assert_eq!(sequential.near_inserts, 20);
        assert_eq!(sequential.peak_near, 100);
        assert_eq!(sequential.peak_overflow, 8);

        let mut concurrent = SchedStats::default();
        concurrent.merge_concurrent(&shard(100, 5));
        concurrent.merge_concurrent(&shard(40, 8));
        assert_eq!(concurrent.near_inserts, 20);
        assert_eq!(concurrent.peak_near, 140);
        assert_eq!(concurrent.peak_overflow, 13);

        // Saturates rather than wrapping.
        concurrent.merge_concurrent(&shard(u64::MAX, u64::MAX));
        assert_eq!(concurrent.peak_near, u64::MAX);
        assert_eq!(concurrent.peak_overflow, u64::MAX);
    }

    #[test]
    fn min_key_matches_pop_and_is_stable() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_micros(7), 1, ());
        q.push(SimTime::from_micros(3), 2, ());
        q.push(SimTime::from_secs(9), 3, ());
        while !q.is_empty() {
            let peeked = q.min_key().unwrap();
            let again = q.min_key().unwrap();
            assert_eq!(peeked, again, "min_key must not disturb state");
            let (at, seq, _) = q.pop().unwrap();
            assert_eq!((at, seq), peeked);
        }
    }

    #[test]
    fn insert_into_partially_drained_bucket() {
        let mut q = CalendarQueue::new();
        // Three keys in the same bucket (within one bucket span).
        q.push(SimTime::from_nanos(100), 0, 0u32);
        q.push(SimTime::from_nanos(300), 1, 1);
        q.push(SimTime::from_nanos(500), 2, 2);
        assert_eq!(q.pop().unwrap().2, 0);
        // Insert into the same, now mid-drain bucket: key sorts after the
        // drain cursor (fresh seq, same-or-later time).
        q.push(SimTime::from_nanos(300), 3, 3);
        q.push(SimTime::from_nanos(2000), 4, 4);
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(rest, vec![1, 3, 2, 4]);
    }

    #[test]
    fn push_beyond_stale_window_rebases_on_pop() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_micros(1), 0, ());
        assert!(q.pop().is_some());
        // Queue empty with the window still anchored near zero; a key far
        // beyond it routes through overflow and pops correctly.
        q.push(SimTime::from_secs(100), 1, ());
        assert_eq!(q.stats().far_inserts, 1);
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(100));
        // Mixed-order pushes at time zero (two on_start handlers arming a
        // far timer then a near one) must not corrupt the window either.
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_millis(200), 0, ());
        q.push(SimTime::from_millis(1), 1, ());
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(1));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(200));
    }

    #[test]
    fn rollover_near_u64_max() {
        // Bucket arithmetic must not overflow near the end of time: keys at
        // and around u64::MAX nanoseconds pop in exact (at, seq) order.
        let mut q = CalendarQueue::new();
        let max = SimTime::from_nanos(u64::MAX);
        q.push(max, 3, 'd');
        q.push(SimTime::from_nanos(u64::MAX - 1), 1, 'b');
        q.push(SimTime::from_nanos(5), 0, 'a');
        q.push(max, 4, 'e');
        q.push(SimTime::from_nanos(u64::MAX - 40_000_000), 2, 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(order, vec!['a', 'c', 'b', 'd', 'e']);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut q = CalendarQueue::new();
        for round in 0..100u64 {
            q.push(SimTime::from_micros(round), round, round);
            let (_, _, v) = q.pop().unwrap();
            assert_eq!(v, round);
        }
        // One slot serviced the whole run.
        assert_eq!(q.arena.slots.len(), 1);
    }
}
