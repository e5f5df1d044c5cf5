//! The calendar queue's allocation footprint.
//!
//! This binary installs the allocation-counting global allocator from
//! `h2priv-bytes` (the `count-allocs` dev feature). The bucket ring owns no
//! per-bucket storage: a fresh queue that visits every bucket allocates
//! only its slot arena, free list, drain buffer and overflow heap, once
//! each, however many buckets it touches.

use h2priv_bytes::count_alloc::{measure, CountingAlloc};
use h2priv_netsim::internals::CalendarQueue;
use h2priv_netsim::{SimTime, BUCKET_COUNT, BUCKET_NANOS_SHIFT};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn touching_every_bucket_does_not_allocate_per_bucket() {
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    let keys = 2 * BUCKET_COUNT as u64;
    let ((), allocations) = measure(|| {
        // One key per bucket span, each popped right after its push: the
        // keys walk the whole ring twice, crossing one window re-anchor.
        for seq in 0..keys {
            let at = SimTime::from_nanos(seq << BUCKET_NANOS_SHIFT);
            queue.push(at, seq, seq);
            assert_eq!(queue.pop(), Some((at, seq, seq)));
        }
    });
    assert!(queue.is_empty());
    assert!(
        allocations <= 16,
        "{allocations} allocations for {keys} keys over {BUCKET_COUNT} buckets"
    );
}
