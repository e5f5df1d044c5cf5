//! A 4-ary min-heap: formerly the global event queue, now the far-future
//! overflow tier of the calendar queue (`wheel`) and the reference
//! implementation the scheduler differential tests compare against.
//!
//! A d=4 heap halves the tree depth of the binary
//! `std::collections::BinaryHeap` (log4 vs log2), trading a slightly wider
//! per-level scan (up to four child comparisons, all within one cache line
//! for small entries) for fewer levels touched per sift — a well-known win
//! for heaps whose entries are small and whose operations are
//! pop-push-dominated, as event queues are.
//!
//! Pop order is **identical** to the `BinaryHeap` it replaced: entries are
//! ordered by `(time, sequence)`, which is a strict total order (the
//! sequence number is unique), so no tie ever reaches the heap's
//! tie-breaking behavior and replacing the container cannot reorder
//! events.

/// A d=4 min-heap: `pop` yields the smallest element by `T`'s `Ord`.
///
/// Exposed (via the hidden `internals` module) so the scheduler
/// differential tests can drive it beside the calendar queue, and so the
/// fleet arena can queue its per-core deadlines.
#[derive(Debug)]
pub struct MinHeap4<T> {
    items: Vec<T>,
}

impl<T: Ord> MinHeap4<T> {
    /// Creates an empty heap.
    pub const fn new() -> Self {
        MinHeap4 { items: Vec::new() }
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff the heap holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The smallest element, if any.
    pub fn peek(&self) -> Option<&T> {
        self.items.first()
    }

    /// Inserts an element.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
        self.sift_up(self.items.len() - 1);
    }

    /// Removes and returns the smallest element.
    pub fn pop(&mut self) -> Option<T> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let top = self.items.pop();
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        top
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.items[i] >= self.items[parent] {
                break;
            }
            self.items.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.items.len();
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + 4).min(len);
            let mut min = first_child;
            for c in first_child + 1..last_child {
                if self.items[c] < self.items[min] {
                    min = c;
                }
            }
            if self.items[min] >= self.items[i] {
                break;
            }
            self.items.swap(i, min);
            i = min;
        }
    }
}

impl<T: Ord> Default for MinHeap4<T> {
    fn default() -> Self {
        MinHeap4::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_heap() {
        let mut h: MinHeap4<u64> = MinHeap4::new();
        assert_eq!(h.len(), 0);
        assert_eq!(h.peek(), None);
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn pops_in_sorted_order() {
        let mut h = MinHeap4::new();
        for v in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            h.push(v);
        }
        let mut out = Vec::new();
        while let Some(v) = h.pop() {
            out.push(v);
        }
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_tracks_minimum() {
        let mut h = MinHeap4::new();
        h.push(10u64);
        assert_eq!(h.peek(), Some(&10));
        h.push(3);
        assert_eq!(h.peek(), Some(&3));
        h.push(7);
        assert_eq!(h.peek(), Some(&3));
        assert_eq!(h.pop(), Some(3));
        assert_eq!(h.peek(), Some(&7));
    }
}
