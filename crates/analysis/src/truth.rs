//! Ground truth and the paper's privacy metric.
//!
//! §II-A: *"We define the degree of multiplexing of an object as the
//! fraction of bytes of the object that is interleaved with those of
//! another object within the same TCP stream"*, and the attack succeeds on
//! an object only when its degree is driven to 0 **and** the object is
//! identified from the encrypted traffic.
//!
//! The simulation host records, at TLS-seal time, which server→client TCP
//! byte ranges carry which response's DATA. Each response *instance* (one
//! HTTP/2 stream serving one copy of an object — duplicate serves are
//! separate instances) owns a set of ranges; an instance's bytes are
//! *interleaved* when they fall inside the transmission span of any other
//! instance.

use h2priv_bytes::FxHashMap;

use h2priv_http2::StreamId;
use h2priv_web::ObjectId;

/// A contiguous server→client TCP byte range carrying one instance's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRange {
    /// First TCP stream offset (inclusive).
    pub start: u64,
    /// One past the last offset (exclusive).
    pub end: u64,
    /// The object whose bytes these are.
    pub object: ObjectId,
    /// The response instance (HTTP/2 stream) carrying them.
    pub instance: StreamId,
}

/// Ground-truth annotations for one connection's server→client stream.
///
/// The ranges are disjoint — each TCP byte is sealed once, for one
/// instance — and kept in start order, so scoring an instance is one
/// pass over them.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Every range, in start order.
    ranges: Vec<ObjectRange>,
    /// Each instance's object and transmission span.
    spans: FxHashMap<StreamId, Span>,
    complete: FxHashMap<StreamId, bool>,
}

/// One instance's entry in the span table: the object it serves and the
/// TCP bytes from its first range's start to its last range's end.
#[derive(Debug, Clone, Copy)]
struct Span {
    object: ObjectId,
    start: u64,
    end: u64,
}

impl GroundTruth {
    /// Creates an empty annotation set.
    pub fn new() -> Self {
        GroundTruth::default()
    }

    /// Records that `[start, end)` carries DATA of `object` on `instance`.
    /// Ranges may arrive in any order but must not overlap.
    pub fn add_range(&mut self, start: u64, end: u64, object: ObjectId, instance: StreamId) {
        debug_assert!(start <= end);
        if start == end {
            return;
        }
        // Seal order is stream order, so this is almost always a push.
        let at = self.ranges.partition_point(|r| r.start <= start);
        debug_assert!(
            at == 0 || self.ranges[at - 1].end <= start,
            "range {start}..{end} overlaps its predecessor"
        );
        debug_assert!(
            self.ranges.get(at).is_none_or(|next| end <= next.start),
            "range {start}..{end} overlaps its successor"
        );
        self.ranges.insert(
            at,
            ObjectRange {
                start,
                end,
                object,
                instance,
            },
        );
        let span = self
            .spans
            .entry(instance)
            .or_insert(Span { object, start, end });
        span.object = object;
        span.start = span.start.min(start);
        span.end = span.end.max(end);
        self.complete.entry(instance).or_insert(false);
    }

    /// Marks an instance as fully transmitted (its END_STREAM DATA frame
    /// was sealed).
    pub fn mark_complete(&mut self, instance: StreamId) {
        self.complete.insert(instance, true);
    }

    /// All recorded ranges, in start order.
    pub fn ranges(&self) -> &[ObjectRange] {
        &self.ranges
    }

    /// The object an instance serves, if known.
    pub fn object_of(&self, instance: StreamId) -> Option<ObjectId> {
        self.spans.get(&instance).map(|s| s.object)
    }

    /// Instances serving `object`, in first-byte order.
    pub fn instances_of(&self, object: ObjectId) -> Vec<StreamId> {
        let mut firsts: Vec<(u64, StreamId)> = self
            .spans
            .iter()
            .filter(|(_, span)| span.object == object)
            .map(|(&instance, span)| (span.start, instance))
            .collect();
        firsts.sort_unstable();
        firsts.into_iter().map(|(_, instance)| instance).collect()
    }

    /// True if the instance finished transmitting.
    pub fn is_complete(&self, instance: StreamId) -> bool {
        self.complete.get(&instance).copied().unwrap_or(false)
    }

    /// Total bytes recorded for an instance.
    pub fn instance_bytes(&self, instance: StreamId) -> u64 {
        self.ranges
            .iter()
            .filter(|r| r.instance == instance)
            .map(|r| r.end - r.start)
            .sum()
    }

    /// The degree of multiplexing of one instance — the fraction of its
    /// bytes whose size-contribution an observer cannot attribute by
    /// contiguity. Returns `None` for an unknown instance.
    ///
    /// Two effects make a byte "interleaved with those of another object"
    /// (§II-A), and the degree is the larger of the two fractions:
    ///
    /// * **span overlap** — bytes lying within the transmission span of any
    ///   *other* instance (including another copy of the same object): they
    ///   arrive mixed into someone else's transfer;
    /// * **run breakage** — bytes outside the instance's largest contiguous
    ///   foreign-free run: a foreign insertion in the middle of the
    ///   transfer means those bytes cannot be summed with the rest.
    ///
    /// Both reduce to 0 exactly when the instance was transmitted alone and
    /// unbroken — the condition the paper's attack engineers.
    ///
    /// One pass over the ranges in start order computes both: the other
    /// instances' spans come merged from the span table, and a run breaks
    /// where a foreign range that starts before an own range ends after
    /// the previous own range — that is, where the largest foreign end
    /// passed so far lies beyond it.
    pub fn degree_of_instance(&self, instance: StreamId) -> Option<f64> {
        self.spans.get(&instance)?;
        let foreign_spans = merge_intervals(
            self.spans
                .iter()
                .filter(|&(&other, _)| other != instance)
                .map(|(_, span)| (span.start, span.end))
                .collect(),
        );
        // Foreign spans before this index end before the current own range.
        let mut first_span = 0;
        let mut total = 0u64;
        let mut in_spans = 0u64;
        let mut largest_run = 0u64;
        let mut current_run = 0u64;
        let mut prev_end: Option<u64> = None;
        let mut foreign_end = 0u64;
        for r in &self.ranges {
            if r.instance != instance {
                foreign_end = foreign_end.max(r.end);
                continue;
            }
            let len = r.end - r.start;
            total += len;
            while foreign_spans
                .get(first_span)
                .is_some_and(|&(_, end)| end <= r.start)
            {
                first_span += 1;
            }
            in_spans += overlap_with(r.start, r.end, &foreign_spans[first_span..]);
            if prev_end.is_some_and(|pe| foreign_end > pe) {
                largest_run = largest_run.max(current_run);
                current_run = 0;
            }
            current_run += len;
            prev_end = Some(r.end);
        }
        largest_run = largest_run.max(current_run);
        let span_degree = in_spans as f64 / total as f64;
        let run_degree = 1.0 - largest_run as f64 / total as f64;
        Some(span_degree.max(run_degree))
    }

    /// The smallest degree of multiplexing across *complete* instances of
    /// `object` — the paper counts a trial "not multiplexed" when some
    /// fully-transmitted copy of the object was interleaving-free.
    pub fn min_degree_for(&self, object: ObjectId) -> Option<f64> {
        self.instances_of(object)
            .into_iter()
            .filter(|&i| self.is_complete(i))
            .filter_map(|i| self.degree_of_instance(i))
            .min_by(|a, b| a.partial_cmp(b).expect("degrees are finite"))
    }

    /// The degree of the first (primary) complete instance of `object`.
    pub fn primary_degree_for(&self, object: ObjectId) -> Option<f64> {
        self.instances_of(object)
            .into_iter()
            .find(|&i| self.is_complete(i))
            .and_then(|i| self.degree_of_instance(i))
    }
}

/// Sorts `intervals` and merges the overlapping ones, in place.
fn merge_intervals(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    intervals.dedup_by(|next, kept| {
        let joins = next.0 <= kept.1;
        if joins {
            kept.1 = kept.1.max(next.1);
        }
        joins
    });
    intervals
}

fn overlap_with(start: u64, end: u64, merged: &[(u64, u64)]) -> u64 {
    // merged is sorted and disjoint.
    let mut total = 0;
    for &(s, e) in merged {
        if e <= start {
            continue;
        }
        if s >= end {
            break;
        }
        total += end.min(e) - start.max(s);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjectId = ObjectId(0);
    const B: ObjectId = ObjectId(1);
    const S1: StreamId = StreamId(1);
    const S3: StreamId = StreamId(3);
    const S5: StreamId = StreamId(5);

    #[test]
    fn sequential_transmissions_have_zero_degree() {
        let mut gt = GroundTruth::new();
        gt.add_range(0, 100, A, S1);
        gt.add_range(100, 250, B, S3);
        gt.mark_complete(S1);
        gt.mark_complete(S3);
        assert_eq!(gt.degree_of_instance(S1), Some(0.0));
        assert_eq!(gt.degree_of_instance(S3), Some(0.0));
        assert_eq!(gt.min_degree_for(A), Some(0.0));
    }

    #[test]
    fn fully_interleaved_is_one() {
        // A: [0,10) [20,30); B: [10,20) — B sits inside A's span entirely.
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1);
        gt.add_range(20, 30, A, S1);
        gt.add_range(10, 20, B, S3);
        gt.mark_complete(S1);
        gt.mark_complete(S3);
        assert_eq!(gt.degree_of_instance(S3), Some(1.0));
        // A's runs are broken in half by B's insertion: half its bytes
        // cannot be attributed by contiguity.
        assert_eq!(gt.degree_of_instance(S1), Some(0.5));
    }

    #[test]
    fn partial_interleaving_fraction() {
        // A occupies [0,50) and [60,110); B's span is [50,150): A's bytes
        // in [60,110) are interleaved and A's largest clean run is 50 of
        // 100 bytes → degree 0.5 under both sub-metrics.
        let mut gt = GroundTruth::new();
        gt.add_range(0, 50, A, S1);
        gt.add_range(60, 110, A, S1);
        gt.add_range(50, 60, B, S3);
        gt.add_range(140, 150, B, S3);
        gt.mark_complete(S1);
        gt.mark_complete(S3);
        assert_eq!(gt.degree_of_instance(S1), Some(0.5));
    }

    #[test]
    fn duplicate_copies_interleave_each_other() {
        // Two copies of A, interleaved: both are multiplexed even though
        // it's the "same object".
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1);
        gt.add_range(10, 20, A, S5);
        gt.add_range(20, 30, A, S1);
        gt.add_range(30, 40, A, S5);
        gt.mark_complete(S1);
        gt.mark_complete(S5);
        assert!(gt.degree_of_instance(S1).unwrap() > 0.0);
        assert!(gt.degree_of_instance(S5).unwrap() > 0.0);
        assert_eq!(gt.instances_of(A), vec![S1, S5]);
    }

    #[test]
    fn clean_retransmitted_copy_gives_min_degree_zero() {
        // Fig. 5 discussion: a success can come from "a retransmitted
        // version of the object and not the actual object". First copy
        // interleaved with B, second copy clean.
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1);
        gt.add_range(10, 20, B, S3);
        gt.add_range(20, 30, A, S1);
        gt.add_range(100, 130, A, S5); // clean second copy
        gt.mark_complete(S1);
        gt.mark_complete(S3);
        gt.mark_complete(S5);
        assert!(gt.degree_of_instance(S1).unwrap() > 0.0);
        assert_eq!(gt.degree_of_instance(S5), Some(0.0));
        assert_eq!(gt.min_degree_for(A), Some(0.0));
        assert!(gt.primary_degree_for(A).unwrap() > 0.0);
    }

    #[test]
    fn incomplete_instances_do_not_count() {
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1); // never completed
        assert_eq!(gt.min_degree_for(A), None);
        gt.mark_complete(S1);
        assert_eq!(gt.min_degree_for(A), Some(0.0));
    }

    #[test]
    fn bookkeeping_accessors() {
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1);
        gt.add_range(10, 30, A, S1);
        assert_eq!(gt.instance_bytes(S1), 30);
        assert_eq!(gt.object_of(S1), Some(A));
        assert_eq!(gt.object_of(S3), None);
        assert_eq!(gt.degree_of_instance(S3), None);
        assert!(!gt.is_complete(S1));
        // Zero-length ranges are ignored.
        gt.add_range(50, 50, B, S3);
        assert_eq!(gt.object_of(S3), None);
    }

    #[test]
    fn merge_intervals_behaviour() {
        let merged = merge_intervals(vec![(10, 20), (0, 5), (15, 30), (40, 50)]);
        assert_eq!(merged, vec![(0, 5), (10, 30), (40, 50)]);
        assert_eq!(overlap_with(0, 100, &merged), 5 + 20 + 10);
        assert_eq!(overlap_with(5, 10, &merged), 0);
    }
}
