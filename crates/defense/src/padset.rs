//! Constrained padding: pad object bodies to a small set of canonical
//! sizes with bounded multiplicative overhead.
//!
//! Reed & Reiter (arXiv:2108.01753) formalize the problem: choose padded
//! sizes to maximize the observer's uncertainty subject to a per-object
//! overhead bound `padded ≤ c · real`. The exact scheme solves a
//! per-distribution optimization; this model uses the classic greedy
//! cover that its bound admits — scan sizes from the largest down, emit a
//! canonical size, and let it absorb every smaller size within the
//! overhead factor. The result is the minimal canonical set such that
//! every input size pads up by at most the bound, which collapses each
//! covered group of objects into one indistinguishable wire size.

use h2priv_web::PadSet;

/// Derives the minimal canonical size set covering `sizes` such that no
/// object grows by more than `overhead_per_mille` ‰ (e.g. `250` bounds
/// padding at +25 %). Greedy largest-first cover: the largest uncovered
/// size becomes canonical and absorbs every size within the bound below
/// it. Integer arithmetic throughout, so the set is deterministic.
pub fn constrained_pad_set(sizes: &[usize], overhead_per_mille: u32) -> PadSet {
    let mut sorted: Vec<usize> = sizes.iter().copied().filter(|&s| s > 0).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut canon = Vec::new();
    let bound = 1000 + overhead_per_mille as usize;
    while let Some(&largest) = sorted.last() {
        canon.push(largest);
        // `largest` covers every size s with s * bound / 1000 >= largest,
        // i.e. s >= ceil(largest * 1000 / bound).
        let floor = (largest * 1000).div_ceil(bound);
        sorted.retain(|&s| s < floor);
    }
    PadSet::from_sizes(canon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_cover_respects_overhead_bound() {
        let sizes = [1_200, 1_300, 5_000, 5_500, 90_000, 100_000];
        let set = constrained_pad_set(&sizes, 250);
        for &s in &sizes {
            let padded = set.pad_to(s);
            assert!(padded >= s);
            assert!(
                padded * 1000 <= s * 1250,
                "{s} pads to {padded}, over the 25% bound"
            );
        }
    }

    #[test]
    fn cover_collapses_nearby_sizes() {
        // 1200 and 1300 are within 25% of each other: one canonical size.
        let set = constrained_pad_set(&[1_200, 1_300], 250);
        assert_eq!(set.sizes(), &[1_300]);
        assert_eq!(set.pad_to(1_200), 1_300);
        assert_eq!(set.pad_to(1_300), 1_300);
    }

    #[test]
    fn distant_sizes_stay_distinct() {
        let set = constrained_pad_set(&[1_000, 100_000], 250);
        assert_eq!(set.sizes(), &[1_000, 100_000]);
    }

    #[test]
    fn zero_overhead_keeps_every_size() {
        let sizes = [10, 20, 30];
        let set = constrained_pad_set(&sizes, 0);
        assert_eq!(set.sizes(), &sizes);
        for &s in &sizes {
            assert_eq!(set.pad_to(s), s);
        }
    }

    #[test]
    fn empty_set_is_identity() {
        let set = constrained_pad_set(&[], 500);
        assert_eq!(set.pad_to(1234), 1234);
        assert_eq!(set.overhead(1234), 0);
    }
}
