//! Body padding to a set of canonical sizes.
//!
//! The server pads every response body with a [`PadSet`] when its config
//! carries one: a single bucket size gives classic bucket padding, and
//! `h2priv-defense`'s `constrained_pad_set` derives the Reed & Reiter
//! (arXiv:2108.01753) set with a bounded per-object overhead.

/// A sorted set of canonical padded sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PadSet {
    /// Canonical sizes, ascending, deduplicated, all non-zero.
    sizes: Vec<usize>,
}

impl PadSet {
    /// Builds a pad set from explicit canonical sizes (zeros are dropped).
    /// One size `b` pads a body of `len ≤ b` bytes to `b` and a larger one
    /// to `⌈len/b⌉·b`: bucket padding.
    pub fn from_sizes(mut sizes: Vec<usize>) -> Self {
        sizes.retain(|&s| s > 0);
        sizes.sort_unstable();
        sizes.dedup();
        PadSet { sizes }
    }

    /// The canonical sizes, ascending.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The padded size for a body of `len` bytes: the smallest canonical
    /// size that fits, or — for bodies beyond the largest canonical size —
    /// the next multiple of that largest size (so unexpected large objects
    /// still land on a coarse grid instead of leaking exact sizes).
    pub fn pad_to(&self, len: usize) -> usize {
        let Some(&max) = self.sizes.last() else {
            return len;
        };
        match self.sizes.binary_search(&len) {
            Ok(_) => len,
            Err(i) if i < self.sizes.len() => self.sizes[i],
            Err(_) => len.div_ceil(max) * max,
        }
    }

    /// Bytes of padding added for a body of `len` bytes.
    pub fn overhead(&self, len: usize) -> usize {
        self.pad_to(len) - len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_bodies_land_on_coarse_grid() {
        let set = PadSet::from_sizes(vec![1_000, 4_000]);
        assert_eq!(set.pad_to(4_001), 8_000);
        assert_eq!(set.pad_to(9_000), 12_000);
    }

    #[test]
    fn one_size_is_bucket_padding() {
        let set = PadSet::from_sizes(vec![4_096]);
        for (len, padded) in [(1, 4_096), (4_096, 4_096), (5_200, 8_192), (8_193, 12_288)] {
            assert_eq!(set.pad_to(len), padded, "len {len}");
        }
    }

    #[test]
    fn overhead_accessor_matches() {
        let set = PadSet::from_sizes(vec![2_048]);
        assert_eq!(set.overhead(2_000), 48);
        assert_eq!(set.overhead(2_048), 0);
    }
}
