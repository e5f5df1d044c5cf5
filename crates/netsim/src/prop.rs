//! A seeded property-test harness on [`SimRng`], for the workspace's
//! property suites.
//!
//! [`check`] runs a property for a fixed number of cases. Case `i` of a
//! property named `name` draws every input from a [`Gen`] seeded by `name`
//! and `i`, so each run, on every machine, tests the same inputs. A failing
//! case panics with the property's name, the case index and its seed, and
//! [`replay`] regenerates exactly that case. There is no shrinking: a
//! property that needs a small counterexample pins it as an explicit input
//! next to its `check`.
//!
//! # Examples
//!
//! ```
//! use h2priv_netsim::prop::{self, Gen};
//!
//! prop::check("reverse_is_an_involution", 64, |g: &mut Gen| {
//!     let v = g.bytes(0..100);
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(v, w);
//! });
//! ```

use std::ops::{Bound, RangeBounds};
use std::panic::{self, AssertUnwindSafe};

use crate::rng::SimRng;

/// Unsigned integer types [`Gen::range`] draws.
pub trait Int: Copy {
    /// The type's largest value, widened.
    const MAX: u64;
    /// Widens a value to `u64`.
    fn to_u64(self) -> u64;
    /// Narrows a `u64` known to fit the type.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const MAX: u64 = <$t>::MAX as u64;
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize);

/// The source of one case's inputs: typed draws from a seeded [`SimRng`].
#[derive(Debug)]
pub struct Gen {
    rng: SimRng,
}

impl Gen {
    /// A generator for the case with this seed.
    fn new(seed: u64) -> Self {
        Gen {
            rng: SimRng::seed_from(seed),
        }
    }

    /// A uniform draw from `range` (`a..b`, `a..=b` or `..`).
    ///
    /// # Panics
    ///
    /// If the range is empty.
    pub fn range<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        let lo = match range.start_bound() {
            Bound::Included(v) => v.to_u64(),
            Bound::Excluded(v) => v.to_u64() + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(v) => v.to_u64(),
            Bound::Excluded(v) => v.to_u64().checked_sub(1).expect("empty range"),
            Bound::Unbounded => T::MAX,
        };
        assert!(lo <= hi, "empty range {lo}..={hi}");
        T::from_u64(match (hi - lo).checked_add(1) {
            Some(n) => lo + self.rng.gen_range_u64(0..n),
            None => self.rng.next_u64(),
        })
    }

    /// A uniform draw over all of `T`.
    pub fn any<T: Int>(&mut self) -> T {
        self.range(..)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// Uniformly random bytes, with a length drawn from `len`.
    pub fn bytes(&mut self, len: impl RangeBounds<usize>) -> Vec<u8> {
        let n = self.range(len);
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }

    /// A vector with a length drawn from `len`, each item drawn by `item`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// One of `items`, uniformly.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.range(0..items.len())].clone()
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        self.rng.permutation(n)
    }
}

/// The seed of case `case` of the property `name` (FNV-1a of the name,
/// offset by the case index; [`SimRng::seed_from`] mixes it).
fn case_seed(name: &str, case: u32) -> u64 {
    let hash = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    hash.wrapping_add(u64::from(case))
}

/// Runs `property` on `cases` generated cases.
///
/// # Panics
///
/// If the property panics on any case: the message names the property,
/// the case index and the seed to pass to [`replay`], then the property's
/// own panic message.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| property(&mut Gen::new(seed))));
        if let Err(payload) = outcome {
            let cause = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            panic!(
                "property `{name}` failed at case {case} (seed {seed:#x}; \
                 rerun it with prop::replay({seed:#x}, ..)): {cause}"
            );
        }
    }
}

/// Runs `property` once on the case with this seed, as reported by a
/// failing [`check`].
pub fn replay<R>(seed: u64, property: impl FnOnce(&mut Gen) -> R) -> R {
    property(&mut Gen::new(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_names_property_case_and_seed_and_replay_regenerates_it() {
        let draw = |g: &mut Gen| g.vec(1..20, |g| g.range(0u32..1_000));
        let mut seen = Vec::new();
        let failure = panic::catch_unwind(AssertUnwindSafe(|| {
            check("sums_stay_small", 200, |g| {
                seen.push(draw(g));
                let sum: u32 = seen.last().unwrap().iter().sum();
                assert!(sum < 5_000, "sum too large");
            })
        }))
        .expect_err("some case exceeds the bound");
        // The failing case is the last one drawn.
        let case = seen.len() - 1;
        let seed = case_seed("sums_stay_small", case as u32);
        let expected = format!(
            "property `sums_stay_small` failed at case {case} (seed {seed:#x}; \
             rerun it with prop::replay({seed:#x}, ..)): sum too large"
        );
        assert_eq!(failure.downcast_ref::<String>(), Some(&expected));
        assert_eq!(replay(seed, draw), seen[case]);
    }

    #[test]
    fn cases_are_fixed_by_name_and_index() {
        let run = |name| {
            let mut draws = Vec::new();
            check(name, 8, |g| draws.push(g.any::<u64>()));
            draws
        };
        assert_eq!(run("p"), run("p"));
        assert_ne!(run("p"), run("q"));
    }

    #[test]
    fn draws_stay_in_bounds() {
        check("draws_stay_in_bounds", 256, |g| {
            assert!((3..7).contains(&g.range(3u8..7)));
            assert!((3..=7).contains(&g.range(3u64..=7)));
            assert_eq!(g.range(9u16..=9), 9);
            assert!(g.range(u64::MAX - 1..=u64::MAX) >= u64::MAX - 1);
            assert!(g.range(1u64..=u64::MAX) >= 1);
            assert!((5..9).contains(&g.bytes(5..9).len()));
            let mut p = g.permutation(6);
            p.sort_unstable();
            assert_eq!(p, [0, 1, 2, 3, 4, 5]);
        });
    }
}
