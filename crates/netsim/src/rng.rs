//! Deterministic randomness for the simulator.
//!
//! Every stochastic decision in a run — link jitter draws, loss coin flips,
//! browser think times, the modeled user's survey outcome — is drawn from a
//! single [`SimRng`] seeded once per trial. Re-running with the same seed
//! reproduces the run bit-for-bit, which is what makes the paper's
//! "repeat the download 100 times" experiments meaningful here: trial *i*
//! uses `base_seed + i`.

use crate::time::SimDuration;

/// Deterministic random number generator used throughout a simulation run.
///
/// Internally a xoshiro256\*\* generator seeded through SplitMix64, so the
/// whole workspace is free of external RNG dependencies while keeping the
/// statistical quality the simulator needs (jitter draws, loss coin flips,
/// permutations).
///
/// # Examples
///
/// ```
/// use h2priv_netsim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.gen_range_u64(0..100), b.gen_range_u64(0..100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The xoshiro256\*\* next step: uniform over all of `u64`.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Derives an independent child generator. Useful for giving a component
    /// its own stream so that adding draws in one component does not perturb
    /// another component's sequence.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Uniform draw from a `u64` range.
    pub fn gen_range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        if range.is_empty() {
            return range.start;
        }
        let span = range.end - range.start;
        range.start + self.bounded(span)
    }

    /// Uniform draw from `[0, bound)` (`bound` = 0 means the full `u64`
    /// range). Debiased with Lemire-style rejection sampling.
    fn bounded(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return self.next_u64();
        }
        // Rejection threshold: the largest multiple of `bound` ≤ 2^64.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform draw from `[0, 1)`.
    pub fn gen_unit_f64(&mut self) -> f64 {
        // 53 mantissa bits of a uniform u64 → [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_unit_f64() < p
    }

    /// Samples a duration from `dist`.
    pub fn sample_duration(&mut self, dist: &DurationDist) -> SimDuration {
        dist.sample(self)
    }

    /// Draws a uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }

    /// Uniform draw from `(0, 1)` — never exactly zero, safe to `ln()`.
    fn gen_open_unit_f64(&mut self) -> f64 {
        loop {
            let u = self.gen_unit_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Standard normal draw via Box–Muller (we avoid an external
    /// distributions dependency; the simulator only needs a handful).
    fn standard_normal(&mut self) -> f64 {
        let u1 = self.gen_open_unit_f64();
        let u2 = self.gen_unit_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential draw with the given mean, via inverse transform.
    fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.gen_open_unit_f64();
        -mean * u.ln()
    }
}

/// A distribution over non-negative durations.
///
/// Used for link jitter, browser think-time noise and server worker latency.
/// Negative samples (possible under [`DurationDist::Normal`]) are clamped to
/// zero, which matches the physical constraint that delays cannot be
/// negative.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum DurationDist {
    /// Always zero.
    #[default]
    None,
    /// Always exactly this long.
    Constant(SimDuration),
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Inclusive lower bound.
        lo: SimDuration,
        /// Inclusive upper bound.
        hi: SimDuration,
    },
    /// Normal with the given mean and standard deviation, clamped at zero.
    Normal {
        /// Mean of the distribution.
        mean: SimDuration,
        /// Standard deviation of the distribution.
        std_dev: SimDuration,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean of the distribution.
        mean: SimDuration,
    },
}

impl DurationDist {
    /// Samples one duration.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            DurationDist::None => SimDuration::ZERO,
            DurationDist::Constant(d) => d,
            DurationDist::Uniform { lo, hi } => {
                if hi <= lo {
                    return lo;
                }
                SimDuration::from_nanos(
                    rng.gen_range_u64(lo.as_nanos()..hi.as_nanos().saturating_add(1)),
                )
            }
            DurationDist::Normal { mean, std_dev } => {
                let x = mean.as_nanos() as f64 + rng.standard_normal() * std_dev.as_nanos() as f64;
                if x <= 0.0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(x as u64)
                }
            }
            DurationDist::Exponential { mean } => {
                SimDuration::from_nanos(rng.exponential(mean.as_nanos() as f64) as u64)
            }
        }
    }

    /// The distribution's mean, used by components that need an expectation
    /// (e.g. RTT budgeting in tests).
    pub fn mean(&self) -> SimDuration {
        match *self {
            DurationDist::None => SimDuration::ZERO,
            DurationDist::Constant(d) => d,
            DurationDist::Uniform { lo, hi } => {
                SimDuration::from_nanos((lo.as_nanos() / 2).saturating_add(hi.as_nanos() / 2))
            }
            DurationDist::Normal { mean, .. } => mean,
            DurationDist::Exponential { mean } => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range_u64(0..1_000_000), b.gen_range_u64(0..1_000_000));
        }
    }

    #[test]
    fn different_seed_differs() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let draws_a: Vec<u64> = (0..16).map(|_| a.gen_range_u64(0..u64::MAX)).collect();
        let draws_b: Vec<u64> = (0..16).map(|_| b.gen_range_u64(0..u64::MAX)).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = SimRng::seed_from(1);
        let mut child = parent.fork();
        // Drawing from the child must not affect the parent's stream.
        let mut parent_clone = parent.clone();
        let _ = child.gen_range_u64(0..100);
        assert_eq!(
            parent.gen_range_u64(0..u64::MAX),
            parent_clone.gen_range_u64(0..u64::MAX)
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_frequency_close_to_p() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq = {freq}");
    }

    #[test]
    fn uniform_dist_bounds() {
        let mut rng = SimRng::seed_from(5);
        let dist = DurationDist::Uniform {
            lo: SimDuration::from_millis(2),
            hi: SimDuration::from_millis(4),
        };
        for _ in 0..1000 {
            let d = dist.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(2) && d <= SimDuration::from_millis(4));
        }
    }

    #[test]
    fn degenerate_uniform_is_constant() {
        let mut rng = SimRng::seed_from(5);
        let d = SimDuration::from_millis(3);
        let dist = DurationDist::Uniform { lo: d, hi: d };
        assert_eq!(dist.sample(&mut rng), d);
    }

    #[test]
    fn normal_dist_clamps_at_zero() {
        let mut rng = SimRng::seed_from(5);
        let dist = DurationDist::Normal {
            mean: SimDuration::from_nanos(10),
            std_dev: SimDuration::from_millis(10),
        };
        // With a mean near zero and huge deviation roughly half the draws
        // would be negative; all must clamp to a valid duration.
        let mut zeros = 0;
        for _ in 0..500 {
            if dist.sample(&mut rng).is_zero() {
                zeros += 1;
            }
        }
        assert!(zeros > 100);
    }

    #[test]
    fn normal_dist_mean_close() {
        let mut rng = SimRng::seed_from(9);
        let dist = DurationDist::Normal {
            mean: SimDuration::from_millis(50),
            std_dev: SimDuration::from_millis(5),
        };
        let n = 5_000u64;
        let total: u128 = (0..n)
            .map(|_| dist.sample(&mut rng).as_nanos() as u128)
            .sum();
        let mean_ms = (total / n as u128) as f64 / 1e6;
        assert!((mean_ms - 50.0).abs() < 1.0, "mean = {mean_ms}ms");
    }

    #[test]
    fn exponential_dist_mean_close() {
        let mut rng = SimRng::seed_from(13);
        let dist = DurationDist::Exponential {
            mean: SimDuration::from_millis(10),
        };
        let n = 20_000u64;
        let total: u128 = (0..n)
            .map(|_| dist.sample(&mut rng).as_nanos() as u128)
            .sum();
        let mean_ms = (total / n as u128) as f64 / 1e6;
        assert!((mean_ms - 10.0).abs() < 0.5, "mean = {mean_ms}ms");
    }

    #[test]
    fn permutation_is_valid() {
        let mut rng = SimRng::seed_from(21);
        let p = rng.permutation(8);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_varies_across_draws() {
        let mut rng = SimRng::seed_from(21);
        let a = rng.permutation(8);
        let b = rng.permutation(8);
        // Overwhelmingly likely to differ (probability 1/8! otherwise).
        assert_ne!(a, b);
    }

    #[test]
    fn dist_means() {
        assert_eq!(DurationDist::None.mean(), SimDuration::ZERO);
        assert_eq!(
            DurationDist::Constant(SimDuration::from_millis(4)).mean(),
            SimDuration::from_millis(4)
        );
        assert_eq!(
            DurationDist::Uniform {
                lo: SimDuration::from_millis(2),
                hi: SimDuration::from_millis(4),
            }
            .mean(),
            SimDuration::from_millis(3)
        );
    }
}
