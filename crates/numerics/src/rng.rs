//! A tiny, seedable xorshift generator for fully reproducible workloads.
//!
//! Every dataset generator in the workspace (TCAD device sampler, corner
//! grids, benchmark netlists, RL exploration) takes an explicit seed so that
//! `cargo test` and the table-regeneration binaries are deterministic across
//! runs and machines. The `rand` crate is still used where distributions
//! matter; this type covers the hot inner loops and keeps the workspace's
//! reproducibility independent of `rand`'s version-to-version stream
//! stability.

/// Xorshift64* pseudo-random generator.
///
/// # Example
///
/// ```
/// use stco_numerics::rng::Xorshift;
///
/// let mut a = Xorshift::new(42);
/// let mut b = Xorshift::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xorshift {
    state: u64,
}

impl Xorshift {
    /// Creates a generator from a seed. A zero seed is remapped to a fixed
    /// nonzero constant (xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        Xorshift {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high-quality bits → double in [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_in requires lo <= hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range requires n > 0");
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Bernoulli sample with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xorshift::new(123);
        let mut b = Xorshift::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = Xorshift::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = Xorshift::new(5);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_near_half() {
        let mut rng = Xorshift::new(9);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Xorshift::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gen_range_covers_all_buckets() {
        let mut rng = Xorshift::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xorshift::new(17);
        let mut v: Vec<usize> = (0..32).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }
}
