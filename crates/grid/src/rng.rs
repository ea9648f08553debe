//! Deterministic pseudo-random generation for reproducible experiments.
//!
//! Every stochastic component of the reproduction takes an explicit seed, so
//! that any experiment row can be regenerated bit-for-bit. The generator is
//! xoshiro256++ (Blackman & Vigna), a small, fast, well-tested generator that
//! keeps the substrate crates dependency-free; `rand`-based code in tests and
//! benches can coexist freely.

/// xoshiro256++ pseudo-random generator.
///
/// # Example
///
/// ```
/// use seg_grid::rng::Xoshiro256pp;
/// let mut a = Xoshiro256pp::seed_from_u64(42);
/// let mut b = Xoshiro256pp::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the state from a single 64-bit value using the SplitMix64
    /// expander recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64 { state: seed };
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256pp { s }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` by Lemire's nearly-divisionless method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling on the widening multiply keeps the draw exactly
        // uniform; the rejection zone is < 2^{-32} for all bounds used here.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli(`p`) draw.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponential random variable with the given `rate` (mean `1/rate`).
    ///
    /// These are the waiting times of the paper's Poisson clocks (§II-A).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    #[inline]
    pub fn next_exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        // −ln(U)/rate with U ∈ (0, 1]: use 1 − next_f64() ∈ (0, 1].
        let u = 1.0 - self.next_f64();
        -u.ln() / rate
    }
}

/// SplitMix64, used only to expand seeds.
#[derive(Clone, Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Xoshiro256pp::seed_from_u64(123);
        let mut b = Xoshiro256pp::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_uniform_coverage() {
        let mut r = Xoshiro256pp::seed_from_u64(99);
        let mut hist = [0u32; 10];
        for _ in 0..100_000 {
            hist[r.next_below(10) as usize] += 1;
        }
        for &h in &hist {
            // each bucket expects 10_000; allow 5% deviation
            assert!((9_500..10_500).contains(&h), "histogram {hist:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut r = Xoshiro256pp::seed_from_u64(0);
        let _ = r.next_below(0);
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut r = Xoshiro256pp::seed_from_u64(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.next_exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = Xoshiro256pp::seed_from_u64(5);
        let n = 100_000;
        let k = (0..n).filter(|_| r.next_bool(0.3)).count();
        let freq = k as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq = {freq}");
    }
}
