//! Log-space binomial tails and the paper's initial-configuration
//! probabilities (Lemmas 19, 20, 22).

use crate::entropy::binary_entropy;

/// Natural log of `n!` via the additive table for small `n` and Stirling's
/// series for large `n` (absolute error < 1e-10 for all `n`).
pub(crate) fn ln_factorial(n: u64) -> f64 {
    const TABLE_LEN: usize = 257;
    // thread-safe lazily built table for n < 257
    fn table() -> &'static [f64; 257] {
        use std::sync::OnceLock;
        static T: OnceLock<[f64; 257]> = OnceLock::new();
        T.get_or_init(|| {
            let mut t = [0.0f64; 257];
            for i in 2..257 {
                t[i] = t[i - 1] + (i as f64).ln();
            }
            t
        })
    }
    if (n as usize) < TABLE_LEN {
        return table()[n as usize];
    }
    let x = n as f64;
    // Stirling with 1/(12x) − 1/(360x³) corrections
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x * x * x)
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// # Panics
///
/// Panics if `k > n`.
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "k = {k} > n = {n}");
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `P(Binomial(n, p) = k)` computed in log space (exact to ~1e-12
/// relative for the sizes used here).
///
/// # Panics
///
/// Panics if `p` is not a probability or `k > n`.
pub fn binomial_pmf(n: u64, p: f64, k: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!(k <= n);
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    (ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

/// Lower tail `P(Binomial(n, p) ≤ k)`, summed in log-safe order.
pub fn binomial_cdf(n: u64, p: f64, k: u64) -> f64 {
    let k = k.min(n);
    // Sum ascending: terms grow toward the mode, so accumulate from the
    // smallest; for k beyond the mode use the complement for accuracy.
    let mode = ((n as f64 + 1.0) * p).floor() as u64;
    if k <= mode {
        (0..=k).map(|i| binomial_pmf(n, p, i)).sum::<f64>().min(1.0)
    } else {
        (1.0 - ((k + 1)..=n).map(|i| binomial_pmf(n, p, i)).sum::<f64>()).clamp(0.0, 1.0)
    }
}

/// The exact unhappiness probability of an arbitrary agent in the initial
/// configuration at `p = 1/2` (Lemma 19, Eq. 30):
///
/// ```text
/// p_u = 2 · (1/2)^N · Σ_{k=0}^{τN−2} C(N−1, k)
///     = P( Binomial(N−1, 1/2) ≤ τN − 2 ),
/// ```
///
/// where `N = (2w+1)²` and `τN` is the integer happiness threshold
/// `⌈τ̃·N⌉`. (The factor 2 and the halved Bernoulli cancel: both types
/// contribute symmetrically.) The two-unit reduction accounts for the
/// strict inequality and the agent at the center.
///
/// Returns `0` when `τN < 2`.
///
/// # Panics
///
/// Panics if `threshold > n_size`.
pub fn unhappy_probability_exact(n_size: u64, threshold: u64) -> f64 {
    assert!(threshold <= n_size, "threshold exceeds neighborhood size");
    if threshold < 2 {
        return 0.0;
    }
    binomial_cdf(n_size - 1, 0.5, threshold - 2)
}

/// The asymptotic envelope of Lemma 19: `2^{−[1−H(τ')]·N} / √N`, where
/// `τ' = (τN − 2)/(N − 1)`. Lemma 19 sandwiches `p_u` between constant
/// multiples of this quantity.
///
/// # Panics
///
/// Panics if `τ'` falls outside `(0, 1)` (degenerate thresholds).
pub fn unhappy_probability_envelope(n_size: u64, threshold: u64) -> f64 {
    let tau_p = (threshold as f64 - 2.0) / (n_size as f64 - 1.0);
    assert!(
        tau_p > 0.0 && tau_p < 1.0,
        "tau' = {tau_p} degenerate for N = {n_size}, threshold = {threshold}"
    );
    let exponent = (1.0 - binary_entropy(tau_p)) * n_size as f64;
    (-exponent * std::f64::consts::LN_2).exp() / (n_size as f64).sqrt()
}

/// Log2 of the Lemma 20 radical-region probability estimate: a ball of
/// radius `(1+ε')w` (size `(1+ε')²N`) holds fewer than `τ̂(1+ε')²N`
/// minus-agents, which happens with probability
/// `2^{−[1−H(τ'')](1+ε')²N ± o(N)}`.
///
/// Computed exactly as the log2 of the binomial tail for the given sizes
/// (the o(N) slack of the lemma is then visible to callers comparing with
/// the entropy estimate).
pub fn radical_region_log2_probability(region_size: u64, minus_threshold: u64) -> f64 {
    // log2 P(Binomial(region_size, 1/2) < minus_threshold)
    if minus_threshold == 0 {
        return -(region_size as f64);
    }
    // Sum in log space with the max-term trick.
    let k_max = minus_threshold - 1;
    let ln_terms: Vec<f64> = (0..=k_max)
        .map(|k| ln_choose(region_size, k) - region_size as f64 * std::f64::consts::LN_2)
        .collect();
    let m = ln_terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = ln_terms.iter().map(|t| (t - m).exp()).sum();
    (m + sum.ln()) / std::f64::consts::LN_2
}

/// The entropy approximation of the same quantity (the exponent the paper
/// uses): `−[1 − H(k/n)]·n` bits for the tail at fraction `k/n < 1/2`.
pub fn tail_log2_entropy_estimate(n: u64, k: u64) -> f64 {
    let frac = k as f64 / n as f64;
    -(1.0 - binary_entropy(frac.min(0.5))) * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_small_exact() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(10) - 3_628_800f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_factorial_stirling_continuity() {
        // table/Stirling seam at 257
        let a = ln_factorial(256) + 257f64.ln();
        let b = ln_factorial(257);
        assert!((a - b).abs() < 1e-9, "seam error {}", (a - b).abs());
    }

    #[test]
    fn ln_factorial_recurrence_across_the_seam() {
        // ln(n!) = ln((n−1)!) + ln n, on both sides of the table/Stirling seam
        for n in 1..2000u64 {
            let rhs = ln_factorial(n - 1) + (n as f64).ln();
            assert!((ln_factorial(n) - rhs).abs() < 1e-8, "n = {n}");
        }
    }

    #[test]
    fn ln_choose_satisfies_pascal_rule() {
        // C(n,k) = C(n−1,k−1) + C(n−1,k)
        for n in 2..300u64 {
            for k in (1..n).step_by(7) {
                let lhs = ln_choose(n, k).exp();
                let rhs = ln_choose(n - 1, k - 1).exp() + ln_choose(n - 1, k).exp();
                assert!((lhs - rhs).abs() / rhs < 1e-9, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn choose_small_values() {
        assert!((ln_choose(5, 2).exp() - 10.0).abs() < 1e-10);
        assert!((ln_choose(10, 5).exp() - 252.0).abs() < 1e-9);
        assert_eq!(ln_choose(7, 0), 0.0);
    }

    #[test]
    fn pmf_sums_to_one() {
        let n = 100;
        let total: f64 = (0..=n).map(|k| binomial_pmf(n, 0.3, k)).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let n = 64;
        let mut prev = 0.0;
        for k in 0..=n {
            let c = binomial_cdf(n, 0.5, k);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert!((binomial_cdf(n, 0.5, n) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unhappy_probability_examples() {
        // N = 9 (w = 1), τ̃ = 0.5 ⇒ threshold ⌈4.5⌉ = 5; p_u = P(B(8, 1/2) ≤ 3)
        let p = unhappy_probability_exact(9, 5);
        let expect = (1.0 + 8.0 + 28.0 + 56.0) / 256.0;
        assert!((p - expect).abs() < 1e-12, "p = {p}, expect = {expect}");
    }

    #[test]
    fn unhappy_probability_degenerate_thresholds() {
        assert_eq!(unhappy_probability_exact(9, 0), 0.0);
        assert_eq!(unhappy_probability_exact(9, 1), 0.0);
        // threshold = N: unhappy unless everyone agrees
        let p = unhappy_probability_exact(9, 9);
        assert!((p - binomial_cdf(8, 0.5, 7)).abs() < 1e-12);
    }

    #[test]
    fn lemma19_sandwich_holds_for_moderate_n() {
        // p_u should lie within constant multiples of the envelope.
        for w in [2u64, 3, 5, 7, 10] {
            let n = (2 * w + 1) * (2 * w + 1);
            let threshold = (0.45 * n as f64).ceil() as u64;
            let exact = unhappy_probability_exact(n, threshold);
            let env = unhappy_probability_envelope(n, threshold);
            let ratio = exact / env;
            assert!(
                (0.05..20.0).contains(&ratio),
                "w = {w}: exact = {exact:e}, envelope = {env:e}, ratio = {ratio}"
            );
        }
    }

    #[test]
    fn radical_log2_matches_entropy_estimate_to_o_n() {
        let n = 441u64;
        let k = (0.4 * n as f64) as u64;
        let exact = radical_region_log2_probability(n, k);
        let est = tail_log2_entropy_estimate(n, k);
        // agreement up to O(log n) bits
        assert!(
            (exact - est).abs() < 0.5 * (n as f64).log2() + 3.0,
            "exact = {exact}, estimate = {est}"
        );
    }

    #[test]
    fn radical_log2_zero_threshold() {
        assert_eq!(radical_region_log2_probability(100, 0), -100.0);
    }

    #[test]
    #[should_panic(expected = "threshold exceeds")]
    fn unhappy_rejects_bad_threshold() {
        let _ = unhappy_probability_exact(9, 10);
    }
}
