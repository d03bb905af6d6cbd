//! Exact samplers for the distributions used by the paper's analyses.
//!
//! The workspace deliberately depends only on `rand` for uniform bits;
//! everything else (geometric, Poisson, hypergeometric) is
//! implemented here so the sampling logic is auditable and deterministic
//! across `rand` versions.

use rand::Rng;
use std::sync::OnceLock;

/// Geometric distribution on `{1, 2, 3, …}`: number of Bernoulli(`p`)
/// trials up to and including the first success.
///
/// Sampling uses inversion: `X = ⌈ln U / ln(1−p)⌉`, which is exact for the
/// geometric law and O(1) regardless of `p`.
///
/// # Examples
///
/// ```
/// use popele_math::dist::Geometric;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let g = Geometric::new(0.5);
/// let x = g.sample(&mut rng);
/// assert!(x >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    ln_q: f64,
}

impl Geometric {
    /// Creates a geometric distribution with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p ≤ 1`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "geometric requires 0 < p ≤ 1");
        // ln_1p keeps ln(1−p) ≈ −p below 2⁻⁵³, where 1 − p rounds to 1.
        Self {
            p,
            ln_q: (-p).ln_1p(),
        }
    }

    /// Success probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `1/p`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// Draws one sample (support `{1, 2, …}`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        // U ∈ (0, 1]; using 1−random::<f64>() avoids ln(0).
        let u = 1.0 - rng.random::<f64>();
        let x = (u.ln() / self.ln_q).ceil();
        if x < 1.0 {
            1
        } else {
            x as u64
        }
    }
}

/// Poisson distribution with mean `λ`.
///
/// Knuth multiplication for `λ ≤ 30`; for larger means, the sum of two
/// independent Poissons (split recursively) keeps the products away from
/// underflow while staying exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with mean `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda > 0`.
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "Poisson mean must be positive");
        Self { lambda }
    }

    /// Mean `λ`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.lambda
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut remaining = self.lambda;
        let mut total = 0u64;
        // Poisson(a + b) = Poisson(a) + Poisson(b) for independent summands.
        while remaining > 30.0 {
            total += knuth_poisson(30.0, rng);
            remaining -= 30.0;
        }
        total + knuth_poisson(remaining, rng)
    }
}

fn knuth_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let threshold = (-lambda).exp();
    let mut k = 0u64;
    let mut product = 1.0f64;
    loop {
        product *= rng.random::<f64>();
        if product <= threshold {
            return k;
        }
        k += 1;
    }
}

/// Hypergeometric distribution: number of *marked* elements in a
/// uniform sample of `draws` elements taken **without replacement** from
/// a population of `total` elements of which `success` are marked.
///
/// This is the law of a batch draw from a count vector: picking `draws`
/// distinct agents from a population with `success` agents in a given
/// state yields a hypergeometric count for that state. Sampling uses
/// exact inversion *from the mode*: the pmf at the mode is computed once
/// from log-factorials and extended outward with the exact two-term pmf
/// recurrence, so the expected cost is `O(σ)` — independent of the
/// drawn value and of the population size. The log-factorials are a
/// table of Lanczos log-gamma values below 4096 (the draw count and the
/// mode, at the count engine's `√n` epoch cap) and the Stirling series
/// above it (the population-sized arguments), both at the f64 standard
/// of the logarithmic inversion in [`Geometric`]; each sample consumes
/// exactly one uniform. When the support is small
/// (`min(success, draws)` ≤ 24) a log-factorial-free path inverts from
/// 0 instead, with `pmf(0)` as a short falling-factorial product — the
/// hot case for the count engine's batch draws over near-empty state
/// classes.
///
/// # Examples
///
/// ```
/// use popele_math::dist::Hypergeometric;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// // 5 marked among 50, draw 10: between 0 and 5 marked in the sample.
/// let h = Hypergeometric::new(50, 5, 10);
/// let x = h.sample(&mut rng);
/// assert!(x <= 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hypergeometric {
    total: u64,
    success: u64,
    draws: u64,
}

/// Largest support size handled by the log-factorial-free inversion
/// fast path in [`Hypergeometric::sample`].
const SMALL_SUPPORT: u64 = 24;

impl Hypergeometric {
    /// Creates a hypergeometric distribution over a population of
    /// `total` elements with `success` marked ones, sampling `draws`
    /// elements without replacement.
    ///
    /// # Panics
    ///
    /// Panics unless `success ≤ total` and `draws ≤ total`.
    #[must_use]
    pub fn new(total: u64, success: u64, draws: u64) -> Self {
        assert!(
            success <= total,
            "hypergeometric requires success ≤ total ({success} > {total})"
        );
        assert!(
            draws <= total,
            "hypergeometric requires draws ≤ total ({draws} > {total})"
        );
        Self {
            total,
            success,
            draws,
        }
    }

    /// Mean `draws·success/total` (0 for an empty population).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.draws as f64 * self.success as f64 / self.total as f64
        }
    }

    /// Smallest attainable value, `max(0, draws + success − total)`.
    #[must_use]
    pub fn min_value(&self) -> u64 {
        (self.draws + self.success).saturating_sub(self.total)
    }

    /// Largest attainable value, `min(draws, success)`.
    #[must_use]
    pub fn max_value(&self) -> u64 {
        self.draws.min(self.success)
    }

    /// Natural log of the pmf at `k` (must be inside the support).
    fn ln_pmf(&self, k: u64) -> f64 {
        ln_choose(self.success, k) + ln_choose(self.total - self.success, self.draws - k)
            - ln_choose(self.total, self.draws)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let lo = self.min_value();
        let hi = self.max_value();
        if lo == hi {
            return lo;
        }
        let (nn, kk, dd) = (self.total as f64, self.success as f64, self.draws as f64);
        // Small-support fast path: with min(success, draws) ≤ 24 the
        // whole support fits in ≤ 25 values, so exact inversion from 0
        // needs only the falling-factorial product for pmf(0) —
        //   pmf(0) = ∏_{i<s} (N − t − i)/(N − i),  s = min(K, d), t = max —
        // and the upward pmf ratio recurrence; no log-factorial at all.
        // This is the dominant case in the count engine's chained batch
        // draws, where most state classes hold only a handful of agents.
        if lo == 0 && hi <= SMALL_SUPPORT {
            let t = nn - kk.max(dd);
            let mut p = 1.0f64;
            for i in 0..hi {
                let i = i as f64;
                p *= (t - i) / (nn - i);
            }
            if p > 0.0 {
                let mut u = rng.random::<f64>();
                let mut k = 0u64;
                loop {
                    if u <= p || k == hi {
                        return k;
                    }
                    u -= p;
                    let kf = k as f64;
                    p *= (kk - kf) * (dd - kf) / ((kf + 1.0) * (nn - kk - dd + kf + 1.0));
                    k += 1;
                }
            }
        }
        // Mode of the pmf; clamp into the support for safety at the edges.
        let mode = (((self.draws + 1) as f64 * (self.success + 1) as f64) / (nn + 2.0)) as u64;
        let mode = mode.clamp(lo, hi);
        let mut u = rng.random::<f64>();
        let p_mode = self.ln_pmf(mode).exp();
        if u <= p_mode {
            return mode;
        }
        u -= p_mode;
        // Exact inversion over the enumeration mode, mode+1, mode−1, …
        // using the pmf ratio recurrences
        //   pmf(k+1)/pmf(k) = (K−k)(d−k) / ((k+1)(N−K−d+k+1))
        //   pmf(k−1)/pmf(k) = k(N−K−d+k) / ((K−k+1)(d−k+1)).
        let (mut down_k, mut down_p) = (mode, p_mode);
        let (mut up_k, mut up_p) = (mode, p_mode);
        loop {
            if up_k < hi {
                let k = up_k as f64;
                up_p *= (kk - k) * (dd - k) / ((k + 1.0) * (nn - kk - dd + k + 1.0));
                up_k += 1;
                if u <= up_p {
                    return up_k;
                }
                u -= up_p;
            }
            if down_k > lo {
                let k = down_k as f64;
                down_p *= k * (nn - kk - dd + k) / ((kk - k + 1.0) * (dd - k + 1.0));
                down_k -= 1;
                if u <= down_p {
                    return down_k;
                }
                u -= down_p;
            } else if up_k >= hi {
                // Floating-point leftovers (the pmf sums to 1 − ε): land
                // on the side whose tail still carries more mass.
                return if up_p >= down_p { hi } else { lo };
            }
        }
    }
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`, accurate to ~1e-13 —
/// the same f64 standard as the library's logarithmic inversions.
fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7, n = 9.
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    const G: f64 = 7.0;
    debug_assert!(x > 0.0);
    let z = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9_f64;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (z + (i + 1) as f64);
    }
    let t = z + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (z + 0.5) * t.ln() - t + acc.ln()
}

/// Arguments below this bound read [`ln_factorial`] from a table; the
/// count engine's draw sizes and most mode values stay under it (its
/// epoch cap is `√n`), so only population-sized arguments pay for the
/// Stirling series.
const LN_FACTORIAL_TABLE: usize = 4096;

/// `ln k!`. Below [`LN_FACTORIAL_TABLE`] a lookup in a table filled from
/// [`ln_gamma`] (so bit-identical to `ln_gamma(k + 1)`); above it the
/// Stirling series in `x = k + 1`, truncated after the `x⁻⁵` term,
/// whose next term is below 10⁻²⁸ there — one `ln` and one division
/// instead of Lanczos' two logarithms and eight divisions.
fn ln_factorial(k: u64) -> f64 {
    static TABLE: OnceLock<Box<[f64]>> = OnceLock::new();
    if k < LN_FACTORIAL_TABLE as u64 {
        let table = TABLE.get_or_init(|| {
            (0..LN_FACTORIAL_TABLE)
                .map(|k| ln_gamma(k as f64 + 1.0))
                .collect()
        });
        return table[k as usize];
    }
    const HALF_LN_2PI: f64 = 0.918_938_533_204_672_8;
    let x = k as f64 + 1.0;
    let r = 1.0 / x;
    let r2 = r * r;
    (x - 0.5) * x.ln() - x
        + HALF_LN_2PI
        + r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0)))
}

/// `ln C(n, k)` for `k ≤ n` via [`ln_factorial`].
fn ln_choose(n: u64, k: u64) -> f64 {
    debug_assert!(k <= n);
    if k == 0 || k == n {
        return 0.0;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Welford;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_mean_var(mut f: impl FnMut(&mut SmallRng) -> f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut w = Welford::new();
        for _ in 0..n {
            w.push(f(&mut rng));
        }
        (w.mean(), w.variance())
    }

    #[test]
    fn geometric_mean_and_variance() {
        let p = 0.25f64;
        let g = Geometric::new(p);
        let (mean, var) = sample_mean_var(|r| g.sample(r) as f64, 60_000, 11);
        assert!((mean - 1.0 / p).abs() < 0.1, "mean {mean}");
        let expected_var = (1.0 - p) / (p * p);
        assert!((var - expected_var).abs() / expected_var < 0.1, "var {var}");
    }

    #[test]
    fn geometric_p_one_is_constant() {
        let g = Geometric::new(1.0);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(g.sample(&mut rng), 1);
        }
    }

    #[test]
    fn poisson_small_mean() {
        let lam = 3.5;
        let p = Poisson::new(lam);
        let (mean, var) = sample_mean_var(|r| p.sample(r) as f64, 60_000, 13);
        assert!((mean - lam).abs() < 0.1, "mean {mean}");
        assert!((var - lam).abs() < 0.2, "var {var}");
    }

    #[test]
    fn poisson_large_mean_splits() {
        let lam = 250.0;
        let p = Poisson::new(lam);
        let (mean, var) = sample_mean_var(|r| p.sample(r) as f64, 20_000, 17);
        assert!((mean - lam).abs() < 1.0, "mean {mean}");
        assert!((var - lam).abs() / lam < 0.1, "var {var}");
    }

    /// Pearson χ² statistic of observed counts against expected
    /// probabilities (cells with negligible expectation are pooled into
    /// their neighbour to keep the approximation sound).
    fn chi_square(observed: &[u64], probabilities: &[f64]) -> f64 {
        let n: u64 = observed.iter().sum();
        let mut stat = 0.0;
        let (mut pool_obs, mut pool_exp) = (0.0f64, 0.0f64);
        for (&o, &p) in observed.iter().zip(probabilities) {
            pool_obs += o as f64;
            pool_exp += p * n as f64;
            if pool_exp >= 5.0 {
                stat += (pool_obs - pool_exp) * (pool_obs - pool_exp) / pool_exp;
                pool_obs = 0.0;
                pool_exp = 0.0;
            }
        }
        if pool_exp > 0.0 {
            stat += (pool_obs - pool_exp) * (pool_obs - pool_exp) / pool_exp;
        }
        stat
    }

    /// Exact hypergeometric pmf over the full support via u128 binomial
    /// coefficients (small parameters only).
    fn exact_hyper_pmf(total: u64, success: u64, draws: u64) -> Vec<f64> {
        fn choose(n: u64, k: u64) -> u128 {
            if k > n {
                return 0;
            }
            let k = k.min(n - k);
            let mut acc: u128 = 1;
            for i in 0..k {
                acc = acc * u128::from(n - i) / u128::from(i + 1);
            }
            acc
        }
        let h = Hypergeometric::new(total, success, draws);
        let denom = choose(total, draws) as f64;
        (h.min_value()..=h.max_value())
            .map(|k| choose(success, k) as f64 * choose(total - success, draws - k) as f64 / denom)
            .collect()
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0f64;
        for n in 1..20u32 {
            fact *= f64::from(n);
            let lg = ln_gamma(f64::from(n) + 1.0);
            assert!((lg - fact.ln()).abs() < 1e-10, "ln Γ({}) = {lg}", n + 1);
        }
    }

    #[test]
    fn geometric_tiny_p_keeps_its_mean() {
        // Below 2⁻⁵³ the old `(1 − p).ln()` rounded ln q to 0 and every
        // sample collapsed to 1.
        let g = Geometric::new(1e-18);
        let (mean, _) = sample_mean_var(|r| g.sample(r) as f64, 20_000, 17);
        assert!((mean / 1e18 - 1.0).abs() < 0.05, "mean {mean:e}");
    }

    #[test]
    fn geometric_unit_uniform_stays_in_support() {
        // A generator whose every word is 0 gives U = 1 − 0 = 1 and
        // ln U = 0; with ln q rounded to 0 that was 0/0 = NaN → 0.
        struct Zeros;
        impl rand::RngCore for Zeros {
            fn next_u64(&mut self) -> u64 {
                0
            }
        }
        for p in [1e-18, 1e-9, 0.5] {
            assert_eq!(Geometric::new(p).sample(&mut Zeros), 1, "p = {p}");
        }
    }

    #[test]
    fn ln_factorial_table_is_lanczos_bit_for_bit() {
        for k in 0..LN_FACTORIAL_TABLE as u64 {
            assert_eq!(
                ln_factorial(k).to_bits(),
                ln_gamma(k as f64 + 1.0).to_bits(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn ln_factorial_matches_exact_factorials() {
        let mut fact: u128 = 1;
        for k in 0..=30u64 {
            if k > 0 {
                fact *= u128::from(k);
            }
            let exact = (fact as f64).ln();
            let got = ln_factorial(k);
            assert!(
                (got - exact).abs() <= 1e-12 * exact.max(1.0),
                "ln {k}! = {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn ln_factorial_stirling_agrees_with_lanczos() {
        for k in [
            4_095,
            4_096,
            4_097,
            100_000,
            10_000_000,
            1_000_000_000,
            u64::from(u32::MAX),
        ] {
            let lanczos = ln_gamma(k as f64 + 1.0);
            let got = ln_factorial(k);
            assert!(
                (got - lanczos).abs() <= 1e-15 * lanczos,
                "ln {k}! = {got}, Lanczos {lanczos}"
            );
        }
    }

    #[test]
    fn ln_factorial_is_continuous_across_the_table_boundary() {
        // ln k! − ln (k−1)! = ln k: a seam between the table and the
        // series would show as an error of order the series' truncation.
        for k in 4_090..4_100u64 {
            let step = ln_factorial(k) - ln_factorial(k - 1);
            let ln_k = (k as f64).ln();
            assert!(
                (step - ln_k).abs() < 1e-10,
                "k = {k}: step {step}, ln k {ln_k}"
            );
        }
    }

    #[test]
    fn hypergeometric_moments() {
        let h = Hypergeometric::new(60, 20, 15);
        let (mean, var) = sample_mean_var(|r| h.sample(r) as f64, 60_000, 29);
        // mean = 15·20/60 = 5; var = d·p(1−p)·(N−d)/(N−1) ≈ 2.542.
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        let expected_var = 15.0 * (1.0 / 3.0) * (2.0 / 3.0) * 45.0 / 59.0;
        assert!(
            (var - expected_var).abs() / expected_var < 0.05,
            "var {var}"
        );
    }

    #[test]
    fn hypergeometric_chi_square_goodness_of_fit() {
        // N=20, K=8, d=10: support 0..=8, exact pmf via u128 binomials.
        let h = Hypergeometric::new(20, 8, 10);
        let pmf = exact_hyper_pmf(20, 8, 10);
        let mut rng = SmallRng::seed_from_u64(31);
        let mut counts = vec![0u64; pmf.len()];
        for _ in 0..40_000 {
            counts[h.sample(&mut rng) as usize] += 1;
        }
        // df ≤ 8; χ²₀.₉₉₉(8) ≈ 26.1 — allow slack for pooling.
        let stat = chi_square(&counts, &pmf);
        assert!(stat < 30.0, "χ² = {stat}, counts {counts:?}");
    }

    #[test]
    fn hypergeometric_tight_support_chi_square() {
        // N=10, K=7, d=8: support pinched to 5..=7 (k = n−... boundary).
        let h = Hypergeometric::new(10, 7, 8);
        assert_eq!((h.min_value(), h.max_value()), (5, 7));
        let pmf = exact_hyper_pmf(10, 7, 8);
        let mut rng = SmallRng::seed_from_u64(37);
        let mut counts = vec![0u64; pmf.len()];
        for _ in 0..30_000 {
            let x = h.sample(&mut rng);
            assert!((5..=7).contains(&x), "outside support: {x}");
            counts[(x - 5) as usize] += 1;
        }
        let stat = chi_square(&counts, &pmf);
        assert!(stat < 21.0, "χ² = {stat}, counts {counts:?}"); // χ²₀.₉₉₉(2) ≈ 13.8
    }

    #[test]
    fn hypergeometric_boundary_cases() {
        let mut rng = SmallRng::seed_from_u64(1);
        // k = 0 draws, and no marked elements: always 0.
        assert_eq!(Hypergeometric::new(10, 4, 0).sample(&mut rng), 0);
        assert_eq!(Hypergeometric::new(10, 0, 7).sample(&mut rng), 0);
        // k = n: drawing everything yields every marked element.
        assert_eq!(Hypergeometric::new(10, 4, 10).sample(&mut rng), 4);
        // All marked: every draw is marked.
        assert_eq!(Hypergeometric::new(10, 10, 6).sample(&mut rng), 6);
        // Empty population.
        assert_eq!(Hypergeometric::new(0, 0, 0).sample(&mut rng), 0);
    }

    #[test]
    fn hypergeometric_huge_population_mean() {
        // Exercises the mode-inversion walk at count-engine scale.
        let h = Hypergeometric::new(1_000_000_000, 300_000_000, 10_000);
        let (mean, var) = sample_mean_var(|r| h.sample(r) as f64, 4_000, 41);
        assert!((mean - 3_000.0).abs() < 3.0, "mean {mean}");
        // Nearly binomial at this ratio: var ≈ 10_000·0.3·0.7 = 2100.
        assert!((var - 2_100.0).abs() / 2_100.0 < 0.1, "var {var}");
    }

    /// Mean and variance at count-tier scale, where the population and
    /// class sizes reach the Stirling range of [`ln_factorial`]: a
    /// 10⁷-clique epoch (d = ⌊√N⌋) and a 10⁹-clique one.
    #[test]
    fn hypergeometric_moments_at_count_scale() {
        for (total, success, draws, samples, seed) in [
            (10_000_000u64, 4_000_000u64, 3_162u64, 20_000, 89),
            (1_000_000_000, 300_000_000, 31_623, 4_000, 97),
        ] {
            let h = Hypergeometric::new(total, success, draws);
            let (mean, var) = sample_mean_var(|r| h.sample(r) as f64, samples, seed);
            let (nn, kk, dd) = (total as f64, success as f64, draws as f64);
            let p = kk / nn;
            let expected_var = dd * p * (1.0 - p) * (nn - dd) / (nn - 1.0);
            // Four standard errors of the sample mean and variance.
            let mean_tol = 4.0 * (expected_var / samples as f64).sqrt();
            let var_tol = 4.0 * expected_var * (2.0 / samples as f64).sqrt();
            assert!(
                (mean - h.mean()).abs() < mean_tol,
                "N = {total}: mean {mean}, expected {}",
                h.mean()
            );
            assert!(
                (var - expected_var).abs() < var_tol,
                "N = {total}: var {var}, expected {expected_var}"
            );
        }
    }

    #[test]
    fn hypergeometric_small_class_in_huge_population() {
        // The count engine's hot case: a state class holding a handful
        // of agents inside a batch draw over millions — served by the
        // log-factorial-free small-support path. mean = d·K/N = 0.005.
        let h = Hypergeometric::new(10_000_000, 5, 10_000);
        let (mean, _) = sample_mean_var(|r| h.sample(r) as f64, 400_000, 43);
        assert!((mean - 0.005).abs() < 0.0006, "mean {mean}");
        // And the same path with the mean pushed to the top of the
        // support (d ≈ N): all five marked agents are almost surely hit.
        let h = Hypergeometric::new(10_000_000, 5, 9_999_000);
        let mut rng = SmallRng::seed_from_u64(47);
        let mut total = 0u64;
        for _ in 0..2_000 {
            let x = h.sample(&mut rng);
            assert!(x <= 5);
            total += x;
        }
        assert!((total as f64 / 2_000.0 - 4.9995).abs() < 0.01);
    }

    #[test]
    fn hypergeometric_deterministic_across_seeds() {
        let h = Hypergeometric::new(500, 120, 60);
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..200).map(|_| h.sample(&mut a)).collect();
        let ys: Vec<u64> = (0..200).map(|_| h.sample(&mut b)).collect();
        let zs: Vec<u64> = (0..200).map(|_| h.sample(&mut c)).collect();
        assert_eq!(xs, ys, "same seed must reproduce the sample path");
        assert_ne!(xs, zs, "different seeds must diverge");
    }

    /// Pins the exact sample stream at the count tier's smallest routed
    /// populations: 2¹⁶ draws at `N = 8·10⁴` with the marked class
    /// swept across `[0, N)` and the draw count across `1..=283` (the
    /// epoch cap `√N`), so both inversion paths and both log-factorial
    /// ranges are crossed. The digest was recorded from the Lanczos-only
    /// sampler; a change that moves it flips draws at this scale.
    #[test]
    fn hypergeometric_stream_is_pinned_at_80000() {
        const N: u64 = 80_000;
        let mut rng = SmallRng::seed_from_u64(0x5EED_8000);
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for i in 0..1u64 << 16 {
            let success = (i * 7_919) % N;
            let draws = 1 + (i * 104_729) % 283;
            let x = Hypergeometric::new(N, success, draws).sample(&mut rng);
            digest = (digest ^ x).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(digest, 0x3587_d863_d09e_02c8, "digest {digest:#018x}");
    }

    #[test]
    #[should_panic(expected = "success ≤ total")]
    fn hypergeometric_rejects_success_above_total() {
        let _ = Hypergeometric::new(5, 6, 2);
    }

    #[test]
    #[should_panic(expected = "draws ≤ total")]
    fn hypergeometric_rejects_draws_above_total() {
        let _ = Hypergeometric::new(5, 2, 6);
    }

    #[test]
    fn chained_hypergeometric_means_match_exact_at_count_scale() {
        // The count tier's batch composition: a chain of conditional
        // hypergeometrics over the state classes, each drawing from
        // what the earlier classes left. Each class's count is
        // marginally Hypergeometric(total, cᵢ, draws), so its mean is
        // exactly draws·cᵢ/total.
        let population = [600_000_000u64, 300_000_000, 100_000_000];
        let total: u64 = population.iter().sum();
        let draws = 1_000u64;
        let samples = 2_000u64;
        let mut rng = SmallRng::seed_from_u64(59);
        let mut sums = [0u64; 3];
        for _ in 0..samples {
            let (mut pool, mut need) = (total, draws);
            for (sum, &c) in sums.iter_mut().zip(&population) {
                let k = Hypergeometric::new(pool, c, need).sample(&mut rng);
                *sum += k;
                pool -= c;
                need -= k;
            }
            assert_eq!(need, 0, "the chain must place every draw");
        }
        for (i, (&sum, &c)) in sums.iter().zip(&population).enumerate() {
            let p = c as f64 / total as f64;
            let exact = draws as f64 * p;
            // Four standard errors of the sample mean.
            let tol = 4.0 * (draws as f64 * p * (1.0 - p) / samples as f64).sqrt();
            let mean = sum as f64 / samples as f64;
            assert!(
                (mean - exact).abs() < tol,
                "class {i}: mean {mean}, exact {exact}"
            );
        }
    }
}
