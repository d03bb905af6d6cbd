//! Property-based tests for the numerics crate.

use popele_math::bounds::{harmonic, rate_c};
use popele_math::dist::Geometric;
use popele_math::fit::{linear_fit, power_fit};
use popele_math::linalg::Matrix;
use popele_math::rng::{small_rng, SeedSeq};
use popele_math::stats::{Summary, Welford};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Summary and Welford agree on mean and variance for any sample.
    #[test]
    fn summary_welford_agree(values in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let summary = Summary::from_slice(&values);
        let mut welford = Welford::new();
        for &v in &values {
            welford.push(v);
        }
        let scale = summary.variance().abs().max(1.0);
        prop_assert!((summary.mean() - welford.mean()).abs() < 1e-6);
        prop_assert!((summary.variance() - welford.variance()).abs() / scale < 1e-6);
    }

    /// Quantiles are monotone and bounded by min/max.
    #[test]
    fn quantiles_monotone(values in prop::collection::vec(-1e3f64..1e3, 1..100),
                          q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let s = Summary::from_slice(&values);
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        prop_assert!(s.quantile(lo) <= s.quantile(hi) + 1e-12);
        prop_assert!(s.quantile(0.0) >= s.min() - 1e-12);
        prop_assert!(s.quantile(1.0) <= s.max() + 1e-12);
    }

    /// Welford merge is order-independent (associativity up to fp noise).
    #[test]
    fn welford_merge_commutes(a in prop::collection::vec(-100f64..100.0, 1..50),
                              b in prop::collection::vec(-100f64..100.0, 1..50)) {
        let fill = |xs: &[f64]| {
            let mut w = Welford::new();
            for &x in xs {
                w.push(x);
            }
            w
        };
        let mut ab = fill(&a);
        ab.merge(&fill(&b));
        let mut ba = fill(&b);
        ba.merge(&fill(&a));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
    }

    /// Power-law fits recover planted exponents exactly on clean data.
    #[test]
    fn power_fit_recovers_planted(exp in -2.0f64..3.0, coeff in 0.1f64..50.0) {
        let points: Vec<(f64, f64)> = (1..8)
            .map(|i| {
                let x = f64::from(i) * 2.0;
                (x, coeff * x.powf(exp))
            })
            .collect();
        let fit = power_fit(&points);
        prop_assert!((fit.exponent - exp).abs() < 1e-8, "fit {} vs {}", fit.exponent, exp);
        prop_assert!((fit.coefficient - coeff).abs() / coeff < 1e-6);
        prop_assert!(fit.r_squared > 1.0 - 1e-9);
    }

    /// Linear fit residual orthogonality: slope of residuals is ~0.
    #[test]
    fn linear_fit_residuals_flat(seed in any::<u64>()) {
        let mut rng = small_rng(seed);
        use rand::Rng;
        let points: Vec<(f64, f64)> = (0..30)
            .map(|i| (f64::from(i), 3.0 * f64::from(i) + rng.random::<f64>() * 10.0))
            .collect();
        let fit = linear_fit(&points);
        let residuals: Vec<(f64, f64)> = points
            .iter()
            .map(|&(x, y)| (x, y - (fit.slope * x + fit.intercept)))
            .collect();
        let rfit = linear_fit(&residuals);
        prop_assert!(rfit.slope.abs() < 1e-8, "residual slope {}", rfit.slope);
    }

    /// Geometric samples are ≥ 1 and their empirical mean tracks 1/p.
    #[test]
    fn geometric_mean_tracks(p in 0.05f64..1.0, seed in any::<u64>()) {
        let g = Geometric::new(p);
        let mut rng = small_rng(seed);
        let n = 4000;
        let mut sum = 0u64;
        for _ in 0..n {
            let x = g.sample(&mut rng);
            prop_assert!(x >= 1);
            sum += x;
        }
        let mean = sum as f64 / f64::from(n);
        let expected = 1.0 / p;
        // 4000 samples: allow 5 standard errors.
        let se = ((1.0 - p).max(0.0)).sqrt() / p / f64::from(n).sqrt();
        prop_assert!((mean - expected).abs() < 5.0 * se + 0.05,
            "mean {} expected {}", mean, expected);
    }

    /// Gaussian elimination: A·solve(A, b) = b for diagonally dominant A.
    #[test]
    fn solve_roundtrip(seed in any::<u64>(), n in 2usize..15) {
        let mut rng = small_rng(seed);
        use rand::Rng;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = rng.random::<f64>() * 2.0 - 1.0;
                    a[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            a[(i, i)] = row_sum + 1.0; // strictly diagonally dominant
        }
        let b: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 10.0 - 5.0).collect();
        let x = a.clone().solve(&b).expect("dominant matrix is nonsingular");
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    /// Harmonic numbers are increasing and ln n ≤ H_n ≤ ln n + 1.
    #[test]
    fn harmonic_bounds(n in 1u64..100_000) {
        let h = harmonic(n);
        let ln = (n as f64).ln();
        prop_assert!(h >= ln, "H_{n} = {h} < ln n = {ln}");
        prop_assert!(h <= ln + 1.0, "H_{n} = {h} > ln n + 1");
        prop_assert!(harmonic(n + 1) > h);
    }

    /// The rate function c(λ) is nonnegative with unique zero at 1.
    #[test]
    fn rate_c_nonnegative(lambda in 0.01f64..20.0) {
        let c = rate_c(lambda);
        prop_assert!(c >= 0.0);
        if (lambda - 1.0).abs() > 0.05 {
            prop_assert!(c > 0.0);
        }
    }

    /// Seed sequences: child seeds are pairwise distinct for small indices.
    #[test]
    fn seed_children_distinct(master in any::<u64>()) {
        let seq = SeedSeq::new(master);
        let children: Vec<u64> = (0..64).map(|i| seq.child(i)).collect();
        let mut sorted = children.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), children.len());
    }
}
