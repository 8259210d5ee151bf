//! Laplace noise.
//!
//! `Lap(b)` has density `f(y) = exp(−|y|/b) / (2b)` (paper Eq. 4). It is the
//! noise distribution of both the classical Laplace mechanism and the final
//! release step of the recursive mechanism (`X̂ = X + Lap(Δ̂/ε₂)`).

use rand::Rng;

/// Samples `Lap(scale)` via inverse-CDF sampling.
///
/// `scale = 0` returns exactly `0`, which is convenient for "no noise"
/// debugging runs. The inverse CDF `−b·sgn(u)·ln(1 − 2|u|)` needs `u` on the
/// **open** interval `(−½, ½)`: `gen::<f64>()` is uniform on `[0, 1)`, and a
/// draw of exactly `0` would give `u = −½` and `ln 0 = −∞`. That draw is
/// resampled away, as in [`crate::cauchy::sample_standard_cauchy`]; it
/// occurs with probability 2⁻⁵³, so every other draw — and the output
/// distribution — is unchanged. Every returned sample is finite.
pub fn sample_laplace<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    assert!(
        scale >= 0.0 && scale.is_finite(),
        "invalid Laplace scale {scale}"
    );
    // lint:allow(float-eq): exact zero-scale short-circuit — zero sensitivity must add exactly zero noise, and the guard above rejects negatives
    if scale == 0.0 {
        return 0.0;
    }
    // u uniform in (-0.5, 0.5); inverse CDF of the Laplace distribution.
    let u = loop {
        let draw: f64 = rng.gen::<f64>();
        if draw > 0.0 {
            break draw - 0.5;
        }
    };
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Density of `Lap(scale)` at `y`.
pub fn laplace_pdf(y: f64, scale: f64) -> f64 {
    (-(y.abs()) / scale).exp() / (2.0 * scale)
}

/// `Pr[|Lap(scale)| > t]` — the two-sided tail used in accuracy statements.
pub fn laplace_tail(t: f64, scale: f64) -> f64 {
    if t <= 0.0 {
        1.0
    } else {
        (-t / scale).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_scale_is_noiseless() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_laplace(0.0, &mut rng), 0.0);
    }

    #[test]
    fn the_zero_draw_is_resampled() {
        // Unresampled, a uniform draw of exactly 0 evaluates ln 0 = −∞.
        let mut rng = crate::cauchy::tests::ZeroFirst { calls: 0 };
        let sample = sample_laplace(1.0, &mut rng);
        assert_eq!(rng.calls, 2, "the zero draw must be rejected");
        assert!(sample.is_finite(), "sample {sample}");
        assert_ne!(sample, 0.0);
    }

    #[test]
    fn empirical_mean_and_spread_match_theory() {
        let mut rng = StdRng::seed_from_u64(7);
        let scale = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(scale, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mean_abs = samples.iter().map(|x| x.abs()).sum::<f64>() / n as f64;
        // E[Lap(b)] = 0, E[|Lap(b)|] = b.
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((mean_abs - scale).abs() < 0.05, "mean abs {mean_abs}");
    }

    #[test]
    fn empirical_tail_matches_formula() {
        let mut rng = StdRng::seed_from_u64(13);
        let scale = 1.5;
        let t = 3.0;
        let n = 100_000;
        let exceed = (0..n)
            .filter(|_| sample_laplace(scale, &mut rng).abs() > t)
            .count() as f64
            / n as f64;
        let expected = laplace_tail(t, scale);
        assert!((exceed - expected).abs() < 0.01, "{exceed} vs {expected}");
    }

    #[test]
    fn pdf_is_symmetric_and_normalised_roughly() {
        let scale = 0.7;
        assert!((laplace_pdf(1.0, scale) - laplace_pdf(-1.0, scale)).abs() < 1e-15);
        // Trapezoid integration over a wide range ≈ 1.
        let step = 0.001;
        let integral: f64 = (-20_000..20_000)
            .map(|i| laplace_pdf(i as f64 * step, scale) * step)
            .sum();
        assert!((integral - 1.0).abs() < 1e-3, "{integral}");
    }

    #[test]
    #[should_panic(expected = "invalid Laplace scale")]
    fn negative_scale_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = sample_laplace(-1.0, &mut rng);
    }
}
