//! Cauchy noise, used by smooth-sensitivity mechanisms.

use rand::Rng;

/// Samples the standard Cauchy distribution (median 0, scale 1).
///
/// Inverse-CDF sampling `tan(π(u − ½))` needs `u` on the **open** interval
/// `(0, 1)`: the generator's `gen::<f64>()` is uniform on the half-open
/// `[0, 1)`, and `u = 0` would evaluate `tan(−π/2)` — an astronomically
/// large, rounding-defined value that turns a release into garbage (and
/// `0 × huge` downstream into NaN territory). The zero is resampled away;
/// it occurs with probability 2⁻⁵³ per draw, so the loop terminates on the
/// first iteration in practice and leaves the output distribution exactly
/// Cauchy. Every returned sample is finite.
pub fn sample_standard_cauchy<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen::<f64>();
        if u > 0.0 {
            return (std::f64::consts::PI * (u - 0.5)).tan();
        }
    }
}

/// Samples a Cauchy distribution with the given scale.
///
/// A zero scale short-circuits to exactly `0.0` **before** any multiplication
/// with the (potentially astronomically large) standard sample, so degenerate
/// "no noise" runs can never produce a `0 × huge` rounding artefact.
pub fn sample_cauchy<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    assert!(
        scale >= 0.0 && scale.is_finite(),
        "invalid Cauchy scale {scale}"
    );
    // lint:allow(float-eq): exact zero-scale short-circuit — zero sensitivity must add exactly zero noise, and the guard above rejects negatives
    if scale == 0.0 {
        return 0.0;
    }
    scale * sample_standard_cauchy(rng)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn median_is_zero_and_quartiles_match() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| sample_standard_cauchy(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[n / 2];
        let q3 = samples[3 * n / 4];
        // Median 0, upper quartile 1 for the standard Cauchy.
        assert!(median.abs() < 0.02, "median {median}");
        assert!((q3 - 1.0).abs() < 0.05, "q3 {q3}");
    }

    #[test]
    fn scale_multiplies_quartiles() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| sample_cauchy(4.0, &mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let q3 = samples[3 * n / 4];
        assert!((q3 - 4.0).abs() < 0.2, "q3 {q3}");
    }

    #[test]
    fn zero_scale_is_degenerate() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(sample_cauchy(0.0, &mut rng), 0.0);
    }

    /// A generator whose first word is exactly zero — the uniform draw of
    /// `0.0` that, unresampled, evaluates `tan(−π/2)` here and `ln 0` in
    /// [`crate::laplace::sample_laplace`] — followed by ordinary nonzero
    /// words.
    pub(crate) struct ZeroFirst {
        pub(crate) calls: u64,
    }

    impl RngCore for ZeroFirst {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let word = if self.calls == 0 { 0 } else { self.calls << 40 };
            self.calls += 1;
            word
        }
    }

    #[test]
    fn the_u_equals_zero_draw_is_resampled() {
        let mut rng = ZeroFirst { calls: 0 };
        let sample = sample_standard_cauchy(&mut rng);
        assert_eq!(rng.calls, 2, "the zero draw must be rejected");
        assert!(sample.is_finite());
        // Without resampling, u = 0 evaluates tan(−π/2) ≈ −1.6e16 — an
        // answer-destroying magnitude. The resampled draw stays sane.
        assert!(sample.abs() < 1e12, "sample {sample}");
    }

    #[test]
    fn zero_scale_never_multiplies_a_huge_tail_sample() {
        // Even against the adversarial zero-first generator, a degenerate
        // scale is exactly zero (and draws nothing).
        let mut rng = ZeroFirst { calls: 0 };
        assert_eq!(sample_cauchy(0.0, &mut rng), 0.0);
        assert_eq!(rng.calls, 0);
    }

    proptest! {
        #[test]
        fn samples_are_always_finite(seed in any::<u64>(), scale in 0.0f64..1e6) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let s = sample_cauchy(scale, &mut rng);
                prop_assert!(s.is_finite(), "scale {scale} produced {s}");
                prop_assert!(sample_standard_cauchy(&mut rng).is_finite());
            }
        }
    }
}
