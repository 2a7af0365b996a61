use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::budget::Epsilon;
use crate::sampling;
use crate::sensitivity::L1Sensitivity;
use crate::Result;

/// The **Laplace mechanism**: releases `q(D) + Laplace(Δ₁/ε)`.
///
/// Guarantees pure `ε`-differential privacy with respect to whichever
/// adjacency relation the supplied sensitivity was computed under — for
/// this workspace that is usually the paper's *group-level* adjacency,
/// with `Δ₁` equal to the largest whole-group contribution to the query.
///
/// ```
/// use gdp_mechanisms::{Epsilon, L1Sensitivity, LaplaceMechanism};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let mech = LaplaceMechanism::new(Epsilon::new(1.0)?, L1Sensitivity::new(2.0)?)?;
/// assert_eq!(mech.scale(), 2.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let noisy = mech.randomize(100.0, &mut rng);
/// assert!(noisy.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaplaceMechanism {
    epsilon: Epsilon,
    sensitivity: L1Sensitivity,
    scale: f64,
}

impl LaplaceMechanism {
    /// Creates a Laplace mechanism calibrated to `(ε, Δ₁)`.
    ///
    /// # Errors
    ///
    /// Never fails for valid `Epsilon`/`L1Sensitivity` inputs; the
    /// `Result` return keeps the constructor signature uniform across
    /// mechanisms (the Gaussian constructors can genuinely fail).
    pub fn new(epsilon: Epsilon, sensitivity: L1Sensitivity) -> Result<Self> {
        let scale = sensitivity.get() / epsilon.get();
        Ok(Self {
            epsilon,
            sensitivity,
            scale,
        })
    }

    /// The privacy parameter this mechanism was calibrated to.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The sensitivity bound this mechanism was calibrated to.
    pub fn sensitivity(&self) -> L1Sensitivity {
        self.sensitivity
    }

    /// The noise scale `b = Δ₁/ε`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Expected absolute error of a single release, `E|X| = b`.
    pub fn expected_absolute_error(&self) -> f64 {
        self.scale
    }

    /// Noise variance, `2b²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// Releases a single noisy value.
    pub fn randomize<R: Rng + ?Sized>(&self, true_value: f64, rng: &mut R) -> f64 {
        true_value + sampling::laplace(rng, self.scale)
    }

    /// Releases a noisy copy of a vector query answer. The `Δ₁` this
    /// mechanism was built with must bound the *whole-vector* L1 change
    /// under one adjacency step.
    pub fn randomize_vec<R: Rng + ?Sized>(&self, values: &[f64], rng: &mut R) -> Vec<f64> {
        let mut out = values.to_vec();
        self.randomize_slice(&mut out, rng);
        out
    }

    /// Fills `noise` with independent draws from this mechanism's noise
    /// distribution — one calibration, `N` draws, no per-cell dispatch.
    pub fn sample_into<R: Rng + ?Sized>(&self, noise: &mut [f64], rng: &mut R) {
        sampling::laplace_into(rng, self.scale, noise);
    }

    /// Adds calibrated noise to every element of `values` in place — the
    /// batched hot path the disclosure pipeline uses. Runs the block-wise
    /// pre-drawn-uniform transform ([`sampling::laplace_add_into`]),
    /// bit-identical to a per-element `v += laplace(rng, scale)` loop
    /// under the same seed.
    pub fn randomize_slice<R: Rng + ?Sized>(&self, values: &mut [f64], rng: &mut R) {
        sampling::laplace_add_into(rng, self.scale, values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mech(eps: f64, sens: f64) -> LaplaceMechanism {
        LaplaceMechanism::new(
            Epsilon::new(eps).unwrap(),
            L1Sensitivity::new(sens).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn scale_is_sensitivity_over_epsilon() {
        assert_eq!(mech(0.5, 4.0).scale(), 8.0);
        assert_eq!(mech(2.0, 4.0).scale(), 2.0);
    }

    #[test]
    fn noise_is_centered_on_true_value() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mean = (0..n).map(|_| m.randomize(500.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 500.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn empirical_mad_matches_expected_absolute_error() {
        let m = mech(0.25, 2.0); // b = 8
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let mad = (0..n)
            .map(|_| (m.randomize(0.0, &mut rng)).abs())
            .sum::<f64>()
            / n as f64;
        assert!(
            (mad - m.expected_absolute_error()).abs() < 0.15,
            "mad {mad}"
        );
    }

    #[test]
    fn randomize_vec_has_independent_noise() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let out = m.randomize_vec(&[0.0, 0.0, 0.0, 0.0], &mut rng);
        assert_eq!(out.len(), 4);
        // With continuous noise, ties are a probability-zero event.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(out[i], out[j]);
            }
        }
    }

    #[test]
    fn empirical_dp_bound_holds_on_interval_events() {
        // Audit ε-DP on adjacent answers 0 and Δ: for events E = buckets,
        // P[M(0) ∈ E] ≤ e^ε P[M(Δ) ∈ E] + slack.
        let eps = 0.8;
        let m = mech(eps, 1.0);
        let n = 400_000usize;
        let mut rng = StdRng::seed_from_u64(4);
        let a: Vec<f64> = (0..n).map(|_| m.randomize(0.0, &mut rng)).collect();
        let b: Vec<f64> = (0..n).map(|_| m.randomize(1.0, &mut rng)).collect();
        // Buckets of width 0.5 over [-4, 5].
        let lo = -4.0;
        let width = 0.5;
        let buckets = 18;
        let hist = |xs: &[f64]| {
            let mut h = vec![0f64; buckets];
            for &x in xs {
                let idx = ((x - lo) / width).floor();
                if idx >= 0.0 && (idx as usize) < buckets {
                    h[idx as usize] += 1.0;
                }
            }
            for c in &mut h {
                *c /= xs.len() as f64;
            }
            h
        };
        let ha = hist(&a);
        let hb = hist(&b);
        let slack = 0.01; // sampling error allowance
        for i in 0..buckets {
            assert!(
                ha[i] <= eps.exp() * hb[i] + slack,
                "bucket {i}: {} vs {}",
                ha[i],
                hb[i]
            );
            assert!(
                hb[i] <= eps.exp() * ha[i] + slack,
                "bucket {i} (rev): {} vs {}",
                hb[i],
                ha[i]
            );
        }
    }

    #[test]
    fn sample_into_and_randomize_slice_agree_with_scale() {
        let m = mech(0.5, 2.0); // b = 4
        let mut rng = StdRng::seed_from_u64(40);
        let mut noise = vec![0.0; 100_000];
        m.sample_into(&mut noise, &mut rng);
        let mad = noise.iter().map(|x| x.abs()).sum::<f64>() / noise.len() as f64;
        assert!((mad - m.scale()).abs() < 0.1, "batched MAD {mad}");

        // randomize_slice adds noise on top of the existing values.
        let mut values = vec![100.0; 4096];
        m.randomize_slice(&mut values, &mut StdRng::seed_from_u64(41));
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - 100.0).abs() < 1.0, "slice mean {mean}");
    }

    #[test]
    fn slice_api_is_deterministic_and_matches_randomize_vec() {
        let m = mech(1.0, 1.0);
        let values = [5.0, 6.0, 7.0, 8.0];
        let a = m.randomize_vec(&values, &mut StdRng::seed_from_u64(42));
        let mut b = values.to_vec();
        m.randomize_slice(&mut b, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn serde_round_trip_via_debug_fields() {
        let m = mech(0.5, 3.0);
        assert_eq!(m.epsilon().get(), 0.5);
        assert_eq!(m.sensitivity().get(), 3.0);
        assert_eq!(m.variance(), 2.0 * 36.0);
    }
}
