//! Low-level noise samplers.
//!
//! These are the raw distributions the mechanisms are assembled from.
//! They are public so that tests, benches and downstream experiment code
//! can sample directly, but typical callers should use the mechanism
//! types ([`crate::LaplaceMechanism`] etc.), which pair a sampler with a
//! validated privacy calibration.
//!
//! All samplers take the RNG explicitly so behaviour is reproducible
//! under a fixed seed, and all are implemented here rather than pulled
//! from `rand_distr` so the exact sampling logic is auditable in-repo —
//! a common requirement for DP codebases.

use rand::Rng;

/// Samples uniformly from the *open* interval `(0, 1)`.
///
/// Never returns exactly `0.0` or `1.0`, which protects the log-based
/// transforms below from producing `±∞`.
pub fn uniform_open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen(); // [0, 1)
        if u > 0.0 {
            return u;
        }
    }
}

/// Samples `Laplace(0, scale)` via inverse-CDF.
///
/// The density is `f(x) = exp(−|x|/scale) / (2·scale)`.
///
/// # Panics
///
/// Debug-asserts that `scale` is finite and positive; calibration is the
/// mechanism layer's responsibility.
pub fn laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    debug_assert!(scale.is_finite() && scale > 0.0);
    laplace_from_uniform(uniform_open01(rng), scale)
}

/// The pure inverse-CDF half of [`laplace`]: maps one open-`(0,1)`
/// uniform to a `Laplace(0, scale)` draw, consuming no randomness.
/// Shared verbatim by the single-draw sampler and the batched
/// transforms, so the two are bit-identical by construction.
#[inline]
fn laplace_from_uniform(u: f64, scale: f64) -> f64 {
    // u ∈ (−0.5, 0.5); x = −scale · sign(u) · ln(1 − 2|u|)
    let u = u - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Samples `N(0, std²)` using Marsaglia's polar method.
///
/// The polar method avoids trig calls and is numerically robust; the
/// second variate of each pair is intentionally discarded to keep the
/// sampler stateless (and therefore trivially reproducible across calls).
///
/// # Panics
///
/// Debug-asserts that `std` is finite and positive.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, std: f64) -> f64 {
    debug_assert!(std.is_finite() && std > 0.0);
    loop {
        let u = 2.0 * uniform_open01(rng) - 1.0;
        let v = 2.0 * uniform_open01(rng) - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return std * u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples the standard Gumbel distribution `G(0, 1)`.
///
/// Used by the exponential mechanism's Gumbel-max implementation:
/// `argmax_i (score_i + Gumbel_i)` selects index `i` with probability
/// proportional to `exp(score_i)` without ever materializing the
/// (potentially overflowing) softmax weights.
pub fn gumbel<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    -(-uniform_open01(rng).ln()).ln()
}

/// Samples the two-sided geometric ("discrete Laplace") distribution with
/// decay `alpha ∈ (0, 1)`: `P[X = k] = ((1−α)/(1+α)) · α^{|k|}`.
///
/// This is the integer-valued analogue of the Laplace distribution; the
/// geometric mechanism adds this noise to integer counts.
///
/// # Panics
///
/// Debug-asserts `alpha ∈ (0, 1)`.
pub fn two_sided_geometric<R: Rng + ?Sized>(rng: &mut R, alpha: f64) -> i64 {
    debug_assert!(alpha > 0.0 && alpha < 1.0);
    let p_zero = (1.0 - alpha) / (1.0 + alpha);
    let u = uniform_open01(rng);
    if u < p_zero {
        return 0;
    }
    // Magnitude m ≥ 1 follows Geometric(1−α): P[m] = (1−α)·α^{m−1}.
    let m = geometric_at_least_one(rng, alpha);
    if rng.gen::<bool>() {
        m
    } else {
        -m
    }
}

/// Samples `m ≥ 1` with `P[m] = (1−α)·α^{m−1}` by CDF inversion:
/// `m = ⌈ln(u)/ln(α)⌉` for `u ∈ (0,1)`.
fn geometric_at_least_one<R: Rng + ?Sized>(rng: &mut R, alpha: f64) -> i64 {
    let u = uniform_open01(rng);
    let m = (u.ln() / alpha.ln()).ceil();
    // Clamp pathological roundings into the valid support.
    if m < 1.0 {
        1
    } else if m > i64::MAX as f64 {
        i64::MAX
    } else {
        m as i64
    }
}

/// Block size of the batched Laplace samplers: uniforms are pre-drawn
/// into a stack buffer of this many slots, then transformed in one loop.
const LAPLACE_BLOCK: usize = 256;

/// Fills `out` with independent `Laplace(0, scale)` draws.
///
/// The batched analogue of [`laplace`]: one calibration check, `N`
/// draws, no per-cell dispatch. **Bit-identical stream** to `N` calls
/// to [`laplace`] under the same RNG state: uniforms are pre-drawn
/// block-wise in element order (the inverse-CDF transform consumes no
/// randomness, so hoisting it changes nothing about the draw
/// sequence), then mapped through the transform in one branch-free
/// elementwise loop, instead of alternating RNG state updates with `ln`
/// calls per element.
/// Pinned by `laplace_into_matches_repeated_single_draws` and the
/// property suite.
///
/// # Panics
///
/// Debug-asserts that `scale` is finite and positive.
pub fn laplace_into<R: Rng + ?Sized>(rng: &mut R, scale: f64, out: &mut [f64]) {
    debug_assert!(scale.is_finite() && scale > 0.0);
    let mut uniforms = [0.0f64; LAPLACE_BLOCK];
    for block in out.chunks_mut(LAPLACE_BLOCK) {
        let us = &mut uniforms[..block.len()];
        for u in us.iter_mut() {
            *u = uniform_open01(rng);
        }
        laplace_transform_into(us, scale, block);
    }
}

/// Adds independent `Laplace(0, scale)` draws to every element of
/// `values` in place — the zero-allocation batched hot path
/// [`crate::LaplaceMechanism::randomize_slice`] runs on. Same
/// pre-drawn-uniform stream as [`laplace_into`]: bit-identical to a
/// per-element `values[i] += laplace(rng, scale)` loop under the same
/// seed.
///
/// # Panics
///
/// Debug-asserts that `scale` is finite and positive.
pub fn laplace_add_into<R: Rng + ?Sized>(rng: &mut R, scale: f64, values: &mut [f64]) {
    debug_assert!(scale.is_finite() && scale > 0.0);
    let mut uniforms = [0.0f64; LAPLACE_BLOCK];
    for block in values.chunks_mut(LAPLACE_BLOCK) {
        let us = &mut uniforms[..block.len()];
        for u in us.iter_mut() {
            *u = uniform_open01(rng);
        }
        laplace_transform_add(us, scale, block);
    }
}

/// Pure transform `out[i] = InverseCdf(uniforms[i])`: elementwise
/// [`laplace_from_uniform`], so each output sees exactly the ops the
/// scalar sampler runs.
#[inline]
fn laplace_transform_into(uniforms: &[f64], scale: f64, out: &mut [f64]) {
    for (slot, &u) in out.iter_mut().zip(uniforms) {
        *slot = laplace_from_uniform(u, scale);
    }
}

/// Pure transform `values[i] += InverseCdf(uniforms[i])`.
#[inline]
fn laplace_transform_add(uniforms: &[f64], scale: f64, values: &mut [f64]) {
    for (slot, &u) in values.iter_mut().zip(uniforms) {
        *slot += laplace_from_uniform(u, scale);
    }
}

/// Fills `out` with independent `N(0, std²)` draws.
///
/// Unlike the stateless single-draw [`gaussian`], the batched sampler
/// keeps **both** variates of each Marsaglia polar pair, halving the
/// uniform draws and rejection loops per output. The stream therefore
/// differs from repeated [`gaussian`] calls, but is equally
/// deterministic under a fixed seed.
///
/// # Panics
///
/// Debug-asserts that `std` is finite and positive.
pub fn gaussian_into<R: Rng + ?Sized>(rng: &mut R, std: f64, out: &mut [f64]) {
    gaussian_pairs(rng, std, out.len(), |i, x| out[i] = x);
}

/// Adds independent `N(0, std²)` draws to every element of `values` in
/// place — the zero-allocation variant of [`gaussian_into`] the
/// disclosure hot path uses. Same polar-pair stream as
/// [`gaussian_into`] under the same seed.
///
/// # Panics
///
/// Debug-asserts that `std` is finite and positive.
pub fn gaussian_add_into<R: Rng + ?Sized>(rng: &mut R, std: f64, values: &mut [f64]) {
    gaussian_pairs(rng, std, values.len(), |i, x| values[i] += x);
}

/// Shared polar-pair driver for the batched Gaussian samplers: emits
/// `len` variates, consuming both halves of each pair.
fn gaussian_pairs<R: Rng + ?Sized>(
    rng: &mut R,
    std: f64,
    len: usize,
    mut emit: impl FnMut(usize, f64),
) {
    debug_assert!(std.is_finite() && std > 0.0);
    let mut i = 0;
    while i < len {
        let (u, v, s) = loop {
            let u = 2.0 * uniform_open01(rng) - 1.0;
            let v = 2.0 * uniform_open01(rng) - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                break (u, v, s);
            }
        };
        let factor = (-2.0 * s.ln() / s).sqrt();
        emit(i, std * u * factor);
        i += 1;
        if i < len {
            emit(i, std * v * factor);
            i += 1;
        }
    }
}

/// Fills `out` with independent two-sided geometric draws of decay
/// `alpha` (see [`two_sided_geometric`]).
///
/// # Panics
///
/// Debug-asserts `alpha ∈ (0, 1)`.
pub fn two_sided_geometric_into<R: Rng + ?Sized>(rng: &mut R, alpha: f64, out: &mut [i64]) {
    debug_assert!(alpha > 0.0 && alpha < 1.0);
    for slot in out {
        *slot = two_sided_geometric(rng, alpha);
    }
}

/// Samples `Bernoulli(p)`.
///
/// # Panics
///
/// Debug-asserts `p ∈ [0, 1]`.
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    debug_assert!((0.0..=1.0).contains(&p));
    rng.gen::<f64>() < p
}

/// Samples an index from an explicit discrete distribution given by
/// (unnormalized, non-negative) `weights`.
///
/// Returns `None` when all weights are zero or the slice is empty.
pub fn discrete<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().sum();
    if !(total.is_finite()) || total <= 0.0 {
        return None;
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        target -= w;
        if target < 0.0 {
            return Some(i);
        }
    }
    // Floating-point slack: fall back to the last positively weighted index.
    weights.iter().rposition(|w| *w > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    const N: usize = 200_000;

    #[test]
    fn uniform_open01_stays_open() {
        let mut r = rng(1);
        for _ in 0..10_000 {
            let u = uniform_open01(&mut r);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn laplace_moments_match_theory() {
        let mut r = rng(2);
        let scale = 3.0;
        let xs: Vec<f64> = (0..N).map(|_| laplace(&mut r, scale)).collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / N as f64;
        // Var = 2·scale² = 18; E = 0. Standard error of the mean ≈ scale·√2/√N ≈ 0.0095.
        assert!(mean.abs() < 0.05, "laplace mean {mean}");
        assert!((var - 18.0).abs() < 0.6, "laplace var {var}");
    }

    #[test]
    fn laplace_mean_absolute_deviation_is_scale() {
        let mut r = rng(3);
        let scale = 2.5;
        let mad = (0..N).map(|_| laplace(&mut r, scale).abs()).sum::<f64>() / N as f64;
        assert!((mad - scale).abs() < 0.03, "laplace MAD {mad}");
    }

    #[test]
    fn gaussian_moments_match_theory() {
        let mut r = rng(4);
        let std = 2.0;
        let xs: Vec<f64> = (0..N).map(|_| gaussian(&mut r, std)).collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / N as f64;
        assert!(mean.abs() < 0.02, "gaussian mean {mean}");
        assert!((var - 4.0).abs() < 0.08, "gaussian var {var}");
    }

    #[test]
    fn gaussian_tail_fraction_is_plausible() {
        // P[|X| > 2σ] ≈ 0.0455.
        let mut r = rng(5);
        let std = 1.5;
        let frac = (0..N)
            .filter(|_| gaussian(&mut r, std).abs() > 2.0 * std)
            .count() as f64
            / N as f64;
        assert!((frac - 0.0455).abs() < 0.004, "tail fraction {frac}");
    }

    #[test]
    fn gumbel_mean_is_euler_mascheroni() {
        let mut r = rng(6);
        let mean = (0..N).map(|_| gumbel(&mut r)).sum::<f64>() / N as f64;
        assert!((mean - 0.5772).abs() < 0.02, "gumbel mean {mean}");
    }

    #[test]
    fn two_sided_geometric_is_symmetric_with_correct_zero_mass() {
        let mut r = rng(7);
        let alpha: f64 = 0.6;
        let xs: Vec<i64> = (0..N).map(|_| two_sided_geometric(&mut r, alpha)).collect();
        let zero_frac = xs.iter().filter(|x| **x == 0).count() as f64 / N as f64;
        let want_zero = (1.0 - alpha) / (1.0 + alpha);
        assert!(
            (zero_frac - want_zero).abs() < 0.01,
            "zero mass {zero_frac} vs {want_zero}"
        );
        let mean = xs.iter().sum::<i64>() as f64 / N as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // P[X = 1] = P[X = −1] = want_zero·α.
        let one = xs.iter().filter(|x| **x == 1).count() as f64 / N as f64;
        let neg_one = xs.iter().filter(|x| **x == -1).count() as f64 / N as f64;
        assert!((one - want_zero * alpha).abs() < 0.01);
        assert!((neg_one - want_zero * alpha).abs() < 0.01);
    }

    #[test]
    fn two_sided_geometric_variance_matches_theory() {
        // Var = 2α/(1−α)².
        let mut r = rng(8);
        let alpha: f64 = 0.5;
        let xs: Vec<i64> = (0..N).map(|_| two_sided_geometric(&mut r, alpha)).collect();
        let mean = xs.iter().sum::<i64>() as f64 / N as f64;
        let var = xs
            .iter()
            .map(|x| (*x as f64 - mean) * (*x as f64 - mean))
            .sum::<f64>()
            / N as f64;
        let want = 2.0 * alpha / ((1.0 - alpha) * (1.0 - alpha));
        assert!((var - want).abs() < 0.15, "var {var} vs {want}");
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let mut r = rng(9);
        let p = 0.3;
        let hits = (0..N).filter(|_| bernoulli(&mut r, p)).count() as f64 / N as f64;
        assert!((hits - p).abs() < 0.01, "frequency {hits}");
    }

    #[test]
    fn discrete_respects_weights() {
        let mut r = rng(10);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..N {
            counts[discrete(&mut r, &weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac0 = counts[0] as f64 / N as f64;
        assert!((frac0 - 0.25).abs() < 0.01, "frac0 {frac0}");
    }

    #[test]
    fn discrete_degenerate_inputs() {
        let mut r = rng(11);
        assert_eq!(discrete(&mut r, &[]), None);
        assert_eq!(discrete(&mut r, &[0.0, 0.0]), None);
        assert_eq!(discrete(&mut r, &[0.0, 5.0]), Some(1));
    }

    #[test]
    fn laplace_into_matches_repeated_single_draws() {
        let mut a = rng(20);
        let mut batched = vec![0.0; 64];
        laplace_into(&mut a, 1.5, &mut batched);
        let mut b = rng(20);
        let singles: Vec<f64> = (0..64).map(|_| laplace(&mut b, 1.5)).collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn gaussian_into_moments_match_theory() {
        let mut r = rng(21);
        let std = 3.0;
        let mut xs = vec![0.0; N];
        gaussian_into(&mut r, std, &mut xs);
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / N as f64;
        assert!(mean.abs() < 0.03, "gaussian_into mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "gaussian_into var {var}");
        // Paired variates must not be correlated in sign beyond chance.
        let agree = xs
            .chunks(2)
            .filter(|c| c.len() == 2 && (c[0] > 0.0) == (c[1] > 0.0))
            .count() as f64
            / (N / 2) as f64;
        assert!((agree - 0.5).abs() < 0.01, "pair sign agreement {agree}");
    }

    #[test]
    fn gaussian_into_odd_length_fills_every_slot() {
        let mut r = rng(22);
        let mut xs = vec![f64::NAN; 7];
        gaussian_into(&mut r, 1.0, &mut xs);
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn two_sided_geometric_into_matches_theory() {
        let mut r = rng(23);
        let alpha = 0.5;
        let mut xs = vec![0i64; N];
        two_sided_geometric_into(&mut r, alpha, &mut xs);
        let zero_frac = xs.iter().filter(|x| **x == 0).count() as f64 / N as f64;
        let want_zero = (1.0 - alpha) / (1.0 + alpha);
        assert!((zero_frac - want_zero).abs() < 0.01, "zero mass {zero_frac}");
        let mean = xs.iter().sum::<i64>() as f64 / N as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn batched_samplers_are_deterministic() {
        let mut a = vec![0.0; 33];
        let mut b = vec![0.0; 33];
        gaussian_into(&mut rng(24), 2.0, &mut a);
        gaussian_into(&mut rng(24), 2.0, &mut b);
        assert_eq!(a, b);
        let mut c = vec![0i64; 33];
        let mut d = vec![0i64; 33];
        two_sided_geometric_into(&mut rng(25), 0.4, &mut c);
        two_sided_geometric_into(&mut rng(25), 0.4, &mut d);
        assert_eq!(c, d);
    }

    #[test]
    fn samplers_are_deterministic_under_fixed_seed() {
        let a: Vec<f64> = {
            let mut r = rng(42);
            (0..32).map(|_| laplace(&mut r, 1.0)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng(42);
            (0..32).map(|_| laplace(&mut r, 1.0)).collect()
        };
        assert_eq!(a, b);
    }
}
