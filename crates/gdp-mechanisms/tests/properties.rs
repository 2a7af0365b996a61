//! Property-based tests for the mechanism substrate.

use proptest::prelude::*;

use gdp_mechanisms::special::{erf, erfc, normal_cdf, normal_quantile};
use gdp_mechanisms::{
    advanced_composition, parallel_composition, sequential_composition, Delta, Epsilon,
    ExponentialMechanism, GaussianMechanism, GeometricMechanism, L1Sensitivity, L2Sensitivity,
    LaplaceMechanism, PrivacyAccountant, PrivacyBudget,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps_strategy() -> impl Strategy<Value = f64> {
    0.01f64..10.0
}

fn delta_strategy() -> impl Strategy<Value = f64> {
    1e-9f64..1e-2
}

fn sens_strategy() -> impl Strategy<Value = f64> {
    0.1f64..1e6
}

proptest! {
    #[test]
    fn epsilon_accepts_exactly_finite_positive(v in proptest::num::f64::ANY) {
        let ok = v.is_finite() && v > 0.0;
        prop_assert_eq!(Epsilon::new(v).is_ok(), ok);
    }

    #[test]
    fn delta_accepts_exactly_unit_interval(v in proptest::num::f64::ANY) {
        let ok = v.is_finite() && (0.0..1.0).contains(&v);
        prop_assert_eq!(Delta::new(v).is_ok(), ok);
    }

    #[test]
    fn laplace_scale_formula_holds(e in eps_strategy(), s in sens_strategy()) {
        let mech = LaplaceMechanism::new(
            Epsilon::new(e).unwrap(),
            L1Sensitivity::new(s).unwrap(),
        ).unwrap();
        prop_assert!((mech.scale() - s / e).abs() <= 1e-12 * (s / e));
        prop_assert!(mech.variance() > 0.0);
    }

    #[test]
    fn laplace_noise_is_finite(e in eps_strategy(), s in sens_strategy(), seed in 0u64..1000) {
        let mech = LaplaceMechanism::new(
            Epsilon::new(e).unwrap(),
            L1Sensitivity::new(s).unwrap(),
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert!(mech.randomize(1.0, &mut rng).is_finite());
        }
    }

    #[test]
    fn gaussian_sigma_monotone_in_parameters(
        e in 0.05f64..0.9,
        d in delta_strategy(),
        s in sens_strategy(),
    ) {
        let base = GaussianMechanism::classic(
            Epsilon::new(e).unwrap(), Delta::new(d).unwrap(),
            L2Sensitivity::new(s).unwrap()).unwrap();
        // Larger ε ⇒ less noise.
        let easier = GaussianMechanism::classic(
            Epsilon::new(e * 1.1).unwrap(), Delta::new(d).unwrap(),
            L2Sensitivity::new(s).unwrap()).unwrap();
        prop_assert!(easier.sigma() < base.sigma());
        // Larger Δ ⇒ more noise.
        let harder = GaussianMechanism::classic(
            Epsilon::new(e).unwrap(), Delta::new(d).unwrap(),
            L2Sensitivity::new(s * 2.0).unwrap()).unwrap();
        prop_assert!(harder.sigma() > base.sigma());
    }

    #[test]
    fn analytic_never_noisier_than_classic(
        e in 0.05f64..0.99,
        d in delta_strategy(),
        s in sens_strategy(),
    ) {
        let eps = Epsilon::new(e).unwrap();
        let delta = Delta::new(d).unwrap();
        let sens = L2Sensitivity::new(s).unwrap();
        let classic = GaussianMechanism::classic(eps, delta, sens).unwrap();
        let analytic = GaussianMechanism::analytic(eps, delta, sens).unwrap();
        prop_assert!(analytic.sigma() <= classic.sigma() * (1.0 + 1e-9));
        prop_assert!(analytic.sigma() > 0.0);
    }

    #[test]
    fn exponential_probabilities_form_distribution(
        utilities in proptest::collection::vec(-1e3f64..1e3, 1..40),
        e in eps_strategy(),
    ) {
        let mech = ExponentialMechanism::new(
            Epsilon::new(e).unwrap(), L1Sensitivity::unit()).unwrap();
        let p = mech.selection_probabilities(&utilities).unwrap();
        prop_assert_eq!(p.len(), utilities.len());
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|x| (0.0..=1.0 + 1e-12).contains(x)));
        // Higher utility never gets lower probability.
        for i in 0..utilities.len() {
            for j in 0..utilities.len() {
                if utilities[i] > utilities[j] {
                    prop_assert!(p[i] >= p[j] - 1e-12);
                }
            }
        }
    }

    #[test]
    fn exponential_dp_ratio_under_unit_utility_shift(
        utilities in proptest::collection::vec(-50f64..50.0, 2..20),
        idx in 0usize..19,
        e in 0.1f64..3.0,
    ) {
        let idx = idx % utilities.len();
        let mech = ExponentialMechanism::new(
            Epsilon::new(e).unwrap(), L1Sensitivity::unit()).unwrap();
        let mut shifted = utilities.clone();
        shifted[idx] += 1.0; // one adjacency step at Δu = 1
        let p = mech.selection_probabilities(&utilities).unwrap();
        let q = mech.selection_probabilities(&shifted).unwrap();
        for i in 0..p.len() {
            prop_assert!(p[i] <= e.exp() * q[i] * (1.0 + 1e-9));
            prop_assert!(q[i] <= e.exp() * p[i] * (1.0 + 1e-9));
        }
    }

    #[test]
    fn geometric_alpha_in_unit_interval(e in eps_strategy(), s in sens_strategy()) {
        let mech = GeometricMechanism::new(
            Epsilon::new(e).unwrap(), L1Sensitivity::new(s).unwrap()).unwrap();
        prop_assert!(mech.alpha() > 0.0 && mech.alpha() < 1.0);
        prop_assert!(mech.variance().is_finite());
    }

    #[test]
    fn budget_split_even_conserves_epsilon(
        e in eps_strategy(), d in delta_strategy(), parts in 1usize..50,
    ) {
        let b = PrivacyBudget::new(e, d).unwrap();
        let shares = b.split_even(parts).unwrap();
        prop_assert_eq!(shares.len(), parts);
        let eps_sum: f64 = shares.iter().map(|s| s.epsilon.get()).sum();
        let delta_sum: f64 = shares.iter().map(|s| s.delta.get()).sum();
        prop_assert!((eps_sum - e).abs() < 1e-9 * e.max(1.0));
        prop_assert!((delta_sum - d).abs() < 1e-9);
    }

    #[test]
    fn budget_split_weighted_conserves_epsilon(
        e in eps_strategy(),
        weights in proptest::collection::vec(0.01f64..100.0, 1..10),
    ) {
        let b = PrivacyBudget::pure(e).unwrap();
        let shares = b.split_weighted(&weights).unwrap();
        let eps_sum: f64 = shares.iter().map(|s| s.epsilon.get()).sum();
        prop_assert!((eps_sum - e).abs() < 1e-9 * e.max(1.0));
    }

    #[test]
    fn accountant_never_exceeds_total(
        e in 0.5f64..5.0,
        charges in proptest::collection::vec(0.01f64..1.0, 1..30),
    ) {
        let total = PrivacyBudget::pure(e).unwrap();
        let mut acct = PrivacyAccountant::new(total);
        for (i, c) in charges.iter().enumerate() {
            let _ = acct.charge(PrivacyBudget::pure(*c).unwrap(), format!("c{i}"));
            prop_assert!(acct.spent_epsilon() <= e * (1.0 + 1e-9));
        }
        // Ledger only records accepted charges.
        let ledger_sum: f64 = acct.ledger().iter().map(|l| l.budget.epsilon.get()).sum();
        prop_assert!((ledger_sum - acct.spent_epsilon()).abs() < 1e-9);
    }

    #[test]
    fn composition_identities(
        budgets in proptest::collection::vec((0.01f64..1.0, 1e-9f64..1e-4), 1..12),
    ) {
        let budgets: Vec<PrivacyBudget> = budgets
            .into_iter()
            .map(|(e, d)| PrivacyBudget::new(e, d).unwrap())
            .collect();
        let seq = sequential_composition(&budgets).unwrap();
        let par = parallel_composition(&budgets).unwrap();
        // Parallel never costs more than sequential.
        prop_assert!(par.epsilon.get() <= seq.epsilon.get() * (1.0 + 1e-12));
        prop_assert!(par.delta.get() <= seq.delta.get() + 1e-18);
        // Sequential equals the sums.
        let e_sum: f64 = budgets.iter().map(|b| b.epsilon.get()).sum();
        prop_assert!((seq.epsilon.get() - e_sum).abs() < 1e-9);
    }

    #[test]
    fn advanced_composition_epsilon_grows_with_k(
        e in 0.005f64..0.1, k in 1usize..500,
    ) {
        let step = PrivacyBudget::pure(e).unwrap();
        let dp = Delta::new(1e-6).unwrap();
        let small = advanced_composition(step, k, dp).unwrap();
        let large = advanced_composition(step, k + 1, dp).unwrap();
        prop_assert!(large.epsilon.get() > small.epsilon.get());
    }

    #[test]
    fn erf_bounded_and_odd(x in -6.0f64..6.0) {
        prop_assert!((-1.0..=1.0).contains(&erf(x)));
        prop_assert!((erf(-x) + erf(x)).abs() < 1e-12);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_monotone(a in -8.0f64..8.0, b in -8.0f64..8.0) {
        if a < b {
            prop_assert!(normal_cdf(a) <= normal_cdf(b) + 1e-15);
        }
    }

    #[test]
    fn normal_quantile_inverts(p in 1e-8f64..0.99999999) {
        let x = normal_quantile(p);
        prop_assert!((normal_cdf(x) - p).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Batched-sampler bit-identity: the pre-drawn-uniform Laplace batch
// samplers must reproduce the per-element draw loop exactly — same RNG
// stream consumed, same bits out — at short lengths and around the
// 256-slot pre-draw block boundary.
// ---------------------------------------------------------------------------

/// Lengths covering short batches and the 256-slot pre-draw block edge
/// of the batched samplers.
fn batch_lengths() -> Vec<usize> {
    vec![0, 1, 3, 4, 5, 255, 256, 257, 600]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn laplace_into_is_bit_identical_to_single_draws(
        scale in 0.01f64..1e6,
        seed in 0u64..100_000,
    ) {
        for len in batch_lengths() {
            let mut batched = vec![0.0; len];
            gdp_mechanisms::sampling::laplace_into(
                &mut StdRng::seed_from_u64(seed), scale, &mut batched);
            let mut rng = StdRng::seed_from_u64(seed);
            let singles: Vec<f64> =
                (0..len).map(|_| gdp_mechanisms::sampling::laplace(&mut rng, scale)).collect();
            let batched_bits: Vec<u64> = batched.iter().map(|x| x.to_bits()).collect();
            let scalar_bits: Vec<u64> = singles.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(batched_bits, scalar_bits, "len {}", len);
        }
    }

    #[test]
    fn laplace_add_into_is_bit_identical_to_single_draw_loop(
        scale in 0.01f64..1e6,
        seed in 0u64..100_000,
    ) {
        for len in batch_lengths() {
            let base: Vec<f64> = (0..len).map(|i| (i as f64) * 0.75 - 3.0).collect();
            let mut batched = base.clone();
            gdp_mechanisms::sampling::laplace_add_into(
                &mut StdRng::seed_from_u64(seed), scale, &mut batched);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scalar = base;
            for v in &mut scalar {
                *v += gdp_mechanisms::sampling::laplace(&mut rng, scale);
            }
            let batched_bits: Vec<u64> = batched.iter().map(|x| x.to_bits()).collect();
            let scalar_bits: Vec<u64> = scalar.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(batched_bits, scalar_bits, "len {}", len);
        }
    }

    /// The mechanism-level slice APIs ride the same kernels: pinned
    /// against per-element mechanism calls.
    #[test]
    fn randomize_slice_is_bit_identical_to_randomize_loop(
        e in eps_strategy(),
        s in sens_strategy(),
        seed in 0u64..100_000,
    ) {
        let mech = LaplaceMechanism::new(
            Epsilon::new(e).unwrap(),
            L1Sensitivity::new(s).unwrap(),
        ).unwrap();
        for len in batch_lengths() {
            let base: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let mut sliced = base.clone();
            mech.randomize_slice(&mut sliced, &mut StdRng::seed_from_u64(seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let looped: Vec<f64> =
                base.iter().map(|&v| mech.randomize(v, &mut rng)).collect();
            let batched_bits: Vec<u64> = sliced.iter().map(|x| x.to_bits()).collect();
            let scalar_bits: Vec<u64> = looped.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(batched_bits, scalar_bits, "len {}", len);
        }
    }
}
