//! Property suite pinning the streamed content digest
//! (`artifact::content_digest`, which `ReleaseArtifact::seal` and every
//! JSON load compute) **bitwise** to the naive value-tree route
//! (`artifact::content_digest_naive`: `serde_json::to_string` of the
//! hierarchy and the release, then FNV-1a). The digest is stamped into
//! every manifest on disk, so any divergence would make new artifacts
//! disagree with old ones.
//!
//! Hierarchies come from real specialization of random graphs; releases
//! from real disclosure under every mechanism, with every query kind,
//! and then have their floats overwritten from raw bit patterns and
//! integral values around the 1e15 switch of the canonical float rule.

use proptest::prelude::*;

use gdp_core::artifact::{content_digest, content_digest_naive};
use gdp_core::{
    CoreError, DisclosureConfig, MultiLevelDiscloser, MultiLevelRelease, NoiseMechanism, Query,
    ReleaseArtifact, SpecializationConfig, Specializer,
};
use gdp_graph::{BipartiteGraph, GraphBuilder, LeftId, RightId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (2u32..40, 2u32..40)
        .prop_flat_map(|(nl, nr)| {
            let edges = proptest::collection::vec((0..nl, 0..nr), 1..200);
            (Just(nl), Just(nr), edges)
        })
        .prop_map(|(nl, nr, edges)| {
            let mut b = GraphBuilder::new(nl, nr);
            for (l, r) in edges {
                b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
            }
            b.build()
        })
}

/// One float per draw: a raw bit pattern (every exponent, subnormals,
/// both zeros; non-finite patterns folded to a finite value), an
/// integral value within a few units of ±1e15, or a small integer.
fn float_strategy() -> impl Strategy<Value = f64> {
    (0u8..3, 0u64..u64::MAX, -3i64..3, -1000i64..1000).prop_map(|(pick, bits, near, small)| {
        match pick {
            0 => {
                let f = f64::from_bits(bits);
                if f.is_finite() {
                    f
                } else {
                    f64::from_bits(bits & !(1 << 62))
                }
            }
            1 => (1e15 as i64 + near) as f64 * if small < 0 { -1.0 } else { 1.0 },
            _ => small as f64,
        }
    })
}

const MECHANISMS: [NoiseMechanism; 4] = [
    NoiseMechanism::GaussianClassic,
    NoiseMechanism::GaussianAnalytic,
    NoiseMechanism::Laplace,
    NoiseMechanism::Geometric,
];

fn disclosed(
    graph: &BipartiteGraph,
    rounds: u32,
    mechanism: NoiseMechanism,
    max_degree: u32,
    seed: u64,
) -> (gdp_core::GroupHierarchy, MultiLevelRelease) {
    let mut rng = StdRng::seed_from_u64(seed);
    let hierarchy = Specializer::new(SpecializationConfig::paper_default(rounds).unwrap())
        .specialize(graph, &mut rng)
        .unwrap();
    let config = DisclosureConfig::count_only(0.5, 1e-6)
        .unwrap()
        .with_mechanism(mechanism)
        .with_queries(vec![
            Query::TotalAssociations,
            Query::PerGroupCounts,
            Query::LeftDegreeHistogram { max_degree },
            Query::GroupSizeCounts,
        ]);
    let release = MultiLevelDiscloser::new(config)
        .disclose(graph, &hierarchy, &mut rng)
        .unwrap();
    (hierarchy, release)
}

/// `release` with its noisy values, noise scales and sensitivities
/// overwritten, in rendering order, from `floats` (cycled).
fn with_floats(release: &MultiLevelRelease, floats: &[f64]) -> MultiLevelRelease {
    let mut next = floats.iter().copied().cycle();
    let mut levels = release.levels().to_vec();
    for level in &mut levels {
        for q in &mut level.queries {
            for v in &mut q.noisy_values {
                *v = next.next().unwrap();
            }
            q.noise_scale = next.next().unwrap();
            q.sensitivity.l1 = next.next().unwrap();
            q.sensitivity.l2 = next.next().unwrap();
        }
    }
    MultiLevelRelease::new(
        release.mechanism(),
        release.epsilon_g(),
        release.delta(),
        levels,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streamed_digest_is_bit_identical_to_naive(
        graph in graph_strategy(),
        rounds in 1u32..5,
        mechanism_pick in 0usize..4,
        max_degree in 0u32..12,
        seed in 0u64..1000,
        floats in proptest::collection::vec(float_strategy(), 1..64),
    ) {
        let (hierarchy, release) =
            disclosed(&graph, rounds, MECHANISMS[mechanism_pick], max_degree, seed);
        // The release as disclosed, then with adversarial floats.
        for release in [release.clone(), with_floats(&release, &floats)] {
            let streamed = content_digest(&hierarchy, &release).unwrap();
            prop_assert_eq!(streamed, content_digest_naive(&hierarchy, &release).unwrap());
            let sealed = ReleaseArtifact::seal("prop", 1, hierarchy.clone(), release).unwrap();
            prop_assert_eq!(sealed.manifest().content_digest, Some(streamed));
        }
    }

    #[test]
    fn non_finite_floats_are_refused_identically(
        graph in graph_strategy(),
        mechanism_pick in 0usize..4,
        seed in 0u64..1000,
        bad_pick in 0usize..3,
        position in 0usize..10_000,
    ) {
        let (hierarchy, release) = disclosed(&graph, 2, MECHANISMS[mechanism_pick], 4, seed);
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad_pick];
        let mut levels = release.levels().to_vec();
        let slots: usize = levels
            .iter()
            .flat_map(|l| &l.queries)
            .map(|q| q.noisy_values.len() + 1)
            .sum();
        let mut target = position % slots;
        'place: for level in &mut levels {
            for q in &mut level.queries {
                if target < q.noisy_values.len() {
                    q.noisy_values[target] = bad;
                    break 'place;
                }
                target -= q.noisy_values.len();
                if target == 0 {
                    q.noise_scale = bad;
                    break 'place;
                }
                target -= 1;
            }
        }
        let broken = MultiLevelRelease::new(
            release.mechanism(), release.epsilon_g(), release.delta(), levels,
        ).unwrap();
        let streamed = content_digest(&hierarchy, &broken).unwrap_err();
        let naive = content_digest_naive(&hierarchy, &broken).unwrap_err();
        prop_assert!(matches!(streamed, CoreError::Artifact(_)));
        prop_assert_eq!(streamed.to_string(), naive.to_string());
        let sealed = ReleaseArtifact::seal("prop", 1, hierarchy, broken);
        prop_assert!(matches!(sealed, Err(CoreError::Artifact(_))));
    }
}
