//! Query-optimized view of a sealed release artifact.

use std::sync::Arc;

use rayon::prelude::*;

use gdp_core::{AccessPolicy, CoreError, ReleaseArtifact};
use gdp_graph::Side;

use crate::error::ServeError;
use crate::query::{Query, TypedAnswer};
use crate::Result;

/// One side of one indexed level: the node→group table plus the
/// per-group noisy mass, both raw and pre-divided by the group size.
#[derive(Debug, Clone)]
struct IndexedSide {
    /// `group_of[node]` — a copy of the partition's block assignment,
    /// laid out for the gather loop.
    group_of: Vec<u32>,
    /// `premass[g] = noisy(g) / |g|` — the exact float the scan-path
    /// estimator computes per touched group, hoisted to build time.
    premass: Vec<f64>,
    /// `mass[g] = noisy(g)` — the raw released mass, served verbatim by
    /// group-mass lookups.
    mass: Vec<f64>,
    /// `Σ mass[g]` in group order, folded once at build time — the
    /// side-total answer as an O(1) load.
    total: f64,
}

impl IndexedSide {
    fn node_count(&self) -> u32 {
        self.group_of.len() as u32
    }
}

/// The group tables of one level — present when the level released
/// [`gdp_core::Query::PerGroupCounts`].
#[derive(Debug, Clone)]
struct IndexedGroups {
    left: IndexedSide,
    right: IndexedSide,
}

/// One hierarchy level's precomputed tables. Either half may be absent
/// when the corresponding statistic was not released at the level.
#[derive(Debug, Clone)]
struct IndexedLevel {
    /// Subset gathers, group-mass lookups and side totals need these.
    groups: Option<IndexedGroups>,
    /// The released left-degree histogram, materialized **once** at
    /// index build and served by reference (`Arc` clone) forever after.
    histogram: Option<Arc<[f64]>>,
}

/// A [`ReleaseArtifact`] plus the precomputed tables that turn every
/// [`Query`] variant into a table lookup.
///
/// For every level that released [`gdp_core::Query::PerGroupCounts`],
/// the index holds each side's node→group table and per-group noisy
/// mass — raw (group-mass lookups, side totals) and pre-divided by
/// `|g|` (subset gathers). A subset estimate then visits exactly the
/// queried nodes — an `O(|S|)` gather — instead of scanning all groups
/// behind a freshly built estimator; a group mass or side total never
/// rescans the release's query list. Levels that released a
/// left-degree histogram additionally carry it materialized, served by
/// `Arc` reference. Every variant's answer is **bit-identical** to its
/// core-path rescan baseline
/// ([`SubsetCountEstimator::estimate`](gdp_core::answering::SubsetCountEstimator::estimate),
/// [`scan_group_mass`](gdp_core::answering::scan_group_mass),
/// [`scan_degree_histogram`](gdp_core::answering::scan_degree_histogram),
/// [`scan_side_total`](gdp_core::answering::scan_side_total)), errors
/// included; conformance proptests pin the equivalences.
///
/// Everything here is post-processing of an already-released bundle:
/// building the index, and answering any number of queries from it,
/// consumes no privacy budget.
#[derive(Debug, Clone)]
pub struct IndexedRelease {
    artifact: ReleaseArtifact,
    policy: AccessPolicy,
    levels: Vec<IndexedLevel>,
}

impl IndexedRelease {
    /// Indexes an artifact. Levels without a per-group release are kept
    /// (their metadata stays served from the artifact) but cannot answer
    /// subset, group-mass or side-total queries; levels without a
    /// histogram release cannot answer degree-histogram queries.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Core`] when a level's per-group vector
    /// disagrees with its hierarchy level's group count (a malformed
    /// artifact that slipped past sealing cannot be indexed).
    pub fn new(artifact: ReleaseArtifact) -> Result<Self> {
        match Self::promote(artifact) {
            Ok(indexed) => Ok(indexed),
            Err((err, _)) => Err(err),
        }
    }

    /// Like [`IndexedRelease::new`], but hands the artifact back on
    /// failure — the store's lazy-promotion path uses this so a sealed
    /// entry that cannot be indexed stays registered (the error is
    /// repeatable) without ever cloning the artifact on the happy path.
    // The large Err tuple is the point: it returns the artifact to the
    // caller instead of dropping (or cloning) it, and the error path is
    // cold by construction.
    #[allow(clippy::result_large_err)]
    pub(crate) fn promote(
        artifact: ReleaseArtifact,
    ) -> std::result::Result<Self, (ServeError, ReleaseArtifact)> {
        match Self::build_tables(&artifact) {
            Ok((policy, levels)) => Ok(Self {
                artifact,
                policy,
                levels,
            }),
            Err(err) => Err((err, artifact)),
        }
    }

    fn build_tables(artifact: &ReleaseArtifact) -> Result<(AccessPolicy, Vec<IndexedLevel>)> {
        let policy = AccessPolicy::new(artifact.level_count()).map_err(ServeError::Core)?;
        let mut levels = Vec::with_capacity(artifact.level_count());
        for (level_release, level) in artifact
            .release()
            .levels()
            .iter()
            .zip(artifact.hierarchy().levels())
        {
            let histogram = level_release
                .left_degree_histogram()
                .map(|q| Arc::from(q.noisy_values.as_slice()));
            let Some(per_group) = level_release.per_group_counts() else {
                levels.push(IndexedLevel {
                    groups: None,
                    histogram,
                });
                continue;
            };
            let lb = level.left().block_count() as usize;
            let rb = level.right().block_count() as usize;
            if per_group.noisy_values.len() != lb + rb {
                return Err(ServeError::Core(CoreError::InvalidConfig(format!(
                    "level {}: per-group vector length {} does not match group count {}",
                    level_release.level,
                    per_group.noisy_values.len(),
                    lb + rb
                ))));
            }
            let index_side = |partition: &gdp_graph::SidePartition, noisy: &[f64]| {
                let sizes = partition.block_sizes();
                IndexedSide {
                    group_of: partition.assignment().to_vec(),
                    premass: noisy
                        .iter()
                        .zip(&sizes)
                        .map(|(&mass, &size)| mass / size as f64)
                        .collect(),
                    mass: noisy.to_vec(),
                    total: noisy.iter().sum(),
                }
            };
            levels.push(IndexedLevel {
                groups: Some(IndexedGroups {
                    left: index_side(level.left(), &per_group.noisy_values[..lb]),
                    right: index_side(level.right(), &per_group.noisy_values[lb..]),
                }),
                histogram,
            });
        }
        Ok((policy, levels))
    }

    /// The underlying sealed artifact.
    pub fn artifact(&self) -> &ReleaseArtifact {
        &self.artifact
    }

    /// The monotone access policy over this artifact's levels.
    pub fn policy(&self) -> &AccessPolicy {
        &self.policy
    }

    /// Number of hierarchy levels in the artifact.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Whether `level` can answer subset, group-mass and side-total
    /// queries (released per-group counts).
    pub fn is_indexed(&self, level: usize) -> bool {
        matches!(
            self.levels.get(level),
            Some(IndexedLevel { groups: Some(_), .. })
        )
    }

    fn level(&self, level: usize) -> Result<&IndexedLevel> {
        self.levels.get(level).ok_or(ServeError::Core(CoreError::LevelOutOfRange {
            level,
            level_count: self.levels.len(),
        }))
    }

    fn indexed_groups(&self, level: usize) -> Result<&IndexedGroups> {
        self.level(level)?
            .groups
            .as_ref()
            .ok_or(ServeError::LevelNotIndexed { level })
    }

    fn indexed_side(&self, level: usize, side: Side) -> Result<&IndexedSide> {
        let groups = self.indexed_groups(level)?;
        Ok(match side {
            Side::Left => &groups.left,
            Side::Right => &groups.right,
        })
    }

    /// Estimates the association count incident to `nodes` on `side`
    /// from `level`'s noisy per-group release — the `O(|S|)` gather.
    ///
    /// Semantics, float-for-float and error-for-error, are those of
    /// [`gdp_core::answering::SubsetCountEstimator::estimate`]: nodes
    /// must be in range and free of duplicates (first offender in
    /// subset order wins), and terms accumulate per node in subset
    /// order as `premass(g(v))`.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] with [`CoreError::LevelOutOfRange`] /
    ///   [`CoreError::SubsetNodeOutOfRange`] /
    ///   [`CoreError::DuplicateSubsetNode`].
    /// * [`ServeError::LevelNotIndexed`] when the level released no
    ///   per-group counts.
    pub fn estimate(&self, level: usize, side: Side, nodes: &[u32]) -> Result<f64> {
        let indexed_side = self.indexed_side(level, side)?;
        let n = indexed_side.node_count();
        // Hot path: the gather kernel — a bounds pass and a branchless
        // duplicate sweep over a reusable scratch bitmap, then an
        // ordered sum bit-identical to the naive loop (see
        // `crate::kernels` for the structure and the naive reference
        // it is tested against).
        match crate::kernels::gather_subset(&indexed_side.group_of, &indexed_side.premass, nodes) {
            Some(total) => Ok(total),
            None => {
                // Cold path: the canonical validation walk — shared with
                // the scan estimator — reports the error, so precedence
                // (first offender in subset order) is identical to the
                // baseline's by construction.
                Err(match gdp_core::answering::validate_subset(side, nodes, n) {
                    Err(err) => ServeError::Core(err),
                    // The gather and the canonical walk disagreeing on
                    // defectiveness would be a serving-layer bug; report it
                    // typed rather than killing the worker.
                    Ok(()) => ServeError::Internal(
                        "subset gather flagged a defect the canonical validation walk did not"
                            .to_string(),
                    ),
                })
            }
        }
    }

    /// Answers a batch of subset queries, fanning out over rayon.
    /// Answering is RNG-free pure post-processing, so the output is
    /// identical to a sequential loop at any thread count.
    ///
    /// # Errors
    ///
    /// The same errors as [`IndexedRelease::estimate`] (which failing
    /// subset's error surfaces is unspecified).
    pub fn estimate_batch(
        &self,
        level: usize,
        side: Side,
        subsets: &[Vec<u32>],
    ) -> Result<Vec<f64>> {
        subsets
            .par_iter()
            .map(|nodes| self.estimate(level, side, nodes))
            .collect()
    }

    /// The raw noisy mass of one group at a level — exactly the value
    /// the release published for it, served without touching the
    /// release's query list
    /// ([`gdp_core::answering::scan_group_mass`] is the rescan
    /// baseline).
    ///
    /// # Errors
    ///
    /// * Level errors as in [`IndexedRelease::estimate`].
    /// * [`ServeError::Core`] with [`CoreError::GroupOutOfRange`] when
    ///   `group` exceeds the side's group count.
    pub fn group_mass(&self, level: usize, side: Side, group: u32) -> Result<f64> {
        let indexed_side = self.indexed_side(level, side)?;
        let group_count = indexed_side.mass.len() as u32;
        if group >= group_count {
            return Err(ServeError::Core(CoreError::GroupOutOfRange {
                side,
                group,
                group_count,
            }));
        }
        Ok(indexed_side.mass[group as usize])
    }

    /// The whole-side estimate at a level — every group's raw noisy
    /// mass summed in group order, folded **once** at index build and
    /// served as an O(1) load, bit-identical to
    /// [`gdp_core::answering::scan_side_total`] (and therefore to
    /// [`SubsetCountEstimator::estimate_side_total`](gdp_core::answering::SubsetCountEstimator::estimate_side_total))
    /// because both fold the same slice in the same order.
    ///
    /// # Errors
    ///
    /// Same level errors as [`IndexedRelease::estimate`].
    pub fn side_total(&self, level: usize, side: Side) -> Result<f64> {
        Ok(self.indexed_side(level, side)?.total)
    }

    /// The noisy left-degree histogram released at a level, served by
    /// reference — the bins were materialized once at index build, and
    /// every call clones the `Arc`, never the data
    /// ([`gdp_core::answering::scan_degree_histogram`] is the rescan
    /// baseline).
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] with [`CoreError::LevelOutOfRange`] for
    ///   unknown levels.
    /// * [`ServeError::StatisticNotReleased`] when `side` is
    ///   [`Side::Right`] (the pipeline releases left histograms only)
    ///   or the level released no histogram.
    pub fn degree_histogram(&self, level: usize, side: Side) -> Result<Arc<[f64]>> {
        let indexed = self.level(level)?;
        if side == Side::Right {
            return Err(ServeError::StatisticNotReleased {
                level,
                statistic: "right degree histogram".to_string(),
            });
        }
        indexed
            .histogram
            .clone()
            .ok_or_else(|| ServeError::StatisticNotReleased {
                level,
                statistic: "degree histogram".to_string(),
            })
    }

    /// Dispatches one typed [`Query`] at a level — the per-variant
    /// entry point [`AnswerService`](crate::AnswerService) routes
    /// through.
    ///
    /// # Errors
    ///
    /// The union of the variant methods' errors
    /// ([`IndexedRelease::estimate`], [`IndexedRelease::group_mass`],
    /// [`IndexedRelease::degree_histogram`],
    /// [`IndexedRelease::side_total`]).
    pub fn answer(&self, level: usize, query: &Query) -> Result<TypedAnswer> {
        match query {
            Query::SubsetCount(q) => {
                self.estimate(level, q.side, &q.nodes).map(TypedAnswer::Scalar)
            }
            Query::GroupMass { side, group } => {
                self.group_mass(level, *side, *group).map(TypedAnswer::Scalar)
            }
            Query::DegreeHistogram { side } => {
                self.degree_histogram(level, *side).map(TypedAnswer::Histogram)
            }
            Query::SideTotal { side } => {
                self.side_total(level, *side).map(TypedAnswer::Scalar)
            }
        }
    }

    /// Answers a batch of typed queries at one level, fanning out over
    /// rayon. Answering is RNG-free pure post-processing, so the output
    /// is identical to a sequential loop at any thread count.
    ///
    /// # Errors
    ///
    /// Same as [`IndexedRelease::answer`] (which failing query's error
    /// surfaces is unspecified).
    pub fn answer_batch(&self, level: usize, queries: &[Query]) -> Result<Vec<TypedAnswer>> {
        queries
            .par_iter()
            .map(|query| self.answer(level, query))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_core::answering::{
        scan_degree_histogram, scan_group_mass, scan_side_total, SubsetCountEstimator,
    };
    use gdp_core::{
        DisclosureConfig, MultiLevelDiscloser, Query as CoreQuery, SpecializationConfig,
        Specializer,
    };
    use gdp_datagen::{DblpConfig, DblpGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn artifact() -> ReleaseArtifact {
        let mut rng = StdRng::seed_from_u64(80);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.9, 1e-6)
                .unwrap()
                .with_queries(vec![
                    CoreQuery::TotalAssociations,
                    CoreQuery::PerGroupCounts,
                    CoreQuery::LeftDegreeHistogram { max_degree: 16 },
                ]),
        )
        .disclose(&graph, &hierarchy, &mut rng)
        .unwrap();
        ReleaseArtifact::seal("dblp", 1, hierarchy, release).unwrap()
    }

    #[test]
    fn gather_matches_scan_estimator_bitwise() {
        let artifact = artifact();
        let indexed = IndexedRelease::new(artifact.clone()).unwrap();
        for level in 0..artifact.level_count() {
            let scan = SubsetCountEstimator::new(
                artifact.release().level(level).unwrap(),
                artifact.hierarchy().level(level).unwrap(),
            )
            .unwrap();
            for subset in [
                vec![0u32],
                vec![0, 1, 2, 3, 4],
                (0..40).collect::<Vec<u32>>(),
                vec![7, 3, 19, 2],
            ] {
                for side in [Side::Left, Side::Right] {
                    let a = scan.estimate(side, &subset).unwrap();
                    let b = indexed.estimate(level, side, &subset).unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "level {level} {side} {subset:?}");
                }
            }
        }
    }

    #[test]
    fn errors_mirror_scan_estimator() {
        let indexed = IndexedRelease::new(artifact()).unwrap();
        let n = indexed.artifact().manifest().left_nodes;
        assert!(matches!(
            indexed.estimate(1, Side::Left, &[n + 2]).unwrap_err(),
            ServeError::Core(CoreError::SubsetNodeOutOfRange { node, .. }) if node == n + 2
        ));
        assert!(matches!(
            indexed.estimate(1, Side::Left, &[4, 4]).unwrap_err(),
            ServeError::Core(CoreError::DuplicateSubsetNode { node: 4, .. })
        ));
        assert!(matches!(
            indexed.estimate(99, Side::Left, &[0]).unwrap_err(),
            ServeError::Core(CoreError::LevelOutOfRange { level: 99, .. })
        ));
    }

    #[test]
    fn level_without_per_group_counts_is_unindexed() {
        let mut rng = StdRng::seed_from_u64(81);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release =
            MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap())
                .disclose(&graph, &hierarchy, &mut rng)
                .unwrap();
        let artifact = ReleaseArtifact::seal("dblp", 1, hierarchy, release).unwrap();
        let indexed = IndexedRelease::new(artifact).unwrap();
        assert!(!indexed.is_indexed(0));
        assert!(matches!(
            indexed.estimate(0, Side::Left, &[0]).unwrap_err(),
            ServeError::LevelNotIndexed { level: 0 }
        ));
        assert!(matches!(
            indexed.group_mass(0, Side::Left, 0).unwrap_err(),
            ServeError::LevelNotIndexed { level: 0 }
        ));
        assert!(matches!(
            indexed.side_total(0, Side::Right).unwrap_err(),
            ServeError::LevelNotIndexed { level: 0 }
        ));
        // No histogram was released either: a typed refusal, not a panic.
        assert!(matches!(
            indexed.degree_histogram(0, Side::Left).unwrap_err(),
            ServeError::StatisticNotReleased { level: 0, .. }
        ));
    }

    #[test]
    fn batch_matches_sequential() {
        let indexed = IndexedRelease::new(artifact()).unwrap();
        let subsets: Vec<Vec<u32>> = (0..30u32).map(|k| (0..=k).collect()).collect();
        let batch = indexed.estimate_batch(1, Side::Left, &subsets).unwrap();
        for (subset, &got) in subsets.iter().zip(&batch) {
            assert_eq!(indexed.estimate(1, Side::Left, subset).unwrap(), got);
        }
    }

    #[test]
    fn typed_variants_match_scan_baselines_bitwise() {
        let artifact = artifact();
        let indexed = IndexedRelease::new(artifact.clone()).unwrap();
        for level in 0..artifact.level_count() {
            let rel = artifact.release().level(level).unwrap();
            let lvl = artifact.hierarchy().level(level).unwrap();
            for side in [Side::Left, Side::Right] {
                // Group masses.
                let groups = match side {
                    Side::Left => lvl.left().block_count(),
                    Side::Right => lvl.right().block_count(),
                };
                for group in 0..groups.min(8) {
                    let a = scan_group_mass(rel, lvl, side, group).unwrap();
                    let b = indexed.group_mass(level, side, group).unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "level {level} {side} g{group}");
                }
                // Side totals.
                let a = scan_side_total(rel, lvl, side).unwrap();
                let b = indexed.side_total(level, side).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "level {level} {side} total");
            }
            // Histograms: identical bins, and repeated serves share one
            // allocation.
            let a = scan_degree_histogram(rel, Side::Left).unwrap();
            let b = indexed.degree_histogram(level, Side::Left).unwrap();
            assert_eq!(a, &b[..]);
            let again = indexed.degree_histogram(level, Side::Left).unwrap();
            assert!(Arc::ptr_eq(&b, &again), "histogram must be served by reference");
        }
    }

    #[test]
    fn typed_dispatch_routes_every_variant() {
        let indexed = IndexedRelease::new(artifact()).unwrap();
        let level = 1;
        let subset = crate::SubsetQuery {
            side: Side::Left,
            nodes: vec![0, 1, 2],
        };
        assert_eq!(
            indexed
                .answer(level, &Query::SubsetCount(subset.clone()))
                .unwrap()
                .scalar()
                .unwrap(),
            indexed.estimate(level, Side::Left, &subset.nodes).unwrap()
        );
        assert_eq!(
            indexed
                .answer(level, &Query::GroupMass { side: Side::Right, group: 1 })
                .unwrap()
                .scalar()
                .unwrap(),
            indexed.group_mass(level, Side::Right, 1).unwrap()
        );
        assert_eq!(
            indexed
                .answer(level, &Query::SideTotal { side: Side::Left })
                .unwrap()
                .scalar()
                .unwrap(),
            indexed.side_total(level, Side::Left).unwrap()
        );
        let hist = indexed
            .answer(level, &Query::DegreeHistogram { side: Side::Left })
            .unwrap();
        assert_eq!(
            hist.histogram().unwrap(),
            &indexed.degree_histogram(level, Side::Left).unwrap()[..]
        );
        // Typed batch equals the sequential dispatch loop.
        let queries = vec![
            Query::SubsetCount(subset),
            Query::GroupMass { side: Side::Left, group: 0 },
            Query::DegreeHistogram { side: Side::Left },
            Query::SideTotal { side: Side::Right },
        ];
        let batch = indexed.answer_batch(level, &queries).unwrap();
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(&indexed.answer(level, q).unwrap(), got);
        }
    }

    #[test]
    fn group_mass_rejects_out_of_range_group() {
        let indexed = IndexedRelease::new(artifact()).unwrap();
        let err = indexed.group_mass(2, Side::Left, 10_000).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Core(CoreError::GroupOutOfRange {
                side: Side::Left,
                group: 10_000,
                ..
            })
        ));
    }

    #[test]
    fn right_histogram_is_a_typed_refusal() {
        let indexed = IndexedRelease::new(artifact()).unwrap();
        assert!(matches!(
            indexed.degree_histogram(1, Side::Right).unwrap_err(),
            ServeError::StatisticNotReleased { level: 1, .. }
        ));
        // Level precedence beats side precedence, like the scan path
        // composed with `release.level(i)`.
        assert!(matches!(
            indexed.degree_histogram(99, Side::Right).unwrap_err(),
            ServeError::Core(CoreError::LevelOutOfRange { level: 99, .. })
        ));
    }

    #[test]
    fn side_total_is_bit_identical_to_estimator() {
        let artifact = artifact();
        let indexed = IndexedRelease::new(artifact.clone()).unwrap();
        let scan = SubsetCountEstimator::new(
            artifact.release().level(2).unwrap(),
            artifact.hierarchy().level(2).unwrap(),
        )
        .unwrap();
        for side in [Side::Left, Side::Right] {
            let a = indexed.side_total(2, side).unwrap();
            let b = scan.estimate_side_total(side);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
