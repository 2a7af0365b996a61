//! `bench_pipeline` — end-to-end wall-time tracking for the two-phase
//! disclosure pipeline.
//!
//! Runs the full pipeline (datagen → Phase-1 specialization → Phase-2
//! noise injection → post-processing → consumer-side answering) on
//! synthetic Erdős–Rényi association graphs at n ∈ {10k, 100k, 1M}
//! edges, plus four acceptance measurements: prefix-sum vs naive cut
//! scoring at 100k edges / 64 candidates (ISSUE 1), per-level
//! pair-count rescans vs the one-sweep + rollup `HierarchyStats` engine
//! (ISSUE 2), the incremental-builder datagen baseline vs the parallel
//! streaming engine at 1M edge draws, model by model (ISSUE 3, the
//! `datagen_1m` entries), and — ISSUEs 4/5, the `answer_qps` entries —
//! per-`Query`-variant serving workloads (subset counts, group masses,
//! degree histograms, side totals) each answered by a per-query core
//! rescan (`SubsetCountEstimator` rebuild / `scan_*` baseline) vs the
//! `gdp-serve` indexed path (artifact → `IndexedRelease` →
//! `AnswerService`), asserted bit-identical on every rep, plus a
//! `reader_throughput` entry driving one shared `AnswerService` from
//! four concurrent OS threads over the sharded store, and — ISSUE 8,
//! the `artifact_io_1m` entry — the sealed 1M-edge artifact saved and
//! loaded through real files in both on-disk formats (JSON vs the
//! `.gda` binary container), loads timed through the full
//! integrity-check + `IndexedRelease` path a store scan pays per file.
//! Results are written as `BENCH_pipeline.json` so successive PRs can
//! track the trajectory.
//!
//! `--assert-disclose-100k-under MS` makes the binary exit non-zero when
//! the 100k-edge disclose phase exceeds the given ceiling,
//! `--assert-datagen-1m-under MS` does the same for the streaming
//! Erdős–Rényi `datagen_1m` time, `--assert-answer-qps-over QPS`
//! requires **every variant's** 100k-edge indexed serving path to clear
//! a throughput floor, and `--assert-binary-load-1m-under MS` caps the
//! 1M-edge binary load+index time — the CI smoke step uses all four so
//! a future PR can neither reintroduce per-level edge scans, nor fall
//! back to single-stream sampling, nor regress serving to per-query
//! estimator rebuilds or release rescans, nor quietly turn the binary
//! load path back into JSON-shaped parsing.
//!
//! Kernel and threading instrumentation:
//! `--threads N` pins the worker-pool width for the whole run (recorded
//! in the report next to the host core count), the `kernels` entries
//! time each hot kernel against its naive baseline (asserting
//! bitwise-equal results every rep), and the `scaling` section re-times
//! the datagen / disclose / answer phases at 1/2/4/8 pool threads with
//! the outputs pinned bit-identical across thread counts.
//! `--assert-gather-over RATIO` makes the run fail when the subset
//! gather stops beating its naive reference by the given factor, and
//! `--assert-scaling-disclose-2t-over RATIO`
//! requires the 2-thread disclose phase to show real parallel speedup
//! (skipped with a notice on single-core hosts, where no speedup is
//! physically available).
//!
//! ```text
//! bench_pipeline [--out FILE] [--seed N] [--max-edges N] [--reps N]
//!                [--threads N]
//!                [--assert-disclose-100k-under MS]
//!                [--assert-datagen-1m-under MS]
//!                [--assert-answer-qps-over QPS]
//!                [--assert-binary-load-1m-under MS]
//!                [--assert-gather-over RATIO]
//!                [--assert-scaling-disclose-2t-over RATIO]
//!                [--assert-delta-disclose-over RATIO]
//! ```
//!
//! ISSUE 10 adds the `delta_disclose_1m` entry: epoch N+1 produced from
//! a 1M-edge base plus a 1% edge delta, full recompute vs the
//! dirty-row incremental path, releases asserted bit-identical.
//! `--assert-delta-disclose-over RATIO` fails the run when the
//! incremental path stops beating the recompute by the given factor.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use gdp_core::answering::SubsetCountEstimator;
use gdp_core::postprocess::{clamp_non_negative, fuse_total_estimates};
use gdp_core::scoring::{cut_utilities, cut_utilities_naive};
use gdp_core::{
    ArtifactFormat, DisclosureConfig, GroupHierarchy, HierarchyStats, MultiLevelDiscloser,
    MultiLevelRelease, Privilege, Query, ReleaseArtifact, SpecializationConfig,
    Specializer,
};
use gdp_datagen::engine::GraphModel;
use gdp_datagen::models;
use gdp_graph::{PairCounts, Side};
use gdp_serve::{
    AnswerService, IndexedRelease, Query as ServeQuery, ReleaseStore, SubsetQuery,
    TypedAnswer,
};

#[derive(Debug, Serialize)]
struct ScorerComparison {
    edges: u64,
    candidates: usize,
    naive_ms: f64,
    prefix_ms: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct PhaseTimings {
    edges: u64,
    left_nodes: u32,
    right_nodes: u32,
    rounds: u32,
    levels: usize,
    datagen_ms: f64,
    specialize_ms: f64,
    disclose_ms: f64,
    postprocess_ms: f64,
    answering_ms: f64,
    answering_queries: usize,
    total_ms: f64,
}

#[derive(Debug, Serialize)]
struct PairCountsComparison {
    edges: u64,
    levels: usize,
    per_level_rescan_ms: f64,
    one_sweep_rollup_ms: f64,
    speedup: f64,
}

/// The ISSUE-10 acceptance measurement: epoch N+1 disclosed from a
/// 1M-edge epoch-N base plus a 1% edge delta, by full recompute
/// (re-sweep every level's statistics from the updated graph, disclose)
/// vs the incremental path a [`gdp_core::DisclosureSession`] takes in
/// `publish_next` (roll the delta through the cached `HierarchyStats`
/// dirty rows, then disclose from the updated stats). Applying the
/// delta to the adjacency itself is shared epoch ingest — both arms
/// need the same updated graph — so it sits outside both timers. Both
/// arms draw the identical RNG stream, and their releases are asserted
/// bit-identical on every rep — the speedup is pure avoided
/// recomputation, not a different disclosure.
#[derive(Debug, Serialize)]
struct DeltaDiscloseComparison {
    edges: u64,
    delta_inserts: usize,
    delta_deletes: usize,
    levels: usize,
    full_recompute_ms: f64,
    delta_update_ms: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct DatagenComparison {
    model: String,
    edges: u64,
    incremental_ms: f64,
    streaming_ms: f64,
    speedup: f64,
}

/// The ISSUE-8 acceptance measurement: the sealed 1M-edge release
/// artifact saved and loaded in both on-disk formats. Saves go through
/// the crash-safe path (stage, fsync, rename); loads pay the full
/// integrity bill for their format — JSON parse + canonical-digest
/// re-hash vs `.gda` container-digest check + section decode — plus
/// the `IndexedRelease` build, i.e. exactly what a store scan pays per
/// file at startup.
#[derive(Debug, Serialize)]
struct ArtifactIoComparison {
    edges: u64,
    levels: usize,
    json_bytes: u64,
    binary_bytes: u64,
    json_save_ms: f64,
    binary_save_ms: f64,
    json_load_index_ms: f64,
    binary_load_index_ms: f64,
    load_speedup: f64,
}

#[derive(Debug, Serialize)]
struct AnswerQpsComparison {
    query_type: String,
    edges: u64,
    level: usize,
    queries: usize,
    subset_size: usize,
    rebuild_ms: f64,
    indexed_ms: f64,
    speedup: f64,
    indexed_qps: f64,
}

/// Aggregate throughput of N OS threads answering concurrently through
/// one shared `AnswerService` over the sharded store — the reader-side
/// scaling entry (single-reader time over the same total workload is
/// the baseline; on a single-core runner the two are comparable and
/// the entry mainly proves the path is contention-safe).
#[derive(Debug, Serialize)]
struct ReaderThroughput {
    edges: u64,
    readers: usize,
    queries_per_reader: usize,
    single_reader_ms: f64,
    concurrent_ms: f64,
    aggregate_qps: f64,
}

/// One kernel-vs-baseline pair: a hot kernel timed against its naive
/// baseline on identical inputs, outputs asserted bit-identical on
/// every rep.
#[derive(Debug, Serialize)]
struct KernelComparison {
    kernel: String,
    work_items: u64,
    baseline_ms: f64,
    kernel_ms: f64,
    speedup: f64,
}

/// One thread count's row of the multi-thread scaling story: the three
/// rayon-parallel phases re-timed with the pool sized to `threads`,
/// with speedups relative to the single-thread row. Results at every
/// thread count are asserted bit-identical to the single-thread run
/// (determinism is a workspace contract, see `docs/determinism.md`).
#[derive(Debug, Serialize)]
struct ScalingEntry {
    threads: usize,
    datagen_1m_ms: f64,
    disclose_1m_ms: f64,
    answer_100k_ms: f64,
    datagen_speedup: f64,
    disclose_speedup: f64,
    answer_speedup: f64,
}

/// The `scaling` section of the report. `host_cores` is what
/// `std::thread::available_parallelism()` reported — on a single-core
/// host every speedup sits near 1.0 and the section mainly proves
/// bit-stability across pool sizes; multi-core readers (and the CI
/// runner) see the actual scaling.
#[derive(Debug, Serialize)]
struct ScalingReport {
    host_cores: usize,
    entries: Vec<ScalingEntry>,
}

#[derive(Debug, Serialize)]
struct Report {
    generated_by: String,
    seed: u64,
    threads: usize,
    host_cores: usize,
    scorer_100k: ScorerComparison,
    pair_counts_1m: PairCountsComparison,
    delta_disclose_1m: DeltaDiscloseComparison,
    datagen_1m: Vec<DatagenComparison>,
    artifact_io_1m: ArtifactIoComparison,
    answer_qps: Vec<AnswerQpsComparison>,
    /// `None` only when `--max-edges` clips the 100k scale it is
    /// measured at.
    reader_throughput: Option<ReaderThroughput>,
    kernels: Vec<KernelComparison>,
    scaling: ScalingReport,
    phases: Vec<PhaseTimings>,
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("at least one rep"))
}

fn scorer_comparison(seed: u64, reps: usize) -> ScorerComparison {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = models::erdos_renyi(&mut rng, 20_000, 20_000, 100_000);
    let degrees = graph.left_degrees();
    let mut block: Vec<u32> = (0..graph.left_count()).collect();
    block.sort_unstable_by_key(|&n| (degrees[n as usize], n));
    let available = block.len() - 1;
    let candidates: Vec<usize> = (1..=64usize).map(|i| 1 + (i - 1) * available / 64).collect();

    // The naive scorer is O(candidates × members); a handful of reps is
    // plenty. The prefix scorer is microseconds, so rep it harder.
    let (naive_ms, naive_scores) =
        time_best_of(reps, || cut_utilities_naive(&block, &degrees, &candidates));
    let (prefix_once_ms, prefix_scores) = time_best_of(reps * 20, || {
        cut_utilities(&block, &degrees, &candidates)
    });
    assert_eq!(naive_scores, prefix_scores, "scorers must agree bitwise");
    ScorerComparison {
        edges: graph.edge_count(),
        candidates: candidates.len(),
        naive_ms,
        prefix_ms: prefix_once_ms,
        speedup: naive_ms / prefix_once_ms,
    }
}

/// The ISSUE-2 acceptance measurement: every level's pair counts via one
/// edge scan per level (the PR-1 disclosure inner loop) vs one edge
/// sweep + refinement rollups. Equality of the two results is asserted
/// on every rep.
fn pair_counts_comparison(edges: usize, seed: u64, reps: usize) -> PairCountsComparison {
    let side = ((edges as f64).sqrt() * 6.3) as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = models::erdos_renyi(&mut rng, side, side, edges);
    let hierarchy = Specializer::new(
        SpecializationConfig::paper_default(8).expect("rounds > 0"),
    )
    .specialize(&graph, &mut StdRng::seed_from_u64(seed ^ 1))
    .expect("specialize succeeds");

    let (rescan_ms, per_level) = time_best_of(reps, || {
        hierarchy
            .levels()
            .iter()
            .map(|level| PairCounts::compute(&graph, level.left(), level.right()))
            .collect::<Vec<_>>()
    });
    let (rollup_ms, stats) = time_best_of(reps, || {
        HierarchyStats::compute(&graph, &hierarchy).expect("stats compute succeeds")
    });
    for (direct, cached) in per_level.iter().zip(stats.levels()) {
        assert_eq!(direct, cached.pair_counts(), "rollup must be bit-identical");
    }
    PairCountsComparison {
        edges: graph.edge_count(),
        levels: hierarchy.level_count(),
        per_level_rescan_ms: rescan_ms,
        one_sweep_rollup_ms: rollup_ms,
        speedup: rescan_ms / rollup_ms,
    }
}

/// The ISSUE-10 measurement (see [`DeltaDiscloseComparison`]): both
/// arms start from the same epoch-N fixtures (graph, hierarchy, cached
/// stats) and produce the same epoch-N+1 release from a 1% churn delta
/// (half deletes of existing edges, half inserts of absent pairs).
fn delta_disclose_comparison(edges: usize, seed: u64, reps: usize) -> DeltaDiscloseComparison {
    use gdp_graph::{DegreeHistogram, EdgeDelta, LeftId, RightId};
    use std::collections::HashSet;

    let side = ((edges as f64).sqrt() * 6.3) as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = models::erdos_renyi(&mut rng, side, side, edges);
    let hierarchy = Specializer::new(
        SpecializationConfig::paper_default(8).expect("rounds > 0"),
    )
    .specialize(&graph, &mut StdRng::seed_from_u64(seed ^ 1))
    .expect("specialize succeeds");
    // The epoch-N stats a session would be holding when the delta lands.
    let base_stats =
        HierarchyStats::compute(&graph, &hierarchy).expect("stats compute succeeds");
    let discloser = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.5, 1e-6)
            .expect("valid budget")
            .with_queries(vec![
                Query::TotalAssociations,
                Query::PerGroupCounts,
                Query::LeftDegreeHistogram { max_degree: 64 },
            ]),
    );

    // 1% churn, half deletes / half inserts. Deletes come off the edge
    // iterator (distinct by construction); inserts are rejection-sampled
    // absent pairs (and absent pairs cannot collide with the deletes,
    // which all exist in the base graph).
    let churn = edges / 100;
    let deletes: Vec<(LeftId, RightId)> = graph.edges().take(churn / 2).collect();
    let mut drng = StdRng::seed_from_u64(seed ^ 4);
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut inserts = Vec::with_capacity(churn - churn / 2);
    while inserts.len() < churn - churn / 2 {
        let (l, r) = (drng.gen_range(0..side), drng.gen_range(0..side));
        if !graph.has_edge(LeftId::new(l), RightId::new(r)) && seen.insert((l, r)) {
            inserts.push((LeftId::new(l), RightId::new(r)));
        }
    }
    let delta = EdgeDelta::new(inserts, deletes);

    // Both arms disclose the *same* epoch-N+1 graph: applying the edge
    // delta to the adjacency is shared epoch ingest (a session does it
    // exactly once, whichever way it then derives statistics), so it
    // runs untimed here and the timers isolate what the two strategies
    // actually disagree on — how the level statistics are produced.
    let g2 = graph.apply_delta(&delta).expect("delta applies");

    // Full-recompute arm: every level's pair counts re-swept from the
    // updated graph, then disclose.
    let (full_recompute_ms, full_release) = time_best_of(reps, || {
        let stats = HierarchyStats::compute(&g2, &hierarchy).expect("stats compute succeeds");
        let hist = DegreeHistogram::from_degrees(&g2.left_degrees());
        discloser
            .disclose_from_stats(&hierarchy, &stats, &hist, &mut StdRng::seed_from_u64(seed ^ 2))
            .expect("disclose succeeds")
    });

    // Incremental arm: roll the delta's aggregated cell changes through
    // the cached stats' dirty rows only, then disclose. The per-rep
    // `clone` stands in for the epoch-N stats the session already holds
    // — it is *not* timed, because a session mutates its cache in
    // place. An extra warmup rep fills the crate's recycled rebuild
    // scratch first, since steady-state epochs (the thing `publish_next`
    // repeats) never pay that first-touch cost.
    let mut delta_update_ms = f64::INFINITY;
    let mut delta_release = None;
    for rep in 0..reps.max(2) + 1 {
        let mut stats = base_stats.clone();
        let t = Instant::now();
        stats.apply_delta(&hierarchy, &delta).expect("stats delta applies");
        let hist = DegreeHistogram::from_degrees(&g2.left_degrees());
        let release = discloser
            .disclose_from_stats(&hierarchy, &stats, &hist, &mut StdRng::seed_from_u64(seed ^ 2))
            .expect("disclose succeeds");
        if rep > 0 {
            delta_update_ms = delta_update_ms.min(t.elapsed().as_secs_f64() * 1e3);
        }
        delta_release = Some(release);
    }
    let delta_release = delta_release.expect("at least one rep");
    assert_eq!(
        full_release, delta_release,
        "delta-updated disclosure must be bit-identical to full recompute"
    );

    DeltaDiscloseComparison {
        edges: graph.edge_count(),
        delta_inserts: delta.inserts().len(),
        delta_deletes: delta.deletes().len(),
        levels: hierarchy.level_count(),
        full_recompute_ms,
        delta_update_ms,
        speedup: full_recompute_ms / delta_update_ms,
    }
}

/// The 1M-draw scenario models measured by the `datagen_1m` entries.
fn datagen_models(edges: usize) -> Vec<GraphModel> {
    let side = ((edges as f64).sqrt() * 6.3) as u32;
    vec![
        GraphModel::ErdosRenyi {
            left: side,
            right: side,
            edges,
        },
        GraphModel::ZipfAttachment {
            left: side,
            right: (edges / 3) as u32,
            per_right: 3,
            exponent: 1.15,
        },
        GraphModel::PlantedBlocks {
            left: side,
            right: side,
            blocks: 64,
            per_left: (edges / side as usize) as u32,
            intra_prob: 0.8,
        },
    ]
}

/// The ISSUE-3 acceptance measurement: each streaming model vs the
/// incremental-builder replay of the **same** shard streams. Equality of
/// the two graphs is asserted on every model.
fn datagen_comparison(edges: usize, seed: u64, reps: usize) -> Vec<DatagenComparison> {
    datagen_models(edges)
        .into_iter()
        .map(|model| {
            let (incremental_ms, baseline) = time_best_of(reps, || {
                model.generate_incremental(&mut StdRng::seed_from_u64(seed))
            });
            let (streaming_ms, streamed) =
                time_best_of(reps, || model.generate(&mut StdRng::seed_from_u64(seed)));
            assert_eq!(
                streamed,
                baseline,
                "{} streaming path must be bit-identical to the incremental builder",
                model.name()
            );
            DatagenComparison {
                model: model.name().to_string(),
                edges: streamed.edge_count(),
                incremental_ms,
                streaming_ms,
                speedup: incremental_ms / streaming_ms,
            }
        })
        .collect()
}

/// The ISSUE-8 acceptance measurement (see [`ArtifactIoComparison`]):
/// one sealed artifact from the standard 1M-edge pipeline, written and
/// read back through real files in both formats, with the loaded
/// artifacts asserted equal so neither format can drift.
fn artifact_io_comparison(edges: usize, seed: u64, reps: usize) -> ArtifactIoComparison {
    let side = ((edges as f64).sqrt() * 6.3) as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = models::erdos_renyi(&mut rng, side, side, edges);
    let hierarchy = Specializer::new(
        SpecializationConfig::paper_default(8).expect("rounds > 0"),
    )
    .specialize(&graph, &mut StdRng::seed_from_u64(seed ^ 1))
    .expect("specialize succeeds");
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.5, 1e-6)
            .expect("valid budget")
            .with_queries(vec![
                Query::TotalAssociations,
                Query::PerGroupCounts,
                Query::LeftDegreeHistogram { max_degree: 64 },
            ]),
    )
    .disclose(&graph, &hierarchy, &mut StdRng::seed_from_u64(seed ^ 2))
    .expect("disclose succeeds");
    let artifact =
        ReleaseArtifact::seal("bench-io", 1, hierarchy, release).expect("artifact seals");

    let dir = std::env::temp_dir().join(format!("gdp-bench-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("bench-io-e1.json");
    let bin_path = dir.join("bench-io-e1.gda");

    let (json_save_ms, ()) = time_best_of(reps, || {
        artifact
            .save_atomic_as(&json_path, ArtifactFormat::Json)
            .expect("json save")
    });
    let (binary_save_ms, ()) = time_best_of(reps, || {
        artifact
            .save_atomic_as(&bin_path, ArtifactFormat::Binary)
            .expect("binary save")
    });
    let json_bytes = std::fs::metadata(&json_path).expect("json stat").len();
    let binary_bytes = std::fs::metadata(&bin_path).expect("binary stat").len();

    let (json_load_index_ms, from_json) = time_best_of(reps, || {
        IndexedRelease::new(ReleaseArtifact::load(&json_path).expect("json load"))
            .expect("json artifact indexes")
    });
    let (binary_load_index_ms, from_binary) = time_best_of(reps, || {
        IndexedRelease::new(ReleaseArtifact::load(&bin_path).expect("binary load"))
            .expect("binary artifact indexes")
    });
    assert_eq!(
        from_json.artifact(),
        from_binary.artifact(),
        "both formats must load the identical artifact"
    );
    std::fs::remove_dir_all(&dir).ok();

    ArtifactIoComparison {
        edges: graph.edge_count(),
        levels: from_binary.artifact().level_count(),
        json_bytes,
        binary_bytes,
        json_save_ms,
        binary_save_ms,
        json_load_index_ms,
        binary_load_index_ms,
        load_speedup: json_load_index_ms / binary_load_index_ms,
    }
}

/// Random subsets of `size` **distinct** left nodes (the answering
/// paths reject duplicates with a typed error).
fn distinct_subsets(
    rng: &mut StdRng,
    n_left: u32,
    count: usize,
    size: usize,
) -> Vec<Vec<u32>> {
    (0..count)
        .map(|_| {
            let mut nodes = Vec::with_capacity(size);
            while nodes.len() < size {
                let node = rng.gen_range(0..n_left);
                if !nodes.contains(&node) {
                    nodes.push(node);
                }
            }
            nodes
        })
        .collect()
}

/// The ISSUE-4 acceptance measurement: a batch subset-query workload
/// answered by rebuilding a `SubsetCountEstimator` per query (the
/// pre-serving consumer pattern) vs the indexed O(|S|) gather over an
/// `IndexedRelease`. The index is built **once**, outside the timed
/// region — that asymmetry is the architecture being measured: a
/// serving deployment indexes an artifact at registration time and
/// answers every subsequent workload from the prebuilt tables, while
/// the pre-serving pattern pays the per-query rebuild forever. Both
/// the indexed answers and a full `AnswerService` dispatch of the same
/// workload are asserted bit-identical to the estimator baseline.
fn answer_qps_at(
    graph_edges: u64,
    n_left: u32,
    hierarchy: &GroupHierarchy,
    release: &MultiLevelRelease,
    seed: u64,
    reps: usize,
) -> Vec<AnswerQpsComparison> {
    let level = 1;
    let queries_n = 1000;
    let subset_size = 64;
    let mut qrng = StdRng::seed_from_u64(seed ^ 3);
    let subsets = distinct_subsets(&mut qrng, n_left, queries_n, subset_size);
    let queries: Vec<SubsetQuery> = subsets
        .iter()
        .map(|nodes| SubsetQuery {
            side: Side::Left,
            nodes: nodes.clone(),
        })
        .collect();

    let (rebuild_ms, baseline) = time_best_of(reps, || {
        subsets
            .iter()
            .map(|nodes| {
                SubsetCountEstimator::new(
                    release.level(level).expect("level released"),
                    hierarchy.level(level).expect("level exists"),
                )
                .expect("estimator builds")
                .estimate(Side::Left, nodes)
                .expect("estimate succeeds")
            })
            .collect::<Vec<f64>>()
    });

    let artifact = ReleaseArtifact::seal("bench", 1, hierarchy.clone(), release.clone())
        .expect("artifact seals");
    let indexed = IndexedRelease::new(artifact.clone()).expect("artifact indexes");
    let (indexed_ms, served) = time_best_of(reps, || {
        indexed
            .estimate_batch(level, Side::Left, &subsets)
            .expect("batch answers")
    });
    for (a, b) in baseline.iter().zip(&served) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "indexed serving path must be bit-identical to the estimator"
        );
    }
    // And the full service front door (policy check + memo cache) must
    // serve the same bits.
    let store = ReleaseStore::new();
    store
        .insert(IndexedRelease::new(artifact.clone()).expect("artifact indexes"))
        .expect("store accepts");
    let through_service = AnswerService::new(store)
        .answer_batch("bench", 1, Privilege::full(), level, &queries)
        .expect("service answers");
    for (a, b) in baseline.iter().zip(&through_service) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "AnswerService must be bit-identical to the estimator"
        );
    }
    let mut out = vec![AnswerQpsComparison {
        query_type: "subset_count".to_string(),
        edges: graph_edges,
        level,
        queries: queries_n,
        subset_size,
        rebuild_ms,
        indexed_ms,
        speedup: rebuild_ms / indexed_ms,
        indexed_qps: queries_n as f64 / (indexed_ms / 1e3),
    }];
    out.extend(typed_qps_entries(
        graph_edges,
        hierarchy,
        release,
        &indexed,
        level,
        queries_n,
        reps,
    ));
    out
}

/// The per-variant serving measurements for the non-subset `Query`
/// variants: each workload answered by a per-query core rescan
/// (`gdp_core::answering::scan_*`, re-resolving the release's query
/// list every time — the pre-serving pattern) vs the indexed tables,
/// asserted bit-identical on every rep.
fn typed_qps_entries(
    graph_edges: u64,
    hierarchy: &GroupHierarchy,
    release: &MultiLevelRelease,
    indexed: &IndexedRelease,
    level: usize,
    queries_n: usize,
    reps: usize,
) -> Vec<AnswerQpsComparison> {
    use gdp_core::answering::{scan_degree_histogram, scan_group_mass, scan_side_total};

    let rel = release.level(level).expect("level released");
    let lvl = hierarchy.level(level).expect("level exists");
    let left_groups = lvl.left().block_count();

    let workloads: Vec<(&str, Vec<ServeQuery>)> = vec![
        (
            "group_mass",
            (0..queries_n)
                .map(|i| ServeQuery::GroupMass {
                    side: Side::Left,
                    group: (i as u32) % left_groups,
                })
                .collect(),
        ),
        (
            "degree_histogram",
            (0..queries_n)
                .map(|_| ServeQuery::DegreeHistogram { side: Side::Left })
                .collect(),
        ),
        (
            "side_total",
            (0..queries_n)
                .map(|i| ServeQuery::SideTotal {
                    side: if i % 2 == 0 { Side::Left } else { Side::Right },
                })
                .collect(),
        ),
    ];

    workloads
        .into_iter()
        .map(|(name, queries)| {
            let (rebuild_ms, baseline) = time_best_of(reps, || {
                queries
                    .iter()
                    .map(|q| match q {
                        ServeQuery::GroupMass { side, group } => TypedAnswer::Scalar(
                            scan_group_mass(rel, lvl, *side, *group).expect("group in range"),
                        ),
                        ServeQuery::DegreeHistogram { side } => TypedAnswer::Histogram(
                            scan_degree_histogram(rel, *side)
                                .expect("histogram released")
                                .to_vec()
                                .into(),
                        ),
                        ServeQuery::SideTotal { side } => TypedAnswer::Scalar(
                            scan_side_total(rel, lvl, *side).expect("per-group released"),
                        ),
                        ServeQuery::SubsetCount(_) => unreachable!("subset measured above"),
                    })
                    .collect::<Vec<TypedAnswer>>()
            });
            let (indexed_ms, served) = time_best_of(reps, || {
                indexed.answer_batch(level, &queries).expect("batch answers")
            });
            assert_eq!(
                baseline, served,
                "indexed {name} must be bit-identical to the core rescan"
            );
            AnswerQpsComparison {
                query_type: name.to_string(),
                edges: graph_edges,
                level,
                queries: queries_n,
                subset_size: 0,
                rebuild_ms,
                indexed_ms,
                speedup: rebuild_ms / indexed_ms,
                indexed_qps: queries_n as f64 / (indexed_ms / 1e3),
            }
        })
        .collect()
}

/// The multi-threaded reader entry: N OS threads answering distinct
/// subset workloads through one shared `AnswerService` (each reader
/// issues single `answer` calls — the request-at-a-time pattern a
/// network frontend would drive), against the same total workload
/// answered by one reader. Answers are asserted identical between the
/// two runs.
fn reader_throughput_at(
    graph_edges: u64,
    n_left: u32,
    hierarchy: &GroupHierarchy,
    release: &MultiLevelRelease,
    seed: u64,
) -> ReaderThroughput {
    let level = 1;
    let readers = 4;
    let queries_per_reader = 500;
    let workloads: Vec<Vec<SubsetQuery>> = (0..readers)
        .map(|r| {
            let mut qrng = StdRng::seed_from_u64(seed ^ 0x40 ^ r as u64);
            distinct_subsets(&mut qrng, n_left, queries_per_reader, 64)
                .into_iter()
                .map(|nodes| SubsetQuery {
                    side: Side::Left,
                    nodes,
                })
                .collect()
        })
        .collect();
    let artifact = ReleaseArtifact::seal("bench", 1, hierarchy.clone(), release.clone())
        .expect("artifact seals");
    let fresh_service = || {
        let store = ReleaseStore::new();
        store
            .insert(IndexedRelease::new(artifact.clone()).expect("artifact indexes"))
            .expect("store accepts");
        AnswerService::new(store)
    };

    // One reader, all workloads, sequentially (cache-cold service).
    let service = fresh_service();
    let t = Instant::now();
    let single: Vec<Vec<f64>> = workloads
        .iter()
        .map(|workload| {
            workload
                .iter()
                .map(|q| {
                    service
                        .answer("bench", 1, Privilege::full(), level, q)
                        .expect("answers")
                })
                .collect()
        })
        .collect();
    let single_reader_ms = t.elapsed().as_secs_f64() * 1e3;

    // N readers, one workload each, concurrently (fresh cache-cold
    // service again so memoization cannot transfer between the runs).
    let service = fresh_service();
    let t = Instant::now();
    let concurrent: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|workload| {
                let service = &service;
                scope.spawn(move || {
                    workload
                        .iter()
                        .map(|q| {
                            service
                                .answer("bench", 1, Privilege::full(), level, q)
                                .expect("answers")
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader joins")).collect()
    });
    let concurrent_ms = t.elapsed().as_secs_f64() * 1e3;
    for (a, b) in single.iter().flatten().zip(concurrent.iter().flatten()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "concurrent readers must serve the single-reader bits"
        );
    }
    let total_queries = (readers * queries_per_reader) as f64;
    ReaderThroughput {
        edges: graph_edges,
        readers,
        queries_per_reader,
        single_reader_ms,
        concurrent_ms,
        aggregate_qps: total_queries / (concurrent_ms / 1e3),
    }
}

fn pipeline_at(
    edges: usize,
    seed: u64,
    reps: usize,
) -> (PhaseTimings, Vec<AnswerQpsComparison>, Option<ReaderThroughput>) {
    // Side sizes scale with the edge count: density stays ~constant.
    let side = ((edges as f64).sqrt() * 6.3) as u32;
    let rounds = 8u32;

    let model = GraphModel::ErdosRenyi {
        left: side,
        right: side,
        edges,
    };
    let (datagen_ms, graph) = time_best_of(reps, || {
        let mut rng = StdRng::seed_from_u64(seed);
        model.generate(&mut rng)
    });

    let spec = Specializer::new(SpecializationConfig::paper_default(rounds).expect("rounds > 0"));
    let (specialize_ms, hierarchy) = time_best_of(reps, || {
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        spec.specialize(&graph, &mut rng).expect("specialize succeeds")
    });

    let discloser = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.5, 1e-6)
            .expect("valid budget")
            .with_queries(vec![
                Query::TotalAssociations,
                Query::PerGroupCounts,
                Query::LeftDegreeHistogram { max_degree: 64 },
            ]),
    );
    let (disclose_ms, release) = time_best_of(reps, || {
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        discloser
            .disclose(&graph, &hierarchy, &mut rng)
            .expect("disclose succeeds")
    });

    let all_levels: Vec<usize> = (0..release.levels().len()).collect();
    let (postprocess_ms, _) = time_best_of(reps, || {
        let fused = fuse_total_estimates(&release, &all_levels).expect("fusion succeeds");
        let mut per_group: Vec<f64> = release.levels()[1]
            .query(Query::PerGroupCounts)
            .expect("per-group released")
            .noisy_values
            .clone();
        clamp_non_negative(&mut per_group);
        (fused, per_group.len())
    });

    // Consumer-side: a batch of random subset-count queries at level 1
    // through one long-lived estimator (the phase timing), plus the
    // ISSUE-4 rebuild-vs-indexed comparison over the same workload.
    let level_idx = 1;
    let estimator = SubsetCountEstimator::new(
        release.level(level_idx).expect("level released"),
        hierarchy.level(level_idx).expect("level exists"),
    )
    .expect("estimator builds");
    let mut qrng = StdRng::seed_from_u64(seed ^ 3);
    let n_left = graph.left_count();
    let subsets = distinct_subsets(&mut qrng, n_left, 1000, 64);
    let (answering_ms, answers) = time_best_of(reps, || {
        estimator
            .estimate_batch(Side::Left, &subsets)
            .expect("batch estimation succeeds")
    });
    assert_eq!(answers.len(), subsets.len());

    let qps = answer_qps_at(
        graph.edge_count(),
        n_left,
        &hierarchy,
        &release,
        seed,
        reps,
    );
    // The concurrent-reader entry is measured once, at the 100k scale
    // (like the CI answer-qps floor), so the report carries exactly one.
    let readers = ((90_000..=110_000).contains(&edges))
        .then(|| reader_throughput_at(graph.edge_count(), n_left, &hierarchy, &release, seed));

    let timings = PhaseTimings {
        edges: graph.edge_count(),
        left_nodes: graph.left_count(),
        right_nodes: graph.right_count(),
        rounds,
        levels: hierarchy.level_count(),
        datagen_ms,
        specialize_ms,
        disclose_ms,
        postprocess_ms,
        answering_ms,
        answering_queries: subsets.len(),
        total_ms: datagen_ms + specialize_ms + disclose_ms + postprocess_ms + answering_ms,
    };
    (timings, qps, readers)
}

/// The per-kernel measurements: each hot kernel timed against its
/// naive baseline on identical inputs at the 100k-edge working scale,
/// outputs asserted bit-identical every rep.
fn kernel_comparison(seed: u64, reps: usize) -> Vec<KernelComparison> {
    use gdp_serve::kernels::{gather_subset, gather_subset_naive};
    let mut rng = StdRng::seed_from_u64(seed ^ 9);
    let mut out = Vec::new();

    // Subset-count gather on a side just past the 65 536-node boundary,
    // where the naive form's duplicate check is a per-call `to_vec` +
    // `sort_unstable` walk, against the kernel's reusable
    // lazily-cleared scratch bitmap. 1000 subsets of 512 distinct nodes
    // each — large enough that the sort dominates the naive cost, small
    // enough that the lazy clear stays proportional to the subset.
    let n = 70_000u32;
    let groups = 64u32;
    let group_of: Vec<u32> = (0..n).map(|_| rng.gen_range(0..groups)).collect();
    let premass: Vec<f64> = (0..groups).map(|_| rng.gen_range(-1e6..1e6)).collect();
    let subsets = distinct_subsets(&mut rng, n, 1000, 512);
    type GatherFn = fn(&[u32], &[f64], &[u32]) -> Option<f64>;
    let run = |gather: GatherFn| {
        let mut acc = 0.0f64;
        for nodes in &subsets {
            acc += gather(&group_of, &premass, nodes).expect("clean subset");
        }
        acc
    };
    let (naive_ms, naive_acc) = time_best_of(reps * 20, || run(gather_subset_naive));
    let (gather_ms, gather_acc) = time_best_of(reps * 20, || run(gather_subset));
    assert_eq!(
        gather_acc.to_bits(),
        naive_acc.to_bits(),
        "subset gather must be bit-identical to the naive reference"
    );
    out.push(KernelComparison {
        kernel: "subset_gather".to_string(),
        work_items: (subsets.len() * 512) as u64,
        baseline_ms: naive_ms,
        kernel_ms: gather_ms,
        speedup: naive_ms / gather_ms,
    });

    // Batched Laplace: the pre-drawn-uniform transform behind
    // `randomize_slice` vs the per-element draw loop (both consume the
    // identical RNG stream — asserted bitwise).
    let len = 100_000usize;
    let scale = 4.0;
    let base: Vec<f64> = (0..len).map(|i| i as f64).collect();
    let (loop_ms, loop_vals) = time_best_of(reps * 5, || {
        let mut vals = base.clone();
        let mut r = StdRng::seed_from_u64(seed ^ 10);
        for v in &mut vals {
            *v += gdp_mechanisms::sampling::laplace(&mut r, scale);
        }
        vals
    });
    let (batched_ms, batched_vals) = time_best_of(reps * 5, || {
        let mut vals = base.clone();
        let mut r = StdRng::seed_from_u64(seed ^ 10);
        gdp_mechanisms::sampling::laplace_add_into(&mut r, scale, &mut vals);
        vals
    });
    for (a, b) in loop_vals.iter().zip(&batched_vals) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "batched Laplace must be bit-identical to the draw loop"
        );
    }
    out.push(KernelComparison {
        kernel: "laplace_randomize_slice".to_string(),
        work_items: len as u64,
        baseline_ms: loop_ms,
        kernel_ms: batched_ms,
        speedup: loop_ms / batched_ms,
    });

    out
}

/// The ISSUE-9 multi-thread scaling sweep: the three rayon-parallel
/// phases (streaming datagen at 1M draws, disclosure at 1M edges,
/// batch answering at the 100k scale) re-timed at 1/2/4/8 pool
/// threads, outputs asserted bit-identical to the single-thread run.
/// Restores the entering `RAYON_NUM_THREADS` before returning.
fn scaling_report(seed: u64, reps: usize) -> ScalingReport {
    let entering = std::env::var("RAYON_NUM_THREADS").ok();

    // Shared fixtures, built once outside the timed loops.
    let edges_1m = 1_000_000usize;
    let side_1m = ((edges_1m as f64).sqrt() * 6.3) as u32;
    let model_1m = GraphModel::ErdosRenyi {
        left: side_1m,
        right: side_1m,
        edges: edges_1m,
    };
    let graph_1m = model_1m.generate(&mut StdRng::seed_from_u64(seed));
    let hierarchy_1m = Specializer::new(
        SpecializationConfig::paper_default(8).expect("rounds > 0"),
    )
    .specialize(&graph_1m, &mut StdRng::seed_from_u64(seed ^ 1))
    .expect("specialize succeeds");
    let discloser = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.5, 1e-6)
            .expect("valid budget")
            .with_queries(vec![Query::TotalAssociations, Query::PerGroupCounts]),
    );

    let edges_100k = 100_000usize;
    let side_100k = ((edges_100k as f64).sqrt() * 6.3) as u32;
    let graph_100k = GraphModel::ErdosRenyi {
        left: side_100k,
        right: side_100k,
        edges: edges_100k,
    }
    .generate(&mut StdRng::seed_from_u64(seed));
    let hierarchy_100k = Specializer::new(
        SpecializationConfig::paper_default(8).expect("rounds > 0"),
    )
    .specialize(&graph_100k, &mut StdRng::seed_from_u64(seed ^ 1))
    .expect("specialize succeeds");
    let release_100k = discloser
        .disclose(&graph_100k, &hierarchy_100k, &mut StdRng::seed_from_u64(seed ^ 2))
        .expect("disclose succeeds");
    let artifact = ReleaseArtifact::seal("bench-scaling", 1, hierarchy_100k, release_100k)
        .expect("artifact seals");
    let indexed = IndexedRelease::new(artifact).expect("artifact indexes");
    let subsets = distinct_subsets(
        &mut StdRng::seed_from_u64(seed ^ 3),
        graph_100k.left_count(),
        1000,
        64,
    );

    let mut entries: Vec<ScalingEntry> = Vec::new();
    let mut baseline: Option<(f64, f64, f64)> = None;
    let mut pinned: Option<(gdp_graph::BipartiteGraph, gdp_core::MultiLevelRelease, Vec<f64>)> =
        None;
    for threads in [1usize, 2, 4, 8] {
        // The vendored pool sizes itself from this env var on every
        // parallel call, so re-pointing it re-sizes the phases below.
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

        let (datagen_ms, graph) = time_best_of(reps, || {
            model_1m.generate(&mut StdRng::seed_from_u64(seed))
        });
        let (disclose_ms, release) = time_best_of(reps, || {
            discloser
                .disclose(&graph_1m, &hierarchy_1m, &mut StdRng::seed_from_u64(seed ^ 2))
                .expect("disclose succeeds")
        });
        let (answer_ms, answers) = time_best_of(reps, || {
            indexed
                .estimate_batch(1, Side::Left, &subsets)
                .expect("batch answers")
        });

        match &pinned {
            None => pinned = Some((graph, release, answers)),
            Some((g1, r1, a1)) => {
                assert_eq!(&graph, g1, "datagen must be bit-stable across thread counts");
                assert_eq!(&release, r1, "disclosure must be bit-stable across thread counts");
                for (a, b) in a1.iter().zip(&answers) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "answering must be bit-stable across thread counts"
                    );
                }
            }
        }

        let (d1, x1, a1) = *baseline.get_or_insert((datagen_ms, disclose_ms, answer_ms));
        entries.push(ScalingEntry {
            threads,
            datagen_1m_ms: datagen_ms,
            disclose_1m_ms: disclose_ms,
            answer_100k_ms: answer_ms,
            datagen_speedup: d1 / datagen_ms,
            disclose_speedup: x1 / disclose_ms,
            answer_speedup: a1 / answer_ms,
        });
    }

    match entering {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    ScalingReport {
        host_cores: host_cores(),
        entries,
    }
}

fn main() {
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut seed = 42u64;
    let mut max_edges = 1_000_000usize;
    let mut reps = 3usize;
    let mut threads: Option<usize> = None;
    let mut disclose_100k_ceiling_ms: Option<f64> = None;
    let mut datagen_1m_ceiling_ms: Option<f64> = None;
    let mut answer_qps_floor: Option<f64> = None;
    let mut binary_load_1m_ceiling_ms: Option<f64> = None;
    let mut gather_floor: Option<f64> = None;
    let mut scaling_disclose_2t_floor: Option<f64> = None;
    let mut delta_disclose_floor: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number")
            }
            "--max-edges" => {
                max_edges = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-edges needs a number")
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number")
            }
            "--threads" => {
                threads = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n >= 1)
                        .expect("--threads needs a positive number"),
                )
            }
            "--assert-disclose-100k-under" => {
                disclose_100k_ceiling_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-disclose-100k-under needs a number (ms)"),
                )
            }
            "--assert-datagen-1m-under" => {
                datagen_1m_ceiling_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-datagen-1m-under needs a number (ms)"),
                )
            }
            "--assert-answer-qps-over" => {
                answer_qps_floor = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-answer-qps-over needs a number (queries/s)"),
                )
            }
            "--assert-binary-load-1m-under" => {
                binary_load_1m_ceiling_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-binary-load-1m-under needs a number (ms)"),
                )
            }
            "--assert-gather-over" => {
                gather_floor = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-gather-over needs a number (speedup ratio)"),
                )
            }
            "--assert-scaling-disclose-2t-over" => {
                scaling_disclose_2t_floor = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-scaling-disclose-2t-over needs a number (speedup ratio)"),
                )
            }
            "--assert-delta-disclose-over" => {
                delta_disclose_floor = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-delta-disclose-over needs a number (speedup ratio)"),
                )
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: [--out FILE] [--seed N] [--max-edges N] [--reps N] [--threads N] \
                     [--assert-disclose-100k-under MS] [--assert-datagen-1m-under MS] \
                     [--assert-answer-qps-over QPS] [--assert-binary-load-1m-under MS] \
                     [--assert-gather-over RATIO] [--assert-scaling-disclose-2t-over RATIO] \
                     [--assert-delta-disclose-over RATIO]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    // Size the rayon pool before any parallel call: the vendored pool
    // reads this env var per call, so one write here governs every
    // phase below (the scaling sweep re-points it per row and restores
    // this value afterwards).
    if let Some(n) = threads {
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    }

    eprintln!("measuring cut-scorer comparison (100k edges, 64 candidates)…");
    let scorer = scorer_comparison(seed, reps);
    eprintln!(
        "  naive {:.3} ms  prefix {:.3} ms  speedup {:.1}×",
        scorer.naive_ms, scorer.prefix_ms, scorer.speedup
    );

    // Always measured at 1M edges so the `pair_counts_1m` entry means
    // the same thing in every report — unlike the pipeline phase runs
    // this costs well under a second, so `--max-edges` (which bounds
    // the expensive multi-rep phase sweeps) does not clip it.
    eprintln!("measuring pair-count strategies (1M edges)…");
    let pair_counts = pair_counts_comparison(1_000_000, seed, 1);
    eprintln!(
        "  per-level rescan {:.1} ms  one-sweep+rollup {:.1} ms  speedup {:.1}×",
        pair_counts.per_level_rescan_ms, pair_counts.one_sweep_rollup_ms, pair_counts.speedup
    );

    // Like `pair_counts_1m`, always measured at 1M edges / 1% churn so
    // the entry means the same thing in every report.
    eprintln!("measuring epoch-delta disclosure vs full recompute (1M edges, 1% churn)…");
    let delta_disclose_1m = delta_disclose_comparison(1_000_000, seed, 2);
    eprintln!(
        "  full recompute {:.1} ms  delta update {:.1} ms  speedup {:.1}× \
         ({} inserts, {} deletes)",
        delta_disclose_1m.full_recompute_ms,
        delta_disclose_1m.delta_update_ms,
        delta_disclose_1m.speedup,
        delta_disclose_1m.delta_inserts,
        delta_disclose_1m.delta_deletes
    );

    // Like `pair_counts_1m`, always measured at 1M draws so the entries
    // mean the same thing in every report; well under a second per
    // model, so `--max-edges` does not clip it.
    eprintln!("measuring datagen strategies (1M edge draws, per model)…");
    let datagen_1m = datagen_comparison(1_000_000, seed, 2);
    for d in &datagen_1m {
        eprintln!(
            "  {:<16} incremental {:.1} ms  streaming {:.1} ms  speedup {:.1}×",
            d.model, d.incremental_ms, d.streaming_ms, d.speedup
        );
    }

    // Like `pair_counts_1m`, always measured at the 1M scale so the
    // entry means the same thing in every report — one pipeline run
    // plus file IO, cheap enough that `--max-edges` does not clip it.
    eprintln!("measuring artifact save/load, JSON vs binary (1M edges)…");
    let artifact_io_1m = artifact_io_comparison(1_000_000, seed, 2);
    eprintln!(
        "  json {:.0} KiB save {:.1} ms load+index {:.1} ms | \
         gda {:.0} KiB save {:.1} ms load+index {:.1} ms | load speedup {:.1}×",
        artifact_io_1m.json_bytes as f64 / 1024.0,
        artifact_io_1m.json_save_ms,
        artifact_io_1m.json_load_index_ms,
        artifact_io_1m.binary_bytes as f64 / 1024.0,
        artifact_io_1m.binary_save_ms,
        artifact_io_1m.binary_load_index_ms,
        artifact_io_1m.load_speedup
    );

    let mut phases = Vec::new();
    let mut answer_qps = Vec::new();
    let mut reader_throughput = None;
    for edges in [10_000usize, 100_000, 1_000_000] {
        if edges > max_edges {
            eprintln!("skipping {edges} edges (--max-edges {max_edges})");
            continue;
        }
        eprintln!("running pipeline at {edges} edges…");
        let (t, qps, readers) = pipeline_at(edges, seed, reps);
        eprintln!(
            "  datagen {:.1} ms | specialize {:.1} ms | disclose {:.1} ms | \
             postprocess {:.3} ms | answering {:.1} ms",
            t.datagen_ms, t.specialize_ms, t.disclose_ms, t.postprocess_ms, t.answering_ms
        );
        for q in &qps {
            eprintln!(
                "  serving {} × {:<16} rebuild {:.3} ms | indexed {:.3} ms | \
                 speedup {:.1}× | {:.0} q/s",
                q.queries, q.query_type, q.rebuild_ms, q.indexed_ms, q.speedup, q.indexed_qps
            );
        }
        if let Some(r) = &readers {
            eprintln!(
                "  {} readers × {} queries: single {:.1} ms | concurrent {:.1} ms | \
                 {:.0} q/s aggregate",
                r.readers,
                r.queries_per_reader,
                r.single_reader_ms,
                r.concurrent_ms,
                r.aggregate_qps
            );
            reader_throughput = readers;
        }
        phases.push(t);
        answer_qps.extend(qps);
    }

    eprintln!("measuring hot kernels vs naive baselines…");
    let kernels = kernel_comparison(seed, reps);
    for k in &kernels {
        eprintln!(
            "  {:<24} baseline {:.3} ms  kernel {:.3} ms  speedup {:.2}×",
            k.kernel, k.baseline_ms, k.kernel_ms, k.speedup
        );
    }

    eprintln!("measuring multi-thread scaling (1/2/4/8 pool threads)…");
    let scaling = scaling_report(seed, reps.min(2));
    eprintln!("  host cores: {}", scaling.host_cores);
    for e in &scaling.entries {
        eprintln!(
            "  {} thread(s): datagen {:.1} ms ({:.2}×) | disclose {:.1} ms ({:.2}×) | \
             answer {:.3} ms ({:.2}×)",
            e.threads,
            e.datagen_1m_ms,
            e.datagen_speedup,
            e.disclose_1m_ms,
            e.disclose_speedup,
            e.answer_100k_ms,
            e.answer_speedup
        );
    }

    let disclose_100k = phases
        .iter()
        .find(|p| (90_000..=110_000).contains(&p.edges))
        .map(|p| p.disclose_ms);
    let answer_qps_100k: Vec<(String, f64)> = answer_qps
        .iter()
        .filter(|q| (90_000..=110_000).contains(&q.edges))
        .map(|q| (q.query_type.clone(), q.indexed_qps))
        .collect();

    let report = Report {
        generated_by: "gdp-bench bench_pipeline".to_string(),
        seed,
        threads: rayon::current_num_threads(),
        host_cores: host_cores(),
        scorer_100k: scorer,
        pair_counts_1m: pair_counts,
        delta_disclose_1m,
        datagen_1m,
        artifact_io_1m,
        answer_qps,
        reader_throughput,
        kernels,
        scaling,
        phases,
    };
    // Merged, not overwritten: `load_gen --merge-into` owns the
    // `serving_frontend` section of the same file.
    if let Err(message) = gdp_bench::merge_sections(&out_path, report.to_value()) {
        panic!("report not written: {message}");
    }
    eprintln!("wrote {out_path}");

    // Regression gate for CI: the 100k-edge disclose phase must stay
    // under the ceiling (a reintroduced per-level edge scan puts it back
    // to ~20 ms; the one-sweep engine runs it in low single digits).
    if let Some(ceiling) = disclose_100k_ceiling_ms {
        match disclose_100k {
            Some(ms) if ms > ceiling => {
                eprintln!(
                    "FAIL: disclose at 100k edges took {ms:.1} ms \
                     (ceiling {ceiling:.1} ms)"
                );
                std::process::exit(1);
            }
            Some(ms) => eprintln!(
                "disclose at 100k edges: {ms:.1} ms ≤ ceiling {ceiling:.1} ms"
            ),
            None => {
                eprintln!("FAIL: --assert-disclose-100k-under set but the 100k phase did not run");
                std::process::exit(1);
            }
        }
    }

    // Regression gate for CI: streaming Erdős–Rényi generation at 1M
    // draws must stay under the ceiling (single-stream sampling through
    // the sorting builder puts it back above ~40 ms; the streaming
    // engine runs it in the teens single-threaded, less with a pool).
    if let Some(ceiling) = datagen_1m_ceiling_ms {
        let er = report
            .datagen_1m
            .iter()
            .find(|d| d.model == "erdos_renyi")
            .expect("erdos_renyi datagen_1m entry always measured");
        if er.streaming_ms > ceiling {
            eprintln!(
                "FAIL: streaming erdos_renyi datagen at 1M draws took {:.1} ms \
                 (ceiling {ceiling:.1} ms)",
                er.streaming_ms
            );
            std::process::exit(1);
        }
        eprintln!(
            "streaming erdos_renyi datagen at 1M draws: {:.1} ms ≤ ceiling {ceiling:.1} ms",
            er.streaming_ms
        );
    }

    // Regression gate for CI: **every** query variant's indexed serving
    // path at 100k edges must clear the throughput floor (a fallback to
    // per-query estimator rebuilds or release rescans is an order of
    // magnitude below it for the gather, and the O(1) variants have far
    // more headroom still).
    if let Some(floor) = answer_qps_floor {
        if answer_qps_100k.is_empty() {
            eprintln!("FAIL: --assert-answer-qps-over set but the 100k phase did not run");
            std::process::exit(1);
        }
        let mut failed = false;
        for (query_type, qps) in &answer_qps_100k {
            if *qps < floor {
                eprintln!(
                    "FAIL: indexed {query_type} answering at 100k edges ran {qps:.0} q/s \
                     (floor {floor:.0} q/s)"
                );
                failed = true;
            } else {
                eprintln!(
                    "indexed {query_type} answering at 100k edges: {qps:.0} q/s \
                     ≥ floor {floor:.0} q/s"
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    // Regression gate for CI: loading + indexing the 1M-edge binary
    // artifact must stay under the ceiling (the JSON path — parse plus
    // canonical-digest re-hash — sits several times above it; a binary
    // loader that fell back to JSON-shaped work would blow through).
    if let Some(ceiling) = binary_load_1m_ceiling_ms {
        let ms = report.artifact_io_1m.binary_load_index_ms;
        if ms > ceiling {
            eprintln!(
                "FAIL: binary artifact load+index at 1M edges took {ms:.1} ms \
                 (ceiling {ceiling:.1} ms)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "binary artifact load+index at 1M edges: {ms:.1} ms ≤ ceiling {ceiling:.1} ms"
        );
    }

    // Regression gate for CI: the subset gather must keep beating its
    // naive reference by the given factor — a change that reintroduces
    // the per-call bitmap zeroing / sort, or puts branches back into the
    // sum, shows up here as a collapsed ratio, independent of runner
    // speed.
    if let Some(floor) = gather_floor {
        let gather = report
            .kernels
            .iter()
            .find(|k| k.kernel == "subset_gather")
            .expect("kernels must include the subset_gather entry");
        if gather.speedup < floor {
            eprintln!(
                "FAIL: subset gather at {:.2}× over naive (floor {floor:.2}×; \
                 naive {:.3} ms, gather {:.3} ms)",
                gather.speedup, gather.baseline_ms, gather.kernel_ms
            );
            std::process::exit(1);
        }
        eprintln!(
            "subset gather: {:.2}× over naive ≥ floor {floor:.2}×",
            gather.speedup
        );
    }

    // Regression gate for CI: producing epoch N+1 from a 1% delta must
    // keep beating the full per-level recompute by the given factor — a
    // change that quietly turns the dirty-row delta path back into a
    // whole-hierarchy re-sweep collapses this ratio, independent of
    // runner speed.
    if let Some(floor) = delta_disclose_floor {
        let d = &report.delta_disclose_1m;
        if d.speedup < floor {
            eprintln!(
                "FAIL: delta-updated disclosure at {:.2}× over full recompute \
                 (floor {floor:.2}×; full {:.1} ms, delta {:.1} ms)",
                d.speedup, d.full_recompute_ms, d.delta_update_ms
            );
            std::process::exit(1);
        }
        eprintln!(
            "delta-updated disclosure: {:.2}× over full recompute ≥ floor {floor:.2}×",
            d.speedup
        );
    }

    // Regression gate for CI: disclosure at 2 pool threads must show
    // real parallel speedup over the same run at 1 thread. On a
    // single-core host no speedup is physically available, so the gate
    // skips (with a notice) rather than encoding the runner's shape.
    if let Some(floor) = scaling_disclose_2t_floor {
        if report.scaling.host_cores < 2 {
            eprintln!(
                "skipping --assert-scaling-disclose-2t-over: single-core host \
                 (host_cores = {})",
                report.scaling.host_cores
            );
        } else {
            let row = report
                .scaling
                .entries
                .iter()
                .find(|e| e.threads == 2)
                .expect("scaling report must include the 2-thread row");
            if row.disclose_speedup < floor {
                eprintln!(
                    "FAIL: disclose at 2 threads is {:.2}× over 1 thread \
                     (floor {floor:.2}×; 1t {:.1} ms, 2t {:.1} ms)",
                    row.disclose_speedup,
                    row.disclose_1m_ms * row.disclose_speedup,
                    row.disclose_1m_ms
                );
                std::process::exit(1);
            }
            eprintln!(
                "disclose scaling at 2 threads: {:.2}× over 1 thread ≥ floor {floor:.2}×",
                row.disclose_speedup
            );
        }
    }
}
