//! Experiment harness shared by the `gdp-bench` binaries.
//!
//! Each binary regenerates one table or figure (see `DESIGN.md` §5 and
//! `EXPERIMENTS.md`):
//!
//! | target | reproduces |
//! |---|---|
//! | `fig1` | Figure 1 — RER of the noisy association count vs `εg`, one series per release level |
//! | `table1` | the paper's inline DBLP statistics table |
//! | `ablation_split` | split-strategy ablation (exponential / median / random) |
//! | `ablation_delta` | δ sensitivity of the Gaussian calibration |
//! | `ablation_fanout` | fanout interpretation (2 vs 4 subgroups per side per level) |
//! | `ablation_mechanism` | classic vs analytic Gaussian vs Laplace |
//! | `baseline_compare` | calibrated group-DP vs naive k-fold composition |
//!
//! All binaries accept `--paper-scale` (full 6.4M-edge DBLP-like graph;
//! default is the 1:100 laptop preset), `--trials N`, and `--seed N`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod fig1;
pub mod table;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gdp_core::{GroupHierarchy, SpecializationConfig, Specializer, SplitStrategy};
use gdp_datagen::{DblpConfig, DblpGenerator};
use gdp_graph::BipartiteGraph;

/// A generated dataset plus its specialization — the shared setup phase
/// of every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The DBLP-like association graph.
    pub graph: BipartiteGraph,
    /// The hierarchy produced by Phase 1.
    pub hierarchy: GroupHierarchy,
}

/// Builds the standard experiment context: generate the DBLP-like graph
/// and run Phase-1 specialization.
///
/// # Panics
///
/// Panics on configuration errors — experiment setup failures should be
/// loud, not threaded through every binary.
pub fn build_context(
    dblp: DblpConfig,
    rounds: u32,
    strategy: SplitStrategy,
    seed: u64,
) -> ExperimentContext {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = DblpGenerator::new(dblp).generate(&mut rng);
    let mut config = SpecializationConfig::paper_default(rounds).expect("rounds > 0");
    config.strategy = strategy;
    let hierarchy = Specializer::new(config)
        .specialize(&graph, &mut rng)
        .expect("specialization of a generated graph succeeds");
    ExperimentContext { graph, hierarchy }
}

/// Thins a hierarchy by keeping every `stride`-th split level, emulating
/// larger fanouts (stride 2 over binary splits ⇒ 4 subgroups per side
/// per retained level). The finest (individual) and coarsest levels are
/// always kept.
///
/// # Panics
///
/// Panics if `stride == 0`.
pub fn thin_hierarchy(hierarchy: &GroupHierarchy, stride: usize) -> GroupHierarchy {
    assert!(stride > 0, "stride must be positive");
    let levels = hierarchy.levels();
    let n = levels.len();
    let mut picked = Vec::new();
    picked.push(levels[0].clone());
    let mut i = 1 + (n - 1 - 1) % stride; // align so the coarsest lands exactly
    while i < n {
        picked.push(levels[i].clone());
        i += stride;
    }
    if picked.len() < 2 {
        picked.push(levels[n - 1].clone());
    }
    GroupHierarchy::new(picked).expect("subsampled levels preserve refinement")
}

/// Read-modify-write of a JSON bench report: every top-level entry of
/// `sections` (a JSON object) replaces the file's entry of the same key,
/// or is appended; every other entry is kept as it was. A missing file
/// starts as an empty object.
///
/// `BENCH_pipeline.json` has two writers — `bench_pipeline` writes
/// most sections, `load_gen --merge-into` writes `serving_frontend` —
/// and both go through this function, so neither erases the other's
/// sections.
///
/// # Errors
///
/// A message naming `path` when the file cannot be read or written, is
/// not JSON, or its top level (or `sections`) is not an object.
pub fn merge_sections(path: &str, sections: serde::Value) -> Result<(), String> {
    let serde::Value::Map(sections) = sections else {
        return Err(format!("{path}: sections to merge are not a JSON object"));
    };
    let mut document = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => serde::Value::Map(Vec::new()),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let serde::Value::Map(entries) = &mut document else {
        return Err(format!("{path}: top level is not a JSON object"));
    };
    for (key, value) in sections {
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => *slot = value,
            None => entries.push((key, value)),
        }
    }
    let rendered = serde_json::to_string_pretty(&document).map_err(|e| e.to_string())?;
    std::fs::write(path, rendered + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_at_tiny_scale() {
        let ctx = build_context(DblpConfig::tiny(), 3, SplitStrategy::Median, 7);
        assert_eq!(ctx.hierarchy.level_count(), 5);
        assert!(ctx.graph.edge_count() > 0);
    }

    #[test]
    fn thinning_preserves_endpoints_and_refinement() {
        let ctx = build_context(DblpConfig::tiny(), 4, SplitStrategy::Median, 7);
        let thin = thin_hierarchy(&ctx.hierarchy, 2);
        // Finest level kept.
        assert_eq!(
            thin.finest().group_count(),
            ctx.hierarchy.finest().group_count()
        );
        // Coarsest level kept.
        assert_eq!(
            thin.coarsest().group_count(),
            ctx.hierarchy.coarsest().group_count()
        );
        assert!(thin.level_count() < ctx.hierarchy.level_count());
    }

    #[test]
    fn thin_stride_one_is_identity() {
        let ctx = build_context(DblpConfig::tiny(), 3, SplitStrategy::Median, 9);
        let same = thin_hierarchy(&ctx.hierarchy, 1);
        assert_eq!(same.level_count(), ctx.hierarchy.level_count());
    }

    /// `bench_pipeline` writes its report through [`merge_sections`]:
    /// a `serving_frontend` section already in the file (written by
    /// `load_gen --merge-into`) must survive unchanged, while the
    /// sections the report carries are replaced.
    #[test]
    fn merge_keeps_serving_frontend_across_bench_pipeline_write() {
        use serde::Value;
        let dir = std::env::temp_dir().join(format!("gdp-bench-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        let frontend = Value::Map(vec![
            ("requests".to_string(), Value::I64(20_000)),
            ("serve_p99_ms".to_string(), Value::F64(0.147)),
        ]);
        merge_sections(
            path,
            Value::Map(vec![("serving_frontend".to_string(), frontend.clone())]),
        )
        .unwrap();
        let report = |seed: i64| {
            Value::Map(vec![
                ("seed".to_string(), Value::I64(seed)),
                ("kernels".to_string(), Value::Seq(vec![Value::F64(1.5)])),
            ])
        };
        merge_sections(path, report(1)).unwrap();
        merge_sections(path, report(2)).unwrap();

        let text = std::fs::read_to_string(path).unwrap();
        let document: Value = serde_json::from_str(&text).unwrap();
        let entries = document.as_map().unwrap();
        let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(get("serving_frontend"), Some(&frontend));
        assert_eq!(get("seed"), Some(&Value::I64(2)));
        assert_eq!(entries.len(), 3, "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
