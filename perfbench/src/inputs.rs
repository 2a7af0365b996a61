//! Seeded inputs for the curator path: the association graph as an
//! edge-list file and a chain of 1%-churn delta files against it.
//!
//! Everything here is derived from the run's `--seed`; the program only
//! ever sees the files.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gdp_datagen::engine::GraphModel;
use gdp_graph::{BipartiteGraph, EdgeDelta, LeftId, RightId};

use crate::trace::Tracer;

/// The graph shape: Zipf attachment over 100k x 100k nodes, ~1M edge
/// draws (duplicates merge, so slightly fewer edges).
pub const MODEL: GraphModel = GraphModel::ZipfAttachment {
    left: 100_000,
    right: 100_000,
    per_right: 10,
    exponent: 1.1,
};

/// Delta files per chain: the base epoch plus this many gives the
/// ~12-epoch store the serving workloads read.
pub const CHAIN_DELTAS: usize = 11;

/// Changes per delta, as a share of the edges (half deletes of present
/// edges, half inserts of absent ones).
pub const CHURN: f64 = 0.01;

/// Where one set-up's files live.
pub struct Inputs {
    pub edges: PathBuf,
    pub deltas: Vec<PathBuf>,
    pub edge_count: u64,
}

/// Generates and writes the graph and a chain of `chain` deltas into
/// `dir`.
pub fn generate(
    dir: &Path,
    seed: u64,
    chain: usize,
    tracer: &mut Tracer,
) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = tracer.span("datagen", 0, |_| MODEL.generate(&mut rng));
    let edges = dir.join("graph.txt");
    tracer.span("inputs.write_edges", 0, |_| {
        let mut w = BufWriter::new(File::create(&edges)?);
        gdp_graph::io::write_edge_list(&graph, &mut w).map_err(to_io)?;
        w.flush()
    })?;
    let edge_count = graph.edge_count();
    let mut deltas = Vec::with_capacity(chain);
    for i in 0..chain {
        let delta = tracer.span("inputs.churn", 0, |_| churn_delta(&graph, &mut rng));
        let path = dir.join(format!("delta-{:02}.txt", i + 1));
        std::fs::write(&path, delta.to_text())?;
        graph.apply_delta_in_place(&delta).map_err(to_io)?;
        deltas.push(path);
    }
    Ok(Inputs {
        edges,
        deltas,
        edge_count,
    })
}

/// One valid 1%-churn batch against `graph`: uniformly chosen present
/// edges to delete, uniformly drawn absent pairs to insert.
fn churn_delta(graph: &BipartiteGraph, rng: &mut StdRng) -> EdgeDelta {
    let changes = ((graph.edge_count() as f64) * CHURN) as usize;
    let (n_del, n_ins) = (changes / 2, changes - changes / 2);
    let all: Vec<(LeftId, RightId)> = graph.edges().collect();
    let mut picked = HashSet::with_capacity(n_del);
    let mut deletes = Vec::with_capacity(n_del);
    while deletes.len() < n_del {
        let i = rng.gen_range(0..all.len());
        if picked.insert(i) {
            deletes.push(all[i]);
        }
    }
    let (lc, rc) = (graph.left_count(), graph.right_count());
    let mut seen = HashSet::with_capacity(n_ins);
    let mut inserts = Vec::with_capacity(n_ins);
    while inserts.len() < n_ins {
        let (l, r) = (rng.gen_range(0..lc), rng.gen_range(0..rc));
        let (l, r) = (LeftId::new(l), RightId::new(r));
        if !graph.has_edge(l, r) && seen.insert((l.index(), r.index())) {
            inserts.push((l, r));
        }
    }
    EdgeDelta::new(inserts, deletes)
}

fn to_io(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}
