//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use gdp_graph::{
    io, CsrDirectBuilder, DegreeHistogram, GraphBuilder, LeftId, PairCounts, RightId, Side,
    SidePartition,
};

/// Strategy: a random edge list over bounded side sizes.
fn graph_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32)>)> {
    (1u32..40, 1u32..40).prop_flat_map(|(nl, nr)| {
        let edges = proptest::collection::vec((0..nl, 0..nr), 0..200);
        (Just(nl), Just(nr), edges)
    })
}

fn build(nl: u32, nr: u32, edges: &[(u32, u32)]) -> gdp_graph::BipartiteGraph {
    let mut b = GraphBuilder::new(nl, nr);
    for &(l, r) in edges {
        b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
    }
    b.build()
}

/// Builds a valid partition from arbitrary raw block labels by remapping
/// them to dense ids (so every declared block is non-empty).
fn densify(side: Side, raw: &[u32]) -> SidePartition {
    let mut mapping = std::collections::HashMap::new();
    let assignment: Vec<u32> = raw
        .iter()
        .map(|b| {
            let next = mapping.len() as u32;
            *mapping.entry(*b).or_insert(next)
        })
        .collect();
    SidePartition::new(side, assignment, mapping.len() as u32).unwrap()
}

/// Derives a coarser partition by merging `fine`'s blocks according to
/// raw merge labels (one per fine block; labels are densified). The
/// result is refined by `fine` by construction.
fn merge_blocks(fine: &SidePartition, merge_raw: &[u32]) -> SidePartition {
    let coarse_of_fine: Vec<u32> = (0..fine.block_count())
        .map(|b| merge_raw[b as usize % merge_raw.len()])
        .collect();
    let raw: Vec<u32> = fine
        .assignment()
        .iter()
        .map(|&fb| coarse_of_fine[fb as usize])
        .collect();
    densify(fine.side(), &raw)
}

/// Strategy: a random partition assignment for `n` nodes (guaranteed
/// surjective by construction: block ids are remapped densely).
fn partition_of(n: u32) -> impl Strategy<Value = (Vec<u32>, u32)> {
    proptest::collection::vec(0u32..8, n as usize).prop_map(|raw| {
        // Remap to dense block ids so every block is non-empty.
        let mut mapping = std::collections::HashMap::new();
        let mut assignment = Vec::with_capacity(raw.len());
        for b in raw {
            let next = mapping.len() as u32;
            let id = *mapping.entry(b).or_insert(next);
            assignment.push(id);
        }
        let count = mapping.len() as u32;
        (assignment, count)
    })
}

proptest! {
    #[test]
    fn csr_directions_agree((nl, nr, edges) in graph_strategy()) {
        let g = build(nl, nr, &edges);
        // Both directions enumerate the same edge set.
        let left_sum: u64 = (0..nl).map(|l| g.left_degree(LeftId::new(l)) as u64).sum();
        let right_sum: u64 = (0..nr).map(|r| g.right_degree(RightId::new(r)) as u64).sum();
        prop_assert_eq!(left_sum, g.edge_count());
        prop_assert_eq!(right_sum, g.edge_count());
        for (l, r) in g.edges() {
            prop_assert!(g.has_edge(l, r));
            prop_assert!(g.neighbors_of_right(r).contains(&l));
        }
    }

    #[test]
    fn builder_dedups_to_set_semantics((nl, nr, edges) in graph_strategy()) {
        let g = build(nl, nr, &edges);
        let distinct: std::collections::HashSet<(u32, u32)> = edges.into_iter().collect();
        prop_assert_eq!(g.edge_count(), distinct.len() as u64);
    }

    #[test]
    fn neighbor_lists_sorted_unique((nl, nr, edges) in graph_strategy()) {
        let g = build(nl, nr, &edges);
        for l in 0..nl {
            let ns = g.neighbors_of_left(LeftId::new(l));
            for w in ns.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn io_round_trip((nl, nr, edges) in graph_strategy()) {
        let g = build(nl, nr, &edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let back = io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn partition_incident_counts_sum_to_edges(
        (nl, nr, edges) in graph_strategy(),
        seed in 0u64..100,
    ) {
        let g = build(nl, nr, &edges);
        // Derive a deterministic pseudo-random partition from the seed.
        let assignment: Vec<u32> = (0..nl).map(|i| (i.wrapping_mul(7).wrapping_add(seed as u32)) % 4).collect();
        let mut mapping = std::collections::HashMap::new();
        let dense: Vec<u32> = assignment.iter().map(|b| {
            let next = mapping.len() as u32;
            *mapping.entry(*b).or_insert(next)
        }).collect();
        let p = SidePartition::new(Side::Left, dense, mapping.len() as u32).unwrap();
        let counts = p.incident_edge_counts(&g);
        prop_assert_eq!(counts.iter().sum::<u64>(), g.edge_count());
        prop_assert!(p.max_incident_edges(&g) <= g.edge_count());
    }

    #[test]
    fn merging_blocks_is_refined_by_original((assignment, count) in partition_of(30)) {
        let fine = SidePartition::new(Side::Left, assignment.clone(), count).unwrap();
        // Merge all blocks into one.
        let coarse = SidePartition::whole(Side::Left, 30).unwrap();
        prop_assert!(coarse.is_refined_by(&fine));
        // Every partition refines itself.
        prop_assert!(fine.is_refined_by(&fine));
        // Singletons refine everything.
        let singles = SidePartition::singletons(Side::Left, 30);
        prop_assert!(fine.is_refined_by(&singles));
    }

    #[test]
    fn pair_counts_marginals_match_partitions(
        (nl, nr, edges) in graph_strategy(),
    ) {
        let g = build(nl, nr, &edges);
        let pl = SidePartition::whole(Side::Left, nl).unwrap();
        let pr = SidePartition::singletons(Side::Right, nr);
        let pc = PairCounts::compute(&g, &pl, &pr);
        prop_assert_eq!(pc.total(), g.edge_count());
        prop_assert_eq!(pc.left_marginals(), pl.incident_edge_counts(&g));
        prop_assert_eq!(pc.right_marginals(), pr.incident_edge_counts(&g));
        // The one-pass marginal bundle agrees with the per-field
        // accessors and with the partitions' own edge accounting.
        let m = pc.marginals();
        prop_assert_eq!(&m.left, &pl.incident_edge_counts(&g));
        prop_assert_eq!(&m.right, &pr.incident_edge_counts(&g));
        prop_assert_eq!(m.total, g.edge_count());
        prop_assert_eq!(m.max_left, m.left.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(m.max_right, m.right.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(
            m.max_incident(),
            pl.max_incident_edges(&g).max(pr.max_incident_edges(&g))
        );
    }

    #[test]
    fn csr_sweep_is_bit_identical_to_naive_scan(
        (nl, nr, edges) in graph_strategy(),
        (la, _) in partition_of(40),
        (ra, _) in partition_of(40),
    ) {
        let g = build(nl, nr, &edges);
        let pl = densify(Side::Left, &la[..nl as usize]);
        let pr = densify(Side::Right, &ra[..nr as usize]);
        let fast = PairCounts::compute(&g, &pl, &pr);
        let naive = PairCounts::compute_naive(&g, &pl, &pr);
        // CSR form is canonical, so PartialEq is bitwise table equality.
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn rollup_is_bit_identical_to_direct_coarse_sweep(
        (nl, nr, edges) in graph_strategy(),
        (la, _) in partition_of(40),
        (ra, _) in partition_of(40),
        lmerge in proptest::collection::vec(0u32..3, 40),
        rmerge in proptest::collection::vec(0u32..3, 40),
    ) {
        let g = build(nl, nr, &edges);
        let fine_l = densify(Side::Left, &la[..nl as usize]);
        let fine_r = densify(Side::Right, &ra[..nr as usize]);
        // Derive coarser partitions by merging fine blocks, so the
        // refinement relation holds by construction.
        let coarse_l = merge_blocks(&fine_l, &lmerge);
        let coarse_r = merge_blocks(&fine_r, &rmerge);
            let fine = PairCounts::compute(&g, &fine_l, &fine_r);
        let lmap = fine_l.block_map_to(&coarse_l).unwrap();
        let rmap = fine_r.block_map_to(&coarse_r).unwrap();
        let rolled = fine.rollup(
            &lmap,
            coarse_l.block_count(),
            &rmap,
            coarse_r.block_count(),
        );
        let direct = PairCounts::compute(&g, &coarse_l, &coarse_r);
        prop_assert_eq!(rolled, direct);
    }

    #[test]
    fn histogram_total_is_node_count(degrees in proptest::collection::vec(0u32..50, 0..200)) {
        let h = DegreeHistogram::from_degrees(&degrees);
        prop_assert_eq!(h.total(), degrees.len() as u64);
        let bin_sum: u64 = h.counts().iter().sum();
        prop_assert_eq!(bin_sum, degrees.len() as u64);
        if !degrees.is_empty() {
            let direct_mean = degrees.iter().map(|&d| d as f64).sum::<f64>() / degrees.len() as f64;
            prop_assert!((h.mean() - direct_mean).abs() < 1e-9);
            prop_assert_eq!(h.max_degree(), *degrees.iter().max().unwrap());
        }
    }

    #[test]
    fn histogram_quantiles_monotone(degrees in proptest::collection::vec(0u32..50, 1..100)) {
        let h = DegreeHistogram::from_degrees(&degrees);
        let mut prev = 0u32;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            prop_assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn csr_direct_builder_equals_incremental(
        (nl, nr, edges) in graph_strategy(),
        cuts in proptest::collection::vec(0usize..200, 0..4),
    ) {
        let incremental = build(nl, nr, &edges);

        // Single staged shard.
        let single = CsrDirectBuilder::from_edges(nl, nr, edges.clone()).unwrap();
        prop_assert_eq!(&single, &incremental);

        // The same stream split at arbitrary shard boundaries.
        let mut builder = CsrDirectBuilder::new(nl, nr);
        let mut boundaries: Vec<usize> =
            cuts.iter().map(|&c| c % (edges.len() + 1)).collect();
        boundaries.push(0);
        boundaries.push(edges.len());
        boundaries.sort_unstable();
        for pair in boundaries.windows(2) {
            builder.stage_shard(edges[pair[0]..pair[1]].to_vec());
        }
        prop_assert_eq!(&builder.build().unwrap(), &incremental);
    }

    #[test]
    fn row_sink_streaming_equals_incremental(
        (nl, nr, edges) in graph_strategy(),
        cut_raw in 0u32..40,
    ) {
        let incremental = build(nl, nr, &edges);

        // Feed the same edges row-grouped (non-decreasing rows), split
        // into two shards tiling 0..nl at an arbitrary row boundary.
        let mut by_row = edges.clone();
        by_row.sort_by_key(|&(l, _)| l);
        let cut = cut_raw % (nl + 1);
        let mut sinks = vec![
            gdp_graph::RowShardSink::new(0..cut, nr, 8),
            gdp_graph::RowShardSink::new(cut..nl, nr, 8),
        ];
        for (l, r) in by_row {
            let sink = &mut sinks[usize::from(l >= cut)];
            use gdp_graph::EdgeSink;
            sink.edge(l, r);
        }
        let streamed = CsrDirectBuilder::assemble_left_rows(nl, nr, sinks).unwrap();
        prop_assert_eq!(&streamed, &incremental);
    }
}
