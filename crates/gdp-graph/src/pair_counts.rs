//! Sparse block-pair association counts in CSR form.
//!
//! [`PairCounts`] is the per-level sufficient statistic of the disclosure
//! pipeline: the number of associations between every (left-block,
//! right-block) pair of a hierarchy level. Phase 2 derives *all* of a
//! level's released quantities from it — total count, per-group incident
//! counts (the CSR marginals) and both L1/L2 group sensitivities — so
//! computing it once per level is what makes multi-level disclosure an
//! `O(edges + Σ cells)` problem instead of `O(levels × edges)`.
//!
//! Two construction paths exist on purpose:
//!
//! * [`PairCounts::compute`] — the production path: one rayon-sharded
//!   edge sweep, deterministically merged (contiguous row ranges are
//!   folded independently and concatenated in row order, so the result
//!   is bit-identical at any worker count).
//! * [`PairCounts::compute_naive`] — the original per-edge `HashMap`
//!   scan, kept as the equivalence baseline and criterion reference
//!   (same convention as `gdp_core::scoring::cut_utilities_naive`).
//!
//! Given the finest level's counts, every coarser level's counts follow
//! by [`PairCounts::rollup`] along the hierarchy's refinement chain in
//! `O(non-empty cells)` — no further edge scans.

use std::collections::HashMap;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::bipartite::BipartiteGraph;
use crate::node::{LeftId, RightId, Side};
use crate::partition::SidePartition;

/// Above this many coarse cells, [`PairCounts::rollup`] switches from a
/// dense accumulation grid to a sort-and-fold over keyed cells.
const DENSE_ROLLUP_MAX_CELLS: usize = 1 << 22;

thread_local! {
    // Recycled CSR build buffers for the structural delta rebuild:
    // freeing and re-allocating multi-MB arrays every epoch makes the
    // allocator return pages to the kernel, so each rebuild would pay
    // first-touch page faults over the whole table. The retired arrays
    // are swapped in here instead and reused by the next rebuild.
    static CSR_SCRATCH: std::cell::RefCell<(Vec<usize>, Vec<u32>, Vec<u64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Sparse per-(left-block, right-block) association counts under a pair
/// of side partitions — the "subgraphs induced by each group level" that
/// the paper's Phase 2 perturbs.
///
/// Stored as compressed sparse rows over left blocks: `row_ptr` has one
/// entry per left block plus a sentinel, and `col_idx`/`cell_counts`
/// hold each row's non-empty right-block cells in ascending column
/// order. The representation is canonical, so `PartialEq` compares
/// logical count tables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairCounts {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    cell_counts: Vec<u64>,
    left_blocks: u32,
    right_blocks: u32,
}

/// All CSR marginal statistics of a [`PairCounts`], derived in one pass
/// over the non-empty cells (plus an `O(blocks)` max scan).
///
/// `left`/`right` are exactly the per-block incident-edge counts that
/// [`SidePartition::incident_edge_counts`] computes by scanning the edge
/// list — cached here so the Phase-2 stack never rescans edges.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairMarginals {
    /// Row sums: associations incident to each left block.
    pub left: Vec<u64>,
    /// Column sums: associations incident to each right block.
    pub right: Vec<u64>,
    /// Row sums of **squared** cell counts: `Σ_r c(g,r)²` per left
    /// block — the L2 half of the per-group-counts sensitivity, cached
    /// so disclosure never refolds the cells. Exact: `Σ c² ≤ total²`,
    /// so `u64` never wraps for graphs under 2³² associations (the
    /// adjacency arrays run out of address space long before that).
    pub left_sq: Vec<u64>,
    /// Column sums of squared cell counts per right block.
    pub right_sq: Vec<u64>,
    /// Total count across all cells (the graph's edge count).
    pub total: u64,
    /// Largest left-block marginal.
    pub max_left: u64,
    /// Largest right-block marginal.
    pub max_right: u64,
}

impl PairMarginals {
    /// Largest incident-edge count over *all* blocks of both sides — the
    /// group-level L1 sensitivity of the total association count.
    pub fn max_incident(&self) -> u64 {
        self.max_left.max(self.max_right)
    }
}

impl PairCounts {
    /// Counts associations between every (left-block, right-block) pair
    /// in **one edge sweep**.
    ///
    /// The sweep buckets each edge's right-block id under its left block
    /// (two linear passes over the adjacency), then folds every row's
    /// bucket into sorted `(column, count)` cells. The fold fans out over
    /// contiguous row ranges via rayon; ranges are merged by
    /// concatenation in row order, so the result is **bit-identical at
    /// any thread count**.
    ///
    /// # Panics
    ///
    /// Panics if either partition does not match the graph's side sizes
    /// or sides.
    pub fn compute(graph: &BipartiteGraph, left: &SidePartition, right: &SidePartition) -> Self {
        Self::check_partitions(graph, left, right);
        let lb = left.block_count() as usize;
        let rb = right.block_count();
        let m = graph.edge_count() as usize;

        // Pass 1: incident edges per left block → bucket offsets.
        let mut offsets = vec![0usize; lb + 1];
        for (node, &b) in left.assignment().iter().enumerate() {
            offsets[b as usize + 1] += graph.left_degree(LeftId::new(node as u32)) as usize;
        }
        for i in 0..lb {
            offsets[i + 1] += offsets[i];
        }

        // Pass 2: scatter each edge's right-block id into its left
        // block's bucket segment: each node's contiguous neighbor run
        // maps through the right assignment table in one tight loop.
        let mut bucket = vec![0u32; m];
        let mut cursor: Vec<usize> = offsets[..lb].to_vec();
        let right_assignment = right.assignment();
        for (node, &b) in left.assignment().iter().enumerate() {
            let c = &mut cursor[b as usize];
            let neighbors = graph.neighbors_of_left(LeftId::new(node as u32));
            scatter_row_blocks(neighbors, right_assignment, &mut bucket[*c..*c + neighbors.len()]);
            *c += neighbors.len();
        }

        // Pass 3: fold each row's bucket into sorted cells, sharded over
        // row ranges of roughly equal edge mass.
        let ranges = split_rows_by_mass(&offsets, rayon::current_num_threads());
        let parts: Vec<RowRangeCells> = ranges
            .into_par_iter()
            .map(|range| fold_row_range(&bucket, &offsets, range, rb))
            .collect();

        let mut row_ptr = Vec::with_capacity(lb + 1);
        row_ptr.push(0usize);
        let total_cells: usize = parts.iter().map(|p| p.col_idx.len()).sum();
        let mut col_idx = Vec::with_capacity(total_cells);
        let mut cell_counts = Vec::with_capacity(total_cells);
        for part in parts {
            for cells_in_row in part.row_cells {
                row_ptr.push(row_ptr.last().unwrap() + cells_in_row);
            }
            col_idx.extend(part.col_idx);
            cell_counts.extend(part.cell_counts);
        }
        debug_assert_eq!(row_ptr.len(), lb + 1);
        debug_assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        Self {
            row_ptr,
            col_idx,
            cell_counts,
            left_blocks: left.block_count(),
            right_blocks: rb,
        }
    }

    /// The original per-edge `HashMap` scan, kept as the **equivalence
    /// baseline** for [`PairCounts::compute`] (property tests pin the two
    /// bit-identical) and as the criterion comparison point.
    ///
    /// # Panics
    ///
    /// Panics if either partition does not match the graph's side sizes
    /// or sides.
    pub fn compute_naive(
        graph: &BipartiteGraph,
        left: &SidePartition,
        right: &SidePartition,
    ) -> Self {
        Self::check_partitions(graph, left, right);
        let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
        for (l, r) in graph.edges() {
            let key = (left.block_of(l.index()), right.block_of(r.index()));
            *counts.entry(key).or_insert(0u64) += 1;
        }
        let mut cells: Vec<((u32, u32), u64)> = counts.into_iter().collect();
        cells.sort_unstable_by_key(|&(k, _)| k);
        Self::from_sorted_cells(&cells, left.block_count(), right.block_count())
    }

    /// Builds from already-aggregated cells sorted by `(left, right)`
    /// with no duplicate keys.
    fn from_sorted_cells(cells: &[((u32, u32), u64)], left_blocks: u32, right_blocks: u32) -> Self {
        let mut row_ptr = vec![0usize; left_blocks as usize + 1];
        let mut col_idx = Vec::with_capacity(cells.len());
        let mut cell_counts = Vec::with_capacity(cells.len());
        for &((l, r), c) in cells {
            row_ptr[l as usize + 1] += 1;
            col_idx.push(r);
            cell_counts.push(c);
        }
        for i in 0..left_blocks as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        Self {
            row_ptr,
            col_idx,
            cell_counts,
            left_blocks,
            right_blocks,
        }
    }

    fn check_partitions(graph: &BipartiteGraph, left: &SidePartition, right: &SidePartition) {
        assert_eq!(left.side(), Side::Left, "left partition must be Side::Left");
        assert_eq!(
            right.side(),
            Side::Right,
            "right partition must be Side::Right"
        );
        assert_eq!(left.node_count(), graph.left_count());
        assert_eq!(right.node_count(), graph.right_count());
    }

    /// Aggregates these counts up to a **coarser** pair of partitions via
    /// block maps (as produced by [`SidePartition::block_map_to`]):
    /// `left_map[l]`/`right_map[r]` name the coarse block containing fine
    /// block `l`/`r`.
    ///
    /// This is the refinement-chain fold that lets a hierarchy compute
    /// every level's counts from the finest level in `O(non-empty cells)`
    /// per level — no further edge scans. Counts are integers, so the
    /// result is exactly (bit-identically) what [`PairCounts::compute`]
    /// would produce at the coarse level.
    ///
    /// # Panics
    ///
    /// Panics if a map's length does not match this table's block count
    /// or a mapped id is out of the declared coarse range.
    pub fn rollup(
        &self,
        left_map: &[u32],
        coarse_left_blocks: u32,
        right_map: &[u32],
        coarse_right_blocks: u32,
    ) -> Self {
        assert_eq!(
            left_map.len(),
            self.left_blocks as usize,
            "left block map length must match left block count"
        );
        assert_eq!(
            right_map.len(),
            self.right_blocks as usize,
            "right block map length must match right block count"
        );
        assert!(left_map.iter().all(|&b| b < coarse_left_blocks));
        assert!(right_map.iter().all(|&b| b < coarse_right_blocks));

        let clb = coarse_left_blocks as usize;
        let crb = coarse_right_blocks as usize;
        if clb == 0 || crb == 0 {
            // A zero-block side admits no cells (and the range asserts
            // above guarantee there were none to fold).
            return Self {
                row_ptr: vec![0; clb + 1],
                col_idx: Vec::new(),
                cell_counts: Vec::new(),
                left_blocks: coarse_left_blocks,
                right_blocks: coarse_right_blocks,
            };
        }
        match clb.checked_mul(crb) {
            Some(cells) if cells <= DENSE_ROLLUP_MAX_CELLS => {
                // Dense accumulation grid: O(fine cells + coarse cells).
                let mut dense = vec![0u64; cells];
                for (l, &cl) in left_map.iter().enumerate() {
                    let base = cl as usize * crb;
                    for (r, c) in self.row(l as u32) {
                        dense[base + right_map[r as usize] as usize] += c;
                    }
                }
                let mut row_ptr = Vec::with_capacity(clb + 1);
                row_ptr.push(0usize);
                let mut col_idx = Vec::new();
                let mut cell_counts = Vec::new();
                for row in dense.chunks_exact(crb) {
                    for (r, &c) in row.iter().enumerate() {
                        if c != 0 {
                            col_idx.push(r as u32);
                            cell_counts.push(c);
                        }
                    }
                    row_ptr.push(col_idx.len());
                }
                Self {
                    row_ptr,
                    col_idx,
                    cell_counts,
                    left_blocks: coarse_left_blocks,
                    right_blocks: coarse_right_blocks,
                }
            }
            _ => {
                // Keyed sort-and-fold for very large coarse grids.
                let mut keyed: Vec<(u64, u64)> = Vec::with_capacity(self.col_idx.len());
                for (l, &cl) in left_map.iter().enumerate() {
                    let lk = (cl as u64) << 32;
                    for (r, c) in self.row(l as u32) {
                        keyed.push((lk | right_map[r as usize] as u64, c));
                    }
                }
                keyed.sort_unstable_by_key(|&(k, _)| k);
                let mut cells: Vec<((u32, u32), u64)> = Vec::new();
                for (k, c) in keyed {
                    let key = ((k >> 32) as u32, k as u32);
                    match cells.last_mut() {
                        Some((prev, sum)) if *prev == key => *sum += c,
                        _ => cells.push((key, c)),
                    }
                }
                Self::from_sorted_cells(&cells, coarse_left_blocks, coarse_right_blocks)
            }
        }
    }

    /// Applies a batch of signed cell deltas in place — the per-level
    /// update step of an epoch-incremental disclosure (see
    /// `docs/epochs.md`).
    ///
    /// `deltas` must be strictly sorted row-major by `(left_block,
    /// right_block)` with unique keys and nonzero changes. A refused
    /// batch (typed [`GraphError`](crate::GraphError)) leaves the
    /// counts untouched: the
    /// rare all-cells-survive case is validated up front and updated by
    /// in-place arithmetic, while the common structural case (some cell
    /// appears or vanishes) validates *during* a rebuild that writes
    /// only per-thread recycled scratch, swapped in on success — so
    /// steady-state epoch updates are allocation-free and atomicity
    /// costs no extra lookup pass. Counts are integers, so the result
    /// is bit-identical to recomputing from the updated graph
    /// (property-pinned in `tests/delta_equivalence`).
    pub fn apply_cell_deltas(&mut self, deltas: &[((u32, u32), i64)]) -> crate::Result<()> {
        let mut old_counts = Vec::with_capacity(deltas.len());
        self.apply_cell_deltas_recording(deltas, &mut old_counts)
    }

    /// [`Self::apply_cell_deltas`], also recording each dirty cell's
    /// **pre-update** count into `old_counts` (parallel to `deltas`,
    /// cleared first) — callers maintaining derived marginals (Σ c,
    /// Σ c² per block) compute their adjustments from these without
    /// re-searching the updated table.
    pub fn apply_cell_deltas_recording(
        &mut self,
        deltas: &[((u32, u32), i64)],
        old_counts: &mut Vec<u64>,
    ) -> crate::Result<()> {
        use crate::error::GraphError;
        old_counts.clear();
        old_counts.reserve(deltas.len());
        // Shape pass — no table reads: ranges, nonzero, strictly sorted.
        let mut prev: Option<(u32, u32)> = None;
        for (i, &((l, r), d)) in deltas.iter().enumerate() {
            if l >= self.left_blocks {
                return Err(GraphError::BlockOutOfRange {
                    block: l,
                    block_count: self.left_blocks,
                });
            }
            if r >= self.right_blocks {
                return Err(GraphError::BlockOutOfRange {
                    block: r,
                    block_count: self.right_blocks,
                });
            }
            if d == 0 {
                return Err(GraphError::DeltaInvalid {
                    message: format!("zero change for cell ({l}, {r}) at position {i}"),
                });
            }
            if prev.is_some_and(|p| (l, r) <= p) {
                return Err(GraphError::DeltaInvalid {
                    message: format!("cells not strictly sorted row-major at position {i}"),
                });
            }
            prev = Some((l, r));
        }
        // Classification with early exit: the moment a cell would
        // appear or vanish, stop probing and rebuild (which re-reads
        // and validates every cell in order anyway).
        let mut structural = false;
        for &((l, r), d) in deltas {
            let have = self.get(l, r);
            let new = have as i128 + d as i128;
            if new < 0 {
                return Err(GraphError::DeltaCellUnderflow {
                    left_block: l,
                    right_block: r,
                    have,
                    change: d,
                });
            }
            if have == 0 || new == 0 {
                structural = true;
                break;
            }
            old_counts.push(have);
        }
        if !structural {
            // Every dirty cell exists and survives: in-place arithmetic.
            for &((l, r), d) in deltas {
                let (lo, hi) = (self.row_ptr[l as usize], self.row_ptr[l as usize + 1]);
                let i = self.col_idx[lo..hi]
                    .binary_search(&r)
                    .expect("validated cell exists");
                let c = &mut self.cell_counts[lo + i];
                *c = (*c as i128 + d as i128) as u64;
            }
            return Ok(());
        }
        old_counts.clear();
        self.apply_cell_deltas_structural(deltas, old_counts)
    }

    /// The structural half of [`Self::apply_cell_deltas_recording`]:
    /// rebuilds the CSR arrays into per-thread recycled buffers — clean
    /// row spans copy whole, dirty rows copy span-wise between their
    /// deltas — validating underflow as it merges. Only scratch memory
    /// is written before the final swap, so a refused batch leaves the
    /// table untouched, and the retired arrays become the next call's
    /// warm scratch (steady-state epoch updates allocate nothing).
    fn apply_cell_deltas_structural(
        &mut self,
        deltas: &[((u32, u32), i64)],
        old_counts: &mut Vec<u64>,
    ) -> crate::Result<()> {
        use crate::error::GraphError;
        CSR_SCRATCH.with(|scratch| {
            let mut s = scratch.borrow_mut();
            let (row_ptr, col_idx, cell_counts) = &mut *s;
            let rows = self.left_blocks as usize;
            row_ptr.clear();
            row_ptr.reserve(rows + 1);
            row_ptr.push(0usize);
            col_idx.clear();
            col_idx.reserve(self.col_idx.len() + deltas.len());
            cell_counts.clear();
            cell_counts.reserve(self.col_idx.len() + deltas.len());
            let mut di = 0usize;
            let mut row = 0usize;
            while row < rows {
                let next_dirty = deltas.get(di).map_or(rows, |&((l, _), _)| l as usize);
                if next_dirty > row {
                    let (a, b) = (self.row_ptr[row], self.row_ptr[next_dirty]);
                    let base = col_idx.len();
                    col_idx.extend_from_slice(&self.col_idx[a..b]);
                    cell_counts.extend_from_slice(&self.cell_counts[a..b]);
                    for r in row + 1..=next_dirty {
                        row_ptr.push(base + (self.row_ptr[r] - a));
                    }
                    row = next_dirty;
                    continue;
                }
                // Dirty row: walk its deltas in column order,
                // bulk-copying the untouched cell span before each one.
                let end = di
                    + deltas[di..].iter().take_while(|&&((l, _), _)| l as usize == row).count();
                let (a, b) = (self.row_ptr[row], self.row_ptr[row + 1]);
                let old_cols = &self.col_idx[a..b];
                let old_cnts = &self.cell_counts[a..b];
                let mut pos = 0usize;
                for &((l, r), d) in &deltas[di..end] {
                    let cut = pos + old_cols[pos..].partition_point(|&c| c < r);
                    col_idx.extend_from_slice(&old_cols[pos..cut]);
                    cell_counts.extend_from_slice(&old_cnts[pos..cut]);
                    pos = cut;
                    let have = if pos < old_cols.len() && old_cols[pos] == r {
                        pos += 1;
                        old_cnts[pos - 1]
                    } else {
                        0
                    };
                    let new = have as i128 + d as i128;
                    if new < 0 {
                        return Err(GraphError::DeltaCellUnderflow {
                            left_block: l,
                            right_block: r,
                            have,
                            change: d,
                        });
                    }
                    if new != 0 {
                        col_idx.push(r);
                        cell_counts.push(new as u64);
                    }
                    old_counts.push(have);
                }
                col_idx.extend_from_slice(&old_cols[pos..]);
                cell_counts.extend_from_slice(&old_cnts[pos..]);
                di = end;
                row_ptr.push(col_idx.len());
                row += 1;
            }
            std::mem::swap(&mut self.row_ptr, row_ptr);
            std::mem::swap(&mut self.col_idx, col_idx);
            std::mem::swap(&mut self.cell_counts, cell_counts);
            Ok(())
        })
    }

    /// All marginal statistics (row/column sums, total, per-side maxima)
    /// in one pass over the CSR arrays.
    pub fn marginals(&self) -> PairMarginals {
        let mut left = vec![0u64; self.left_blocks as usize];
        let mut right = vec![0u64; self.right_blocks as usize];
        let mut left_sq = vec![0u64; self.left_blocks as usize];
        let mut right_sq = vec![0u64; self.right_blocks as usize];
        let mut total = 0u64;
        for (l, slot) in left.iter_mut().enumerate() {
            let mut row_sum = 0u64;
            let mut row_sq = 0u64;
            for (r, c) in self.row(l as u32) {
                row_sum += c;
                row_sq += c * c;
                right[r as usize] += c;
                right_sq[r as usize] += c * c;
            }
            *slot = row_sum;
            left_sq[l] = row_sq;
            total += row_sum;
        }
        let max_left = left.iter().copied().max().unwrap_or(0);
        let max_right = right.iter().copied().max().unwrap_or(0);
        PairMarginals {
            left,
            right,
            left_sq,
            right_sq,
            total,
            max_left,
            max_right,
        }
    }

    /// The association count between a left block and a right block
    /// (binary search within the row, `O(log cells-in-row)`).
    pub fn get(&self, left_block: u32, right_block: u32) -> u64 {
        let (lo, hi) = (
            self.row_ptr[left_block as usize],
            self.row_ptr[left_block as usize + 1],
        );
        match self.col_idx[lo..hi].binary_search(&right_block) {
            Ok(i) => self.cell_counts[lo + i],
            Err(_) => 0,
        }
    }

    /// Number of non-empty cells.
    pub fn non_empty_cells(&self) -> usize {
        self.col_idx.len()
    }

    /// Total count across all cells (equals the graph's edge count).
    pub fn total(&self) -> u64 {
        self.cell_counts.iter().sum()
    }

    /// Declared left-block count.
    pub fn left_blocks(&self) -> u32 {
        self.left_blocks
    }

    /// Declared right-block count.
    pub fn right_blocks(&self) -> u32 {
        self.right_blocks
    }

    /// Iterates over the non-empty cells of one left block's row as
    /// `(right_block, count)`, in ascending column order.
    pub fn row(&self, left_block: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let (lo, hi) = (
            self.row_ptr[left_block as usize],
            self.row_ptr[left_block as usize + 1],
        );
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.cell_counts[lo..hi])
            .map(|(&r, &c)| (r, c))
    }

    /// Iterates over non-empty `((left_block, right_block), count)` cells
    /// in row-major (left block, then right block) order.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u32), u64)> + '_ {
        (0..self.left_blocks)
            .flat_map(move |l| self.row(l).map(move |(r, c)| ((l, r), c)))
    }

    /// Row sums: associations incident to each left block.
    pub fn left_marginals(&self) -> Vec<u64> {
        (0..self.left_blocks)
            .map(|l| self.row(l).map(|(_, c)| c).sum())
            .collect()
    }

    /// Column sums: associations incident to each right block.
    pub fn right_marginals(&self) -> Vec<u64> {
        let mut m = vec![0u64; self.right_blocks as usize];
        for ((_, r), c) in self.iter() {
            m[r as usize] += c;
        }
        m
    }
}

/// One sharded row range's folded cells, concatenated in row order by
/// [`PairCounts::compute`].
struct RowRangeCells {
    /// Non-empty cell count of every row in the range, in row order.
    row_cells: Vec<usize>,
    col_idx: Vec<u32>,
    cell_counts: Vec<u64>,
}

/// Splits rows `0..offsets.len()-1` into at most `shards` contiguous
/// ranges of roughly equal bucket mass (edge count). Shared with the
/// bulk CSR builder in [`crate::CsrDirectBuilder`].
pub(crate) fn split_rows_by_mass(offsets: &[usize], shards: usize) -> Vec<std::ops::Range<usize>> {
    let rows = offsets.len() - 1;
    let total = *offsets.last().unwrap();
    let shards = shards.clamp(1, rows.max(1));
    let target = total.div_ceil(shards).max(1);
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0usize;
    while start < rows {
        let mut end = start;
        while end < rows && offsets[end + 1] - offsets[start] < target {
            end += 1;
        }
        let end = (end + 1).min(rows);
        ranges.push(start..end);
        start = end;
    }
    if ranges.is_empty() {
        ranges.push(0..rows);
    }
    ranges
}

/// Translates one node's contiguous neighbor run into right-block ids:
/// `out[i] = assignment[neighbors[i].index()]`.
#[inline]
fn scatter_row_blocks(neighbors: &[RightId], assignment: &[u32], out: &mut [u32]) {
    for (slot, r) in out.iter_mut().zip(neighbors) {
        *slot = assignment[r.index() as usize];
    }
}

/// Folds the bucketed right-block ids of rows in `range` into sorted
/// `(column, count)` cells, using a dense scratch array with a touched
/// list so each row costs `O(bucket + distinct·log distinct)`.
fn fold_row_range(
    bucket: &[u32],
    offsets: &[usize],
    range: std::ops::Range<usize>,
    right_blocks: u32,
) -> RowRangeCells {
    let mut scratch = vec![0u64; right_blocks as usize];
    let mut touched: Vec<u32> = Vec::new();
    let mut out = RowRangeCells {
        row_cells: Vec::with_capacity(range.len()),
        col_idx: Vec::new(),
        cell_counts: Vec::new(),
    };
    for row in range {
        for &rb in &bucket[offsets[row]..offsets[row + 1]] {
            if scratch[rb as usize] == 0 {
                touched.push(rb);
            }
            scratch[rb as usize] += 1;
        }
        touched.sort_unstable();
        out.row_cells.push(touched.len());
        for &rb in &touched {
            out.col_idx.push(rb);
            out.cell_counts.push(scratch[rb as usize]);
            scratch[rb as usize] = 0;
        }
        touched.clear();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample_graph() -> BipartiteGraph {
        // 4 left, 3 right.
        let mut b = GraphBuilder::new(4, 3);
        let edges = [(0, 0), (0, 1), (1, 0), (2, 2), (3, 2), (3, 1)];
        for (l, r) in edges {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        b.build()
    }

    #[test]
    fn pair_counts_totals_and_marginals() {
        let g = sample_graph();
        let pl = SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap();
        let pr = SidePartition::new(Side::Right, vec![0, 0, 1], 2).unwrap();
        let pc = PairCounts::compute(&g, &pl, &pr);
        assert_eq!(pc.total(), g.edge_count());
        assert_eq!(pc.get(0, 0), 3); // (L0,R0),(L0,R1),(L1,R0)
        assert_eq!(pc.get(0, 1), 0);
        assert_eq!(pc.get(1, 0), 1); // (L3,R1)
        assert_eq!(pc.get(1, 1), 2); // (L2,R2),(L3,R2)
        assert_eq!(pc.left_marginals(), vec![3, 3]);
        assert_eq!(pc.right_marginals(), vec![4, 2]);
        assert_eq!(pc.non_empty_cells(), 3);
    }

    #[test]
    fn csr_matches_naive_on_sample() {
        let g = sample_graph();
        let pl = SidePartition::new(Side::Left, vec![1, 0, 1, 0], 2).unwrap();
        let pr = SidePartition::new(Side::Right, vec![2, 1, 0], 3).unwrap();
        assert_eq!(
            PairCounts::compute(&g, &pl, &pr),
            PairCounts::compute_naive(&g, &pl, &pr)
        );
    }

    #[test]
    fn iter_is_row_major_sorted() {
        let g = sample_graph();
        let pl = SidePartition::singletons(Side::Left, 4);
        let pr = SidePartition::singletons(Side::Right, 3);
        let pc = PairCounts::compute(&g, &pl, &pr);
        let cells: Vec<_> = pc.iter().collect();
        let mut sorted = cells.clone();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(cells, sorted);
        assert_eq!(cells.len(), 6); // all edges distinct under singletons
        assert!(cells.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn marginals_one_pass_agrees_with_per_field_accessors() {
        let g = sample_graph();
        let pl = SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap();
        let pr = SidePartition::new(Side::Right, vec![0, 0, 1], 2).unwrap();
        let pc = PairCounts::compute(&g, &pl, &pr);
        let m = pc.marginals();
        assert_eq!(m.left, pc.left_marginals());
        assert_eq!(m.right, pc.right_marginals());
        assert_eq!(m.total, pc.total());
        assert_eq!(m.max_left, 3);
        assert_eq!(m.max_right, 4);
        assert_eq!(m.max_incident(), 4);
        // Marginals equal the partitions' incident-edge counts.
        assert_eq!(m.left, pl.incident_edge_counts(&g));
        assert_eq!(m.right, pr.incident_edge_counts(&g));
    }

    #[test]
    fn rollup_matches_direct_computation() {
        let g = sample_graph();
        let fine_l = SidePartition::singletons(Side::Left, 4);
        let fine_r = SidePartition::singletons(Side::Right, 3);
        let coarse_l = SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap();
        let coarse_r = SidePartition::new(Side::Right, vec![0, 0, 1], 2).unwrap();
        let fine = PairCounts::compute(&g, &fine_l, &fine_r);
        let lmap = fine_l.block_map_to(&coarse_l).unwrap();
        let rmap = fine_r.block_map_to(&coarse_r).unwrap();
        let rolled = fine.rollup(&lmap, 2, &rmap, 2);
        assert_eq!(rolled, PairCounts::compute(&g, &coarse_l, &coarse_r));
    }

    #[test]
    fn rollup_sparse_path_matches_dense() {
        let g = sample_graph();
        let fine_l = SidePartition::singletons(Side::Left, 4);
        let fine_r = SidePartition::singletons(Side::Right, 3);
        let fine = PairCounts::compute(&g, &fine_l, &fine_r);
        // Identity maps: rollup to the same shape through both paths.
        let lmap: Vec<u32> = (0..4).collect();
        let rmap: Vec<u32> = (0..3).collect();
        let dense = fine.rollup(&lmap, 4, &rmap, 3);
        assert_eq!(dense, fine);
        // Force the keyed path by exceeding the dense cell budget with a
        // huge declared coarse grid (maps still land in range 0..4/0..3,
        // but the grid 2^20 × 2^20 cells is far past the dense cap).
        let big = 1u32 << 20;
        let sparse = fine.rollup(&lmap, big, &rmap, big);
        assert_eq!(sparse.non_empty_cells(), fine.non_empty_cells());
        for ((l, r), c) in fine.iter() {
            assert_eq!(sparse.get(l, r), c);
        }
    }

    #[test]
    fn rollup_to_zero_block_side_yields_empty_counts() {
        let g = BipartiteGraph::empty(2, 0);
        let pl = SidePartition::singletons(Side::Left, 2);
        let pr = SidePartition::singletons(Side::Right, 0);
        let pc = PairCounts::compute(&g, &pl, &pr);
        // Rolling up toward an empty right side must not panic.
        let rolled = pc.rollup(&[0, 0], 1, &[], 0);
        assert_eq!(rolled.non_empty_cells(), 0);
        assert_eq!(rolled.left_blocks(), 1);
        assert_eq!(rolled.right_blocks(), 0);
        assert_eq!(rolled.marginals().total, 0);
    }

    #[test]
    fn empty_graph_yields_empty_counts() {
        let g = BipartiteGraph::empty(3, 2);
        let pl = SidePartition::whole(Side::Left, 3).unwrap();
        let pr = SidePartition::whole(Side::Right, 2).unwrap();
        let pc = PairCounts::compute(&g, &pl, &pr);
        assert_eq!(pc.non_empty_cells(), 0);
        assert_eq!(pc.total(), 0);
        assert_eq!(pc.get(0, 0), 0);
        let m = pc.marginals();
        assert_eq!(m.max_incident(), 0);
        assert_eq!(pc, PairCounts::compute_naive(&g, &pl, &pr));
    }

    #[test]
    #[should_panic(expected = "left partition must be Side::Left")]
    fn wrong_side_panics() {
        let g = sample_graph();
        let pr = SidePartition::new(Side::Right, vec![0, 0, 1], 2).unwrap();
        let _ = PairCounts::compute(&g, &pr.clone(), &pr);
    }

    /// The neighbor→block scatter must translate every neighbor at every
    /// run length.
    #[test]
    fn scatter_row_blocks_matches_block_of() {
        let assignment: Vec<u32> = (0..40u32).map(|r| (r * 7) % 11).collect();
        for len in [0usize, 1, 7, 8, 9, 16, 17, 33] {
            let neighbors: Vec<RightId> =
                (0..len as u32).map(|i| RightId::new((i * 3) % 40)).collect();
            let mut out = vec![u32::MAX; len];
            scatter_row_blocks(&neighbors, &assignment, &mut out);
            let expect: Vec<u32> = neighbors
                .iter()
                .map(|r| assignment[r.index() as usize])
                .collect();
            assert_eq!(out, expect, "len {len}");
        }
    }

    #[test]
    fn cell_deltas_in_place_path() {
        let g = sample_graph();
        let pl = SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap();
        let pr = SidePartition::new(Side::Right, vec![0, 0, 1], 2).unwrap();
        let mut pc = PairCounts::compute(&g, &pl, &pr);
        // All touched cells exist and survive: (0,0)=3, (1,0)=1, (1,1)=2.
        pc.apply_cell_deltas(&[((0, 0), 2), ((1, 1), -1)]).unwrap();
        assert_eq!(pc.get(0, 0), 5);
        assert_eq!(pc.get(1, 0), 1);
        assert_eq!(pc.get(1, 1), 1);
        assert_eq!(pc.non_empty_cells(), 3);
    }

    #[test]
    fn cell_deltas_structural_rebuild() {
        let g = sample_graph();
        let pl = SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap();
        let pr = SidePartition::new(Side::Right, vec![0, 0, 1], 2).unwrap();
        let mut pc = PairCounts::compute(&g, &pl, &pr);
        // Kill (1,0), birth (0,1), leave row 1's other cell alone.
        pc.apply_cell_deltas(&[((0, 1), 4), ((1, 0), -1)]).unwrap();
        assert_eq!(pc.get(0, 1), 4);
        assert_eq!(pc.get(1, 0), 0);
        assert_eq!(pc.get(1, 1), 2);
        assert_eq!(pc.non_empty_cells(), 3);
        // Canonical CSR: equal to a from-scratch table with those counts.
        let expect = PairCounts::from_sorted_cells(
            &[((0, 0), 3), ((0, 1), 4), ((1, 1), 2)],
            2,
            2,
        );
        assert_eq!(pc, expect);
    }

    #[test]
    fn cell_deltas_delete_row_to_empty() {
        let mut pc = PairCounts::from_sorted_cells(&[((0, 0), 2), ((2, 1), 1)], 3, 2);
        pc.apply_cell_deltas(&[((2, 1), -1)]).unwrap();
        assert_eq!(pc.get(2, 1), 0);
        assert_eq!(pc.non_empty_cells(), 1);
        assert_eq!(pc, PairCounts::from_sorted_cells(&[((0, 0), 2)], 3, 2));
        // Empty delta batch is a no-op on any table.
        let before = pc.clone();
        pc.apply_cell_deltas(&[]).unwrap();
        assert_eq!(pc, before);
    }

    #[test]
    fn cell_deltas_refusals_leave_counts_untouched() {
        let base = PairCounts::from_sorted_cells(&[((0, 0), 2), ((1, 1), 1)], 2, 2);
        let cases: &[&[((u32, u32), i64)]] = &[
            &[((0, 0), -3)],                  // underflow
            &[((0, 0), 1), ((0, 0), 1)],      // duplicate key
            &[((1, 1), 1), ((0, 0), 1)],      // unsorted
            &[((0, 1), 0)],                   // zero change
            &[((5, 0), 1)],                   // left block out of range
            &[((0, 9), 1)],                   // right block out of range
            &[((0, 1), -1)],                  // underflow on an absent cell
        ];
        for deltas in cases {
            let mut pc = base.clone();
            assert!(pc.apply_cell_deltas(deltas).is_err(), "{deltas:?}");
            assert_eq!(pc, base, "{deltas:?}");
        }
        assert!(matches!(
            base.clone().apply_cell_deltas(&[((0, 0), -3)]),
            Err(crate::GraphError::DeltaCellUnderflow {
                left_block: 0,
                right_block: 0,
                have: 2,
                change: -3
            })
        ));
    }

    #[test]
    fn row_mass_split_covers_all_rows() {
        let offsets = vec![0usize, 5, 5, 9, 20, 21];
        for shards in 1..8 {
            let ranges = split_rows_by_mass(&offsets, shards);
            let mut covered = Vec::new();
            for r in &ranges {
                covered.extend(r.clone());
            }
            assert_eq!(covered, (0..5).collect::<Vec<_>>(), "shards={shards}");
        }
    }
}
