//! The raw subset-gather kernel behind [`IndexedRelease::estimate`].
//!
//! Exposed as a public module so the bench harness and the equivalence
//! property suites can drive the production form and its pinned naive
//! reference directly, without an artifact in the loop.
//!
//! # Structure
//!
//! The naive form ([`gather_subset_naive`]) interleaves the bounds
//! check, the duplicate-bitmap update and the dependent double gather
//! in one loop body — every iteration carries two branches and the
//! bitmap read-modify-write — and zero-initializes an 8 KiB stack
//! bitmap per call (or, on sides past 65 536 nodes, allocates and sorts
//! a copy of the subset). [`gather_subset`] splits that into three
//! plain passes:
//!
//! 1. **Bounds**: one max-fold over the subset; any node `>= n` makes
//!    it defective.
//! 2. **Duplicates**: a branchless sweep over a **reusable thread-local
//!    bitmap**, cleared lazily (only the words the subset touched).
//!    Every node is in range by then, so the clear walks the whole
//!    subset.
//! 3. **Sum**: a check-free ordered double gather.
//!
//! Summation order is part of the released-answer contract (an
//! artifact sealed yesterday must serve the same bits tomorrow), so the
//! sum runs in subset order, exactly as in the naive loop; the speedup
//! comes from the reusable bitmap and from taking branches out of the
//! float chain, not from reordering it.
//!
//! [`IndexedRelease::estimate`]: crate::IndexedRelease::estimate

use std::cell::RefCell;

/// Stack-bitmap capacity of the naive form: 1024 words = 65 536 node
/// ids, the boundary past which it falls back to sort-based duplicate
/// detection.
const NAIVE_BITMAP_WORDS: usize = 1024;

thread_local! {
    /// The reusable duplicate-detection bitmap. Sized to the largest
    /// side this thread has gathered against, zero between calls by
    /// the lazy-clear invariant: every call clears exactly the words
    /// its subset set before returning.
    static DUP_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The subset gather: `Σ premass[group_of[v]]` over `v` in subset
/// order, or `None` when the subset is defective (a node out of range,
/// or a duplicate) — the caller re-walks defective subsets canonically
/// to produce the typed error, so this path never decides error
/// precedence.
///
/// Bit-identical to [`gather_subset_naive`] on every input (pinned by
/// unit and property tests): validation is hoisted, the accumulation
/// order is not changed.
pub fn gather_subset(group_of: &[u32], premass: &[f64], nodes: &[u32]) -> Option<f64> {
    let n = group_of.len() as u32;
    if !nodes.is_empty() && nodes.iter().fold(0, |m, &v| m.max(v)) >= n {
        return None;
    }
    if has_duplicate(nodes, n) {
        return None;
    }
    let mut total = 0.0;
    for &node in nodes {
        total += premass[group_of[node as usize] as usize];
    }
    Some(total)
}

/// Branchless duplicate sweep over the thread-local scratch bitmap.
/// Every node must be `< n`. The bits it sets are cleared before
/// returning.
fn has_duplicate(nodes: &[u32], n: u32) -> bool {
    let words = (n as usize).div_ceil(64);
    DUP_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        if scratch.len() < words {
            scratch.resize(words, 0);
        }
        let mut seen = 0u64;
        for &node in nodes {
            let (word, bit) = (node as usize / 64, 1u64 << (node % 64));
            seen |= scratch[word] & bit;
            scratch[word] |= bit;
        }
        for &node in nodes {
            scratch[node as usize / 64] = 0;
        }
        seen != 0
    })
}

/// The single-loop form, kept as the **naive reference**: per-node bounds branch, interleaved bitmap update (a
/// zero-initialized 8 KiB stack bitmap for sides up to 65 536 nodes),
/// and — beyond that — duplicate detection by allocating and sorting a
/// copy of the subset on every call. The equivalence baseline and the
/// bench comparison point for [`gather_subset`].
pub fn gather_subset_naive(group_of: &[u32], premass: &[f64], nodes: &[u32]) -> Option<f64> {
    let n = group_of.len() as u32;
    let words = (n as usize).div_ceil(64);
    let mut defective = false;
    let mut total = 0.0;
    if words <= NAIVE_BITMAP_WORDS {
        let mut bitmap = [0u64; NAIVE_BITMAP_WORDS];
        for &node in nodes {
            if node >= n {
                defective = true;
                break;
            }
            let (word, bit) = (node as usize / 64, 1u64 << (node % 64));
            defective |= bitmap[word] & bit != 0;
            bitmap[word] |= bit;
            total += premass[group_of[node as usize] as usize];
        }
    } else {
        for &node in nodes {
            if node >= n {
                defective = true;
                break;
            }
            total += premass[group_of[node as usize] as usize];
        }
        if !defective {
            let mut sorted = nodes.to_vec();
            sorted.sort_unstable();
            defective = sorted.windows(2).any(|w| w[0] == w[1]);
        }
    }
    if defective {
        None
    } else {
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side of `n` nodes with `groups` groups and sign-mixed premass
    /// values (including a negative zero and a subnormal so ordered
    /// summation differences cannot hide).
    fn side(n: u32, groups: u32) -> (Vec<u32>, Vec<f64>) {
        let group_of: Vec<u32> = (0..n).map(|v| (v.wrapping_mul(2_654_435_761)) % groups).collect();
        let premass: Vec<f64> = (0..groups)
            .map(|g| match g % 5 {
                0 => -0.0,
                1 => f64::MIN_POSITIVE / 2.0,
                2 => (g as f64) * 1e12,
                3 => -(g as f64) * 1e-9,
                _ => g as f64 + 0.125,
            })
            .collect();
        (group_of, premass)
    }

    fn assert_paths_agree(group_of: &[u32], premass: &[f64], nodes: &[u32]) {
        let fast = gather_subset(group_of, premass, nodes);
        let naive = gather_subset_naive(group_of, premass, nodes);
        assert_eq!(
            fast.map(f64::to_bits),
            naive.map(f64::to_bits),
            "fast/naive divergence on subset {nodes:?}"
        );
    }

    /// The 65 536-node naive boundary, one node either side of it and on
    /// it: the gather must agree bitwise with whichever duplicate
    /// detector the naive form picks (stack bitmap or sort).
    #[test]
    fn boundary_65536_both_sides() {
        for n in [65_535u32, 65_536, 65_537] {
            let (group_of, premass) = side(n, 73);
            // Clean subsets across the whole range, remainder lengths included.
            let clean: Vec<u32> = (0..80).map(|i| i * (n / 80)).collect();
            assert_paths_agree(&group_of, &premass, &clean);
            assert_paths_agree(&group_of, &premass, &clean[..7]);
            assert_paths_agree(&group_of, &premass, &[n - 1]);
            // Duplicates, early and late.
            let mut dup = clean.clone();
            dup.push(clean[3]);
            assert_paths_agree(&group_of, &premass, &dup);
            assert_paths_agree(&group_of, &premass, &[0, 0]);
            // Out of range, alone and after valid prefixes.
            assert_paths_agree(&group_of, &premass, &[n]);
            let mut oob = clean.clone();
            oob.push(n + 17);
            assert_paths_agree(&group_of, &premass, &oob);
            // Empty subset.
            assert_paths_agree(&group_of, &premass, &[]);
        }
    }

    /// The scratch bitmap must not leak state between calls on the same
    /// thread: a duplicate (or an out-of-range id) in one call must
    /// leave the next call's verdicts untouched.
    #[test]
    fn scratch_bitmap_clears_between_calls() {
        let (group_of, premass) = side(200_000, 31);
        let probe: Vec<u32> = (0..64u32).map(|i| i * 3000).collect();
        let baseline = gather_subset(&group_of, &premass, &probe).expect("clean subset");
        // A duplicate-heavy call, an out-of-range call, then the probe
        // again — same bits.
        let mut dup = probe.clone();
        dup.extend_from_slice(&probe);
        assert_eq!(gather_subset(&group_of, &premass, &dup), None);
        let mut oob = probe.clone();
        oob.push(400_000);
        assert_eq!(gather_subset(&group_of, &premass, &oob), None);
        let again = gather_subset(&group_of, &premass, &probe).expect("still clean");
        assert_eq!(baseline.to_bits(), again.to_bits());
        // And a subset that *reuses* ids from the defective calls is
        // still clean — the bits really were cleared, not masked.
        assert!(gather_subset(&group_of, &premass, &probe[..7]).is_some());
    }

    /// Growing the scratch (first large side seen on the thread) must
    /// zero-fill the new words.
    #[test]
    fn scratch_bitmap_grows_zeroed() {
        let (small_g, small_p) = side(70_000, 11);
        let (big_g, big_p) = side(900_000, 11);
        let nodes: Vec<u32> = (0..33u32).map(|i| 60_000 + i * 17).collect();
        assert_paths_agree(&small_g, &small_p, &nodes);
        let far: Vec<u32> = (0..33u32).map(|i| 800_000 + i * 13).collect();
        assert_paths_agree(&big_g, &big_p, &far);
        assert_paths_agree(&big_g, &big_p, &nodes);
    }

    #[test]
    fn chunk_granular_oob_matches_scalar_verdict() {
        // An out-of-range id, and separately a duplicate, at every
        // position of the subset: the hoisted passes and the naive
        // per-node loop must both report defective, and clean calls
        // must still work afterwards.
        let (group_of, premass) = side(1000, 7);
        let clean: Vec<u32> = (0..17).collect();
        for pos in 0..clean.len() {
            let mut oob = clean.clone();
            oob[pos] = 5000;
            assert_paths_agree(&group_of, &premass, &oob);
            let mut dup = clean.clone();
            dup[pos] = clean[(pos + 1) % clean.len()];
            assert_paths_agree(&group_of, &premass, &dup);
            assert_eq!(gather_subset(&group_of, &premass, &dup), None);
        }
        assert_paths_agree(&group_of, &premass, &[1, 2, 3]);
    }

    #[test]
    fn empty_side_rejects_everything() {
        let (group_of, premass): (Vec<u32>, Vec<f64>) = (Vec::new(), Vec::new());
        assert_eq!(gather_subset(&group_of, &premass, &[0]), None);
        assert_eq!(gather_subset(&group_of, &premass, &[]), Some(0.0));
        assert_eq!(gather_subset_naive(&group_of, &premass, &[]), Some(0.0));
    }
}
