//! The artifact content digest: FNV-1a over the canonical compact JSON
//! of the hierarchy and the release, rendered streaming.
//!
//! [`content_digest`] renders exactly the bytes `serde_json::to_string`
//! produces for a [`GroupHierarchy`] and a [`MultiLevelRelease`] — the
//! field order and enum spellings of their derives, serde_json's float
//! rule — and folds each piece into the running FNV-1a state as soon as
//! it is rendered. It builds no `serde::Value` tree and allocates no
//! `String`. [`content_digest_naive`] keeps the value-tree route as the
//! equivalence baseline; property tests and a golden literal pin the
//! two bit-identical.

use std::fmt::{self, Write as _};

use gdp_graph::io as graph_io;
use gdp_graph::{Side, SidePartition};
use gdp_mechanisms::PrivacyBudget;

use crate::disclosure::NoiseMechanism;
use crate::error::CoreError;
use crate::hierarchy::GroupHierarchy;
use crate::queries::Query;
use crate::release::{LevelRelease, MultiLevelRelease, QueryRelease};
use crate::Result;

/// The FNV-1a content digest a sealed manifest promises: the compact
/// canonical JSON of the hierarchy, a zero separator byte, then the
/// compact canonical JSON of the release. Rendering is deterministic
/// (shortest-round-trip floats, fixed field order), so a lossless
/// save/load cycle reproduces the digest bit-for-bit.
///
/// # Errors
///
/// [`CoreError::Artifact`] when the release holds a non-finite float,
/// which JSON cannot represent.
pub fn content_digest(hierarchy: &GroupHierarchy, release: &MultiLevelRelease) -> Result<u64> {
    // The digest of no bytes is FNV-1a's offset basis.
    let mut state = graph_io::fnv1a_64(&[]);
    let mut out = Canonical(|piece: &[u8]| state = graph_io::fnv1a_64_with(state, piece));
    // A hierarchy holds no floats, so only the release can fail.
    out.hierarchy(hierarchy)
        .and_then(|()| {
            out.bytes(&[0]);
            out.release(release)
        })
        .map_err(|NonFinite(f)| {
            CoreError::Artifact(format!(
                "cannot canonicalize release for digest: cannot serialize non-finite float {f}"
            ))
        })?;
    Ok(state)
}

/// [`content_digest`] through the `serde::Value` tree and
/// `serde_json::to_string` — the naive baseline the streamed renderer
/// is pinned bit-identical to.
///
/// # Errors
///
/// As [`content_digest`].
pub fn content_digest_naive(
    hierarchy: &GroupHierarchy,
    release: &MultiLevelRelease,
) -> Result<u64> {
    let canon = |what: &str, r: std::result::Result<String, serde_json::Error>| {
        r.map_err(|e| {
            CoreError::Artifact(format!("cannot canonicalize {what} for digest: {}", e.0))
        })
    };
    let h = canon("hierarchy", serde_json::to_string(hierarchy))?;
    let r = canon("release", serde_json::to_string(release))?;
    let mut digest = graph_io::fnv1a_64(h.as_bytes());
    digest = graph_io::fnv1a_64_with(digest, &[0]);
    Ok(graph_io::fnv1a_64_with(digest, r.as_bytes()))
}

/// A float JSON cannot represent, met while rendering.
struct NonFinite(f64);

type Rendered = std::result::Result<(), NonFinite>;

/// Canonical compact-JSON writer: every rendered piece goes straight to
/// `sink`. The digest's sink folds it into the FNV-1a state at once, so
/// rendering the next value overlaps the hash's serial multiply chain
/// instead of waiting for a buffer to fill.
struct Canonical<F: FnMut(&[u8])>(F);

impl<F: FnMut(&[u8])> Canonical<F> {
    fn bytes(&mut self, b: &[u8]) {
        (self.0)(b);
    }

    fn uint(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.bytes(&digits[at..]);
    }

    /// serde_json's float rule: `{:.1}` for integral values below
    /// 1e15 in magnitude (so `2.0` stays a float), `Display` otherwise.
    fn float(&mut self, f: f64) -> Rendered {
        if !f.is_finite() {
            return Err(NonFinite(f));
        }
        if f.fract() == 0.0 && f.abs() < 1e15 {
            // Exact: |f| < 1e15 < 2^53. `{:.1}` signs negative zero.
            if f.is_sign_negative() {
                self.bytes(b"-");
            }
            self.uint(f.abs() as u64);
            self.bytes(b".0");
        } else {
            write!(self, "{f}").expect("the sink never fails a write");
        }
        Ok(())
    }

    /// A JSON array of `items`, each rendered by `item`.
    fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T) -> Rendered) -> Rendered {
        self.bytes(b"[");
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                self.bytes(b",");
            }
            item(self, x)?;
        }
        self.bytes(b"]");
        Ok(())
    }

    fn hierarchy(&mut self, h: &GroupHierarchy) -> Rendered {
        self.bytes(b"{\"levels\":");
        self.seq(h.levels(), |out, level| {
            out.bytes(b"{\"left\":");
            out.partition(level.left())?;
            out.bytes(b",\"right\":");
            out.partition(level.right())?;
            out.bytes(b"}");
            Ok(())
        })?;
        self.bytes(b"}");
        Ok(())
    }

    fn partition(&mut self, p: &SidePartition) -> Rendered {
        self.bytes(match p.side() {
            Side::Left => b"{\"side\":\"Left\",\"assignment\":",
            Side::Right => b"{\"side\":\"Right\",\"assignment\":",
        });
        self.seq(p.assignment(), |out, &block| {
            out.uint(block.into());
            Ok(())
        })?;
        self.bytes(b",\"block_count\":");
        self.uint(p.block_count().into());
        self.bytes(b"}");
        Ok(())
    }

    fn release(&mut self, r: &MultiLevelRelease) -> Rendered {
        self.bytes(match r.mechanism() {
            NoiseMechanism::GaussianClassic => b"{\"mechanism\":\"GaussianClassic\"",
            NoiseMechanism::GaussianAnalytic => b"{\"mechanism\":\"GaussianAnalytic\"",
            NoiseMechanism::Laplace => b"{\"mechanism\":\"Laplace\"",
            NoiseMechanism::Geometric => b"{\"mechanism\":\"Geometric\"",
        });
        self.bytes(b",\"epsilon_g\":");
        self.float(r.epsilon_g())?;
        self.bytes(b",\"delta\":");
        self.float(r.delta())?;
        self.bytes(b",\"levels\":");
        self.seq(r.levels(), Self::level)?;
        self.bytes(b"}");
        Ok(())
    }

    fn level(&mut self, l: &LevelRelease) -> Rendered {
        self.bytes(b"{\"level\":");
        self.uint(l.level as u64);
        self.bytes(b",\"group_count\":");
        self.uint(l.group_count);
        self.bytes(b",\"max_group_size\":");
        self.uint(l.max_group_size.into());
        self.bytes(b",\"budget\":");
        self.budget(&l.budget)?;
        self.bytes(b",\"queries\":");
        self.seq(&l.queries, Self::query_release)?;
        self.bytes(b"}");
        Ok(())
    }

    fn budget(&mut self, b: &PrivacyBudget) -> Rendered {
        self.bytes(b"{\"epsilon\":");
        self.float(b.epsilon.into())?;
        self.bytes(b",\"delta\":");
        self.float(b.delta.into())?;
        self.bytes(b"}");
        Ok(())
    }

    fn query_release(&mut self, q: &QueryRelease) -> Rendered {
        self.bytes(b"{\"query\":");
        match q.query {
            Query::TotalAssociations => self.bytes(b"\"TotalAssociations\""),
            Query::PerGroupCounts => self.bytes(b"\"PerGroupCounts\""),
            Query::LeftDegreeHistogram { max_degree } => {
                self.bytes(b"{\"LeftDegreeHistogram\":{\"max_degree\":");
                self.uint(max_degree.into());
                self.bytes(b"}}");
            }
            Query::GroupSizeCounts => self.bytes(b"\"GroupSizeCounts\""),
        }
        self.bytes(b",\"noisy_values\":");
        self.seq(&q.noisy_values, |out, &v| out.float(v))?;
        self.bytes(b",\"noise_scale\":");
        self.float(q.noise_scale)?;
        self.bytes(b",\"sensitivity\":{\"l1\":");
        self.float(q.sensitivity.l1)?;
        self.bytes(b",\"l2\":");
        self.float(q.sensitivity.l2)?;
        self.bytes(b"}}");
        Ok(())
    }
}

impl<F: FnMut(&[u8])> fmt::Write for Canonical<F> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::GroupLevel;
    use crate::sensitivity::LevelSensitivity;

    /// A two-level hierarchy and release built by hand (no RNG): every
    /// [`Query`] variant at every level, and floats on every branch of
    /// the canonical rule — negative zero, the smallest subnormal,
    /// fractions, integral values on both sides of 1e15, and `f64::MAX`.
    fn golden_parts(mechanism: NoiseMechanism) -> (GroupHierarchy, MultiLevelRelease) {
        let partition = |side, assignment: Vec<u32>, blocks| {
            SidePartition::new(side, assignment, blocks).unwrap()
        };
        let hierarchy = GroupHierarchy::new(vec![
            GroupLevel::new(
                partition(Side::Left, vec![0, 1, 2], 3),
                partition(Side::Right, vec![0, 1], 2),
            )
            .unwrap(),
            GroupLevel::new(
                partition(Side::Left, vec![0, 0, 0], 1),
                partition(Side::Right, vec![0, 0], 1),
            )
            .unwrap(),
        ])
        .unwrap();
        let query = |query, noisy_values: Vec<f64>, noise_scale, l1: f64| QueryRelease {
            query,
            noisy_values,
            noise_scale,
            sensitivity: LevelSensitivity { l1, l2: l1.sqrt() },
        };
        let level = |level, group_count, max_group_size, queries| LevelRelease {
            level,
            group_count,
            max_group_size,
            budget: PrivacyBudget::new(0.5, 1e-6).unwrap(),
            queries,
        };
        let levels = vec![
            level(
                0,
                5,
                1,
                vec![
                    query(Query::TotalAssociations, vec![-12.25], 0.1, 3.0),
                    query(
                        Query::PerGroupCounts,
                        vec![-0.0, 5e-324, 1e-7, 0.1, 1e15 - 1.0],
                        1e15,
                        2.0,
                    ),
                    query(
                        Query::LeftDegreeHistogram { max_degree: 2 },
                        vec![1e15, 1e16, f64::MAX],
                        2.5e-3,
                        4.0,
                    ),
                    query(
                        Query::GroupSizeCounts,
                        vec![1.0, -1.0, 0.0, 7.0, 1.0],
                        1.0,
                        1.0,
                    ),
                ],
            ),
            level(
                1,
                2,
                3,
                vec![
                    query(Query::TotalAssociations, vec![3.0], 12.0, 6.0),
                    query(Query::PerGroupCounts, vec![-7.5, 2.0], 123456.789, 6.0),
                    query(
                        Query::LeftDegreeHistogram { max_degree: 2 },
                        vec![-1e-7, -f64::MAX, 123456789.0],
                        1e-300,
                        3.0,
                    ),
                    query(Query::GroupSizeCounts, vec![3.0, 2.0], 3.0, 3.0),
                ],
            ),
        ];
        let release = MultiLevelRelease::new(mechanism, 0.5, 1e-6, levels).unwrap();
        (hierarchy, release)
    }

    const MECHANISMS: [NoiseMechanism; 4] = [
        NoiseMechanism::GaussianClassic,
        NoiseMechanism::GaussianAnalytic,
        NoiseMechanism::Laplace,
        NoiseMechanism::Geometric,
    ];

    /// The bytes the digest folds, collected instead of hashed.
    fn rendered(hierarchy: &GroupHierarchy, release: &MultiLevelRelease) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut out = Canonical(|piece: &[u8]| bytes.extend_from_slice(piece));
        assert!(out.hierarchy(hierarchy).is_ok());
        out.bytes(&[0]);
        assert!(out.release(release).is_ok());
        bytes
    }

    #[test]
    fn streamed_bytes_are_serde_json_bytes() {
        for mechanism in MECHANISMS {
            let (h, r) = golden_parts(mechanism);
            let mut expected = serde_json::to_string(&h).unwrap().into_bytes();
            expected.push(0);
            expected.extend_from_slice(serde_json::to_string(&r).unwrap().as_bytes());
            let got = rendered(&h, &r);
            assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&expected)
            );
        }
    }

    /// Committed digests of [`golden_parts`], one per mechanism. These
    /// pin the digest definition itself: a renderer change, or a change
    /// to the vendored serde/serde_json shims, that moved them would
    /// break every artifact already on disk.
    #[test]
    fn golden_digests_are_stable_on_both_paths() {
        const GOLDEN: [u64; 4] = [
            0x78d9_fd47_bdf3_7ccc,
            0x6f17_037b_6529_c099,
            0xb4c9_9104_741a_5d21,
            0x7d46_b44e_d171_f8a0,
        ];
        for (mechanism, golden) in MECHANISMS.into_iter().zip(GOLDEN) {
            let (h, r) = golden_parts(mechanism);
            assert_eq!(
                content_digest(&h, &r).unwrap(),
                golden,
                "{mechanism:?} streamed"
            );
            assert_eq!(
                content_digest_naive(&h, &r).unwrap(),
                golden,
                "{mechanism:?} naive"
            );
            let sealed = crate::ReleaseArtifact::seal("golden", 1, h, r).unwrap();
            assert_eq!(
                sealed.manifest().content_digest,
                Some(golden),
                "{mechanism:?} seal"
            );
        }
    }

    #[test]
    fn non_finite_floats_fail_both_paths_with_one_message() {
        let (h, r) = golden_parts(NoiseMechanism::Laplace);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut levels = r.levels().to_vec();
            levels[1].queries[2].noisy_values[1] = bad;
            let broken = MultiLevelRelease::new(r.mechanism(), 0.5, 1e-6, levels).unwrap();
            let streamed = content_digest(&h, &broken).unwrap_err();
            let naive = content_digest_naive(&h, &broken).unwrap_err();
            assert!(matches!(streamed, CoreError::Artifact(_)), "{streamed}");
            assert_eq!(streamed.to_string(), naive.to_string());
            assert!(streamed
                .to_string()
                .contains("cannot canonicalize release for digest"));
        }
    }
}
