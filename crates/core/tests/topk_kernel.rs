//! The pruned reach kernel behind `single_source`, `top_k` and
//! `top_k_pairs`, checked bitwise against the dense and hash-map kernels
//! it replaced, on random weighted networks at 1 and 4 engine threads.

use hetesim_core::{Halves, HeteSimEngine, RankedPair};
use hetesim_graph::{Hin, HinBuilder, MetaPath, Schema};
use hetesim_sparse::CsrMatrix;
use proptest::prelude::*;
use std::collections::HashMap;

/// A random weighted bibliographic network: authors, papers, conferences
/// and terms, with isolated objects and duplicate edges allowed.
fn arb_hin() -> impl Strategy<Value = Hin> {
    (2..9usize, 3..12usize, 2..6usize, 2..7usize).prop_flat_map(|(na, np, nc, nt)| {
        let writes = proptest::collection::vec((0..na, 0..np, 0.25..4.0f64), 1..30);
        let published = proptest::collection::vec((0..np, 0..nc, 0.25..4.0f64), 1..20);
        let mentions = proptest::collection::vec((0..np, 0..nt, 0.25..4.0f64), 1..30);
        (writes, published, mentions).prop_map(move |(we, pe, me)| {
            let mut schema = Schema::new();
            let a = schema.add_type("author").unwrap();
            let p = schema.add_type("paper").unwrap();
            let c = schema.add_type("conference").unwrap();
            let t = schema.add_type("term").unwrap();
            let rels = [
                schema.add_relation("writes", a, p).unwrap(),
                schema.add_relation("published_in", p, c).unwrap(),
                schema.add_relation("mentions", p, t).unwrap(),
            ];
            let mut b = HinBuilder::new(schema);
            for (ty, n, tag) in [(a, na, "a"), (p, np, "p"), (c, nc, "c"), (t, nt, "t")] {
                for i in 0..n {
                    b.add_node(ty, &format!("{tag}{i}"));
                }
            }
            for (rel, edges) in rels.into_iter().zip([we, pe, me]) {
                for (x, y, w) in edges {
                    b.add_edge(rel, x as u32, y as u32, w).unwrap();
                }
            }
            b.build()
        })
    })
}

/// Even and odd (edge-object) paths, symmetric and not.
const PATHS: [&str; 7] = ["APC", "AP", "APA", "APT", "CPA", "APCPA", "TPAPC"];

/// The dense single-source kernel this crate used before the reach walk:
/// `right · u` over every target row, then the cosine denominators.
/// `right` is `PM_PR⁻¹`, rebuilt by the caller as `right_tᵀ`.
fn dense_single_source(h: &Halves, right: &CsrMatrix, a: u32) -> Vec<f64> {
    let u = h.left.row(a as usize);
    let nt = right.nrows();
    if u.is_empty() {
        return vec![0.0; nt];
    }
    let un = u.l2_norm();
    let dots = right.matvec(&u.to_dense()).unwrap();
    dots.iter()
        .enumerate()
        .map(|(t, &d)| {
            let denom = un * h.right_norms[t];
            if denom == 0.0 {
                0.0
            } else {
                d / denom
            }
        })
        .collect()
}

/// The hash-map top-k join this crate used before the reach walk: every
/// reachable pair scored, then the `k` best under (score desc, pair asc).
fn hashmap_top_k_pairs(h: &Halves, k: usize) -> Vec<RankedPair> {
    let mut all = Vec::new();
    for s in 0..h.left.nrows() {
        let u = h.left.row(s);
        if u.is_empty() {
            continue;
        }
        let un = u.l2_norm();
        let mut acc: HashMap<u32, f64> = HashMap::new();
        for (m, w) in u.iter() {
            for (&t, &v) in h.right_t.row_indices(m).iter().zip(h.right_t.row_values(m)) {
                *acc.entry(t).or_insert(0.0) += w * v;
            }
        }
        for (t, dot) in acc {
            let denom = un * h.right_norms[t as usize];
            if denom > 0.0 && (dot / denom).is_finite() {
                all.push(RankedPair {
                    source: s as u32,
                    target: t,
                    score: dot / denom,
                });
            }
        }
    }
    all.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap()
            .then_with(|| (x.source, x.target).cmp(&(y.source, y.target)))
    });
    all.truncate(k);
    all
}

/// Targets sharing at least one middle object with source `a` and having
/// a non-zero cosine denominator.
fn reachable_targets(h: &Halves, right: &CsrMatrix, a: u32) -> Vec<u32> {
    let middles = h.left.row_indices(a as usize);
    let un = h.left_norms[a as usize];
    (0..right.nrows() as u32)
        .filter(|&t| {
            un * h.right_norms[t as usize] > 0.0
                && right
                    .row_indices(t as usize)
                    .iter()
                    .any(|m| middles.contains(m))
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `single_source` is bitwise the dense product; `top_k` ranks exactly
    /// the reachable targets with the same bits, and a short list omits no
    /// target that outranks its last entry.
    #[test]
    fn single_source_and_top_k_match_the_dense_kernel(
        hin in arb_hin(),
        path_idx in 0..PATHS.len(),
    ) {
        let path = MetaPath::parse(hin.schema(), PATHS[path_idx]).unwrap();
        for threads in [1usize, 4] {
            let e = HeteSimEngine::with_threads(&hin, threads);
            let h = e.materialized_halves(&path).unwrap();
            let right = h.right_t.transpose();
            let nt = right.nrows();
            for a in 0..h.left.nrows() as u32 {
                let row = e.single_source(&path, a).unwrap();
                prop_assert_eq!(bits(&row), bits(&dense_single_source(&h, &right, a)));

                let all = e.top_k(&path, a, nt + 1).unwrap();
                let mut ranked: Vec<u32> = all.iter().map(|r| r.index).collect();
                ranked.sort_unstable();
                prop_assert_eq!(ranked, reachable_targets(&h, &right, a));
                for r in &all {
                    prop_assert_eq!(r.score.to_bits(), row[r.index as usize].to_bits());
                }

                for k in [1usize, 2, 3] {
                    let top = e.top_k(&path, a, k).unwrap();
                    prop_assert_eq!(&top[..], &all[..k.min(all.len())]);
                    let Some(last) = top.last() else { continue };
                    for (t, &score) in row.iter().enumerate() {
                        if top.iter().any(|r| r.index as usize == t) {
                            continue;
                        }
                        prop_assert!(
                            score < last.score || (score == last.score && t as u32 > last.index),
                            "omitted target {} scores {} above last kept {:?}", t, score, last
                        );
                    }
                }
            }
        }
    }

    /// The top-k join is unchanged against the hash-map join.
    #[test]
    fn top_k_pairs_match_the_hashmap_join(hin in arb_hin(), path_idx in 0..PATHS.len()) {
        let path = MetaPath::parse(hin.schema(), PATHS[path_idx]).unwrap();
        for threads in [1usize, 4] {
            let e = HeteSimEngine::with_threads(&hin, threads);
            let h = e.materialized_halves(&path).unwrap();
            for k in [1usize, 5, 1000] {
                let got = e.top_k_pairs(&path, k).unwrap();
                let want = hashmap_top_k_pairs(&h, k);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!((g.source, g.target), (w.source, w.target));
                    prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
                }
            }
        }
    }
}
