//! A cached half is `left` plus `right_t`. On `P = Q ∘ Q⁻¹` the engine
//! builds `PM_PL` once and uses it as `PM_PR⁻¹`. Checked on random
//! weighted networks at 1 and 4 engine threads: `left` and `right_t` are
//! bitwise the chains built the long way, pair-style queries are bit for
//! bit the row-copy kernels, every query kind agrees with the
//! paper-literal dense oracle (also on asymmetric even and odd paths), and
//! a snapshot round-trip keeps the halves, the residency and the answers.

use hetesim_core::decompose::decompose;
use hetesim_core::{snapshot, HeteSimEngine};
use hetesim_graph::{Hin, HinBuilder, MetaPath, Schema};
use hetesim_sparse::chain::multiply_chain;
use hetesim_sparse::{CsrMatrix, SparseVec};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

mod oracle;

/// A random weighted bibliographic network: authors, papers, conferences
/// and terms, with objects that have no edges and duplicate edges allowed.
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

/// `Q ∘ Q⁻¹` for `Q` of one, two and three steps.
const SYMMETRIC: [&str; 9] = [
    "APA", "CPC", "PTP", "APCPA", "APTPA", "TPCPT", "APCPCPA", "APTPTPA", "CPAPAPC",
];

/// Even and odd paths that are not their own reverse.
const ASYMMETRIC: [&str; 6] = ["AP", "PC", "APC", "TPC", "APCP", "APTPC"];

/// The right half `PM_PR⁻¹` built the long way: its own decomposition,
/// divisors and fused chain.
fn reference_right(hin: &Hin, path: &MetaPath, threads: usize) -> CsrMatrix {
    let d = decompose(hin, path).unwrap();
    let mats: Vec<&CsrMatrix> = d.right_rev.iter().map(|m| m.as_ref()).collect();
    let divisors: Vec<Vec<f64>> = mats.iter().map(|m| m.row_sum_divisors()).collect();
    let divs: Vec<&[f64]> = divisors.iter().map(|d| d.as_slice()).collect();
    multiply_chain(&mats, Some(&divs), threads).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The row-copy explanation kernel: a merge of the two rows, each
/// meeting's product divided by the product of the rows' norms. Returns
/// the meetings in ascending middle order and the score.
fn row_explain(la: &SparseVec, rb: &SparseVec) -> (Vec<(u32, u64)>, f64) {
    let denom = la.l2_norm() * rb.l2_norm();
    let (mut meetings, mut score) = (Vec::new(), 0.0);
    if denom > 0.0 {
        for (m, x) in la.iter() {
            if let Ok(j) = rb.indices().binary_search(&(m as u32)) {
                let contribution = x * rb.values()[j] / denom;
                score += contribution;
                meetings.push((m as u32, contribution.to_bits()));
            }
        }
    }
    (meetings, score)
}

fn bitwise_eq(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.shape() == b.shape()
        && a.indptr() == b.indptr()
        && a.indices() == b.indices()
        && a.values()
            .iter()
            .map(|v| v.to_bits())
            .eq(b.values().iter().map(|v| v.to_bits()))
}

/// A unique scratch snapshot file, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        Scratch(
            std::env::temp_dir().join(format!("hetesim-symmetric-{}-{n}.snap", std::process::id())),
        )
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A symmetric path's one built half is bitwise the right chain, and
    /// every path's `right_t` is bitwise the right chain transposed.
    #[test]
    fn halves_are_the_long_way_chains(hin in arb_hin()) {
        for threads in [1usize, 4] {
            let e = HeteSimEngine::with_threads(&hin, threads);
            for text in SYMMETRIC.iter().chain(&ASYMMETRIC) {
                let path = MetaPath::parse(hin.schema(), text).unwrap();
                let h = e.materialized_halves(&path).unwrap();
                let right = reference_right(&hin, &path, threads);
                prop_assert!(bitwise_eq(&h.right_t, &right.transpose()), "{}", text);
                if path.is_symmetric() {
                    prop_assert!(bitwise_eq(&h.left, &right), "{}", text);
                    prop_assert_eq!(&h.left_norms, &h.right_norms);
                }
            }
        }
    }

    /// Every query kind is the paper-literal oracle's answer, on
    /// symmetric, other even and odd paths.
    #[test]
    fn queries_match_the_oracle(hin in arb_hin()) {
        for threads in [1usize, 4] {
            let e = HeteSimEngine::with_threads(&hin, threads);
            for text in SYMMETRIC.iter().chain(&ASYMMETRIC) {
                let path = MetaPath::parse(hin.schema(), text).unwrap();
                oracle::check(&e, &path, 1e-12);
            }
        }
    }

    /// `pair`, `pair_unnormalized` and `explain` are bit for bit the
    /// row-copy kernels `row(a).cosine(&row(b))`, `.dot` and the merged
    /// decomposition over `PM_PL` and the long-way `PM_PR⁻¹`, and the
    /// stored right norms are bitwise its `row_l2_norms`, empty rows
    /// (whose norm is `-0.0`) included.
    #[test]
    fn pair_queries_are_the_row_kernels_bit_for_bit(hin in arb_hin()) {
        for threads in [1usize, 4] {
            let e = HeteSimEngine::with_threads(&hin, threads);
            for text in SYMMETRIC.iter().chain(&ASYMMETRIC) {
                let path = MetaPath::parse(hin.schema(), text).unwrap();
                let h = e.materialized_halves(&path).unwrap();
                let right = reference_right(&hin, &path, threads);
                prop_assert_eq!(bits(&h.right_norms), bits(&right.row_l2_norms()), "{}", text);
                for a in 0..h.left.nrows() {
                    let la = h.left.row(a);
                    for b in 0..right.nrows() {
                        let rb = right.row(b);
                        let (s, t) = (a as u32, b as u32);
                        let pair = e.pair(&path, s, t).unwrap();
                        prop_assert_eq!(pair.to_bits(), la.cosine(&rb).to_bits(), "{} {} {}", text, a, b);
                        let raw = e.pair_unnormalized(&path, s, t).unwrap();
                        prop_assert_eq!(raw.to_bits(), la.dot(&rb).to_bits(), "{} {} {}", text, a, b);
                        let ex = e.explain(&path, s, t, usize::MAX).unwrap();
                        let (want, score) = row_explain(&la, &rb);
                        let mut got: Vec<(u32, u64)> = ex
                            .meetings
                            .iter()
                            .map(|m| (m.middle, m.contribution.to_bits()))
                            .collect();
                        got.sort_unstable();
                        prop_assert_eq!(got, want, "{} {} {}", text, a, b);
                        prop_assert_eq!(ex.score.to_bits(), score.to_bits());
                    }
                }
            }
        }
    }

    /// A `.snap` round-trip keeps the halves and the residency the built
    /// engine reports, and the loaded engine answers every query kind
    /// with the oracle's scores.
    #[test]
    fn snapshot_roundtrip_keeps_the_halves(hin in arb_hin()) {
        for threads in [1usize, 4] {
            let built = HeteSimEngine::with_threads(&hin, threads);
            let paths: Vec<MetaPath> = SYMMETRIC
                .iter()
                .chain(&ASYMMETRIC)
                .map(|t| MetaPath::parse(hin.schema(), t).unwrap())
                .collect();
            let warm: Vec<_> = paths
                .iter()
                .map(|p| (p.clone(), built.materialized_halves(p).unwrap()))
                .collect();
            let file = Scratch::new();
            snapshot::write_snapshot(&file.0, &hin, &warm).unwrap();
            let snap = snapshot::read_snapshot(&file.0).unwrap();
            let loaded = HeteSimEngine::with_threads(&snap.hin, threads);
            snapshot::install_warm_paths(&loaded, snap.warm).unwrap();
            prop_assert_eq!(loaded.cache_stats().bytes, built.cache_stats().bytes);
            for (path, h) in &warm {
                let l = loaded.materialized_halves(path).unwrap();
                prop_assert!(bitwise_eq(&l.left, &h.left) && bitwise_eq(&l.right_t, &h.right_t));
                oracle::check(&loaded, path, 1e-12);
            }
        }
    }
}
