//! The matrix-free walk behind `pair_online`, `pair_truncated` and PCRW,
//! checked bitwise against the normalize-then-multiply path it replaced
//! (cloned adjacencies, `row_normalized`, a `BTreeMap` accumulator) on
//! random weighted networks at 1 and 4 engine threads.

use hetesim_baselines::Pcrw;
use hetesim_core::decompose::{decompose, edge_split};
use hetesim_core::{reachable, HeteSimEngine};
use hetesim_graph::{Hin, HinBuilder, MetaPath, Schema};
use hetesim_sparse::chain::multiply_chain;
use hetesim_sparse::{CsrMatrix, SparseVec};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// Odd (edge-object) and even paths of length 1 to 5.
const PATHS: [&str; 12] = [
    "AP", "PC", "APC", "APA", "TPT", "APCP", "TPAP", "APCPA", "TPAPC", "CPTPC", "APCPAP", "CPAPTP",
];

/// The decomposition as it was built before factors were borrowed: every
/// step adjacency cloned, the middle relation split by `edge_split`.
fn cloned_decomposition(hin: &Hin, path: &MetaPath) -> (Vec<CsrMatrix>, Vec<CsrMatrix>) {
    let steps = path.steps();
    let mid = steps.len() / 2;
    let mut left: Vec<CsrMatrix> = steps[..mid]
        .iter()
        .map(|&s| hin.step_adjacency(s).clone())
        .collect();
    let mut right: Vec<CsrMatrix> = steps[steps.len() - mid..]
        .iter()
        .rev()
        .map(|&s| hin.step_adjacency(s.reversed()).clone())
        .collect();
    if steps.len() % 2 == 1 {
        let (ae, eb) = edge_split(hin.step_adjacency(steps[mid]));
        left.push(ae);
        right.push(eb.transpose());
    }
    (left, right)
}

/// `xᵀ · m` through a `BTreeMap` accumulator, zeros dropped: the sparse
/// vector-matrix product the walk replaced.
fn btree_vecmat(m: &CsrMatrix, x: &SparseVec) -> SparseVec {
    let mut acc = BTreeMap::<u32, f64>::new();
    for (r, xv) in x.iter() {
        for (&c, &v) in m.row_indices(r).iter().zip(m.row_values(r)) {
            *acc.entry(c).or_insert(0.0) += xv * v;
        }
    }
    let (indices, values) = acc.into_iter().filter(|&(_, v)| v != 0.0).unzip();
    SparseVec::from_parts(m.ncols(), indices, values)
}

/// Normalize every factor, then propagate a one-hot start through them.
fn reference_walk(dim: usize, start: u32, mats: &[CsrMatrix]) -> SparseVec {
    mats.iter()
        .fold(SparseVec::unit(dim, start as usize), |v, m| {
            btree_vecmat(&m.row_normalized(), &v)
        })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `pair_online` and `pair_truncated(.., usize::MAX)` are bitwise the
    /// old normalize-then-`vecmat` cosine, and within 1e-12 of `pair`.
    #[test]
    fn online_pairs_match_the_materialized_walk(hin in arb_hin()) {
        for text in PATHS {
            let path = MetaPath::parse(hin.schema(), text).unwrap();
            let (left, right) = cloned_decomposition(&hin, &path);
            let ns = hin.node_count(path.source_type());
            let nt = hin.node_count(path.target_type());
            for threads in [1usize, 4] {
                let e = HeteSimEngine::with_threads(&hin, threads);
                for a in 0..ns as u32 {
                    let la = reference_walk(ns, a, &left);
                    for b in 0..nt as u32 {
                        let want = la.cosine(&reference_walk(nt, b, &right));
                        let online = e.pair_online(&path, a, b).unwrap();
                        prop_assert_eq!(online.to_bits(), want.to_bits(), "{} ({}, {})", text, a, b);
                        let truncated = e.pair_truncated(&path, a, b, usize::MAX).unwrap();
                        prop_assert_eq!(truncated.to_bits(), online.to_bits());
                        let cached = e.pair(&path, a, b).unwrap();
                        prop_assert!((cached - online).abs() < 1e-12, "{} ({}, {}): {} vs {}", text, a, b, cached, online);
                    }
                }
            }
        }
    }

    /// PCRW's walk is bitwise the old transition chain + `vecmat` row, and
    /// its full matrix (`reachable_matrix`) bitwise the old
    /// normalize-then-`multiply_chain` product of that chain.
    #[test]
    fn pcrw_walk_matches_the_transition_chain(hin in arb_hin()) {
        let pcrw = Pcrw::new(&hin);
        for text in PATHS {
            let path = MetaPath::parse(hin.schema(), text).unwrap();
            let chain: Vec<CsrMatrix> =
                path.steps().iter().map(|&s| hin.step_transition(s)).collect();
            let ns = hin.node_count(path.source_type());
            for s in 0..ns as u32 {
                let want = chain
                    .iter()
                    .fold(SparseVec::unit(ns, s as usize), |v, m| btree_vecmat(m, &v));
                let got = pcrw.walk_distribution(&path, s).unwrap();
                prop_assert_eq!(bits(&got), bits(&want.to_dense()), "{} from {}", text, s);
            }
            let refs: Vec<&CsrMatrix> = chain.iter().collect();
            let want = multiply_chain(&refs, None, 1).unwrap();
            let got = reachable::reachable_matrix(&hin, path.steps()).unwrap();
            prop_assert_eq!((got.shape(), got.indptr(), got.indices()), (want.shape(), want.indptr(), want.indices()), "{}", text);
            prop_assert_eq!(bits(got.values()), bits(want.values()), "{}", text);
        }
    }

    /// Borrowing the step adjacencies and building the split sides from
    /// their rows leaves every factor of the decomposition bitwise as it
    /// was, so half builds are unchanged.
    #[test]
    fn decomposition_matches_the_cloned_one(hin in arb_hin()) {
        for text in PATHS {
            let path = MetaPath::parse(hin.schema(), text).unwrap();
            let (left, right) = cloned_decomposition(&hin, &path);
            let d = decompose(&hin, &path).unwrap();
            let got_left: Vec<&CsrMatrix> = d.left.iter().map(|m| m.as_ref()).collect();
            let got_right: Vec<&CsrMatrix> = d.right_rev.iter().map(|m| m.as_ref()).collect();
            prop_assert_eq!(got_left, left.iter().collect::<Vec<_>>(), "{}", text);
            prop_assert_eq!(got_right, right.iter().collect::<Vec<_>>(), "{}", text);
        }
    }
}
