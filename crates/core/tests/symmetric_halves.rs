//! Symmetric paths store one half: on `P = Q ∘ Q⁻¹` the engine builds
//! `PM_PL` once and shares it as `PM_PR⁻¹`. Checked on random weighted
//! networks at 1 and 4 engine threads: the shared matrix is bitwise the
//! right chain built the long way, every query kind agrees with the
//! paper-literal dense oracle (also on asymmetric even and odd paths), and
//! a snapshot round-trip keeps the sharing and the residency.

use hetesim_core::decompose::decompose;
use hetesim_core::{snapshot, HeteSimEngine};
use hetesim_graph::{Hin, HinBuilder, MetaPath, Schema};
use hetesim_sparse::chain::multiply_chain;
use hetesim_sparse::CsrMatrix;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

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

    /// The shared half is bitwise the right chain, and shared.
    #[test]
    fn shared_half_is_the_right_chain(hin in arb_hin()) {
        for threads in [1usize, 4] {
            let e = HeteSimEngine::with_threads(&hin, threads);
            for text in SYMMETRIC {
                let path = MetaPath::parse(hin.schema(), text).unwrap();
                prop_assert!(path.is_symmetric());
                let h = e.materialized_halves(&path).unwrap();
                prop_assert!(Arc::ptr_eq(&h.left, &h.right), "{}", text);
                prop_assert!(bitwise_eq(&h.left, &reference_right(&hin, &path, threads)), "{}", text);
                prop_assert_eq!(&h.left_norms, &h.right_norms);
            }
            let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
            let h = e.materialized_halves(&apc).unwrap();
            prop_assert!(!Arc::ptr_eq(&h.left, &h.right));
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

    /// A `.snap` round-trip keeps the halves shared and the residency the
    /// built engine reports.
    #[test]
    fn snapshot_roundtrip_keeps_the_sharing(hin in arb_hin()) {
        for threads in [1usize, 4] {
            let built = HeteSimEngine::with_threads(&hin, threads);
            let mut paths: Vec<MetaPath> = SYMMETRIC
                .iter()
                .map(|t| MetaPath::parse(hin.schema(), t).unwrap())
                .collect();
            paths.push(MetaPath::parse(hin.schema(), "APC").unwrap());
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
                prop_assert_eq!(l.is_shared(), path.is_symmetric());
                prop_assert!(bitwise_eq(&l.left, &h.left) && bitwise_eq(&l.right, &h.right));
            }
        }
    }
}
