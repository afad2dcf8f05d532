//! Failure injection and concurrency: the engine must fail loudly on
//! corrupt inputs and behave correctly when shared across threads.

use hetesim::prelude::*;

fn toy() -> (Schema, hetesim::graph::RelId, hetesim::graph::RelId) {
    let mut s = Schema::new();
    let a = s.add_type("author").unwrap();
    let p = s.add_type("paper").unwrap();
    let c = s.add_type("conference").unwrap();
    let w = s.add_relation("writes", a, p).unwrap();
    let pb = s.add_relation("published_in", p, c).unwrap();
    (s, w, pb)
}

#[test]
fn nan_edge_weights_are_reported_not_propagated() {
    let (s, w, pb) = toy();
    let mut b = HinBuilder::new(s);
    b.add_edge_by_name(w, "Tom", "P1", f64::NAN).unwrap();
    b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
    let hin = b.build();
    let engine = HeteSimEngine::new(&hin);
    let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
    let err = engine.matrix(&apc).unwrap_err();
    assert!(
        err.to_string().contains("non-finite"),
        "expected a non-finite error, got: {err}"
    );
}

#[test]
fn infinite_weights_are_reported() {
    let (s, w, pb) = toy();
    let mut b = HinBuilder::new(s);
    b.add_edge_by_name(w, "Tom", "P1", f64::INFINITY).unwrap();
    b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
    b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
    b.add_edge_by_name(pb, "P2", "KDD", 1.0).unwrap();
    let hin = b.build();
    let engine = HeteSimEngine::new(&hin);
    let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
    assert!(engine.matrix(&apc).is_err());
}

#[test]
fn zero_weight_edges_behave_like_absent_support() {
    // A zero-weight edge contributes no probability mass; the walker
    // ignores it.
    let (s, w, pb) = toy();
    let mut b = HinBuilder::new(s);
    b.add_edge_by_name(w, "Tom", "P1", 0.0).unwrap();
    b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
    b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
    b.add_edge_by_name(pb, "P2", "SIGMOD", 1.0).unwrap();
    let hin = b.build();
    let engine = HeteSimEngine::new(&hin);
    let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
    let a = hin.schema().type_id("author").unwrap();
    let c = hin.schema().type_id("conference").unwrap();
    let tom = hin.node_id(a, "Tom").unwrap();
    let kdd = hin.node_id(c, "KDD").unwrap();
    let sigmod = hin.node_id(c, "SIGMOD").unwrap();
    assert_eq!(engine.pair_unnormalized(&apc, tom, kdd).unwrap(), 0.0);
    assert!(engine.pair(&apc, tom, sigmod).unwrap() > 0.0);
}

#[test]
fn engine_is_safely_shared_across_threads() {
    let acm = hetesim::data::acm::generate(&hetesim::data::acm::AcmConfig::tiny(77));
    let hin = &acm.hin;
    let engine = HeteSimEngine::new(hin);
    let apvc = MetaPath::parse(hin.schema(), "APVC").unwrap();
    let reference = engine.matrix(&apvc).unwrap();

    // Hammer the shared engine (and its interior caches) from many
    // threads over several distinct paths.
    let paths: Vec<MetaPath> = ["APVC", "APA", "APT", "CVPA", "APS"]
        .iter()
        .map(|t| MetaPath::parse(hin.schema(), t).unwrap())
        .collect();
    hammer_scoped(&engine, &paths, &reference);
}

fn hammer_scoped(
    engine: &HeteSimEngine<'_>,
    paths: &[MetaPath],
    reference: &hetesim::sparse::CsrMatrix,
) {
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let engine = &*engine;
            let paths = &*paths;
            scope.spawn(move || {
                for i in 0..10u32 {
                    let path = &paths[(t + i as usize) % paths.len()];
                    let ns = engine.hin().node_count(path.source_type()) as u32;
                    let src = (t as u32 * 7 + i) % ns;
                    let _ = engine.top_k(path, src, 3).unwrap();
                    let _ = engine.pair(path, src, 0).unwrap();
                }
            });
        }
        // Meanwhile the main thread recomputes the reference matrix.
        for _ in 0..3 {
            let m = engine.matrix(&paths[0]).unwrap();
            assert!(m.max_abs_diff(reference).unwrap() < 1e-15);
        }
    });
    // The cache was populated once per distinct path at most.
    let stats = engine.cache_stats();
    assert!(
        stats.misses as usize <= paths.len() + 1,
        "duplicate racing builds should be rare: {} misses",
        stats.misses
    );
}

#[test]
fn concurrent_cold_queries_of_one_path_build_it_once() {
    let acm = hetesim::data::acm::generate(&hetesim::data::acm::AcmConfig::tiny(79));
    let hin = &acm.hin;
    let engine = HeteSimEngine::new(hin);
    let path = MetaPath::parse(hin.schema(), "APVCVPA").unwrap();
    let start = std::sync::Barrier::new(8);
    let rankings: Vec<Vec<Ranked>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    engine.top_k(&path, 0, 5).unwrap()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    // One caller built the halves; the other seven waited and hit.
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 7));
    assert!(rankings.windows(2).all(|w| w[0] == w[1]));
}
