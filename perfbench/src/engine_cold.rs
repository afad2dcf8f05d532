//! `engine_cold`: rounds of cold queries in process. Each round empties the
//! path cache, then asks one `top_k` and one `pair_online` per path, so
//! SpGEMM, chain planning and fused normalization do nearly all the work.

use crate::calls::{call, ms, EngineStages, Tracer};
use crate::inputs::{by_degree, net_dir, parse_path, K};
use crate::metrics::{hit_ratio, EndToEnd, Layers, PoolUse, SparseCounts};
use crate::report::{peak_rss_mb, Report};
use crate::rng::{Rng, Zipf, POPULARITY};
use crate::stats::{median, windowed, Dist, Outcome, TAIL};
use crate::Args;
use hetesim_core::HeteSimEngine;
use hetesim_graph::MetaPath;
use std::time::Instant;

/// The paper's paths, the odd edge-object-split paths AP and APTP, and the
/// long APTPTPA. CPA makes the count odd, so the median cold query falls
/// inside one path's cost class rather than on the gap between two.
const PATHS: [&str; 11] = [
    "APA", "APC", "APT", "CPAPC", "APCPA", "APTPA", "TPAPT", "AP", "APTP", "APTPTPA", "CPA",
];
const SETUP_REPS: usize = 9;
const MIN_ROUNDS: usize = 3;
/// Questions per path: round `r` asks question `r % SLOTS` of every path,
/// so that the latencies do not hang on one seed's choice of source.
const SLOTS: usize = 8;

/// A path with its questions: `(source, target)`, the source for
/// `top_k` and both for `pair_online`.
struct Query {
    path: MetaPath,
    pairs: Vec<(u32, u32)>,
}

#[derive(Default)]
struct Phase {
    rounds: usize,
    round_ns: Vec<f64>,
    topk_ns: Vec<f64>,
    pair_ns: Vec<f64>,
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut load_ns = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let t = Instant::now();
        let hin = hetesim_graph::io::load(&net_dir(&args.data)).map_err(|e| e.to_string())?;
        load_ns.push(t.elapsed().as_nanos() as f64);
        drop(HeteSimEngine::new(&hin));
        setup_s.push(t.elapsed().as_secs_f64());
        loaded = Some(hin);
    }
    let hin = loaded.expect("at least one set-up");
    let engine = HeteSimEngine::new(&hin);

    let mut rng = Rng::new(args.seed, 0xc01d);
    let mut queries = Vec::new();
    for spec in PATHS {
        let path = parse_path(&hin, spec)?;
        let sources = by_degree(&hin, &path);
        let targets = by_degree(&hin, &path.reversed());
        let (source_zipf, target_zipf) = (
            Zipf::new(sources.len(), POPULARITY),
            Zipf::new(targets.len(), POPULARITY),
        );
        let pairs = (0..SLOTS)
            .map(|_| {
                (
                    sources[source_zipf.sample(&mut rng)],
                    targets[target_zipf.sample(&mut rng)],
                )
            })
            .collect();
        queries.push(Query { path, pairs });
    }

    // The first answer to each question: a ranking as `(index, score
    // bits)`, and a pair score's bits.
    type Answer = (Vec<(u32, u64)>, u64);
    let mut first: Vec<Vec<Option<Answer>>> = vec![vec![None; SLOTS]; queries.len()];
    let mut round = 0usize;
    let mut cache_bytes = Vec::new();
    let mut untraced = Phase::default();
    let mut traced = Phase::default();
    let mut tracer = Tracer::default();
    let mut stages = Vec::new();
    let mut work = Vec::new();
    let mut pool = PoolUse::default();
    let mut topk_self = Vec::new();
    let mut cache_before = None;
    for (is_traced, seconds) in args.phases() {
        if is_traced {
            hetesim_obs::enable();
            cache_before = Some(engine.cache_stats());
        }
        let phase = if is_traced {
            &mut traced
        } else {
            &mut untraced
        };
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        while phase.rounds < MIN_ROUNDS || Instant::now() < deadline {
            engine.clear_cache();
            let before = is_traced.then(SparseCounts::now);
            let first_trace = tracer.log.traces.len();
            let mut t = is_traced.then_some(&mut tracer);
            let started = Instant::now();
            let mut rankings = Vec::new();
            let mut pair_bits = Vec::new();
            let slot = round % SLOTS;
            for q in &queries {
                PoolUse::reset_record();
                let (ranked, ns) = call(t.as_deref_mut(), "bench.top_k", || {
                    engine.top_k(&q.path, q.pairs[slot].0, K)
                });
                pool.take();
                phase.topk_ns.push(ns as f64);
                let ranked = ranked.map_err(|e| e.to_string())?;
                rankings.push(
                    ranked
                        .iter()
                        .map(|r| (r.index, r.score.to_bits()))
                        .collect::<Vec<_>>(),
                );
                if let Some(t) = t.as_deref() {
                    topk_self.push(crate::calls::topk_self_ns(t.last()) as f64);
                }
            }
            for q in &queries {
                let (a, b) = q.pairs[slot];
                let (score, ns) = call(t.as_deref_mut(), "bench.pair_online", || {
                    engine.pair_online(&q.path, a, b)
                });
                phase.pair_ns.push(ns as f64);
                pair_bits.push(score.map_err(|e| e.to_string())?.to_bits());
            }
            phase
                .round_ns
                .push(crate::calls::elapsed_ns(started) as f64);
            phase.rounds += 1;

            // Every round must answer exactly as the first that asked the
            // same questions did.
            for ((first, ranking), bits) in first.iter_mut().zip(rankings).zip(pair_bits) {
                let answer = (ranking, bits);
                let ok = *first[slot].get_or_insert_with(|| answer.clone()) == answer;
                for _ in 0..2 {
                    report
                        .tally
                        .record(if ok { Outcome::Ok } else { Outcome::Wrong });
                }
            }
            round += 1;
            cache_bytes.push(engine.cache_stats().bytes);
            if let Some(before) = before {
                work.push(SparseCounts::now().since(&before));
                let mut s = EngineStages::default();
                for trace in &tracer.log.traces[first_trace..] {
                    s.add(trace);
                }
                stages.push(s);
            }
        }
    }
    // Same inputs, same work: a round that built different products or
    // cached a different number of bytes shows nondeterminism.
    if cache_bytes.windows(2).any(|w| w[0] != w[1]) || work.windows(2).any(|w| w[0] != w[1]) {
        report.nondeterministic = true;
        eprintln!("engine_cold: rounds differ in cached bytes or SpGEMM work");
    }
    report.note(format!(
        "engine_cold: {} paths per round, {} untraced rounds, {} traced rounds, \
         determinism checked over {} rounds",
        queries.len(),
        untraced.rounds,
        traced.rounds,
        cache_bytes.len()
    ));

    report.setups(&setup_s);
    if !args.trace {
        let topk: Vec<f64> = untraced.topk_ns.iter().map(|&ns| ns / 1e6).collect();
        let pair: Vec<f64> = untraced.pair_ns.iter().map(|&ns| ns / 1e6).collect();
        let (topk_p50, pair_p50) = (windowed(&topk, 500).1, windowed(&pair, 500).1);
        let (tp, tail) = windowed(&topk, TAIL);
        let (_, pair_tail) = windowed(&pair, TAIL);
        let queries_per_round = 2 * queries.len();
        // Over the median round, so a few rounds slowed from outside the
        // process do not move it.
        let per_s = queries_per_round as f64 / (median(&untraced.round_ns) / 1e9);
        report.alias(
            "cold_topk_p50_ms",
            topk_p50,
            "ms",
            &format!("n={}", topk.len()),
        );
        report.alias(&format!("cold_topk_p{}_ms", tp / 10), tail, "ms", "");
        report.alias("cold_queries_per_s", per_s, "1/s", "top_k + pair_online");
        report.alias(
            "online_pair_p50_us",
            pair_p50 * 1e3,
            "us",
            &format!("n={}", pair.len()),
        );
        report.alias("error_ratio", report.tally.error_ratio(), "ratio", "");
        EndToEnd {
            setup_s: median(&setup_s),
            peak_rss_mb: peak_rss_mb(),
            success_ratio: 1.0 - report.tally.error_ratio(),
            latency_p50_ms: topk_p50,
            latency_tail_ms: tail,
            throughput_per_s: per_s,
            second_p50_ms: pair_p50,
            second_tail_ms: pair_tail,
        }
        .record(report);
        return Ok(());
    }

    let stats = engine.cache_stats();
    let before = cache_before.expect("a traced phase ran");
    let topk_self = Dist::new(topk_self.iter().map(|&ns| ns / 1e3).collect());
    let per_round =
        |f: fn(&EngineStages) -> u64| median(&stages.iter().map(|s| ms(f(s))).collect::<Vec<_>>());
    let round = |p: &Phase| median(&p.round_ns);
    Layers {
        cache_hit_ratio: hit_ratio(&before, &stats),
        cache_resident_mb: stats.bytes as f64 / 1e6,
        build_ms: per_round(|s| s.build),
        normalize_self_ms: per_round(|s| s.normalize_self),
        chain_self_ms: per_round(|s| s.chain_self),
        cosine_self_ms: per_round(|s| s.cosine_self),
        sparse_self_ms: per_round(|s| s.sparse_self),
        topk_self_us_p50: topk_self.p50(),
        topk_self_us_p95: topk_self.p95(),
        sparse: work.first().copied().unwrap_or_default(),
        sparse_worker_busy_ratio: pool.busy_ratio(),
        sparse_imbalance: pool.imbalance(),
        graph_load_ms: median(&load_ns) / 1e6,
        trace_overhead_ratio: round(&traced) / round(&untraced) - 1.0,
        ..Layers::default()
    }
    .record(report);
    tracer
        .log
        .write_jsonl(&args.spans)
        .map_err(|e| e.to_string())?;
    Ok(())
}
