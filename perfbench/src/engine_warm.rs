//! `engine_warm`: a fixed mix of warm queries in process. Every path is
//! built during set-up, so the query layer (pruned top-k, dense
//! `single_source`, cosine pairs) runs with no builds, no HTTP and a
//! read-only cache.

use crate::calls::{call, ms, EngineStages, Tracer};
use crate::inputs::{by_degree, net_dir, parse_path, K};
use crate::metrics::{hit_ratio, EndToEnd, Layers, PoolUse, SparseCounts};
use crate::report::{peak_rss_mb, Report};
use crate::rng::{Rng, Zipf, POPULARITY};
use crate::stats::{median, windowed, Dist, Outcome, TAIL};
use crate::Args;
use hetesim_core::{HeteSimEngine, Ranked};
use hetesim_graph::{Hin, MetaPath};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The warmed paths. TPAPT makes the count odd, so the median query falls
/// inside one path's cost class rather than on the gap between two.
const PATHS: [&str; 9] = [
    "APA", "APC", "APT", "CPA", "APCPA", "APTPA", "CPAPC", "APTP", "TPAPT",
];
const SETUP_REPS: usize = 9;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    TopK,
    SingleSource,
    Pair,
}

/// `top_k` : `single_source` : `pair` = 4 : 1 : 4. Each path gets the
/// whole cycle in turn, so every path sees the same mix.
const MIX: [Kind; 9] = [
    Kind::TopK,
    Kind::Pair,
    Kind::TopK,
    Kind::Pair,
    Kind::SingleSource,
    Kind::TopK,
    Kind::Pair,
    Kind::TopK,
    Kind::Pair,
];

/// Operations timed back to back before their answers are checked.
const BATCH: usize = 3 * MIX.len() * PATHS.len();

/// Largest allowed gap between two ways of computing one score.
const TOLERANCE: f64 = 1e-12;

struct PathOps {
    path: MetaPath,
    sources: Vec<u32>,
    source_zipf: Zipf,
    targets: Vec<u32>,
    target_zipf: Zipf,
}

#[derive(Clone, Copy)]
struct Op {
    kind: Kind,
    path: usize,
    a: u32,
    b: u32,
}

enum Answer {
    Ranked(Vec<Ranked>),
    Row(usize),
    Score(f64),
}

#[derive(Default)]
struct Phase {
    ops: usize,
    batch_ns: Vec<f64>,
    topk_ns: Vec<f64>,
    single_ns: Vec<f64>,
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    // Traced runs trace the set-up too: it is where this workload builds.
    if args.trace {
        hetesim_obs::enable();
    }
    let mut tracer = Tracer::default();
    let mut setup_s = Vec::new();
    let mut load_ns = Vec::new();
    let mut builds = Vec::new();
    let mut work = Vec::new();
    let mut cache_bytes = Vec::new();
    let mut pool = PoolUse::default();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let before = SparseCounts::now();
        let first_trace = tracer.log.traces.len();
        let t = Instant::now();
        let hin = hetesim_graph::io::load(&net_dir(&args.data)).map_err(|e| e.to_string())?;
        load_ns.push(t.elapsed().as_nanos() as f64);
        let engine = HeteSimEngine::new(&hin);
        for spec in PATHS {
            let path = parse_path(&hin, spec)?;
            PoolUse::reset_record();
            let traced = args.trace.then_some(&mut tracer);
            call(traced, "bench.warm", || engine.warm(&path))
                .0
                .map_err(|e| e.to_string())?;
            pool.take();
        }
        setup_s.push(t.elapsed().as_secs_f64());
        cache_bytes.push(engine.cache_stats().bytes);
        work.push(SparseCounts::now().since(&before));
        let mut s = EngineStages::default();
        for trace in &tracer.log.traces[first_trace..] {
            s.add(trace);
        }
        builds.push(s);
        drop(engine);
        loaded = Some(hin);
    }
    hetesim_obs::disable();
    // Same network, same builds: set-ups that differ show nondeterminism.
    if cache_bytes.windows(2).any(|w| w[0] != w[1]) || work.windows(2).any(|w| w[0] != w[1]) {
        report.nondeterministic = true;
        eprintln!("engine_warm: set-ups differ in cached bytes or SpGEMM work");
    }
    let hin = loaded.expect("at least one set-up");
    let engine = HeteSimEngine::new(&hin);
    let mut paths = Vec::new();
    for spec in PATHS {
        let path = parse_path(&hin, spec)?;
        engine.warm(&path).map_err(|e| e.to_string())?;
        let sources = by_degree(&hin, &path);
        let targets = by_degree(&hin, &path.reversed());
        paths.push(PathOps {
            source_zipf: Zipf::new(sources.len(), POPULARITY),
            target_zipf: Zipf::new(targets.len(), POPULARITY),
            path,
            sources,
            targets,
        });
    }

    let mut rng = Rng::new(args.seed, 0x3a53);
    let mut next = 0usize;
    let mut checker = Checker::default();
    let mut untraced = Phase::default();
    let mut traced = Phase::default();
    let mut topk_self = Vec::new();
    let mut cache_before = None;
    let trace_start = tracer.log.traces.len();
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
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while phase.ops == 0 || Instant::now() < deadline {
            let ops: Vec<Op> = (0..BATCH)
                .map(|i| {
                    let n = next + i;
                    let p = &paths[(n / MIX.len()) % PATHS.len()];
                    Op {
                        kind: MIX[n % MIX.len()],
                        path: (n / MIX.len()) % PATHS.len(),
                        a: p.sources[p.source_zipf.sample(&mut rng)],
                        b: p.targets[p.target_zipf.sample(&mut rng)],
                    }
                })
                .collect();
            next += BATCH;
            let mut answers = Vec::with_capacity(BATCH);
            let mut t = is_traced.then_some(&mut tracer);
            let started = Instant::now();
            for op in &ops {
                let path = &paths[op.path].path;
                let (answer, ns) = match op.kind {
                    Kind::TopK => {
                        let (r, ns) = call(t.as_deref_mut(), "bench.top_k", || {
                            engine.top_k(path, op.a, K)
                        });
                        (r.map(Answer::Ranked), ns)
                    }
                    Kind::SingleSource => {
                        let (r, ns) = call(t.as_deref_mut(), "bench.single_source", || {
                            engine.single_source(path, op.a)
                        });
                        (
                            r.map(|row| Answer::Row(std::hint::black_box(row).len())),
                            ns,
                        )
                    }
                    Kind::Pair => {
                        let (r, ns) = call(t.as_deref_mut(), "bench.pair", || {
                            engine.pair(path, op.a, op.b)
                        });
                        (r.map(Answer::Score), ns)
                    }
                };
                match op.kind {
                    Kind::TopK => phase.topk_ns.push(ns as f64),
                    Kind::SingleSource => phase.single_ns.push(ns as f64),
                    Kind::Pair => {}
                }
                answers.push(answer.map_err(|e| e.to_string())?);
            }
            phase
                .batch_ns
                .push(crate::calls::elapsed_ns(started) as f64);
            phase.ops += BATCH;
            for (op, answer) in ops.iter().zip(&answers) {
                let ok = checker.check(&engine, &hin, &paths[op.path].path, op, answer)?;
                report
                    .tally
                    .record(if ok { Outcome::Ok } else { Outcome::Wrong });
            }
        }
    }
    hetesim_obs::disable();
    for trace in &tracer.log.traces[trace_start..] {
        if trace.spans[0].name == "bench.top_k" {
            topk_self.push(crate::calls::topk_self_ns(trace) as f64 / 1e3);
        }
    }
    report.note(format!(
        "engine_warm: {} paths warmed, {} untraced ops, {} traced ops, {} checked",
        PATHS.len(),
        untraced.ops,
        traced.ops,
        report.tally.attempted
    ));

    report.setups(&setup_s);
    if !args.trace {
        let topk: Vec<f64> = untraced.topk_ns.iter().map(|&ns| ns / 1e6).collect();
        let single: Vec<f64> = untraced.single_ns.iter().map(|&ns| ns / 1e6).collect();
        let (topk_p50, single_p50) = (windowed(&topk, 500).1, windowed(&single, 500).1);
        let (_, topk_tail) = windowed(&topk, TAIL);
        let (_, single_tail) = windowed(&single, TAIL);
        let (tp, topk_p99) = windowed(&topk, 990);
        let (sp, single_p99) = windowed(&single, 990);
        let per_s = BATCH as f64 / (median(&untraced.batch_ns) / 1e9);
        report.alias(
            "topk_p50_us",
            topk_p50 * 1e3,
            "us",
            &format!("n={}", topk.len()),
        );
        report.alias("topk_p95_us", topk_tail * 1e3, "us", "");
        report.alias(&format!("topk_p{}_us", tp / 10), topk_p99 * 1e3, "us", "");
        report.alias(
            "single_source_p50_us",
            single_p50 * 1e3,
            "us",
            &format!("n={}", single.len()),
        );
        report.alias("single_source_p95_us", single_tail * 1e3, "us", "");
        report.alias(
            &format!("single_source_p{}_us", sp / 10),
            single_p99 * 1e3,
            "us",
            "",
        );
        report.alias(
            "warm_ops_per_s",
            per_s,
            "1/s",
            "top_k:single_source:pair = 4:1:4",
        );
        report.alias("error_ratio", report.tally.error_ratio(), "ratio", "");
        EndToEnd {
            setup_s: median(&setup_s),
            peak_rss_mb: peak_rss_mb(),
            success_ratio: 1.0 - report.tally.error_ratio(),
            latency_p50_ms: topk_p50,
            latency_tail_ms: topk_tail,
            throughput_per_s: per_s,
            second_p50_ms: single_p50,
            second_tail_ms: single_tail,
        }
        .record(report);
        return Ok(());
    }

    let stats = engine.cache_stats();
    let before = cache_before.expect("a traced phase ran");
    let topk_self = Dist::new(topk_self);
    let per_setup =
        |f: fn(&EngineStages) -> u64| median(&builds.iter().map(|s| ms(f(s))).collect::<Vec<_>>());
    let batch = |p: &Phase| median(&p.batch_ns);
    Layers {
        cache_hit_ratio: hit_ratio(&before, &stats),
        cache_resident_mb: stats.bytes as f64 / 1e6,
        build_ms: per_setup(|s| s.build),
        normalize_self_ms: per_setup(|s| s.normalize_self),
        chain_self_ms: per_setup(|s| s.chain_self),
        cosine_self_ms: per_setup(|s| s.cosine_self),
        sparse_self_ms: per_setup(|s| s.sparse_self),
        topk_self_us_p50: topk_self.p50(),
        topk_self_us_p95: topk_self.p95(),
        sparse: work.first().copied().unwrap_or_default(),
        sparse_worker_busy_ratio: pool.busy_ratio(),
        sparse_imbalance: pool.imbalance(),
        graph_load_ms: median(&load_ns) / 1e6,
        trace_overhead_ratio: batch(&traced) / batch(&untraced) - 1.0,
        ..Layers::default()
    }
    .record(report);
    tracer
        .log
        .write_jsonl(&args.spans)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Checks answers against `single_source`, the dense reference row, which
/// it keeps for the most recent sources.
#[derive(Default)]
struct Checker {
    rows: HashMap<(usize, u32), Vec<f64>>,
}

impl Checker {
    const KEPT_ROWS: usize = 64;

    fn check(
        &mut self,
        engine: &HeteSimEngine<'_>,
        hin: &Hin,
        path: &MetaPath,
        op: &Op,
        answer: &Answer,
    ) -> Result<bool, String> {
        if self.rows.len() >= Self::KEPT_ROWS && !self.rows.contains_key(&(op.path, op.a)) {
            self.rows.clear();
        }
        let row = match self.rows.entry((op.path, op.a)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(
                engine
                    .single_source(path, op.a)
                    .map_err(|e| e.to_string())?,
            ),
        };
        let close = |x: f64, y: f64| (x - y).abs() <= TOLERANCE;
        Ok(match answer {
            Answer::Row(len) => *len == hin.node_count(path.target_type()),
            Answer::Score(s) => close(*s, row[op.b as usize]),
            Answer::Ranked(ranked) => ranking_matches(ranked, row, K),
        })
    }
}

/// `ranked` is a best-first top-`k` of `row`: its scores agree with the
/// row, and no target left out scores higher than the last one kept.
fn ranking_matches(ranked: &[Ranked], row: &[f64], k: usize) -> bool {
    if ranked.len() > k
        || ranked.windows(2).any(|w| w[0].score < w[1].score)
        || ranked
            .iter()
            .any(|r| (r.score - row[r.index as usize]).abs() > TOLERANCE)
    {
        return false;
    }
    // With fewer than k answers, every target left out must be unreachable.
    let floor = if ranked.len() == k {
        ranked.last().map_or(0.0, |r| r.score)
    } else {
        0.0
    };
    let kept: std::collections::HashSet<u32> = ranked.iter().map(|r| r.index).collect();
    row.iter()
        .enumerate()
        .all(|(t, &s)| kept.contains(&(t as u32)) || s <= floor + TOLERANCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(index: u32, score: f64) -> Ranked {
        Ranked { index, score }
    }

    #[test]
    fn ranking_check() {
        let row = [0.1, 0.9, 0.0, 0.5, 0.5];
        assert!(ranking_matches(&[r(1, 0.9), r(3, 0.5)], &row, 2));
        assert!(ranking_matches(&[r(1, 0.9), r(4, 0.5)], &row, 2));
        // Out of order, a wrong score, a better target left out.
        assert!(!ranking_matches(&[r(3, 0.5), r(1, 0.9)], &row, 2));
        assert!(!ranking_matches(&[r(1, 0.9), r(3, 0.4)], &row, 2));
        assert!(!ranking_matches(&[r(1, 0.9), r(0, 0.1)], &row, 2));
        // Short answers must cover every reachable target.
        assert!(!ranking_matches(&[r(1, 0.9)], &row, 3));
        assert!(ranking_matches(&[r(1, 0.9)], &[0.0, 0.9, 0.0], 3));
    }
}
