#![forbid(unsafe_code)]

//! `hetesim-cli` — relevance search over heterogeneous networks from the
//! shell.
//!
//! ```text
//! hetesim-cli generate --dataset acm|dblp [--seed N] [--scale tiny|default|paper] --out DIR
//! hetesim-cli stats   DIR
//! hetesim-cli paths   DIR --from A --to C [--max-len 4]
//! hetesim-cli query   DIR --path APVC --source NAME [--k 10] [--measure hetesim|pcrw|pathsim]
//! hetesim-cli top-k   DIR --path APVC --source NAME [--k 10] [--repeat N]
//! hetesim-cli pair    DIR --path APVC --source NAME --target NAME [--explain K]
//! hetesim-cli join    DIR --path APA [--k 10]
//! hetesim-cli serve   DIR [--addr HOST:PORT] [--workers N] [--deadline-ms MS]
//!                         [--queue-depth N] [--cache-budget-bytes N]
//!                         [--warmup-paths FILE] [--trace-sample N]
//!                         [--slow-ms MS] [--slow-log FILE]
//!                         [--trace-out FILE] [--trace-ring N]
//!                         [--history-budget-bytes N] [--history-tick-ms MS]
//!                         [--slo-latency-ms MS] [--slo-availability F]
//! hetesim-cli watch   URL [--interval-ms MS] [--iterations N]
//! hetesim-cli snapshot build DIR --out net.snap [--warm-paths FILE]
//! hetesim-cli snapshot info  FILE
//! hetesim-cli trace   DIR --path APVC --source NAME [--k 10] [--warm]
//! hetesim-cli profile DIR --path APVC --source NAME [--k 10] [--repeat 20]
//!                         [--warm] [--out flame.svg] [--folded-out FILE]
//! hetesim-cli help
//! ```
//!
//! The query subcommands (`query`/`top-k`, `pair`, `join`) and `serve`
//! accept `--snapshot FILE` in place of the network directory: the
//! network (and any half-path products materialized at `snapshot build`
//! time) is loaded from the checksummed binary format of
//! `docs/SNAPSHOT.md` — an order of magnitude faster than TSV parsing at
//! paper scale, with bitwise-identical scores.
//!
//! Every subcommand additionally accepts `--metrics[=tree|json]` to print
//! an observability snapshot (span timings, kernel counters, cache
//! hit/miss) after the command, and `--metrics-out FILE` to write the JSON
//! snapshot to a file. See `hetesim-obs` for the `crate.component.op`
//! naming convention of the emitted metrics.
//!
//! Query subcommands (`query`/`top-k`, `pair`, `join`) accept
//! `--threads N` to set the engine's worker-thread count: `0` (the
//! default) means auto — `HETESIM_THREADS` if set, else the machine's
//! available parallelism — and `1` forces the serial path. Results are
//! bit-identical at every thread count.
//!
//! Networks are directories in the TSV format of `hetesim_graph::io`, so
//! generated datasets can be inspected, edited, and re-queried.
//!
//! The binary is a thin wrapper over [`run`], so the workspace root can
//! expose the same interface as `cargo run -- <command> …`.

mod args;

use args::Parsed;
use hetesim_baselines::{PathSim, Pcrw};
use hetesim_core::snapshot::{self, WarmPath};
use hetesim_core::{HeteSimEngine, PathMeasure};
use hetesim_data::{acm, dblp};
use hetesim_graph::{enumerate, io, stats, Hin, MetaPath};
use std::path::Path;
use std::process::ExitCode;

const HELP: &str = "\
hetesim-cli — relevance search in heterogeneous networks (HeteSim, EDBT 2012)

commands:
  generate --dataset acm|dblp [--seed N] [--scale tiny|default|paper] --out DIR
      Generate a synthetic bibliographic network and save it as TSV files.
  stats DIR
      Print node/edge statistics of a saved network.
  paths DIR --from A --to C [--max-len 4]
      Enumerate meta-paths between two type abbreviations.
  query DIR --path APVC --source NAME [--k 10] [--measure hetesim|pcrw|pathsim]
      Rank the objects most relevant to SOURCE along PATH.
      (`top-k` is an alias; `--repeat N` re-runs the query N times against
      one engine, exercising the half-path cache.)
  pair DIR --path APVC --source NAME --target NAME
      Score one object pair; --explain K lists the K biggest meeting points.
  join DIR --path APA [--k 10]
      The k most relevant object pairs across the whole matrix.
  serve DIR [--addr 127.0.0.1:7878] [--workers 0] [--deadline-ms 0]
            [--queue-depth 64] [--cache-budget-bytes 0] [--warmup-paths FILE]
            [--trace-sample N] [--slow-ms MS] [--slow-log FILE]
            [--trace-out FILE] [--trace-ring 128]
            [--history-budget-bytes 1048576] [--history-tick-ms 1000]
            [--slo-latency-ms 500] [--slo-availability 0.999]
      Serve relevance queries over HTTP (GET /healthz, GET /metrics,
      GET /metrics/history, GET /slo, GET /dashboard, GET /profile,
      GET /traces/recent, POST /query, POST /pair,
      POST /warmup — see docs/API.md). --workers 0 = auto; --deadline-ms 0 = no per-request
      deadline; --queue-depth bounds waiting connections (overload answers
      503 + Retry-After); --cache-budget-bytes 0 = unlimited path cache,
      else least-recently-used entries are evicted to stay under the
      budget; --warmup-paths FILE pre-materializes one meta-path per line
      ('#' comments allowed). Every response carries an X-Trace-Id;
      --trace-sample N keeps every Nth request's stage trace (0 = off) in
      a ring of --trace-ring entries served at GET /traces/recent and
      appended to --trace-out as JSONL (rotated once); requests slower
      than --slow-ms are always kept and logged to --slow-log (JSONL;
      stderr when unset; 0 = off). A background sampler retains a
      metrics time-series in at most --history-budget-bytes of memory
      (0 = off), sampled every --history-tick-ms, served at
      GET /metrics/history and rendered at GET /dashboard as a
      self-contained HTML page; GET /slo reports availability
      (target --slo-availability) and latency (p99 < --slo-latency-ms)
      burn rates over fast (5 m) and slow (1 h) windows. Ctrl-C shuts
      down gracefully, draining in-flight requests.
  watch URL [--interval-ms 1000] [--iterations 0]
      Live terminal view of a running server: polls /slo and
      /metrics/history and redraws SLO burn rates plus sparklines of
      request rate, p99 latency, and shed rate. URL is HOST:PORT (an
      http:// prefix is fine). --iterations N stops after N frames and
      prints them without clearing the screen (0 = run until ctrl-c).
  snapshot build DIR --out net.snap [--warm-paths FILE] [--threads N]
      Serialize a TSV network into the checksummed binary snapshot format
      (docs/SNAPSHOT.md). --warm-paths FILE additionally materializes the
      half-path products of one meta-path per line ('#' comments allowed)
      and embeds them, so a snapshot-loaded engine starts with those
      paths already warm.
  snapshot info FILE
      Verify every checksum of a snapshot and print its summary (schema
      and node/edge counts, warmed paths, per-section sizes and CRCs).
      Exits nonzero on any corruption — usable as an integrity check.
  trace DIR --path APVC --source NAME [--k 10] [--threads N] [--warm]
      Replay one query under forced trace capture and print its stage
      tree: each engine stage with duration and share of the total.
      --warm pre-materializes the path first, profiling the cache-hit
      request instead of the cold build.
  profile DIR --path APVC --source NAME [--k 10] [--repeat 20] [--threads N]
              [--warm] [--out FILE] [--folded-out FILE]
      Run one query --repeat times under the span profiler and render the
      aggregated tree: --out writes a flamegraph SVG (or folded stacks
      unless the name ends in .svg), --folded-out writes the folded-stack
      text (`frame;frame;frame <self_µs>` per line, Brendan Gregg's
      format), and with neither flag the folded stacks go to stdout. The
      final `profile: …` line reports wall vs profiled time. --warm
      profiles cache-hit queries instead of the cold build. Binaries built
      with the obs-alloc feature also print a per-span allocation table.
  help
      This text.

query commands (query/top-k, pair, join) also accept:
  --threads N             worker threads for matrix products and top-k
                          scans; 0 (default) = auto (HETESIM_THREADS env
                          or available cores), 1 = serial. Results are
                          bit-identical at every thread count.

query commands and serve accept, instead of the network directory:
  --snapshot FILE         cold-start from a binary snapshot written by
                          `snapshot build`: the network and any embedded
                          half-path products load in one checksummed
                          pass, with bitwise-identical scores.

every command also accepts:
  --metrics[=tree|json]   print span timings / counters / histograms after
                          the command (default format: tree)
  --metrics-out FILE      write the JSON metrics snapshot to FILE";

fn load(dir: &str) -> Result<Hin, String> {
    io::load(Path::new(dir)).map_err(|e| format!("cannot load network from {dir:?}: {e}"))
}

/// A network obtained from either a TSV directory (the positional
/// argument) or a binary snapshot (`--snapshot FILE`), carrying the
/// snapshot's warmed half-products and provenance when applicable.
struct Loaded {
    hin: Hin,
    warm: Vec<WarmPath>,
    /// `(file, format version)` when loaded from a snapshot.
    snapshot: Option<(String, u32)>,
}

/// Loads the network per the source flags: `--snapshot FILE` takes the
/// binary cold-start path, otherwise the positional directory is parsed
/// as TSV. Giving both is ambiguous and rejected.
fn load_source(p: &Parsed) -> Result<Loaded, String> {
    match p.flags.get("snapshot") {
        Some(file) => {
            if !p.positional.is_empty() {
                return Err(format!(
                    "give a network directory or --snapshot, not both \
                     (got directory {:?} and snapshot {file:?})",
                    p.positional[0]
                ));
            }
            let snap = snapshot::read_snapshot(Path::new(file))
                .map_err(|e| format!("cannot load snapshot {file:?}: {e}"))?;
            Ok(Loaded {
                hin: snap.hin,
                warm: snap.warm,
                snapshot: Some((file.clone(), snap.version)),
            })
        }
        None => Ok(Loaded {
            hin: load(p.one_positional("network directory (or --snapshot FILE)")?)?,
            warm: Vec::new(),
            snapshot: None,
        }),
    }
}

/// Installs a snapshot's warmed half-products into a fresh engine so the
/// first queries along those paths are cache hits; returns the count.
fn install_warm(engine: &HeteSimEngine, warm: Vec<WarmPath>) -> Result<usize, String> {
    snapshot::install_warm_paths(engine, warm)
        .map_err(|e| format!("cannot install warmed paths: {e}"))
}

/// Publishes the cache's entry count so it appears in the snapshot
/// alongside the hit/miss counters and the `core.cache.resident_bytes`
/// gauge the cache records itself.
fn record_cache_gauges(engine: &HeteSimEngine) {
    hetesim_obs::set("core.cache.halves.entries", engine.cache_stats().entries);
}

fn cmd_generate(p: &Parsed) -> Result<(), String> {
    let out = p.require("out")?;
    let seed = p.get_u64("seed", 42)?;
    let scale = p.get_or("scale", "default");
    let hin = match p.require("dataset")? {
        "acm" => {
            let cfg = match scale {
                "tiny" => acm::AcmConfig::tiny(seed),
                "default" => acm::AcmConfig {
                    seed,
                    ..acm::AcmConfig::default()
                },
                "paper" => acm::AcmConfig::paper_scale(seed),
                other => return Err(format!("unknown scale {other:?}")),
            };
            acm::generate(&cfg).hin
        }
        "dblp" => {
            let cfg = match scale {
                "tiny" => dblp::DblpConfig::tiny(seed),
                "default" => dblp::DblpConfig {
                    seed,
                    ..dblp::DblpConfig::default()
                },
                "paper" => dblp::DblpConfig::paper_scale(seed),
                other => return Err(format!("unknown scale {other:?}")),
            };
            dblp::generate(&cfg).hin
        }
        other => return Err(format!("unknown dataset {other:?} (acm|dblp)")),
    };
    io::save(&hin, Path::new(out)).map_err(|e| e.to_string())?;
    println!("wrote {out}/{{schema,nodes,edges}}.tsv");
    println!("{}", stats::stats(&hin));
    Ok(())
}

fn cmd_stats(p: &Parsed) -> Result<(), String> {
    let hin = load(p.one_positional("network directory")?)?;
    print!("{}", stats::stats(&hin));
    Ok(())
}

fn cmd_paths(p: &Parsed) -> Result<(), String> {
    let hin = load(p.one_positional("network directory")?)?;
    let schema = hin.schema();
    let from = schema
        .type_by_abbrev(p.require("from")?.chars().next().unwrap_or(' '))
        .map_err(|e| e.to_string())?;
    let to = schema
        .type_by_abbrev(p.require("to")?.chars().next().unwrap_or(' '))
        .map_err(|e| e.to_string())?;
    let max_len = p.get_usize("max-len", 4)?;
    let paths = enumerate::enumerate_paths(schema, from, to, max_len);
    println!(
        "{} meta-paths from {} to {} (max length {max_len}):",
        paths.len(),
        schema.type_name(from),
        schema.type_name(to)
    );
    for path in paths {
        let tag = if path.is_symmetric() {
            "  (symmetric)"
        } else {
            ""
        };
        println!("  {}{tag}", path.display(schema));
    }
    Ok(())
}

fn parse_path(hin: &Hin, text: &str) -> Result<MetaPath, String> {
    MetaPath::parse(hin.schema(), text).map_err(|e| e.to_string())
}

/// Builds the engine with the `--threads` flag: 0 (the default) means
/// auto-detect, 1 is the explicit serial path.
fn engine_with_threads<'a>(p: &Parsed, hin: &'a Hin) -> Result<HeteSimEngine<'a>, String> {
    let threads = p.get_usize("threads", 0)?;
    Ok(HeteSimEngine::with_threads(hin, threads))
}

fn cmd_query(p: &Parsed) -> Result<(), String> {
    let Loaded { hin, warm, .. } = load_source(p)?;
    let path = parse_path(&hin, p.require("path")?)?;
    let source_name = p.require("source")?;
    let source = hin
        .node_id(path.source_type(), source_name)
        .map_err(|e| e.to_string())?;
    let k = p.get_usize("k", 10)?;
    let repeat = p.get_usize("repeat", 1)?.max(1);
    let measure = p.get_or("measure", "hetesim");
    let engine = engine_with_threads(p, &hin)?;
    install_warm(&engine, warm)?;
    let pcrw = Pcrw::new(&hin);
    let pathsim = PathSim::new(&hin);
    let mut ranked = Vec::new();
    // Repeats run against the same engine, so runs after the first are
    // served by the half-path cache (visible in --metrics output).
    for _ in 0..repeat {
        ranked = match measure {
            "hetesim" => engine.top_k(&path, source, k).map_err(|e| e.to_string())?,
            "pcrw" => {
                let mut r = pcrw
                    .rank_targets(&path, source)
                    .map_err(|e| e.to_string())?;
                r.truncate(k);
                r
            }
            "pathsim" => {
                let mut r = pathsim
                    .rank_targets(&path, source)
                    .map_err(|e| e.to_string())?;
                r.truncate(k);
                r
            }
            other => return Err(format!("unknown measure {other:?} (hetesim|pcrw|pathsim)")),
        };
    }
    record_cache_gauges(&engine);
    println!(
        "top {} {} for {source_name} along {} ({measure}):",
        ranked.len(),
        hin.schema().type_name(path.target_type()),
        path.display(hin.schema()),
    );
    for (i, r) in ranked.iter().enumerate() {
        println!(
            "  {:>3}. {:<28} {:.6}",
            i + 1,
            hin.node_name(path.target_type(), r.index),
            r.score
        );
    }
    Ok(())
}

fn cmd_pair(p: &Parsed) -> Result<(), String> {
    let Loaded { hin, warm, .. } = load_source(p)?;
    let path = parse_path(&hin, p.require("path")?)?;
    let a = hin
        .node_id(path.source_type(), p.require("source")?)
        .map_err(|e| e.to_string())?;
    let b = hin
        .node_id(path.target_type(), p.require("target")?)
        .map_err(|e| e.to_string())?;
    let engine = engine_with_threads(p, &hin)?;
    install_warm(&engine, warm)?;
    let norm = engine.pair(&path, a, b).map_err(|e| e.to_string())?;
    let raw = engine
        .pair_unnormalized(&path, a, b)
        .map_err(|e| e.to_string())?;
    println!("HeteSim  (normalized):        {norm:.6}");
    println!("HeteSim  (meeting prob.):     {raw:.6}");
    let pcrw = Pcrw::new(&hin);
    let walk = pcrw.score(&path, a, b).map_err(|e| e.to_string())?;
    println!("PCRW     (walk probability):  {walk:.6}");

    let explain_k = p.get_usize("explain", 0)?;
    if explain_k > 0 {
        use hetesim_core::explain::MiddleKind;
        let ex = engine
            .explain(&path, a, b, explain_k)
            .map_err(|e| e.to_string())?;
        println!("\nmeeting points (largest contribution first):");
        for m in &ex.meetings {
            let label = match ex.middle {
                MiddleKind::Type(ty) => hin.node_name(ty, m.middle).to_string(),
                MiddleKind::EdgeObjects { relation } => {
                    // Resolve the e-th stored instance of the relation.
                    let adj = hin.adjacency(relation);
                    let (mut src, mut dst, mut seen) = (0usize, 0usize, 0u32);
                    'outer: for r in 0..adj.nrows() {
                        for &c in adj.row_indices(r) {
                            if seen == m.middle {
                                src = r;
                                dst = c as usize;
                                break 'outer;
                            }
                            seen += 1;
                        }
                    }
                    let sty = hin.schema().relation_src(relation);
                    let dty = hin.schema().relation_dst(relation);
                    format!(
                        "{} —[{}]→ {}",
                        hin.node_name(sty, src as u32),
                        hin.schema().relation_name(relation),
                        hin.node_name(dty, dst as u32)
                    )
                }
            };
            println!("  {label:<40} {:.6}", m.contribution);
        }
    }
    record_cache_gauges(&engine);
    Ok(())
}

fn cmd_join(p: &Parsed) -> Result<(), String> {
    let Loaded { hin, warm, .. } = load_source(p)?;
    let path = parse_path(&hin, p.require("path")?)?;
    let k = p.get_usize("k", 10)?;
    let engine = engine_with_threads(p, &hin)?;
    install_warm(&engine, warm)?;
    let pairs = engine.top_k_pairs(&path, k).map_err(|e| e.to_string())?;
    record_cache_gauges(&engine);
    println!(
        "top {} pairs along {}:",
        pairs.len(),
        path.display(hin.schema())
    );
    for (i, pair) in pairs.iter().enumerate() {
        println!(
            "  {:>3}. {:<24} ~ {:<24} {:.6}",
            i + 1,
            hin.node_name(path.source_type(), pair.source),
            hin.node_name(path.target_type(), pair.target),
            pair.score
        );
    }
    Ok(())
}

/// Replays one query under forced trace capture and pretty-prints the
/// stage tree: which engine stages the time went to, each with its share
/// of the total.
fn cmd_trace(p: &Parsed) -> Result<(), String> {
    let hin = load(p.one_positional("network directory")?)?;
    let path = parse_path(&hin, p.require("path")?)?;
    let source_name = p.require("source")?;
    let source = hin
        .node_id(path.source_type(), source_name)
        .map_err(|e| e.to_string())?;
    let k = p.get_usize("k", 10)?;
    let engine = engine_with_threads(p, &hin)?;
    hetesim_obs::enable();
    if p.has("warm") {
        // Materialize the half-products first, so the trace shows the
        // warm (cache-hit) request profile instead of the cold build.
        engine.warm(&path).map_err(|e| e.to_string())?;
    }
    let trace_id = hetesim_obs::next_trace_id();
    let scope = hetesim_obs::trace_begin(trace_id, std::time::Instant::now(), true);
    let ranked = engine.top_k(&path, source, k).map_err(|e| e.to_string())?;
    match scope.finish() {
        Some(trace) => {
            println!(
                "trace {} — {} along {} (k={k}, {} results, {} total):",
                trace.id_hex(),
                source_name,
                path.display(hin.schema()),
                ranked.len(),
                format_ns(trace.duration_ns),
            );
            print!("{}", trace.render_tree());
        }
        None => {
            // Tracing compiled out (`--no-default-features`): the query
            // still ran, there is just nothing to show.
            eprintln!(
                "trace capture is compiled out (obs feature disabled); \
                 query returned {} results",
                ranked.len()
            );
        }
    }
    record_cache_gauges(&engine);
    Ok(())
}

/// `1234567` ns → `"1.235 ms"` — the trace header's human duration.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.1} µs", ns as f64 / 1e3)
    }
}

/// Replays one query `--repeat` times under the profiler and renders the
/// aggregated span tree as folded stacks and/or a flamegraph SVG. When
/// the binary is built with the `obs-alloc` feature, a per-span
/// allocation table goes to stderr as well.
fn cmd_profile(p: &Parsed) -> Result<(), String> {
    let hin = load(p.one_positional("network directory")?)?;
    let path = parse_path(&hin, p.require("path")?)?;
    let source_name = p.require("source")?;
    let source = hin
        .node_id(path.source_type(), source_name)
        .map_err(|e| e.to_string())?;
    let k = p.get_usize("k", 10)?;
    let repeat = p.get_usize("repeat", 20)?.max(1);
    let engine = engine_with_threads(p, &hin)?;
    hetesim_obs::enable();
    if p.has("warm") {
        engine.warm(&path).map_err(|e| e.to_string())?;
    }
    // Profile only the measurement loop: network loading and warming are
    // not part of the picture the flamegraph should show.
    hetesim_obs::reset();
    let wall = hetesim_obs::Stopwatch::start();
    let mut results = 0;
    for _ in 0..repeat {
        let _run = hetesim_obs::span("cli.profile.run");
        results = engine
            .top_k(&path, source, k)
            .map_err(|e| e.to_string())?
            .len();
    }
    let wall_us = wall.elapsed_us();
    hetesim_obs::publish_alloc_gauges();
    let snap = hetesim_obs::snapshot();
    let frames = hetesim_obs::profile_frames(&snap.spans);
    // The roots' summed total is the profiler's view of the loop's wall
    // time — CI asserts the two agree within 5%.
    let root_total_us: u64 = frames
        .iter()
        .filter(|f| f.depth() == 0)
        .map(|f| f.total_ns / 1_000)
        .sum();
    let folded = hetesim_obs::folded_stacks(&snap);
    let mut wrote = false;
    if let Some(file) = p.flags.get("out") {
        let payload = if file.ends_with(".svg") {
            hetesim_obs::flamegraph_svg(&snap)
        } else {
            folded.clone()
        };
        std::fs::write(file, payload)
            .map_err(|e| format!("cannot write profile to {file:?}: {e}"))?;
        wrote = true;
    }
    if let Some(file) = p.flags.get("folded-out") {
        std::fs::write(file, &folded)
            .map_err(|e| format!("cannot write folded stacks to {file:?}: {e}"))?;
        wrote = true;
    }
    if !wrote {
        print!("{folded}");
    }
    if hetesim_obs::alloc_profiling_available() {
        let totals = hetesim_obs::alloc_totals();
        eprintln!(
            "allocations: {} allocs, {} bytes, peak {} bytes live",
            totals.count, totals.bytes, totals.peak_bytes
        );
        for site in hetesim_obs::alloc_sites().into_iter().take(10) {
            eprintln!(
                "  {:<44} {:>10} allocs {:>14} bytes",
                site.span, site.count, site.bytes
            );
        }
    }
    // One machine-parseable summary line; CI checks wall vs root total.
    println!(
        "profile: repeats={repeat} results={results} wall_us={wall_us} \
         root_total_us={root_total_us} frames={}",
        frames.len()
    );
    record_cache_gauges(&engine);
    Ok(())
}

fn cmd_serve(p: &Parsed) -> Result<(), String> {
    use hetesim_serve::{App, ServeConfig, Server};
    let Loaded {
        hin,
        warm,
        snapshot,
    } = load_source(p)?;
    let budget = p.get_u64("cache-budget-bytes", 0)?;
    let engine = engine_with_threads(p, &hin)?.with_cache_budget(budget);
    let warmed = install_warm(&engine, warm)?;
    if warmed > 0 {
        eprintln!("snapshot: installed {warmed} warmed path(s)");
    }
    // `GET /metrics` serves the observability snapshot, so recording must
    // be on for the whole server lifetime, not only under `--metrics`.
    hetesim_obs::enable();
    let slo_availability = p.get_f64("slo-availability", 0.999)?;
    if !(0.0..1.0).contains(&slo_availability) {
        return Err(format!(
            "--slo-availability expects a target in [0, 1), got {slo_availability}"
        ));
    }
    let config = ServeConfig {
        addr: p.get_or("addr", "127.0.0.1:7878").to_string(),
        workers: p.get_usize("workers", 0)?,
        queue_depth: p.get_usize("queue-depth", 64)?,
        deadline_ms: p.get_u64("deadline-ms", 0)?,
        slow_ms: p.get_u64("slow-ms", 0)?,
        slow_log: p.flags.get("slow-log").cloned(),
        trace_sample: p.get_u64("trace-sample", 0)?,
        trace_out: p.flags.get("trace-out").cloned(),
        trace_ring: p.get_usize("trace-ring", 128)?,
        history_budget_bytes: p.get_usize("history-budget-bytes", 1 << 20)?,
        history_tick_ms: p.get_u64("history-tick-ms", 1_000)?,
        slo_latency_ms: p.get_u64("slo-latency-ms", 500)?,
        slo_availability,
    };
    // Bind before building the app so `/healthz` can report the resolved
    // worker count; arrivals queue in the listener during warmup.
    let server =
        Server::bind(&config).map_err(|e| format!("cannot bind {:?}: {e}", config.addr))?;
    let mut app = App::new(&hin, engine).with_workers(server.workers());
    if let Some((file, version)) = &snapshot {
        app = app.with_snapshot(file, *version);
    }
    if let Some(file) = p.flags.get("warmup-paths") {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read warmup paths from {file:?}: {e}"))?;
        let specs: Vec<String> = text
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(str::to_string)
            .collect();
        eprintln!("warmup: {}", app.warm_paths(&specs));
    }
    hetesim_serve::install_ctrl_c();
    let deadline = match config.deadline_ms {
        0 => "none".to_string(),
        ms => format!("{ms} ms"),
    };
    let workers = match config.workers {
        0 => "auto".to_string(),
        n => n.to_string(),
    };
    eprintln!(
        "serving on http://{} (workers: {workers}, queue depth: {}, deadline: {deadline}) — ctrl-c to stop",
        server.local_addr(),
        config.queue_depth,
    );
    if config.history_budget_bytes > 0 {
        eprintln!(
            "dashboard: http://{}/dashboard (history: {} bytes @ {} ms ticks; \
             SLOs: p99 < {} ms, availability {})",
            server.local_addr(),
            config.history_budget_bytes,
            config.history_tick_ms,
            config.slo_latency_ms,
            config.slo_availability,
        );
    }
    server.run(&app).map_err(|e| e.to_string())
}

/// `watch URL` — a terminal dashboard: polls `/slo` and
/// `/metrics/history` and redraws burn rates plus unicode sparklines of
/// the request rate, tail latency, and shed rate.
fn cmd_watch(p: &Parsed) -> Result<(), String> {
    use hetesim_serve::client;
    let raw = p.one_positional("server address (HOST:PORT or http://HOST:PORT)")?;
    let addr = resolve_addr(raw)?;
    let interval_ms = p.get_u64("interval-ms", 1_000)?.max(50);
    let iterations = p.get_u64("iterations", 0)?;
    let mut round = 0u64;
    loop {
        round += 1;
        let slo = client::get(addr, "/slo").map_err(|e| format!("cannot reach {addr}: {e}"))?;
        if slo.status == 404 {
            return Err(
                "server keeps no history (started with --history-budget-bytes 0?)".to_string(),
            );
        }
        if slo.status != 200 {
            return Err(format!("GET /slo answered {}: {}", slo.status, slo.body));
        }
        let frame = render_watch_frame(addr, &slo.body)?;
        // Interactive (endless) mode redraws in place; a finite
        // --iterations run prints plain frames so output stays pipeable.
        if iterations == 0 {
            print!("\x1b[2J\x1b[H{frame}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        } else {
            print!("{frame}");
        }
        if iterations > 0 && round >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Accepts `HOST:PORT`, `http://HOST:PORT`, and a trailing slash.
fn resolve_addr(raw: &str) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs;
    let trimmed = raw
        .strip_prefix("http://")
        .unwrap_or(raw)
        .trim_end_matches('/');
    trimmed
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {raw:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("no address behind {raw:?}"))
}

/// One full frame of `watch` output: the SLO summary plus sparklines.
fn render_watch_frame(addr: std::net::SocketAddr, slo_body: &str) -> Result<String, String> {
    use hetesim_serve::Json;
    use std::fmt::Write;
    let slo = Json::parse(slo_body).map_err(|e| format!("bad /slo payload: {e}"))?;
    let mut out = String::new();
    let state = slo.get("state").and_then(Json::as_str).unwrap_or("?");
    writeln!(out, "hetesim watch — http://{addr}  state: {state}").unwrap();
    for objective in ["availability", "latency"] {
        let Some(o) = slo.get(objective) else {
            continue;
        };
        let burn = |k: &str| o.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        writeln!(
            out,
            "  {objective:<13} burn fast {:>6.2}x  slow {:>6.2}x  ({})",
            burn("fast_burn"),
            burn("slow_burn"),
            o.get("state").and_then(Json::as_str).unwrap_or("?"),
        )
        .unwrap();
    }
    if let Some(us) = slo.get("latency_threshold_us").and_then(Json::as_u64) {
        writeln!(out, "  latency objective: p99 < {} ms", us / 1_000).unwrap();
    }
    writeln!(out).unwrap();
    let rows = [
        ("requests/s", "serve.server.requests", "rate_per_sec", 1.0),
        ("p99 ms", "serve.server.latency_us", "p99", 1e-3),
        ("shed/s", "serve.server.shed", "rate_per_sec", 1.0),
    ];
    for (label, name, field, unit) in rows {
        let values: Vec<f64> = series_values(addr, name, field)
            .into_iter()
            .map(|v| v * unit)
            .collect();
        let last = values.last().copied().unwrap_or(0.0);
        writeln!(out, "  {label:<11} {}  last {last:.2}", spark(&values)).unwrap();
    }
    Ok(out)
}

/// Pulls one numeric field out of every history point of a series;
/// empty when the series does not exist yet or the server is unreachable.
fn series_values(addr: std::net::SocketAddr, name: &str, field: &str) -> Vec<f64> {
    use hetesim_serve::{client, Json};
    let target = format!("/metrics/history?name={name}&window=10m");
    let Ok(r) = client::get(addr, &target) else {
        return Vec::new();
    };
    if r.status != 200 {
        return Vec::new();
    }
    let Ok(v) = Json::parse(&r.body) else {
        return Vec::new();
    };
    let Some(points) = v.get("points").and_then(Json::as_array) else {
        return Vec::new();
    };
    points
        .iter()
        .filter_map(|point| point.get(field).and_then(Json::as_f64))
        .collect()
}

/// `[0.0, 3.0, 6.0]` → `"▁▄█"`: one block per point, scaled to the max.
/// The last 60 points are shown so a frame fits a terminal line.
fn spark(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return "(collecting…)".to_string();
    }
    let tail = &values[values.len().saturating_sub(60)..];
    let max = tail.iter().copied().fold(0.0f64, f64::max);
    tail.iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                BARS[((v / max) * 7.0).round() as usize % 8]
            }
        })
        .collect()
}

/// `snapshot build DIR --out FILE [--warm-paths FILE]` /
/// `snapshot info FILE`: write a binary snapshot of a TSV network (with
/// optionally pre-materialized half-path products), or verify and
/// summarize an existing one. `info` exits nonzero on any corruption, so
/// it doubles as an integrity check in deployment scripts.
fn cmd_snapshot(p: &Parsed) -> Result<(), String> {
    match p.positional.first().map(String::as_str) {
        Some("build") => {
            let dir = p.positional.get(1).ok_or_else(|| {
                "usage: snapshot build DIR --out FILE [--warm-paths FILE]".to_string()
            })?;
            let out = p.require("out")?;
            let hin = load(dir)?;
            let engine = engine_with_threads(p, &hin)?;
            let mut warm = Vec::new();
            if let Some(file) = p.flags.get("warm-paths") {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read warm paths from {file:?}: {e}"))?;
                for spec in text
                    .lines()
                    .map(str::trim)
                    .filter(|line| !line.is_empty() && !line.starts_with('#'))
                {
                    let path = parse_path(&hin, spec)?;
                    let halves = engine
                        .materialized_halves(&path)
                        .map_err(|e| format!("cannot materialize {spec}: {e}"))?;
                    warm.push((path, halves));
                }
            }
            let info = snapshot::write_snapshot(Path::new(out), &hin, &warm)
                .map_err(|e| format!("cannot write snapshot to {out:?}: {e}"))?;
            println!(
                "wrote {out} (format v{}, {} bytes): {} nodes, {} edges, {} warmed path(s)",
                info.version,
                info.file_bytes,
                info.nodes,
                info.edges,
                info.warm_paths.len()
            );
            Ok(())
        }
        Some("info") => {
            let file = p
                .positional
                .get(1)
                .ok_or_else(|| "usage: snapshot info FILE".to_string())?;
            let info = snapshot::snapshot_info(Path::new(file))
                .map_err(|e| format!("snapshot {file:?} failed verification: {e}"))?;
            println!(
                "snapshot {file} (format v{}, {} bytes)",
                info.version, info.file_bytes
            );
            println!(
                "  {} types, {} relations, {} nodes, {} edges",
                info.types, info.relations, info.nodes, info.edges
            );
            if info.warm_paths.is_empty() {
                println!("  no warmed paths");
            } else {
                println!(
                    "  {} warmed path(s): {}",
                    info.warm_paths.len(),
                    info.warm_paths.join(", ")
                );
            }
            println!("  sections (all checksums verified):");
            for s in &info.sections {
                println!(
                    "    {:<10} {:>12} bytes  crc32 {:#010x}",
                    s.name, s.bytes, s.crc32
                );
            }
            Ok(())
        }
        Some(other) => Err(format!("unknown snapshot action {other:?} (build|info)")),
        None => Err("usage: snapshot build DIR --out FILE | snapshot info FILE".to_string()),
    }
}

/// Whether this invocation asked for metrics; enables recording if so.
fn metrics_requested(p: &Parsed) -> bool {
    p.has("metrics") || p.has("metrics-out")
}

/// Rejects `--metrics=<bad>` before any work happens.
fn validate_metrics_format(p: &Parsed) -> Result<(), String> {
    match p.get_or("metrics", "tree") {
        "" | "tree" | "json" => Ok(()),
        other => Err(format!("unknown metrics format {other:?} (tree|json)")),
    }
}

/// Prints and/or writes the metrics snapshot per the `--metrics` /
/// `--metrics-out` flags. The human tree goes to stderr so stdout stays
/// machine-consumable; the JSON form goes to stdout, since it *is* the
/// machine-consumable output.
fn emit_metrics(p: &Parsed) -> Result<(), String> {
    if !metrics_requested(p) {
        return Ok(());
    }
    let snap = hetesim_obs::snapshot();
    if p.has("metrics") {
        match p.get_or("metrics", "tree") {
            "json" => print!("{}", snap.to_json()),
            _ => eprint!("{}", snap.render_tree()),
        }
    }
    if let Some(file) = p.flags.get("metrics-out") {
        std::fs::write(file, snap.to_json())
            .map_err(|e| format!("cannot write metrics to {file:?}: {e}"))?;
    }
    Ok(())
}

/// Runs the CLI against explicit arguments (no program name). Returns an
/// error message to print on failure.
pub fn run_with_args(raw: &[String]) -> Result<(), String> {
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" || raw[0] == "-h" {
        println!("{HELP}");
        return Ok(());
    }
    let parsed = args::parse(raw)?;
    validate_metrics_format(&parsed)?;
    if metrics_requested(&parsed) {
        hetesim_obs::enable();
    }
    let command = parsed.command.as_str();
    let result = {
        let _span = hetesim_obs::span(match command {
            "generate" => "cli.generate",
            "stats" => "cli.stats",
            "paths" => "cli.paths",
            "query" | "top-k" => "cli.query",
            "pair" => "cli.pair",
            "join" => "cli.join",
            "serve" => "cli.serve",
            "watch" => "cli.watch",
            "snapshot" => "cli.snapshot",
            "trace" => "cli.trace",
            "profile" => "cli.profile",
            _ => "cli.unknown",
        });
        match command {
            "generate" => cmd_generate(&parsed),
            "stats" => cmd_stats(&parsed),
            "paths" => cmd_paths(&parsed),
            "query" | "top-k" => cmd_query(&parsed),
            "pair" => cmd_pair(&parsed),
            "join" => cmd_join(&parsed),
            "serve" => cmd_serve(&parsed),
            "watch" => cmd_watch(&parsed),
            "snapshot" => cmd_snapshot(&parsed),
            "trace" => cmd_trace(&parsed),
            "profile" => cmd_profile(&parsed),
            other => Err(format!("unknown command {other:?}; try `hetesim-cli help`")),
        }
    };
    // Emit metrics even after a failed command — partial timings are often
    // exactly what's needed to diagnose the failure.
    let metrics_result = emit_metrics(&parsed);
    result.and(metrics_result)
}

/// Binary entry point shared by `hetesim-cli` and the workspace-root
/// `hetesim` binary.
pub fn run() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run_with_args(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
