//! `serve_warm`: the HTTP server started from a snapshot with its paths
//! already warm, driven over real sockets. The engine work per request is
//! microseconds, so the front end (accept, queue, parse, render, write,
//! connection close) dominates.
//!
//! Two phases run against one server: an open loop at a fixed offered
//! rate, timed from each request's due time, then a closed loop with one
//! request in flight per connection.

use crate::calls::{elapsed_ns, us};
use crate::http::{self, Timing};
use crate::inputs::{read_expected, snapshot_file, Expected, K, SERVE_PATHS};
use crate::json::{self, Value};
use crate::metrics::{histogram_sum, hit_ratio, EndToEnd, Layers};
use crate::report::{peak_rss_mb, Report};
use crate::rng::{Rng, Zipf, POPULARITY};
use crate::spans::{stage_of, stage_self_ns, SpanLog, Trace};
use crate::stats::{median, windowed, Dist, Outcome, TAIL};
use crate::Args;
use hetesim_core::snapshot::{install_warm_paths, read_snapshot};
use hetesim_core::HeteSimEngine;
use hetesim_serve::{App, ServeConfig, Server};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 9;
/// Closed-loop connections, one thread each: the machine this benchmark
/// was written on has two cores.
const CONNECTIONS: usize = 2;
/// Offered rate of the open loop, about half of what two closed-loop
/// connections reach on the parent commit (~390 requests/s).
const OPEN_RATE: f64 = 200.0;
/// How long a request may wait for its reply before it counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Share of a phase spent in the open loop; the rest is the closed loop.
const OPEN_SHARE: f64 = 0.6;
/// `200` replies per block over which the closed-loop rate is taken.
const OK_BLOCK: usize = 200;
/// Requests drawn ahead; the stream repeats after this many.
const STREAM: usize = 1 << 16;
/// Kept server traces: more than a traced phase sends.
const TRACE_RING: usize = 1 << 15;

/// One request of the stream: every fifth is `POST /pair`, the rest
/// `POST /query`; paths take turns, sources are Zipf-popular.
#[derive(Clone, Copy)]
struct Req {
    pair: bool,
    path: usize,
    entry: usize,
}

fn stream(pools: &[Vec<Expected>], seed: u64) -> Vec<Req> {
    let zipfs: Vec<Zipf> = pools
        .iter()
        .map(|p| Zipf::new(p.len(), POPULARITY))
        .collect();
    let mut rng = Rng::new(seed, 0x5e4e);
    (0..STREAM)
        .map(|i| {
            let path = (i / 5) % pools.len();
            Req {
                pair: i % 5 == 4,
                path,
                entry: zipfs[path].sample(&mut rng),
            }
        })
        .collect()
}

/// One request as the client saw it.
#[derive(Clone, Copy)]
struct Sample {
    outcome: Outcome,
    /// From the due time (open loop) or the send (closed loop) to the end
    /// of the reply.
    latency_ns: u64,
    /// How late the request was sent (open loop).
    late_ns: u64,
    timing: Timing,
    trace_id: Option<u64>,
    /// When the request ended.
    done: Instant,
}

/// The request line target and body of one request of the stream.
fn encode(req: Req, pools: &[Vec<Expected>]) -> (&'static str, String) {
    let e = &pools[req.path][req.entry];
    let spec = SERVE_PATHS[req.path];
    if req.pair {
        let body = format!(
            "{{\"path\":\"{spec}\",\"source\":{},\"target\":{}}}",
            e.source, e.target
        );
        ("/pair", body)
    } else {
        let body = format!("{{\"path\":\"{spec}\",\"source\":{},\"k\":{K}}}", e.source);
        ("/query", body)
    }
}

/// How a request ended: refused (`503`/`504`), failed, or answered right
/// or wrong.
fn judge(
    reply: std::io::Result<(http::Reply, Timing)>,
    req: Req,
    pools: &[Vec<Expected>],
) -> (Outcome, Timing, Option<u64>) {
    match reply {
        Err(err) => {
            eprintln!("serve_warm: {err}");
            (Outcome::Error, Timing::default(), None)
        }
        Ok((reply, timing)) => {
            let outcome = match reply.status {
                200 if answer_matches(&reply.body, &pools[req.path][req.entry], req.pair) => {
                    Outcome::Ok
                }
                200 => {
                    eprintln!("serve_warm: wrong answer: {}", reply.body);
                    Outcome::Wrong
                }
                503 | 504 => Outcome::Refused,
                status => {
                    eprintln!("serve_warm: unexpected status {status}");
                    Outcome::Error
                }
            };
            (outcome, timing, reply.trace_id)
        }
    }
}

/// A served body answers as the TSV-started engine did: same ranking,
/// names and score bits.
fn answer_matches(body: &str, e: &Expected, pair: bool) -> bool {
    let Ok(v) = json::parse(body) else {
        return false;
    };
    let text = |key: &str| v.get(key).and_then(Value::str);
    let bits = |v: &Value, key: &str| v.get(key).and_then(Value::num).map(f64::to_bits);
    if text("path") != Some(e.display.as_str()) || text("source") != Some(e.source_name.as_str()) {
        return false;
    }
    if pair {
        return text("target") == Some(e.target_name.as_str())
            && bits(&v, "score") == Some(e.pair_bits)
            && bits(&v, "unnormalized") == Some(e.unnormalized_bits);
    }
    let Some(results) = v.get("results").and_then(Value::arr) else {
        return false;
    };
    v.get("k").and_then(Value::num) == Some(K as f64)
        && results.len() == e.ranked.len()
        && results
            .iter()
            .zip(&e.ranked)
            .all(|(r, (index, name, score))| {
                r.get("id").and_then(Value::num) == Some(*index as f64)
                    && r.get("name").and_then(Value::str) == Some(name.as_str())
                    && bits(r, "score") == Some(*score)
            })
}

struct Load<'a> {
    addr: SocketAddr,
    pools: &'a [Vec<Expected>],
    stream: &'a [Req],
    next: &'a AtomicUsize,
}

impl Load<'_> {
    fn next_req(&self) -> Req {
        self.stream[self.next.fetch_add(1, Ordering::Relaxed) % self.stream.len()]
    }

    /// Sends on a seeded Poisson schedule from one thread, however many
    /// requests are still in flight, and times each from when it was due,
    /// so a stall also delays the requests behind it.
    fn open_loop(&self, seconds: f64, rng: &mut Rng) -> Vec<Sample> {
        let mut due = Vec::new();
        let mut t = rng.exp(1.0 / OPEN_RATE);
        while t < seconds {
            due.push(Duration::from_secs_f64(t));
            t += rng.exp(1.0 / OPEN_RATE);
        }
        let begin = Instant::now();
        let give_up = begin + Duration::from_secs_f64(seconds) + REPLY_TIMEOUT;
        let mut samples = Vec::with_capacity(due.len());
        let mut pending: Vec<http::Pending> = Vec::new();
        // (due time, lateness, request) of each pending request.
        let mut meta: Vec<(Instant, u64, Req)> = Vec::new();
        let mut sent = 0;
        while sent < due.len() || !pending.is_empty() {
            while sent < due.len() && begin + due[sent] <= Instant::now() {
                let due_at = begin + due[sent];
                sent += 1;
                let late_ns = elapsed_ns(due_at);
                let req = self.next_req();
                let (target, body) = encode(req, self.pools);
                match http::send(self.addr, "POST", target, &body).and_then(|p| p.nonblocking()) {
                    Ok(p) => {
                        pending.push(p);
                        meta.push((due_at, late_ns, req));
                    }
                    Err(e) => {
                        let (outcome, timing, trace_id) = judge(Err(e), req, self.pools);
                        samples.push(Sample {
                            outcome,
                            latency_ns: elapsed_ns(due_at),
                            late_ns,
                            timing,
                            trace_id,
                            done: Instant::now(),
                        });
                    }
                }
            }
            let now = Instant::now();
            if now > give_up {
                for (due_at, late_ns, _) in meta.drain(..) {
                    eprintln!("serve_warm: no reply within {REPLY_TIMEOUT:?}");
                    samples.push(Sample {
                        outcome: Outcome::Error,
                        latency_ns: elapsed_ns(due_at),
                        late_ns,
                        timing: Timing::default(),
                        trace_id: None,
                        done: Instant::now(),
                    });
                }
                break;
            }
            let wait = due.get(sent).map_or(REPLY_TIMEOUT, |d| {
                (begin + *d).saturating_duration_since(now)
            });
            if pending.is_empty() {
                std::thread::sleep(wait);
                continue;
            }
            let ready = http::wait_readable(&pending, wait.min(give_up - now)).unwrap_or_default();
            for i in ready.into_iter().rev() {
                let Some(reply) = pending[i].read_ready() else {
                    continue;
                };
                let (due_at, late_ns, req) = meta.swap_remove(i);
                pending.swap_remove(i);
                let latency_ns = elapsed_ns(due_at);
                let (outcome, timing, trace_id) = judge(reply, req, self.pools);
                samples.push(Sample {
                    outcome,
                    latency_ns,
                    late_ns,
                    timing,
                    trace_id,
                    done: Instant::now(),
                });
            }
        }
        samples
    }

    /// Each connection sends its next request when the last one is
    /// answered. Returns the samples in the order they ended, and the
    /// median rate of `200` replies over blocks of [`OK_BLOCK`].
    fn closed_loop(&self, seconds: f64) -> (Vec<Sample>, f64) {
        let samples = Mutex::new(Vec::new());
        let begin = Instant::now();
        let deadline = begin + Duration::from_secs_f64(seconds);
        std::thread::scope(|s| {
            for _ in 0..CONNECTIONS {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let req = self.next_req();
                        let (target, body) = encode(req, self.pools);
                        let reply = http::request(self.addr, "POST", target, &body);
                        let (outcome, timing, trace_id) = judge(reply, req, self.pools);
                        mine.push(Sample {
                            outcome,
                            latency_ns: timing.done_ns,
                            late_ns: 0,
                            timing,
                            trace_id,
                            done: Instant::now(),
                        });
                    }
                    samples.lock().expect("no sender panicked").extend(mine);
                });
            }
        });
        let wall = begin.elapsed().as_secs_f64();
        let mut samples = samples.into_inner().expect("no sender panicked");
        samples.sort_by_key(|s| s.done);
        // The rate over each run of OK_BLOCK consecutive `200` replies.
        let ok: Vec<Instant> = samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .map(|s| s.done)
            .collect();
        let rates: Vec<f64> = ok
            .windows(OK_BLOCK + 1)
            .step_by(OK_BLOCK)
            .map(|w| OK_BLOCK as f64 / w[OK_BLOCK].duration_since(w[0]).as_secs_f64())
            .collect();
        let per_s = if rates.is_empty() {
            ok.len() as f64 / wall
        } else {
            median(&rates)
        };
        (samples, per_s)
    }
}

struct PhaseResult {
    open: Vec<Sample>,
    closed: Vec<Sample>,
    /// `200` replies per second in the closed loop.
    ok_per_s: f64,
    /// `GET /traces/recent` of a traced phase.
    server_traces: Option<String>,
}

fn config(traced: bool) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 0,
        trace_sample: u64::from(traced),
        trace_ring: TRACE_RING,
        history_budget_bytes: if traced { 1 << 20 } else { 0 },
        ..ServeConfig::default()
    }
}

fn run_phase(
    app: &App<'_>,
    server: &Server,
    load: &Load<'_>,
    seconds: f64,
    rng: &mut Rng,
    traced: bool,
) -> Result<PhaseResult, String> {
    let stop = server.handle();
    std::thread::scope(|s| {
        let serving = s.spawn(|| server.run(app));
        let open = load.open_loop(seconds * OPEN_SHARE, rng);
        let (closed, ok_per_s) = load.closed_loop(seconds * (1.0 - OPEN_SHARE));
        let server_traces = if traced {
            let target = format!("/traces/recent?n={TRACE_RING}");
            match http::request(load.addr, "GET", &target, "") {
                Ok((reply, _)) if reply.status == 200 => Some(reply.body),
                _ => return Err("could not read /traces/recent".to_string()),
            }
        } else {
            None
        };
        stop.shutdown();
        match serving.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("server: {e}")),
            Err(_) => return Err("server thread panicked".to_string()),
        }
        Ok(PhaseResult {
            open,
            closed,
            ok_per_s,
            server_traces,
        })
    })
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let pools = read_expected(&args.data)?;
    let stream = stream(&pools, args.seed);
    let snap_path = snapshot_file(&args.data);
    let mut setup_s = Vec::new();
    let mut read_ns = Vec::new();
    let mut install_ns = Vec::new();
    let mut cache_bytes = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let snap = read_snapshot(&snap_path).map_err(|e| e.to_string())?;
        read_ns.push(elapsed_ns(t) as f64);
        let engine = HeteSimEngine::new(&snap.hin);
        let t_install = Instant::now();
        install_warm_paths(&engine, snap.warm).map_err(|e| e.to_string())?;
        install_ns.push(elapsed_ns(t_install) as f64);
        let server = Server::bind(&config(false)).map_err(|e| e.to_string())?;
        let app = App::new(&snap.hin, engine)
            .with_workers(server.workers())
            .with_snapshot(&snap_path.display().to_string(), snap.version);
        setup_s.push(t.elapsed().as_secs_f64());
        cache_bytes.push(app.engine().cache_stats().bytes);
        if rep + 1 < SETUP_REPS {
            continue;
        }
        if cache_bytes.windows(2).any(|w| w[0] != w[1]) {
            report.nondeterministic = true;
            eprintln!("serve_warm: set-ups differ in cached bytes");
        }
        return measure(
            args,
            report,
            &app,
            server,
            &pools,
            &stream,
            &setup_s,
            &read_ns,
            &install_ns,
        );
    }
    unreachable!("the last set-up measures")
}

#[allow(clippy::too_many_arguments)]
fn measure(
    args: &Args,
    report: &mut Report,
    app: &App<'_>,
    server: Server,
    pools: &[Vec<Expected>],
    stream: &[Req],
    setup_s: &[f64],
    read_ns: &[f64],
    install_ns: &[f64],
) -> Result<(), String> {
    let next = AtomicUsize::new(0);
    let mut rng = Rng::new(args.seed, 0x09e7);
    let mut untraced = None;
    let mut traced = None;
    let mut registry = None;
    let mut cache_before = None;
    let mut server = Some(server);
    for (is_traced, seconds) in args.phases() {
        let server = match server.take() {
            Some(s) if !is_traced => s,
            _ => Server::bind(&config(is_traced)).map_err(|e| e.to_string())?,
        };
        let load = Load {
            addr: server.local_addr(),
            pools,
            stream,
            next: &next,
        };
        if is_traced {
            registry = Some(hetesim_obs::snapshot());
            cache_before = Some(app.engine().cache_stats());
        }
        let result = run_phase(app, &server, &load, seconds, &mut rng, is_traced)?;
        if is_traced {
            registry = registry.map(|before| hetesim_obs::snapshot().diff(&before));
            traced = Some(result);
        } else {
            untraced = Some(result);
        }
    }
    let untraced = untraced.expect("an untraced phase ran");
    for phase in [Some(&untraced), traced.as_ref()].into_iter().flatten() {
        for s in phase.open.iter().chain(&phase.closed) {
            report.tally.record(s.outcome);
        }
    }
    let ok_latency_ms = |samples: &[Sample]| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect()
    };
    let late = Dist::new(
        untraced
            .open
            .iter()
            .map(|s| s.late_ns as f64 / 1e6)
            .collect(),
    );
    let late_p99 = late.tail(990).1;
    report.note(format!(
        "serve_warm: open loop {} requests at {OPEN_RATE}/s (late p99 {late_p99:.3} ms), \
         closed loop {} requests on {CONNECTIONS} connections",
        untraced.open.len(),
        untraced.closed.len()
    ));

    report.setups(setup_s);
    if !args.trace {
        let open = ok_latency_ms(&untraced.open);
        let closed = ok_latency_ms(&untraced.closed);
        let (_, open_tail) = windowed(&open, TAIL);
        let (_, closed_tail) = windowed(&closed, TAIL);
        let (op, open_p99) = windowed(&open, 990);
        let rps = untraced.ok_per_s;
        let open_p50 = windowed(&open, 500).1;
        report.alias(
            "http_p50_ms",
            open_p50,
            "ms",
            &format!("open loop, n={}", open.len()),
        );
        report.alias("http_p95_ms", open_tail, "ms", "open loop");
        report.alias(
            &format!("http_p{}_ms", op / 10),
            open_p99,
            "ms",
            "open loop",
        );
        report.alias("http_max_rps", rps, "1/s", "closed loop, 200s only");
        report.alias("error_ratio", report.tally.error_ratio(), "ratio", "");
        EndToEnd {
            setup_s: median(setup_s),
            peak_rss_mb: peak_rss_mb(),
            success_ratio: 1.0 - report.tally.error_ratio(),
            latency_p50_ms: open_p50,
            latency_tail_ms: open_tail,
            throughput_per_s: rps,
            second_p50_ms: windowed(&closed, 500).1,
            second_tail_ms: closed_tail,
        }
        .record(report);
        return Ok(());
    }

    let traced = traced.expect("a traced phase ran");
    let registry = registry.expect("a traced phase ran");
    let server_traces = parse_server_traces(traced.server_traces.as_deref().unwrap_or("[]"))?;
    let mut log = SpanLog::default();
    let mut joined = Joined::default();
    for s in traced.open.iter().chain(&traced.closed) {
        let Some(id) = s.trace_id else { continue };
        let t = s.timing;
        let mut client = Trace::root(id, "bench.request", t.done_ns);
        client.push("serve.client.connect", Some(0), 0, t.connected_ns);
        client.push("serve.client.send", Some(0), t.connected_ns, t.sent_ns);
        client.push("serve.client.wait", Some(0), t.sent_ns, t.done_ns);
        joined.connect_us.push(us(t.connected_ns));
        joined.client_us.push(us(t.done_ns));
        if let Some(server) = server_traces.get(&id) {
            joined.add(t.done_ns, server);
            log.push(server.clone());
        } else {
            joined.unjoined += 1;
        }
        log.push(client);
    }
    let stats = app.engine().cache_stats();
    let before = cache_before.expect("a traced phase ran");
    let busy = histogram_sum(&registry, "serve.server.worker_busy_us");
    let idle = histogram_sum(&registry, "serve.server.worker_idle_us");
    let dist = |v: &Vec<f64>| Dist::new(v.clone());
    report.note(format!(
        "serve_warm traced: {} requests joined to server traces, {} not; mean client latency \
         {:.1} us = unattributed {:.1} + queue_wait {:.1} + parse {:.1} + handle {:.1} + \
         write {:.1}",
        joined.unattributed_us.len(),
        joined.unjoined,
        dist(&joined.client_us).mean(),
        dist(&joined.unattributed_us).mean(),
        dist(&joined.queue_wait_us).mean(),
        dist(&joined.parse_us).mean(),
        dist(&joined.handle_us).mean(),
        dist(&joined.write_us).mean(),
    ));
    Layers {
        serve_client_latency_us_p50: dist(&joined.client_us).p50(),
        serve_unattributed_us_p50: dist(&joined.unattributed_us).p50(),
        serve_unattributed_us_p95: dist(&joined.unattributed_us).p95(),
        serve_queue_wait_us_p95: dist(&joined.queue_wait_us).p95(),
        serve_parse_us_p95: dist(&joined.parse_us).p95(),
        serve_handle_us_p95: dist(&joined.handle_us).p95(),
        serve_render_us_p95: dist(&joined.render_us).p95(),
        serve_write_us_p95: dist(&joined.write_us).p95(),
        serve_worker_busy_ratio: busy as f64 / (busy + idle) as f64,
        serve_connect_us_p50: dist(&joined.connect_us).p50(),
        serve_shed: registry.counter("serve.server.shed").unwrap_or(0),
        serve_timeouts: registry.counter("serve.server.timeouts").unwrap_or(0),
        cache_hit_ratio: hit_ratio(&before, &stats),
        cache_resident_mb: stats.bytes as f64 / 1e6,
        topk_self_us_p50: dist(&joined.topk_self_us).p50(),
        topk_self_us_p95: dist(&joined.topk_self_us).p95(),
        snapshot_read_ms: median(read_ns) / 1e6,
        snapshot_install_ms: median(install_ns) / 1e6,
        trace_overhead_ratio: untraced.ok_per_s / traced.ok_per_s - 1.0,
        gen_late_p99_ms: late_p99,
        ..Layers::default()
    }
    .record(report);
    log.write_jsonl(&args.spans).map_err(|e| e.to_string())?;
    Ok(())
}

/// Client requests joined to the server's trace of the same request.
#[derive(Default)]
struct Joined {
    unjoined: usize,
    client_us: Vec<f64>,
    connect_us: Vec<f64>,
    unattributed_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    parse_us: Vec<f64>,
    handle_us: Vec<f64>,
    render_us: Vec<f64>,
    write_us: Vec<f64>,
    topk_self_us: Vec<f64>,
}

impl Joined {
    /// Adds one request: whatever of the client's latency no server stage
    /// covers is unattributed (the wait before accept, connect, and the
    /// trip through the kernel).
    fn add(&mut self, client_ns: u64, server: &Trace) {
        let stages: u64 = server
            .spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.duration_ns())
            .sum();
        self.unattributed_us
            .push((client_ns as f64 - stages as f64) / 1e3);
        self.queue_wait_us
            .push(us(server.total_ns("serve.server.queue_wait")));
        self.parse_us
            .push(us(server.total_ns("serve.server.parse")));
        self.handle_us
            .push(us(server.total_ns("serve.server.handle")));
        self.render_us.push(us(server.total_ns("serve.app.render")));
        self.write_us
            .push(us(server.total_ns("serve.server.write")));
        let self_ns = stage_self_ns(server, stage_of);
        if self_ns.iter().any(|(name, _)| *name == "core.engine.topk") {
            self.topk_self_us
                .push(us(crate::spans::self_of(&self_ns, "core.engine.topk")));
        }
    }
}

/// The `/traces/recent` array as traces keyed by ID, each under a root
/// span covering the server's whole handling of the connection.
fn parse_server_traces(body: &str) -> Result<HashMap<u64, Trace>, String> {
    let v = json::parse(body)?;
    let mut out = HashMap::new();
    for t in v.arr().ok_or("/traces/recent is not an array")? {
        let id = t
            .get("trace_id")
            .and_then(Value::str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("trace without an ID")?;
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::num).unwrap_or(0.0) as u64;
        let mut trace = Trace::root(id, "serve.server.connection", num(t, "duration_ns"));
        for e in t.get("events").and_then(Value::arr).unwrap_or(&[]) {
            let name = e
                .get("name")
                .and_then(Value::str)
                .unwrap_or("?")
                .to_string();
            let parent = e.get("parent").and_then(Value::num).map(|p| p as usize + 1);
            let start = num(e, "start_ns");
            trace.push(
                name,
                parent.or(Some(0)),
                start,
                start + num(e, "duration_ns"),
            );
        }
        out.insert(id, trace);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Expected {
        Expected {
            spec: "APA".into(),
            display: "A-P-A".into(),
            source: 1,
            source_name: "author_00001".into(),
            target: 2,
            target_name: "author_00002".into(),
            pair_bits: 0.25f64.to_bits(),
            unnormalized_bits: 0.125f64.to_bits(),
            ranked: vec![(2, "author_00002".into(), 0.5f64.to_bits())],
        }
    }

    #[test]
    fn served_answers_are_compared_bitwise() {
        let e = expected();
        let query = r#"{"path":"A-P-A","source":"author_00001","k":10,"results":[{"id":2,"name":"author_00002","score":0.5}]}"#;
        assert!(answer_matches(query, &e, false));
        assert!(!answer_matches(
            &query.replace("0.5", "0.5000000000000001"),
            &e,
            false
        ));
        assert!(!answer_matches(
            &query.replace("\"k\":10", "\"k\":9"),
            &e,
            false
        ));
        let pair = r#"{"path":"A-P-A","source":"author_00001","target":"author_00002","score":0.25,"unnormalized":0.125}"#;
        assert!(answer_matches(pair, &e, true));
        assert!(!answer_matches(&pair.replace("00002", "00003"), &e, true));
        assert!(!answer_matches("not json", &e, true));
    }

    #[test]
    fn server_traces_join_and_split_latency() {
        let body = r#"[{"trace_id":"00000000000000ff","duration_ns":1000,"events":[
            {"name":"serve.server.queue_wait","parent":null,"start_ns":0,"duration_ns":100},
            {"name":"serve.server.parse","parent":null,"start_ns":100,"duration_ns":200},
            {"name":"serve.server.handle","parent":null,"start_ns":300,"duration_ns":500},
            {"name":"core.engine.topk","parent":2,"start_ns":400,"duration_ns":300},
            {"name":"core.topk.parallel","parent":3,"start_ns":450,"duration_ns":200},
            {"name":"serve.server.write","parent":null,"start_ns":800,"duration_ns":150}]}]"#;
        let traces = parse_server_traces(body).unwrap();
        let t = &traces[&255];
        assert_eq!(t.spans[4].parent, Some(3));
        let mut j = Joined::default();
        j.add(3000, t);
        // 3000 ns at the client, 950 ns inside the server's stages.
        assert_eq!(j.unattributed_us, vec![2.05]);
        assert_eq!(j.handle_us, vec![0.5]);
        assert_eq!(j.topk_self_us, vec![0.3]);
        assert!(parse_server_traces("{}").is_err());
    }
}
