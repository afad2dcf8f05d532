//! The HeteSim HTTP application: routes requests onto a shared
//! [`HeteSimEngine`].
//!
//! One [`App`] (one engine, one path cache) is shared by every worker
//! thread — that sharing is the whole point of serving: the first query
//! along a relevance path materializes its half-products, every later
//! query along it is row reads (the paper's Section 4.6 off-line/on-line
//! split, kept warm across requests). The engine's interior locking
//! (`PathCache` is a read-mostly `RwLock`) makes concurrent handling
//! safe without any per-request state.
//!
//! See `docs/API.md` for the full endpoint reference with JSON schemas.

use crate::http::{Request, Response};
use crate::json::{escape, Json};
use crate::server::Handler;
use hetesim_core::HeteSimEngine;
use hetesim_graph::{Hin, MetaPath, TypeId};
use std::time::Instant;

/// The HTTP-facing application state: a network and its query engine.
pub struct App<'h> {
    hin: &'h Hin,
    engine: HeteSimEngine<'h>,
    started: Instant,
    workers: usize,
    /// `(file path, format version)` when the network was cold-started
    /// from a binary snapshot; reported by `/healthz` as provenance.
    snapshot: Option<(String, u32)>,
}

impl<'h> App<'h> {
    /// Wraps a network and a configured engine (thread count and cache
    /// budget are decided by the caller).
    pub fn new(hin: &'h Hin, engine: HeteSimEngine<'h>) -> App<'h> {
        App {
            hin,
            engine,
            started: Instant::now(),
            workers: 0,
            snapshot: None,
        }
    }

    /// Records the server's worker-pool size so `/healthz` can report it
    /// (`0` = unknown, e.g. when the app is exercised without a server).
    pub fn with_workers(mut self, workers: usize) -> App<'h> {
        self.workers = workers;
        self
    }

    /// Records that the network was loaded from a binary snapshot, so
    /// `/healthz` reports the provenance (`snapshot_loaded`,
    /// `snapshot_path`, `snapshot_version`).
    pub fn with_snapshot(mut self, path: &str, version: u32) -> App<'h> {
        self.snapshot = Some((path.to_string(), version));
        self
    }

    /// The engine, for warmup and stats from outside the request path.
    pub fn engine(&self) -> &HeteSimEngine<'h> {
        &self.engine
    }

    /// Pre-materializes each path in `specs`, returning one status object
    /// per path. Shared by `POST /warmup` and the CLI `--warmup-paths`
    /// flag.
    pub fn warm_paths(&self, specs: &[String]) -> Json {
        let mut statuses = Vec::new();
        for spec in specs {
            let mut member = vec![("path".to_string(), Json::Str(spec.clone()))];
            let outcome = MetaPath::parse(self.hin.schema(), spec)
                .map_err(|e| e.to_string())
                .and_then(|path| self.engine.warm(&path).map_err(|e| e.to_string()));
            match outcome {
                Ok(()) => member.push(("ok".to_string(), Json::Bool(true))),
                Err(e) => {
                    member.push(("ok".to_string(), Json::Bool(false)));
                    member.push(("error".to_string(), Json::Str(e)));
                }
            }
            statuses.push(Json::Obj(member));
        }
        let stats = self.engine.cache_stats();
        Json::Obj(vec![
            ("warmed".to_string(), Json::Arr(statuses)),
            (
                "cache".to_string(),
                Json::Obj(vec![
                    ("entries".to_string(), Json::Num(stats.entries as f64)),
                    ("resident_bytes".to_string(), Json::Num(stats.bytes as f64)),
                ]),
            ),
        ])
    }

    /// Parses the body as a JSON object, or answers `400`.
    fn body_object(req: &Request) -> Result<Json, Response> {
        let text = req
            .body_utf8()
            .map_err(|_| Response::error(400, "body is not valid UTF-8"))?;
        let v =
            Json::parse(text).map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))?;
        match v {
            Json::Obj(_) => Ok(v),
            _ => Err(Response::error(400, "body must be a JSON object")),
        }
    }

    /// The `path` member parsed against the schema, or `400`.
    fn parse_path(&self, body: &Json) -> Result<MetaPath, Response> {
        let spec = body
            .get("path")
            .and_then(Json::as_str)
            .ok_or_else(|| Response::error(400, "missing string member \"path\""))?;
        MetaPath::parse(self.hin.schema(), spec)
            .map_err(|e| Response::error(400, &format!("invalid path {spec:?}: {e}")))
    }

    /// Resolves a node given as name (string) or index (number).
    fn resolve_node(&self, ty: TypeId, body: &Json, member: &str) -> Result<u32, Response> {
        let v = body
            .get(member)
            .ok_or_else(|| Response::error(400, &format!("missing member {member:?}")))?;
        match v {
            Json::Str(name) => self
                .hin
                .node_id(ty, name)
                .map_err(|e| Response::error(400, &e.to_string())),
            Json::Num(_) => {
                let id = v.as_u64().ok_or_else(|| {
                    Response::error(
                        400,
                        &format!("{member:?} must be a non-negative integer or a name"),
                    )
                })?;
                if (id as usize) < self.hin.node_count(ty) {
                    Ok(id as u32)
                } else {
                    Err(Response::error(
                        400,
                        &format!("{member:?} index {id} out of range"),
                    ))
                }
            }
            _ => Err(Response::error(
                400,
                &format!("{member:?} must be a name or an index"),
            )),
        }
    }

    fn healthz(&self) -> Response {
        let stats = self.engine.cache_stats();
        let snapshot = match &self.snapshot {
            Some((path, version)) => format!(
                "\"snapshot_loaded\":true,\"snapshot_path\":\"{}\",\
                 \"snapshot_version\":{version},",
                escape(path)
            ),
            None => "\"snapshot_loaded\":false,".to_string(),
        };
        Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"version\":\"{}\",\"uptime_seconds\":{},\
                 \"workers\":{},{snapshot}\"nodes\":{},\"edges\":{},\
                 \"cache\":{{\"entries\":{},\"resident_bytes\":{},\"budget_bytes\":{}}}}}",
                escape(env!("CARGO_PKG_VERSION")),
                self.started.elapsed().as_secs(),
                self.workers,
                self.hin.total_nodes(),
                self.hin.total_edges(),
                stats.entries,
                stats.bytes,
                self.engine.cache_budget_bytes(),
            ),
        )
    }

    /// `GET /profile?seconds=N&format=folded|svg`: the span profile as a
    /// folded-stack text or flamegraph SVG. With `seconds` > 0 the handler
    /// sleeps that long and renders only the activity window (snapshot
    /// diff); with `seconds=0` (the default) it renders everything since
    /// startup. Deliberately unspanned: a span around the sleep would
    /// dominate every profile this endpoint reports.
    fn profile(&self, req: &Request) -> Response {
        let seconds = match req.query_param("seconds") {
            None => 0,
            Some(v) => match v.parse::<u64>() {
                Ok(s) if s <= 60 => s,
                _ => {
                    return Response::error(400, "\"seconds\" must be an integer between 0 and 60")
                }
            },
        };
        let format = req.query_param("format").unwrap_or("folded");
        if format != "folded" && format != "svg" {
            return Response::error(400, "\"format\" must be \"folded\" or \"svg\"");
        }
        let snapshot = if seconds > 0 {
            let base = hetesim_obs::snapshot();
            std::thread::sleep(std::time::Duration::from_secs(seconds));
            hetesim_obs::snapshot().diff(&base)
        } else {
            hetesim_obs::snapshot()
        };
        match format {
            "svg" => Response::text(200, "image/svg+xml", hetesim_obs::flamegraph_svg(&snapshot)),
            _ => Response::text(
                200,
                "text/plain; charset=utf-8",
                hetesim_obs::folded_stacks(&snapshot),
            ),
        }
    }

    /// Publishes cache gauges, then renders the whole observability
    /// snapshot (spans, counters, histograms). Prometheus text format
    /// 0.0.4 by default; `?format=json` keeps the legacy JSON view.
    fn metrics(&self, req: &Request) -> Response {
        let stats = self.engine.cache_stats();
        hetesim_obs::set("core.cache.resident_bytes", stats.bytes);
        hetesim_obs::set("core.cache.halves.entries", stats.entries);
        hetesim_obs::set(
            "core.cache.hit_rate_permille",
            (stats.hit_rate() * 1000.0) as u64,
        );
        let snapshot = hetesim_obs::snapshot();
        match req.query_param("format") {
            Some("json") => Response::json(200, snapshot.to_json()),
            _ => Response::text(200, "text/plain; version=0.0.4", snapshot.to_prometheus()),
        }
    }

    fn query(&self, req: &Request) -> Response {
        let _span = hetesim_obs::span("serve.app.query");
        let (path, source, k) = {
            let _stage = hetesim_obs::span("serve.app.parse");
            let body = match Self::body_object(req) {
                Ok(b) => b,
                Err(r) => return r,
            };
            let path = match self.parse_path(&body) {
                Ok(p) => p,
                Err(r) => return r,
            };
            let source = match self.resolve_node(path.source_type(), &body, "source") {
                Ok(s) => s,
                Err(r) => return r,
            };
            let k = match body.get("k") {
                None => 10,
                Some(v) => match v.as_u64() {
                    Some(k) => k as usize,
                    None => return Response::error(400, "\"k\" must be a non-negative integer"),
                },
            };
            (path, source, k)
        };
        hetesim_obs::trace_annotate("path", path.display(self.hin.schema()));
        hetesim_obs::trace_annotate(
            "source",
            self.hin.node_name(path.source_type(), source).to_string(),
        );
        hetesim_obs::trace_annotate("k", k.to_string());
        let ranked = match self.engine.top_k(&path, source, k) {
            Ok(r) => r,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        let _stage = hetesim_obs::span("serve.app.render");
        let target_ty = path.target_type();
        let results: Vec<Json> = ranked
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("id".to_string(), Json::Num(r.index as f64)),
                    (
                        "name".to_string(),
                        Json::Str(self.hin.node_name(target_ty, r.index).to_string()),
                    ),
                    ("score".to_string(), Json::Num(r.score)),
                ])
            })
            .collect();
        let body = Json::Obj(vec![
            (
                "path".to_string(),
                Json::Str(path.display(self.hin.schema())),
            ),
            (
                "source".to_string(),
                Json::Str(self.hin.node_name(path.source_type(), source).to_string()),
            ),
            ("k".to_string(), Json::Num(k as f64)),
            ("results".to_string(), Json::Arr(results)),
        ]);
        Response::json(200, body.to_string())
    }

    fn pair(&self, req: &Request) -> Response {
        let _span = hetesim_obs::span("serve.app.pair");
        let body = match Self::body_object(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let path = match self.parse_path(&body) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let source = match self.resolve_node(path.source_type(), &body, "source") {
            Ok(s) => s,
            Err(r) => return r,
        };
        let target = match self.resolve_node(path.target_type(), &body, "target") {
            Ok(t) => t,
            Err(r) => return r,
        };
        let score = match self.engine.pair(&path, source, target) {
            Ok(s) => s,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        let raw = match self.engine.pair_unnormalized(&path, source, target) {
            Ok(s) => s,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        Response::json(
            200,
            format!(
                "{{\"path\":\"{}\",\"source\":\"{}\",\"target\":\"{}\",\"score\":{score},\"unnormalized\":{raw}}}",
                escape(&path.display(self.hin.schema())),
                escape(self.hin.node_name(path.source_type(), source)),
                escape(self.hin.node_name(path.target_type(), target)),
            ),
        )
    }

    fn warmup(&self, req: &Request) -> Response {
        let _span = hetesim_obs::span("serve.app.warmup");
        let body = match Self::body_object(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let specs: Vec<String> = match body.get("paths").and_then(Json::as_array) {
            Some(items) => {
                let mut specs = Vec::with_capacity(items.len());
                for item in items {
                    match item.as_str() {
                        Some(s) => specs.push(s.to_string()),
                        None => {
                            return Response::error(400, "\"paths\" must be an array of strings")
                        }
                    }
                }
                specs
            }
            None => return Response::error(400, "missing array member \"paths\""),
        };
        Response::json(200, self.warm_paths(&specs).to_string())
    }
}

impl Handler for App<'_> {
    /// Routes by method and path (the target with any query string
    /// stripped); unknown targets get `404`, known targets with the
    /// wrong method get `405`.
    fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path()) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/metrics") => self.metrics(req),
            ("GET", "/profile") => self.profile(req),
            ("POST", "/query") => self.query(req),
            ("POST", "/pair") => self.pair(req),
            ("POST", "/warmup") => self.warmup(req),
            (_, "/healthz" | "/metrics" | "/profile" | "/query" | "/pair" | "/warmup") => {
                Response::error(405, "method not allowed")
            }
            _ => Response::error(404, "no such endpoint"),
        }
    }
}
