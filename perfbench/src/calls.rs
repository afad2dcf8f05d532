//! Timing, and in traced phases tracing, of the public calls a workload
//! makes into the program.

use crate::spans::{stage_of, stage_self_ns, SpanLog, Trace};
use std::time::Instant;

/// Records one trace per call: a root span named after the call with the
/// program's own events for it grafted underneath.
#[derive(Debug, Default)]
pub struct Tracer {
    next_id: u64,
    pub log: SpanLog,
}

impl Tracer {
    /// Runs `f` as one traced operation; returns its result and duration.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        self.next_id += 1;
        let started = Instant::now();
        let scope = hetesim_obs::trace_begin(self.next_id, started, true);
        let out = f();
        let ns = elapsed_ns(started);
        let mut trace = Trace::root(self.next_id, name, ns);
        if let Some(finished) = scope.finish() {
            trace.graft(0, &finished.events);
        }
        self.log.push(trace);
        (out, ns)
    }

    /// The trace of the last call.
    pub fn last(&self) -> &Trace {
        self.log.traces.last().expect("a call was traced")
    }
}

/// Runs `f`, traced when `tracer` is given; returns its result and
/// duration in nanoseconds.
pub fn call<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    match tracer {
        Some(t) => t.call(name, f),
        None => {
            let started = Instant::now();
            let out = f();
            (out, elapsed_ns(started))
        }
    }
}

pub fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Engine stage times summed over a set of traces, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStages {
    /// Whole half-path builds (`core.engine.build_halves`).
    pub build: u64,
    pub normalize_self: u64,
    pub chain_self: u64,
    pub cosine_self: u64,
    pub sparse_self: u64,
}

impl EngineStages {
    pub fn add(&mut self, trace: &Trace) {
        let stages = stage_self_ns(trace, stage_of);
        let get = |s: &str| crate::spans::self_of(&stages, s);
        self.build += trace.total_ns("core.engine.build_halves");
        self.normalize_self += get("core.engine.normalize");
        self.chain_self += get("core.engine.chain");
        self.cosine_self += get("core.engine.cosine");
        self.sparse_self += get("sparse");
    }
}

/// Self time of the top-k selection stage of a traced call.
pub fn topk_self_ns(trace: &Trace) -> u64 {
    crate::spans::self_of(&stage_self_ns(trace, stage_of), "core.engine.topk")
}
