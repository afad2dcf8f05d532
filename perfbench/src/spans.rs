//! The benchmark's own trace: spans around each public call it makes,
//! joined with the events the program itself records for the same call.
//!
//! A span has a name, a start, an end and a parent; the spans of one
//! operation form one [`Trace`] and share its ID. Traces stay in memory
//! until the run ends and are then written out as JSON lines.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    /// Index of the enclosing span in the same trace; parents precede
    /// their children.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub id: u64,
    pub spans: Vec<Span>,
}

impl Trace {
    /// A trace whose root span covers `[0, duration_ns]`.
    pub fn root(id: u64, name: impl Into<Cow<'static, str>>, duration_ns: u64) -> Trace {
        Trace {
            id,
            spans: vec![Span {
                name: name.into(),
                parent: None,
                start_ns: 0,
                end_ns: duration_ns,
            }],
        }
    }

    /// Appends a span and returns its index.
    pub fn push(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Grafts the events the program recorded for this operation under
    /// span `under`; event offsets are relative to that span's start.
    pub fn graft(&mut self, under: usize, events: &[hetesim_obs::TraceEvent]) {
        let base = self.spans.len();
        let origin = self.spans[under].start_ns;
        for e in events {
            self.push(
                e.name,
                Some(e.parent.map_or(under, |p| base + p as usize)),
                origin + e.start_ns,
                origin + e.start_ns + e.duration_ns,
            );
        }
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    fn to_json_line(&self) -> String {
        let mut out = format!("{{\"trace_id\":\"{:016x}\",\"spans\":[", self.id);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Self time per stage: each stage's duration minus the part its child
/// stages cover. `stage_of` maps span names to stages; a span in the same
/// stage as its parent is folded into it (the `core.topk.*` kernels are
/// part of the `core.engine.topk` stage, for instance), so only stage
/// boundaries count as children. Results keep first-seen order and sum
/// repeated activations of a stage.
pub fn stage_self_ns<'a>(
    trace: &'a Trace,
    stage_of: impl Fn(&'a str) -> &'a str,
) -> Vec<(&'a str, u64)> {
    let n = trace.spans.len();
    // owner[i]: the outermost span of the stage instance span i belongs to.
    let mut owner = vec![0usize; n];
    let mut self_ns = vec![0i128; n];
    for (i, s) in trace.spans.iter().enumerate() {
        owner[i] = match s.parent {
            Some(p) if stage_of(&trace.spans[owner[p]].name) == stage_of(&s.name) => owner[p],
            _ => i,
        };
        if owner[i] == i {
            self_ns[i] += s.duration_ns() as i128;
            if let Some(p) = s.parent {
                self_ns[owner[p]] -= s.duration_ns() as i128;
            }
        }
    }
    let mut out: Vec<(&str, u64)> = Vec::new();
    for (i, s) in trace.spans.iter().enumerate() {
        if owner[i] != i {
            continue;
        }
        let stage = stage_of(&s.name);
        let v = self_ns[i].max(0) as u64;
        match out.iter_mut().find(|(name, _)| *name == stage) {
            Some((_, total)) => *total += v,
            None => out.push((stage, v)),
        }
    }
    out
}

/// Looks a stage up in [`stage_self_ns`] output; `0` when absent.
pub fn self_of(stages: &[(&str, u64)], stage: &str) -> u64 {
    stages
        .iter()
        .find(|(name, _)| *name == stage)
        .map_or(0, |(_, ns)| *ns)
}

/// The layer stages the benchmark reports: the sparse kernels form one
/// stage, and the selection kernels belong to the engine's top-k stage.
pub fn stage_of(name: &str) -> &str {
    if name.starts_with("sparse.") {
        "sparse"
    } else if name.starts_with("core.topk.") {
        "core.engine.topk"
    } else {
        name
    }
}

/// All traces of a run, kept in memory until the end.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub traces: Vec<Trace>,
}

impl SpanLog {
    pub fn push(&mut self, trace: Trace) {
        self.traces.push(trace);
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for t in &self.traces {
            writeln!(out, "{}", t.to_json_line())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested() -> Trace {
        // call [0,100] > build [10,80] > chain [20,70] > sparse.a [25,45]
        //                                              > sparse.b [45,65]
        //              > core.engine.topk [80,95] > core.topk.parallel [82,94]
        let mut t = Trace::root(1, "bench.top_k", 100);
        let build = t.push("core.engine.build_halves", Some(0), 10, 80);
        let chain = t.push("core.engine.chain", Some(build), 20, 70);
        let a = t.push("sparse.parallel.matmul", Some(chain), 25, 45);
        t.push("sparse.parallel.numeric", Some(a), 30, 44);
        t.push("sparse.csr.matmul", Some(chain), 45, 65);
        let topk = t.push("core.engine.topk", Some(0), 80, 95);
        t.push("core.topk.parallel", Some(topk), 82, 94);
        t
    }

    #[test]
    fn self_time_subtracts_child_stages_only() {
        let t = nested();
        let s = stage_self_ns(&t, stage_of);
        assert_eq!(self_of(&s, "bench.top_k"), 100 - 70 - 15);
        assert_eq!(self_of(&s, "core.engine.build_halves"), 70 - 50);
        assert_eq!(self_of(&s, "core.engine.chain"), 50 - 20 - 20);
        // Nested sparse spans fold into one stage; siblings add up.
        assert_eq!(self_of(&s, "sparse"), 40);
        assert_eq!(self_of(&s, "core.engine.topk"), 15);
        assert_eq!(self_of(&s, "missing"), 0);
        // Self times partition the root's duration.
        assert_eq!(s.iter().map(|(_, v)| v).sum::<u64>(), 100);
    }

    #[test]
    fn without_folding_every_span_is_a_stage() {
        let t = nested();
        let s = stage_self_ns(&t, |n| n);
        assert_eq!(self_of(&s, "core.engine.topk"), 3);
        assert_eq!(self_of(&s, "core.topk.parallel"), 12);
        assert_eq!(self_of(&s, "sparse.parallel.matmul"), 6);
        assert_eq!(s.iter().map(|(_, v)| v).sum::<u64>(), 100);
    }

    #[test]
    fn grafted_events_nest_under_the_call() {
        let mut t = Trace::root(9, "bench.call", 50);
        let call = t.push("bench.inner", Some(0), 5, 45);
        let events = [
            hetesim_obs::TraceEvent {
                name: "core.engine.top_k",
                parent: None,
                start_ns: 1,
                duration_ns: 30,
            },
            hetesim_obs::TraceEvent {
                name: "core.engine.topk",
                parent: Some(0),
                start_ns: 2,
                duration_ns: 20,
            },
        ];
        t.graft(call, &events);
        assert_eq!(t.spans[2].parent, Some(call));
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (6, 36));
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!(t.total_ns("core.engine.topk"), 20);
        let s = stage_self_ns(&t, stage_of);
        assert_eq!(self_of(&s, "core.engine.top_k"), 10);
        assert_eq!(self_of(&s, "bench.inner"), 10);
    }
}
