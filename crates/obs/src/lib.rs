// The allocation profiler is the one sanctioned unsafe surface in this
// crate (a `GlobalAlloc` wrapper); every other build keeps the blanket ban.
#![cfg_attr(not(feature = "obs-alloc"), forbid(unsafe_code))]
#![warn(missing_docs)]

//! `hetesim-obs` — zero-dependency tracing and metrics for the HeteSim
//! workspace.
//!
//! The engine's hot paths (chain products, sparse matmul, cache lookups,
//! query entry points) are instrumented with three primitives:
//!
//! * **spans** — [`span()`] / [`span!`] return an RAII guard that records
//!   wall-clock time into a global thread-safe registry, keyed by the
//!   nesting path of enclosing spans (so the exporters can show *where
//!   inside a query* time goes);
//! * **counters** — [`add`] accumulates monotonically (cache hits, nnz,
//!   flops), [`set`] overwrites (gauge-style readings taken at snapshot
//!   time);
//! * **histograms** — [`record`] tallies a value into log₂ buckets backed
//!   by atomics, so worker threads of the rayon-free `with_threads` pool
//!   can record concurrently and snapshots merge without locks.
//!
//! Nothing is measured until [`enable`] flips the global switch: every
//! entry point first checks one relaxed atomic load and returns, which is
//! what keeps the kernels overhead-free when nobody is looking (the
//! `obs-overhead` benchmark in `hetesim-bench` demonstrates < 2 %). With
//! the `obs` cargo feature disabled the same entry points compile to
//! empty inlined functions, removing even that load.
//!
//! Exporters read the registry through [`snapshot`]: a stable JSON
//! document ([`MetricsSnapshot::to_json`]), a human-readable tree
//! ([`MetricsSnapshot::render_tree`]), and Prometheus text exposition
//! ([`MetricsSnapshot::to_prometheus`]).
//!
//! On top of the aggregate registry sits **request-scoped tracing**
//! ([`trace_begin`] and friends): while a [`TraceScope`] is live on a
//! thread, every span opened there is also appended to a per-request
//! event buffer with parent/child nesting, flushed on completion to
//! pluggable [`TraceSink`]s ([`RingSink`], [`JsonlSink`]) under a
//! 1-in-N + always-if-slow sampling policy ([`set_trace_config`]).
//!
//! The third pillar is **profiling**: [`profile_frames`] folds the
//! aggregated span tree into self/total time per stack path (synthesizing
//! still-open ancestors), [`folded_stacks`] emits the `a;b;c <self_us>`
//! text consumed by standard flamegraph tooling, and [`flamegraph_svg`]
//! renders a self-contained SVG. With the default-off `obs-alloc` feature,
//! `CountingAlloc` additionally attributes allocation count/bytes/peak
//! to the innermost open span ([`alloc_sites`], [`alloc_totals`]).
//!
//! # Naming convention
//!
//! Every span, counter and histogram is named `crate.component.op`, e.g.
//! `sparse.csr.matmul`, `core.engine.top_k`,
//! `core.cache.halves.hits`, `graph.io.load`. Span fields recorded
//! through [`span!`] append a fourth segment (`sparse.csr.matmul.nnz`).
//!
//! # Example
//!
//! ```
//! hetesim_obs::reset();
//! hetesim_obs::enable();
//! {
//!     let _outer = hetesim_obs::span!("demo.query.top_k", k = 10usize);
//!     let _inner = hetesim_obs::span("demo.kernel.matmul");
//!     hetesim_obs::add("demo.cache.hits", 1);
//!     hetesim_obs::record("demo.kernel.nnz", 1234);
//! }
//! let snap = hetesim_obs::snapshot();
//! assert!(!snap.is_empty());
//! assert!(snap.to_json().contains("demo.cache.hits"));
//! hetesim_obs::disable();
//! ```

mod flame;
pub mod lockcheck;
mod profile;
mod slo;
mod snapshot;
mod timeseries;
mod trace;

pub use flame::{flame_layout, flamegraph_svg, FlameRect};
pub use profile::{folded_stacks, profile_frames, ProfileFrame};
pub use slo::{
    AlertState, ObjectiveReport, SloReport, SloSpec, FAST_WINDOW_MS, PAGE_BURN, SLOW_WINDOW_MS,
    WARN_BURN,
};
pub use snapshot::{CounterSnapshot, HistogramSnapshot, MetricsSnapshot, SpanSnapshot};
pub use timeseries::{
    fraction_le, merge_samples, quantile_upper, History, HistoryConfig, Sample, Sampler,
    SeriesKind, SeriesPoint, TierSpec,
};
pub use trace::{
    add_trace_sink, clear_trace_sinks, flush_trace, next_trace_id, set_trace_config,
    trace_annotate, trace_begin, trace_event, trace_push_completed, trace_should_capture,
    trace_slow_ns, CaptureDecision, FinishedTrace, JsonlSink, RingSink, TraceEvent, TraceScope,
    TraceSink,
};

/// Whether `name` matches the observability naming grammar: 2–4
/// dot-separated segments, each `[a-z][a-z0-9_]*` (`crate.area.name`,
/// with an optional fourth segment for `span!` field counters, and a
/// 2-segment short form for top-level CLI spans like `cli.query`).
///
/// This is the single source of truth shared by the runtime
/// (`debug_assert!`s at every registration point) and by `hetesim-lint`'s
/// static `obs-names` pass, so the two can never disagree. Defined
/// unconditionally — it must exist even when the `obs` feature is off.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        segments += 1;
        let mut chars = seg.chars();
        let head_ok = matches!(chars.next(), Some('a'..='z'));
        if !head_ok || !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
    }
    (2..=4).contains(&segments)
}

/// A wall-clock stopwatch that only ticks while metrics are enabled —
/// the sanctioned way for numeric kernels to time themselves without
/// calling `Instant::now` directly (which the `determinism` lint pass
/// forbids inside kernel files).
///
/// Disarmed (all zeros) when metrics are disabled at [`start`] time or
/// when the `obs` cargo feature is off, so hot loops pay one relaxed
/// atomic load, not a syscall.
///
/// [`start`]: Stopwatch::start
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    #[cfg(feature = "obs")]
    started: Option<std::time::Instant>,
}

impl Stopwatch {
    /// Starts timing if metrics are enabled; otherwise returns a
    /// disarmed stopwatch whose readings are all zero.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch {
            #[cfg(feature = "obs")]
            started: if is_enabled() {
                Some(std::time::Instant::now())
            } else {
                None
            },
        }
    }

    /// Whether this stopwatch is actually measuring time.
    #[inline]
    pub fn is_armed(&self) -> bool {
        #[cfg(feature = "obs")]
        {
            self.started.is_some()
        }
        #[cfg(not(feature = "obs"))]
        {
            false
        }
    }

    /// Microseconds since [`start`](Stopwatch::start); `0` when disarmed.
    #[inline]
    pub fn elapsed_us(&self) -> u64 {
        #[cfg(feature = "obs")]
        if let Some(t) = self.started {
            return t.elapsed().as_micros() as u64;
        }
        0
    }

    /// Nanoseconds since [`start`](Stopwatch::start); `0` when disarmed.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "obs")]
        if let Some(t) = self.started {
            return t.elapsed().as_nanos() as u64;
        }
        0
    }
}

/// Number of log₂ histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, bucket 64 holds the top of the `u64`
/// range (including `u64::MAX`).
pub const HIST_BUCKETS: usize = 65;

/// Bucket index a value falls into (`0` → 0, `1` → 1, `2..=3` → 2, …,
/// `u64::MAX` → 64).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Statistics of the engine's prefix-product cache, the named replacement
/// for the old `(hits, misses)` tuple.
///
/// Defined here (rather than in `hetesim-core`) so dashboards and the CLI
/// can consume cache health without depending on the engine crate;
/// `hetesim-core` re-exports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build their entry.
    pub misses: u64,
    /// Entries currently resident (half-path products + step prefixes).
    pub entries: u64,
    /// Approximate resident bytes of the cached matrices.
    pub bytes: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {} misses {} ({:.1}% hit rate), {} entries, ~{} bytes",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.bytes
        )
    }
}

/// Process-wide allocation totals from the `obs-alloc` profiler. All
/// zeros when the feature is compiled out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTotals {
    /// Allocations observed since the last reset.
    pub count: u64,
    /// Bytes requested by those allocations (cumulative, not live).
    pub bytes: u64,
    /// Currently-live bytes (allocations minus frees, saturating).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since the last reset.
    pub peak_bytes: u64,
}

/// Allocations attributed to one span name by the `obs-alloc` profiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// Innermost span open when the allocations happened (`(other)` for
    /// attribution-table overflow).
    pub span: String,
    /// Allocations charged to the span since the last reset.
    pub count: u64,
    /// Bytes charged to the span since the last reset.
    pub bytes: u64,
}

#[cfg(feature = "obs-alloc")]
mod alloc;

#[cfg(feature = "obs-alloc")]
pub use alloc::{
    alloc_profiling_available, alloc_reset, alloc_sites, alloc_totals, publish_alloc_gauges,
    CountingAlloc,
};

/// No-op allocation-profiler API installed when `obs-alloc` is off, so
/// call sites compile unconditionally.
#[cfg(not(feature = "obs-alloc"))]
mod alloc_noop {
    use super::{AllocSite, AllocTotals};

    /// Always zeros: the `obs-alloc` feature is off.
    #[inline(always)]
    pub fn alloc_totals() -> AllocTotals {
        AllocTotals::default()
    }

    /// Always empty: the `obs-alloc` feature is off.
    #[inline(always)]
    pub fn alloc_sites() -> Vec<AllocSite> {
        Vec::new()
    }

    /// No-op: the `obs-alloc` feature is off.
    #[inline(always)]
    pub fn alloc_reset() {}

    /// Always `false`: the `obs-alloc` feature is off.
    #[inline(always)]
    pub fn alloc_profiling_available() -> bool {
        false
    }

    /// No-op: the `obs-alloc` feature is off.
    #[inline(always)]
    pub fn publish_alloc_gauges() {}
}

#[cfg(not(feature = "obs-alloc"))]
pub use alloc_noop::{
    alloc_profiling_available, alloc_reset, alloc_sites, alloc_totals, publish_alloc_gauges,
};

#[cfg(feature = "obs")]
mod registry;

#[cfg(feature = "obs")]
pub use registry::{add, disable, enable, is_enabled, record, reset, set, snapshot, SpanGuard};

#[cfg(feature = "obs")]
pub use registry::span;

/// No-op implementations installed when the `obs` feature is off: the
/// instrumented call sites still compile, but every function is an empty
/// `#[inline(always)]` body the optimizer erases.
#[cfg(not(feature = "obs"))]
mod noop {
    use super::MetricsSnapshot;

    /// Disarmed RAII guard (the `obs` feature is off).
    #[derive(Debug)]
    pub struct SpanGuard(());

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard(())
    }

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn add(_name: &'static str, _delta: u64) {}

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn set(_name: &'static str, _value: u64) {}

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn record(_name: &'static str, _value: u64) {}

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn enable() {}

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn disable() {}

    /// Always `false`: the `obs` feature is off.
    #[inline(always)]
    pub fn is_enabled() -> bool {
        false
    }

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn reset() {}

    /// Always empty: the `obs` feature is off.
    pub fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

#[cfg(not(feature = "obs"))]
pub use noop::{add, disable, enable, is_enabled, record, reset, set, snapshot, span, SpanGuard};

/// Opens a span, optionally recording named `u64` fields as counters
/// (`<span name>.<field>`), e.g.
/// `span!("sparse.csr.matmul", rows = m.nrows(), nnz = m.nnz())`.
///
/// Fields are evaluated only when metrics are enabled, so arbitrary
/// expressions are safe in hot paths.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:literal, $($field:ident = $value:expr),+ $(,)?) => {{
        if $crate::is_enabled() {
            $( $crate::add(concat!($name, ".", stringify!($field)), ($value) as u64); )+
        }
        $crate::span($name)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(1 << 63), 64);
        assert_eq!(bucket_of((1 << 63) - 1), 63);
    }

    #[test]
    fn metric_name_grammar() {
        assert!(is_valid_metric_name("cli.query"));
        assert!(is_valid_metric_name("core.engine.top_k"));
        assert!(is_valid_metric_name("core.cache.halves.hits"));
        assert!(is_valid_metric_name("sparse.csr.matmul.nnz2"));
        assert!(!is_valid_metric_name("core"));
        assert!(!is_valid_metric_name("a.b.c.d.e"));
        assert!(!is_valid_metric_name("Core.engine.top_k"));
        assert!(!is_valid_metric_name("core..top_k"));
        assert!(!is_valid_metric_name("core.engine."));
        assert!(!is_valid_metric_name("core.engine.3ms"));
        assert!(!is_valid_metric_name("core.engine.top-k"));
        assert!(!is_valid_metric_name(""));
    }

    #[test]
    fn stopwatch_reads_are_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        if !sw.is_armed() {
            assert_eq!(sw.elapsed_us(), 0);
            assert_eq!(sw.elapsed_ns(), 0);
        }
    }

    #[test]
    fn cache_stats_display_and_rate() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 2,
            bytes: 640,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("hits 3"), "{text}");
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
