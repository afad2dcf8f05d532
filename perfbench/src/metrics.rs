//! The metrics every workload reports, and the counters they are read from.
//!
//! Every workload fills in every metric, so each run prints the same set;
//! a layer a workload does not use reads `0` there. The `BENCHMARK.json`
//! lists must name exactly these metrics (a test checks it).

use crate::report::Report;
use hetesim_obs::MetricsSnapshot;

/// End-to-end metrics, measured with tracing off. The latency and
/// throughput metrics are the workload's own operation: see `README.md`.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub success_ratio: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
    pub throughput_per_s: f64,
    pub second_p50_ms: f64,
    pub second_tail_ms: f64,
}

impl EndToEnd {
    pub fn record(&self, r: &mut Report) {
        r.metric("setup_s", self.setup_s, "s");
        r.metric("peak_rss_mb", self.peak_rss_mb, "MB");
        r.metric("success_ratio", self.success_ratio, "ratio");
        r.metric("latency_p50_ms", self.latency_p50_ms, "ms");
        r.metric("latency_tail_ms", self.latency_tail_ms, "ms");
        r.metric("throughput_per_s", self.throughput_per_s, "1/s");
        r.metric("second_p50_ms", self.second_p50_ms, "ms");
        r.metric("second_tail_ms", self.second_tail_ms, "ms");
    }
}

/// Per-layer metrics, from the traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub serve_client_latency_us_p50: f64,
    pub serve_unattributed_us_p50: f64,
    pub serve_unattributed_us_p95: f64,
    pub serve_queue_wait_us_p95: f64,
    pub serve_parse_us_p95: f64,
    pub serve_handle_us_p95: f64,
    pub serve_render_us_p95: f64,
    pub serve_write_us_p95: f64,
    pub serve_worker_busy_ratio: f64,
    pub serve_connect_us_p50: f64,
    pub serve_shed: u64,
    pub serve_timeouts: u64,
    pub cache_hit_ratio: f64,
    pub cache_resident_mb: f64,
    pub build_ms: f64,
    pub normalize_self_ms: f64,
    pub chain_self_ms: f64,
    pub cosine_self_ms: f64,
    pub topk_self_us_p50: f64,
    pub topk_self_us_p95: f64,
    pub snapshot_read_ms: f64,
    pub snapshot_install_ms: f64,
    pub sparse: SparseCounts,
    pub sparse_worker_busy_ratio: f64,
    pub sparse_imbalance: f64,
    pub sparse_self_ms: f64,
    pub graph_load_ms: f64,
    pub trace_overhead_ratio: f64,
    pub gen_late_p99_ms: f64,
}

impl Layers {
    pub fn record(&self, r: &mut Report) {
        r.metric(
            "serve.client.latency_us_p50",
            self.serve_client_latency_us_p50,
            "us",
        );
        r.metric(
            "serve.unattributed_us_p50",
            self.serve_unattributed_us_p50,
            "us",
        );
        r.metric(
            "serve.unattributed_us_p95",
            self.serve_unattributed_us_p95,
            "us",
        );
        r.metric(
            "serve.server.queue_wait_us_p95",
            self.serve_queue_wait_us_p95,
            "us",
        );
        r.metric("serve.server.parse_us_p95", self.serve_parse_us_p95, "us");
        r.metric("serve.server.handle_us_p95", self.serve_handle_us_p95, "us");
        r.metric("serve.app.render_us_p95", self.serve_render_us_p95, "us");
        r.metric("serve.server.write_us_p95", self.serve_write_us_p95, "us");
        r.metric(
            "serve.server.worker_busy_ratio",
            self.serve_worker_busy_ratio,
            "ratio",
        );
        r.metric(
            "serve.client.connect_us_p50",
            self.serve_connect_us_p50,
            "us",
        );
        r.metric("serve.shed", self.serve_shed as f64, "count");
        r.metric("serve.timeouts", self.serve_timeouts as f64, "count");
        r.metric("core.cache.hit_ratio", self.cache_hit_ratio, "ratio");
        r.metric("core.cache.resident_mb", self.cache_resident_mb, "MB");
        r.metric("core.engine.build_ms", self.build_ms, "ms");
        r.metric(
            "core.engine.normalize_self_ms",
            self.normalize_self_ms,
            "ms",
        );
        r.metric("core.engine.chain_self_ms", self.chain_self_ms, "ms");
        r.metric("core.engine.cosine_self_ms", self.cosine_self_ms, "ms");
        r.metric("core.engine.topk_self_us_p50", self.topk_self_us_p50, "us");
        r.metric("core.engine.topk_self_us_p95", self.topk_self_us_p95, "us");
        r.metric("core.snapshot.read_ms", self.snapshot_read_ms, "ms");
        r.metric("core.snapshot.install_ms", self.snapshot_install_ms, "ms");
        r.metric("sparse.flops", self.sparse.flops as f64, "count");
        r.metric("sparse.out_nnz", self.sparse.out_nnz as f64, "count");
        r.metric("sparse.nnz_per_flop", self.sparse.nnz_per_flop(), "ratio");
        r.metric(
            "sparse.dense_rows_ratio",
            self.sparse.dense_rows_ratio(),
            "ratio",
        );
        r.metric(
            "sparse.worker_busy_ratio",
            self.sparse_worker_busy_ratio,
            "ratio",
        );
        r.metric("sparse.imbalance", self.sparse_imbalance, "ratio");
        r.metric("sparse.self_ms", self.sparse_self_ms, "ms");
        r.metric("graph.io.load_ms", self.graph_load_ms, "ms");
        r.metric(
            "obs.trace_overhead_ratio",
            self.trace_overhead_ratio,
            "ratio",
        );
        r.metric("gen.late_p99_ms", self.gen_late_p99_ms, "ms");
    }
}

/// SpGEMM work, summed over the serial and the two-phase parallel kernels.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SparseCounts {
    pub flops: u64,
    pub out_nnz: u64,
    pub dense_rows: u64,
    pub sparse_rows: u64,
}

impl SparseCounts {
    /// Reads the program's own `sparse.*` counters (metrics must be on).
    pub fn read(snap: &MetricsSnapshot) -> SparseCounts {
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        let serial_flops = snap
            .histogram("sparse.csr.matmul.flops")
            .map_or(0, |h| h.sum as u64);
        SparseCounts {
            flops: serial_flops + c("sparse.parallel.matmul.flops"),
            out_nnz: c("sparse.csr.matmul.out_nnz") + c("sparse.parallel.matmul.out_nnz"),
            dense_rows: c("sparse.csr.matmul.dense_rows") + c("sparse.parallel.dense_rows"),
            sparse_rows: c("sparse.csr.matmul.sparse_rows") + c("sparse.parallel.sparse_rows"),
        }
    }

    pub fn now() -> SparseCounts {
        SparseCounts::read(&hetesim_obs::snapshot())
    }

    /// The work done between `earlier` and `self`.
    pub fn since(&self, earlier: &SparseCounts) -> SparseCounts {
        SparseCounts {
            flops: self.flops - earlier.flops,
            out_nnz: self.out_nnz - earlier.out_nnz,
            dense_rows: self.dense_rows - earlier.dense_rows,
            sparse_rows: self.sparse_rows - earlier.sparse_rows,
        }
    }

    pub fn nnz_per_flop(&self) -> f64 {
        self.out_nnz as f64 / self.flops as f64
    }

    pub fn dense_rows_ratio(&self) -> f64 {
        self.dense_rows as f64 / (self.dense_rows + self.sparse_rows) as f64
    }
}

/// Worker utilization of the parallel SpGEMM pool, accumulated from the
/// record `take_pool_stats` keeps of the last parallel product of a call.
#[derive(Debug, Default)]
pub struct PoolUse {
    busy_us: u64,
    total_us: u64,
    imbalance: Vec<f64>,
}

impl PoolUse {
    /// Drops any record left by earlier work.
    pub fn reset_record() {
        let _ = hetesim_sparse::parallel::take_pool_stats();
    }

    /// Adds the record of the call that just finished, if it ran one.
    pub fn take(&mut self) {
        let Some(s) = hetesim_sparse::parallel::take_pool_stats() else {
            return;
        };
        let busy: u64 = s.symbolic_busy_us.iter().chain(&s.numeric_busy_us).sum();
        let idle: u64 = s.symbolic_idle_us.iter().chain(&s.numeric_idle_us).sum();
        self.busy_us += busy;
        self.total_us += busy + idle;
        let n = s.numeric_busy_us.len() as f64;
        let sum: u64 = s.numeric_busy_us.iter().sum();
        if let Some(&max) = s.numeric_busy_us.iter().max() {
            if sum > 0 {
                self.imbalance.push(max as f64 / (sum as f64 / n));
            }
        }
    }

    pub fn busy_ratio(&self) -> f64 {
        self.busy_us as f64 / self.total_us as f64
    }

    /// Mean over the recorded products of max/mean numeric busy time.
    pub fn imbalance(&self) -> f64 {
        self.imbalance.iter().sum::<f64>() / self.imbalance.len() as f64
    }
}

/// Share of the path-cache lookups between two readings that hit.
pub fn hit_ratio(before: &hetesim_core::CacheStats, after: &hetesim_core::CacheStats) -> f64 {
    let hits = after.hits - before.hits;
    hits as f64 / (hits + after.misses - before.misses) as f64
}

/// Sum of one histogram's recorded values in a snapshot.
pub fn histogram_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.histogram(name).map_or(0, |h| h.sum as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names(record: impl Fn(&mut Report)) -> Vec<String> {
        let mut r = Report::default();
        record(&mut r);
        r.names()
    }

    /// `BENCHMARK.json` names exactly the metrics the workloads record.
    #[test]
    fn benchmark_json_lists_the_recorded_metrics() {
        let spec = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Value::arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            names(|r| EndToEnd::default().record(r))
        );
        assert_eq!(listed("per_layer"), names(|r| Layers::default().record(r)));
        assert_eq!(
            listed("workloads"),
            crate::WORKLOADS
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
        );
    }
}
