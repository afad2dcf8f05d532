//! Inputs made from the seed: the paper-scale DBLP network as TSV, the
//! snapshot `serve_warm` starts from, and the expected answers the served
//! requests are checked against.
//!
//! `perfbench prepare` writes them in a process of its own, so that
//! generating the network shows in no measured process's memory.

use crate::rng::Rng;
use hetesim_core::snapshot::write_snapshot;
use hetesim_core::HeteSimEngine;
use hetesim_graph::{Hin, MetaPath};
use std::fmt::Write as _;
use std::path::Path;

/// The warm paths embedded in the snapshot and served by `serve_warm`.
pub const SERVE_PATHS: [&str; 5] = ["APA", "APC", "CPA", "APCPA", "CPAPC"];

/// Most popular sources per served path that answers are kept for.
const SERVE_POOL: usize = 400;

/// `k` of every top-k query.
pub const K: usize = 10;

pub fn net_dir(data: &Path) -> std::path::PathBuf {
    data.join("net")
}

pub fn snapshot_file(data: &Path) -> std::path::PathBuf {
    data.join("net.snap")
}

fn expected_file(data: &Path) -> std::path::PathBuf {
    data.join("expected.tsv")
}

pub fn parse_path(hin: &Hin, spec: &str) -> Result<MetaPath, String> {
    MetaPath::parse(hin.schema(), spec).map_err(|e| format!("path {spec}: {e}"))
}

/// Nodes of a path's source type, most connected along its first step
/// first (ties by index). Zipf ranks index this order, so popular
/// requests ask about well-connected objects, as they do in practice.
pub fn by_degree(hin: &Hin, path: &MetaPath) -> Vec<u32> {
    let adj = hin.step_adjacency(path.steps()[0]);
    let mut nodes: Vec<u32> = (0..hin.node_count(path.source_type()) as u32).collect();
    nodes.sort_by_key(|&n| (std::cmp::Reverse(adj.row_nnz(n as usize)), n));
    nodes
}

/// Writes every input for `seed` into `out`.
pub fn prepare(seed: u64, out: &Path) -> Result<(), String> {
    let config = hetesim_data::dblp::DblpConfig::paper_scale(seed);
    let dataset = hetesim_data::dblp::generate(&config);
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    hetesim_graph::io::save(&dataset.hin, &net_dir(out)).map_err(|e| e.to_string())?;
    drop(dataset);

    // Answers come from a TSV-started engine, so matching them also shows
    // that the snapshot-started server answers as a TSV-started one does.
    let hin = hetesim_graph::io::load(&net_dir(out)).map_err(|e| e.to_string())?;
    let engine = HeteSimEngine::new(&hin);
    let mut warm = Vec::new();
    for spec in SERVE_PATHS {
        let path = parse_path(&hin, spec)?;
        let halves = engine
            .materialized_halves(&path)
            .map_err(|e| e.to_string())?;
        warm.push((path, halves));
    }
    write_snapshot(&snapshot_file(out), &hin, &warm).map_err(|e| e.to_string())?;

    let mut rng = Rng::new(seed, 0x5e7e);
    let mut text = String::new();
    for (spec, (path, _)) in SERVE_PATHS.iter().zip(&warm) {
        let display = path.display(hin.schema());
        let (src_ty, dst_ty) = (path.source_type(), path.target_type());
        for &a in by_degree(&hin, path).iter().take(SERVE_POOL) {
            let ranked = engine.top_k(path, a, K).map_err(|e| e.to_string())?;
            let b = if ranked.is_empty() {
                rng.below(hin.node_count(dst_ty)) as u32
            } else {
                ranked[rng.below(ranked.len())].index
            };
            let score = engine.pair(path, a, b).map_err(|e| e.to_string())?;
            let raw = engine
                .pair_unnormalized(path, a, b)
                .map_err(|e| e.to_string())?;
            let results: Vec<String> = ranked
                .iter()
                .map(|r| {
                    format!(
                        "{}:{:016x}:{}",
                        r.index,
                        r.score.to_bits(),
                        hin.node_name(dst_ty, r.index)
                    )
                })
                .collect();
            let _ = writeln!(
                text,
                "{spec}\t{display}\t{a}\t{}\t{b}\t{}\t{:016x}\t{:016x}\t{}",
                hin.node_name(src_ty, a),
                hin.node_name(dst_ty, b),
                score.to_bits(),
                raw.to_bits(),
                results.join(",")
            );
        }
    }
    std::fs::write(expected_file(out), text).map_err(|e| e.to_string())
}

/// The expected answers about one source along one served path.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub spec: String,
    pub display: String,
    pub source: u32,
    pub source_name: String,
    pub target: u32,
    pub target_name: String,
    pub pair_bits: u64,
    pub unnormalized_bits: u64,
    /// `(index, name, score bits)` of the top-k answer, best first.
    pub ranked: Vec<(u32, String, u64)>,
}

/// Reads the answers [`prepare`] wrote, grouped per served path in
/// [`SERVE_PATHS`] order and, within a path, most popular source first.
pub fn read_expected(data: &Path) -> Result<Vec<Vec<Expected>>, String> {
    let text = std::fs::read_to_string(expected_file(data)).map_err(|e| e.to_string())?;
    let mut pools: Vec<Vec<Expected>> = vec![Vec::new(); SERVE_PATHS.len()];
    for line in text.lines() {
        let e = parse_expected(line).ok_or_else(|| format!("bad expected line {line:?}"))?;
        let slot = SERVE_PATHS
            .iter()
            .position(|p| *p == e.spec)
            .ok_or_else(|| format!("unknown path in {line:?}"))?;
        pools[slot].push(e);
    }
    if pools.iter().any(Vec::is_empty) {
        return Err("a served path has no expected answers".to_string());
    }
    Ok(pools)
}

fn parse_expected(line: &str) -> Option<Expected> {
    let f: Vec<&str> = line.split('\t').collect();
    let [spec, display, a, an, b, bn, pair, raw, ranked] = f.as_slice() else {
        return None;
    };
    let hex = |s: &str| u64::from_str_radix(s, 16).ok();
    let mut list = Vec::new();
    for item in ranked.split(',').filter(|s| !s.is_empty()) {
        let mut parts = item.splitn(3, ':');
        let (idx, bits, name) = (parts.next()?, parts.next()?, parts.next()?);
        list.push((idx.parse().ok()?, name.to_string(), hex(bits)?));
    }
    Some(Expected {
        spec: spec.to_string(),
        display: display.to_string(),
        source: a.parse().ok()?,
        source_name: an.to_string(),
        target: b.parse().ok()?,
        target_name: bn.to_string(),
        pair_bits: hex(pair)?,
        unnormalized_bits: hex(raw)?,
        ranked: list,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_lines_round_trip() {
        let line = "APA\tA-P-A\t3\tauthor_00003\t7\tauthor_00007\t3fe0000000000000\t\
                    3fb0000000000000\t7:3fe0000000000000:author_00007,9:3fd0000000000000:author_00009";
        let e = parse_expected(line).unwrap();
        assert_eq!((e.source, e.target, e.pair_bits), (3, 7, 0.5f64.to_bits()));
        assert_eq!(
            e.ranked[1],
            (9, "author_00009".to_string(), 0.25f64.to_bits())
        );
        assert!(parse_expected("APA\tA-P-A\t3").is_none());
        let empty = "CPA\tC-P-A\t0\tKDD\t5\tauthor_00005\t0\t0\t";
        assert!(parse_expected(empty).unwrap().ranked.is_empty());
    }
}
