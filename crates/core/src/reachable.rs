//! Reachable-probability matrices (Definition 9 of the paper).
//!
//! The reachable-probability matrix of a path `P = A1 A2 … A(l+1)` is the
//! product of the row-stochastic transition matrices of its steps:
//! `PM_P = U_{A1A2} · U_{A2A3} · … · U_{AlA(l+1)}`. Its `(i, j)` entry is
//! the probability that a random walker starting at object `i` of type `A1`
//! and following `P` ends at object `j` of type `A(l+1)` — which is also
//! exactly the PCRW (path-constrained random walk) score, so the baselines
//! crate reuses these kernels.

use crate::decompose::Factor;
use crate::{CoreError, Result};
use hetesim_graph::{Hin, Step};
use hetesim_sparse::{chain, CsrMatrix, SparseVec};

/// Computes the full reachable-probability matrix for a step sequence:
/// the step adjacencies, borrowed from the network, are multiplied in the
/// planner's order with their row normalization fused into the products
/// (bitwise the product of the materialized transition matrices).
pub fn reachable_matrix(hin: &Hin, steps: &[Step]) -> Result<CsrMatrix> {
    let mats: Vec<&CsrMatrix> = steps.iter().map(|&s| hin.step_adjacency(s)).collect();
    let divisors: Vec<Vec<f64>> = mats.iter().map(|m| m.row_sum_divisors()).collect();
    let divs: Vec<&[f64]> = divisors.iter().map(Vec::as_slice).collect();
    Ok(chain::multiply_chain(&mats, Some(&divs), 1)?)
}

/// Propagates a distribution through a chain of factors, each
/// row-normalized on the fly — the online query of Section 4.6, and
/// PCRW's walk. Nothing is copied from the network: each row the walk
/// touches is read through its [`Factor`] and divided by its own row sum
/// (the divisor [`CsrMatrix::row_sum_divisors`] gives; zero-sum rows stay
/// as they are).
///
/// Rows are visited in ascending order into a dense accumulator plus a
/// touched list, which is then sorted and filtered of zeros. Each output
/// entry thus adds its terms in the same order as multiplying the
/// materialized row-stochastic chain would, and the result is bitwise
/// equal to that product.
///
/// # Panics
/// Panics if `start`'s dimension is not the first factor's row count, or
/// a factor's row count is not the previous factor's column count.
pub fn walk(start: SparseVec, factors: &[Factor]) -> SparseVec {
    let width = factors.iter().map(Factor::ncols).max().unwrap_or(0);
    let mut acc = vec![0.0f64; width];
    let mut seen = vec![false; width];
    let mut touched: Vec<u32> = Vec::new();
    let mut buf = (Vec::new(), Vec::new());
    let mut v = start;
    for f in factors {
        assert_eq!(
            v.dim(),
            f.nrows(),
            "walk: vector and factor dimensions differ"
        );
        for (r, x) in v.iter() {
            let (cols, vals) = f.row(r, &mut buf);
            let s: f64 = vals.iter().sum();
            let div = if s != 0.0 { s } else { 1.0 };
            for (&c, &w) in cols.iter().zip(vals) {
                let c = c as usize;
                if !seen[c] {
                    seen[c] = true;
                    touched.push(c as u32);
                }
                acc[c] += x * (w / div);
            }
        }
        touched.sort_unstable();
        let mut indices = Vec::with_capacity(touched.len());
        let mut values = Vec::with_capacity(touched.len());
        for c in touched.drain(..) {
            let c = c as usize;
            if acc[c] != 0.0 {
                indices.push(c as u32);
                values.push(acc[c]);
            }
            acc[c] = 0.0;
            seen[c] = false;
        }
        v = SparseVec::from_parts(f.ncols(), indices, values);
    }
    v
}

/// One-hot propagation from a single object along a step sequence.
/// Returns [`CoreError::NodeOutOfRange`] when `source` is not an object
/// of the sequence's first type.
pub fn propagate_from(hin: &Hin, steps: &[Step], source: u32) -> Result<SparseVec> {
    let factors: Vec<Factor> = steps
        .iter()
        .map(|&s| Factor::Step(hin.step_adjacency(s)))
        .collect();
    let dim = factors
        .first()
        .map_or_else(|| hin.total_nodes(), Factor::nrows);
    if source as usize >= dim {
        return Err(CoreError::NodeOutOfRange {
            endpoint: "source",
            index: source,
            count: dim,
        });
    }
    Ok(walk(SparseVec::unit(dim, source as usize), &factors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_graph::{HinBuilder, MetaPath, Schema};

    fn toy() -> Hin {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let c = s.add_type("conference").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let pb = s.add_relation("published_in", p, c).unwrap();
        let mut b = HinBuilder::new(s);
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P3", 1.0).unwrap();
        b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P2", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P3", "SIGMOD", 1.0).unwrap();
        b.build()
    }

    #[test]
    fn reachable_matrix_rows_are_distributions() {
        let hin = toy();
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let pm = reachable_matrix(&hin, apc.steps()).unwrap();
        assert_eq!(pm.shape(), (2, 2));
        for r in 0..pm.nrows() {
            let s: f64 = pm.row_values(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {r} sums to {s}");
        }
        // Tom reaches KDD with probability 1 along APC.
        let a = hin.schema().type_id("author").unwrap();
        let c = hin.schema().type_id("conference").unwrap();
        let tom = hin.node_id(a, "Tom").unwrap();
        let kdd = hin.node_id(c, "KDD").unwrap();
        assert!((pm.get(tom as usize, kdd as usize) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn propagate_matches_full_matrix() {
        let hin = toy();
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let pm = reachable_matrix(&hin, apc.steps()).unwrap();
        for src in 0..2u32 {
            let v = propagate_from(&hin, apc.steps(), src).unwrap();
            let dense = v.to_dense();
            for (j, &x) in dense.iter().enumerate() {
                assert!((x - pm.get(src as usize, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn backward_path_uses_inverse_relation() {
        let hin = toy();
        let cpa = MetaPath::parse(hin.schema(), "CPA").unwrap();
        let pm = reachable_matrix(&hin, cpa.steps()).unwrap();
        assert_eq!(pm.shape(), (2, 2));
        // SIGMOD publishes only Mary's P3: reaches Mary with prob 1.
        let c = hin.schema().type_id("conference").unwrap();
        let a = hin.schema().type_id("author").unwrap();
        let sigmod = hin.node_id(c, "SIGMOD").unwrap() as usize;
        let mary = hin.node_id(a, "Mary").unwrap() as usize;
        assert!((pm.get(sigmod, mary) - 1.0).abs() < 1e-12);
    }
}
