//! Chains of sparse matrix products with cost-model-driven association.
//!
//! A reachable-probability matrix (Definition 9 of the paper) is the product
//! `U_{A1A2} · U_{A2A3} · … · U_{AlAl+1}` of per-relation transition
//! matrices. Matrix multiplication is associative, and the association order
//! can change the amount of work by orders of magnitude — e.g. for the path
//! `A-P-V-C` on the ACM network, multiplying `(U_PV · U_VC)` first collapses
//! the 12K-venue dimension before the 17K-author dimension touches it.
//!
//! [`multiply_chain`] picks the order with a classic matrix-chain dynamic
//! program whose cost model estimates SpGEMM flops from matrix densities;
//! [`multiply_chain_left_to_right`] is the naive order, kept public as the
//! ablation baseline and test reference.

use crate::parallel::{matmul_parallel_fused, PARALLEL_FLOP_THRESHOLD};
use crate::{CsrMatrix, Result, SparseError};
use std::borrow::Cow;

/// Estimated cost and shape/density of an (intermediate) product.
#[derive(Debug, Clone, Copy)]
struct Estimate {
    rows: usize,
    cols: usize,
    /// Expected fraction of non-zero cells, kept in (0, 1].
    density: f64,
    /// Accumulated estimated flops to materialize this product.
    cost: f64,
}

/// Estimates the cost of multiplying two (estimated) operands and the
/// density of the result under an independence assumption: a cell of the
/// product is zero only if all `k` contributing pairs are zero, so
/// `d_out = 1 - (1 - d_a * d_b)^k`.
fn combine(a: Estimate, b: Estimate) -> Estimate {
    let k = a.cols as f64;
    let pair = (a.density * b.density).min(1.0);
    let density = if pair <= 0.0 {
        0.0
    } else {
        1.0 - (1.0 - pair).powf(k)
    };
    // SpGEMM work ~ sum over a's nnz of matching b-row nnz.
    let flops = (a.rows as f64 * a.cols as f64 * a.density) * (b.cols as f64 * b.density);
    Estimate {
        rows: a.rows,
        cols: b.cols,
        density: density.clamp(1e-12, 1.0),
        cost: a.cost + b.cost + flops,
    }
}

/// The multiplication order chosen by the dynamic program, as a binary tree
/// encoded in "split index" form: `splits[i][j]` is the `k` at which the
/// product of matrices `i..=j` is split into `i..=k` and `k+1..=j`.
#[derive(Debug)]
pub struct ChainPlan {
    splits: Vec<Vec<usize>>,
    /// `mult_flops[i][j]`: estimated flops of the *final* multiply that
    /// produces the `i..=j` product (excluding its sub-products), used by
    /// [`ChainPlan::execute`] to decide serial vs parallel per node
    /// without touching the matrices.
    mult_flops: Vec<Vec<f64>>,
    len: usize,
    /// Estimated flops of the chosen order (for diagnostics/ablation).
    pub estimated_cost: f64,
}

impl ChainPlan {
    /// Plans the association order for a chain of the given shapes and
    /// densities, without touching the matrix data.
    pub fn plan(shapes: &[(usize, usize)], densities: &[f64]) -> Result<ChainPlan> {
        let n = shapes.len();
        if n == 0 {
            return Err(SparseError::EmptyChain);
        }
        for w in shapes.windows(2) {
            if w[0].1 != w[1].0 {
                return Err(SparseError::DimensionMismatch {
                    op: "chain plan",
                    left: w[0],
                    right: w[1],
                });
            }
        }
        let mut best: Vec<Vec<Option<Estimate>>> = vec![vec![None; n]; n];
        let mut splits = vec![vec![0usize; n]; n];
        let mut mult_flops = vec![vec![0f64; n]; n];
        for (i, (&(r, c), &d)) in shapes.iter().zip(densities).enumerate() {
            best[i][i] = Some(Estimate {
                rows: r,
                cols: c,
                density: d.clamp(1e-12, 1.0),
                cost: 0.0,
            });
        }
        for span in 1..n {
            for i in 0..(n - span) {
                let j = i + span;
                let mut chosen: Option<(Estimate, usize)> = None;
                for k in i..j {
                    let left = best[i][k].expect("subchain planned");
                    let right = best[k + 1][j].expect("subchain planned");
                    let e = combine(left, right);
                    if chosen.map_or(true, |(c, _)| e.cost < c.cost) {
                        chosen = Some((e, k));
                    }
                }
                let (e, k) = chosen.expect("non-empty span");
                let left = best[i][k].expect("subchain planned");
                let right = best[k + 1][j].expect("subchain planned");
                mult_flops[i][j] = e.cost - left.cost - right.cost;
                best[i][j] = Some(e);
                splits[i][j] = k;
            }
        }
        let estimated_cost = best[0][n - 1].expect("root planned").cost;
        Ok(ChainPlan {
            splits,
            mult_flops,
            len: n,
            estimated_cost,
        })
    }

    /// Executes the plan over the given matrices (which must match the
    /// shapes the plan was made from).
    ///
    /// With `divisors`, each matrix's rows are divided by its divisor
    /// slice, the division fused into the one product that consumes the
    /// matrix: with [`CsrMatrix::row_sum_divisors`] this is the
    /// row-stochastic chain of Definition 9, bitwise equal to normalizing
    /// every matrix first, because each stored value is divided once by
    /// the divisor `row_normalized` uses and the order (planned from
    /// shapes and densities, which normalization keeps) is the same.
    ///
    /// Products whose estimated flops reach the parallel threshold use
    /// `threads` workers. The order is the plan's at every thread count
    /// and the parallel kernel is bit-identical to the serial one, so the
    /// result does not depend on `threads`.
    pub fn execute(
        &self,
        mats: &[&CsrMatrix],
        divisors: Option<&[&[f64]]>,
        threads: usize,
    ) -> Result<CsrMatrix> {
        assert_eq!(mats.len(), self.len, "plan arity mismatch");
        if let Some(divisors) = divisors {
            assert_eq!(divisors.len(), self.len, "one divisor slice per matrix");
            for (m, d) in mats.iter().zip(divisors) {
                assert_eq!(d.len(), m.nrows(), "divisor length mismatch");
            }
        }
        // A chain of one matrix has no product to fuse its divisors into;
        // they are applied by division (bitwise `row_normalized`).
        Ok(
            match self.operand(mats, divisors, 0, self.len - 1, threads.max(1))? {
                (m, Some(div)) => m.rows_divided(div),
                (m, None) => m.into_owned(),
            },
        )
    }

    /// The `i..=j` product and the divisors still to be fused into the
    /// product that consumes it. In the plan's binary tree every leaf is
    /// consumed by exactly one product, so a leaf is borrowed with its
    /// divisors pending, and a product carries none.
    fn operand<'m>(
        &self,
        mats: &[&'m CsrMatrix],
        divisors: Option<&[&'m [f64]]>,
        i: usize,
        j: usize,
        threads: usize,
    ) -> Result<(Cow<'m, CsrMatrix>, Option<&'m [f64]>)> {
        if i == j {
            return Ok((Cow::Borrowed(mats[i]), divisors.map(|d| d[i])));
        }
        let k = self.splits[i][j];
        let (lm, ld) = self.operand(mats, divisors, i, k, threads)?;
        let (rm, rd) = self.operand(mats, divisors, k + 1, j, threads)?;
        // The planner's flop estimate gates the parallel kernel so tiny
        // products skip even the exact flop count of its symbolic pass;
        // the kernel re-checks with exact counts and may still run
        // serially, so a high estimate can never force a slow parallel run.
        let threads = if self.mult_flops[i][j] >= PARALLEL_FLOP_THRESHOLD as f64 {
            threads
        } else {
            1
        };
        let product = matmul_parallel_fused(&lm, &rm, ld, rd, threads)?;
        Ok((Cow::Owned(product), None))
    }
}

/// Multiplies a chain of matrices in the cost-model-optimal order, each
/// matrix's rows divided by its `divisors` slice if given, with `threads`
/// workers on the products big enough to amortize them (see
/// [`ChainPlan::execute`]). The result is the same at every thread count.
pub fn multiply_chain(
    mats: &[&CsrMatrix],
    divisors: Option<&[&[f64]]>,
    threads: usize,
) -> Result<CsrMatrix> {
    let _span = hetesim_obs::span!(
        "sparse.chain.multiply",
        len = mats.len(),
        total_nnz = mats.iter().map(|m| m.nnz()).sum::<usize>(),
        threads = threads,
    );
    let shapes: Vec<(usize, usize)> = mats.iter().map(|m| m.shape()).collect();
    let densities: Vec<f64> = mats.iter().map(|m| m.density()).collect();
    let plan = ChainPlan::plan(&shapes, &densities)?;
    plan.execute(mats, divisors, threads)
}

/// Multiplies a chain strictly left-to-right (ablation baseline).
pub fn multiply_chain_left_to_right(mats: &[&CsrMatrix]) -> Result<CsrMatrix> {
    let mut iter = mats.iter();
    let first = iter.next().ok_or(SparseError::EmptyChain)?;
    let mut acc = (*first).clone();
    for m in iter {
        acc = acc.matmul(m)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn random_like(nrows: usize, ncols: usize, step: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut x = 1usize;
        for r in 0..nrows {
            for _ in 0..2 {
                x = (x * 1103515245 + 12345 + step) % 2147483648;
                let c = x % ncols;
                coo.push(r, c, ((x % 7) + 1) as f64);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn single_matrix_chain() {
        let a = random_like(4, 5, 1);
        assert_eq!(multiply_chain(&[&a], None, 1).unwrap(), a);
        assert_eq!(multiply_chain_left_to_right(&[&a]).unwrap(), a);
    }

    #[test]
    fn empty_chain_is_error() {
        assert!(matches!(
            multiply_chain(&[], None, 1),
            Err(SparseError::EmptyChain)
        ));
        assert!(matches!(
            multiply_chain_left_to_right(&[]),
            Err(SparseError::EmptyChain)
        ));
    }

    #[test]
    fn mismatched_chain_is_error() {
        let a = random_like(3, 4, 1);
        let b = random_like(5, 2, 2);
        assert!(multiply_chain(&[&a, &b], None, 1).is_err());
    }

    #[test]
    fn optimal_matches_left_to_right() {
        let a = random_like(6, 30, 1);
        let b = random_like(30, 4, 2);
        let c = random_like(4, 25, 3);
        let d = random_like(25, 8, 4);
        let opt = multiply_chain(&[&a, &b, &c, &d], None, 1).unwrap();
        let naive = multiply_chain_left_to_right(&[&a, &b, &c, &d]).unwrap();
        assert!(opt.max_abs_diff(&naive).unwrap() < 1e-9);
    }

    #[test]
    fn threaded_chain_matches_serial_exactly() {
        let a = random_like(600, 400, 1);
        let b = random_like(400, 500, 2);
        let c = random_like(500, 300, 3);
        let serial = multiply_chain(&[&a, &b, &c], None, 1).unwrap();
        for threads in [1, 2, 4, 7] {
            let par = multiply_chain(&[&a, &b, &c], None, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn fused_chain_matches_normalize_then_multiply() {
        let a = random_like(600, 400, 1);
        let b = random_like(400, 500, 2);
        let c = random_like(500, 300, 3);
        let mats = [&a, &b, &c];
        let normalized: Vec<CsrMatrix> = mats.iter().map(|m| m.row_normalized()).collect();
        let norm_refs: Vec<&CsrMatrix> = normalized.iter().collect();
        let divisors: Vec<Vec<f64>> = mats.iter().map(|m| m.row_sum_divisors()).collect();
        let div_refs: Vec<&[f64]> = divisors.iter().map(|d| d.as_slice()).collect();
        let expect = multiply_chain(&norm_refs, None, 1).unwrap();
        for threads in [1, 2, 4] {
            let fused = multiply_chain(&mats, Some(&div_refs), threads).unwrap();
            assert_eq!(fused, expect, "threads={threads}");
        }
    }

    #[test]
    fn fused_single_matrix_chain_is_row_normalized() {
        // Includes an empty row so the sentinel divisor path is covered.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(0, 2, 6.0);
        coo.push(2, 1, 5.0);
        let a = coo.to_csr();
        let div = a.row_sum_divisors();
        let fused = multiply_chain(&[&a], Some(&[&div]), 4).unwrap();
        assert_eq!(fused, a.row_normalized());
        assert_eq!(multiply_chain(&[&a], None, 4).unwrap(), a);
    }

    #[test]
    fn plan_prefers_cheap_inner_product() {
        // (10000x10)(10x10000)(10000x1): right-assoc is vastly cheaper.
        let shapes = [(10_000, 10), (10, 10_000), (10_000, 1)];
        let dens = [0.01, 0.01, 0.01];
        let plan = ChainPlan::plan(&shapes, &dens).unwrap();
        // The root split should isolate the first matrix so that
        // (B*C) happens first.
        assert_eq!(plan.splits[0][2], 0);
    }

    #[test]
    fn plan_cost_is_finite_positive() {
        let shapes = [(5, 5), (5, 5), (5, 5)];
        let dens = [0.5, 0.5, 0.5];
        let plan = ChainPlan::plan(&shapes, &dens).unwrap();
        assert!(plan.estimated_cost.is_finite());
        assert!(plan.estimated_cost > 0.0);
    }
}
