use crate::kernel;
use crate::scratch::{self, Scratch};
use crate::{CooMatrix, DenseMatrix, Result, SparseError, SparseVec};

/// Checks that `nnz` stored entries are addressable by the `u32`
/// row-pointer array, returning the count as `u32`.
///
/// Every CSR constructor funnels through this check: `indptr` holds
/// offsets into `indices`/`values`, so the entry count itself must fit in
/// `u32`. Matrices at HeteSim scale are far below the limit (the paper's
/// densest product holds ~4.8M entries), but a pathological product could
/// cross it, and a silent wrap would corrupt every row boundary at once.
pub fn check_nnz(nnz: usize) -> Result<u32> {
    if nnz <= u32::MAX as usize {
        Ok(nnz as u32)
    } else {
        Err(SparseError::NnzOverflow { nnz })
    }
}

/// Compressed sparse row matrix with `f64` values, `u32` column indices
/// and `u32` row pointers.
///
/// This is the workhorse representation: every adjacency matrix, transition
/// probability matrix and reachable-probability matrix in the workspace is a
/// `CsrMatrix`. Within each row, column indices are strictly increasing and
/// values are finite; `from_raw` enforces the structural invariants in debug
/// builds. Row pointers are `u32` (guarded by [`check_nnz`]): the indptr
/// array is read once per row by every kernel, and halving its width
/// measurably cuts pointer traffic in the SpGEMM inner loops.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    /// Panics (in all builds) if the arrays are structurally inconsistent:
    /// `indptr` must have `nrows + 1` monotone entries ending at
    /// `indices.len()`, and `indices`/`values` must have equal length. Debug
    /// builds additionally verify per-row column ordering and bounds.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<u32>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1, "indptr length must be nrows + 1");
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert!(
            check_nnz(indices.len()).is_ok(),
            "nnz {} exceeds the u32 index space",
            indices.len()
        );
        assert_eq!(
            indptr.last().copied(),
            Some(indices.len() as u32),
            "indptr end mismatch"
        );
        debug_assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr not monotone"
        );
        debug_assert!(
            (0..nrows).all(|r| {
                let s = &indices[indptr[r] as usize..indptr[r + 1] as usize];
                s.windows(2).all(|w| w[0] < w[1]) && s.iter().all(|&c| (c as usize) < ncols)
            }),
            "row indices not strictly increasing / out of bounds"
        );
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// [`CsrMatrix::from_raw`] accepting a `usize` row-pointer array, for
    /// callers that build offsets with native arithmetic.
    ///
    /// # Panics
    /// Panics if any offset exceeds the `u32` index space (in addition to
    /// the structural checks of `from_raw`). Fallible callers should use
    /// [`CsrMatrix::try_from_raw_usize`] instead.
    pub fn from_raw_usize(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        let narrow: Vec<u32> = indptr
            .iter()
            .map(|&p| {
                assert!(
                    p <= u32::MAX as usize,
                    "indptr offset {p} exceeds the u32 index space"
                );
                p as u32
            })
            .collect();
        CsrMatrix::from_raw(nrows, ncols, narrow, indices, values)
    }

    /// Fallible [`CsrMatrix::from_raw_usize`]: returns
    /// [`SparseError::NnzOverflow`] when any row-pointer offset does not
    /// fit in `u32`, instead of panicking. Structural inconsistencies
    /// still panic, as in `from_raw` — those are caller logic errors, not
    /// data-dependent conditions.
    pub fn try_from_raw_usize(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        check_nnz(indices.len())?;
        let mut narrow = Vec::with_capacity(indptr.len());
        for &p in &indptr {
            narrow.push(check_nnz(p)?);
        }
        Ok(CsrMatrix::from_raw(nrows, ncols, narrow, indices, values))
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix::from_raw(
            n,
            n,
            (0..=n).map(|i| i as u32).collect(),
            (0..n as u32).collect(),
            vec![1.0; n],
        )
    }

    /// A matrix of the given shape with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix::from_raw(nrows, ncols, vec![0u32; nrows + 1], Vec::new(), Vec::new())
    }

    /// Builds from a dense row-major slice, storing only non-zero entries.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut coo = CooMatrix::new(dense.nrows(), dense.ncols());
        for r in 0..dense.nrows() {
            for c in 0..dense.ncols() {
                let v = dense.get(r, c);
                if v != 0.0 {
                    coo.push(r, c, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Shape as `(nrows, ncols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Approximate heap residency of the CSR arrays in bytes.
    pub fn mem_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<u32>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Fraction of cells that are stored (`nnz / (nrows * ncols)`).
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
        }
    }

    /// Raw row-pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[u32] {
        &self.indptr
    }

    /// Raw column-index array (`nnz` entries, row-major).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Raw value array, parallel to [`CsrMatrix::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices of row `r`.
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r] as usize..self.indptr[r + 1] as usize]
    }

    /// Values of row `r`, parallel to [`CsrMatrix::row_indices`].
    pub fn row_values(&self, r: usize) -> &[f64] {
        &self.values[self.indptr[r] as usize..self.indptr[r + 1] as usize]
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.indptr[r + 1] - self.indptr[r]) as usize
    }

    /// Iterator over `(row, col, value)` of all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            self.row_indices(r)
                .iter()
                .zip(self.row_values(r))
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Value at `(r, c)`, `0.0` if not stored. Binary-searches the row.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        match self.row_indices(r).binary_search(&(c as u32)) {
            Ok(pos) => self.row_values(r)[pos],
            Err(_) => 0.0,
        }
    }

    /// Extracts row `r` as a sparse vector of dimension `ncols`.
    pub fn row(&self, r: usize) -> SparseVec {
        SparseVec::from_parts(
            self.ncols,
            self.row_indices(r).to_vec(),
            self.row_values(r).to_vec(),
        )
    }

    /// Transposed copy (CSC of `self` reinterpreted as CSR).
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let indptr: Vec<u32> = counts.iter().map(|&p| p as u32).collect();
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0f64; nnz];
        let mut cursor = counts;
        for r in 0..self.nrows {
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                let dst = cursor[c as usize];
                indices[dst] = r as u32;
                values[dst] = v;
                cursor[c as usize] += 1;
            }
        }
        // Rows of the transpose are filled in increasing source-row order,
        // so per-row indices are already sorted.
        CsrMatrix::from_raw(self.ncols, self.nrows, indptr, indices, values)
    }

    /// Sparse general matrix-matrix product `self * rhs`.
    ///
    /// Single-pass adaptive Gustavson: each output row is routed to a
    /// dense- or sparse-accumulator kernel by its flop count (the cheap
    /// upper bound on its nnz — see
    /// [`parallel::dense_accumulator_selected`](crate::parallel::dense_accumulator_selected)),
    /// computed into a reused row buffer, and appended. Rows with exactly
    /// one left-hand entry skip both accumulators: the output row is a
    /// scaled copy of one `rhs` row. All three kernels emit identical
    /// bits for a row, so the routing basis cannot change the result: the
    /// output is bit-identical to the parallel two-phase kernel, which
    /// routes by the symbolic phase's *exact* counts.
    /// Scratch buffers come from a pooled arena and are reused across
    /// products. Returns [`SparseError::NnzOverflow`] if the product would
    /// hold 2³² or more entries.
    ///
    /// ```
    /// use hetesim_sparse::CsrMatrix;
    /// let i = CsrMatrix::identity(3);
    /// let twice = i.scaled(2.0);
    /// assert_eq!(i.matmul(&twice).unwrap(), twice);
    /// assert!(i.matmul(&CsrMatrix::identity(4)).is_err()); // shape checked
    /// ```
    pub fn matmul(&self, rhs: &CsrMatrix) -> Result<CsrMatrix> {
        self.matmul_fused(rhs, None, None)
    }

    /// The serial SpGEMM kernel with optional fused row normalization:
    /// computes `rowdiv(self, lhs_div) * rowdiv(rhs, rhs_div)` where
    /// `rowdiv` divides each row by its divisor (`None` = no scaling),
    /// without materializing the normalized operands. Each left value is
    /// divided once on load in the outer loop; `rhs` values are
    /// pre-divided once into pooled scratch. The divisions are exactly
    /// those `row_normalized` performs, so the fused product is bitwise
    /// equal to normalize-then-multiply.
    pub(crate) fn matmul_fused(
        &self,
        rhs: &CsrMatrix,
        lhs_div: Option<&[f64]>,
        rhs_div: Option<&[f64]>,
    ) -> Result<CsrMatrix> {
        if self.ncols != rhs.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "spgemm",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let _span = hetesim_obs::span!(
            "sparse.csr.matmul",
            rows = self.nrows,
            lhs_nnz = self.nnz(),
            rhs_nnz = rhs.nnz(),
        );
        // Exact multiply-add count of Gustavson's algorithm, derivable
        // from the inputs without touching the hot loop. Doubles as the
        // output-size upper bound the reservation below uses.
        let total_flops: usize = self.indices.iter().map(|&k| rhs.row_nnz(k as usize)).sum();
        if hetesim_obs::is_enabled() {
            hetesim_obs::record("sparse.csr.matmul.flops", total_flops as u64);
        }
        let nrows = self.nrows;
        let ncols = rhs.ncols;
        let mut s = scratch::take(ncols);

        // One fused pass: per row, the flop count (O(row nnz) to compute)
        // routes the kernel, a reused row buffer of capacity
        // min(flops, ncols) receives the surviving entries, and they are
        // appended to the growing output. The serial path deliberately
        // skips a symbolic sizing pass — it would traverse the operands a
        // second time to save only the output vectors' amortized growth.
        let Scratch {
            acc,
            mask,
            mark,
            stamp,
            touched,
            vals,
        } = &mut s;
        let rhs_vals: &[f64] = match rhs_div {
            Some(d) => {
                kernel::scaled_values_into(rhs, d, vals);
                vals
            }
            None => &rhs.values,
        };
        let mut indptr = Vec::with_capacity(nrows + 1);
        indptr.push(0u32);
        // The flop total bounds the output size exactly (one entry per
        // multiply-add at most), so reserving it up front removes every
        // growth reallocation; the cap keeps a pathological bound from
        // over-committing memory.
        let reserve = total_flops.min(nrows.saturating_mul(ncols)).min(1 << 26);
        let mut indices: Vec<u32> = Vec::with_capacity(reserve);
        let mut values: Vec<f64> = Vec::with_capacity(reserve);
        let (mut dense_rows, mut sparse_rows) = (0u64, 0u64);
        let mut overflow = false;
        for r in 0..nrows {
            let row_flops: usize = self
                .row_indices(r)
                .iter()
                .map(|&k| rhs.row_nnz(k as usize))
                .sum();
            if row_flops == 0 {
                indptr.push(indices.len() as u32);
                continue;
            }
            // Kernels write straight into the output vectors' spare
            // capacity: resize opens a window of the row's worst-case
            // size, truncate closes it around what survived — no
            // per-row staging buffer, no copy.
            let cap = row_flops.min(ncols);
            let len = indices.len();
            indices.resize(len + cap, 0);
            values.resize(len + cap, 0.0);
            let (ind, val) = (&mut indices[len..], &mut values[len..]);
            let written = if self.row_nnz(r) == 1 {
                // Scaled copy of one rhs row: no accumulator needed, and
                // bit-identical to either accumulator kernel (counted
                // with the non-dense family).
                sparse_rows += 1;
                kernel::numeric_row_copy(self, lhs_div, rhs, rhs_vals, r, ind, val)
            } else if kernel::dense_accumulator_selected(row_flops, ncols) {
                dense_rows += 1;
                kernel::numeric_row_dense(self, lhs_div, rhs, rhs_vals, r, acc, mask, ind, val)
            } else {
                sparse_rows += 1;
                *stamp += 1;
                kernel::numeric_row_sparse(
                    self, lhs_div, rhs, rhs_vals, r, acc, mark, *stamp, touched, ind, val,
                )
            };
            indices.truncate(len + written);
            values.truncate(len + written);
            if check_nnz(indices.len()).is_err() {
                overflow = true;
                break;
            }
            indptr.push(indices.len() as u32);
        }
        let out_nnz = indices.len();
        scratch::put(s);
        if overflow {
            return Err(SparseError::NnzOverflow { nnz: out_nnz });
        }
        hetesim_obs::add("sparse.csr.matmul.out_nnz", out_nnz as u64);
        hetesim_obs::add("sparse.csr.matmul.dense_rows", dense_rows);
        hetesim_obs::add("sparse.csr.matmul.sparse_rows", sparse_rows);
        Ok(CsrMatrix::from_raw(nrows, ncols, indptr, indices, values))
    }

    /// The pre-adaptive one-pass Gustavson kernel (boolean mark array,
    /// growing output vectors, sort-based gather for every row), kept as
    /// the executable reference: the adaptive kernel must agree with it
    /// bit-for-bit, and the `spgemm_scaling` bench uses it as the ablation
    /// baseline.
    pub fn matmul_reference(&self, rhs: &CsrMatrix) -> Result<CsrMatrix> {
        if self.ncols != rhs.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "spgemm",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let n = rhs.ncols;
        let mut acc = vec![0f64; n];
        let mut mark = vec![false; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        indptr.push(0u32);
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for r in 0..self.nrows {
            touched.clear();
            for (&k, &a) in self.row_indices(r).iter().zip(self.row_values(r)) {
                let k = k as usize;
                for (&c, &b) in rhs.row_indices(k).iter().zip(rhs.row_values(k)) {
                    let ci = c as usize;
                    if !mark[ci] {
                        mark[ci] = true;
                        touched.push(c);
                        acc[ci] = 0.0;
                    }
                    acc[ci] += a * b;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = acc[c as usize];
                mark[c as usize] = false;
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len() as u32);
        }
        Ok(CsrMatrix::from_raw(
            self.nrows, rhs.ncols, indptr, indices, values,
        ))
    }

    /// Dense product `self * rhs` where `rhs` is dense; returns dense.
    pub fn matmul_dense(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.ncols != rhs.nrows() {
            return Err(SparseError::DimensionMismatch {
                op: "csr * dense",
                left: self.shape(),
                right: (rhs.nrows(), rhs.ncols()),
            });
        }
        let mut out = DenseMatrix::zeros(self.nrows, rhs.ncols());
        for r in 0..self.nrows {
            for (&k, &a) in self.row_indices(r).iter().zip(self.row_values(r)) {
                let rhs_row = rhs.row(k as usize);
                let out_row = out.row_mut(r);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * x` for a dense vector.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "matvec",
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        let y = (0..self.nrows)
            .map(|r| {
                self.row_indices(r)
                    .iter()
                    .zip(self.row_values(r))
                    .map(|(&c, &v)| v * x[c as usize])
                    .sum()
            })
            .collect();
        Ok(y)
    }

    /// Row-stochastic normalization: each non-empty row is scaled to sum to
    /// one (the `U_{AB}` transition matrix of Definition 8). Empty rows stay
    /// empty — an object with no out-neighbors contributes zero relatedness,
    /// matching the paper's convention.
    pub fn row_normalized(&self) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..out.nrows {
            let (lo, hi) = (out.indptr[r] as usize, out.indptr[r + 1] as usize);
            let s: f64 = out.values[lo..hi].iter().sum();
            if s != 0.0 {
                for v in &mut out.values[lo..hi] {
                    *v /= s;
                }
            }
        }
        out
    }

    /// Per-row divisors for fused row normalization: the row's value sum,
    /// with `1.0` substituted for rows whose sum is exactly zero. Dividing
    /// by `1.0` reproduces every bit of the input (IEEE 754 makes `x / 1.0`
    /// the identity), which is precisely [`CsrMatrix::row_normalized`]'s
    /// treatment of zero-sum rows — it skips them — so a kernel that
    /// divides by these divisors is bitwise equal to one that multiplies
    /// the materialized normalized matrix.
    pub fn row_sum_divisors(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| {
                let s: f64 = self.row_values(r).iter().sum();
                if s != 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Divides each row by its divisor, materializing what the fused
    /// kernels compute on the fly. With divisors from
    /// [`CsrMatrix::row_sum_divisors`] this equals `row_normalized()`
    /// bit-for-bit; used when a chain leaf must be returned normalized
    /// rather than consumed by a fused product.
    pub(crate) fn rows_divided(&self, div: &[f64]) -> CsrMatrix {
        debug_assert_eq!(div.len(), self.nrows);
        let mut out = self.clone();
        for (r, &d) in div.iter().enumerate() {
            let (lo, hi) = (out.indptr[r] as usize, out.indptr[r + 1] as usize);
            for v in &mut out.values[lo..hi] {
                *v /= d;
            }
        }
        out
    }

    /// Column-stochastic normalization (the `V_{AB}` matrix of Definition
    /// 8): each non-empty column is scaled to sum to one.
    pub fn col_normalized(&self) -> CsrMatrix {
        let mut colsum = vec![0f64; self.ncols];
        for (&c, &v) in self.indices.iter().zip(&self.values) {
            colsum[c as usize] += v;
        }
        let mut out = self.clone();
        for (c, v) in out.indices.iter().zip(out.values.iter_mut()) {
            let s = colsum[*c as usize];
            if s != 0.0 {
                *v /= s;
            }
        }
        out
    }

    /// Per-row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.row_values(r).iter().sum())
            .collect()
    }

    /// Per-row Euclidean norms (used to normalize HeteSim, Definition 10).
    pub fn row_l2_norms(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.row_values(r).iter().map(|v| v * v).sum::<f64>().sqrt())
            .collect()
    }

    /// Multiplies every value by `s`.
    pub fn scaled(&self, s: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= s;
        }
        out
    }

    /// Replaces every stored value `v` at `(r, c)` by `f(r, c, v)` in
    /// place, row by row; the sparsity pattern is kept.
    pub fn map_values(&mut self, mut f: impl FnMut(usize, usize, f64) -> f64) {
        for r in 0..self.nrows {
            let (lo, hi) = (self.indptr[r] as usize, self.indptr[r + 1] as usize);
            for (&c, v) in self.indices[lo..hi].iter().zip(&mut self.values[lo..hi]) {
                *v = f(r, c as usize, *v);
            }
        }
    }

    /// Entry-wise sum `self + rhs`.
    pub fn add(&self, rhs: &CsrMatrix) -> Result<CsrMatrix> {
        if self.shape() != rhs.shape() {
            return Err(SparseError::DimensionMismatch {
                op: "add",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz() + rhs.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
        }
        for (r, c, v) in rhs.iter() {
            coo.push(r, c, v);
        }
        Ok(coo.to_csr())
    }

    /// Densifies. Intended for small matrices (tests, eigensolvers, final
    /// relevance tables); asserts the result stays under 256 MiB.
    pub fn to_dense(&self) -> DenseMatrix {
        assert!(
            self.nrows.saturating_mul(self.ncols) <= (1 << 25),
            "refusing to densify a {}x{} matrix",
            self.nrows,
            self.ncols
        );
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d.set(r, c, v);
        }
        d
    }

    /// Drops stored entries with `|value| <= eps`, preserving structure.
    pub fn pruned(&self, eps: f64) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        indptr.push(0u32);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.nrows {
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                if v.abs() > eps {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len() as u32);
        }
        CsrMatrix::from_raw(self.nrows, self.ncols, indptr, indices, values)
    }

    /// Maximum absolute difference between two equally-shaped matrices,
    /// counting entries stored in either.
    pub fn max_abs_diff(&self, rhs: &CsrMatrix) -> Result<f64> {
        if self.shape() != rhs.shape() {
            return Err(SparseError::DimensionMismatch {
                op: "max_abs_diff",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let neg = rhs.scaled(-1.0);
        let diff = self.add(&neg)?;
        Ok(diff
            .values
            .iter()
            .fold(0f64, |m, v| if v.abs() > m { v.abs() } else { m }))
    }

    /// Verifies every stored value is finite.
    pub fn check_finite(&self, op: &'static str) -> Result<()> {
        if self.values.iter().all(|v| v.is_finite()) {
            Ok(())
        } else {
            Err(SparseError::NotFinite { op })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.to_csr()
    }

    fn pseudo_random(nrows: usize, ncols: usize, per_row: usize, seed: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut x = seed.wrapping_mul(2654435761).wrapping_add(1);
        for r in 0..nrows {
            for _ in 0..per_row {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                coo.push(r, (x >> 33) % ncols, (((x >> 20) % 9) + 1) as f64);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn accessors() {
        let m = small();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.row_nnz(0), 2);
        assert!((m.density() - 0.5).abs() < 1e-12);
        assert_eq!(m.indptr(), &[0, 2, 3]);
        assert_eq!(m.indices().len(), m.values().len());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = small();
        let i3 = CsrMatrix::identity(3);
        assert_eq!(m.matmul(&i3).unwrap(), m);
        let i2 = CsrMatrix::identity(2);
        assert_eq!(i2.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        // [1 2] [5 6]   [19 22]
        // [3 4] [7 8] = [43 50]
        let a = CsrMatrix::from_dense(&DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = CsrMatrix::from_dense(&DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let m = small();
        let err = m.matmul(&small()).unwrap_err();
        assert!(matches!(err, SparseError::DimensionMismatch { .. }));
        assert!(matches!(
            m.matmul_reference(&small()).unwrap_err(),
            SparseError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn adaptive_matmul_matches_reference() {
        // Wide output (sparse-accumulator rows) and narrow output (dense
        // rows) products must both agree with the one-pass reference
        // kernel bit-for-bit.
        let a = pseudo_random(300, 200, 4, 21);
        let b_wide = pseudo_random(200, 900, 3, 22);
        let b_narrow = pseudo_random(200, 60, 5, 23);
        assert_eq!(
            a.matmul(&b_wide).unwrap(),
            a.matmul_reference(&b_wide).unwrap()
        );
        assert_eq!(
            a.matmul(&b_narrow).unwrap(),
            a.matmul_reference(&b_narrow).unwrap()
        );
    }

    #[test]
    fn matmul_exact_cancellation_drops_entry() {
        // (1)(1) + (1)(-1) cancels exactly; both kernels must drop the
        // structural entry from the output.
        let mut a = CooMatrix::new(1, 2);
        a.push(0, 0, 1.0);
        a.push(0, 1, 1.0);
        let mut b = CooMatrix::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(1, 0, -1.0);
        b.push(0, 1, 2.0);
        let (a, b) = (a.to_csr(), b.to_csr());
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, a.matmul_reference(&b).unwrap());
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 1), 2.0);
    }

    #[test]
    fn fused_row_normalization_matches_materialized() {
        let a = pseudo_random(150, 90, 4, 31);
        let b = pseudo_random(90, 120, 4, 32);
        let expect = a.row_normalized().matmul(&b.row_normalized()).unwrap();
        let fused = a
            .matmul_fused(&b, Some(&a.row_sum_divisors()), Some(&b.row_sum_divisors()))
            .unwrap();
        assert_eq!(fused, expect);
    }

    #[test]
    fn rows_divided_matches_row_normalized() {
        // Includes empty rows, whose sentinel divisor 1.0 must be a no-op.
        let mut coo = CooMatrix::new(5, 4);
        coo.push(0, 1, 2.0);
        coo.push(0, 3, 6.0);
        coo.push(2, 0, 0.125);
        coo.push(4, 2, -3.5);
        let m = coo.to_csr();
        assert_eq!(m.rows_divided(&m.row_sum_divisors()), m.row_normalized());
    }

    #[test]
    fn check_nnz_boundary() {
        assert!(check_nnz(0).is_ok());
        assert_eq!(check_nnz(u32::MAX as usize).unwrap(), u32::MAX);
        assert!(matches!(
            check_nnz(u32::MAX as usize + 1),
            Err(SparseError::NnzOverflow { .. })
        ));
    }

    #[test]
    fn try_from_raw_usize_rejects_wide_offsets() {
        let err =
            CsrMatrix::try_from_raw_usize(1, 1, vec![0, u32::MAX as usize + 1], vec![0], vec![1.0])
                .unwrap_err();
        assert!(matches!(err, SparseError::NnzOverflow { .. }));
        let ok = CsrMatrix::try_from_raw_usize(1, 1, vec![0, 1], vec![0], vec![2.0]).unwrap();
        assert_eq!(ok.get(0, 0), 2.0);
    }

    #[test]
    fn from_raw_usize_roundtrip() {
        let m = small();
        let rebuilt = CsrMatrix::from_raw_usize(
            m.nrows(),
            m.ncols(),
            m.indptr().iter().map(|&p| p as usize).collect(),
            m.indices().to_vec(),
            m.values().to_vec(),
        );
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn row_normalization_is_stochastic() {
        let m = small().row_normalized();
        let sums = m.row_sums();
        for s in sums {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn row_normalization_keeps_empty_rows() {
        let coo = CooMatrix::new(2, 2);
        let m = coo.to_csr().row_normalized();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn col_normalization_is_stochastic() {
        let m = small().col_normalized();
        let t = m.transpose();
        for r in 0..t.nrows() {
            if t.row_nnz(r) > 0 {
                let s: f64 = t.row_values(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matvec_matches_dense() {
        let m = small();
        let y = m.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 3.0]);
    }

    #[test]
    fn add_and_scale() {
        let m = small();
        let twice = m.add(&m).unwrap();
        assert_eq!(twice, m.scaled(2.0));
    }

    #[test]
    fn pruned_drops_small_entries() {
        let m = small().pruned(1.5);
        assert_eq!(m.nnz(), 2); // 1.0 dropped, 2.0 and 3.0 kept
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn max_abs_diff_zero_for_self() {
        let m = small();
        assert_eq!(m.max_abs_diff(&m).unwrap(), 0.0);
        assert_eq!(m.max_abs_diff(&m.scaled(2.0)).unwrap(), 3.0);
    }

    #[test]
    fn dense_roundtrip() {
        let m = small();
        assert_eq!(CsrMatrix::from_dense(&m.to_dense()), m);
    }

    #[test]
    fn row_l2_norms_match_manual() {
        let m = small();
        let n = m.row_l2_norms();
        assert!((n[0] - (5f64).sqrt()).abs() < 1e-12);
        assert!((n[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn map_values_sees_each_entry_and_keeps_the_pattern() {
        let mut m = small();
        m.map_values(|r, c, v| v * 10.0 + (r * 3 + c) as f64);
        assert_eq!(
            (m.indptr(), m.indices()),
            (small().indptr(), small().indices())
        );
        assert_eq!(m.values(), &[10.0, 22.0, 34.0]);
    }

    #[test]
    fn check_finite_detects_nan() {
        let m = CsrMatrix::from_raw(1, 1, vec![0, 1], vec![0], vec![f64::NAN]);
        assert!(m.check_finite("test").is_err());
        assert!(small().check_finite("test").is_ok());
    }
}
