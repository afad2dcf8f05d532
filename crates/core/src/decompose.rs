//! Path and relation decomposition (Definitions 5–7 of the paper).
//!
//! HeteSim needs the source walker (along the path) and the target walker
//! (against the path) to meet at the *same objects*. For an even-length
//! path they meet at the middle type; for an odd-length path they would
//! meet "inside" the middle atomic relation, so the paper inserts an *edge
//! object* type `E` — one instance per relation instance — splitting that
//! relation `R` into `R = RO ∘ RI` (Definition 6). Property 1 shows the
//! split is exact and unique; [`edge_split`] materializes it and the tests
//! verify `W_AE · W_EB = W`. The engine reads the split through borrowed
//! [`Factor`]s instead, row by row or materialized one side at a time.

use crate::{CoreError, Result};
use hetesim_graph::{Hin, MetaPath};
use hetesim_sparse::CsrMatrix;
use std::borrow::Cow;

/// The two halves of a decomposed relevance path, ready to be turned into
/// reachable-probability matrices.
///
/// `left` holds the traversal-oriented adjacency matrices of `PL` (source
/// type → middle), `right_rev` those of `PR⁻¹` (target type → middle). For
/// odd-length paths the last matrix of each half is the corresponding side
/// of the edge-object split. Step adjacencies are borrowed from the
/// network; only the two split factors are owned.
#[derive(Debug, Clone)]
pub struct Decomposition<'a> {
    /// Adjacency matrices from the source type to the middle type.
    pub left: Vec<Cow<'a, CsrMatrix>>,
    /// Adjacency matrices from the target type back to the middle type
    /// (i.e. along `PR⁻¹`).
    pub right_rev: Vec<Cow<'a, CsrMatrix>>,
    /// Dimension of the middle type (number of objects both walkers can
    /// meet at; for odd paths, the number of edge objects).
    pub middle_dim: usize,
    /// True when an edge-object split was inserted (odd-length path).
    pub used_edge_objects: bool,
}

/// One factor of a half-path chain, borrowed from the network: a step
/// adjacency, or one side of the edge-object split of the middle relation
/// `W` (Definition 6), whose rows are read from `W` and `Wᵀ` without
/// materializing the edge objects. Edge object `e` is the `e`-th stored
/// entry of `W` in row-major order, as in [`edge_split`].
#[derive(Debug, Clone, Copy)]
pub enum Factor<'a> {
    /// A step adjacency in traversal orientation.
    Step(&'a CsrMatrix),
    /// `W_AE`: row `a` holds the edges `W.indptr[a]..W.indptr[a + 1]` with
    /// values `√|w|`.
    SplitLeft(&'a CsrMatrix),
    /// `(W_EB)ᵀ`: row `b` holds, for each `a` in `Wᵀ[b]`, the edge of
    /// `(a, b)` with the signed `√|w|`.
    SplitRight {
        /// The middle relation `W`.
        w: &'a CsrMatrix,
        /// Its transpose `Wᵀ`.
        wt: &'a CsrMatrix,
    },
}

impl<'a> Factor<'a> {
    /// Number of rows (the type the factor departs from).
    pub(crate) fn nrows(&self) -> usize {
        match *self {
            Factor::Step(m) | Factor::SplitLeft(m) => m.nrows(),
            Factor::SplitRight { wt, .. } => wt.nrows(),
        }
    }

    /// Number of columns (the type or edge objects it arrives at).
    pub(crate) fn ncols(&self) -> usize {
        match *self {
            Factor::Step(m) => m.ncols(),
            Factor::SplitLeft(w) | Factor::SplitRight { w, .. } => w.nnz(),
        }
    }

    /// Row `r` as `(columns, values)` in ascending column order — the
    /// order the materialized factor stores them. A step row is borrowed;
    /// a split row is built in `buf`.
    pub(crate) fn row<'s>(
        &self,
        r: usize,
        buf: &'s mut (Vec<u32>, Vec<f64>),
    ) -> (&'s [u32], &'s [f64])
    where
        'a: 's,
    {
        let (cols, vals) = buf;
        cols.clear();
        vals.clear();
        match *self {
            Factor::Step(m) => return (m.row_indices(r), m.row_values(r)),
            Factor::SplitLeft(w) => {
                let base = w.indptr()[r];
                cols.extend(base..w.indptr()[r + 1]);
                vals.extend(w.row_values(r).iter().map(|v| v.abs().sqrt()));
            }
            Factor::SplitRight { w, wt } => {
                for &a in wt.row_indices(r) {
                    let a = a as usize;
                    // `(a, r)` is stored in `W`, as `(r, a)` is in `Wᵀ`.
                    let pos = w.row_indices(a).partition_point(|&c| (c as usize) < r);
                    debug_assert_eq!(w.row_indices(a).get(pos), Some(&(r as u32)));
                    cols.push(w.indptr()[a] + pos as u32);
                    vals.push(signed_sqrt(w.row_values(a)[pos]));
                }
            }
        }
        (cols, vals)
    }

    /// The factor as a matrix: a step adjacency is borrowed, a split side
    /// is built in one pass over `W` (bitwise equal to the [`edge_split`]
    /// side).
    pub(crate) fn to_csr(self) -> Cow<'a, CsrMatrix> {
        match self {
            Factor::Step(m) => Cow::Borrowed(m),
            Factor::SplitLeft(w) => Cow::Owned(CsrMatrix::from_raw(
                w.nrows(),
                w.nnz(),
                w.indptr().to_vec(),
                (0..w.nnz() as u32).collect(),
                w.values().iter().map(|v| v.abs().sqrt()).collect(),
            )),
            Factor::SplitRight { w, wt } => {
                // Edges in row-major order land in their `Wᵀ` rows in
                // ascending edge order, as a transpose would put them.
                let mut next = wt.indptr().to_vec();
                let mut indices = vec![0u32; w.nnz()];
                let mut values = vec![0.0; w.nnz()];
                for (e, (&b, &v)) in w.indices().iter().zip(w.values()).enumerate() {
                    let slot = next[b as usize] as usize;
                    next[b as usize] += 1;
                    indices[slot] = e as u32;
                    values[slot] = signed_sqrt(v);
                }
                Cow::Owned(CsrMatrix::from_raw(
                    wt.nrows(),
                    w.nnz(),
                    wt.indptr().to_vec(),
                    indices,
                    values,
                ))
            }
        }
    }
}

/// `√|v|` with the sign of `v`: an edge object's weight toward the target
/// side of the split, so that `√|v| · signed_sqrt(v) = v`.
fn signed_sqrt(v: f64) -> f64 {
    let s = v.abs().sqrt();
    if v < 0.0 {
        -s
    } else {
        s
    }
}

/// Splits an atomic relation's weighted adjacency `W` into `(W_AE, W_EB)`
/// per Definition 6: one edge object per stored entry, with
/// `w_ae = w_eb = sqrt(w_ab)` so that `W_AE · W_EB = W` exactly
/// (Property 1).
pub fn edge_split(w: &CsrMatrix) -> (CsrMatrix, CsrMatrix) {
    let ne = w.nnz();
    // W_AE: rows = A, one column per edge object, in row-major edge order —
    // so within each row the edge-object columns are increasing and CSR
    // invariants hold by construction.
    let mut ae_indptr = Vec::with_capacity(w.nrows() + 1);
    ae_indptr.push(0usize);
    let mut ae_indices = Vec::with_capacity(ne);
    let mut ae_values = Vec::with_capacity(ne);
    // W_EB: rows = edge objects (same order), exactly one entry per row.
    let mut eb_indptr = Vec::with_capacity(ne + 1);
    eb_indptr.push(0usize);
    let mut eb_indices = Vec::with_capacity(ne);
    let mut eb_values = Vec::with_capacity(ne);

    let mut e = 0u32;
    for r in 0..w.nrows() {
        for (&c, &v) in w.row_indices(r).iter().zip(w.row_values(r)) {
            ae_indices.push(e);
            ae_values.push(v.abs().sqrt());
            eb_indices.push(c);
            eb_values.push(signed_sqrt(v));
            eb_indptr.push(eb_indices.len());
            e += 1;
        }
        ae_indptr.push(ae_indices.len());
    }
    let ae = CsrMatrix::from_raw_usize(w.nrows(), ne, ae_indptr, ae_indices, ae_values);
    let eb = CsrMatrix::from_raw_usize(ne, w.ncols(), eb_indptr, eb_indices, eb_values);
    (ae, eb)
}

/// The *fused* equivalent of the edge-object split: instead of
/// materializing `E` (one object per relation instance), computes the
/// quantities the HeteSim pipeline actually consumes, in closed form.
///
/// With `S_a = Σ_{b'} √w(a,b')` and `T_b = Σ_{a'} √w(a',b)`:
///
/// * the meeting-mass matrix through `E` is
///   `M(a, b) = w(a, b) / (S_a · T_b)` — because each edge object is
///   reachable from exactly one `a` and one `b`, the product
///   `rownorm(W_AE) · rownorm(W_EBᵀ)ᵀ` collapses entry-wise;
/// * the squared row norm of the left half over `E` is
///   `q_A(a) = Σ_b w(a, b) / S_a²` (and symmetrically `q_B`).
///
/// Both are `O(nnz)` with no edge-object storage; `Decomposition`-based
/// and fused results agree to machine precision (tested below and ablated
/// in the benches).
#[derive(Debug, Clone)]
pub struct FusedAtomic {
    /// `M(a, b) = w(a,b) / (S_a T_b)`: the unnormalized HeteSim of the
    /// atomic relation (Definition 7) before cosine normalization.
    pub meeting: CsrMatrix,
    /// Squared L2 norms of the left walker's distribution over `E`,
    /// per source object.
    pub left_sq_norms: Vec<f64>,
    /// Squared L2 norms of the right walker's distribution over `E`,
    /// per target object.
    pub right_sq_norms: Vec<f64>,
}

/// Computes the fused atomic-relation quantities (see [`FusedAtomic`]).
pub fn fused_atomic(w: &CsrMatrix) -> FusedAtomic {
    let mut s_row = vec![0.0f64; w.nrows()]; // Σ √w per source
    let mut t_col = vec![0.0f64; w.ncols()]; // Σ √w per target
    let mut w_row = vec![0.0f64; w.nrows()]; // Σ w per source
    let mut w_col = vec![0.0f64; w.ncols()]; // Σ w per target
    for (a, b, v) in w.iter() {
        let sq = v.abs().sqrt();
        s_row[a] += sq;
        t_col[b] += sq;
        w_row[a] += v.abs();
        w_col[b] += v.abs();
    }
    let mut coo = hetesim_sparse::CooMatrix::with_capacity(w.nrows(), w.ncols(), w.nnz());
    for (a, b, v) in w.iter() {
        let denom = s_row[a] * t_col[b];
        if denom > 0.0 {
            coo.push(a, b, v / denom);
        }
    }
    let left_sq_norms = (0..w.nrows())
        .map(|a| {
            if s_row[a] > 0.0 {
                w_row[a] / (s_row[a] * s_row[a])
            } else {
                0.0
            }
        })
        .collect();
    let right_sq_norms = (0..w.ncols())
        .map(|b| {
            if t_col[b] > 0.0 {
                w_col[b] / (t_col[b] * t_col[b])
            } else {
                0.0
            }
        })
        .collect();
    FusedAtomic {
        meeting: coo.to_csr(),
        left_sq_norms,
        right_sq_norms,
    }
}

/// The factor chains of `PL` (source type → middle) and `PR⁻¹` (target
/// type → middle) of a relevance path (Definition 5). An odd-length path
/// meets inside its middle step, whose relation `W` is split through edge
/// objects: `PL` ends in `W_AE` and `PR⁻¹` in `(W_EB)ᵀ`.
pub(crate) fn half_factors<'a>(
    hin: &'a Hin,
    path: &MetaPath,
) -> (Vec<Factor<'a>>, Vec<Factor<'a>>) {
    let steps = path.steps();
    let mid = steps.len() / 2;
    let mut left: Vec<Factor<'a>> = steps[..mid]
        .iter()
        .map(|&s| Factor::Step(hin.step_adjacency(s)))
        .collect();
    let mut right_rev: Vec<Factor<'a>> = steps[steps.len() - mid..]
        .iter()
        .rev()
        .map(|&s| Factor::Step(hin.step_adjacency(s.reversed())))
        .collect();
    if steps.len() % 2 == 1 {
        let w = hin.step_adjacency(steps[mid]);
        let wt = hin.step_adjacency(steps[mid].reversed());
        left.push(Factor::SplitLeft(w));
        right_rev.push(Factor::SplitRight { w, wt });
    }
    (left, right_rev)
}

/// Checks that `left` has the shape `PM_PL` of `path` has on `hin`
/// (source count × middle dimension, the middle being the meeting type
/// or, on an odd path, the edge objects of the middle relation) and
/// `right_t` that of `PM_PR⁻¹ᵀ` (middle × target count), absent exactly
/// on a symmetric path. A missing matrix is reported as 0x0.
pub(crate) fn check_half_shapes(
    hin: &Hin,
    path: &MetaPath,
    left: &CsrMatrix,
    right_t: Option<&CsrMatrix>,
) -> Result<()> {
    let n = |ty| hin.node_count(ty);
    let middle = half_factors(hin, path)
        .0
        .last()
        .map_or_else(|| n(path.source_type()), Factor::ncols);
    let left_shape = (n(path.source_type()), middle);
    let right_t_shape = (!path.is_symmetric()).then_some((middle, n(path.target_type())));
    for (half, found, expected) in [
        ("left", Some(left.shape()), Some(left_shape)),
        ("right_t", right_t.map(CsrMatrix::shape), right_t_shape),
    ] {
        if found != expected {
            let (expected, found) = (expected.unwrap_or_default(), found.unwrap_or_default());
            return Err(CoreError::HalfShape {
                half,
                expected,
                found,
            });
        }
    }
    Ok(())
}

/// Decomposes a relevance path `P` into `PL` / `PR⁻¹` matrix chains
/// (Definition 5), inserting the edge-object split for odd lengths.
pub fn decompose<'a>(hin: &'a Hin, path: &MetaPath) -> Result<Decomposition<'a>> {
    let (left, right_rev) = half_factors(hin, path);
    let middle_dim = left
        .last()
        .map_or_else(|| hin.node_count(path.source_type()), Factor::ncols);
    Ok(Decomposition {
        left: left.into_iter().map(Factor::to_csr).collect(),
        right_rev: right_rev.into_iter().map(Factor::to_csr).collect(),
        middle_dim,
        used_edge_objects: path.steps().len() % 2 == 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_graph::{HinBuilder, Schema};
    use hetesim_sparse::CooMatrix;

    fn fig5_matrix() -> CsrMatrix {
        // Figure 5(a): a1-{b1,b2}, a2-{b2,b3,b4}, a3-{b1,b4}.
        let mut coo = CooMatrix::new(3, 4);
        for (a, b) in [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 0), (2, 3)] {
            coo.push(a, b, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn edge_split_reconstructs_relation() {
        // Property 1: R = RO ∘ RI.
        let w = fig5_matrix();
        let (ae, eb) = edge_split(&w);
        assert_eq!(ae.ncols(), w.nnz());
        assert_eq!(eb.nrows(), w.nnz());
        let product = ae.matmul(&eb).unwrap();
        assert!(product.max_abs_diff(&w).unwrap() < 1e-12);
    }

    #[test]
    fn edge_split_weighted_relation() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 4.0);
        coo.push(1, 1, 9.0);
        let w = coo.to_csr();
        let (ae, eb) = edge_split(&w);
        assert_eq!(ae.get(0, 0), 2.0);
        assert_eq!(eb.get(1, 1), 3.0);
        assert!(ae.matmul(&eb).unwrap().max_abs_diff(&w).unwrap() < 1e-12);
    }

    #[test]
    fn split_factors_match_edge_split_bitwise() {
        let mut coo = CooMatrix::new(3, 4);
        for (a, b, v) in [
            (0, 0, 4.0),
            (0, 3, -2.0),
            (1, 1, 0.5),
            (2, 0, 9.0),
            (2, 1, -1.0),
        ] {
            coo.push(a, b, v);
        }
        let w = coo.to_csr();
        let wt = w.transpose();
        let (ae, eb) = edge_split(&w);
        let eb_t = eb.transpose();
        let sides = [
            (Factor::SplitLeft(&w), &ae),
            (Factor::SplitRight { w: &w, wt: &wt }, &eb_t),
        ];
        let mut buf = (Vec::new(), Vec::new());
        for (f, want) in sides {
            assert_eq!(f.to_csr().as_ref(), want);
            assert_eq!((f.nrows(), f.ncols()), want.shape());
            for r in 0..want.nrows() {
                let (cols, vals) = f.row(r, &mut buf);
                assert_eq!(cols, want.row_indices(r));
                assert_eq!(vals, want.row_values(r));
            }
        }
    }

    #[test]
    fn edge_split_each_edge_object_has_unit_degree() {
        let w = fig5_matrix();
        let (ae, eb) = edge_split(&w);
        // Every edge object has exactly one in-edge and one out-edge.
        for e in 0..eb.nrows() {
            assert_eq!(eb.row_nnz(e), 1);
        }
        let ae_t = ae.transpose();
        for e in 0..ae_t.nrows() {
            assert_eq!(ae_t.row_nnz(e), 1);
        }
    }

    fn toy_hin() -> Hin {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let c = s.add_type("conference").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let pb = s.add_relation("published_in", p, c).unwrap();
        let mut b = HinBuilder::new(s);
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P3", 1.0).unwrap();
        b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P2", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P3", "SIGMOD", 1.0).unwrap();
        b.build()
    }

    #[test]
    fn fused_atomic_matches_materialized_split() {
        let w = fig5_matrix();
        let fused = fused_atomic(&w);
        // Materialized pipeline: rownorm(W_AE) · rownorm(W_EBᵀ)ᵀ.
        let (ae, eb) = edge_split(&w);
        let left = ae.row_normalized();
        let right = eb.transpose().row_normalized();
        let meeting = left.matmul(&right.transpose()).unwrap();
        assert!(meeting.max_abs_diff(&fused.meeting).unwrap() < 1e-12);
        // Norms agree too.
        for (a, &sq) in fused.left_sq_norms.iter().enumerate() {
            let n = left.row(a).l2_norm();
            assert!((n * n - sq).abs() < 1e-12, "left norm {a}");
        }
        for (b, &sq) in fused.right_sq_norms.iter().enumerate() {
            let n = right.row(b).l2_norm();
            assert!((n * n - sq).abs() < 1e-12, "right norm {b}");
        }
        // Figure 5 oracle: a2 row of the meeting matrix.
        for (b, expected) in [
            (0usize, 0.0),
            (1, 1.0 / 6.0),
            (2, 1.0 / 3.0),
            (3, 1.0 / 6.0),
        ] {
            assert!((fused.meeting.get(1, b) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_atomic_weighted_and_empty_rows() {
        let mut coo = CooMatrix::new(3, 2);
        coo.push(0, 0, 4.0);
        coo.push(0, 1, 9.0);
        coo.push(1, 1, 1.0);
        // Row 2 has no edges.
        let w = coo.to_csr();
        let fused = fused_atomic(&w);
        // S_0 = 2 + 3 = 5; T_1 = 3 + 1 = 4. M(0,1) = 9 / (5·4).
        assert!((fused.meeting.get(0, 1) - 9.0 / 20.0).abs() < 1e-12);
        assert_eq!(fused.left_sq_norms[2], 0.0);
        // q_A(0) = (4 + 9) / 25.
        assert!((fused.left_sq_norms[0] - 13.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn even_path_splits_at_middle_type() {
        let hin = toy_hin();
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let d = decompose(&hin, &apc).unwrap();
        assert!(!d.used_edge_objects);
        assert_eq!(d.left.len(), 1);
        assert_eq!(d.right_rev.len(), 1);
        // Middle type is paper (3 nodes).
        assert_eq!(d.middle_dim, 3);
        // Left goes author->paper, right goes conference->paper.
        assert_eq!(d.left[0].shape(), (2, 3));
        assert_eq!(d.right_rev[0].shape(), (2, 3));
    }

    #[test]
    fn odd_path_inserts_edge_objects() {
        let hin = toy_hin();
        let ap = MetaPath::parse(hin.schema(), "AP").unwrap();
        let d = decompose(&hin, &ap).unwrap();
        assert!(d.used_edge_objects);
        // writes has 3 instances -> 3 edge objects.
        assert_eq!(d.middle_dim, 3);
        assert_eq!(d.left.len(), 1);
        assert_eq!(d.right_rev.len(), 1);
        assert_eq!(d.left[0].shape(), (2, 3));
        assert_eq!(d.right_rev[0].shape(), (3, 3)); // papers x edge objects
    }

    #[test]
    fn odd_longer_path_shapes_chain() {
        let hin = toy_hin();
        let apvc_like = MetaPath::parse(hin.schema(), "APC").unwrap(); // even
        let d_even = decompose(&hin, &apvc_like).unwrap();
        // A three-step path: A-P-C-P (author to papers of same conference).
        let apcp = MetaPath::parse(hin.schema(), "A-P-C-P").unwrap();
        let d = decompose(&hin, &apcp).unwrap();
        assert!(d.used_edge_objects);
        // Middle relation is P->C with 3 instances.
        assert_eq!(d.middle_dim, 3);
        // Left chain: A->P adjacency then P->E split.
        assert_eq!(d.left.len(), 2);
        assert_eq!(d.left[0].shape(), (2, 3));
        assert_eq!(d.left[1].shape(), (3, 3));
        // Right chain: P->C adjacency then C->E split side.
        assert_eq!(d.right_rev.len(), 2);
        assert_eq!(d.right_rev[0].shape(), (3, 2));
        assert_eq!(d.right_rev[1].shape(), (2, 3));
        // Sanity: even decomposition untouched by odd logic.
        assert_eq!(d_even.left.len(), 1);
    }
}
