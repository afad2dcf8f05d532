#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Sparse and dense linear-algebra kernels used throughout the HeteSim
//! workspace.
//!
//! The HeteSim relevance measure (Shi et al., EDBT 2012) is, computationally,
//! a pipeline of sparse matrix products over row- or column-normalized
//! adjacency matrices of a heterogeneous information network, followed by a
//! cosine between reachable-probability rows. This crate provides exactly the
//! kernels that pipeline needs:
//!
//! * [`CooMatrix`] — triplet builder for incremental construction,
//! * [`CsrMatrix`] — compressed sparse row storage with transpose, sparse
//!   general matrix-matrix multiply (SpGEMM), stochastic normalization and
//!   row-slicing,
//! * [`DenseMatrix`] — small row-major dense matrices for relevance outputs
//!   and the eigensolvers in `hetesim-ml`,
//! * [`SparseVec`] — sparse vectors with dot products and cosines,
//! * [`chain`] — cost-model-driven ordering for chains of sparse products
//!   (Section 4.6 of the paper materializes partial path products; picking a
//!   good association order is the other half of that optimization),
//! * [`parallel`] — two-phase (symbolic/numeric) parallel SpGEMM with
//!   flop-balanced dynamic scheduling on top of std scoped threads.
//!
//! # Example
//!
//! ```
//! use hetesim_sparse::{CooMatrix, CsrMatrix};
//!
//! let mut coo = CooMatrix::new(2, 3);
//! coo.push(0, 0, 1.0);
//! coo.push(0, 2, 2.0);
//! coo.push(1, 1, 3.0);
//! let m: CsrMatrix = coo.to_csr();
//! assert_eq!(m.nnz(), 3);
//! let stochastic = m.row_normalized();
//! for r in 0..2 {
//!     let s: f64 = stochastic.row_values(r).iter().sum();
//!     assert!((s - 1.0).abs() < 1e-12);
//! }
//! ```

mod coo;
mod csr;
mod dense;
mod error;
mod kernel;
mod scratch;
mod vector;

pub mod binio;
pub mod chain;
pub mod io;
pub mod parallel;

pub use coo::CooMatrix;
pub use csr::{check_nnz, CsrMatrix};
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use vector::{cosine_dense, dot_dense, for_each_common, l2_norm_dense, SparseVec};

/// Convenience alias used by fallible kernel entry points.
pub type Result<T> = std::result::Result<T, SparseError>;
