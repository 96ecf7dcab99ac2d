//! Sparse symmetric linear algebra for the spectral offloading stage.
//!
//! The paper (§III-B) reads the minimum cut of each compressed sub-graph
//! off the eigenvector of the graph Laplacian belonging to the second
//! smallest eigenvalue. This crate supplies everything needed to compute
//! that eigenpair from scratch, with no external linear-algebra
//! dependency:
//!
//! - [`SymOp`] — the symmetric-operator contract (`y = A x`) that both
//!   the serial CSR matrix and the `mec-engine` parallel backend
//!   implement;
//! - [`CsrMatrix`] — compressed-sparse-row symmetric matrices;
//! - [`smallest_eigenpairs`] / [`smallest_eigenpairs_with`] — the
//!   Lanczos eigensolver: one Krylov recurrence with full
//!   re-orthogonalisation, checked at geometric checkpoints, optionally
//!   seeded with a start vector and run inside a reusable
//!   [`LanczosScratch`];
//! - [`tridiagonal_eigen`] — implicit-QL eigensolver for symmetric
//!   tridiagonal matrices;
//! - [`jacobi_eigen`] — a dense Jacobi reference solver used for
//!   cross-validation and small systems;
//! - [`householder_eigen`] — the classic dense two-stage solver
//!   (Householder reduction + QL), faster than Jacobi at equal
//!   robustness; operators at or below
//!   [`LanczosOptions::dense_cutoff`] are solved with it (or Jacobi)
//!   directly.
//!
//! # Example: Fiedler pair of a path graph
//!
//! ```
//! use mec_linalg::{CsrMatrix, smallest_eigenpairs, LanczosOptions};
//!
//! # fn main() -> Result<(), mec_linalg::LinalgError> {
//! // Laplacian of the path 0-1-2 (unit weights).
//! let l = CsrMatrix::from_triplets(
//!     3,
//!     &[
//!         (0, 0, 1.0), (0, 1, -1.0),
//!         (1, 0, -1.0), (1, 1, 2.0), (1, 2, -1.0),
//!         (2, 1, -1.0), (2, 2, 1.0),
//!     ],
//! )?;
//! let pairs = smallest_eigenpairs(&l, 2, &LanczosOptions::default())?;
//! assert!(pairs[0].value.abs() < 1e-8);          // lambda_1 = 0
//! assert!((pairs[1].value - 1.0).abs() < 1e-8);  // lambda_2 = 1 for P_3
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// index-based loops over rows/columns are the natural idiom in the
// numeric kernels here; iterator gymnastics would obscure the math
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod dense;
mod error;
mod householder;
pub mod kernels;
mod lanczos;
mod power;
mod sparse;
mod tridiag;
pub mod vector;

pub use dense::{jacobi_eigen, DenseMatrix, JacobiOptions};
pub use error::LinalgError;
pub use householder::householder_eigen;
pub use lanczos::{
    smallest_eigenpairs, smallest_eigenpairs_with, Eigenpair, LanczosOptions, LanczosScratch,
};
pub use power::{largest_eigenpair, PowerOptions};
pub use sparse::CsrMatrix;
pub use tridiag::{tridiagonal_eigen, tridiagonal_eigenvalues, tridiagonal_eigenvector};

/// A real symmetric linear operator: everything the iterative solvers
/// need to know about a matrix.
///
/// Implementations must be genuinely symmetric (`xᵀ(Ay) = yᵀ(Ax)`);
/// Lanczos silently produces garbage otherwise.
pub trait SymOp {
    /// Dimension `n` of the operator (matrices are `n × n`).
    fn dim(&self) -> usize;

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Implementations panic when `x.len() != self.dim()` or
    /// `y.len() != self.dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl<T: SymOp + ?Sized> SymOp for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }
}
