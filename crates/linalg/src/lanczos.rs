//! Lanczos iteration for extreme eigenpairs of symmetric operators.
//!
//! The paper's spectral stage needs the two smallest eigenpairs of each
//! compressed sub-graph's Laplacian (Theorem 1: the minimum cut is read
//! off the second-smallest eigenvalue's eigenvector).
//! [`smallest_eigenpairs_with`] grows one Krylov basis step by step and
//! checks the Ritz pairs of the small tridiagonal matrix at geometric
//! checkpoints until they converge. Full re-orthogonalisation keeps the
//! basis honest, and breakdown is handled by restarting with a fresh
//! direction, so the basis keeps growing across invariant subspaces.

use crate::tridiag::{tridiagonal_eigenvalues, tridiagonal_eigenvector};
use crate::vector::{axpy, dot, normalize, orthogonalize_against};
use crate::{jacobi_eigen, DenseMatrix, JacobiOptions, LinalgError, SymOp};
use mec_obs::{FieldValue, TraceSink};

/// One converged eigenpair.
#[derive(Debug, Clone)]
pub struct Eigenpair {
    /// The eigenvalue.
    pub value: f64,
    /// Unit-norm eigenvector.
    pub vector: Vec<f64>,
}

/// Tuning knobs for [`smallest_eigenpairs`].
#[derive(Debug, Clone)]
pub struct LanczosOptions {
    /// Maximum Krylov-subspace dimension (capped at the operator
    /// dimension). Default `400`.
    pub max_dim: usize,
    /// Ritz-pair residual tolerance. Default `1e-10`.
    pub tolerance: f64,
    /// Seed for the deterministic pseudo-random start vector.
    pub seed: u64,
    /// Operator dimension at or below which the dense Jacobi solver is
    /// used directly instead of iterating. Default `32`.
    pub dense_cutoff: usize,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_dim: 400,
            tolerance: 1e-10,
            seed: 0x5eed_c0de,
            dense_cutoff: 32,
        }
    }
}

/// Reusable buffers for repeated Lanczos solves.
///
/// The recurrence needs one length-`n` vector per Krylov step plus two
/// working vectors; a cold run allocates them all. Threading one
/// `LanczosScratch` through repeated [`smallest_eigenpairs_with`] calls
/// recycles every retired basis vector through an internal pool, so a
/// warm solve at the same (or smaller) dimension performs no heap
/// allocations in the recurrence — `tests/alloc_budget.rs` pins the
/// exact count of a warm re-run.
#[derive(Debug, Default)]
pub struct LanczosScratch {
    alphas: Vec<f64>,
    betas: Vec<f64>,
    basis: Vec<Vec<f64>>,
    pool: Vec<Vec<f64>>,
}

impl LanczosScratch {
    /// An empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the previous run's basis vectors back into the pool.
    fn retire(&mut self) {
        self.pool.append(&mut self.basis);
    }

    /// Checks a zeroed length-`n` buffer out of the pool (allocating
    /// only when the pool is dry or too small).
    fn checkout(&mut self, n: usize) -> Vec<f64> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(n, 0.0);
        buf
    }
}

/// SplitMix64 — deterministic start vectors without a rand dependency.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fills `v` with the deterministic pseudo-random unit vector —
/// allocation-free so the recurrence can recycle its buffers.
fn random_unit_vector_into(v: &mut [f64], seed: &mut u64) {
    for x in v.iter_mut() {
        *x = (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    normalize(v);
}

/// Computes the `k` smallest eigenpairs of `op`, sorted ascending.
///
/// Small operators (`dim ≤ opts.dense_cutoff`) are solved exactly with
/// a dense solver; larger ones run the Lanczos recurrence until the
/// requested Ritz pairs converge to `opts.tolerance`. A thin shim over
/// [`smallest_eigenpairs_with`] with a throwaway arena and no
/// telemetry.
///
/// # Errors
///
/// - [`LinalgError::TooManyEigenpairs`] if `k > op.dim()`;
/// - [`LinalgError::NoConvergence`] if `opts.max_dim` is exhausted
///   before the pairs converge.
///
/// # Example
///
/// ```
/// # use mec_linalg::{CsrMatrix, smallest_eigenpairs, LanczosOptions};
/// // 2-node graph Laplacian with edge weight 3: eigenvalues {0, 6}.
/// let l = CsrMatrix::laplacian_from_edges(2, &[(0, 1, 3.0)])?;
/// let pairs = smallest_eigenpairs(&l, 2, &LanczosOptions::default())?;
/// assert!(pairs[0].value.abs() < 1e-9);
/// assert!((pairs[1].value - 6.0).abs() < 1e-9);
/// # Ok::<(), mec_linalg::LinalgError>(())
/// ```
pub fn smallest_eigenpairs<A: SymOp>(
    op: &A,
    k: usize,
    opts: &LanczosOptions,
) -> Result<Vec<Eigenpair>, LinalgError> {
    smallest_eigenpairs_with(
        op,
        k,
        opts,
        None,
        &mec_obs::NullSink,
        &mut LanczosScratch::new(),
    )
}

/// [`smallest_eigenpairs`] with a caller-owned [`LanczosScratch`], an
/// optional start vector and telemetry.
///
/// One continuous recurrence grows the Krylov basis with geometric
/// convergence checkpoints. Each checkpoint costs `O(m²)`
/// (eigenvalues-only QL plus `k` inverse-iteration vectors), and no
/// prefix of the recurrence is ever recomputed. The solve stops when
/// every requested pair's Ritz residual `beta · |s[m-1]|`, with the
/// genuine next `beta`, is at most `opts.tolerance` (or `1e-14 · |λ_k|`
/// if that is larger), or when the basis spans the operator.
///
/// `warm` seeds the first Krylov direction when its length matches
/// the operator and it is not numerically zero; otherwise the seeded
/// pseudo-random start vector is used. A warm seed is usually close to
/// the target eigenvector (the recursive bisector passes the
/// restriction of the parent's Fiedler vector), so the first
/// checkpoint comes earlier.
///
/// The recurrence recycles `scratch`'s buffer pool, so repeated solves
/// stop allocating in the recurrence once the arena is warm. `sink`
/// receives one `lanczos.burst` event per checkpoint (subspace
/// dimension, residual estimate, convergence flag), the
/// `lanczos.iterations` counter and histogram, the
/// `lanczos.checkpoints` histogram, `lanczos.restarts` per breakdown
/// restart, and `lanczos.solves` / `lanczos.dense_solves` per solve.
///
/// # Errors
///
/// Same as [`smallest_eigenpairs`].
pub fn smallest_eigenpairs_with<A: SymOp>(
    op: &A,
    k: usize,
    opts: &LanczosOptions,
    warm: Option<&[f64]>,
    sink: &dyn TraceSink,
    scratch: &mut LanczosScratch,
) -> Result<Vec<Eigenpair>, LinalgError> {
    let n = op.dim();
    if k > n {
        return Err(LinalgError::TooManyEigenpairs {
            requested: k,
            dim: n,
        });
    }
    if k == 0 {
        return Ok(vec![]);
    }
    if n <= opts.dense_cutoff {
        sink.counter_add("lanczos.dense_solves", 1);
        let dense = DenseMatrix::from_op(op);
        // Householder + QL for anything non-trivial; Jacobi's sturdier
        // rotations only for very small systems where its cost is nil.
        let (vals, vecs) = if n <= 8 {
            jacobi_eigen(&dense, &JacobiOptions::default())?
        } else {
            crate::householder_eigen(&dense)?
        };
        return Ok(vals
            .into_iter()
            .zip(vecs)
            .take(k)
            .map(|(value, vector)| Eigenpair { value, vector })
            .collect());
    }

    let cap = opts.max_dim.min(n).max(k);
    scratch.retire();
    scratch.alphas.clear();
    scratch.betas.clear();
    let mut seed = opts.seed;
    let breakdown_tol = 1e-12;

    let mut v = scratch.checkout(n);
    let warm_seeded = match warm {
        Some(w0) if w0.len() == n => {
            v.copy_from_slice(w0);
            normalize(&mut v) > breakdown_tol
        }
        _ => false,
    };
    if !warm_seeded {
        random_unit_vector_into(&mut v, &mut seed);
    }
    let mut w = scratch.checkout(n);
    let mut restarts = 0u64;
    let mut checkpoints = 0u64;
    // a warm seed is already near the target eigenvector, so start
    // checking earlier than from a random start
    let mut next_check = if warm_seeded {
        (2 * k + 8).min(cap)
    } else {
        (4 * k + 20).min(cap)
    };

    loop {
        op.apply(&v, &mut w);
        let alpha = dot(&v, &w);
        scratch.alphas.push(alpha);
        axpy(-alpha, &v, &mut w);
        if let Some(prev) = scratch.basis.last() {
            let beta_prev = *scratch.betas.last().unwrap_or(&0.0);
            axpy(-beta_prev, prev, &mut w);
        }
        let recycled = scratch.checkout(n);
        scratch.basis.push(std::mem::replace(&mut v, recycled));
        let m = scratch.basis.len();
        let mut spanned = m >= cap;
        if !spanned {
            // full re-orthogonalisation, twice for stability
            orthogonalize_against(&mut w, &scratch.basis);
            orthogonalize_against(&mut w, &scratch.basis);
            let beta = normalize(&mut w);
            if beta <= breakdown_tol {
                // invariant subspace exhausted: restart in a fresh direction
                random_unit_vector_into(&mut v, &mut seed);
                orthogonalize_against(&mut v, &scratch.basis);
                orthogonalize_against(&mut v, &scratch.basis);
                if normalize(&mut v) <= breakdown_tol {
                    spanned = true; // the whole space is spanned
                } else {
                    restarts += 1;
                    scratch.betas.push(0.0);
                    w.fill(0.0);
                }
            } else {
                scratch.betas.push(beta);
                std::mem::swap(&mut v, &mut w);
                w.fill(0.0);
            }
        }

        if m >= k && (m >= next_check || spanned) {
            checkpoints += 1;
            let vals = tridiagonal_eigenvalues(&scratch.alphas, &scratch.betas[..m - 1])?;
            // the genuine next beta when the recurrence prepared one
            // (betas.len() == m), the last computed one when stopped at
            // the cap (betas.len() == m - 1); exact once the basis
            // spans the whole space
            let beta_last = if m < n {
                scratch.betas.last().copied().unwrap_or(0.0)
            } else {
                0.0
            };
            let threshold = opts.tolerance.max(1e-14 * vals[k - 1].abs());
            let mut svecs: Vec<Vec<f64>> = Vec::with_capacity(k);
            let mut converged = true;
            for val in vals.iter().take(k) {
                let s = tridiagonal_eigenvector(
                    &scratch.alphas,
                    &scratch.betas[..m - 1],
                    *val,
                    &svecs,
                )?;
                converged &= beta_last * s[m - 1].abs() <= threshold;
                svecs.push(s);
            }
            if sink.enabled() {
                let residual = svecs
                    .iter()
                    .map(|s| beta_last * s[m - 1].abs())
                    .fold(0.0f64, f64::max);
                sink.event(
                    "lanczos.burst",
                    &[
                        ("dim", FieldValue::from(m)),
                        ("residual", FieldValue::from(residual)),
                        ("converged", FieldValue::from(converged || spanned)),
                    ],
                );
            }
            if converged || spanned {
                scratch.pool.push(v);
                scratch.pool.push(w);
                sink.counter_add("lanczos.iterations", m as u64);
                // iterations-to-convergence and checkpoint-count
                // distributions: two relaxed-atomic bumps, or a branch
                // on the null sink
                sink.histogram_record("lanczos.iterations", m as u64);
                sink.histogram_record("lanczos.checkpoints", checkpoints);
                if restarts > 0 {
                    sink.counter_add("lanczos.restarts", restarts);
                }
                if !converged {
                    return Err(LinalgError::NoConvergence {
                        iterations: m,
                        residual: scratch.betas.last().copied().unwrap_or(0.0),
                    });
                }
                sink.counter_add("lanczos.solves", 1);
                let mut out = Vec::with_capacity(k);
                for (val, s) in vals.iter().take(k).zip(&svecs) {
                    let mut x = vec![0.0; n];
                    for (j, b) in scratch.basis.iter().enumerate() {
                        axpy(s[j], b, &mut x);
                    }
                    normalize(&mut x);
                    out.push(Eigenpair {
                        value: *val,
                        vector: x,
                    });
                }
                return Ok(out);
            }
            // grow ~1/3 before the next check: geometric enough to
            // amortise the O(m²) eigenvalue sweep, fine enough to stop
            // near the minimal sufficient dimension
            next_check = (m + (m / 3).max(8)).min(cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::norm;
    use crate::CsrMatrix;

    fn residual(op: &impl SymOp, pair: &Eigenpair) -> f64 {
        let n = op.dim();
        let mut y = vec![0.0; n];
        op.apply(&pair.vector, &mut y);
        axpy(-pair.value, &pair.vector, &mut y);
        norm(&y)
    }

    fn path_laplacian(n: usize) -> CsrMatrix {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        CsrMatrix::laplacian_from_edges(n, &edges).unwrap()
    }

    fn cycle_laplacian(n: usize) -> CsrMatrix {
        let mut edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.push((n - 1, 0, 1.0));
        CsrMatrix::laplacian_from_edges(n, &edges).unwrap()
    }

    #[test]
    fn path_graph_fiedler_value_matches_closed_form() {
        // P_n Laplacian eigenvalues: 2 - 2 cos(pi k / n), k = 0..n-1.
        for n in [8usize, 33, 80] {
            let l = path_laplacian(n);
            let pairs = smallest_eigenpairs(&l, 2, &LanczosOptions::default()).unwrap();
            assert!(pairs[0].value.abs() < 1e-8, "n={n}: lambda1 not 0");
            let expected = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
            assert!(
                (pairs[1].value - expected).abs() < 1e-7,
                "n={n}: got {}, expected {expected}",
                pairs[1].value
            );
            for p in &pairs {
                assert!(residual(&l, p) < 1e-6, "n={n}: residual too large");
            }
        }
    }

    #[test]
    fn cycle_graph_spectrum() {
        // C_n eigenvalues: 2 - 2 cos(2 pi k / n); lambda2 has multiplicity 2.
        let n = 40;
        let l = cycle_laplacian(n);
        let pairs = smallest_eigenpairs(&l, 3, &LanczosOptions::default()).unwrap();
        let lam2 = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!(pairs[0].value.abs() < 1e-8);
        assert!((pairs[1].value - lam2).abs() < 1e-7);
        assert!((pairs[2].value - lam2).abs() < 1e-7);
    }

    #[test]
    fn complete_graph_spectrum() {
        // K_n: eigenvalues 0 and n (multiplicity n-1).
        let n = 50;
        let mut edges = vec![];
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b, 1.0));
            }
        }
        let l = CsrMatrix::laplacian_from_edges(n, &edges).unwrap();
        let pairs = smallest_eigenpairs(&l, 4, &LanczosOptions::default()).unwrap();
        assert!(pairs[0].value.abs() < 1e-7);
        for p in &pairs[1..] {
            assert!((p.value - n as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn disconnected_graph_has_double_zero() {
        // two disjoint edges: eigenvalues {0, 0, 2, 2}
        let l = CsrMatrix::laplacian_from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let opts = LanczosOptions {
            dense_cutoff: 0, // force the iterative path
            ..LanczosOptions::default()
        };
        let pairs = smallest_eigenpairs(&l, 3, &opts).unwrap();
        assert!(pairs[0].value.abs() < 1e-9);
        assert!(pairs[1].value.abs() < 1e-9);
        assert!((pairs[2].value - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dense_cutoff_path_agrees_with_lanczos_path() {
        let l = path_laplacian(30);
        let dense_opts = LanczosOptions::default(); // 30 <= 32 → Jacobi
        let iter_opts = LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        };
        let a = smallest_eigenpairs(&l, 2, &dense_opts).unwrap();
        let b = smallest_eigenpairs(&l, 2, &iter_opts).unwrap();
        assert!((a[1].value - b[1].value).abs() < 1e-7);
        // eigenvectors agree up to sign
        let dot_abs: f64 = a[1]
            .vector
            .iter()
            .zip(&b[1].vector)
            .map(|(x, y)| x * y)
            .sum::<f64>()
            .abs();
        assert!((dot_abs - 1.0).abs() < 1e-5);
    }

    #[test]
    fn weighted_two_node_graph() {
        let l = CsrMatrix::laplacian_from_edges(2, &[(0, 1, 3.0)]).unwrap();
        let pairs = smallest_eigenpairs(&l, 2, &LanczosOptions::default()).unwrap();
        assert!(pairs[0].value.abs() < 1e-12);
        assert!((pairs[1].value - 6.0).abs() < 1e-9);
    }

    #[test]
    fn requesting_too_many_pairs_errors() {
        let l = path_laplacian(3);
        assert!(matches!(
            smallest_eigenpairs(&l, 4, &LanczosOptions::default()),
            Err(LinalgError::TooManyEigenpairs { .. })
        ));
    }

    #[test]
    fn zero_pairs_is_empty() {
        let l = path_laplacian(3);
        assert!(smallest_eigenpairs(&l, 0, &LanczosOptions::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let l = path_laplacian(50);
        let opts = LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        };
        let a = smallest_eigenpairs(&l, 2, &opts).unwrap();
        let b = smallest_eigenpairs(&l, 2, &opts).unwrap();
        assert_eq!(a[1].value.to_bits(), b[1].value.to_bits());
        assert_eq!(a[1].vector, b[1].vector);
    }

    #[test]
    fn scratch_path_is_bit_identical_to_plain_path() {
        let l = path_laplacian(50);
        let opts = LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        };
        let plain = smallest_eigenpairs(&l, 2, &opts).unwrap();
        let mut scratch = LanczosScratch::new();
        for _ in 0..3 {
            let reused =
                smallest_eigenpairs_with(&l, 2, &opts, None, &mec_obs::NullSink, &mut scratch)
                    .unwrap();
            for (a, b) in plain.iter().zip(&reused) {
                assert_eq!(a.value.to_bits(), b.value.to_bits());
                assert_eq!(a.vector, b.vector);
            }
        }
    }

    #[test]
    fn scratch_reuse_survives_dimension_changes() {
        let mut scratch = LanczosScratch::new();
        for n in [40usize, 12, 64, 12] {
            let l = path_laplacian(n);
            let opts = LanczosOptions {
                dense_cutoff: 0,
                ..LanczosOptions::default()
            };
            let pairs =
                smallest_eigenpairs_with(&l, 2, &opts, None, &mec_obs::NullSink, &mut scratch)
                    .unwrap();
            let expected = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
            assert!((pairs[1].value - expected).abs() < 1e-7, "n={n}");
        }
    }

    #[test]
    fn warm_seed_converges_to_the_same_pairs() {
        let l = path_laplacian(70);
        let opts = LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        };
        let cold = smallest_eigenpairs(&l, 2, &opts).unwrap();
        let mut scratch = LanczosScratch::new();
        let warm = smallest_eigenpairs_with(
            &l,
            2,
            &opts,
            Some(&cold[1].vector),
            &mec_obs::NullSink,
            &mut scratch,
        )
        .unwrap();
        assert!((warm[1].value - cold[1].value).abs() < 1e-7);
        let dot_abs = dot(&warm[1].vector, &cold[1].vector).abs();
        assert!((dot_abs - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mismatched_or_zero_warm_seeds_fall_back_to_the_random_start() {
        let l = path_laplacian(50);
        let opts = LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        };
        let plain = smallest_eigenpairs(&l, 2, &opts).unwrap();
        let mut scratch = LanczosScratch::new();
        // a wrong length or an all-zero vector cannot seed the
        // recurrence: the solve is the unseeded one, bit for bit
        for bad in [vec![1.0; 7], vec![0.0; 50]] {
            let got = smallest_eigenpairs_with(
                &l,
                2,
                &opts,
                Some(&bad),
                &mec_obs::NullSink,
                &mut scratch,
            )
            .unwrap();
            for (a, b) in plain.iter().zip(&got) {
                assert_eq!(a.value.to_bits(), b.value.to_bits());
                assert_eq!(a.vector, b.vector);
            }
        }
    }

    #[test]
    fn empty_operator() {
        let l = CsrMatrix::from_triplets(0, &[]).unwrap();
        assert!(smallest_eigenpairs(&l, 0, &LanczosOptions::default())
            .unwrap()
            .is_empty());
    }
}
