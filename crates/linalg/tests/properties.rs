//! Property tests: the iterative solvers must agree with the dense
//! Jacobi reference on arbitrary symmetric matrices, and Laplacian
//! spectra must satisfy their structural guarantees.

use mec_linalg::{
    jacobi_eigen, smallest_eigenpairs, tridiagonal_eigen, CsrMatrix, DenseMatrix, JacobiOptions,
    LanczosOptions, SymOp,
};
use proptest::prelude::*;

/// Random symmetric dense matrix of dimension 2..12.
fn arb_symmetric() -> impl Strategy<Value = DenseMatrix> {
    (2usize..12).prop_flat_map(|n| {
        proptest::collection::vec(-5.0f64..5.0, n * n).prop_map(move |raw| {
            let mut m = DenseMatrix::zeros(n);
            for i in 0..n {
                for j in i..n {
                    let v = raw[i * n + j];
                    m.set(i, j, v);
                    m.set(j, i, v);
                }
            }
            m
        })
    })
}

/// Random connected weighted graph edge list (path backbone + extras).
fn arb_graph_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (3usize..40).prop_flat_map(|n| {
        let backbone: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let extras = proptest::collection::vec(((0..n), (0..n)), 0..2 * n);
        let weights = proptest::collection::vec(0.1f64..10.0, 3 * n);
        (Just(backbone), extras, weights).prop_map(move |(bb, ex, ws)| {
            let mut edges = vec![];
            let mut wi = 0;
            let mut seen = std::collections::HashSet::new();
            for (a, b) in bb.into_iter().chain(ex) {
                if a == b {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                if !seen.insert(key) {
                    continue;
                }
                edges.push((key.0, key.1, ws[wi % ws.len()]));
                wi += 1;
            }
            (n, edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jacobi_reproduces_trace_and_residuals(m in arb_symmetric()) {
        let n = m.dim();
        let (vals, vecs) = jacobi_eigen(&m, &JacobiOptions::default()).unwrap();
        let trace: f64 = (0..n).map(|i| m.get(i, i)).sum();
        prop_assert!((vals.iter().sum::<f64>() - trace).abs() < 1e-7 * (1.0 + trace.abs()));
        for (lam, v) in vals.iter().zip(&vecs) {
            let mut y = vec![0.0; n];
            m.apply(v, &mut y);
            let res: f64 = y.iter().zip(v).map(|(a, b)| (a - lam * b).powi(2)).sum::<f64>().sqrt();
            prop_assert!(res < 1e-7, "residual {res}");
        }
    }

    #[test]
    fn laplacian_lambda1_is_zero_and_lambda2_nonnegative((n, edges) in arb_graph_edges()) {
        let l = CsrMatrix::laplacian_from_edges(n, &edges).unwrap();
        prop_assert!(l.is_symmetric());
        let pairs = smallest_eigenpairs(&l, 2, &LanczosOptions::default()).unwrap();
        prop_assert!(pairs[0].value.abs() < 1e-7, "lambda1 = {}", pairs[0].value);
        prop_assert!(pairs[1].value > -1e-9, "lambda2 = {}", pairs[1].value);
        // connected backbone graph: lambda2 strictly positive
        prop_assert!(pairs[1].value > 1e-9);
        // Fiedler vector is orthogonal to the constant vector
        let s: f64 = pairs[1].vector.iter().sum();
        prop_assert!(s.abs() < 1e-5, "Fiedler not balanced: {s}");
    }

    #[test]
    fn lanczos_agrees_with_jacobi_on_dense((n, edges) in arb_graph_edges()) {
        let l = CsrMatrix::laplacian_from_edges(n, &edges).unwrap();
        let dense = DenseMatrix::from_op(&l);
        let (jvals, _) = jacobi_eigen(&dense, &JacobiOptions::default()).unwrap();
        let iter_opts = LanczosOptions { dense_cutoff: 0, ..LanczosOptions::default() };
        let pairs = smallest_eigenpairs(&l, 2, &iter_opts).unwrap();
        prop_assert!((pairs[0].value - jvals[0]).abs() < 1e-6);
        prop_assert!((pairs[1].value - jvals[1]).abs() < 1e-6,
            "lanczos {} vs jacobi {}", pairs[1].value, jvals[1]);
    }

    #[test]
    fn tridiagonal_matches_jacobi(diag in proptest::collection::vec(-3.0f64..3.0, 2..10),
                                  raw_off in proptest::collection::vec(-2.0f64..2.0, 9)) {
        let n = diag.len();
        let off = &raw_off[..n - 1];
        let t = tridiagonal_eigen(&diag, off).unwrap();
        let mut dense = DenseMatrix::zeros(n);
        for i in 0..n {
            dense.set(i, i, diag[i]);
            if i + 1 < n {
                dense.set(i, i + 1, off[i]);
                dense.set(i + 1, i, off[i]);
            }
        }
        let (jvals, _) = jacobi_eigen(&dense, &JacobiOptions::default()).unwrap();
        for (a, b) in t.values.iter().zip(&jvals) {
            prop_assert!((a - b).abs() < 1e-8, "tql2 {a} vs jacobi {b}");
        }
    }
}
