//! Property tests: every parallel engine result must equal its serial
//! equivalent, for arbitrary data, partitionings and worker counts, and
//! the Lanczos eigensolver must agree with the dense reference on both
//! operator backends.

use mec_engine::{Cluster, ParallelCsr, ParallelLaplacian};
use mec_linalg::{
    householder_eigen, smallest_eigenpairs, CsrMatrix, DenseMatrix, LanczosOptions, SymOp,
};
use proptest::prelude::*;
use std::sync::Arc;

/// splitmix64: deterministic pseudo-random draws without a rand
/// dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A connected weighted graph on `n` nodes: a ring plus `n / 2`
/// pseudo-random chords, weights in `[0.5, 4]`.
fn connected_edges(n: usize, mut seed: u64) -> Vec<(usize, usize, f64)> {
    let weight = |s: &mut u64| 0.5 + (splitmix(s) % 8) as f64 / 2.0;
    let mut edges: Vec<(usize, usize, f64)> = (0..n)
        .map(|i| (i, (i + 1) % n, weight(&mut seed)))
        .collect();
    for _ in 0..n / 2 {
        let a = (splitmix(&mut seed) % n as u64) as usize;
        let b = (splitmix(&mut seed) % n as u64) as usize;
        if a != b {
            edges.push((a, b, weight(&mut seed)));
        }
    }
    edges
}

proptest! {
    // the dense reference is cubic in n: a few cases keep the debug
    // suite quick while still spanning the whole size range
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lanczos_matches_the_dense_reference_on_both_backends(
        n in 33usize..300,
        seed in 0u64..1000,
        blocks in 1usize..8,
    ) {
        let edges = connected_edges(n, seed);
        let serial = CsrMatrix::laplacian_from_edges(n, &edges).unwrap();
        let (dense, _) = householder_eigen(&DenseMatrix::from_op(&serial)).unwrap();
        let tol = 1e-8 * dense[n - 1].abs().max(1.0);
        let cluster = Arc::new(Cluster::new(2).unwrap());
        let parallel = ParallelLaplacian::from_edges(cluster, n, &edges, blocks).unwrap();
        let opts = LanczosOptions::default();
        for pairs in [
            smallest_eigenpairs(&serial, 2, &opts).unwrap(),
            smallest_eigenpairs(&parallel, 2, &opts).unwrap(),
        ] {
            for (pair, want) in pairs.iter().zip(&dense) {
                prop_assert!(
                    (pair.value - want).abs() <= tol,
                    "n {n}: lanczos {} vs dense {want}", pair.value
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stage_results_keep_input_order_under_contention(
        n in 1usize..150,
        workers in 1usize..8,
    ) {
        let cluster = Cluster::new(workers).unwrap();
        let out = cluster
            .run_stage((0..n).collect(), |i, x: usize| {
                // jitter to shuffle completion order
                if x.is_multiple_of(3) {
                    std::thread::yield_now();
                }
                (i, x * x)
            })
            .unwrap();
        for (i, (idx, sq)) in out.into_iter().enumerate() {
            prop_assert_eq!(i, idx);
            prop_assert_eq!(sq, i * i);
        }
    }

    #[test]
    fn parallel_laplacian_matches_serial_for_any_blocking(
        n in 2usize..60,
        blocks in 1usize..10,
        seed in 0u64..200,
    ) {
        // ring + chords graph (the filter drops self-loops; the chord
        // never is one because n / 2 > 0 whenever it is pushed)
        let mut edges: Vec<(usize, usize, f64)> = (0..n)
            .map(|i| (i, (i + 1) % n, 1.0 + ((seed as usize + i) % 5) as f64))
            .filter(|(a, b, _)| a != b)
            .collect();
        if n > 4 {
            edges.push((0, n / 2, 2.5));
        }
        let serial = CsrMatrix::laplacian_from_edges(n, &edges).unwrap();
        let cluster = Arc::new(Cluster::new(3).unwrap());
        let par = ParallelLaplacian::from_edges(cluster, n, &edges, blocks).unwrap();
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 + seed as usize) % 11) as f64 - 5.0).collect();
        let mut ys = vec![0.0; n];
        let mut yp = vec![0.0; n];
        serial.apply(&x, &mut ys);
        par.apply(&x, &mut yp);
        for (a, b) in ys.iter().zip(&yp) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn parallel_csr_matches_serial_for_any_blocking(
        n in 1usize..50,
        blocks in 1usize..8,
    ) {
        let mut triplets = vec![];
        for i in 0..n {
            triplets.push((i, i, 2.0 + (i % 3) as f64));
            if i + 1 < n {
                triplets.push((i, i + 1, -1.0));
                triplets.push((i + 1, i, -1.0));
            }
        }
        let m = CsrMatrix::from_triplets(n, &triplets).unwrap();
        let cluster = Arc::new(Cluster::new(2).unwrap());
        let par = ParallelCsr::new(cluster, &m, blocks).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut ys = vec![0.0; n];
        let mut yp = vec![0.0; n];
        m.apply(&x, &mut ys);
        par.apply(&x, &mut yp);
        for (a, b) in ys.iter().zip(&yp) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }
}
