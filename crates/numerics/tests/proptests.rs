//! Property-based tests of the numerical substrate: solver consistency,
//! sparse-format equivalence and metric invariants over randomized
//! inputs.

use proptest::prelude::*;
use stco_numerics::dense::{norm2, Matrix};
use stco_numerics::gemm::BLOCK_MIN_FLOPS;
use stco_numerics::interp::Bilinear;
use stco_numerics::solve::{bicgstab, IterOptions};
use stco_numerics::sparse::CsrMatrix;
use stco_numerics::stats;

/// Strategy: a strictly diagonally dominant matrix (always nonsingular,
/// and friendly to every solver in the crate).
fn dominant_matrix(n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-1.0..1.0f64, n), n).prop_map(move |mut rows| {
        for (i, row) in rows.iter_mut().enumerate() {
            let off: f64 = row
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, v)| v.abs())
                .sum();
            row[i] = off + 1.0;
        }
        rows
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_residual_is_small(rows in dominant_matrix(6), b in prop::collection::vec(-10.0..10.0f64, 6)) {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&refs);
        let x = a.lu_solve(&b).expect("dominant matrices are nonsingular");
        let ax = a.matvec(&x);
        let res: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        prop_assert!(norm2(&res) < 1e-8 * (1.0 + norm2(&b)));
    }

    #[test]
    fn bicgstab_agrees_with_lu(rows in dominant_matrix(6), b in prop::collection::vec(-5.0..5.0f64, 6)) {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let dense = Matrix::from_rows(&refs);
        let mut triplets = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        let sparse = CsrMatrix::from_triplets(6, 6, &triplets);
        let x_lu = dense.lu_solve(&b).expect("nonsingular");
        let x_it = bicgstab(&sparse, &b, &IterOptions { tol: 1e-12, max_iter: 2000 })
            .expect("dominant systems converge");
        for (a_, b_) in x_lu.iter().zip(&x_it.x) {
            prop_assert!((a_ - b_).abs() < 1e-6, "{a_} vs {b_}");
        }
    }

    #[test]
    fn csr_matvec_matches_dense(triplets in prop::collection::vec((0usize..8, 0usize..8, -5.0..5.0f64), 1..40),
                                x in prop::collection::vec(-2.0..2.0f64, 8)) {
        let csr = CsrMatrix::from_triplets(8, 8, &triplets);
        csr.validate().expect("construction invariants hold");
        let dense = csr.to_dense();
        let ys = csr.matvec(&x);
        let yd = dense.matvec(&x);
        for (a, b) in ys.iter().zip(&yd) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn csr_transpose_involutive(triplets in prop::collection::vec((0usize..6, 0usize..9, -5.0..5.0f64), 0..30)) {
        let csr = CsrMatrix::from_triplets(6, 9, &triplets);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn matmul_is_associative(a in prop::collection::vec(-2.0..2.0f64, 6),
                             b in prop::collection::vec(-2.0..2.0f64, 6),
                             c in prop::collection::vec(-2.0..2.0f64, 6)) {
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 2, b);
        let mc = Matrix::from_vec(2, 3, c);
        let left = ma.matmul(&mb).matmul(&mc);
        let right = ma.matmul(&mb.matmul(&mc));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn gemm_nt_into_bitwise_matches_transpose_matmul(a in prop::collection::vec(-10.0..10.0f64, 12),
                                                     b in prop::collection::vec(-10.0..10.0f64, 20)) {
        let ma = Matrix::from_vec(3, 4, a);
        let mb = Matrix::from_vec(5, 4, b);
        let reference = ma.matmul(&mb.transpose());
        let mut out = Matrix::zeros(3, 5);
        ma.gemm_nt_into(&mb, &mut out);
        for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gemm_tn_into_bitwise_matches_transpose_matmul(a in prop::collection::vec(-10.0..10.0f64, 12),
                                                     b in prop::collection::vec(-10.0..10.0f64, 20)) {
        let ma = Matrix::from_vec(4, 3, a);
        let mb = Matrix::from_vec(4, 5, b);
        let reference = ma.transpose().matmul(&mb);
        let mut out = Matrix::zeros(3, 5);
        ma.gemm_tn_into(&mb, &mut out);
        for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gemm_into_bitwise_matches_matmul(a in prop::collection::vec(-10.0..10.0f64, 12),
                                        b in prop::collection::vec(-10.0..10.0f64, 16)) {
        let ma = Matrix::from_vec(3, 4, a);
        let mb = Matrix::from_vec(4, 4, b);
        let reference = ma.matmul(&mb);
        let mut out = Matrix::zeros(3, 4);
        ma.gemm_into(&mb, &mut out);
        for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn blocked_gemm_nn_bitwise_matches_naive_oracle(
        shape in (1usize..20, 1usize..20, 0usize..20),
        seed in 1u64..u64::MAX,
        fill in -3.0..3.0f64,
    ) {
        // Odd/tail shapes well below the dispatch threshold, exercised
        // through the always-blocked entry point, accumulating into a
        // nonzero out.
        let (m, n, k) = shape;
        let mut rng = stco_numerics::rng::Xorshift::new(seed | 1);
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.uniform_in(-5.0, 5.0)).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| rng.uniform_in(-5.0, 5.0)).collect());
        let mut naive = Matrix::full(m, n, fill);
        let mut blocked = naive.clone();
        a.gemm_into_naive(&b, &mut naive);
        a.gemm_into_blocked(&b, &mut blocked);
        for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn single_column_gemm_bitwise_matches_naive_oracle(
        shape in (1usize..BLOCK_MIN_FLOPS / 16, 0usize..40),
        seed in 1u64..u64::MAX,
        fill in -3.0..3.0f64,
    ) {
        // `rhs.cols() == 1` takes the row-dot kernel, which is checked
        // before the size rule: m·k spans both sides of BLOCK_MIN_FLOPS
        // (up to ~2.4× it; the attention-score shape 1171×24 sits just
        // below it), k = 0 included, accumulating into a nonzero out.
        let (m, k) = shape;
        let mut rng = stco_numerics::rng::Xorshift::new(seed | 1);
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.uniform_in(-5.0, 5.0)).collect());
        let b = Matrix::from_vec(k, 1, (0..k).map(|_| rng.uniform_in(-5.0, 5.0)).collect());
        let mut naive = Matrix::full(m, 1, fill);
        let mut dispatched = naive.clone();
        a.gemm_into_naive(&b, &mut naive);
        a.gemm_into(&b, &mut dispatched);
        for (x, y) in dispatched.as_slice().iter().zip(naive.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn blocked_gemm_nt_bitwise_matches_naive_oracle(
        shape in (1usize..20, 1usize..20, 0usize..20),
        seed in 1u64..u64::MAX,
        fill in -3.0..3.0f64,
    ) {
        let (m, n, k) = shape;
        let mut rng = stco_numerics::rng::Xorshift::new(seed | 1);
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.uniform_in(-5.0, 5.0)).collect());
        let b = Matrix::from_vec(n, k, (0..n * k).map(|_| rng.uniform_in(-5.0, 5.0)).collect());
        let mut naive = Matrix::full(m, n, fill);
        let mut blocked = naive.clone();
        a.gemm_nt_into_naive(&b, &mut naive);
        a.gemm_nt_into_blocked(&b, &mut blocked);
        for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn blocked_gemm_tn_bitwise_matches_naive_oracle(
        shape in (1usize..20, 1usize..20, 1usize..20),
        seed in 1u64..u64::MAX,
        fill in -3.0..3.0f64,
    ) {
        let (m, n, k) = shape;
        let mut rng = stco_numerics::rng::Xorshift::new(seed | 1);
        let a = Matrix::from_vec(k, m, (0..k * m).map(|_| rng.uniform_in(-5.0, 5.0)).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| rng.uniform_in(-5.0, 5.0)).collect());
        let mut naive = Matrix::full(m, n, fill);
        let mut blocked = naive.clone();
        a.gemm_tn_into_naive(&b, &mut naive);
        a.gemm_tn_into_blocked(&b, &mut blocked);
        for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn blocked_gemm_above_threshold_dispatch_is_invisible(seed in 1u64..u64::MAX) {
        // GAT-shaped product above the dispatch threshold: the public
        // gemm_into (which takes the blocked path here) must be
        // bitwise-identical to the retained naive oracle.
        let (m, n, k) = (64usize, 32usize, 32usize);
        let mut rng = stco_numerics::rng::Xorshift::new(seed | 1);
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.uniform_in(-5.0, 5.0)).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| rng.uniform_in(-5.0, 5.0)).collect());
        let mut naive = Matrix::zeros(m, n);
        let mut dispatched = Matrix::zeros(m, n);
        a.gemm_into_naive(&b, &mut naive);
        a.gemm_into(&b, &mut dispatched);
        for (x, y) in dispatched.as_slice().iter().zip(naive.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn lu_factor_into_and_solve_into_bitwise_match(rows in dominant_matrix(6),
                                                   b in prop::collection::vec(-10.0..10.0f64, 6)) {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&refs);
        let reference = a.lu_solve(&b).expect("dominant matrices are nonsingular");
        let mut factors = stco_numerics::dense::LuFactors::default();
        // Factor a throwaway system first so the second factorization
        // exercises genuine buffer reuse.
        Matrix::identity(4).lu_factor_into(&mut factors).expect("identity factors");
        a.lu_factor_into(&mut factors).expect("dominant matrices are nonsingular");
        let mut x = vec![0.0; 2];
        factors.solve_into(&b, &mut x).expect("solves");
        prop_assert_eq!(x.len(), reference.len());
        for (p, q) in x.iter().zip(&reference) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn bilinear_interpolates_within_hull(vals in prop::collection::vec(0.0..10.0f64, 9),
                                         x in 0.0..2.0f64, y in 0.0..2.0f64) {
        let t = Bilinear::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0], vals.clone()).expect("valid grid");
        let v = t.eval(x, y);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Inside the grid, bilinear interpolation cannot overshoot.
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
    }

    #[test]
    fn r_squared_of_shifted_prediction_decreases(target in prop::collection::vec(-5.0..5.0f64, 8),
                                                 shift in 0.5..3.0f64) {
        // Guard: needs variance.
        let mean = target.iter().sum::<f64>() / target.len() as f64;
        let var: f64 = target.iter().map(|t| (t - mean) * (t - mean)).sum();
        prop_assume!(var > 1e-3);
        let perfect = stats::r_squared(&target, &target).expect("defined");
        let shifted: Vec<f64> = target.iter().map(|t| t + shift).collect();
        let worse = stats::r_squared(&shifted, &target).expect("defined");
        prop_assert!((perfect - 1.0).abs() < 1e-12);
        prop_assert!(worse < perfect);
    }

    #[test]
    fn standardizer_round_trip(data in prop::collection::vec(-100.0..100.0f64, 12)) {
        let s = stats::Standardizer::fit(&data, 3).expect("fits");
        let mut z = data.clone();
        s.apply(&mut z);
        s.invert(&mut z);
        for (a, b) in z.iter().zip(&data) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn mape_is_scale_invariant(target in prop::collection::vec(0.5..100.0f64, 6), scale in 0.1..10.0f64) {
        let pred: Vec<f64> = target.iter().map(|t| t * 1.1).collect();
        let m1 = stats::mape(&pred, &target, 0.0).expect("defined");
        let scaled_t: Vec<f64> = target.iter().map(|t| t * scale).collect();
        let scaled_p: Vec<f64> = pred.iter().map(|p| p * scale).collect();
        let m2 = stats::mape(&scaled_p, &scaled_t, 0.0).expect("defined");
        prop_assert!((m1 - m2).abs() < 1e-9);
        prop_assert!((m1 - 10.0).abs() < 1e-9);
    }
}
