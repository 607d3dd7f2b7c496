//! Property-based tests of the numerical substrate: solver consistency,
//! sparse-format equivalence and metric invariants over randomized
//! inputs.

use proptest::prelude::*;
use stco_numerics::dense::{dot, norm2, LuFactors, Matrix};
use stco_numerics::gemm::BLOCK_MIN_FLOPS;
use stco_numerics::interp::Bilinear;
use stco_numerics::rng::Xorshift;
use stco_numerics::solve::{bicgstab, IterOptions};
use stco_numerics::sparse::CsrMatrix;
use stco_numerics::stats;
use stco_numerics::NumericsError;

/// The dense elimination `Matrix::lu_factor_into` ran before it skipped
/// exactly-zero work, kept as the oracle of the zero-skipping kernel:
/// the packed factors and the row permutation, or the step whose pivot
/// broke down.
fn reference_lu_factor(a: &[f64], n: usize) -> Result<(Vec<f64>, Vec<usize>), usize> {
    let mut lu = a.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        let mut p = k;
        let mut max = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > max {
                max = v;
                p = i;
            }
        }
        if max < 1e-300 {
            return Err(k);
        }
        if p != k {
            for j in 0..n {
                lu.swap(k * n + j, p * n + j);
            }
            perm.swap(k, p);
        }
        let pivot = lu[k * n + k];
        for i in (k + 1)..n {
            let factor = lu[i * n + k] / pivot;
            lu[i * n + k] = factor;
            for j in (k + 1)..n {
                lu[i * n + j] -= factor * lu[k * n + j];
            }
        }
    }
    Ok((lu, perm))
}

/// The substitutions of `LuFactors::solve_into` over the oracle's factors.
fn reference_solve(lu: &[f64], perm: &[usize], b: &[f64]) -> Vec<f64> {
    let n = perm.len();
    let mut x: Vec<f64> = perm.iter().map(|&p| b[p]).collect();
    for i in 1..n {
        let s = dot(&lu[i * n..i * n + i], &x[..i]);
        x[i] -= s;
    }
    for i in (0..n).rev() {
        let s = dot(&lu[i * n + i + 1..i * n + n], &x[i + 1..n]);
        x[i] = (x[i] - s) / lu[i * n + i];
    }
    x
}

/// A NaN whose quiet bit is clear, which arithmetic returns quieted.
const SIGNALING_NAN: f64 = f64::from_bits(0x7ff0_0000_0000_0001);

/// A stamp value: on a dyadic grid (so that elimination cancels entries
/// to exact zero) or, when `dyadic` is off, any magnitude in [0.01, 10).
fn stamp_value(rng: &mut Xorshift, dyadic: bool) -> f64 {
    if dyadic {
        (1 + rng.gen_range(8)) as f64 * 2f64.powi(rng.gen_range(5) as i32 - 2)
    } else {
        rng.uniform_in(0.01, 10.0)
    }
}

/// An MNA-shaped `n × n` system with `n` in 1..=30, stamped the way
/// `stco_spice` stamps one: each node gets a positive conductance to
/// ground, node pairs get symmetric conductances and a few get
/// transconductances, and each voltage source adds ±1 to a row and a
/// column of its own whose diagonal stays zero, which forces row swaps.
/// Some cases then scale part of one row into another (entries that
/// cancel to exact zero during elimination), and some plant −0.0, ±∞,
/// a quiet or signaling NaN, or a column whose pivot falls below 1e-300.
fn mna_system(rng: &mut Xorshift) -> (usize, Vec<f64>) {
    let sources = rng.gen_range(6);
    let nodes = (rng.gen_range(26)).max(usize::from(sources == 0));
    let n = nodes + sources;
    let dyadic = rng.chance(0.5);
    let mut m = vec![0.0; n * n];
    for a in 0..nodes {
        m[a * n + a] += stamp_value(rng, dyadic);
    }
    if nodes >= 2 {
        for _ in 0..rng.gen_range(2 * nodes) {
            let (a, b) = (rng.gen_range(nodes), rng.gen_range(nodes));
            if a == b {
                continue;
            }
            let g = stamp_value(rng, dyadic);
            m[a * n + a] += g;
            m[b * n + b] += g;
            m[a * n + b] -= g;
            m[b * n + a] -= g;
        }
        for _ in 0..rng.gen_range(nodes) {
            let (a, b) = (rng.gen_range(nodes), rng.gen_range(nodes));
            let (c, d) = (rng.gen_range(nodes), rng.gen_range(nodes));
            let gm = stamp_value(rng, dyadic);
            m[a * n + c] += gm;
            m[a * n + d] -= gm;
            m[b * n + c] -= gm;
            m[b * n + d] += gm;
        }
    }
    for s in 0..sources {
        let branch = nodes + s;
        if nodes > 0 {
            let a = rng.gen_range(nodes);
            m[a * n + branch] += 1.0;
            m[branch * n + a] += 1.0;
            if nodes > 1 && rng.chance(0.5) {
                let b = (a + 1 + rng.gen_range(nodes - 1)) % nodes;
                m[b * n + branch] -= 1.0;
                m[branch * n + b] -= 1.0;
            }
        }
    }
    if n >= 2 && rng.chance(0.3) {
        let (from, to) = (rng.gen_range(n), rng.gen_range(n));
        let scale = if rng.chance(0.5) { 2.0 } else { -0.5 };
        for j in 0..n {
            // Zeros stay +0.0: a −0.0 turns skipping off altogether.
            if rng.chance(0.5) && m[from * n + j] != 0.0 {
                m[to * n + j] = scale * m[from * n + j];
            }
        }
    }
    // One kind of special value per case, so that a −0.0 (which turns
    // skipping off for the whole factorization) does not hide an ∞.
    let planted = match rng.gen_range(8) {
        0 | 1 => Some(-0.0),
        2 => Some(f64::INFINITY),
        3 => Some(f64::NEG_INFINITY),
        4 => Some([f64::NAN, SIGNALING_NAN][rng.gen_range(2)]),
        5 => {
            let c = rng.gen_range(n);
            for i in 0..n {
                m[i * n + c] = 0.0;
            }
            let tiny = [1e-301, 2e-300, 5e-324][rng.gen_range(3)];
            m[c * n + c] = if rng.chance(0.5) { tiny } else { -tiny };
            None
        }
        _ => None,
    };
    if let Some(v) = planted {
        for _ in 0..1 + rng.gen_range(6) {
            m[rng.gen_range(n * n)] = v;
        }
    }
    (n, m)
}

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

/// Bits of every entry, so that −0.0 and NaN payloads compare too.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn zero_skipping_lu_bitwise_matches_dense_oracle(seed in 1u64..u64::MAX) {
        let mut rng = Xorshift::new(seed);
        // A different system first, so the factorization under test reuses
        // buffers that a larger or smaller one (or a failed one) left.
        let (warm_n, warm) = mna_system(&mut rng);
        let mut factors = LuFactors::default();
        let _ = Matrix::from_vec(warm_n, warm_n, warm).lu_factor_into(&mut factors);

        let (n, m) = mna_system(&mut rng);
        let got = Matrix::from_vec(n, n, m.clone()).lu_factor_into(&mut factors);
        let (lu, perm) = match reference_lu_factor(&m, n) {
            Err(pivot) => {
                prop_assert!(
                    matches!(got, Err(NumericsError::SingularMatrix { pivot: p }) if p == pivot),
                    "oracle breaks down at pivot {pivot}, kernel returned {got:?}"
                );
                return Ok(());
            }
            Ok(reference) => reference,
        };
        prop_assert!(got.is_ok(), "oracle factors, kernel returned {got:?}");
        let mut x = Vec::new();
        let mut check = |b: &[f64]| -> Result<(), TestCaseError> {
            factors.solve_into(b, &mut x).expect("square system");
            prop_assert_eq!(bits(&x), bits(&reference_solve(&lu, &perm, b)), "rhs {:?}", b);
            Ok(())
        };
        // Each unit vector, and its negation, whose zeros are −0.0.
        for i in 0..n {
            let mut e = vec![0.0; n];
            e[i] = 1.0;
            check(&e)?;
            let neg: Vec<f64> = e.iter().map(|v| -v).collect();
            check(&neg)?;
        }
        let b: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.uniform_in(-10.0, 10.0),
            })
            .collect();
        check(&b)?;
    }
}
