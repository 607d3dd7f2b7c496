//! Property-based tests of the numeric-safety guards: `nonlinear` and
//! `interp` entrypoints must reject any input containing NaN/Inf with a
//! typed error — never panic, never return a poisoned "solution".

use proptest::prelude::*;
use stco_numerics::guard::{check_finite, FiniteSlice};
use stco_numerics::interp::{try_lerp_axis, Bilinear};
use stco_numerics::nonlinear::{bisect_threshold, levenberg_marquardt, LmOptions};
use stco_numerics::NumericsError;

/// The three poison values every guard must catch.
const POISONS: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// Strategy: a finite vector with exactly one element replaced by a
/// poison value (NaN, +Inf, or -Inf) at a random position.
fn poisoned_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    (prop::collection::vec(-10.0..10.0f64, n), 0..n, 0..3usize).prop_map(|(mut xs, i, pi)| {
        xs[i] = POISONS[pi];
        xs
    })
}

/// Strategy: a strictly increasing finite axis of `n` points.
fn increasing_axis(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01..1.0f64, n).prop_map(|steps| {
        let mut acc = 0.0;
        steps
            .iter()
            .map(|s| {
                acc += s;
                acc
            })
            .collect()
    })
}

fn is_non_finite_err<T: std::fmt::Debug>(r: Result<T, NumericsError>) -> bool {
    matches!(r, Err(NumericsError::NonFinite { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn check_finite_rejects_every_poisoned_vector(xs in poisoned_vec(8)) {
        prop_assert!(is_non_finite_err(check_finite("xs", &xs)));
        prop_assert!(is_non_finite_err(FiniteSlice::new("xs", &xs)));
    }

    #[test]
    fn check_finite_accepts_every_finite_vector(xs in prop::collection::vec(-1e12..1e12f64, 8)) {
        prop_assert!(check_finite("xs", &xs).is_ok());
    }

    #[test]
    fn lm_rejects_poisoned_guess(p0 in poisoned_vec(3)) {
        let r = levenberg_marquardt(
            p0,
            &[-100.0; 3],
            &[100.0; 3],
            &LmOptions::default(),
            |p| p.to_vec(),
        );
        prop_assert!(is_non_finite_err(r));
    }

    #[test]
    fn lm_rejects_poisoned_residuals(p0 in prop::collection::vec(-5.0..5.0f64, 2)) {
        // Residual callback always returns NaN: the fit must error, not
        // return the unfitted guess as an Ok solution.
        let r = levenberg_marquardt(
            p0,
            &[-100.0; 2],
            &[100.0; 2],
            &LmOptions::default(),
            |_| vec![f64::NAN, f64::NAN],
        );
        prop_assert!(is_non_finite_err(r));
    }

    #[test]
    fn bisect_rejects_poisoned_bracket(
        lo in -10.0..10.0f64,
        pi in 0..3usize,
    ) {
        let poison = POISONS[pi];
        prop_assert!(is_non_finite_err(bisect_threshold(poison, lo + 1.0, 1e-9, |_| true)));
        prop_assert!(is_non_finite_err(bisect_threshold(lo, poison, 1e-9, |_| true)));
        prop_assert!(is_non_finite_err(bisect_threshold(lo, lo + 1.0, poison, |_| true)));
    }

    #[test]
    fn try_lerp_rejects_poisoned_inputs(
        xs in increasing_axis(5),
        ys in prop::collection::vec(-5.0..5.0f64, 5),
        bad_ys in poisoned_vec(5),
        i in 0..5usize,
        pi in 0..3usize,
    ) {
        let poison = POISONS[pi];
        let mut bad_xs = xs.clone();
        bad_xs[i] = poison;
        prop_assert!(is_non_finite_err(try_lerp_axis(&bad_xs, &ys, 0.5)));
        prop_assert!(is_non_finite_err(try_lerp_axis(&xs, &bad_ys, 0.5)));
        prop_assert!(is_non_finite_err(try_lerp_axis(&xs, &ys, poison)));
        // The clean version of the same inputs is accepted.
        prop_assert!(try_lerp_axis(&xs, &ys, 0.5).is_ok());
    }

    #[test]
    fn bilinear_rejects_poisoned_tables(
        xs in increasing_axis(3),
        ys in increasing_axis(3),
        values in poisoned_vec(9),
    ) {
        prop_assert!(is_non_finite_err(Bilinear::new(xs, ys, values)));
    }

    #[test]
    fn bilinear_try_eval_rejects_poisoned_queries(
        xs in increasing_axis(3),
        ys in increasing_axis(3),
        values in prop::collection::vec(-5.0..5.0f64, 9),
        q in -2.0..2.0f64,
        pi in 0..3usize,
    ) {
        let poison = POISONS[pi];
        let t = Bilinear::new(xs, ys, values).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(is_non_finite_err(t.try_eval(poison, q)));
        prop_assert!(is_non_finite_err(t.try_eval(q, poison)));
        // Finite queries on a finite table yield finite results.
        let v = t.try_eval(q, q).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(v.is_finite());
    }
}
