//! Nonlinear solvers: Levenberg–Marquardt for least-squares parameter
//! extraction and bisection for monotone thresholds.
//!
//! The compact-model extractor drives [`levenberg_marquardt`] with
//! finite-difference Jacobians over a handful of parameters; the cell
//! characterizer's setup, hold and pulse-width searches drive
//! [`bisect_threshold`].

use crate::dense::{norm2, LuFactors, Matrix};
use crate::guard::{check_finite, check_finite_scalar};
use crate::{NumericsError, Result};

/// Options for Levenberg–Marquardt.
#[derive(Debug, Clone, Copy)]
pub struct LmOptions {
    /// Maximum LM iterations.
    pub max_iter: usize,
    /// Stop when the relative reduction of the cost falls below this.
    pub cost_tol: f64,
    /// Initial damping parameter.
    pub lambda0: f64,
    /// Relative step used for forward-difference Jacobians.
    pub fd_step: f64,
}

impl Default for LmOptions {
    fn default() -> Self {
        LmOptions {
            max_iter: 200,
            cost_tol: 1e-12,
            lambda0: 1e-3,
            fd_step: 1e-6,
        }
    }
}

/// Result of a Levenberg–Marquardt fit.
#[derive(Debug, Clone)]
pub struct LmSolution {
    /// Fitted parameter vector.
    pub params: Vec<f64>,
    /// Final cost `0.5 · ‖r‖²`.
    pub cost: f64,
    /// Iterations consumed.
    pub iterations: usize,
}

/// Levenberg–Marquardt least squares: minimizes `0.5‖r(p)‖²` over `p`.
///
/// `residuals(p)` returns the residual vector; the Jacobian is estimated by
/// forward differences (the compact model has 3–5 parameters, so this costs
/// only a few extra evaluations per iteration). Parameters can be bounded
/// with `lower`/`upper` (clamped after each step).
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] if the bounds are malformed,
/// [`NumericsError::NonFinite`] if the initial guess, bounds, or initial
/// cost contain NaN/Inf, and [`NumericsError::NoConvergence`] if no
/// damping value yields progress.
pub fn levenberg_marquardt<F>(
    p0: Vec<f64>,
    lower: &[f64],
    upper: &[f64],
    opts: &LmOptions,
    mut residuals: F,
) -> Result<LmSolution>
where
    F: FnMut(&[f64]) -> Vec<f64>,
{
    let np = p0.len();
    check_finite("lm.p0", &p0)?;
    check_finite("lm.lower", lower)?;
    check_finite("lm.upper", upper)?;
    if lower.len() != np || upper.len() != np {
        return Err(NumericsError::InvalidArgument {
            context: "bounds must match parameter count".into(),
        });
    }
    if lower.iter().zip(upper).any(|(l, u)| l > u) {
        return Err(NumericsError::InvalidArgument {
            context: "lower bound exceeds upper bound".into(),
        });
    }
    let clamp = |p: &mut [f64]| {
        for ((pi, &l), &u) in p.iter_mut().zip(lower).zip(upper) {
            *pi = pi.clamp(l, u);
        }
    };

    let mut p = p0;
    clamp(&mut p);
    let mut r = residuals(&p);
    let m = r.len();
    // A NaN initial cost would make every `tcost < cost` comparison false
    // and silently return the unfitted guess as a "solution".
    let mut cost = check_finite_scalar("lm.initial_cost", 0.5 * norm2(&r).powi(2))?;
    let mut lambda = opts.lambda0;
    // One factorization and one step buffer serve every damping trial.
    let mut factors = LuFactors::default();
    let mut dp = Vec::new();

    for it in 1..=opts.max_iter {
        // Forward-difference Jacobian: J[i][j] = d r_i / d p_j.
        let mut jac = Matrix::zeros(m, np);
        for j in 0..np {
            let h = opts.fd_step * p[j].abs().max(1e-8);
            let mut pp = p.clone();
            pp[j] = (pp[j] + h).min(upper[j]);
            let actual_h = pp[j] - p[j];
            let rp = if actual_h.abs() < 1e-300 {
                // At the upper bound: step backwards instead.
                let mut pm = p.clone();
                pm[j] = (pm[j] - h).max(lower[j]);
                let hb = p[j] - pm[j];
                let rm = residuals(&pm);
                for i in 0..m {
                    jac.set(i, j, (r[i] - rm[i]) / hb.max(1e-300));
                }
                continue;
            } else {
                residuals(&pp)
            };
            for i in 0..m {
                jac.set(i, j, (rp[i] - r[i]) / actual_h);
            }
        }
        // Normal equations with LM damping: (JᵀJ + λ diag(JᵀJ)) dp = -Jᵀ r.
        let jt = jac.transpose();
        let jtj = jt.matmul(&jac);
        let neg_jtr: Vec<f64> = jt.matvec(&r).iter().map(|v| -v).collect();
        let mut a = jtj.clone();
        let mut improved = false;
        for _ in 0..12 {
            a.as_mut_slice().copy_from_slice(jtj.as_slice());
            for d in 0..np {
                let diag = jtj.get(d, d).max(1e-12);
                a.add_at(d, d, lambda * diag);
            }
            if a.lu_factor_into(&mut factors).is_err() {
                lambda *= 10.0;
                continue;
            }
            factors.solve_into(&neg_jtr, &mut dp)?;
            let mut trial = p.clone();
            for (ti, di) in trial.iter_mut().zip(&dp) {
                *ti += di;
            }
            clamp(&mut trial);
            let tr = residuals(&trial);
            let tcost = 0.5 * norm2(&tr).powi(2);
            if tcost < cost {
                let rel = (cost - tcost) / cost.max(1e-300);
                p = trial;
                r = tr;
                cost = tcost;
                lambda = (lambda * 0.3).max(1e-12);
                improved = true;
                if rel < opts.cost_tol {
                    return Ok(LmSolution {
                        params: p,
                        cost,
                        iterations: it,
                    });
                }
                break;
            }
            lambda *= 10.0;
        }
        if !improved {
            // Stalled: current point is the (local) optimum at this damping.
            return Ok(LmSolution {
                params: p,
                cost,
                iterations: it,
            });
        }
    }
    Ok(LmSolution {
        params: p,
        cost,
        iterations: opts.max_iter,
    })
}

/// Scalar bisection on a monotone predicate: returns the smallest `x` in
/// `[lo, hi]` (to within `tol`) where `pred(x)` is `true`.
///
/// The cell characterizer uses this for minimum setup/hold/pulse-width
/// searches, where `pred` is "the flip-flop still captures correctly".
///
/// # Errors
///
/// Returns [`NumericsError::NonFinite`] if `lo`, `hi`, or `tol` is
/// NaN/Inf (a NaN bracket would terminate the loop immediately and
/// report `hi` as the threshold), and [`NumericsError::InvalidArgument`]
/// if the interval is inverted or `pred(hi)` is `false` (no passing
/// point in range) — the interval must bracket the threshold.
pub fn bisect_threshold<F>(lo: f64, hi: f64, tol: f64, mut pred: F) -> Result<f64>
where
    F: FnMut(f64) -> bool,
{
    check_finite_scalar("bisect.lo", lo)?;
    check_finite_scalar("bisect.hi", hi)?;
    check_finite_scalar("bisect.tol", tol)?;
    if lo > hi {
        return Err(NumericsError::InvalidArgument {
            context: format!("inverted bracket [{lo}, {hi}]"),
        });
    }
    if !pred(hi) {
        return Err(NumericsError::InvalidArgument {
            context: format!("predicate false at upper bracket {hi}"),
        });
    }
    if pred(lo) {
        return Ok(lo);
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_fits_exponential_decay() {
        // y = a · exp(-b t) with a=2, b=0.5.
        let ts: Vec<f64> = (0..20).map(|i| i as f64 * 0.3).collect();
        let ys: Vec<f64> = ts.iter().map(|t| 2.0 * (-0.5 * t).exp()).collect();
        let sol = levenberg_marquardt(
            vec![1.0, 1.0],
            &[0.01, 0.01],
            &[10.0, 10.0],
            &LmOptions::default(),
            |p| {
                ts.iter()
                    .zip(&ys)
                    .map(|(t, y)| p[0] * (-p[1] * t).exp() - y)
                    .collect()
            },
        )
        .unwrap();
        assert!((sol.params[0] - 2.0).abs() < 1e-4, "{:?}", sol.params);
        assert!((sol.params[1] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn lm_respects_bounds() {
        // Unconstrained optimum at p = -1; bound at 0.
        let sol = levenberg_marquardt(vec![2.0], &[0.0], &[5.0], &LmOptions::default(), |p| {
            vec![p[0] + 1.0]
        })
        .unwrap();
        assert!(sol.params[0] >= 0.0);
        assert!(sol.params[0] < 1e-6, "{:?}", sol.params);
    }

    #[test]
    fn lm_rejects_bad_bounds() {
        let r = levenberg_marquardt(vec![0.0], &[1.0], &[0.0], &LmOptions::default(), |_| {
            vec![0.0]
        });
        assert!(matches!(r, Err(NumericsError::InvalidArgument { .. })));
    }

    #[test]
    fn bisect_finds_threshold() {
        let x = bisect_threshold(0.0, 10.0, 1e-9, |v| v >= std::f64::consts::PI).unwrap();
        assert!((x - std::f64::consts::PI).abs() < 1e-8);
    }

    #[test]
    fn bisect_rejects_unbracketed() {
        assert!(bisect_threshold(0.0, 1.0, 1e-6, |v| v > 2.0).is_err());
    }

    #[test]
    fn lm_rejects_non_finite_inputs() {
        let opts = LmOptions::default();
        let r = levenberg_marquardt(vec![f64::NAN], &[0.0], &[1.0], &opts, |_| vec![0.0]);
        assert!(matches!(r, Err(NumericsError::NonFinite { .. })));
        let r = levenberg_marquardt(vec![0.5], &[f64::NEG_INFINITY], &[1.0], &opts, |_| {
            vec![0.0]
        });
        assert!(matches!(r, Err(NumericsError::NonFinite { .. })));
        // NaN initial cost would otherwise return the unfitted guess as Ok.
        let r = levenberg_marquardt(vec![0.5], &[0.0], &[1.0], &opts, |_| vec![f64::NAN]);
        assert!(matches!(r, Err(NumericsError::NonFinite { .. })));
    }

    #[test]
    fn bisect_rejects_non_finite_bracket() {
        assert!(bisect_threshold(f64::NAN, 1.0, 1e-6, |_| true).is_err());
        assert!(bisect_threshold(0.0, f64::INFINITY, 1e-6, |_| true).is_err());
        assert!(bisect_threshold(0.0, 1.0, f64::NAN, |_| true).is_err());
        assert!(bisect_threshold(1.0, 0.0, 1e-6, |_| true).is_err());
    }
}
