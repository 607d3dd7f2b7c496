//! Iterative Krylov solvers for the sparse systems the TCAD crate
//! assembles.
//!
//! The nonlinear Poisson Newton loop produces nonsymmetric Jacobians (the
//! Boltzmann carrier terms make the diagonal state-dependent), so the
//! solver is Jacobi-preconditioned [`bicgstab`].

use crate::dense::{axpy, dot, norm2};
use crate::sparse::CsrMatrix;
use crate::{NumericsError, Result};

/// Options controlling an iterative solve.
#[derive(Debug, Clone, Copy)]
pub struct IterOptions {
    /// Relative residual target: stop when `‖r‖ ≤ tol · ‖b‖`.
    pub tol: f64,
    /// Iteration cap before reporting [`NumericsError::NoConvergence`].
    pub max_iter: usize,
}

impl Default for IterOptions {
    fn default() -> Self {
        IterOptions {
            tol: 1e-10,
            max_iter: 2000,
        }
    }
}

/// Outcome of a converged iterative solve.
#[derive(Debug, Clone)]
pub struct IterSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations consumed.
    pub iterations: usize,
    /// Final residual norm ‖b − Ax‖.
    pub residual: f64,
}

/// BiCGSTAB for general nonsymmetric systems, with Jacobi preconditioning.
///
/// This is the solver the TCAD Newton loop uses for its Poisson Jacobians.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] for malformed systems and
/// [`NumericsError::NoConvergence`] if the residual target is not met
/// (including on breakdown of the recurrence).
///
/// # Example
///
/// ```
/// use stco_numerics::sparse::CsrMatrix;
/// use stco_numerics::solve::{bicgstab, IterOptions};
///
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
/// let sol = bicgstab(&a, &[1.0, 2.0], &IterOptions::default())?;
/// assert!(sol.residual < 1e-8);
/// # Ok::<(), stco_numerics::NumericsError>(())
/// ```
pub fn bicgstab(a: &CsrMatrix, b: &[f64], opts: &IterOptions) -> Result<IterSolution> {
    check_system(a, b)?;
    let n = b.len();
    let inv_diag = jacobi_inverse(a);
    let precond = |v: &[f64], out: &mut Vec<f64>| {
        out.clear();
        out.extend(v.iter().zip(&inv_diag).map(|(vi, d)| vi * d));
    };

    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let bnorm = norm2(b).max(1e-300);
    if norm2(&r) / bnorm <= opts.tol {
        return Ok(IterSolution {
            x,
            iterations: 0,
            residual: norm2(&r),
        });
    }
    let r_hat = r.clone();
    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut phat = Vec::with_capacity(n);
    let mut shat = Vec::with_capacity(n);
    let mut t = vec![0.0; n];

    for it in 1..=opts.max_iter {
        let rho_new = dot(&r_hat, &r);
        if rho_new.abs() < 1e-300 {
            return Err(NumericsError::NoConvergence {
                iterations: it,
                residual: norm2(&r),
            });
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        precond(&p, &mut phat);
        a.matvec_into(&phat, &mut v);
        let denom = dot(&r_hat, &v);
        if denom.abs() < 1e-300 {
            return Err(NumericsError::NoConvergence {
                iterations: it,
                residual: norm2(&r),
            });
        }
        alpha = rho / denom;
        // s = r - alpha * v (reuse r in place).
        axpy(-alpha, &v, &mut r);
        if norm2(&r) / bnorm <= opts.tol {
            axpy(alpha, &phat, &mut x);
            return Ok(IterSolution {
                x,
                iterations: it,
                residual: norm2(&r),
            });
        }
        precond(&r, &mut shat);
        a.matvec_into(&shat, &mut t);
        let tt = dot(&t, &t);
        if tt.abs() < 1e-300 {
            return Err(NumericsError::NoConvergence {
                iterations: it,
                residual: norm2(&r),
            });
        }
        omega = dot(&t, &r) / tt;
        axpy(alpha, &phat, &mut x);
        axpy(omega, &shat, &mut x);
        axpy(-omega, &t, &mut r);
        let rnorm = norm2(&r);
        if rnorm / bnorm <= opts.tol {
            return Ok(IterSolution {
                x,
                iterations: it,
                residual: rnorm,
            });
        }
        if omega.abs() < 1e-300 {
            return Err(NumericsError::NoConvergence {
                iterations: it,
                residual: rnorm,
            });
        }
    }
    Err(NumericsError::NoConvergence {
        iterations: opts.max_iter,
        residual: norm2(&r),
    })
}

fn check_system(a: &CsrMatrix, b: &[f64]) -> Result<()> {
    if a.rows() != a.cols() {
        return Err(NumericsError::ShapeMismatch {
            context: format!("iterative solve of non-square {}x{}", a.rows(), a.cols()),
        });
    }
    if b.len() != a.rows() {
        return Err(NumericsError::ShapeMismatch {
            context: format!("rhs length {} vs matrix dim {}", b.len(), a.rows()),
        });
    }
    Ok(())
}

fn jacobi_inverse(a: &CsrMatrix) -> Vec<f64> {
    a.diagonal()
        .into_iter()
        .map(|d| if d.abs() < 1e-300 { 1.0 } else { 1.0 / d })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xorshift;

    fn residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        norm2(&ax.iter().zip(b).map(|(p, q)| p - q).collect::<Vec<_>>())
    }

    /// A 1-D Laplacian: SPD and the exact shape of the Poisson stencil.
    fn laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn bicgstab_solves_nonsymmetric() {
        // Convection-diffusion style: dominant diagonal plus skewed off-diagonals.
        let n = 60;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.5));
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.5));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let sol = bicgstab(&a, &b, &IterOptions::default()).unwrap();
        assert!(residual(&a, &sol.x, &b) < 1e-6);
    }

    #[test]
    fn bicgstab_matches_dense_lu() {
        let n = 20;
        let mut rng = Xorshift::new(7);
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 5.0 + rng.uniform()));
            for _ in 0..2 {
                let j = rng.gen_range(n);
                if j != i {
                    t.push((i, j, rng.uniform() - 0.5));
                }
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let b: Vec<f64> = (0..n).map(|_| rng.uniform() * 2.0 - 1.0).collect();
        let sparse = bicgstab(&a, &b, &IterOptions::default()).unwrap();
        let dense = a.to_dense().lu_solve(&b).unwrap();
        for (s, d) in sparse.x.iter().zip(&dense) {
            assert!((s - d).abs() < 1e-6, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian(10);
        let sol = bicgstab(&a, &[0.0; 10], &IterOptions::default()).unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_cap_is_enforced() {
        let a = laplacian(200);
        let b = vec![1.0; 200];
        let opts = IterOptions {
            tol: 1e-14,
            max_iter: 2,
        };
        assert!(matches!(
            bicgstab(&a, &b, &opts),
            Err(NumericsError::NoConvergence { .. })
        ));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = laplacian(5);
        assert!(matches!(
            bicgstab(&a, &[1.0; 4], &IterOptions::default()),
            Err(NumericsError::ShapeMismatch { .. })
        ));
    }
}
