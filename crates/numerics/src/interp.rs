//! 1-D and 2-D table interpolation.
//!
//! Standard-cell timing models are NLDM-style lookup tables indexed by
//! (input slew, output load); STA queries them with [`Bilinear`], which
//! linearly interpolates inside the grid and linearly extrapolates outside
//! it — the same convention commercial timers use.

use crate::guard::{check_finite, check_finite_scalar};
use crate::{NumericsError, Result};

/// Piecewise-linear interpolation over a strictly increasing axis, with
/// linear extrapolation beyond the ends.
///
/// # Example
///
/// ```
/// use stco_numerics::interp::lerp_axis;
///
/// let xs = [0.0, 1.0, 2.0];
/// let ys = [0.0, 10.0, 40.0];
/// assert_eq!(lerp_axis(&xs, &ys, 0.5), 5.0);
/// assert_eq!(lerp_axis(&xs, &ys, 3.0), 70.0); // extrapolated
/// ```
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths or fewer than two points.
pub fn lerp_axis(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "axis/value length mismatch");
    assert!(xs.len() >= 2, "need at least two points");
    let i = segment_index(xs, x);
    let t = (x - xs[i]) / (xs[i + 1] - xs[i]);
    ys[i] + t * (ys[i + 1] - ys[i])
}

/// Validating variant of [`lerp_axis`]: rejects malformed or non-finite
/// inputs with a typed error instead of panicking or returning NaN.
///
/// # Errors
///
/// Returns [`NumericsError::NonFinite`] if `xs`, `ys`, or `x` contain
/// NaN/Inf, and [`NumericsError::InvalidArgument`] /
/// [`NumericsError::ShapeMismatch`] if the axis has fewer than two
/// points, is not strictly increasing, or the lengths differ.
pub fn try_lerp_axis(xs: &[f64], ys: &[f64], x: f64) -> Result<f64> {
    check_finite("lerp.xs", xs)?;
    check_finite("lerp.ys", ys)?;
    check_finite_scalar("lerp.x", x)?;
    if xs.len() != ys.len() {
        return Err(NumericsError::ShapeMismatch {
            context: format!("{} axis points vs {} values", xs.len(), ys.len()),
        });
    }
    if xs.len() < 2 {
        return Err(NumericsError::InvalidArgument {
            context: "need at least two points".into(),
        });
    }
    if xs.windows(2).any(|w| w[1] <= w[0]) {
        return Err(NumericsError::InvalidArgument {
            context: "axis must be strictly increasing".into(),
        });
    }
    Ok(lerp_axis(xs, ys, x))
}

/// Index of the segment used for interpolation/extrapolation at `x`.
///
/// Total: a NaN query (comparisons all false) falls through to the binary
/// search, where unordered comparisons are treated as `Less`, and the
/// result is clamped in-bounds — the caller then gets NaN out, never a
/// panic or out-of-range index.
fn segment_index(xs: &[f64], x: f64) -> usize {
    if x <= xs[0] {
        return 0;
    }
    if x >= xs[xs.len() - 1] {
        return xs.len() - 2;
    }
    // Binary search for the containing interval.
    match xs.binary_search_by(|v| v.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Less)) {
        Ok(i) => i.min(xs.len() - 2),
        Err(i) => i.saturating_sub(1).min(xs.len() - 2),
    }
}

/// A bilinear interpolation table over a rectangular `(x, y)` grid.
///
/// Values are stored row-major: `values[i * ys.len() + j]` corresponds to
/// `(xs[i], ys[j])`.
///
/// # Example
///
/// ```
/// use stco_numerics::interp::Bilinear;
///
/// let t = Bilinear::new(
///     vec![0.0, 1.0],
///     vec![0.0, 1.0],
///     vec![0.0, 1.0, 2.0, 3.0],
/// )?;
/// assert!((t.eval(0.5, 0.5) - 1.5).abs() < 1e-12);
/// # Ok::<(), stco_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bilinear {
    xs: Vec<f64>,
    ys: Vec<f64>,
    values: Vec<f64>,
}

impl Bilinear {
    /// Builds a table from axes and row-major values.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::NonFinite`] if an axis or table value is
    /// NaN/Inf (the strictly-increasing check alone would let NaN axes
    /// through, since NaN comparisons are all false),
    /// [`NumericsError::InvalidArgument`] if either axis has fewer
    /// than two points or is not strictly increasing, or
    /// [`NumericsError::ShapeMismatch`] if `values.len() != xs.len() * ys.len()`.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, values: Vec<f64>) -> Result<Self> {
        check_finite("bilinear.xs", &xs)?;
        check_finite("bilinear.ys", &ys)?;
        check_finite("bilinear.values", &values)?;
        for (name, axis) in [("x", &xs), ("y", &ys)] {
            if axis.len() < 2 {
                return Err(NumericsError::InvalidArgument {
                    context: format!("{name} axis needs at least two points"),
                });
            }
            if axis.windows(2).any(|w| w[1] <= w[0]) {
                return Err(NumericsError::InvalidArgument {
                    context: format!("{name} axis must be strictly increasing"),
                });
            }
        }
        if values.len() != xs.len() * ys.len() {
            return Err(NumericsError::ShapeMismatch {
                context: format!(
                    "{} values for a {}x{} grid",
                    values.len(),
                    xs.len(),
                    ys.len()
                ),
            });
        }
        Ok(Bilinear { xs, ys, values })
    }

    /// Bilinear interpolation (and extrapolation outside the grid).
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let i = segment_index(&self.xs, x);
        let j = segment_index(&self.ys, y);
        let tx = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i]);
        let ty = (y - self.ys[j]) / (self.ys[j + 1] - self.ys[j]);
        let ny = self.ys.len();
        let v00 = self.values[i * ny + j];
        let v01 = self.values[i * ny + j + 1];
        let v10 = self.values[(i + 1) * ny + j];
        let v11 = self.values[(i + 1) * ny + j + 1];
        v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty
    }

    /// Validating variant of [`Bilinear::eval`]: rejects a NaN/Inf query
    /// point with a typed error instead of returning NaN.
    ///
    /// The table itself is proven finite at construction, so a finite
    /// query always yields a finite result.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::NonFinite`] if `x` or `y` is NaN/Inf.
    pub fn try_eval(&self, x: f64, y: f64) -> Result<f64> {
        check_finite_scalar("bilinear.query.x", x)?;
        check_finite_scalar("bilinear.query.y", y)?;
        Ok(self.eval(x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_exact_at_knots() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [2.0, 4.0, 0.0];
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert_eq!(lerp_axis(&xs, &ys, *x), *y);
        }
    }

    #[test]
    fn lerp_midpoints_and_extrapolation() {
        let xs = [0.0, 2.0];
        let ys = [0.0, 4.0];
        assert_eq!(lerp_axis(&xs, &ys, 1.0), 2.0);
        assert_eq!(lerp_axis(&xs, &ys, -1.0), -2.0);
        assert_eq!(lerp_axis(&xs, &ys, 3.0), 6.0);
    }

    #[test]
    fn bilinear_reproduces_bilinear_function() -> Result<()> {
        // f(x, y) = 2x + 3y + xy is exactly representable.
        let xs = vec![0.0, 1.0, 2.0];
        let ys = vec![0.0, 0.5, 1.0];
        let f = |x: f64, y: f64| 2.0 * x + 3.0 * y + x * y;
        let mut values = Vec::new();
        for &x in &xs {
            for &y in &ys {
                values.push(f(x, y));
            }
        }
        let t = Bilinear::new(xs, ys, values)?;
        for &(x, y) in &[(0.25, 0.25), (1.5, 0.75), (0.9, 0.1), (3.0, 2.0)] {
            assert!((t.eval(x, y) - f(x, y)).abs() < 1e-12, "at ({x},{y})");
        }
        Ok(())
    }

    #[test]
    fn bilinear_rejects_bad_axes() {
        assert!(Bilinear::new(vec![0.0], vec![0.0, 1.0], vec![0.0, 0.0]).is_err());
        assert!(Bilinear::new(vec![0.0, 0.0], vec![0.0, 1.0], vec![0.0; 4]).is_err());
        assert!(Bilinear::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 3]).is_err());
    }

    #[test]
    fn bilinear_rejects_non_finite_inputs() {
        // A NaN axis passes the strictly-increasing check (NaN comparisons
        // are all false) — the finiteness guard must catch it.
        let r = Bilinear::new(vec![0.0, f64::NAN], vec![0.0, 1.0], vec![0.0; 4]);
        assert!(matches!(r, Err(NumericsError::NonFinite { .. })));
        let r = Bilinear::new(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![0.0, f64::INFINITY, 0.0, 0.0],
        );
        assert!(matches!(r, Err(NumericsError::NonFinite { .. })));
    }

    #[test]
    fn try_eval_rejects_nan_query() -> crate::Result<()> {
        let t = Bilinear::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0, 2.0, 3.0])?;
        assert!((t.try_eval(0.5, 0.5)? - 1.5).abs() < 1e-12);
        assert!(matches!(
            t.try_eval(f64::NAN, 0.5),
            Err(NumericsError::NonFinite { .. })
        ));
        Ok(())
    }

    #[test]
    fn try_lerp_rejects_non_finite_and_malformed() -> crate::Result<()> {
        assert_eq!(try_lerp_axis(&[0.0, 2.0], &[0.0, 4.0], 1.0)?, 2.0);
        assert!(try_lerp_axis(&[0.0, f64::NAN], &[0.0, 4.0], 1.0).is_err());
        assert!(try_lerp_axis(&[0.0, 2.0], &[0.0, 4.0], f64::NAN).is_err());
        assert!(try_lerp_axis(&[2.0, 0.0], &[0.0, 4.0], 1.0).is_err());
        assert!(try_lerp_axis(&[0.0, 2.0], &[0.0], 1.0).is_err());
        Ok(())
    }
}
