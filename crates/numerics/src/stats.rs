//! The accuracy metrics the paper reports: MSE (Table II), MAPE (Table IV)
//! and the coefficient of determination R² (Table II, 32k unseen set).

use crate::{NumericsError, Result};

/// Mean squared error between predictions and targets.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on length mismatch and
/// [`NumericsError::InvalidArgument`] on empty input.
pub fn mse(pred: &[f64], target: &[f64]) -> Result<f64> {
    check(pred, target)?;
    Ok(pred
        .iter()
        .zip(target)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64)
}

/// Root mean squared error.
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn rmse(pred: &[f64], target: &[f64]) -> Result<f64> {
    Ok(mse(pred, target)?.sqrt())
}

/// Mean absolute percentage error, in percent — the metric of Table IV.
///
/// Targets with magnitude below `floor` are skipped (the paper notes that
/// near-zero dynamic-power points dominate percentage error; we make the
/// guard explicit).
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on length mismatch and
/// [`NumericsError::InvalidArgument`] if no target exceeds the floor.
pub fn mape(pred: &[f64], target: &[f64], floor: f64) -> Result<f64> {
    check(pred, target)?;
    let mut total = 0.0;
    let mut n = 0usize;
    for (p, t) in pred.iter().zip(target) {
        if t.abs() > floor {
            total += ((p - t) / t).abs();
            n += 1;
        }
    }
    if n == 0 {
        return Err(NumericsError::InvalidArgument {
            context: "no targets above the MAPE floor".into(),
        });
    }
    Ok(100.0 * total / n as f64)
}

/// Coefficient of determination R² — the metric of Table II's unseen set.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on length mismatch and
/// [`NumericsError::InvalidArgument`] if the targets are constant (variance
/// zero makes R² undefined).
pub fn r_squared(pred: &[f64], target: &[f64]) -> Result<f64> {
    check(pred, target)?;
    let mean = target.iter().sum::<f64>() / target.len() as f64;
    let ss_tot: f64 = target.iter().map(|t| (t - mean) * (t - mean)).sum();
    if ss_tot < 1e-300 {
        return Err(NumericsError::InvalidArgument {
            context: "targets have zero variance; R² undefined".into(),
        });
    }
    let ss_res: f64 = pred
        .iter()
        .zip(target)
        .map(|(p, t)| (p - t) * (p - t))
        .sum();
    Ok(1.0 - ss_res / ss_tot)
}

/// Sample mean and (population) standard deviation.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] on empty input.
pub fn mean_std(values: &[f64]) -> Result<(f64, f64)> {
    if values.is_empty() {
        return Err(NumericsError::InvalidArgument {
            context: "mean of empty slice".into(),
        });
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    Ok((mean, var.sqrt()))
}

/// Per-feature standardization statistics (`z = (x − mean) / std`), used by
/// the surrogate training pipelines to normalize node features and targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    /// Per-feature means.
    pub mean: Vec<f64>,
    /// Per-feature standard deviations (floored at 1e-12).
    pub std: Vec<f64>,
}

impl Standardizer {
    /// Fits statistics over rows of `dim`-wide features stored flat.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if `data.len()` is not a
    /// multiple of `dim`, or [`NumericsError::InvalidArgument`] on empty
    /// data.
    pub fn fit(data: &[f64], dim: usize) -> Result<Self> {
        if dim == 0 || !data.len().is_multiple_of(dim) {
            return Err(NumericsError::ShapeMismatch {
                context: format!("{} values with feature dim {dim}", data.len()),
            });
        }
        let n = data.len() / dim;
        if n == 0 {
            return Err(NumericsError::InvalidArgument {
                context: "cannot fit standardizer on empty data".into(),
            });
        }
        let mut mean = vec![0.0; dim];
        for row in data.chunks_exact(dim) {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0; dim];
        for row in data.chunks_exact(dim) {
            for ((s, v), m) in var.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| (v / n as f64).sqrt().max(1e-12))
            .collect();
        Ok(Standardizer { mean, std })
    }

    /// Standardizes rows in place.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of the fitted dimension.
    pub fn apply(&self, data: &mut [f64]) {
        let dim = self.mean.len();
        assert_eq!(data.len() % dim, 0, "data not a multiple of feature dim");
        for row in data.chunks_exact_mut(dim) {
            for ((v, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
                *v = (*v - m) / s;
            }
        }
    }

    /// Undoes [`Standardizer::apply`] in place.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of the fitted dimension.
    pub fn invert(&self, data: &mut [f64]) {
        let dim = self.mean.len();
        assert_eq!(data.len() % dim, 0, "data not a multiple of feature dim");
        for row in data.chunks_exact_mut(dim) {
            for ((v, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
                *v = *v * s + m;
            }
        }
    }
}

fn check(pred: &[f64], target: &[f64]) -> Result<()> {
    if pred.len() != target.len() {
        return Err(NumericsError::ShapeMismatch {
            context: format!("{} predictions vs {} targets", pred.len(), target.len()),
        });
    }
    if pred.is_empty() {
        return Err(NumericsError::InvalidArgument {
            context: "metric of empty slices".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_perfect_prediction_is_zero() -> Result<()> {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(mse(&y, &y)?, 0.0);
        assert_eq!(r_squared(&y, &y)?, 1.0);
        Ok(())
    }

    #[test]
    fn mse_hand_computed() -> Result<()> {
        let e = mse(&[1.0, 2.0], &[0.0, 4.0])?;
        assert!((e - 2.5).abs() < 1e-15);
        assert!((rmse(&[1.0, 2.0], &[0.0, 4.0])? - 2.5f64.sqrt()).abs() < 1e-15);
        Ok(())
    }

    #[test]
    fn mape_hand_computed() -> Result<()> {
        // |1-2|/2 = 0.5, |3-4|/4 = 0.25 → 37.5 %.
        let m = mape(&[1.0, 3.0], &[2.0, 4.0], 0.0)?;
        assert!((m - 37.5).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn mape_floor_skips_tiny_targets() -> Result<()> {
        let m = mape(&[1.0, 100.0], &[1e-15, 100.0], 1e-12)?;
        assert_eq!(m, 0.0);
        Ok(())
    }

    #[test]
    fn r_squared_of_mean_prediction_is_zero() -> Result<()> {
        let target = [1.0, 2.0, 3.0, 4.0];
        let pred = [2.5; 4];
        assert!(r_squared(&pred, &target)?.abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn r_squared_rejects_constant_targets() {
        assert!(r_squared(&[1.0, 2.0], &[3.0, 3.0]).is_err());
    }

    #[test]
    fn metrics_reject_mismatched_lengths() {
        assert!(mse(&[1.0], &[1.0, 2.0]).is_err());
        assert!(mape(&[1.0], &[], 0.0).is_err());
    }

    #[test]
    fn standardizer_round_trips() -> Result<()> {
        let data = vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0];
        let s = Standardizer::fit(&data, 2)?;
        let mut z = data.clone();
        s.apply(&mut z);
        // Column means ~0 after standardization.
        let m0 = (z[0] + z[2] + z[4]) / 3.0;
        assert!(m0.abs() < 1e-12);
        s.invert(&mut z);
        for (a, b) in z.iter().zip(&data) {
            assert!((a - b).abs() < 1e-9);
        }
        Ok(())
    }

    #[test]
    fn mean_std_hand_computed() -> Result<()> {
        let (m, s) = mean_std(&[2.0, 4.0])?;
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
        Ok(())
    }
}
