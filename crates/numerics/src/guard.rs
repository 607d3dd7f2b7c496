//! Runtime numeric-safety guards: finiteness checks at stage boundaries.
//!
//! One poisoned f64 (NaN or ±Inf) escaping a solver corrupts every
//! downstream metric — a NaN drain current becomes a NaN surrogate
//! label becomes a NaN system evaluation, and the failure surfaces ten
//! stages away from its cause. The guards here make the *first*
//! non-finite value the observable event:
//!
//! * [`check_finite`] / [`check_finite_scalar`] return a typed
//!   [`NumericsError::NonFinite`] naming the offending index and value
//!   — for library code that can propagate errors.
//! * [`debug_assert_all_finite!`](crate::debug_assert_all_finite) /
//!   [`debug_assert_finite!`](crate::debug_assert_finite) halt debug
//!   and test builds at the poisoned value and compile to nothing in
//!   release builds — for hot loops where a release-mode branch per
//!   element would be felt.
//! * [`FiniteSlice`] carries the proof of a successful check in the
//!   type, so an API can demand pre-validated data.
//!
//! These are wired into the Poisson Newton iteration, SPICE transient
//! accepts, GNN gradient updates and cell-metric outputs.

use crate::{NumericsError, Result};

/// First non-finite element, as `(index, value)`.
pub fn first_non_finite(xs: &[f64]) -> Option<(usize, f64)> {
    xs.iter()
        .enumerate()
        .find(|(_, v)| !v.is_finite())
        .map(|(i, &v)| (i, v))
}

/// Checks a slice, returning a typed error naming the first poisoned
/// entry.
///
/// # Errors
///
/// Returns [`NumericsError::NonFinite`] with `label[index] = value`
/// context on the first NaN/Inf element.
pub fn check_finite(label: &str, xs: &[f64]) -> Result<()> {
    match first_non_finite(xs) {
        None => Ok(()),
        Some((i, v)) => Err(NumericsError::NonFinite {
            context: format!("{label}[{i}] = {v}"),
        }),
    }
}

/// Checks a scalar, passing it through on success.
///
/// # Errors
///
/// Returns [`NumericsError::NonFinite`] if `x` is NaN or ±Inf.
pub fn check_finite_scalar(label: &str, x: f64) -> Result<f64> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(NumericsError::NonFinite {
            context: format!("{label} = {x}"),
        })
    }
}

/// A borrowed `&[f64]` proven finite at construction.
///
/// Functions that take a `FiniteSlice` can skip their own validation:
/// the only way to obtain one is through [`FiniteSlice::new`], which
/// runs [`check_finite`].
#[derive(Debug, Clone, Copy)]
pub struct FiniteSlice<'a> {
    data: &'a [f64],
}

impl<'a> FiniteSlice<'a> {
    /// Validates `data` and wraps it.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::NonFinite`] naming the first poisoned
    /// entry.
    pub fn new(label: &str, data: &'a [f64]) -> Result<Self> {
        check_finite(label, data)?;
        Ok(FiniteSlice { data })
    }

    /// The underlying slice.
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl std::ops::Deref for FiniteSlice<'_> {
    type Target = [f64];

    fn deref(&self) -> &Self::Target {
        self.data
    }
}

/// Debug/test-build assertion that every element of a slice is finite.
///
/// Compiles to nothing in release builds. The panic message names the
/// label, index and value of the first poisoned entry, so the failure
/// points at the stage boundary that produced it — not ten stages later.
///
/// ```
/// stco_numerics::debug_assert_all_finite!("poisson.psi", &[0.0, 1.5]);
/// ```
#[macro_export]
macro_rules! debug_assert_all_finite {
    ($label:expr, $xs:expr) => {
        if cfg!(debug_assertions) {
            if let Some((i, v)) = $crate::guard::first_non_finite($xs) {
                // stco-check: allow(no-unwrap, guard macro must halt debug builds at the poisoned value)
                panic!("non-finite value: {}[{i}] = {v}", $label);
            }
        }
    };
}

/// Debug/test-build assertion that a scalar is finite.
///
/// Compiles to nothing in release builds.
///
/// ```
/// stco_numerics::debug_assert_finite!("cell.delay", 1.2e-9);
/// ```
#[macro_export]
macro_rules! debug_assert_finite {
    ($label:expr, $x:expr) => {
        if cfg!(debug_assertions) {
            let value: f64 = $x;
            if !value.is_finite() {
                // stco-check: allow(no-unwrap, guard macro must halt debug builds at the poisoned value)
                panic!("non-finite value: {} = {value}", $label);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_finite_names_index_and_value() {
        let r = check_finite("psi", &[1.0, f64::NAN, 2.0]);
        match r {
            Err(NumericsError::NonFinite { context }) => {
                assert!(context.contains("psi[1]"), "{context}");
            }
            other => unreachable!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn check_finite_scalar_passes_values_through() -> crate::Result<()> {
        assert_eq!(check_finite_scalar("x", 2.5)?, 2.5);
        assert!(check_finite_scalar("x", f64::INFINITY).is_err());
        Ok(())
    }

    #[test]
    fn finite_slice_round_trips() -> crate::Result<()> {
        let data = [1.0, 2.0, 3.0];
        let fs = FiniteSlice::new("data", &data)?;
        assert_eq!(fs.len(), 3);
        assert!(!fs.is_empty());
        assert_eq!(fs.as_slice(), &data);
        assert_eq!(fs[1], 2.0);
        Ok(())
    }

    #[test]
    fn finite_slice_rejects_poisoned_data() {
        let data = [1.0, f64::NAN];
        assert!(FiniteSlice::new("data", &data).is_err());
    }

    #[test]
    fn debug_assert_macros_pass_finite_values() {
        debug_assert_all_finite!("xs", &[0.0, 1.0]);
        debug_assert_finite!("x", 0.5);
    }

    #[test]
    #[should_panic(expected = "non-finite value: xs[1]")]
    fn debug_assert_all_finite_panics_in_test_builds() {
        debug_assert_all_finite!("xs", &[0.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "non-finite value: x = inf")]
    fn debug_assert_finite_panics_in_test_builds() {
        debug_assert_finite!("x", f64::INFINITY);
    }
}
