//! Quasi-2-D charge-drift transport: terminal currents from a converged
//! Poisson solution.
//!
//! The channel is treated as a chain of vertical slices. Each slice `x`
//! carries a sheet charge `Q_s(x) = q ∫ n dy` (integrated over the film)
//! and a local concentration-dependent mobility `μ(Q_s)` (the VRH/TDT
//! power law). The slices act as series resistances, so
//!
//! ```text
//! I_D = V_DS / Σ_slices Δx / (W · μ(Q_s) · Q_s)
//! ```
//!
//! which reproduces the expected TFT behaviour: exponential subthreshold
//! turn-on (via the Boltzmann tail of `Q_s`), power-law above-threshold
//! conduction, and output saturation as the drain-side slice depletes.

use crate::device::{Bias, Device};
use crate::physics;
use crate::poisson::{solve_poisson, PotentialSolution};
use crate::Result;

/// One simulated bias point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvPoint {
    /// Applied bias.
    pub bias: Bias,
    /// Drain current, A (signed; p-type devices carry negative current).
    pub current: f64,
}

/// Sheet charge per channel column (C/m²), integrated over the film.
fn sheet_charge_profile(device: &Device, solution: &PotentialSolution) -> Vec<(usize, f64)> {
    let mesh = device.mesh();
    let rows = device.channel_rows();
    device
        .channel_columns()
        .into_iter()
        .map(|ix| {
            let mut q = 0.0;
            for &iy in &rows {
                let idx = mesh.node_index(ix, iy);
                // Control length in y of this node (reuse control area / x-length).
                let (x_len, y_len) = control_lengths(mesh, idx);
                let _ = x_len;
                q += crate::ELEMENTARY_CHARGE * solution.carrier_density[idx] * y_len;
            }
            (ix, q)
        })
        .collect()
}

fn control_lengths(mesh: &crate::mesh::RectMesh, idx: usize) -> (f64, f64) {
    let (ix, iy) = mesh.node_coords(idx);
    let xs = mesh.xs();
    let ys = mesh.ys();
    let xl = {
        let lo = if ix > 0 {
            0.5 * (xs[ix] - xs[ix - 1])
        } else {
            0.0
        };
        let hi = if ix + 1 < xs.len() {
            0.5 * (xs[ix + 1] - xs[ix])
        } else {
            0.0
        };
        lo + hi
    };
    let yl = {
        let lo = if iy > 0 {
            0.5 * (ys[iy] - ys[iy - 1])
        } else {
            0.0
        };
        let hi = if iy + 1 < ys.len() {
            0.5 * (ys[iy + 1] - ys[iy])
        } else {
            0.0
        };
        lo + hi
    };
    (xl, yl)
}

/// Drain current (A) from a converged solution via the gradual-channel
/// charge-drift integral
///
/// ```text
/// I_D = (W / L) ∫₀^{V_DS} μ(Q_s(φ)) · Q_s(φ) dφ
/// ```
///
/// evaluated slice-by-slice over the quasi-Fermi ramp (`Δφ_i` is the ramp
/// drop across slice `i`). The integrand is non-negative, so `I_D` is
/// monotone in `V_DS` and saturates as the drain-side slices deplete —
/// the physically expected TFT output behaviour.
pub fn drain_current(device: &Device, solution: &PotentialSolution, bias: Bias) -> f64 {
    let mesh = device.mesh();
    let spec = device.spec();
    let q_ref = spec.oxide_capacitance() * 1.0; // C_ox · 1 V
    let profile = sheet_charge_profile(device, solution);
    if profile.is_empty() {
        return 0.0;
    }
    let l_ch = spec.channel_length;
    let mut integral = 0.0;
    for &(ix, qs) in &profile {
        let (x_len, _) = control_lengths(mesh, mesh.node_index(ix, device.channel_rows()[0]));
        let x = mesh.xs()[ix];
        let dphi =
            device.quasi_fermi(x + 0.5 * x_len, bias) - device.quasi_fermi(x - 0.5 * x_len, bias);
        let mu = physics::mobility(device.channel(), qs, q_ref);
        integral += mu * qs.abs() * dphi;
    }
    spec.width / l_ch * integral
}

/// Solves Poisson and evaluates the drain current at one bias point.
///
/// # Errors
///
/// Propagates Poisson convergence failures.
pub fn simulate_point(device: &Device, bias: Bias) -> Result<IvPoint> {
    let _span = stco_obs::span!("tcad.simulate_point", gate = bias.gate, drain = bias.drain,);
    let sol = solve_poisson(device, bias)?;
    Ok(IvPoint {
        bias,
        current: drain_current(device, &sol, bias),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::materials::Technology;

    #[test]
    fn on_current_exceeds_off_current_by_orders() -> Result<()> {
        let d = DeviceSpec::reference(Technology::Igzo).build()?;
        let off = simulate_point(
            &d,
            Bias {
                gate: -1.0,
                drain: 1.0,
            },
        )?;
        let on = simulate_point(
            &d,
            Bias {
                gate: 3.0,
                drain: 1.0,
            },
        )?;
        assert!(
            on.current > 1e3 * off.current.max(1e-30),
            "on/off ratio too small: {:.3e} / {:.3e}",
            on.current,
            off.current
        );
        Ok(())
    }

    #[test]
    fn transfer_curve_is_monotone_ntype() -> Result<()> {
        let d = DeviceSpec::reference(Technology::Igzo).build()?;
        let curve = (0..8)
            .map(|i| {
                let gate = -1.0 + 0.5 * f64::from(i);
                simulate_point(&d, Bias { gate, drain: 1.0 })
            })
            .collect::<Result<Vec<_>>>()?;
        for w in curve.windows(2) {
            assert!(
                w[1].current >= w[0].current * 0.999,
                "I_D not monotone in V_G"
            );
        }
        Ok(())
    }

    #[test]
    fn output_curve_saturates() -> Result<()> {
        let d = DeviceSpec::reference(Technology::Igzo).build()?;
        let curve = (1..=10)
            .map(|i| {
                let drain = 0.3 * f64::from(i);
                simulate_point(&d, Bias { gate: 2.5, drain })
            })
            .collect::<Result<Vec<_>>>()?;
        // Monotone non-decreasing.
        for w in curve.windows(2) {
            assert!(w[1].current >= w[0].current * 0.98);
        }
        // Saturating: slope at the end is well below slope at the start.
        let g_first = (curve[1].current - curve[0].current) / 0.3;
        let g_last = (curve[9].current - curve[8].current) / 0.3;
        assert!(
            g_last < 0.7 * g_first,
            "no saturation: first slope {g_first:.3e}, last {g_last:.3e}"
        );
        Ok(())
    }

    #[test]
    fn ptype_cnt_current_is_negative_under_negative_drive() -> Result<()> {
        let d = DeviceSpec::reference(Technology::Cnt).build()?;
        let p = simulate_point(
            &d,
            Bias {
                gate: -3.0,
                drain: -1.0,
            },
        )?;
        assert!(
            p.current < 0.0,
            "p-type I_D should be negative: {}",
            p.current
        );
        assert!(p.current.abs() > 1e-12);
        Ok(())
    }

    #[test]
    fn current_scales_with_width() -> Result<()> {
        let mut spec = DeviceSpec::reference(Technology::Igzo);
        let d1 = spec.build()?;
        let i1 = simulate_point(
            &d1,
            Bias {
                gate: 2.0,
                drain: 0.5,
            },
        )?
        .current;
        spec.width *= 2.0;
        let d2 = spec.build()?;
        let i2 = simulate_point(
            &d2,
            Bias {
                gate: 2.0,
                drain: 0.5,
            },
        )?
        .current;
        assert!(
            (i2 / i1 - 2.0).abs() < 1e-6,
            "I ∝ W violated: ratio {}",
            i2 / i1
        );
        Ok(())
    }

    #[test]
    fn longer_channel_conducts_less() -> Result<()> {
        let mut spec = DeviceSpec::reference(Technology::Igzo);
        let i_short = simulate_point(
            &spec.build()?,
            Bias {
                gate: 2.0,
                drain: 0.5,
            },
        )?
        .current;
        spec.channel_length *= 2.0;
        let i_long = simulate_point(
            &spec.build()?,
            Bias {
                gate: 2.0,
                drain: 0.5,
            },
        )?
        .current;
        assert!(i_long < i_short);
        Ok(())
    }

    #[test]
    fn sheet_charge_profile_covers_channel() -> Result<()> {
        let d = DeviceSpec::reference(Technology::Ltps).build()?;
        let sol = solve_poisson(
            &d,
            Bias {
                gate: 2.0,
                drain: 0.5,
            },
        )?;
        let profile = sheet_charge_profile(&d, &sol);
        assert_eq!(profile.len(), d.channel_columns().len());
        assert!(profile.iter().all(|&(_, q)| q > 0.0));
        Ok(())
    }
}
