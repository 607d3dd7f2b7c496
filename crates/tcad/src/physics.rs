//! Carrier statistics, trap models, SRH recombination and the
//! field-enhanced mobility law.
//!
//! The TFT charge model combines free Boltzmann carriers with an
//! exponential band-tail (tail-distributed traps, TDT): the occupied tail
//! density rises as `exp(η / (l·kT))` with tail slope `l > 1`, which is
//! what produces the characteristic power-law mobility of Eq. (1) in the
//! paper after the charge-drift integration.

use crate::materials::{ChannelParams, Polarity};
use crate::THERMAL_VOLTAGE;

/// Maximum |argument| fed to `exp` in the statistics; keeps Newton finite
/// at extreme over/under-drive without affecting converged solutions.
const EXP_CLAMP: f64 = 60.0;

fn safe_exp(x: f64) -> f64 {
    x.clamp(-EXP_CLAMP, EXP_CLAMP).exp()
}

/// Derivative of [`safe_exp`]: zero outside the clamp window so the
/// analytic Jacobian stays consistent with the (flat) clamped value.
fn safe_exp_deriv(x: f64) -> f64 {
    if (-EXP_CLAMP..=EXP_CLAMP).contains(&x) {
        x.exp()
    } else {
        0.0
    }
}

/// Mobile + tail-trapped carrier density (1/m³) at electrostatic
/// potential `psi` and quasi-Fermi potential `phi` (both volts).
///
/// For n-type the controlling variable is `η = ψ − φ`; for p-type it is
/// `η = φ − ψ` (hole accumulation under negative gate drive).
pub fn carrier_density(params: &ChannelParams, psi: f64, phi: f64) -> f64 {
    let eta = match params.polarity {
        Polarity::NType => psi - phi,
        Polarity::PType => phi - psi,
    };
    let free = params.effective_dos * safe_exp(eta / THERMAL_VOLTAGE);
    let tail = params.tail_trap_density * safe_exp(eta / (params.tail_slope * THERMAL_VOLTAGE));
    free + tail + params.intrinsic_density
}

/// Analytic derivative `∂n/∂ψ` of [`carrier_density`] (1/(m³·V)); the
/// diagonal term of the Poisson Jacobian.
pub fn carrier_density_dpsi(params: &ChannelParams, psi: f64, phi: f64) -> f64 {
    let (eta, sign) = match params.polarity {
        Polarity::NType => (psi - phi, 1.0),
        Polarity::PType => (phi - psi, -1.0),
    };
    let free = params.effective_dos * safe_exp_deriv(eta / THERMAL_VOLTAGE) / THERMAL_VOLTAGE;
    let slope = params.tail_slope * THERMAL_VOLTAGE;
    let tail = params.tail_trap_density * safe_exp_deriv(eta / slope) / slope;
    sign * (free + tail)
}

/// Net space-charge density (C/m³) in the channel: mobile carriers plus
/// ionized doping, signed by polarity.
///
/// For n-type: `ρ = q(N_D − n)`; for p-type: `ρ = q(p − N_A)` with the
/// convention that accumulated holes contribute positive charge.
pub fn space_charge(params: &ChannelParams, psi: f64, phi: f64) -> f64 {
    let n = carrier_density(params, psi, phi);
    match params.polarity {
        Polarity::NType => crate::ELEMENTARY_CHARGE * (params.doping - n),
        Polarity::PType => crate::ELEMENTARY_CHARGE * (n - params.doping),
    }
}

/// Derivative `∂ρ/∂ψ` of [`space_charge`] (C/(m³·V)).
pub fn space_charge_dpsi(params: &ChannelParams, psi: f64, phi: f64) -> f64 {
    let dn = carrier_density_dpsi(params, psi, phi);
    match params.polarity {
        Polarity::NType => -crate::ELEMENTARY_CHARGE * dn,
        Polarity::PType => crate::ELEMENTARY_CHARGE * dn,
    }
}

/// Shockley–Read–Hall net recombination rate (1/(m³·s)) given electron and
/// hole densities. Exposed as a task-specific self-consistent feature of
/// the unified encoding.
pub fn srh_recombination(params: &ChannelParams, n: f64, p: f64) -> f64 {
    let ni = params.intrinsic_density.max(1.0);
    let n1 = ni;
    let p1 = ni;
    (n * p - ni * ni) / (params.srh_tau_p * (n + n1) + params.srh_tau_n * (p + p1)).max(1e-300)
}

/// Carrier-concentration-dependent mobility (m²/V·s): the VRH/TDT
/// percolation law `μ = μ₀ (Q_s / Q_ref)^γ`, evaluated on sheet charge.
///
/// `sheet_charge` and `reference_charge` are both C/m²; the reference is
/// conventionally `C_ox · 1 V`. As the channel accumulates, mobility rises
/// with exponent γ — the transport-level origin of Eq. (1) in the paper.
pub fn mobility(params: &ChannelParams, sheet_charge: f64, reference_charge: f64) -> f64 {
    let ratio = (sheet_charge.abs() / reference_charge.max(1e-30)).max(1e-12);
    params.mobility_mu0 * ratio.powf(params.mobility_gamma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::Technology;

    #[test]
    fn carrier_density_monotone_in_overdrive_ntype() {
        let p = ChannelParams::reference(Technology::Igzo);
        let mut prev = 0.0;
        for k in 0..20 {
            let psi = -0.5 + 0.1 * k as f64;
            let n = carrier_density(&p, psi, 0.0);
            assert!(n > prev, "n must increase with ψ for n-type");
            prev = n;
        }
    }

    #[test]
    fn carrier_density_monotone_for_ptype() {
        let p = ChannelParams::reference(Technology::Cnt);
        // p-type: density increases as ψ decreases below φ.
        let high = carrier_density(&p, -1.0, 0.0);
        let low = carrier_density(&p, 0.5, 0.0);
        assert!(high > low);
    }

    #[test]
    fn density_derivative_matches_finite_difference() {
        for t in Technology::ALL {
            let p = ChannelParams::reference(t);
            for &psi in &[-0.8, -0.2, 0.0, 0.3, 0.9] {
                let h = 1e-7;
                let num = (carrier_density(&p, psi + h, 0.1) - carrier_density(&p, psi - h, 0.1))
                    / (2.0 * h);
                let ana = carrier_density_dpsi(&p, psi, 0.1);
                let denom = num.abs().max(ana.abs()).max(1e-6);
                assert!(
                    (num - ana).abs() / denom < 1e-5,
                    "{t}: ψ={psi}: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn space_charge_derivative_matches_finite_difference() {
        for t in Technology::ALL {
            let p = ChannelParams::reference(t);
            let psi = 0.2;
            let h = 1e-7;
            let num = (space_charge(&p, psi + h, 0.0) - space_charge(&p, psi - h, 0.0)) / (2.0 * h);
            let ana = space_charge_dpsi(&p, psi, 0.0);
            let denom = num.abs().max(ana.abs()).max(1e-6);
            assert!((num - ana).abs() / denom < 1e-5, "{t}");
        }
    }

    #[test]
    fn statistics_stay_finite_at_extremes() {
        let p = ChannelParams::reference(Technology::Ltps);
        for &psi in &[-100.0, 100.0] {
            assert!(carrier_density(&p, psi, 0.0).is_finite());
            assert!(space_charge(&p, psi, 0.0).is_finite());
            assert!(carrier_density_dpsi(&p, psi, 0.0).is_finite());
        }
    }

    #[test]
    fn srh_sign_follows_excess_carriers() {
        let p = ChannelParams::reference(Technology::Ltps);
        let ni = p.intrinsic_density;
        // Excess carriers recombine (positive rate).
        assert!(srh_recombination(&p, 100.0 * ni, 100.0 * ni) > 0.0);
        // Depletion generates (negative rate).
        assert!(srh_recombination(&p, 0.01 * ni, 0.01 * ni) < 0.0);
        // Equilibrium: zero.
        assert!(srh_recombination(&p, ni, ni).abs() < 1e-6 * ni / p.srh_tau_n);
    }

    #[test]
    fn mobility_power_law() {
        let p = ChannelParams::reference(Technology::Cnt);
        let qref = 1e-3;
        let m1 = mobility(&p, qref, qref);
        let m2 = mobility(&p, 2.0 * qref, qref);
        // μ(2Q)/μ(Q) = 2^γ.
        assert!((m2 / m1 - 2.0_f64.powf(p.mobility_gamma)).abs() < 1e-12);
        assert!((m1 - p.mobility_mu0).abs() < 1e-15);
    }
}
