//! The unified TFT compact model: Eq. (1) mobility integrated into a
//! single-piece charge-drift current equation.
//!
//! Above threshold the drain current follows the classic TFT power law
//!
//! ```text
//! I_D = (W/L) · μ₀ C_ox · [ V_ov^β − (V_ov − V_DSe)^β ] / β · (1 + λ V_DS)
//! ```
//!
//! with `β = γ + 2`, `V_ov` the overdrive and `V_DSe` the saturated drain
//! voltage. Two smoothing devices make the expression single-piece and
//! infinitely differentiable (necessary for the Newton iterations of the
//! SPICE engine): the overdrive is softplus-smoothed through threshold
//! (giving the exponential subthreshold tail with ideality `ss_factor`),
//! and `V_DSe` approaches `V_ov` smoothly as the device saturates.
//!
//! Negative `V_DS` is handled by source/drain symmetry and P-type devices
//! by mirroring, so the model is valid in all four quadrants.

use crate::{CompactError, Result};

/// Thermal voltage at 300 K, V.
pub const THERMAL_VOLTAGE: f64 = 0.025852;

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// Electron-conduction TFT.
    NType,
    /// Hole-conduction TFT.
    PType,
}

/// A drain-current operating point: the current and its partial
/// derivatives with respect to the terminal voltages, as produced by
/// [`CompactModel::linearize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Linearization {
    /// Drain current, A (bitwise equal to `drain_current` at the same
    /// bias).
    pub id: f64,
    /// Transconductance `∂I_D/∂V_GS`, S (analytic).
    pub gm: f64,
    /// Output conductance `∂I_D/∂V_DS`, S (analytic).
    pub gds: f64,
}

/// The unified compact model parameters (one transistor instance).
#[derive(Debug, Clone, PartialEq)]
pub struct CompactModel {
    device_type: DeviceType,
    /// Effective mobility at |V_ov| = 1 V, m²/(V·s) (Eq. 1's μ₀).
    pub mu0: f64,
    /// Threshold voltage, V (positive for N, negative for P by convention).
    pub vth: f64,
    /// Field-enhancement exponent γ of Eq. (1).
    pub gamma: f64,
    /// Gate-oxide capacitance per area, F/m².
    pub cox: f64,
    /// Channel width, m.
    pub width: f64,
    /// Channel length, m.
    pub length: f64,
    /// Subthreshold ideality factor (slope = `ss_factor` · 60 mV/dec).
    pub ss_factor: f64,
    /// Channel-length modulation, 1/V.
    pub lambda: f64,
    /// Off-state leakage sheet conductance, S (at W/L = 1).
    pub leak_conductance: f64,
}

impl CompactModel {
    /// A representative n-type TFT (IGZO-like): μ₀ = 10 cm²/Vs, V_th =
    /// 0.6 V, γ = 0.3, 100 nF/cm² oxide, W/L = 10 µm / 5 µm.
    pub fn ntype_reference() -> Self {
        CompactModel {
            device_type: DeviceType::NType,
            mu0: 1.0e-3,
            vth: 0.6,
            gamma: 0.3,
            cox: 1.0e-3, // 100 nF/cm² = 1e-3 F/m²
            width: 10.0e-6,
            length: 5.0e-6,
            ss_factor: 1.4,
            lambda: 0.02,
            leak_conductance: 1.0e-15,
        }
    }

    /// A representative p-type TFT (CNT-like): μ₀ = 20 cm²/Vs, V_th =
    /// −0.8 V, γ = 0.45.
    pub fn ptype_reference() -> Self {
        CompactModel {
            device_type: DeviceType::PType,
            mu0: 2.0e-3,
            vth: -0.8,
            gamma: 0.45,
            cox: 1.0e-3,
            width: 10.0e-6,
            length: 5.0e-6,
            ss_factor: 1.6,
            lambda: 0.02,
            leak_conductance: 1.0e-15,
        }
    }

    /// Polarity of the device.
    pub fn device_type(&self) -> DeviceType {
        self.device_type
    }

    /// Whether every parameter has the same bits as `other`'s. Unlike
    /// `==`, this tells 0.0 from −0.0, so equal models are guaranteed to
    /// evaluate to equal bits.
    pub fn bitwise_eq(&self, other: &CompactModel) -> bool {
        // Destructured so that a new parameter cannot be left out.
        let CompactModel {
            device_type,
            mu0,
            vth,
            gamma,
            cox,
            width,
            length,
            ss_factor,
            lambda,
            leak_conductance,
        } = self;
        *device_type == other.device_type
            && [
                (mu0, other.mu0),
                (vth, other.vth),
                (gamma, other.gamma),
                (cox, other.cox),
                (width, other.width),
                (length, other.length),
                (ss_factor, other.ss_factor),
                (lambda, other.lambda),
                (leak_conductance, other.leak_conductance),
            ]
            .iter()
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Builds a model with explicit polarity and core parameters, keeping
    /// the reference values for the rest.
    pub fn with_params(device_type: DeviceType, mu0: f64, vth: f64, gamma: f64) -> Self {
        let mut m = match device_type {
            DeviceType::NType => Self::ntype_reference(),
            DeviceType::PType => Self::ptype_reference(),
        };
        m.mu0 = mu0;
        m.vth = vth;
        m.gamma = gamma;
        m
    }

    /// Returns a copy resized to the given W/L (how the cell library
    /// instantiates differently-sized transistors from one model card).
    pub fn resized(&self, width: f64, length: f64) -> Self {
        let mut m = self.clone();
        m.width = width;
        m.length = length;
        m
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`CompactError::InvalidParameter`] for non-positive μ₀,
    /// C_ox, W, L or ss_factor, or γ outside `[0, 3]`.
    pub fn validate(&self) -> Result<()> {
        let positive = [
            ("mu0", self.mu0),
            ("cox", self.cox),
            ("width", self.width),
            ("length", self.length),
            ("ss_factor", self.ss_factor),
        ];
        for (name, v) in positive {
            if v <= 0.0 || !v.is_finite() {
                return Err(CompactError::InvalidParameter {
                    context: format!("{name} must be positive, got {v}"),
                });
            }
        }
        if !(0.0..=3.0).contains(&self.gamma) {
            return Err(CompactError::InvalidParameter {
                context: format!("gamma must be in [0, 3], got {}", self.gamma),
            });
        }
        Ok(())
    }

    /// Total gate capacitance `C_ox · W · L`, F (used for loading and the
    /// transient stamps of the SPICE engine).
    pub fn gate_capacitance(&self) -> f64 {
        self.cox * self.width * self.length
    }

    /// Eq. (1): mobility at gate-source voltage `vgs`, m²/(V·s).
    /// Zero below threshold (the hard form of the paper's equation; the
    /// current model uses the smoothed overdrive instead).
    pub fn mobility(&self, vgs: f64) -> f64 {
        let ov = match self.device_type {
            DeviceType::NType => vgs - self.vth,
            DeviceType::PType => self.vth - vgs,
        };
        if ov <= 0.0 {
            0.0
        } else {
            self.mu0 * ov.powf(self.gamma)
        }
    }

    /// Drain current, A, at `(V_GS, V_DS)` with source as reference.
    ///
    /// Sign conventions: positive current flows drain→source for N-type
    /// under positive drive; P-type under negative drive carries negative
    /// current. Valid in all quadrants.
    pub fn drain_current(&self, vgs: f64, vds: f64) -> f64 {
        match self.device_type {
            DeviceType::NType => self.current_n(vgs, vds),
            // P-type by mirror symmetry: I_P(Vgs, Vds) = −I_N'(−Vgs, −Vds)
            // with the mirrored threshold.
            DeviceType::PType => {
                let mirrored = CompactModel {
                    device_type: DeviceType::NType,
                    vth: -self.vth,
                    ..self.clone()
                };
                -mirrored.current_n(-vgs, -vds)
            }
        }
    }

    fn current_n(&self, vgs: f64, vds: f64) -> f64 {
        if vds < 0.0 {
            // Source/drain exchange symmetry.
            return -self.current_n_fwd(vgs - vds, -vds);
        }
        self.current_n_fwd(vgs, vds)
    }

    fn current_n_fwd(&self, vgs: f64, vds: f64) -> f64 {
        debug_assert!(vds >= 0.0);
        let beta = self.gamma + 2.0;
        // Softplus-smoothed overdrive: linear above threshold; below it
        // `V_ov ∝ exp(x/(β·s·V_t))` so that `I ∝ V_ov^β ∝ exp(x/(s·V_t))`
        // gives the intended subthreshold slope of s·60 mV/dec (without
        // the β scaling, the power law would steepen the slope by β).
        let s = beta * self.ss_factor * THERMAL_VOLTAGE;
        let x = (vgs - self.vth) / s;
        let vov = s * softplus(x);
        // Smooth saturation: V_DSe → min(V_DS, V_ov).
        let vdse = smooth_min(vds, vov);
        let k = self.mu0 * self.cox * self.width / self.length;
        let drift = k * (vov.powf(beta) - (vov - vdse).max(0.0).powf(beta)) / beta;
        let clm = 1.0 + self.lambda * vds;
        let leak = self.leak_conductance * self.width / self.length * vds;
        drift * clm + leak
    }

    /// Fused operating-point evaluation: drain current plus its analytic
    /// partial derivatives `g_m = ∂I_D/∂V_GS` and `g_ds = ∂I_D/∂V_DS` in
    /// one pass.
    ///
    /// The SPICE Newton loop needs `(I_D, g_m, g_ds)` for every TFT on
    /// every iteration. This method shares one forward pass between the
    /// three and differentiates the smoothing devices in closed form, so
    /// the partials are exact and cost no extra model evaluation. The
    /// current is bitwise identical to [`CompactModel::drain_current`].
    // stco-hot
    pub fn linearize(&self, vgs: f64, vds: f64) -> Linearization {
        match self.device_type {
            DeviceType::NType => self.linearize_n(self.vth, vgs, vds),
            // Mirror symmetry (see `drain_current`): I_P(Vgs, Vds) =
            // −I_N'(−Vgs, −Vds), so both derivatives keep their sign:
            // ∂I_P/∂Vgs = I_N'₁(−Vgs, −Vds) and likewise for ∂/∂Vds.
            DeviceType::PType => {
                let lin = self.linearize_n(-self.vth, -vgs, -vds);
                Linearization {
                    id: -lin.id,
                    gm: lin.gm,
                    gds: lin.gds,
                }
            }
        }
    }

    /// N-type linearization with an explicit threshold (so the P-type
    /// mirror never clones the model).
    fn linearize_n(&self, vth: f64, vgs: f64, vds: f64) -> Linearization {
        if vds < 0.0 {
            // Source/drain exchange symmetry: I(Vgs, Vds) = −F(Vgs − Vds,
            // −Vds), hence ∂I/∂Vgs = −F₁ and ∂I/∂Vds = F₁ + F₂.
            let f = self.linearize_n_fwd(vth, vgs - vds, -vds);
            return Linearization {
                id: -f.id,
                gm: -f.gm,
                gds: f.gm + f.gds,
            };
        }
        self.linearize_n_fwd(vth, vgs, vds)
    }

    /// First-quadrant model with forward value and analytic partials.
    ///
    /// The forward value replays `current_n_fwd` operation for operation
    /// (so it stays bitwise identical); the derivative terms reuse its
    /// intermediates. With `f(a, b) = a·(1 + (a/b)^m)^(−1/m)` the
    /// smooth-min partials collapse to `∂f/∂a = w^(−(m+1)/m)` and
    /// `∂f/∂b = (u^m/w)^((m+1)/m)` where `u = a/b`, `w = 1 + u^m`.
    fn linearize_n_fwd(&self, vth: f64, vgs: f64, vds: f64) -> Linearization {
        debug_assert!(vds >= 0.0);
        let beta = self.gamma + 2.0;
        let s = beta * self.ss_factor * THERMAL_VOLTAGE;
        let x = (vgs - vth) / s;
        // Softplus and its derivative share the single exp() evaluation;
        // dV_ov/dV_GS = σ(x) because the `s` factors cancel.
        let (sp, dvov) = softplus_with_derivative(x);
        let vov = s * sp;
        // Smooth saturation V_DSe = f(V_DS, V_ov) and its two partials.
        let (vdse, df_dvds, df_dvov) = smooth_min_with_partials(vds, vov);
        let k = self.mu0 * self.cox * self.width / self.length;
        let vov_pow = vov.powf(beta);
        let q = (vov - vdse).max(0.0);
        let q_pow = q.powf(beta);
        let drift = k * (vov_pow - q_pow) / beta;
        let clm = 1.0 + self.lambda * vds;
        let leak_g = self.leak_conductance * self.width / self.length;
        let id = drift * clm + leak_g * vds;
        // β·v^(β−1) = β·v^β / v; both bases are strictly positive except
        // at exact zero, where the β > 2 power law has zero slope.
        let vov_pm1 = if vov > 0.0 { vov_pow / vov } else { 0.0 };
        let q_pm1 = if q > 0.0 { q_pow / q } else { 0.0 };
        let dvdse_dvgs = df_dvov * dvov;
        let ddrift_dvgs = k * (vov_pm1 * dvov - q_pm1 * (dvov - dvdse_dvgs));
        let ddrift_dvds = k * q_pm1 * df_dvds;
        Linearization {
            id,
            gm: ddrift_dvgs * clm,
            gds: ddrift_dvds * clm + drift * self.lambda + leak_g,
        }
    }

    /// On-current at the given supply (|V_GS| = |V_DS| = V_DD with the
    /// polarity-correct signs).
    pub fn on_current(&self, vdd: f64) -> f64 {
        match self.device_type {
            DeviceType::NType => self.drain_current(vdd, vdd),
            DeviceType::PType => self.drain_current(-vdd, -vdd).abs(),
        }
    }

    /// Off-current magnitude at |V_DS| = V_DD, V_GS = 0.
    pub fn off_current(&self, vdd: f64) -> f64 {
        match self.device_type {
            DeviceType::NType => self.drain_current(0.0, vdd).abs(),
            DeviceType::PType => self.drain_current(0.0, -vdd).abs(),
        }
    }
}

/// Numerically-stable softplus `ln(1 + eˣ)`.
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Softplus together with its derivative σ(x), sharing the single `exp`
/// evaluation. The forward value is branch-for-branch identical to
/// [`softplus`].
fn softplus_with_derivative(x: f64) -> (f64, f64) {
    if x > 30.0 {
        (x, 1.0)
    } else if x < -30.0 {
        let e = x.exp();
        (e, e)
    } else {
        let e = x.exp();
        (e.ln_1p(), e / (1.0 + e))
    }
}

/// Smooth minimum that approaches `min(a, b)` with C¹ continuity:
/// `a·b / (a^m + b^m)^(1/m)`-style saturation with m = 4.
fn smooth_min(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        return 0.0;
    }
    let m = 4.0;
    let u = a / b;
    a / (1.0 + u.powf(m)).powf(1.0 / m)
}

/// [`smooth_min`] together with both partials `(f, ∂f/∂a, ∂f/∂b)`.
///
/// With `u = a/b` and `w = 1 + u^m`, the quotient-rule expressions
/// collapse (using `w − u^m = 1` and degree-1 homogeneity) to
/// `∂f/∂a = w^(−(m+1)/m)` and `∂f/∂b = (u^m/w)^((m+1)/m)`. The forward
/// value replays [`smooth_min`] exactly.
fn smooth_min_with_partials(a: f64, b: f64) -> (f64, f64, f64) {
    if b <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let m = 4.0;
    let u = a / b;
    let um = u.powf(m);
    let value = a / (1.0 + um).powf(1.0 / m);
    if !um.is_finite() {
        // a ≫ b: f saturates at b, so ∂f/∂a → 0 and ∂f/∂b → 1.
        return (value, 0.0, 1.0);
    }
    let w = 1.0 + um;
    (value, w.powf(-(m + 1.0) / m), (um / w).powf((m + 1.0) / m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_validate() {
        CompactModel::ntype_reference().validate().unwrap();
        CompactModel::ptype_reference().validate().unwrap();
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut m = CompactModel::ntype_reference();
        m.mu0 = -1.0;
        assert!(m.validate().is_err());
        let mut m = CompactModel::ntype_reference();
        m.gamma = 5.0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn eq1_mobility_power_law() {
        let m = CompactModel::ntype_reference();
        let mu1 = m.mobility(m.vth + 1.0);
        let mu2 = m.mobility(m.vth + 2.0);
        assert!((mu1 - m.mu0).abs() < 1e-15, "μ at V_ov=1 must equal μ₀");
        assert!((mu2 / mu1 - 2.0_f64.powf(m.gamma)).abs() < 1e-12);
        assert_eq!(m.mobility(m.vth - 0.5), 0.0);
    }

    #[test]
    fn ptype_mobility_mirrors() {
        let m = CompactModel::ptype_reference();
        assert!(m.mobility(m.vth - 1.0) > 0.0);
        assert_eq!(m.mobility(m.vth + 0.5), 0.0);
    }

    #[test]
    fn current_monotone_in_vgs() {
        let m = CompactModel::ntype_reference();
        let mut prev = -1.0;
        for k in 0..30 {
            let vgs = -1.0 + 0.2 * k as f64;
            let i = m.drain_current(vgs, 1.0);
            assert!(i >= prev, "I_D must not decrease with V_GS");
            prev = i;
        }
        // Strictly increasing once above the leak floor.
        assert!(m.drain_current(2.0, 1.0) > 1.5 * m.drain_current(1.5, 1.0));
    }

    #[test]
    fn current_monotone_and_saturating_in_vds() {
        let m = CompactModel::ntype_reference();
        let vgs = 2.0;
        let mut prev = 0.0;
        let mut slopes = Vec::new();
        for k in 1..=30 {
            let vds = 0.1 * k as f64;
            let i = m.drain_current(vgs, vds);
            assert!(i >= prev, "output curve must be non-decreasing");
            slopes.push((i - prev) / 0.1);
            prev = i;
        }
        assert!(slopes[29] < 0.2 * slopes[0], "must saturate");
    }

    #[test]
    fn subthreshold_slope_matches_ideality() {
        let m = CompactModel::ntype_reference();
        // Two points well below threshold, one decade apart in current.
        let v1 = m.vth - 0.35;
        let v2 = m.vth - 0.25;
        let i1 = m.drain_current(v1, 1.0);
        let i2 = m.drain_current(v2, 1.0);
        let decades = (i2 / i1).log10();
        let slope_mv_per_dec = (v2 - v1) * 1000.0 / decades;
        let expected = m.ss_factor * THERMAL_VOLTAGE * std::f64::consts::LN_10 * 1000.0;
        assert!(
            (slope_mv_per_dec - expected).abs() / expected < 0.25,
            "SS {slope_mv_per_dec:.1} mV/dec vs expected {expected:.1}"
        );
    }

    #[test]
    fn current_is_continuous_through_saturation() {
        let m = CompactModel::ntype_reference();
        let vgs = 1.6;
        let vov = vgs - m.vth;
        let eps = 1e-6;
        let below = m.drain_current(vgs, vov - eps);
        let above = m.drain_current(vgs, vov + eps);
        assert!((below - above).abs() / above < 1e-3);
    }

    #[test]
    fn zero_vds_zero_current() {
        let n = CompactModel::ntype_reference();
        let p = CompactModel::ptype_reference();
        assert_eq!(n.drain_current(2.0, 0.0), 0.0);
        assert_eq!(p.drain_current(-2.0, 0.0), 0.0);
    }

    #[test]
    fn reverse_vds_antisymmetry() {
        // Swapping source and drain negates the current (with Vgs referred
        // to the new source).
        let m = CompactModel::ntype_reference();
        let (vgs, vds) = (1.5, 0.7);
        let fwd = m.drain_current(vgs, vds);
        let rev = m.drain_current(vgs - vds, -vds);
        assert!((fwd + rev).abs() / fwd < 1e-12);
    }

    #[test]
    fn ptype_mirror_symmetry() {
        let p = CompactModel::ptype_reference();
        let n = CompactModel {
            device_type: DeviceType::NType,
            vth: -p.vth,
            ..p.clone()
        };
        let (vgs, vds) = (-2.0, -1.0);
        assert!((p.drain_current(vgs, vds) + n.drain_current(-vgs, -vds)).abs() < 1e-18);
        assert!(p.drain_current(-2.0, -1.0) < 0.0);
    }

    #[test]
    fn on_off_ratio_is_large() {
        let m = CompactModel::ntype_reference();
        let ratio = m.on_current(2.0) / m.off_current(2.0).max(1e-30);
        assert!(ratio > 1e4, "on/off ratio {ratio:.3e}");
    }

    #[test]
    fn current_scales_with_geometry() {
        let m = CompactModel::ntype_reference();
        let wide = m.resized(m.width * 2.0, m.length);
        let long = m.resized(m.width, m.length * 2.0);
        let base = m.drain_current(2.0, 1.0);
        assert!((wide.drain_current(2.0, 1.0) / base - 2.0).abs() < 1e-9);
        assert!((long.drain_current(2.0, 1.0) / base - 0.5).abs() < 1e-9);
    }

    #[test]
    fn linearize_current_is_bitwise_drain_current() {
        for m in [
            CompactModel::ntype_reference(),
            CompactModel::ptype_reference(),
        ] {
            for k in 0..400 {
                // Sweep all four quadrants, through threshold and V_DS = 0.
                let vgs = -2.0 + 0.23 * (k % 20) as f64;
                let vds = -2.0 + 0.21 * (k / 20) as f64;
                let lin = m.linearize(vgs, vds);
                let id = m.drain_current(vgs, vds);
                assert_eq!(
                    lin.id.to_bits(),
                    id.to_bits(),
                    "{:?} at ({vgs}, {vds}): {} vs {id}",
                    m.device_type(),
                    lin.id
                );
            }
        }
    }

    #[test]
    fn linearize_derivatives_match_finite_differences() {
        let h = 1e-5;
        for m in [
            CompactModel::ntype_reference(),
            CompactModel::ptype_reference(),
        ] {
            for k in 0..100 {
                let vgs = -1.8 + 0.4 * (k % 10) as f64;
                let vds = -1.9 + 0.42 * (k / 10) as f64;
                let lin = m.linearize(vgs, vds);
                let gm_ref =
                    (m.drain_current(vgs + h, vds) - m.drain_current(vgs - h, vds)) / (2.0 * h);
                let gds_ref =
                    (m.drain_current(vgs, vds + h) - m.drain_current(vgs, vds - h)) / (2.0 * h);
                let scale = gm_ref.abs().max(gds_ref.abs()).max(1e-9);
                assert!(
                    (lin.gm - gm_ref).abs() <= 1e-4 * scale,
                    "{:?} gm at ({vgs}, {vds}): {} vs {gm_ref}",
                    m.device_type(),
                    lin.gm
                );
                assert!(
                    (lin.gds - gds_ref).abs() <= 1e-4 * scale,
                    "{:?} gds at ({vgs}, {vds}): {} vs {gds_ref}",
                    m.device_type(),
                    lin.gds
                );
            }
        }
    }

    #[test]
    fn linearize_is_finite_at_extreme_bias() {
        let m = CompactModel::ntype_reference();
        // Deep subthreshold, huge drive, and a V_DS ≫ V_ov ratio that
        // overflows u^m inside the smooth-min partials.
        for (vgs, vds) in [(-40.0, 50.0), (40.0, 50.0), (-300.0, 200.0), (0.599, 1e6)] {
            let lin = m.linearize(vgs, vds);
            assert!(
                lin.id.is_finite() && lin.gm.is_finite() && lin.gds.is_finite(),
                "non-finite linearization at ({vgs}, {vds}): {lin:?}"
            );
            assert!(lin.gm >= 0.0, "gm must be non-negative, got {}", lin.gm);
        }
    }

    #[test]
    fn gate_capacitance_formula() {
        let m = CompactModel::ntype_reference();
        let c = m.gate_capacitance();
        assert!((c - 1.0e-3 * 10.0e-6 * 5.0e-6).abs() < 1e-24);
    }
}
