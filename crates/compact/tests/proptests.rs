//! Property-based tests of the unified compact model: monotonicity,
//! continuity, symmetry and scaling laws over randomized parameter sets
//! and bias points.

use proptest::prelude::*;
use stco_compact::model::{CompactModel, DeviceType};

/// Strategy: a valid randomized n-type model.
fn ntype_model() -> impl Strategy<Value = CompactModel> {
    (
        1.0e-4..5.0e-3f64, // mu0
        0.2..1.2f64,       // vth
        0.0..1.0f64,       // gamma
        1.0..2.5f64,       // ss_factor
    )
        .prop_map(|(mu0, vth, gamma, ss)| {
            let mut m = CompactModel::with_params(DeviceType::NType, mu0, vth, gamma);
            m.ss_factor = ss;
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn current_is_monotone_in_vgs(m in ntype_model(), vds in 0.1..3.0f64) {
        let mut prev = f64::NEG_INFINITY;
        for k in 0..25 {
            let vgs = -1.0 + 0.2 * k as f64;
            let i = m.drain_current(vgs, vds);
            prop_assert!(i >= prev - 1e-18, "I_D fell at vgs={vgs}");
            prev = i;
        }
    }

    #[test]
    fn current_is_monotone_in_vds(m in ntype_model(), vgs in 0.0..3.5f64) {
        let mut prev = f64::NEG_INFINITY;
        for k in 0..30 {
            let vds = 0.1 * k as f64;
            let i = m.drain_current(vgs, vds);
            prop_assert!(i >= prev - 1e-18, "output curve fell at vds={vds}");
            prev = i;
        }
    }

    #[test]
    fn zero_vds_means_zero_current(m in ntype_model(), vgs in -2.0..4.0f64) {
        prop_assert_eq!(m.drain_current(vgs, 0.0), 0.0);
    }

    #[test]
    fn source_drain_exchange_antisymmetry(m in ntype_model(), vgs in -1.0..3.0f64, vds in 0.01..3.0f64) {
        let fwd = m.drain_current(vgs, vds);
        let rev = m.drain_current(vgs - vds, -vds);
        let denom = fwd.abs().max(1e-18);
        prop_assert!((fwd + rev).abs() / denom < 1e-9, "fwd {fwd} rev {rev}");
    }

    #[test]
    fn ptype_mirror_matches_ntype(m in ntype_model(), vgs in -3.0..1.0f64, vds in -3.0..0.0f64) {
        let p = m.clone();
        // Construct the mirrored p-type explicitly.
        let mut ptype = CompactModel::with_params(DeviceType::PType, m.mu0, -m.vth, m.gamma);
        ptype.ss_factor = m.ss_factor;
        ptype.lambda = m.lambda;
        ptype.leak_conductance = m.leak_conductance;
        ptype.cox = m.cox;
        ptype.width = m.width;
        ptype.length = m.length;
        let ip = ptype.drain_current(vgs, vds);
        let in_ = p.drain_current(-vgs, -vds);
        let denom = in_.abs().max(1e-18);
        prop_assert!((ip + in_).abs() / denom < 1e-9, "p {ip} vs n {in_}");
    }

    #[test]
    fn current_scales_linearly_with_width(m in ntype_model(), scale in 0.5..4.0f64) {
        let wide = m.resized(m.width * scale, m.length);
        let base = m.drain_current(2.5, 1.5);
        prop_assume!(base > 1e-18);
        let ratio = wide.drain_current(2.5, 1.5) / base;
        prop_assert!((ratio - scale).abs() / scale < 1e-9);
    }

    #[test]
    fn current_scales_inversely_with_length(m in ntype_model(), scale in 0.5..4.0f64) {
        let long = m.resized(m.width, m.length * scale);
        let base = m.drain_current(2.5, 1.5);
        prop_assume!(base > 1e-18);
        let ratio = long.drain_current(2.5, 1.5) / base;
        prop_assert!((ratio - 1.0 / scale).abs() * scale < 1e-9);
    }

    #[test]
    fn saturation_current_is_continuous(m in ntype_model(), vgs in 1.0..3.5f64) {
        // Scan across the linear/saturation boundary with a fine step;
        // relative jumps must stay tiny (the model is single-piece).
        let vov = vgs - m.vth;
        prop_assume!(vov > 0.3);
        let mut prev = m.drain_current(vgs, 0.5 * vov);
        for k in 1..=40 {
            let vds = 0.5 * vov + k as f64 * (vov / 40.0);
            let cur = m.drain_current(vgs, vds);
            let denom = prev.abs().max(1e-18);
            prop_assert!((cur - prev).abs() / denom < 0.15, "jump at vds={vds}");
            prev = cur;
        }
    }

    #[test]
    fn gm_is_nonnegative_in_forward_operation(m in ntype_model(), vgs in 0.0..3.0f64, vds in 0.05..3.0f64) {
        prop_assert!(m.linearize(vgs, vds).gm >= -1e-15);
    }

    #[test]
    fn higher_gamma_means_stronger_overdrive_sensitivity(base in ntype_model()) {
        let mut hi = base.clone();
        hi.gamma = (base.gamma + 0.5).min(1.5);
        // Current ratio between strong and weak overdrive grows with gamma.
        let r_base = base.drain_current(base.vth + 2.0, 0.1) / base.drain_current(base.vth + 1.0, 0.1);
        let r_hi = hi.drain_current(hi.vth + 2.0, 0.1) / hi.drain_current(hi.vth + 1.0, 0.1);
        prop_assert!(r_hi > r_base * 0.999, "{r_hi} vs {r_base}");
    }

    #[test]
    fn validate_accepts_generated_models(m in ntype_model()) {
        prop_assert!(m.validate().is_ok());
    }
}
