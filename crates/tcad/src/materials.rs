//! Material property tables for the emerging technologies the paper
//! targets (CNT, IGZO, LTPS) plus the dielectrics and contacts around
//! them.
//!
//! Property values are representative literature numbers for thin-film
//! devices; they parameterize the carrier statistics, SRH recombination
//! and mobility models in [`crate::physics`] and double as the
//! material-level parameter vector of the unified device encoding
//! (Fig. 2 of the paper).

/// Channel technology family (also used by `stco-compact` presets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// Carbon-nanotube network TFT (typically p-type).
    Cnt,
    /// Indium-gallium-zinc-oxide TFT (n-type).
    Igzo,
    /// Low-temperature polycrystalline silicon TFT.
    Ltps,
}

impl Technology {
    /// All supported technologies, in encoding order.
    pub const ALL: [Technology; 3] = [Technology::Cnt, Technology::Igzo, Technology::Ltps];

    /// Index used for one-hot encodings.
    pub fn index(self) -> usize {
        match self {
            Technology::Cnt => 0,
            Technology::Igzo => 1,
            Technology::Ltps => 2,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Technology::Cnt => "CNT",
            Technology::Igzo => "IGZO",
            Technology::Ltps => "LTPS",
        }
    }
}

impl std::fmt::Display for Technology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Carrier polarity of a TFT channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// Electron conduction.
    NType,
    /// Hole conduction.
    PType,
}

impl Polarity {
    /// +1 for n-type, −1 for p-type; flips the sign conventions in the
    /// carrier statistics and compact model.
    pub fn sign(self) -> f64 {
        match self {
            Polarity::NType => 1.0,
            Polarity::PType => -1.0,
        }
    }
}

/// Material identity of a mesh node (one-hot channel of the encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Material {
    /// Semiconductor channel of the given technology.
    Semiconductor(Technology),
    /// Gate dielectric (SiO₂-like).
    OxideSiO2,
    /// High-k gate dielectric (HfO₂-like).
    OxideHfO2,
    /// Metal contact.
    Metal,
    /// Passivation / encapsulation above the channel.
    Passivation,
}

impl Material {
    /// Number of distinct one-hot material classes
    /// (3 semiconductors + 2 oxides + metal + passivation).
    pub const NUM_CLASSES: usize = 7;

    /// One-hot class index for the unified encoding.
    pub fn class_index(self) -> usize {
        match self {
            Material::Semiconductor(t) => t.index(),
            Material::OxideSiO2 => 3,
            Material::OxideHfO2 => 4,
            Material::Metal => 5,
            Material::Passivation => 6,
        }
    }

    /// Relative permittivity.
    pub fn relative_permittivity(self) -> f64 {
        match self {
            Material::Semiconductor(Technology::Cnt) => 5.0,
            Material::Semiconductor(Technology::Igzo) => 10.0,
            Material::Semiconductor(Technology::Ltps) => 11.7,
            Material::OxideSiO2 => 3.9,
            Material::OxideHfO2 => 20.0,
            Material::Metal => 1.0,
            Material::Passivation => 2.5,
        }
    }

    /// Whether the material conducts carriers (semiconductor regions).
    pub fn is_semiconductor(self) -> bool {
        matches!(self, Material::Semiconductor(_))
    }
}

/// Physical parameters of a semiconductor channel, forming the
/// material-level "parameter vector" of the unified encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelParams {
    /// Technology family.
    pub technology: Technology,
    /// Carrier polarity.
    pub polarity: Polarity,
    /// Effective band-edge density of states, 1/m³.
    pub effective_dos: f64,
    /// Intrinsic-ish background density, 1/m³ (sets the off-state floor).
    pub intrinsic_density: f64,
    /// Net channel doping (donors − acceptors for n-type), 1/m³.
    pub doping: f64,
    /// Tail-trap density of states prefactor, 1/m³ (TDT model).
    pub tail_trap_density: f64,
    /// Tail slope as a multiple of kT (TDT characteristic energy).
    pub tail_slope: f64,
    /// Low-field band mobility prefactor μ₀, m²/(V·s).
    pub mobility_mu0: f64,
    /// Mobility field-enhancement exponent γ (VRH/TDT percolation).
    pub mobility_gamma: f64,
    /// Flat-band / work-function offset between gate and channel, V.
    pub flat_band: f64,
    /// SRH electron lifetime, s.
    pub srh_tau_n: f64,
    /// SRH hole lifetime, s.
    pub srh_tau_p: f64,
    /// Band-to-band tunneling prefactor (1/m³/s at unit field factor).
    pub tunneling_prefactor: f64,
}

impl ChannelParams {
    /// Representative parameters for each technology's standard device.
    ///
    /// Values are of literature magnitude for thin-film devices: IGZO with
    /// low trap density and mobility ~10 cm²/Vs; LTPS with grain-boundary
    /// traps and mobility ~50 cm²/Vs; CNT networks p-type with strong
    /// tail-trap hopping (γ noticeably above 0).
    pub fn reference(technology: Technology) -> Self {
        match technology {
            Technology::Cnt => ChannelParams {
                technology,
                polarity: Polarity::PType,
                effective_dos: 2.0e25,
                intrinsic_density: 2.0e13,
                doping: 1.0e21,
                tail_trap_density: 4.0e24,
                tail_slope: 2.4,
                mobility_mu0: 2.5e-3, // 25 cm²/Vs
                mobility_gamma: 0.45,
                flat_band: 0.4,
                srh_tau_n: 2.0e-8,
                srh_tau_p: 2.0e-8,
                tunneling_prefactor: 1.0e18,
            },
            Technology::Igzo => ChannelParams {
                technology,
                polarity: Polarity::NType,
                effective_dos: 5.0e24,
                intrinsic_density: 1.0e12,
                doping: 5.0e20,
                tail_trap_density: 1.5e24,
                tail_slope: 1.8,
                mobility_mu0: 1.2e-3, // 12 cm²/Vs
                mobility_gamma: 0.35,
                flat_band: -0.3,
                srh_tau_n: 5.0e-8,
                srh_tau_p: 5.0e-8,
                tunneling_prefactor: 3.0e17,
            },
            Technology::Ltps => ChannelParams {
                technology,
                polarity: Polarity::NType,
                effective_dos: 2.8e25,
                intrinsic_density: 1.5e16,
                doping: 2.0e21,
                tail_trap_density: 8.0e24,
                tail_slope: 2.0,
                mobility_mu0: 5.0e-3, // 50 cm²/Vs
                mobility_gamma: 0.25,
                flat_band: -0.1,
                srh_tau_n: 1.0e-8,
                srh_tau_p: 1.0e-8,
                tunneling_prefactor: 8.0e17,
            },
        }
    }

    /// Flattened parameter vector for the material-level embedding of the
    /// unified device encoding (Fig. 2). Values are log/linearly scaled to
    /// comparable magnitudes; the order is stable and documented by
    /// [`ChannelParams::PARAM_NAMES`].
    pub fn parameter_vector(&self) -> Vec<f64> {
        vec![
            self.polarity.sign(),
            (self.effective_dos.log10() - 24.0).clamp(-3.0, 3.0),
            (self.intrinsic_density.max(1.0).log10() - 13.0).clamp(-4.0, 4.0),
            (self.doping.max(1.0).log10() - 21.0).clamp(-3.0, 3.0),
            (self.tail_trap_density.max(1.0).log10() - 24.0).clamp(-3.0, 3.0),
            self.tail_slope,
            self.mobility_mu0 * 1e3,
            self.mobility_gamma,
            self.flat_band,
            (self.srh_tau_n.log10() + 8.0).clamp(-3.0, 3.0),
            (self.srh_tau_p.log10() + 8.0).clamp(-3.0, 3.0),
            (self.tunneling_prefactor.max(1.0).log10() - 18.0).clamp(-3.0, 3.0),
        ]
    }

    /// Names of [`ChannelParams::parameter_vector`] entries, in order.
    pub const PARAM_NAMES: [&'static str; 12] = [
        "polarity",
        "log_effective_dos",
        "log_intrinsic_density",
        "log_doping",
        "log_tail_trap_density",
        "tail_slope",
        "mobility_mu0_x1e3",
        "mobility_gamma",
        "flat_band",
        "log_srh_tau_n",
        "log_srh_tau_p",
        "log_tunneling_prefactor",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technology_indices_are_distinct() {
        let idx: Vec<usize> = Technology::ALL.iter().map(|t| t.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn material_class_indices_cover_range() {
        let mats = [
            Material::Semiconductor(Technology::Cnt),
            Material::Semiconductor(Technology::Igzo),
            Material::Semiconductor(Technology::Ltps),
            Material::OxideSiO2,
            Material::OxideHfO2,
            Material::Metal,
            Material::Passivation,
        ];
        let mut seen = [false; Material::NUM_CLASSES];
        for m in mats {
            let i = m.class_index();
            assert!(i < Material::NUM_CLASSES);
            assert!(!seen[i], "duplicate class index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permittivities_are_physical() {
        assert!(
            Material::OxideHfO2.relative_permittivity()
                > Material::OxideSiO2.relative_permittivity()
        );
        for t in Technology::ALL {
            assert!(Material::Semiconductor(t).relative_permittivity() >= 1.0);
        }
    }

    #[test]
    fn cnt_reference_is_p_type() {
        let p = ChannelParams::reference(Technology::Cnt);
        assert_eq!(p.polarity, Polarity::PType);
        assert_eq!(p.polarity.sign(), -1.0);
    }

    #[test]
    fn parameter_vector_matches_name_count() {
        for t in Technology::ALL {
            let p = ChannelParams::reference(t);
            assert_eq!(p.parameter_vector().len(), ChannelParams::PARAM_NAMES.len());
        }
    }

    #[test]
    fn parameter_vectors_distinguish_technologies() {
        let a = ChannelParams::reference(Technology::Cnt).parameter_vector();
        let b = ChannelParams::reference(Technology::Igzo).parameter_vector();
        assert_ne!(a, b);
    }

    #[test]
    fn ltps_has_highest_mobility() {
        let mob = |t| ChannelParams::reference(t).mobility_mu0;
        assert!(mob(Technology::Ltps) > mob(Technology::Cnt));
        assert!(mob(Technology::Cnt) > mob(Technology::Igzo));
    }
}
