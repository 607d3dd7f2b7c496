//! Parameterized planar TFT devices and the randomized sampler used to
//! build surrogate-training populations.
//!
//! The structure is a bottom-gate coplanar TFT: a metal gate row at the
//! bottom, a gate dielectric, the semiconductor channel (with source/drain
//! contact windows at its two ends) and passivation on top. This mirrors
//! the planar CNT devices of the paper's calibrated TCAD study.

use crate::materials::{ChannelParams, Material, Technology};
use crate::mesh::{graded_axis, RectMesh, Region};
use crate::{Result, TcadError};
use stco_numerics::rng::Xorshift;

/// Terminal bias point (source is the ground reference).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Bias {
    /// Gate-source voltage, V.
    pub gate: f64,
    /// Drain-source voltage, V.
    pub drain: f64,
}

/// Gate-dielectric material choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOxide {
    /// SiO₂-like (εr ≈ 3.9).
    SiO2,
    /// HfO₂-like high-k (εr ≈ 20).
    HfO2,
}

impl GateOxide {
    fn material(self) -> Material {
        match self {
            GateOxide::SiO2 => Material::OxideSiO2,
            GateOxide::HfO2 => Material::OxideHfO2,
        }
    }
}

/// Full specification of a planar TFT for the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Channel (gated) length, m.
    pub channel_length: f64,
    /// Source/drain contact window length, m (each side).
    pub contact_length: f64,
    /// Device width (out-of-plane), m.
    pub width: f64,
    /// Gate dielectric thickness, m.
    pub oxide_thickness: f64,
    /// Semiconductor film thickness, m.
    pub channel_thickness: f64,
    /// Passivation thickness, m.
    pub passivation_thickness: f64,
    /// Gate dielectric material.
    pub gate_oxide: GateOxide,
    /// Channel physics parameters.
    pub channel: ChannelParams,
    /// Contact built-in offset magnitude, V (ohmic accumulation pinning).
    pub contact_offset: f64,
    /// Mesh resolution: columns per contact window.
    pub nx_contact: usize,
    /// Mesh resolution: columns across the channel.
    pub nx_channel: usize,
    /// Mesh resolution: rows through the oxide.
    pub ny_oxide: usize,
    /// Mesh resolution: rows through the semiconductor.
    pub ny_channel: usize,
    /// Mesh resolution: rows through the passivation.
    pub ny_passivation: usize,
}

impl DeviceSpec {
    /// The reference device of a technology: 2 µm channel, 40 nm oxide,
    /// 30 nm film — small enough to solve in milliseconds, with the same
    /// layer stack as the paper's planar CNT devices.
    pub fn reference(technology: Technology) -> Self {
        DeviceSpec {
            channel_length: 2.0e-6,
            contact_length: 0.5e-6,
            width: 10.0e-6,
            oxide_thickness: 40.0e-9,
            channel_thickness: 30.0e-9,
            passivation_thickness: 60.0e-9,
            gate_oxide: GateOxide::SiO2,
            channel: ChannelParams::reference(technology),
            contact_offset: 0.15,
            nx_contact: 3,
            nx_channel: 12,
            ny_oxide: 4,
            ny_channel: 5,
            ny_passivation: 2,
        }
    }

    /// Gate capacitance per unit area, F/m².
    pub fn oxide_capacitance(&self) -> f64 {
        self.gate_oxide.material().relative_permittivity() * crate::VACUUM_PERMITTIVITY
            / self.oxide_thickness
    }

    /// Validates geometry and constructs the meshed [`Device`].
    ///
    /// # Errors
    ///
    /// Returns [`TcadError::InvalidGeometry`] for non-positive dimensions
    /// or degenerate mesh resolutions.
    pub fn build(&self) -> Result<Device> {
        for (name, v) in [
            ("channel_length", self.channel_length),
            ("contact_length", self.contact_length),
            ("width", self.width),
            ("oxide_thickness", self.oxide_thickness),
            ("channel_thickness", self.channel_thickness),
            ("passivation_thickness", self.passivation_thickness),
        ] {
            if v <= 0.0 || !v.is_finite() {
                return Err(TcadError::InvalidGeometry {
                    context: format!("{name} must be positive, got {v}"),
                });
            }
        }
        if self.nx_contact < 1 || self.nx_channel < 3 || self.ny_oxide < 2 || self.ny_channel < 2 {
            return Err(TcadError::InvalidGeometry {
                context: "mesh resolution too coarse (nx_channel ≥ 3, ny ≥ 2)".into(),
            });
        }

        let xs = graded_axis(&[
            (self.contact_length, self.nx_contact),
            (self.channel_length, self.nx_channel),
            (self.contact_length, self.nx_contact),
        ]);
        // y: one gate row at 0, then oxide, channel, passivation.
        let gate_row_height = self.oxide_thickness / self.ny_oxide as f64;
        let ys = graded_axis(&[
            (gate_row_height, 1), // gate electrode row
            (self.oxide_thickness, self.ny_oxide),
            (self.channel_thickness, self.ny_channel),
            (self.passivation_thickness, self.ny_passivation),
        ]);

        let nx = xs.len();
        let ny = ys.len();
        let gate_rows = 0..=1; // node row 0 and the oxide/gate interface row 1 bottom
        let oxide_top_row = 1 + self.ny_oxide; // last oxide row index
        let channel_top_row = oxide_top_row + self.ny_channel;
        let source_cols = 0..=self.nx_contact; // includes contact/channel seam
        let drain_cols = (nx - 1 - self.nx_contact)..nx;

        let mut materials = Vec::with_capacity(nx * ny);
        let mut regions = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                let (mat, reg) = if iy == *gate_rows.start() {
                    (Material::Metal, Region::Gate)
                } else if iy <= oxide_top_row {
                    (self.gate_oxide.material(), Region::Dielectric)
                } else if iy <= channel_top_row {
                    let mat = Material::Semiconductor(self.channel.technology);
                    if source_cols.contains(&ix) {
                        (mat, Region::SourceContact)
                    } else if drain_cols.contains(&ix) {
                        (mat, Region::DrainContact)
                    } else {
                        (mat, Region::Channel)
                    }
                } else {
                    (Material::Passivation, Region::Passivation)
                };
                materials.push(mat);
                regions.push(reg);
            }
        }
        let mesh = RectMesh::new(xs, ys, materials, regions);
        // Channel x-extent for the quasi-Fermi ramp.
        let channel_x0 = self.contact_length;
        let channel_x1 = self.contact_length + self.channel_length;
        Ok(Device {
            spec: self.clone(),
            mesh,
            channel_x0,
            channel_x1,
        })
    }
}

/// A meshed device ready for simulation.
#[derive(Debug, Clone)]
pub struct Device {
    spec: DeviceSpec,
    mesh: RectMesh,
    channel_x0: f64,
    channel_x1: f64,
}

impl Device {
    /// The originating specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The finite-volume mesh.
    pub fn mesh(&self) -> &RectMesh {
        &self.mesh
    }

    /// Channel physics parameters.
    pub fn channel(&self) -> &ChannelParams {
        &self.spec.channel
    }

    /// Quasi-Fermi potential at position `x` for the given bias: 0 over
    /// the source contact, `V_D` over the drain contact, linear ramp
    /// across the gated channel.
    pub fn quasi_fermi(&self, x: f64, bias: Bias) -> f64 {
        if x <= self.channel_x0 {
            0.0
        } else if x >= self.channel_x1 {
            bias.drain
        } else {
            bias.drain * (x - self.channel_x0) / (self.channel_x1 - self.channel_x0)
        }
    }

    /// Dirichlet potential of a pinned node, if any.
    ///
    /// Contacts pin the semiconductor surface to the terminal voltage plus
    /// an ohmic accumulation offset (signed by polarity); the gate pins to
    /// `V_G − V_FB`.
    pub fn dirichlet_potential(&self, node: usize, bias: Bias) -> Option<f64> {
        let offset = -self.spec.channel.polarity.sign() * self.spec.contact_offset;
        match self.mesh.region(node) {
            Region::Gate => Some(bias.gate - self.spec.channel.flat_band),
            Region::SourceContact => Some(offset),
            Region::DrainContact => Some(bias.drain + offset),
            _ => None,
        }
    }

    /// Column indices spanning the gated channel (exclusive of contacts).
    pub fn channel_columns(&self) -> Vec<usize> {
        (0..self.mesh.nx())
            .filter(|&ix| {
                let x = self.mesh.xs()[ix];
                x > self.channel_x0 && x < self.channel_x1
            })
            .collect()
    }

    /// Row indices of the semiconductor film.
    pub fn channel_rows(&self) -> Vec<usize> {
        let first_ch = 2 + self.spec.ny_oxide; // gate row + oxide rows
        (first_ch..first_ch + self.spec.ny_channel).collect()
    }
}

/// Ranges from which [`DeviceSampler`] draws device variations; spans the
/// kind of population the paper's 50 000-device training set covers.
#[derive(Debug, Clone)]
pub struct SamplerRanges {
    /// Channel length range, m.
    pub channel_length: (f64, f64),
    /// Oxide thickness range, m.
    pub oxide_thickness: (f64, f64),
    /// Channel thickness range, m.
    pub channel_thickness: (f64, f64),
    /// Doping multiplier range (log-uniform around the reference).
    pub doping_scale: (f64, f64),
    /// Tail-trap density multiplier range (log-uniform).
    pub trap_scale: (f64, f64),
    /// Mobility prefactor multiplier range (log-uniform).
    pub mobility_scale: (f64, f64),
    /// Flat-band shift range, V.
    pub flat_band_shift: (f64, f64),
    /// Gate bias magnitude range, V.
    pub gate_bias: (f64, f64),
    /// Drain bias magnitude range, V.
    pub drain_bias: (f64, f64),
}

impl Default for SamplerRanges {
    fn default() -> Self {
        SamplerRanges {
            channel_length: (1.0e-6, 4.0e-6),
            oxide_thickness: (20.0e-9, 80.0e-9),
            channel_thickness: (15.0e-9, 50.0e-9),
            doping_scale: (0.3, 3.0),
            trap_scale: (0.3, 3.0),
            mobility_scale: (0.5, 2.0),
            flat_band_shift: (-0.3, 0.3),
            gate_bias: (0.5, 3.0),
            drain_bias: (0.1, 2.0),
        }
    }
}

/// Draws randomized device/bias pairs for dataset generation.
#[derive(Debug, Clone)]
pub struct DeviceSampler {
    ranges: SamplerRanges,
    technologies: Vec<Technology>,
    rng: Xorshift,
}

impl DeviceSampler {
    /// Sampler over the given technologies with default ranges.
    pub fn new(seed: u64, technologies: &[Technology]) -> Self {
        assert!(!technologies.is_empty(), "need at least one technology");
        DeviceSampler {
            ranges: SamplerRanges::default(),
            technologies: technologies.to_vec(),
            rng: Xorshift::new(seed),
        }
    }

    /// Draws one randomized `(spec, bias)` pair. Bias signs follow the
    /// channel polarity (p-type devices are driven negative).
    pub fn sample(&mut self) -> (DeviceSpec, Bias) {
        let tech = self.technologies[self.rng.gen_range(self.technologies.len())];
        let mut spec = DeviceSpec::reference(tech);
        let r = &self.ranges;
        spec.channel_length = self.rng.uniform_in(r.channel_length.0, r.channel_length.1);
        spec.oxide_thickness = self
            .rng
            .uniform_in(r.oxide_thickness.0, r.oxide_thickness.1);
        spec.channel_thickness = self
            .rng
            .uniform_in(r.channel_thickness.0, r.channel_thickness.1);
        if self.rng.chance(0.3) {
            spec.gate_oxide = GateOxide::HfO2;
        }
        let log_u = |rng: &mut Xorshift, (lo, hi): (f64, f64)| -> f64 {
            (rng.uniform_in(lo.ln(), hi.ln())).exp()
        };
        spec.channel.doping *= log_u(&mut self.rng, r.doping_scale);
        spec.channel.tail_trap_density *= log_u(&mut self.rng, r.trap_scale);
        spec.channel.mobility_mu0 *= log_u(&mut self.rng, r.mobility_scale);
        spec.channel.flat_band += self
            .rng
            .uniform_in(r.flat_band_shift.0, r.flat_band_shift.1);
        let sign = spec.channel.polarity.sign();
        let bias = Bias {
            gate: sign * self.rng.uniform_in(r.gate_bias.0, r.gate_bias.1),
            drain: sign * self.rng.uniform_in(r.drain_bias.0, r.drain_bias.1),
        };
        (spec, bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::Polarity;

    #[test]
    fn reference_devices_build_for_all_technologies() {
        for t in Technology::ALL {
            let d = DeviceSpec::reference(t).build().expect("builds");
            assert!(d.mesh().num_nodes() > 50);
        }
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let mut spec = DeviceSpec::reference(Technology::Igzo);
        spec.oxide_thickness = 0.0;
        assert!(matches!(
            spec.build(),
            Err(TcadError::InvalidGeometry { .. })
        ));
        let mut spec = DeviceSpec::reference(Technology::Igzo);
        spec.nx_channel = 1;
        assert!(spec.build().is_err());
    }

    #[test]
    fn mesh_regions_form_expected_stack() {
        let d = DeviceSpec::reference(Technology::Igzo).build().unwrap();
        let m = d.mesh();
        // Bottom row is gate everywhere.
        for ix in 0..m.nx() {
            assert_eq!(m.region(m.node_index(ix, 0)), Region::Gate);
        }
        // Top row is passivation.
        for ix in 0..m.nx() {
            assert_eq!(m.region(m.node_index(ix, m.ny() - 1)), Region::Passivation);
        }
        // Channel rows contain source, channel and drain from left to right.
        let row = d.channel_rows()[0];
        assert_eq!(m.region(m.node_index(0, row)), Region::SourceContact);
        assert_eq!(m.region(m.node_index(m.nx() / 2, row)), Region::Channel);
        assert_eq!(
            m.region(m.node_index(m.nx() - 1, row)),
            Region::DrainContact
        );
    }

    #[test]
    fn quasi_fermi_ramps_linearly() {
        let d = DeviceSpec::reference(Technology::Igzo).build().unwrap();
        let bias = Bias {
            gate: 2.0,
            drain: 1.0,
        };
        assert_eq!(d.quasi_fermi(0.0, bias), 0.0);
        assert_eq!(d.quasi_fermi(10e-6, bias), 1.0);
        let mid = d.quasi_fermi(0.5e-6 + 1.0e-6, bias);
        assert!((mid - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dirichlet_potentials_follow_bias() {
        let d = DeviceSpec::reference(Technology::Igzo).build().unwrap();
        let m = d.mesh();
        let bias = Bias {
            gate: 2.0,
            drain: 1.0,
        };
        let gate_node = m.node_index(0, 0);
        let psi_gate = d.dirichlet_potential(gate_node, bias).unwrap();
        assert!((psi_gate - (2.0 - d.channel().flat_band)).abs() < 1e-12);
        let row = d.channel_rows()[0];
        let src = d.dirichlet_potential(m.node_index(0, row), bias).unwrap();
        let drn = d
            .dirichlet_potential(m.node_index(m.nx() - 1, row), bias)
            .unwrap();
        assert!((drn - src - 1.0).abs() < 1e-12);
        // Channel interior is not pinned.
        assert!(d
            .dirichlet_potential(m.node_index(m.nx() / 2, row), bias)
            .is_none());
    }

    #[test]
    fn oxide_capacitance_scales_with_thickness() {
        let mut spec = DeviceSpec::reference(Technology::Cnt);
        let c1 = spec.oxide_capacitance();
        spec.oxide_thickness *= 2.0;
        assert!((spec.oxide_capacitance() - c1 / 2.0).abs() / c1 < 1e-12);
    }

    #[test]
    fn sampler_respects_polarity_sign() {
        let mut s = DeviceSampler::new(11, &[Technology::Cnt]);
        for _ in 0..20 {
            let (spec, bias) = s.sample();
            assert_eq!(spec.channel.polarity, Polarity::PType);
            assert!(
                bias.gate < 0.0 && bias.drain < 0.0,
                "p-type driven negative"
            );
            assert!(spec.build().is_ok());
        }
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let mut a = DeviceSampler::new(5, &Technology::ALL);
        let mut b = DeviceSampler::new(5, &Technology::ALL);
        for _ in 0..5 {
            let (sa, ba) = a.sample();
            let (sb, bb) = b.sample();
            assert_eq!(sa, sb);
            assert_eq!(ba, bb);
        }
    }

    #[test]
    fn channel_columns_exclude_contacts() {
        let d = DeviceSpec::reference(Technology::Ltps).build().unwrap();
        let cols = d.channel_columns();
        assert!(!cols.is_empty());
        let m = d.mesh();
        let row = d.channel_rows()[0];
        for ix in cols {
            assert_eq!(m.region(m.node_index(ix, row)), Region::Channel);
        }
    }
}
