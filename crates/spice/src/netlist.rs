//! Circuit netlists: nodes, elements, waveforms and MNA stamping.
//!
//! The MNA unknown vector is `[v₁ … v_N | i_V1 … i_VM]`: node voltages
//! (ground excluded) followed by one branch current per voltage source.
//! Elements stamp their linearized companion models into a dense matrix —
//! standard cells have at most a few dozen nodes, where dense LU beats any
//! sparse machinery.

use stco_compact::model::CompactModel;
use stco_numerics::Matrix;

use crate::{Result, SpiceError};

/// Handle to a circuit node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Time-dependent value of an independent voltage source.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value, V.
    Dc(f64),
    /// SPICE-style pulse.
    Pulse {
        /// Initial value, V.
        v0: f64,
        /// Pulsed value, V.
        v1: f64,
        /// Delay before the first edge, s.
        delay: f64,
        /// Rise time, s.
        rise: f64,
        /// Fall time, s.
        fall: f64,
        /// Pulse width (time at `v1`), s.
        width: f64,
        /// Period (0 = single pulse), s.
        period: f64,
    },
    /// Piecewise-linear `(time, value)` pairs (must be time-sorted).
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Value at time `t` (DC value for `t ≤ 0` conventions included).
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v0;
                }
                let mut tau = t - delay;
                if *period > 0.0 {
                    tau %= period;
                }
                if tau < *rise {
                    v0 + (v1 - v0) * tau / rise.max(1e-18)
                } else if tau < rise + width {
                    *v1
                } else if tau < rise + width + fall {
                    v1 + (v0 - v1) * (tau - rise - width) / fall.max(1e-18)
                } else {
                    *v0
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0).max(1e-18);
                    }
                }
                points.last().expect("non-empty").1
            }
        }
    }

    /// A time `T` such that `self.value_at(t)` and `other.value_at(t)`
    /// have the same bits at every `t ≤ T`: `+∞` for bitwise-identical
    /// waveforms, `−∞` when no such time is known.
    ///
    /// Two PWL waveforms agree through their shared leading breakpoints,
    /// then for as long as both stay flat at the last shared value. Any
    /// other difference is treated conservatively as `−∞`.
    pub fn agrees_until(&self, other: &Waveform) -> f64 {
        let identical = match (self, other) {
            (Waveform::Pwl(a), Waveform::Pwl(b)) => return pwl_agrees_until(a, b),
            (Waveform::Dc(a), Waveform::Dc(b)) => a.to_bits() == b.to_bits(),
            (
                Waveform::Pulse {
                    v0,
                    v1,
                    delay,
                    rise,
                    fall,
                    width,
                    period,
                },
                Waveform::Pulse {
                    v0: w0,
                    v1: w1,
                    delay: d,
                    rise: r,
                    fall: f,
                    width: w,
                    period: p,
                },
            ) => [v0, v1, delay, rise, fall, width, period]
                .iter()
                .zip([w0, w1, d, r, f, w, p])
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            _ => false,
        };
        if identical {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    }

    /// A copy with every value scaled by `k` (source stepping).
    pub fn scaled(&self, k: f64) -> Waveform {
        match self {
            Waveform::Dc(v) => Waveform::Dc(v * k),
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => Waveform::Pulse {
                v0: v0 * k,
                v1: v1 * k,
                delay: *delay,
                rise: *rise,
                fall: *fall,
                width: *width,
                period: *period,
            },
            Waveform::Pwl(points) => {
                Waveform::Pwl(points.iter().map(|&(t, v)| (t, v * k)).collect())
            }
        }
    }
}

/// [`Waveform::agrees_until`] for two PWL point lists.
fn pwl_agrees_until(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let shared = a
        .iter()
        .zip(b)
        .take_while(|(p, q)| p.0.to_bits() == q.0.to_bits() && p.1.to_bits() == q.1.to_bits())
        .count();
    if shared == a.len() && shared == b.len() {
        return f64::INFINITY;
    }
    // Up to the last shared breakpoint both evaluate the same windows.
    let Some(&(tp, vp)) = a[..shared].last().filter(|p| !p.0.is_nan()) else {
        return f64::NEG_INFINITY;
    };
    // Beyond it, a flat segment evaluates `vp + 0·(t − t0)/(t1 − t0)` and
    // a waveform past its last point returns `vp`. Those bits match when
    // `vp` is finite and not −0.0 and every `t − t0` is finite, which
    // non-decreasing times within a finite distance of `tp` ensure.
    if !vp.is_finite() || vp.to_bits() == (-0.0_f64).to_bits() || !tp.is_finite() {
        return tp;
    }
    let flat_until = |rest: &[(f64, f64)]| {
        let mut until = tp;
        for &(t, v) in rest {
            if v.to_bits() != vp.to_bits() || !(t >= until && (t - tp).is_finite()) {
                return until;
            }
            until = t;
        }
        f64::INFINITY
    };
    flat_until(&a[shared..]).min(flat_until(&b[shared..]))
}

/// A circuit element.
#[derive(Debug, Clone)]
pub enum Element {
    /// Linear resistor.
    Resistor {
        /// Element name.
        name: String,
        /// Terminals.
        nodes: (NodeId, NodeId),
        /// Resistance, Ω.
        resistance: f64,
    },
    /// Linear capacitor.
    Capacitor {
        /// Element name.
        name: String,
        /// Terminals.
        nodes: (NodeId, NodeId),
        /// Capacitance, F.
        capacitance: f64,
    },
    /// Independent voltage source (owns one MNA branch current).
    VoltageSource {
        /// Element name.
        name: String,
        /// (+, −) terminals.
        nodes: (NodeId, NodeId),
        /// Drive waveform.
        waveform: Waveform,
        /// Index of the branch current among the voltage sources.
        branch: usize,
    },
    /// TFT instance stamped from the unified compact model, with
    /// `C_gs = C_gd = C_gate/2` loading capacitors included.
    Tft {
        /// Element name.
        name: String,
        /// Drain, gate, source terminals.
        dgs: (NodeId, NodeId, NodeId),
        /// The compact model instance (already sized).
        model: CompactModel,
    },
}

impl Element {
    /// The element's name.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::VoltageSource { name, .. }
            | Element::Tft { name, .. } => name,
        }
    }

    /// [`Circuit::agrees_until`] for one pair of elements: the sources'
    /// waveform agreement, `+∞` for any other bitwise-identical pair.
    fn agrees_until(&self, other: &Element) -> f64 {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        let identical = match (self, other) {
            (
                Element::VoltageSource {
                    name,
                    nodes,
                    waveform,
                    branch,
                },
                Element::VoltageSource {
                    name: n,
                    nodes: m,
                    waveform: w,
                    branch: b,
                },
            ) => {
                return if (name, nodes, branch) == (n, m, b) {
                    waveform.agrees_until(w)
                } else {
                    f64::NEG_INFINITY
                };
            }
            (
                Element::Resistor {
                    name,
                    nodes,
                    resistance,
                },
                Element::Resistor {
                    name: n,
                    nodes: m,
                    resistance: r,
                },
            ) => (name, nodes) == (n, m) && same(*resistance, *r),
            (
                Element::Capacitor {
                    name,
                    nodes,
                    capacitance,
                },
                Element::Capacitor {
                    name: n,
                    nodes: m,
                    capacitance: c,
                },
            ) => (name, nodes) == (n, m) && same(*capacitance, *c),
            (
                Element::Tft { name, dgs, model },
                Element::Tft {
                    name: n,
                    dgs: d,
                    model: m,
                },
            ) => (name, dgs) == (n, d) && model.bitwise_eq(m),
            _ => false,
        };
        if identical {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    }
}

/// A circuit under construction (and the stamping context for analyses).
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    elements: Vec<Element>,
    num_vsources: usize,
}

impl Circuit {
    /// The ground node (node 0, always present).
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit (ground pre-allocated).
    pub fn new() -> Self {
        Circuit {
            node_names: vec!["0".to_string()],
            elements: Vec::new(),
            num_vsources: 0,
        }
    }

    /// Returns the node with the given name, creating it if new.
    /// The name `"0"` always maps to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(i) = self.node_names.iter().position(|n| n == name) {
            NodeId(i)
        } else {
            self.node_names.push(name.to_string());
            NodeId(self.node_names.len() - 1)
        }
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_names.iter().position(|n| n == name).map(NodeId)
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of voltage sources (MNA branch currents).
    pub fn num_vsources(&self) -> usize {
        self.num_vsources
    }

    /// Size of the MNA system: non-ground nodes + branch currents.
    pub fn system_size(&self) -> usize {
        self.num_nodes() - 1 + self.num_vsources
    }

    /// The elements, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// A time `T` up to which `self` and `other` drive bitwise-identical
    /// analyses: both are the same netlist (node names, every non-source
    /// element bit for bit, source names, nodes and branches) and every
    /// source's `value_at(t)` has the same bits at all `t ≤ T`
    /// ([`Waveform::agrees_until`]). `+∞` for identical circuits, `−∞`
    /// for different netlists or sources that differ at the start.
    pub fn agrees_until(&self, other: &Circuit) -> f64 {
        if self.node_names != other.node_names
            || self.num_vsources != other.num_vsources
            || self.elements.len() != other.elements.len()
        {
            return f64::NEG_INFINITY;
        }
        self.elements
            .iter()
            .zip(&other.elements)
            .map(|(a, b)| a.agrees_until(b))
            .fold(f64::INFINITY, f64::min)
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `resistance <= 0`.
    pub fn add_resistor(&mut self, name: &str, a: NodeId, b: NodeId, resistance: f64) {
        assert!(resistance > 0.0, "resistance must be positive");
        self.elements.push(Element::Resistor {
            name: name.to_string(),
            nodes: (a, b),
            resistance,
        });
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance < 0`.
    pub fn add_capacitor(&mut self, name: &str, a: NodeId, b: NodeId, capacitance: f64) {
        assert!(capacitance >= 0.0, "capacitance must be non-negative");
        self.elements.push(Element::Capacitor {
            name: name.to_string(),
            nodes: (a, b),
            capacitance,
        });
    }

    /// Adds an independent voltage source from `plus` to `minus`.
    pub fn add_vsource(&mut self, name: &str, plus: NodeId, minus: NodeId, waveform: Waveform) {
        let branch = self.num_vsources;
        self.num_vsources += 1;
        self.elements.push(Element::VoltageSource {
            name: name.to_string(),
            nodes: (plus, minus),
            waveform,
            branch,
        });
    }

    /// Adds a TFT with the given (drain, gate, source) connection.
    pub fn add_tft(
        &mut self,
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        model: CompactModel,
    ) {
        self.elements.push(Element::Tft {
            name: name.to_string(),
            dgs: (drain, gate, source),
            model,
        });
    }

    /// Finds a voltage source's branch index by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] if no source has that name.
    pub fn vsource_branch(&self, name: &str) -> Result<usize> {
        for e in &self.elements {
            if let Element::VoltageSource {
                name: n, branch, ..
            } = e
            {
                if n == name {
                    return Ok(*branch);
                }
            }
        }
        Err(SpiceError::BadNetlist {
            context: format!("no voltage source named {name}"),
        })
    }

    /// MNA row/column of a node (None for ground).
    #[inline]
    pub(crate) fn unknown_of(&self, node: NodeId) -> Option<usize> {
        if node == Self::GROUND {
            None
        } else {
            Some(node.0 - 1)
        }
    }

    /// MNA row/column of a voltage-source branch current.
    #[inline]
    pub(crate) fn branch_unknown(&self, branch: usize) -> usize {
        self.num_nodes() - 1 + branch
    }
}

/// Dense MNA accumulator used by the analyses.
#[derive(Debug, Default)]
pub(crate) struct MnaSystem {
    pub(crate) matrix: Matrix,
    pub(crate) rhs: Vec<f64>,
}

impl MnaSystem {
    /// Re-zeros the accumulator at the given size, reusing storage; the
    /// per-Newton-iteration alternative to building a fresh system.
    pub(crate) fn reset(&mut self, size: usize) {
        self.matrix.reset_zeroed(size, size);
        self.rhs.clear();
        self.rhs.resize(size, 0.0);
    }

    /// Stamps a conductance between two nodes.
    pub(crate) fn stamp_conductance(&mut self, ckt: &Circuit, a: NodeId, b: NodeId, g: f64) {
        let (ia, ib) = (ckt.unknown_of(a), ckt.unknown_of(b));
        if let Some(i) = ia {
            self.matrix.add_at(i, i, g);
        }
        if let Some(j) = ib {
            self.matrix.add_at(j, j, g);
        }
        if let (Some(i), Some(j)) = (ia, ib) {
            self.matrix.add_at(i, j, -g);
            self.matrix.add_at(j, i, -g);
        }
    }

    /// Stamps a current source flowing out of `a` into `b` (value into
    /// the RHS with MNA sign conventions).
    pub(crate) fn stamp_current(&mut self, ckt: &Circuit, a: NodeId, b: NodeId, i: f64) {
        if let Some(ia) = ckt.unknown_of(a) {
            self.rhs[ia] -= i;
        }
        if let Some(ib) = ckt.unknown_of(b) {
            self.rhs[ib] += i;
        }
    }

    /// Stamps a transconductance: current out of `a` into `b` controlled
    /// by `v(c) − v(d)` times `g`.
    pub(crate) fn stamp_transconductance(
        &mut self,
        ckt: &Circuit,
        a: NodeId,
        b: NodeId,
        c: NodeId,
        d: NodeId,
        g: f64,
    ) {
        let (ia, ib) = (ckt.unknown_of(a), ckt.unknown_of(b));
        let (ic, id) = (ckt.unknown_of(c), ckt.unknown_of(d));
        for (row, sign_row) in [(ia, 1.0), (ib, -1.0)] {
            let Some(r) = row else { continue };
            if let Some(col) = ic {
                self.matrix.add_at(r, col, sign_row * g);
            }
            if let Some(col) = id {
                self.matrix.add_at(r, col, -sign_row * g);
            }
        }
    }

    /// Stamps a voltage source row/column.
    pub(crate) fn stamp_vsource(
        &mut self,
        ckt: &Circuit,
        plus: NodeId,
        minus: NodeId,
        branch: usize,
        value: f64,
    ) {
        let k = ckt.branch_unknown(branch);
        if let Some(ip) = ckt.unknown_of(plus) {
            self.matrix.add_at(ip, k, 1.0);
            self.matrix.add_at(k, ip, 1.0);
        }
        if let Some(im) = ckt.unknown_of(minus) {
            self.matrix.add_at(im, k, -1.0);
            self.matrix.add_at(k, im, -1.0);
        }
        self.rhs[k] += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_interned_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.num_nodes(), 3);
    }

    #[test]
    fn system_size_counts_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::Dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
        assert_eq!(c.system_size(), 2); // node a + branch of V1
        assert_eq!(c.vsource_branch("V1").unwrap(), 0);
        assert!(c.vsource_branch("V2").is_err());
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = Waveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1.0,
            rise: 1.0,
            fall: 1.0,
            width: 2.0,
            period: 0.0,
        };
        assert_eq!(w.value_at(0.5), 0.0);
        assert!((w.value_at(1.5) - 0.5).abs() < 1e-12);
        assert_eq!(w.value_at(2.5), 1.0);
        assert!((w.value_at(4.5) - 0.5).abs() < 1e-12);
        assert_eq!(w.value_at(6.0), 0.0);
    }

    #[test]
    fn periodic_pulse_repeats() {
        let w = Waveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 0.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.4,
            period: 1.0,
        };
        assert!((w.value_at(0.3) - w.value_at(1.3)).abs() < 1e-12);
        assert!((w.value_at(0.05) - w.value_at(2.05)).abs() < 1e-12);
    }

    #[test]
    fn pwl_waveform_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert!((w.value_at(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(w.value_at(2.0), 2.0);
        assert_eq!(w.value_at(10.0), 2.0);
    }

    #[test]
    fn waveform_scaling() {
        let w = Waveform::Dc(2.0).scaled(0.5);
        assert_eq!(w.value_at(0.0), 1.0);
        let p = Waveform::Pwl(vec![(0.0, 4.0)]).scaled(0.25);
        assert_eq!(p.value_at(0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistance_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R", a, Circuit::GROUND, 0.0);
    }
}
