//! Technology-independent logic netlists and a cycle-accurate simulator
//! for switching-activity estimation.
//!
//! A [`LogicNetlist`] is a DAG of [`LogicOp`] nodes plus D flip-flops;
//! [`mapper`](crate::mapper) covers it with library cells, and
//! [`LogicNetlist::simulate_activity`] drives random primary-input
//! vectors through it to estimate per-net toggle rates for dynamic power.

use stco_numerics::rng::Xorshift;

use crate::{Result, SystemError};

/// Identifier of a net (signal) in the netlist.
pub type NetId = usize;

/// A technology-independent logic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicOp {
    /// Inverter.
    Not,
    /// Buffer.
    Buf,
    /// N-ary AND (2–4 inputs after decomposition).
    And,
    /// N-ary OR.
    Or,
    /// N-ary NAND.
    Nand,
    /// N-ary NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// 2:1 mux (`inputs = [a, b, s]`, `s` selects `b`).
    Mux,
    /// 3-input majority.
    Maj,
}

impl LogicOp {
    /// Evaluates the op over input values.
    ///
    /// # Panics
    ///
    /// Panics on arity violations (Not/Buf = 1, Xor/Xnor = 2, Mux/Maj = 3).
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            LogicOp::Not => !inputs[0],
            LogicOp::Buf => inputs[0],
            LogicOp::And => inputs.iter().all(|&b| b),
            LogicOp::Or => inputs.iter().any(|&b| b),
            LogicOp::Nand => !inputs.iter().all(|&b| b),
            LogicOp::Nor => !inputs.iter().any(|&b| b),
            LogicOp::Xor => inputs[0] ^ inputs[1],
            LogicOp::Xnor => !(inputs[0] ^ inputs[1]),
            LogicOp::Mux => {
                if inputs[2] {
                    inputs[1]
                } else {
                    inputs[0]
                }
            }
            LogicOp::Maj => u8::from(inputs[0]) + u8::from(inputs[1]) + u8::from(inputs[2]) >= 2,
        }
    }
}

/// One combinational node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicGate {
    /// The operation.
    pub op: LogicOp,
    /// Input nets.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

/// One D flip-flop (posedge, shared implicit clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipFlop {
    /// Data input net.
    pub d: NetId,
    /// Output net.
    pub q: NetId,
}

/// A sequential logic netlist.
#[derive(Debug, Clone, Default)]
pub struct LogicNetlist {
    /// Design name.
    pub name: String,
    /// Primary input nets.
    pub primary_inputs: Vec<NetId>,
    /// Primary output nets.
    pub primary_outputs: Vec<NetId>,
    /// Combinational gates.
    pub gates: Vec<LogicGate>,
    /// Flip-flops.
    pub flip_flops: Vec<FlipFlop>,
    /// Total number of nets.
    pub num_nets: usize,
}

impl LogicNetlist {
    /// Creates an empty netlist with the given name.
    pub fn new(name: &str) -> Self {
        LogicNetlist {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Allocates a fresh net.
    pub fn new_net(&mut self) -> NetId {
        let id = self.num_nets;
        self.num_nets += 1;
        id
    }

    /// Adds a primary input and returns its net.
    pub fn add_input(&mut self) -> NetId {
        let n = self.new_net();
        self.primary_inputs.push(n);
        n
    }

    /// Marks a net as a primary output.
    pub fn add_output(&mut self, net: NetId) {
        self.primary_outputs.push(net);
    }

    /// Adds a gate and returns its output net.
    pub fn add_gate(&mut self, op: LogicOp, inputs: &[NetId]) -> NetId {
        let output = self.new_net();
        self.gates.push(LogicGate {
            op,
            inputs: inputs.to_vec(),
            output,
        });
        output
    }

    /// Adds a flip-flop whose `q` net is pre-allocated (so feedback can be
    /// wired before `d` exists); connect `d` later with
    /// [`LogicNetlist::connect_ff`].
    pub fn add_ff_output(&mut self) -> NetId {
        let q = self.new_net();
        self.flip_flops.push(FlipFlop { d: usize::MAX, q });
        q
    }

    /// Connects the data input of the flip-flop with output `q`.
    ///
    /// # Panics
    ///
    /// Panics if no flip-flop has that `q` net.
    pub fn connect_ff(&mut self, q: NetId, d: NetId) {
        let ff = self
            .flip_flops
            .iter_mut()
            .find(|f| f.q == q)
            .expect("flip-flop with this q exists");
        ff.d = d;
    }

    /// Total gate count (combinational only).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Validates structural invariants: every FF connected, every gate
    /// input driven by some net in range, acyclic combinational logic
    /// (checked by the topological sort).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::BadNetlist`] describing the violation.
    pub fn validate(&self) -> Result<()> {
        self.checked_order().map(|_| ())
    }

    /// [`LogicNetlist::validate`]'s checks, returning the topological
    /// order they end with, so a simulator sorts once.
    fn checked_order(&self) -> Result<Vec<usize>> {
        for (i, ff) in self.flip_flops.iter().enumerate() {
            if ff.d == usize::MAX {
                return Err(SystemError::BadNetlist {
                    context: format!("flip-flop {i} has unconnected D"),
                });
            }
            if ff.d >= self.num_nets || ff.q >= self.num_nets {
                return Err(SystemError::BadNetlist {
                    context: format!("flip-flop {i} references out-of-range nets"),
                });
            }
        }
        for (i, g) in self.gates.iter().enumerate() {
            if g.inputs.iter().any(|&n| n >= self.num_nets) || g.output >= self.num_nets {
                return Err(SystemError::BadNetlist {
                    context: format!("gate {i} references out-of-range nets"),
                });
            }
            if g.inputs.is_empty() {
                return Err(SystemError::BadNetlist {
                    context: format!("gate {i} has no inputs"),
                });
            }
        }
        self.topological_order()
    }

    /// Topological order of the combinational gates (FF outputs and
    /// primary inputs are sources).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::BadNetlist`] on a combinational cycle.
    pub fn topological_order(&self) -> Result<Vec<usize>> {
        // driver_gate[net] = index of the gate driving it, if any.
        let mut driver: Vec<Option<usize>> = vec![None; self.num_nets];
        for (gi, g) in self.gates.iter().enumerate() {
            driver[g.output] = Some(gi);
        }
        let mut state = vec![0u8; self.gates.len()]; // 0 new, 1 visiting, 2 done
        let mut order = Vec::with_capacity(self.gates.len());
        // Iterative DFS to avoid recursion-depth limits on deep designs.
        for start in 0..self.gates.len() {
            if state[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            state[start] = 1;
            while let Some(&mut (gi, ref mut child)) = stack.last_mut() {
                let gate = &self.gates[gi];
                if *child < gate.inputs.len() {
                    let net = gate.inputs[*child];
                    *child += 1;
                    if let Some(pred) = driver[net] {
                        match state[pred] {
                            0 => {
                                state[pred] = 1;
                                stack.push((pred, 0));
                            }
                            1 => {
                                return Err(SystemError::BadNetlist {
                                    context: format!("combinational cycle through gate {pred}"),
                                });
                            }
                            _ => {}
                        }
                    }
                } else {
                    state[gi] = 2;
                    order.push(gi);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// Simulates `cycles` clock cycles with random primary inputs and
    /// returns the per-net toggle probability (transitions per cycle).
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn simulate_activity(&self, cycles: usize, seed: u64) -> Result<Vec<f64>> {
        let _span = stco_obs::span!("system.simulate_activity", cycles = cycles);
        let mut sim = Simulator::new(self)?;
        let mut rng = Xorshift::new(seed);
        let mut prev = sim.values.clone();
        let mut toggles = vec![0usize; self.num_nets];
        for cycle in 0..cycles {
            if cycle > 0 {
                sim.clock();
            }
            for &pi in &self.primary_inputs {
                sim.values[pi] = rng.chance(0.5);
            }
            sim.settle();
            if cycle > 0 {
                for ((t, &now), &was) in toggles.iter_mut().zip(&sim.values).zip(&prev) {
                    if now != was {
                        *t += 1;
                    }
                }
            }
            prev.copy_from_slice(&sim.values);
        }
        Ok(toggles
            .into_iter()
            .map(|t| t as f64 / cycles.max(1) as f64)
            .collect())
    }

    /// Functional simulation from explicit input sequences (tests):
    /// returns primary-output values per cycle.
    ///
    /// # Errors
    ///
    /// Propagates validation failures; errors if a vector has the wrong
    /// width.
    pub fn simulate(&self, vectors: &[Vec<bool>]) -> Result<Vec<Vec<bool>>> {
        let mut sim = Simulator::new(self)?;
        let mut out = Vec::with_capacity(vectors.len());
        for (cycle, vec) in vectors.iter().enumerate() {
            if vec.len() != self.primary_inputs.len() {
                return Err(SystemError::BadNetlist {
                    context: format!("vector {cycle} width mismatch"),
                });
            }
            if cycle > 0 {
                sim.clock();
            }
            for (&pi, &v) in self.primary_inputs.iter().zip(vec) {
                sim.values[pi] = v;
            }
            sim.settle();
            out.push(
                self.primary_outputs
                    .iter()
                    .map(|&n| sim.values[n])
                    .collect(),
            );
        }
        Ok(out)
    }
}

/// Cycle-simulation state of a validated netlist: net values, the gate
/// order, and scratch buffers reused every cycle.
struct Simulator<'a> {
    netlist: &'a LogicNetlist,
    order: Vec<usize>,
    values: Vec<bool>,
    /// One gate's input values.
    inputs: Vec<bool>,
    /// Every flip-flop's D at the clock edge.
    captured: Vec<bool>,
}

impl<'a> Simulator<'a> {
    fn new(netlist: &'a LogicNetlist) -> Result<Self> {
        Ok(Simulator {
            netlist,
            order: netlist.checked_order()?,
            values: vec![false; netlist.num_nets],
            inputs: Vec::new(),
            captured: Vec::with_capacity(netlist.flip_flops.len()),
        })
    }

    /// Clock edge: every flip-flop captures its D from the previous
    /// settle (all reads before any write, since one Q may feed another D).
    fn clock(&mut self) {
        let ffs = &self.netlist.flip_flops;
        self.captured.clear();
        self.captured.extend(ffs.iter().map(|ff| self.values[ff.d]));
        for (ff, &v) in ffs.iter().zip(&self.captured) {
            self.values[ff.q] = v;
        }
    }

    /// One combinational settle: fills every gate output from the
    /// primary inputs and flip-flop outputs.
    fn settle(&mut self) {
        for &gi in &self.order {
            let g = &self.netlist.gates[gi];
            self.inputs.clear();
            self.inputs.extend(g.inputs.iter().map(|&n| self.values[n]));
            self.values[g.output] = g.op.eval(&self.inputs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-bit counter: q' = !q.
    fn counter() -> LogicNetlist {
        let mut n = LogicNetlist::new("counter");
        let q = n.add_ff_output();
        let d = n.add_gate(LogicOp::Not, &[q]);
        n.connect_ff(q, d);
        n.add_output(q);
        n
    }

    #[test]
    fn counter_toggles_every_cycle() {
        let n = counter();
        let vectors = vec![vec![]; 6];
        let outs = n.simulate(&vectors).unwrap();
        let qs: Vec<bool> = outs.iter().map(|o| o[0]).collect();
        assert_eq!(qs, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn combinational_eval_matches_ops() {
        let mut n = LogicNetlist::new("comb");
        let a = n.add_input();
        let b = n.add_input();
        let x = n.add_gate(LogicOp::Xor, &[a, b]);
        let y = n.add_gate(LogicOp::Nand, &[a, b]);
        n.add_output(x);
        n.add_output(y);
        let outs = n
            .simulate(&[vec![false, false], vec![true, false], vec![true, true]])
            .unwrap();
        assert_eq!(outs[0], vec![false, true]);
        assert_eq!(outs[1], vec![true, true]);
        assert_eq!(outs[2], vec![false, false]);
    }

    #[test]
    fn unconnected_ff_is_rejected() {
        let mut n = LogicNetlist::new("bad");
        let _ = n.add_ff_output();
        assert!(matches!(n.validate(), Err(SystemError::BadNetlist { .. })));
    }

    #[test]
    fn combinational_cycle_is_detected() {
        let mut n = LogicNetlist::new("loop");
        let a = n.add_input();
        // g1 reads g2's output, g2 reads g1's — a cycle.
        let g1_out = n.new_net();
        let g2_out = n.new_net();
        n.gates.push(LogicGate {
            op: LogicOp::And,
            inputs: vec![a, g2_out],
            output: g1_out,
        });
        n.gates.push(LogicGate {
            op: LogicOp::Or,
            inputs: vec![g1_out, a],
            output: g2_out,
        });
        assert!(n.validate().is_err());
    }

    #[test]
    fn activity_of_counter_bit_is_one() {
        let n = counter();
        let act = n.simulate_activity(100, 3).unwrap();
        let q = n.primary_outputs[0];
        assert!((act[q] - 1.0).abs() < 0.05, "counter toggles every cycle");
    }

    #[test]
    fn activity_is_deterministic_per_seed() {
        let mut n = LogicNetlist::new("act");
        let a = n.add_input();
        let b = n.add_input();
        let y = n.add_gate(LogicOp::And, &[a, b]);
        n.add_output(y);
        let x1 = n.simulate_activity(200, 7).unwrap();
        let x2 = n.simulate_activity(200, 7).unwrap();
        assert_eq!(x1, x2);
        // AND of two random bits toggles less often than its inputs.
        assert!(x1[y] < x1[a]);
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let mut n = LogicNetlist::new("topo");
        let a = n.add_input();
        let x = n.add_gate(LogicOp::Not, &[a]);
        let y = n.add_gate(LogicOp::And, &[x, a]);
        let _ = n.add_gate(LogicOp::Or, &[y, x]);
        let order = n.topological_order().unwrap();
        let pos = |gi: usize| order.iter().position(|&g| g == gi).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }
}
