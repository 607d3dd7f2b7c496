//! Technology mapping: covering a [`LogicNetlist`] with cells of the
//! 35-cell `stco-cells` library.
//!
//! Wide AND/OR/NAND/NOR gates are decomposed into ≤4-input trees first,
//! then every logic op maps 1:1 onto a library cell. Flip-flops map to
//! `DFF`. The result is a [`MappedNetlist`] whose instances reference
//! [`CellKind`]s, ready for STA, placement and power analysis.

use stco_cells::library::CellKind;

use crate::netlist::{LogicNetlist, LogicOp, NetId};
use crate::{Result, SystemError};

/// One placed-and-routed-able cell instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellInstance {
    /// Which library cell.
    pub kind: CellKind,
    /// Input nets, in cell pin order (for `DFF`: `[D]`; clock implicit).
    pub inputs: Vec<NetId>,
    /// Output net (Q for flip-flops).
    pub output: NetId,
}

/// A technology-mapped netlist.
#[derive(Debug, Clone, Default)]
pub struct MappedNetlist {
    /// Design name.
    pub name: String,
    /// Primary inputs.
    pub primary_inputs: Vec<NetId>,
    /// Primary outputs.
    pub primary_outputs: Vec<NetId>,
    /// Cell instances (combinational and sequential).
    pub instances: Vec<CellInstance>,
    /// Total nets.
    pub num_nets: usize,
}

impl MappedNetlist {
    /// Fanout list per net: instance indices reading each net.
    pub fn fanouts(&self) -> Vec<Vec<usize>> {
        let mut fo = vec![Vec::new(); self.num_nets];
        for (ii, inst) in self.instances.iter().enumerate() {
            for &n in &inst.inputs {
                fo[n].push(ii);
            }
        }
        fo
    }
}

/// Maps a logic netlist onto the cell library.
///
/// # Errors
///
/// Propagates validation failures of the input netlist.
pub fn map_netlist(logic: &LogicNetlist) -> Result<MappedNetlist> {
    logic.validate()?;
    let mut mapped = MappedNetlist {
        name: logic.name.clone(),
        primary_inputs: logic.primary_inputs.clone(),
        primary_outputs: logic.primary_outputs.clone(),
        instances: Vec::new(),
        num_nets: logic.num_nets,
    };
    let mut new_net = logic.num_nets;
    let mut alloc = || {
        let n = new_net;
        new_net += 1;
        n
    };

    for gate in &logic.gates {
        map_gate(
            gate.op,
            &gate.inputs,
            gate.output,
            &mut mapped.instances,
            &mut alloc,
        )?;
    }
    for ff in &logic.flip_flops {
        mapped.instances.push(CellInstance {
            kind: CellKind::Dff,
            inputs: vec![ff.d],
            output: ff.q,
        });
    }
    mapped.num_nets = new_net;
    Ok(mapped)
}

/// Maps one logic gate, decomposing wide associative ops into trees.
fn map_gate(
    op: LogicOp,
    inputs: &[NetId],
    output: NetId,
    instances: &mut Vec<CellInstance>,
    alloc: &mut impl FnMut() -> NetId,
) -> Result<()> {
    let push = |instances: &mut Vec<CellInstance>, kind: CellKind, ins: &[NetId], out: NetId| {
        instances.push(CellInstance {
            kind,
            inputs: ins.to_vec(),
            output: out,
        });
    };
    match op {
        LogicOp::Not => push(instances, CellKind::Inv, inputs, output),
        LogicOp::Buf => push(instances, CellKind::Buf, inputs, output),
        LogicOp::Xor => push(instances, CellKind::Xor2, inputs, output),
        LogicOp::Xnor => push(instances, CellKind::Xnor2, inputs, output),
        LogicOp::Mux => push(instances, CellKind::Mux2, inputs, output),
        LogicOp::Maj => push(instances, CellKind::Maj3, inputs, output),
        LogicOp::And | LogicOp::Or => {
            let kinds: [CellKind; 3] = if op == LogicOp::And {
                [CellKind::And2, CellKind::And3, CellKind::And4]
            } else {
                [CellKind::Or2, CellKind::Or3, CellKind::Or4]
            };
            map_associative(inputs, output, kinds, instances, alloc)?;
        }
        LogicOp::Nand | LogicOp::Nor => {
            // N-wide NAND = AND-tree feeding a final NAND stage (we build
            // the reduction with the non-inverting family, then inject the
            // inverting cell at the root for parity).
            let (pos, neg): ([CellKind; 3], [CellKind; 3]) = if op == LogicOp::Nand {
                (
                    [CellKind::And2, CellKind::And3, CellKind::And4],
                    [CellKind::Nand2, CellKind::Nand3, CellKind::Nand4],
                )
            } else {
                (
                    [CellKind::Or2, CellKind::Or3, CellKind::Or4],
                    [CellKind::Nor2, CellKind::Nor3, CellKind::Nor4],
                )
            };
            if inputs.len() <= 4 {
                let kind = neg[inputs.len().saturating_sub(2).min(2)];
                if inputs.len() == 1 {
                    push(instances, CellKind::Inv, inputs, output);
                } else {
                    push(instances, kind, inputs, output);
                }
            } else {
                // Reduce all but the last chunk positively, then invert.
                let mut frontier = inputs.to_vec();
                while frontier.len() > 4 {
                    let chunk: Vec<NetId> = frontier.drain(..4).collect();
                    let mid = alloc();
                    push(instances, pos[2], &chunk, mid);
                    frontier.push(mid);
                }
                let kind = neg[frontier.len().saturating_sub(2).min(2)];
                push(instances, kind, &frontier, output);
            }
        }
    }
    Ok(())
}

fn map_associative(
    inputs: &[NetId],
    output: NetId,
    kinds: [CellKind; 3],
    instances: &mut Vec<CellInstance>,
    alloc: &mut impl FnMut() -> NetId,
) -> Result<()> {
    if inputs.is_empty() {
        return Err(SystemError::BadNetlist {
            context: "associative gate with no inputs".into(),
        });
    }
    if inputs.len() == 1 {
        instances.push(CellInstance {
            kind: CellKind::Buf,
            inputs: inputs.to_vec(),
            output,
        });
        return Ok(());
    }
    let mut frontier = inputs.to_vec();
    while frontier.len() > 4 {
        let chunk: Vec<NetId> = frontier.drain(..4).collect();
        let mid = alloc();
        instances.push(CellInstance {
            kind: kinds[2],
            inputs: chunk,
            output: mid,
        });
        frontier.push(mid);
    }
    instances.push(CellInstance {
        kind: kinds[frontier.len() - 2],
        inputs: frontier,
        output,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::LogicNetlist;
    use stco_cells::library::CellType;

    #[test]
    fn simple_gates_map_one_to_one() {
        let mut logic = LogicNetlist::new("t");
        let a = logic.add_input();
        let b = logic.add_input();
        let x = logic.add_gate(LogicOp::Nand, &[a, b]);
        let y = logic.add_gate(LogicOp::Xor, &[a, x]);
        logic.add_output(y);
        let mapped = map_netlist(&logic).unwrap();
        assert_eq!(mapped.instances.len(), 2);
        assert_eq!(mapped.instances[0].kind, CellKind::Nand2);
        assert_eq!(mapped.instances[1].kind, CellKind::Xor2);
    }

    #[test]
    fn wide_and_decomposes_into_tree() {
        let mut logic = LogicNetlist::new("wide");
        let ins: Vec<NetId> = (0..9).map(|_| logic.add_input()).collect();
        let y = logic.add_gate(LogicOp::And, &ins);
        logic.add_output(y);
        let mapped = map_netlist(&logic).unwrap();
        // 9 inputs: AND4(4) + AND4(4) → 2 mids + 1 orig = AND3 root.
        assert!(mapped.instances.len() >= 3);
        // Function check: mapped netlist has only ≤4-input cells.
        for inst in &mapped.instances {
            assert!(inst.inputs.len() <= 4);
        }
        assert!(mapped.num_nets > logic.num_nets, "intermediate nets added");
    }

    #[test]
    fn wide_nand_ends_with_inverting_root() {
        let mut logic = LogicNetlist::new("widenand");
        let ins: Vec<NetId> = (0..7).map(|_| logic.add_input()).collect();
        let y = logic.add_gate(LogicOp::Nand, &ins);
        logic.add_output(y);
        let mapped = map_netlist(&logic).unwrap();
        let root = mapped
            .instances
            .iter()
            .find(|i| i.output == y)
            .expect("root exists");
        assert!(matches!(
            root.kind,
            CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4
        ));
    }

    #[test]
    fn flip_flops_map_to_dff() {
        let mut logic = LogicNetlist::new("seq");
        let q = logic.add_ff_output();
        let d = logic.add_gate(LogicOp::Not, &[q]);
        logic.connect_ff(q, d);
        logic.add_output(q);
        let mapped = map_netlist(&logic).unwrap();
        let flip_flops = mapped
            .instances
            .iter()
            .filter(|i| i.kind == CellKind::Dff)
            .count();
        assert_eq!(flip_flops, 1);
        assert_eq!(mapped.instances.len() - flip_flops, 1);
    }

    #[test]
    fn mapped_function_matches_logic_function() {
        // Evaluate both representations on all input vectors and compare.
        let mut logic = LogicNetlist::new("func");
        let ins: Vec<NetId> = (0..6).map(|_| logic.add_input()).collect();
        let w = logic.add_gate(LogicOp::And, &ins[..5]);
        let x = logic.add_gate(LogicOp::Nor, &[w, ins[5]]);
        let y = logic.add_gate(LogicOp::Mux, &[w, x, ins[0]]);
        logic.add_output(y);
        let mapped = map_netlist(&logic).unwrap();

        let lib: std::collections::BTreeMap<CellKind, CellType> = CellType::library()
            .into_iter()
            .map(|c| (c.kind, c))
            .collect();
        for vec_id in 0..(1u32 << 6) {
            let vector: Vec<bool> = (0..6).map(|i| (vec_id >> i) & 1 == 1).collect();
            let logic_out = logic.simulate(std::slice::from_ref(&vector)).unwrap()[0][0];
            // Evaluate mapped instances in emission order (map_netlist
            // preserves topological order of the source gates).
            let mut values = vec![false; mapped.num_nets];
            for (&pi, &v) in mapped.primary_inputs.iter().zip(&vector) {
                values[pi] = v;
            }
            for inst in &mapped.instances {
                let cell = &lib[&inst.kind];
                let ins: Vec<bool> = inst.inputs.iter().map(|&n| values[n]).collect();
                values[inst.output] = cell.eval_comb(&ins)[0];
            }
            assert_eq!(
                values[mapped.primary_outputs[0]], logic_out,
                "vector {vec_id:06b}"
            );
        }
    }
}
