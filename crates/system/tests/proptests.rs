//! Property-based tests of the system substrate: mapping preserves logic
//! function on random netlists, topological orders respect dependencies,
//! and placements stay legal under random configurations and equal a
//! full-recompute annealer bit for bit.

use proptest::prelude::*;
use stco_cells::library::{CellKind, CellType};
use stco_numerics::rng::Xorshift;
use stco_system::mapper::{map_netlist, MappedNetlist};
use stco_system::netlist::{LogicNetlist, LogicOp, NetId};
use stco_system::place::{check_drc, place, PlaceConfig, Placement};

/// Builds a random combinational netlist from a seed (deterministic per
/// seed, so shrinking stays meaningful).
fn random_comb_netlist(seed: u64, num_inputs: usize, num_gates: usize) -> LogicNetlist {
    let mut rng = Xorshift::new(seed);
    let mut n = LogicNetlist::new("prop");
    let mut pool: Vec<NetId> = (0..num_inputs).map(|_| n.add_input()).collect();
    let ops = [
        LogicOp::And,
        LogicOp::Or,
        LogicOp::Nand,
        LogicOp::Nor,
        LogicOp::Xor,
        LogicOp::Not,
        LogicOp::Mux,
        LogicOp::Maj,
    ];
    for _ in 0..num_gates {
        let op = ops[rng.gen_range(ops.len())];
        let arity = match op {
            LogicOp::Not => 1,
            LogicOp::Xor => 2,
            LogicOp::Mux | LogicOp::Maj => 3,
            _ => 2 + rng.gen_range(5), // up to 6-wide → forces decomposition
        };
        let inputs: Vec<NetId> = (0..arity)
            .map(|_| pool[rng.gen_range(pool.len())])
            .collect();
        let out = n.add_gate(op, &inputs);
        pool.push(out);
    }
    let out = *pool.last().expect("non-empty");
    n.add_output(out);
    n
}

/// The annealer with every move priced by rescanning all pins of every
/// affected net before and after it (the placer's move loop before it
/// kept incremental net boxes). `place` must reproduce this placement
/// bit for bit.
fn full_recompute_place(netlist: &MappedNetlist, config: &PlaceConfig) -> Placement {
    let n = netlist.instances.len();
    let grid = (n as f64).sqrt().ceil() as usize;
    let mut rng = Xorshift::new(config.seed);
    let mut positions: Vec<(usize, usize)> = (0..n).map(|i| (i % grid, i / grid)).collect();
    let mut slot: Vec<Option<usize>> = vec![None; grid * grid];
    for (i, &(c, r)) in positions.iter().enumerate() {
        slot[r * grid + c] = Some(i);
    }
    let mut net_pins: Vec<Vec<usize>> = vec![Vec::new(); netlist.num_nets];
    for (ii, inst) in netlist.instances.iter().enumerate() {
        net_pins[inst.output].push(ii);
        for &inp in &inst.inputs {
            net_pins[inp].push(ii);
        }
    }
    let hpwl_of_net = |net: usize, positions: &[(usize, usize)]| -> f64 {
        let pins = &net_pins[net];
        if pins.len() < 2 {
            return 0.0;
        }
        let (mut min_c, mut max_c, mut min_r, mut max_r) = (usize::MAX, 0, usize::MAX, 0);
        for &ii in pins {
            let (c, r) = positions[ii];
            min_c = min_c.min(c);
            max_c = max_c.max(c);
            min_r = min_r.min(r);
            max_r = max_r.max(r);
        }
        ((max_c - min_c) + (max_r - min_r)) as f64 * config.site_pitch
    };
    let total = |positions: &[(usize, usize)]| -> f64 {
        (0..netlist.num_nets)
            .map(|net| hpwl_of_net(net, positions))
            .sum()
    };
    let mut inst_nets: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (net, pins) in net_pins.iter().enumerate() {
        for &ii in pins {
            if !inst_nets[ii].contains(&net) {
                inst_nets[ii].push(net);
            }
        }
    }
    let initial_hpwl = total(&positions);
    let mut best_positions = positions.clone();
    let mut best_hpwl = initial_hpwl;
    let mut temperature = config.initial_temperature * 40.0 * config.site_pitch;
    let sweeps = 16;
    let moves = config.moves_per_instance * n / sweeps.max(1);
    for _sweep in 0..sweeps {
        for _ in 0..moves {
            let a = rng.gen_range(n);
            let target = (rng.gen_range(grid), rng.gen_range(grid));
            let b = slot[target.1 * grid + target.0];
            let mut affected: Vec<usize> = inst_nets[a].clone();
            if let Some(bi) = b {
                for &net in &inst_nets[bi] {
                    if !affected.contains(&net) {
                        affected.push(net);
                    }
                }
            }
            let before: f64 = affected.iter().map(|&nt| hpwl_of_net(nt, &positions)).sum();
            let old_a = positions[a];
            positions[a] = target;
            if let Some(bi) = b {
                positions[bi] = old_a;
            }
            let after: f64 = affected.iter().map(|&nt| hpwl_of_net(nt, &positions)).sum();
            let delta = after - before;
            let accept = delta <= 0.0 || rng.chance((-delta / temperature.max(1e-30)).exp());
            if accept {
                slot[old_a.1 * grid + old_a.0] = b;
                slot[target.1 * grid + target.0] = Some(a);
            } else {
                positions[a] = old_a;
                if let Some(bi) = b {
                    positions[bi] = target;
                }
            }
        }
        temperature *= config.cooling;
        let sweep_hpwl = total(&positions);
        if sweep_hpwl < best_hpwl {
            best_hpwl = sweep_hpwl;
            best_positions.copy_from_slice(&positions);
        }
    }
    positions.copy_from_slice(&best_positions);
    for s in slot.iter_mut() {
        *s = None;
    }
    for (i, &(c, r)) in positions.iter().enumerate() {
        slot[r * grid + c] = Some(i);
    }
    for _ in 0..moves {
        let a = rng.gen_range(n);
        let target = (rng.gen_range(grid), rng.gen_range(grid));
        let b = slot[target.1 * grid + target.0];
        let mut affected: Vec<usize> = inst_nets[a].clone();
        if let Some(bi) = b {
            for &net in &inst_nets[bi] {
                if !affected.contains(&net) {
                    affected.push(net);
                }
            }
        }
        let before: f64 = affected.iter().map(|&nt| hpwl_of_net(nt, &positions)).sum();
        let old_a = positions[a];
        positions[a] = target;
        if let Some(bi) = b {
            positions[bi] = old_a;
        }
        let after: f64 = affected.iter().map(|&nt| hpwl_of_net(nt, &positions)).sum();
        if after < before {
            slot[old_a.1 * grid + old_a.0] = b;
            slot[target.1 * grid + target.0] = Some(a);
        } else {
            positions[a] = old_a;
            if let Some(bi) = b {
                positions[bi] = target;
            }
        }
    }

    Placement {
        total_hpwl: total(&positions),
        net_caps: (0..netlist.num_nets)
            .map(|net| hpwl_of_net(net, &positions) * config.cap_per_meter)
            .collect(),
        positions,
        grid,
        initial_hpwl,
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Gates repeat inputs (an instance with several pins on one net),
    /// and the smallest designs fill a 1×1 or 2×2 grid, where many moves
    /// land on the cell's own slot.
    #[test]
    fn placement_equals_full_recompute_oracle(
        netlist_seed in 0u64..5000,
        num_inputs in 1usize..5,
        num_gates in 1usize..40,
        seed in 0u64..5000,
        moves_per_instance in 1usize..8,
        cooling in 0.3f64..0.99,
        initial_temperature in 0.001f64..1.0,
    ) {
        let logic = random_comb_netlist(netlist_seed, num_inputs, num_gates);
        let mapped = map_netlist(&logic).expect("maps");
        let config = PlaceConfig {
            seed,
            moves_per_instance,
            cooling,
            initial_temperature,
            ..PlaceConfig::default()
        };
        let got = place(&mapped, &config).expect("places");
        let want = full_recompute_place(&mapped, &config);
        prop_assert_eq!(&got.positions, &want.positions);
        prop_assert_eq!(got.total_hpwl.to_bits(), want.total_hpwl.to_bits());
        prop_assert_eq!(got.initial_hpwl.to_bits(), want.initial_hpwl.to_bits());
        prop_assert_eq!(bits(&got.net_caps), bits(&want.net_caps));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mapping_preserves_function(seed in 0u64..5000, vectors in prop::collection::vec(prop::collection::vec(any::<bool>(), 4), 1..6)) {
        let logic = random_comb_netlist(seed, 4, 12);
        let mapped = map_netlist(&logic).expect("maps");
        let lib: std::collections::BTreeMap<CellKind, CellType> =
            CellType::library().into_iter().map(|c| (c.kind, c)).collect();
        for vector in &vectors {
            let expected = logic.simulate(std::slice::from_ref(vector)).expect("simulates")[0].clone();
            // Evaluate the mapped netlist with cell truth tables.
            let mut values = vec![false; mapped.num_nets];
            for (&pi, &v) in mapped.primary_inputs.iter().zip(vector) {
                values[pi] = v;
            }
            for inst in &mapped.instances {
                let cell = &lib[&inst.kind];
                let ins: Vec<bool> = inst.inputs.iter().map(|&x| values[x]).collect();
                values[inst.output] = cell.eval_comb(&ins)[0];
            }
            let got: Vec<bool> = mapped.primary_outputs.iter().map(|&o| values[o]).collect();
            prop_assert_eq!(got, expected, "seed {} diverged", seed);
        }
    }

    #[test]
    fn mapped_cells_never_exceed_four_inputs(seed in 0u64..5000) {
        let logic = random_comb_netlist(seed, 5, 20);
        let mapped = map_netlist(&logic).expect("maps");
        for inst in &mapped.instances {
            prop_assert!(inst.inputs.len() <= 4, "{:?} has {} inputs", inst.kind, inst.inputs.len());
        }
    }

    #[test]
    fn topological_order_respects_all_dependencies(seed in 0u64..5000) {
        let logic = random_comb_netlist(seed, 4, 25);
        let order = logic.topological_order().expect("acyclic by construction");
        prop_assert_eq!(order.len(), logic.gates.len());
        let mut position = vec![usize::MAX; logic.gates.len()];
        for (pos, &gi) in order.iter().enumerate() {
            position[gi] = pos;
        }
        // Driver of every gate input must come earlier.
        let mut driver = vec![None; logic.num_nets];
        for (gi, g) in logic.gates.iter().enumerate() {
            driver[g.output] = Some(gi);
        }
        for (gi, g) in logic.gates.iter().enumerate() {
            for &input in &g.inputs {
                if let Some(pred) = driver[input] {
                    prop_assert!(position[pred] < position[gi]);
                }
            }
        }
    }

    #[test]
    fn placement_stays_legal_for_any_seed(netlist_seed in 0u64..2000, place_seed in 0u64..2000) {
        let logic = random_comb_netlist(netlist_seed, 4, 15);
        let mapped = map_netlist(&logic).expect("maps");
        let config = PlaceConfig {
            seed: place_seed,
            moves_per_instance: 4,
            ..PlaceConfig::default()
        };
        let p = place(&mapped, &config).expect("places");
        check_drc(&p).expect("legal placement");
        // The placer restores its best-seen snapshot before the greedy
        // polish sweep, so the result can never be worse than the start.
        prop_assert!(p.total_hpwl <= p.initial_hpwl + 1e-12,
            "HPWL grew: {} → {}", p.initial_hpwl, p.total_hpwl);
    }

    #[test]
    fn activity_rates_are_probabilities(seed in 0u64..2000) {
        let logic = random_comb_netlist(seed, 4, 10);
        let act = logic.simulate_activity(64, seed ^ 1).expect("simulates");
        for (net, a) in act.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(a), "net {net} activity {a}");
        }
    }
}
