//! Generators for the paper's ten evaluation benchmarks.
//!
//! We do not ship the original ISCAS89/MAC/RISC-V sources, so each
//! benchmark is synthesized to match the published structural statistics:
//!
//! * the six ISCAS89 circuits are random sequential logic with the
//!   real benchmarks' primary-input/output, flip-flop and gate counts;
//! * the MAC cores are genuine structural multiplier–accumulators
//!   (AND-array partial products, full-adder reduction, ripple-carry
//!   accumulate, output register);
//! * the two RISC-V-like cores are datapath generators (regfile mux
//!   trees, ripple ALU, shifter, PC/decode logic) sized to the relative
//!   footprint of Picorv32 and Darkriscv in Table I.
//!
//! All generators are seeded and deterministic.

use stco_numerics::rng::Xorshift;

use crate::netlist::{LogicNetlist, LogicOp, NetId};

/// The ten benchmarks of Table I, in paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// ISCAS89 s298 (3 PI / 6 PO / 14 FF / 119 gates).
    S298,
    /// ISCAS89 s386 (7 / 7 / 6 / 159).
    S386,
    /// ISCAS89 s526 (3 / 6 / 21 / 193).
    S526,
    /// ISCAS89 s820 (18 / 19 / 5 / 289).
    S820,
    /// ISCAS89 s1196 (14 / 14 / 18 / 529).
    S1196,
    /// ISCAS89 s1488 (8 / 19 / 6 / 653).
    S1488,
    /// 16-bit multiplier-accumulator core.
    Mac16,
    /// 32-bit multiplier-accumulator core.
    Mac32,
    /// Picorv32-like datapath.
    Picorv32,
    /// Darkriscv-like datapath.
    Darkriscv,
}

impl Benchmark {
    /// All benchmarks in Table I row order.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::S298,
        Benchmark::S386,
        Benchmark::S526,
        Benchmark::S820,
        Benchmark::S1196,
        Benchmark::S1488,
        Benchmark::Mac16,
        Benchmark::Mac32,
        Benchmark::Picorv32,
        Benchmark::Darkriscv,
    ];

    /// Table I row label.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::S298 => "s298",
            Benchmark::S386 => "s386",
            Benchmark::S526 => "s526",
            Benchmark::S820 => "s820",
            Benchmark::S1196 => "s1196",
            Benchmark::S1488 => "s1488",
            Benchmark::Mac16 => "16bit MAC",
            Benchmark::Mac32 => "32bit MAC",
            Benchmark::Picorv32 => "Picorv32",
            Benchmark::Darkriscv => "Darkriscv",
        }
    }

    /// Generates the benchmark netlist (deterministic).
    pub fn generate(self) -> LogicNetlist {
        match self {
            Benchmark::S298 => iscas89_like("s298", 3, 6, 14, 119, 298),
            Benchmark::S386 => iscas89_like("s386", 7, 7, 6, 159, 386),
            Benchmark::S526 => iscas89_like("s526", 3, 6, 21, 193, 526),
            Benchmark::S820 => iscas89_like("s820", 18, 19, 5, 289, 820),
            Benchmark::S1196 => iscas89_like("s1196", 14, 14, 18, 529, 1196),
            Benchmark::S1488 => iscas89_like("s1488", 8, 19, 6, 653, 1488),
            Benchmark::Mac16 => mac(16),
            Benchmark::Mac32 => mac(32),
            Benchmark::Picorv32 => riscv_like("picorv32", 32, 8, 4, 9901),
            Benchmark::Darkriscv => riscv_like("darkriscv", 32, 36, 20, 7727),
        }
    }
}

/// Random sequential logic matched to published ISCAS89 statistics.
///
/// Gates are drawn 2–4 wide with an op mix typical of mapped control
/// logic; flip-flop `D` inputs and primary outputs tap late-generated
/// signals so the logic depth is realistic.
pub fn iscas89_like(
    name: &str,
    num_inputs: usize,
    num_outputs: usize,
    num_ffs: usize,
    num_gates: usize,
    seed: u64,
) -> LogicNetlist {
    let mut n = LogicNetlist::new(name);
    let mut rng = Xorshift::new(seed);
    let mut pool: Vec<NetId> = Vec::new();
    for _ in 0..num_inputs {
        pool.push(n.add_input());
    }
    let ff_qs: Vec<NetId> = (0..num_ffs).map(|_| n.add_ff_output()).collect();
    pool.extend(&ff_qs);

    let ops = [
        LogicOp::Nand,
        LogicOp::Nor,
        LogicOp::And,
        LogicOp::Or,
        LogicOp::Not,
        LogicOp::Xor,
    ];
    for _ in 0..num_gates {
        let op = ops[rng.gen_range(ops.len())];
        let arity = match op {
            LogicOp::Not => 1,
            LogicOp::Xor => 2,
            _ => 2 + rng.gen_range(3), // 2..=4
        };
        let mut inputs = Vec::with_capacity(arity);
        for _ in 0..arity {
            // Bias toward recent nets (deeper logic) while keeping some
            // long-range taps (reconvergent fanout).
            let idx = if rng.chance(0.7) && pool.len() > 8 {
                pool.len() - 1 - rng.gen_range(pool.len() / 2)
            } else {
                rng.gen_range(pool.len())
            };
            inputs.push(pool[idx]);
        }
        let out = n.add_gate(op, &inputs);
        pool.push(out);
    }
    for &q in &ff_qs {
        let d = pool[pool.len() - 1 - rng.gen_range(pool.len() / 3 + 1)];
        n.connect_ff(q, d);
    }
    for _ in 0..num_outputs {
        let src = pool[pool.len() - 1 - rng.gen_range(pool.len() / 4 + 1)];
        n.add_output(src);
    }
    n
}

/// Adds a structural full adder; returns `(sum, carry)`.
fn full_adder(n: &mut LogicNetlist, a: NetId, b: NetId, c: NetId) -> (NetId, NetId) {
    let ab = n.add_gate(LogicOp::Xor, &[a, b]);
    let sum = n.add_gate(LogicOp::Xor, &[ab, c]);
    let carry = n.add_gate(LogicOp::Maj, &[a, b, c]);
    (sum, carry)
}

/// Adds a half adder; returns `(sum, carry)`.
fn half_adder(n: &mut LogicNetlist, a: NetId, b: NetId) -> (NetId, NetId) {
    let sum = n.add_gate(LogicOp::Xor, &[a, b]);
    let carry = n.add_gate(LogicOp::And, &[a, b]);
    (sum, carry)
}

/// Ripple-carry adder over equal-width operand vectors; returns sum bits
/// (width + 1 with carry out).
fn ripple_adder(n: &mut LogicNetlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), b.len());
    let mut out = Vec::with_capacity(a.len() + 1);
    let (s0, mut carry) = half_adder(n, a[0], b[0]);
    out.push(s0);
    for i in 1..a.len() {
        let (s, c) = full_adder(n, a[i], b[i], carry);
        out.push(s);
        carry = c;
    }
    out.push(carry);
    out
}

/// A `width`-bit multiplier-accumulator: array multiplier (AND partial
/// products + carry-save FA reduction), ripple accumulate and a 2·width
/// output register.
pub fn mac(width: usize) -> LogicNetlist {
    let mut n = LogicNetlist::new(if width == 16 { "mac16" } else { "mac32" });
    let a: Vec<NetId> = (0..width).map(|_| n.add_input()).collect();
    let b: Vec<NetId> = (0..width).map(|_| n.add_input()).collect();
    let acc_q: Vec<NetId> = (0..2 * width).map(|_| n.add_ff_output()).collect();

    // Partial products.
    let mut pp: Vec<Vec<NetId>> = Vec::with_capacity(width);
    for &bj in &b {
        let row: Vec<NetId> = (0..width)
            .map(|ai| n.add_gate(LogicOp::And, &[a[ai], bj]))
            .collect();
        pp.push(row);
    }
    // Carry-save reduction row by row.
    let mut acc_row: Vec<NetId> = pp[0].clone(); // width bits at offset 0
    let mut product: Vec<NetId> = vec![acc_row[0]];
    let mut carries: Vec<NetId> = Vec::new();
    for (bi, row) in pp.iter().enumerate().skip(1) {
        // Align: acc_row[1..] + row → next acc_row + product bit.
        let mut next_row = Vec::with_capacity(width);
        let mut next_carries = Vec::with_capacity(width);
        for ai in 0..width {
            let upper = if ai + 1 < acc_row.len() {
                Some(acc_row[ai + 1])
            } else {
                None
            };
            let carry_in = carries.get(ai).copied();
            let (s, c) = match (upper, carry_in) {
                (Some(u), Some(ci)) => {
                    let (s1, c1) = full_adder(&mut n, row[ai], u, ci);
                    (s1, c1)
                }
                (Some(u), None) => half_adder(&mut n, row[ai], u),
                (None, Some(ci)) => half_adder(&mut n, row[ai], ci),
                (None, None) => (row[ai], usize::MAX),
            };
            next_row.push(s);
            if c != usize::MAX {
                next_carries.push(c);
            } else {
                // Keep alignment: absent carry = constant 0, represented
                // by reusing an AND of a signal with its inverse.
                let z = zero_net(&mut n, row[ai]);
                next_carries.push(z);
            }
        }
        product.push(next_row[0]);
        acc_row = next_row;
        carries = next_carries;
        let _ = bi;
    }
    // Final ripple merge of the leftover row and carries.
    let tail = ripple_adder(&mut n, &acc_row, &carries);
    product.extend(tail);
    product.truncate(2 * width);
    while product.len() < 2 * width {
        let z = zero_net(&mut n, a[0]);
        product.push(z);
    }

    // Accumulate: acc' = acc + product.
    let sum = ripple_adder(&mut n, &product, &acc_q);
    for (i, &q) in acc_q.iter().enumerate() {
        n.connect_ff(q, sum[i]);
    }
    for &q in &acc_q {
        n.add_output(q);
    }
    n
}

/// Constant-0 helper: `x AND NOT x`.
fn zero_net(n: &mut LogicNetlist, x: NetId) -> NetId {
    let nx = n.add_gate(LogicOp::Not, &[x]);
    n.add_gate(LogicOp::And, &[x, nx])
}

/// A RISC-V-datapath-like core: `regs` registers of `width` bits with
/// read mux trees, a ripple ALU (add + logic ops + mux select), a
/// barrel-ish shifter (`shift_levels` mux layers) and decode logic.
pub fn riscv_like(
    name: &str,
    width: usize,
    regs: usize,
    shift_levels: usize,
    seed: u64,
) -> LogicNetlist {
    let mut n = LogicNetlist::new(name);
    let mut rng = Xorshift::new(seed);
    // Instruction word input.
    let instr: Vec<NetId> = (0..32).map(|_| n.add_input()).collect();
    // Register file: regs × width flip-flops.
    let rf: Vec<Vec<NetId>> = (0..regs)
        .map(|_| (0..width).map(|_| n.add_ff_output()).collect())
        .collect();
    // Decode: a few layers of random logic over the instruction word.
    let mut decode: Vec<NetId> = instr.clone();
    for _ in 0..3 {
        let mut next = Vec::new();
        for _ in 0..16 {
            let a = decode[rng.gen_range(decode.len())];
            let b = decode[rng.gen_range(decode.len())];
            let c = decode[rng.gen_range(decode.len())];
            next.push(n.add_gate(LogicOp::Nand, &[a, b, c]));
        }
        decode.extend(next);
    }
    let sel_bits: Vec<NetId> = (0..shift_levels.max(2))
        .map(|i| decode[decode.len() - 1 - i])
        .collect();

    // Read ports: mux tree over registers per bit (2 ports).
    let read_port = |n: &mut LogicNetlist, rng: &mut Xorshift| -> Vec<NetId> {
        (0..width)
            .map(|bit| {
                let mut layer: Vec<NetId> = rf.iter().map(|r| r[bit]).collect();
                let mut lvl = 0;
                while layer.len() > 1 {
                    let sel = sel_bits[lvl % sel_bits.len()];
                    let mut next = Vec::new();
                    for pair in layer.chunks(2) {
                        if pair.len() == 2 {
                            next.push(n.add_gate(LogicOp::Mux, &[pair[0], pair[1], sel]));
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    layer = next;
                    lvl += 1;
                }
                let _ = rng;
                layer[0]
            })
            .collect()
    };
    let rs1 = read_port(&mut n, &mut rng);
    let rs2 = read_port(&mut n, &mut rng);

    // ALU: add, and, or, xor — combined through mux trees.
    let add = ripple_adder(&mut n, &rs1, &rs2);
    let logic_and: Vec<NetId> = (0..width)
        .map(|i| n.add_gate(LogicOp::And, &[rs1[i], rs2[i]]))
        .collect();
    let logic_or: Vec<NetId> = (0..width)
        .map(|i| n.add_gate(LogicOp::Or, &[rs1[i], rs2[i]]))
        .collect();
    let logic_xor: Vec<NetId> = (0..width)
        .map(|i| n.add_gate(LogicOp::Xor, &[rs1[i], rs2[i]]))
        .collect();
    let alu: Vec<NetId> = (0..width)
        .map(|i| {
            let m1 = n.add_gate(LogicOp::Mux, &[add[i], logic_and[i], sel_bits[0]]);
            let m2 = n.add_gate(LogicOp::Mux, &[logic_or[i], logic_xor[i], sel_bits[0]]);
            n.add_gate(LogicOp::Mux, &[m1, m2, sel_bits[1]])
        })
        .collect();

    // Shifter: `shift_levels` constant-shift mux layers.
    let mut shifted = alu.clone();
    for lvl in 0..shift_levels {
        let amount = 1usize << (lvl % 5);
        let sel = sel_bits[lvl % sel_bits.len()];
        shifted = (0..width)
            .map(|i| {
                let from = shifted[(i + amount) % width];
                n.add_gate(LogicOp::Mux, &[shifted[i], from, sel])
            })
            .collect();
    }

    // Writeback into every register through enable muxes.
    for (ri, reg) in rf.iter().enumerate() {
        let en = decode[(ri * 7) % decode.len()];
        for (bit, &q) in reg.iter().enumerate() {
            let d = n.add_gate(LogicOp::Mux, &[q, shifted[bit], en]);
            n.connect_ff(q, d);
        }
    }
    for &s in &shifted[..width] {
        n.add_output(s);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iscas_stats_are_matched() {
        let cases = [
            (Benchmark::S298, 3, 6, 14, 119),
            (Benchmark::S386, 7, 7, 6, 159),
            (Benchmark::S526, 3, 6, 21, 193),
            (Benchmark::S820, 18, 19, 5, 289),
            (Benchmark::S1196, 14, 14, 18, 529),
            (Benchmark::S1488, 8, 19, 6, 653),
        ];
        for (b, pi, po, ff, gates) in cases {
            let n = b.generate();
            assert_eq!(n.primary_inputs.len(), pi, "{}", b.name());
            assert_eq!(n.primary_outputs.len(), po, "{}", b.name());
            assert_eq!(n.flip_flops.len(), ff, "{}", b.name());
            assert_eq!(n.gate_count(), gates, "{}", b.name());
            n.validate().expect("valid netlist");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = Benchmark::S1196.generate();
        let b = Benchmark::S1196.generate();
        assert_eq!(a.gates, b.gates);
        assert_eq!(a.flip_flops, b.flip_flops);
    }

    #[test]
    fn mac16_multiplies_correctly() {
        let width = 16usize;
        let n = mac(width);
        n.validate().unwrap();
        // Drive a=3, b=5 for two cycles; after cycle 2 the accumulator has
        // been loaded once with 15, after cycle 3 with 30.
        let make_vec = |a: u64, b: u64| -> Vec<bool> {
            let mut v = Vec::with_capacity(2 * width);
            for i in 0..width {
                v.push((a >> i) & 1 == 1);
            }
            for i in 0..width {
                v.push((b >> i) & 1 == 1);
            }
            v
        };
        let vectors = vec![make_vec(3, 5); 4];
        let outs = n.simulate(&vectors).unwrap();
        let read_acc =
            |bits: &[bool]| -> u64 { bits.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum() };
        // Cycle 0: acc = 0 (FFs reset). Cycle 1: acc = 15. Cycle 2: 30.
        assert_eq!(read_acc(&outs[0]), 0);
        assert_eq!(read_acc(&outs[1]), 15);
        assert_eq!(read_acc(&outs[2]), 30);
        assert_eq!(read_acc(&outs[3]), 45);
    }

    #[test]
    fn mac_sizes_scale_roughly_quadratically() {
        let g16 = mac(16).gate_count();
        let g32 = mac(32).gate_count();
        let ratio = g32 as f64 / g16 as f64;
        assert!(
            (3.0..5.0).contains(&ratio),
            "32-bit MAC should be ~4× the 16-bit ({ratio:.2})"
        );
    }

    #[test]
    fn riscv_cores_order_matches_table1() {
        let pico = Benchmark::Picorv32.generate();
        let dark = Benchmark::Darkriscv.generate();
        let mac32 = Benchmark::Mac32.generate();
        let mac16 = Benchmark::Mac16.generate();
        pico.validate().unwrap();
        dark.validate().unwrap();
        // Table I system-eval ordering: mac16 < picorv32 < mac32 < darkriscv.
        assert!(mac16.gate_count() < pico.gate_count());
        assert!(pico.gate_count() < mac32.gate_count());
        assert!(mac32.gate_count() < dark.gate_count());
    }

    #[test]
    fn all_benchmarks_validate() {
        for b in Benchmark::ALL {
            let n = b.generate();
            n.validate().unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert!(n.gate_count() > 50);
        }
    }
}
