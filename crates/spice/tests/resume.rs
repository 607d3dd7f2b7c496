//! Property tests of transient resumption: a transient resumed from the
//! prefix it shares with an earlier run equals a fresh transient bit for
//! bit, whichever agreeing run it resumes from; a different netlist or
//! grid reuses nothing; and two waveforms really evaluate to the same
//! bits up to the time they are reported to agree.

use proptest::prelude::*;
use stco_compact::model::CompactModel;
use stco_spice::analysis::{TranConfig, TranResult};
use stco_spice::netlist::{Circuit, NodeId, Waveform};

const VDD: f64 = 3.0;
const T_STOP: f64 = 2.0e-6;
const SAMPLES: f64 = 60.0;
const RAMP: f64 = 2.0e-8;

fn config() -> TranConfig {
    TranConfig {
        t_stop: T_STOP,
        dt: T_STOP / SAMPLES,
    }
}

/// A logic input: low from `−T_STOP/2`, toggling at each edge (edge times
/// as fractions of `T_STOP`, each a `RAMP`-long ramp).
fn input(edges: &[f64]) -> Waveform {
    let mut level = 0.0;
    let mut points = vec![(-0.5 * T_STOP, level)];
    for &e in edges {
        points.push((e * T_STOP, level));
        level = VDD - level;
        points.push((e * T_STOP + RAMP, level));
    }
    Waveform::Pwl(points)
}

/// A circuit and every node whose trace is compared.
struct Bench {
    ckt: Circuit,
    nodes: Vec<NodeId>,
}

/// A resistor-load inverter with capacitive load `load`.
fn inverter(a: Waveform, load: f64) -> Bench {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let a_node = ckt.node("a");
    let y = ckt.node("y");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::Dc(VDD));
    ckt.add_vsource("VA", a_node, Circuit::GROUND, a);
    ckt.add_resistor("RL", vdd, y, 1.0e6);
    ckt.add_tft(
        "M1",
        y,
        a_node,
        Circuit::GROUND,
        CompactModel::ntype_reference(),
    );
    ckt.add_capacitor("CL", y, Circuit::GROUND, load);
    Bench {
        ckt,
        nodes: vec![vdd, a_node, y],
    }
}

/// A D latch: a pass transistor gated by EN writes D into a pair of
/// cross-coupled resistor-load inverters; `load` hangs on Q.
fn latch(d: Waveform, load: f64) -> Bench {
    let model = CompactModel::ntype_reference();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let d_node = ckt.node("d");
    let en = ckt.node("en");
    let q = ckt.node("q");
    let qb = ckt.node("qb");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::Dc(VDD));
    ckt.add_vsource("VD", d_node, Circuit::GROUND, d);
    ckt.add_vsource("VEN", en, Circuit::GROUND, input(&[0.1, 0.3, 0.6, 0.8]));
    ckt.add_tft("MP", q, en, d_node, model.resized(40.0e-6, 5.0e-6));
    ckt.add_resistor("R1", vdd, qb, 2.0e6);
    ckt.add_tft("M1", qb, q, Circuit::GROUND, model.clone());
    ckt.add_resistor("R2", vdd, q, 2.0e6);
    ckt.add_tft("M2", q, qb, Circuit::GROUND, model);
    ckt.add_capacitor("CL", q, Circuit::GROUND, load);
    Bench {
        ckt,
        nodes: vec![vdd, d_node, en, q, qb],
    }
}

fn bench(is_latch: bool, edges: &[f64], load: f64) -> Bench {
    if is_latch {
        latch(input(edges), load)
    } else {
        inverter(input(edges), load)
    }
}

/// Sample times, then every node's trace, then every branch current's,
/// as bits.
fn trace_bits(bench: &Bench, tr: &TranResult) -> Vec<u64> {
    let mut bits: Vec<u64> = tr.times().iter().map(|t| t.to_bits()).collect();
    for &node in &bench.nodes {
        bits.extend(tr.voltage_trace(node).iter().map(|v| v.to_bits()));
    }
    for branch in 0..bench.ckt.num_vsources() {
        bits.extend(tr.branch_current_trace(branch).iter().map(|v| v.to_bits()));
    }
    bits
}

/// Where two traces of `bench` first differ in [`trace_bits`] order;
/// `None` when they are bitwise equal.
fn first_difference(bench: &Bench, x: &TranResult, y: &TranResult) -> Option<usize> {
    let (x, y) = (trace_bits(bench, x), trace_bits(bench, y));
    (0..x.len().max(y.len())).find(|&i| x.get(i) != y.get(i))
}

/// Edge times from gaps, starting after `start` (fractions of `T_STOP`).
fn edges_after(start: f64, gaps: &[f64]) -> Vec<f64> {
    gaps.iter()
        .scan(start, |t, g| {
            *t += g;
            Some(*t)
        })
        .collect()
}

/// The first edge of `edges` (as a time) from index `k`, or `+∞`.
fn edge_time(edges: &[f64], k: usize) -> f64 {
    edges.get(k).map_or(f64::INFINITY, |e| e * T_STOP)
}

/// Strategy: a PWL point list whose values repeat often (so flat runs and
/// shared points are common), including −0.0, repeated times and the
/// occasional step back in time.
fn points(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0usize..8, 0usize..4), len).prop_map(|raw| {
        const GAPS: [f64; 8] = [0.0, 1.0, 1.0, 2.0, 2.0, 3.5, 0.25, -1.0];
        const LEVELS: [f64; 4] = [0.0, -0.0, 1.5, 3.0];
        raw.iter()
            .scan(-2.0, |t, &(g, v)| {
                *t += GAPS[g];
                Some((*t, LEVELS[v]))
            })
            .collect()
    })
}

/// Strategy: pairs of waveforms, mostly PWL pairs with a shared prefix.
fn waveform_pair() -> impl Strategy<Value = (Waveform, Waveform)> {
    let pwl = (points(0..4), points(0..4), points(0..4)).prop_map(|(shared, a, b)| {
        // Tails continue in time from the shared prefix.
        let shift = shared.last().map_or(0.0, |p| p.0 + 2.0);
        let tail = |t: Vec<(f64, f64)>| t.into_iter().map(move |(x, v)| (x + shift, v));
        let a: Vec<_> = shared.iter().copied().chain(tail(a)).collect();
        let b: Vec<_> = shared.iter().copied().chain(tail(b)).collect();
        (Waveform::Pwl(a), Waveform::Pwl(b))
    });
    let dc = (0usize..3, 0usize..3).prop_map(|(a, b)| {
        const V: [f64; 3] = [0.0, -0.0, 3.0];
        (Waveform::Dc(V[a]), Waveform::Dc(V[b]))
    });
    let pulse = (0.0..2.0f64, any::<bool>()).prop_map(|(delay, same)| {
        let pulse = |delay: f64| Waveform::Pulse {
            v0: 0.0,
            v1: 3.0,
            delay,
            rise: 0.1,
            fall: 0.1,
            width: 1.0,
            period: 3.0,
        };
        let other = if same { delay } else { delay + 0.5 };
        (pulse(delay), pulse(other))
    });
    let mixed = Just((Waveform::Dc(0.0), Waveform::Pwl(vec![(0.0, 0.0)])));
    prop_oneof![pwl, dc, pulse, mixed]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn resumed_transient_equals_fresh_transient(
        is_latch in any::<bool>(),
        gaps in prop::collection::vec(0.05..0.6f64, 1..7),
        alt_gaps in prop::collection::vec(0.05..0.6f64, 0..4),
        third_gaps in prop::collection::vec(0.05..0.6f64, 0..4),
        split in 0usize..7,
        split_c in 0usize..7,
        load in 5.0e-15..40.0e-15f64,
    ) {
        // Base edges from −0.4 on: a divergence can fall before 0, inside
        // the window or past `T_STOP` (edge fractions reach ~3.2).
        let base = edges_after(-0.4, &gaps);
        let diverge = |k: usize, alt: &[f64]| -> Vec<f64> {
            let k = k.min(base.len());
            let start = if k == 0 { -0.4 } else { base[k - 1] };
            base[..k].iter().copied().chain(edges_after(start, alt)).collect()
        };
        let variant = diverge(split, &alt_gaps);
        let third = diverge(split_c, &third_gaps);
        let k = base.iter().zip(&variant).take_while(|(a, b)| a == b).count();
        prop_assume!(base.get(k) != variant.get(k));

        let a = bench(is_latch, &base, load);
        let b = bench(is_latch, &variant, load);
        let c = bench(is_latch, &third, load);
        // The inputs stay flat at a shared level until the earlier of the
        // two first differing edges.
        let until = b.ckt.agrees_until(&a.ckt);
        let expected = edge_time(&base, k).min(edge_time(&variant, k));
        prop_assert_eq!(until.to_bits(), expected.to_bits());
        prop_assert_eq!(until.to_bits(), a.ckt.agrees_until(&b.ckt).to_bits());

        let cfg = config();
        let run_a = a.ckt.transient(&cfg).expect("a runs");
        let fresh_b = b.ckt.transient(&cfg).expect("b runs");
        let resumed_b = b.ckt.transient_resuming(&cfg, &a.ckt, &run_a).expect("b resumes");
        prop_assert_eq!(first_difference(&b, &resumed_b, &fresh_b), None);
        match resumed_b.resumed_at() {
            None => prop_assert!(until < 0.0, "no reuse although T = {until:e}"),
            Some(at) => {
                // The last sample at or before T was the one resumed from.
                prop_assert!(at <= until, "resumed at {at:e} past T = {until:e}");
                let next = run_a.times().iter().find(|&&t| t > at);
                prop_assert!(next.is_none_or(|&t| t > until));
            }
        }

        // Resuming from another agreeing run, itself resumed, gives the
        // same bits.
        let run_c = c.ckt.transient_resuming(&cfg, &a.ckt, &run_a).expect("c resumes");
        let fresh_c = c.ckt.transient(&cfg).expect("c runs");
        prop_assert_eq!(first_difference(&c, &run_c, &fresh_c), None);
        let via_c = b.ckt.transient_resuming(&cfg, &c.ckt, &run_c).expect("b resumes via c");
        prop_assert_eq!(first_difference(&b, &via_c, &fresh_b), None);

        // Another load capacitor is another netlist; another grid has
        // other sample times. Neither reuses a sample.
        let heavier = bench(is_latch, &variant, 1.5 * load);
        prop_assert_eq!(heavier.ckt.agrees_until(&a.ckt), f64::NEG_INFINITY);
        let reran = heavier.ckt.transient_resuming(&cfg, &a.ckt, &run_a).expect("runs");
        prop_assert_eq!(reran.resumed_at(), None);
        let finer = TranConfig { dt: cfg.dt / 2.0, ..cfg };
        let regridded = b.ckt.transient_resuming(&finer, &a.ckt, &run_a).expect("runs");
        prop_assert_eq!(regridded.resumed_at(), None);
        prop_assert_eq!(regridded.config(), &finer);
    }

    #[test]
    fn waveforms_agree_bitwise_up_to_their_agreement_time(
        pair in waveform_pair(),
        fracs in prop::collection::vec(0.0..1.0f64, 8),
    ) {
        let (a, b) = pair;
        let until = a.agrees_until(&b);
        prop_assert_eq!(until.to_bits(), b.agrees_until(&a).to_bits());
        // Probe every breakpoint and midpoint at or before T, T itself and
        // random times below it.
        let mut times: Vec<f64> = Vec::new();
        for w in [&a, &b] {
            if let Waveform::Pwl(points) = w {
                times.extend(points.iter().map(|p| p.0));
                times.extend(points.windows(2).map(|p| 0.5 * (p[0].0 + p[1].0)));
            }
        }
        let hi = if until.is_finite() { until } else { 12.0 };
        times.push(hi);
        times.extend(fracs.iter().map(|f| -4.0 + f * (hi + 4.0)));
        for t in times.into_iter().filter(|&t| t <= until) {
            prop_assert_eq!(
                a.value_at(t).to_bits(),
                b.value_at(t).to_bits(),
                "t = {}, T = {}, {:?} vs {:?}", t, until, a, b
            );
        }
    }
}
