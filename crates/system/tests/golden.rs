//! Golden fingerprints of the placer and the activity simulator on the
//! ten Table I benchmarks: a change to either one's output, down to one
//! bit, fails here.

use stco_system::bench_gen::Benchmark;
use stco_system::mapper::map_netlist;
use stco_system::place::place;
use stco_system::ppa::EvalConfig;

/// `(benchmark, placement, activity)`: FNV-1a over the positions and
/// `total_hpwl` bits of the placement under `EvalConfig::fast()`, and
/// over the bits of `simulate_activity(100, 7)`.
const GOLDEN: [(&str, u64, u64); 10] = [
    ("s298", 0x66ea303ebaa4050b, 0xff92678282d767e3),
    ("s386", 0x35ff921711ee5f0f, 0x5f1de0b3a4a9e68e),
    ("s526", 0x7317af1b6b68d8af, 0x3ee7b4c1d9f3c631),
    ("s820", 0x5a3675b493bfe0cf, 0x07b58ff8ab5d4635),
    ("s1196", 0x1f0d5668de57574b, 0x8cf0d721a89bc663),
    ("s1488", 0xa70e93fdb99b925b, 0x7eb4c42d94f2ae08),
    ("16bit MAC", 0xe687c6600cfb3c25, 0xcd63d02b4cff46e9),
    ("32bit MAC", 0xd38fe22aa2e00f4a, 0xa269e5fc27be7e02),
    ("Picorv32", 0xab519fd7d3f72d15, 0xea8d5506a94017de),
    ("Darkriscv", 0x5ba7dea1c37d1f58, 0xa9cd644f6d3a157a),
];

/// FNV-1a 64 over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn placements_and_activities_match_golden_fingerprints() {
    let config = EvalConfig::fast().place;
    let got: Vec<(&str, u64, u64)> = Benchmark::ALL
        .iter()
        .map(|bench| {
            let logic = bench.generate();
            let p = place(&map_netlist(&logic).expect("maps"), &config).expect("places");
            let placement = fnv1a(
                p.positions
                    .iter()
                    .flat_map(|&(c, r)| [c as u64, r as u64])
                    .chain([p.total_hpwl.to_bits()]),
            );
            let activity = logic.simulate_activity(100, 7).expect("simulates");
            (
                bench.name(),
                placement,
                fnv1a(activity.iter().map(|a| a.to_bits())),
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, p, a)| format!("    ({name:?}, {p:#018x}, {a:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "fingerprints now:\n{table}");
}
