//! Golden fingerprints of sequential-cell characterization: the seven
//! latches and flip-flops on all three technologies at two corners, plus
//! the DFF on the flow's 2×2 slew × load grid. A change to any metric
//! row, down to one bit, fails here.

use stco_cells::charac::{characterize, CharConfig};
use stco_cells::library::{CellKind, CellType};
use stco_compact::tech::{Corner, TechnologyCard};
use stco_tcad::materials::Technology;

/// `(cell, technology, corner index, fingerprint)` under
/// `CharConfig::fast()`: FNV-1a over every `flatten()` row's metric name
/// and value bits.
const GOLDEN: [(&str, &str, usize, u64); 42] = [
    ("DLATCH", "CNT", 0, 0x8adcecdadb5040c0),
    ("DLATCHN", "CNT", 0, 0x3bbbc6c44389fbb8),
    ("DFF", "CNT", 0, 0x771ee28cd7db7bf7),
    ("DFFN", "CNT", 0, 0x4c4f5736f45fe909),
    ("DFFR", "CNT", 0, 0x1d63feb177fb7cd9),
    ("DFFS", "CNT", 0, 0x3b4c24b2717be537),
    ("SDFF", "CNT", 0, 0xa2984e6644893dd7),
    ("DLATCH", "CNT", 1, 0x7de4c264e0f2ae49),
    ("DLATCHN", "CNT", 1, 0x6f1cea020584a7c2),
    ("DFF", "CNT", 1, 0x9f6fcd71caaea0f4),
    ("DFFN", "CNT", 1, 0x7b1f8d9cc1ed6665),
    ("DFFR", "CNT", 1, 0xa977baa81a034d90),
    ("DFFS", "CNT", 1, 0x079ec43dc62b6b6b),
    ("SDFF", "CNT", 1, 0x7d8643492bdbd60d),
    ("DLATCH", "LTPS", 0, 0x1b53ae5acf7836e2),
    ("DLATCHN", "LTPS", 0, 0x99dec54260105c8b),
    ("DFF", "LTPS", 0, 0x49b5176c9b49dfc4),
    ("DFFN", "LTPS", 0, 0xd45e551838c785ce),
    ("DFFR", "LTPS", 0, 0xf7290777c7976fe7),
    ("DFFS", "LTPS", 0, 0x25f40dc793281be1),
    ("SDFF", "LTPS", 0, 0xae0ba1cbbfb1b439),
    ("DLATCH", "LTPS", 1, 0xc8332e413973d856),
    ("DLATCHN", "LTPS", 1, 0xa16535d474e61e4d),
    ("DFF", "LTPS", 1, 0x4fa856598ef1b2f6),
    ("DFFN", "LTPS", 1, 0x4396ee54fa852a16),
    ("DFFR", "LTPS", 1, 0xb9238c73d540112a),
    ("DFFS", "LTPS", 1, 0x0a34aaf44bdb9ace),
    ("SDFF", "LTPS", 1, 0x7d9a4557ee56d97b),
    ("DLATCH", "IGZO", 0, 0x5720587e70206fa6),
    ("DLATCHN", "IGZO", 0, 0xc2101f4563db3b52),
    ("DFF", "IGZO", 0, 0xd1473bc560ead86e),
    ("DFFN", "IGZO", 0, 0x388cdeb13911d48e),
    ("DFFR", "IGZO", 0, 0x8359daeabfeefe28),
    ("DFFS", "IGZO", 0, 0x28af38a1e68b0c45),
    ("SDFF", "IGZO", 0, 0x66f10084b0537d69),
    ("DLATCH", "IGZO", 1, 0x9746fb4e5a85b5d8),
    ("DLATCHN", "IGZO", 1, 0x266a26010f2d2a9b),
    ("DFF", "IGZO", 1, 0xd7d5cfb08207c40d),
    ("DFFN", "IGZO", 1, 0xcf4227871faecc52),
    ("DFFR", "IGZO", 1, 0xf271cb378c957c22),
    ("DFFS", "IGZO", 1, 0x14379bb784116af6),
    ("SDFF", "IGZO", 1, 0xe051beb4a92a3f58),
];

/// `(technology, fingerprint)` of the DFF at corner 0 under the
/// characterization grid of `stco_core::flow::FlowConfig::fast`, the grid
/// s298's flow characterizes its one flip-flop on.
const GOLDEN_FLOW_DFF: [(&str, u64); 3] = [
    ("CNT", 0x76e9cd75e1c857df),
    ("LTPS", 0xf44f05c17b634ce5),
    ("IGZO", 0x03ace3157ef492ee),
];

const TECHNOLOGIES: [(Technology, &str); 3] = [
    (Technology::Cnt, "CNT"),
    (Technology::Ltps, "LTPS"),
    (Technology::Igzo, "IGZO"),
];

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn corners() -> [Corner; 2] {
    [
        Corner::nominal(3.0),
        Corner {
            vdd: 2.8,
            vth_shift: 0.05,
            cox_scale: 1.1,
        },
    ]
}

fn fingerprint(cell: &CellType, card: &TechnologyCard, config: &CharConfig) -> u64 {
    let ch = characterize(cell, card, config).expect("characterizes");
    fnv1a(
        ch.flatten()
            .into_iter()
            .flat_map(|(name, value)| name.bytes().chain(value.to_bits().to_le_bytes())),
    )
}

#[test]
fn sequential_characterization_matches_golden_fingerprints() {
    let config = CharConfig::fast();
    let mut got = Vec::new();
    for (tech, tech_name) in TECHNOLOGIES {
        let base = TechnologyCard::reference(tech);
        for (k, corner) in corners().into_iter().enumerate() {
            let card = base.at_corner(corner);
            for cell in CellType::library().iter().filter(|c| c.is_sequential()) {
                got.push((cell.name, tech_name, k, fingerprint(cell, &card, &config)));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(cell, tech, k, f)| format!("    ({cell:?}, {tech:?}, {k}, {f:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "fingerprints now:\n{table}");
}

#[test]
fn flow_grid_dff_matches_golden_fingerprint() {
    let config = CharConfig {
        slews: vec![2.0e-9, 8.0e-9],
        loads: vec![5.0e-15, 20.0e-15],
        samples: 200,
        max_leakage_states: 2,
    };
    let dff = CellType::by_kind(CellKind::Dff);
    let got: Vec<(&str, u64)> = TECHNOLOGIES
        .iter()
        .map(|&(tech, tech_name)| {
            let card = TechnologyCard::reference(tech).at_corner(corners()[0]);
            (tech_name, fingerprint(&dff, &card, &config))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(tech, f)| format!("    ({tech:?}, {f:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN_FLOW_DFF, "fingerprints now:\n{table}");
}
