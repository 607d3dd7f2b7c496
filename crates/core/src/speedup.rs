//! Table I accounting: measured and paper-calibrated runtime rows.
//!
//! The paper composes each Table I row from one system-evaluation time
//! and fixed technology-stage seconds:
//!
//! ```text
//! traditional = system_eval + T_TCAD_commercial + T_cellchar_commercial
//! ours        = system_eval + T_env + T_GNN_TCAD + T_GNN_cells
//! speedup     = traditional / ours
//! ```
//!
//! Two views are reported, as DESIGN.md specifies:
//!
//! * **measured** — every stage timed on our own substrates (FEM TCAD,
//!   MNA SPICE, GNN inference, real mapping/placement/STA), so the
//!   speedup and its design-size dependence emerge from real work;
//! * **calibrated** — the paper's technology-stage seconds (142.07 s
//!   commercial TCAD, ≈1900 s commercial characterization, 1.38 + 8.88 +
//!   8.12 s for the GNN path) composed with either the paper's or our
//!   measured system-evaluation seconds.

use stco_system::bench_gen::Benchmark;

use crate::flow::StageSeconds;

/// Commercial TCAD device simulation (per optimization pass), seconds.
const TCAD_COMMERCIAL: f64 = 142.07;
/// Commercial cell-library characterization, seconds.
const CELLCHAR_COMMERCIAL: f64 = 1900.0;
/// GNN TCAD surrogate inference, seconds.
const GNN_TCAD: f64 = 1.38;
/// GNN cell-characterization inference, seconds.
const GNN_CELLCHAR: f64 = 8.88;
/// Shared environment setup of the GNN path, seconds.
const ENV_SETUP: f64 = 8.12;

/// One calibrated Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Benchmark label.
    pub benchmark: String,
    /// System-evaluation seconds.
    pub system_eval: f64,
    /// Traditional full-iteration seconds.
    pub traditional: f64,
    /// Fast-STCO full-iteration seconds.
    pub ours: f64,
    /// Speedup factor.
    pub speedup: f64,
}

impl SpeedupRow {
    /// Composes a row from a system-eval time and the paper's
    /// technology-stage seconds.
    fn compose(benchmark: &str, system_eval: f64) -> Self {
        let traditional = system_eval + TCAD_COMMERCIAL + CELLCHAR_COMMERCIAL;
        let ours = system_eval + ENV_SETUP + GNN_TCAD + GNN_CELLCHAR;
        SpeedupRow {
            benchmark: benchmark.to_string(),
            system_eval,
            traditional,
            ours,
            speedup: traditional / ours,
        }
    }
}

/// One benchmark's measured Table I row: both flows timed end to end.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Benchmark label.
    pub benchmark: String,
    /// Traditional-flow stage seconds.
    pub traditional: StageSeconds,
    /// Fast-flow stage seconds.
    pub fast: StageSeconds,
}

impl MeasuredRow {
    /// The measured full-iteration speedup.
    pub fn speedup(&self) -> f64 {
        self.traditional.total() / self.fast.total().max(1e-12)
    }

    /// The measured technology-stage-only speedup (device + compact +
    /// cells; the ">100×" claim of the paper applies here).
    pub fn technology_speedup(&self) -> f64 {
        self.traditional.technology() / self.fast.technology().max(1e-12)
    }
}

/// The paper's own Table I rows (system-eval seconds and reported
/// speedups), used as the reference series in EXPERIMENTS.md.
pub fn paper_table1() -> Vec<(Benchmark, f64, f64)> {
    vec![
        (Benchmark::S298, 142.0, 13.6),
        (Benchmark::S386, 136.0, 14.1),
        (Benchmark::S526, 202.0, 10.2),
        (Benchmark::S820, 198.0, 10.4),
        (Benchmark::S1196, 223.0, 9.4),
        (Benchmark::S1488, 230.0, 9.2),
        (Benchmark::Mac16, 536.0, 4.7),
        (Benchmark::Mac32, 1270.0, 2.6),
        (Benchmark::Picorv32, 939.0, 3.1),
        (Benchmark::Darkriscv, 2250.0, 1.9),
    ]
}

/// Calibrated rows: the paper's stage constants composed with the given
/// per-benchmark system-evaluation seconds.
pub fn calibrated_rows(system_eval: &[(Benchmark, f64)]) -> Vec<SpeedupRow> {
    system_eval
        .iter()
        .map(|(b, sys)| SpeedupRow::compose(b.name(), *sys))
        .collect()
}

/// Scales measured system-evaluation seconds so that the largest
/// benchmark matches the paper's largest (our substrate is a single
/// core; only relative size matters), then composes calibrated rows —
/// the "measured system eval, paper technology constants" hybrid.
pub fn calibrated_from_measured(measured: &[(Benchmark, f64)]) -> Vec<SpeedupRow> {
    let paper_max = paper_table1()
        .iter()
        .map(|(_, s, _)| *s)
        .fold(0.0_f64, f64::max);
    let our_max = measured.iter().map(|(_, s)| *s).fold(0.0_f64, f64::max);
    let scale = if our_max > 0.0 {
        paper_max / our_max
    } else {
        1.0
    };
    let scaled: Vec<(Benchmark, f64)> = measured.iter().map(|(b, s)| (*b, s * scale)).collect();
    calibrated_rows(&scaled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_reproduce_reported_speedups() {
        let sys: Vec<(Benchmark, f64)> = paper_table1().iter().map(|(b, s, _)| (*b, *s)).collect();
        let rows = calibrated_rows(&sys);
        for (row, (_, _, expected)) in rows.iter().zip(paper_table1()) {
            assert!(
                (row.speedup - expected).abs() < 0.3,
                "{}: {:.2} vs paper {expected}",
                row.benchmark,
                row.speedup
            );
        }
    }

    #[test]
    fn task_speedups_exceed_100x() {
        // Paper: ">100× for both individual tasks".
        let tcad = TCAD_COMMERCIAL / GNN_TCAD;
        let cells = CELLCHAR_COMMERCIAL / GNN_CELLCHAR;
        assert!(tcad > 100.0, "TCAD task speedup {tcad:.1}");
        assert!(cells > 100.0, "cell-char task speedup {cells:.1}");
    }

    #[test]
    fn traditional_columns_match_paper_arithmetic() {
        // Paper note: traditional = system eval + commercial TCAD +
        // commercial characterization. s298: 142 + 142.07 + 1900 ≈ 2184.
        let row = SpeedupRow::compose("s298", 142.0);
        assert!((row.traditional - 2184.07).abs() < 0.2);
        // ours: 142 + 8.12 + 1.38 + 8.88 ≈ 160.4.
        assert!((row.ours - 160.38).abs() < 0.2);
    }

    #[test]
    fn speedup_shrinks_with_design_size() {
        let sys: Vec<(Benchmark, f64)> = paper_table1().iter().map(|(b, s, _)| (*b, *s)).collect();
        let rows = calibrated_rows(&sys);
        let s298 = rows.iter().find(|r| r.benchmark == "s298").unwrap();
        let dark = rows.iter().find(|r| r.benchmark == "Darkriscv").unwrap();
        assert!(s298.speedup > 3.0 * dark.speedup);
    }

    #[test]
    fn measured_scaling_preserves_ordering() {
        // Fake measured seconds with the right ordering.
        let measured = vec![
            (Benchmark::S298, 0.5),
            (Benchmark::Mac32, 4.0),
            (Benchmark::Darkriscv, 8.0),
        ];
        let rows = calibrated_from_measured(&measured);
        assert!(rows[0].speedup > rows[1].speedup);
        assert!(rows[1].speedup > rows[2].speedup);
        // The largest is pinned to the paper's largest system-eval time.
        assert!((rows[2].system_eval - 2250.0).abs() < 1e-9);
    }

    #[test]
    fn measured_row_computes_both_speedups() {
        let row = MeasuredRow {
            benchmark: "x".into(),
            traditional: StageSeconds {
                device: 10.0,
                compact: 0.5,
                cells: 40.0,
                system: 5.0,
            },
            fast: StageSeconds {
                device: 0.1,
                compact: 0.5,
                cells: 0.4,
                system: 5.0,
            },
        };
        assert!((row.speedup() - 55.5 / 6.0).abs() < 1e-12);
        assert!(row.technology_speedup() > 50.0);
    }
}
