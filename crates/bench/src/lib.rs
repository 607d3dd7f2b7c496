//! Shared helpers for the table/figure regenerator binaries and the
//! Criterion benches.
//!
//! Every binary honours a `STCO_SCALE` environment variable:
//! `STCO_SCALE=paper` runs closer to paper scale (slow), anything else
//! (or unset) runs the scaled-down defaults documented in EXPERIMENTS.md.
//!
//! [`load_curve`] is the closed-loop load generator the serving benches
//! drive against a running `stco-serve` endpoint.

pub mod load_curve;

use std::path::PathBuf;

use stco_cells::charac::CharConfig;
use stco_cells::encode::{encode_cell, CellGraph, EncodingContext};
use stco_cells::library::{CellKind, CellType};
use stco_compact::tech::{Corner, CornerGrid, TechnologyCard};
use stco_obs::{JsonlSink, Profile, Recorder, RingBufferHandle, RingBufferSink};
use stco_tcad::materials::Technology;

/// Whether the expensive "paper-scale" mode was requested.
pub fn paper_scale() -> bool {
    std::env::var("STCO_SCALE")
        .map(|v| v == "paper")
        .unwrap_or(false)
}

/// Whether `--trace` was passed on the command line.
pub fn trace_flag() -> bool {
    std::env::args().any(|a| a == "--trace")
}

/// Whether `--no-cache` was passed on the command line (forces a full
/// retrain even when the artifact registry holds a matching model).
pub fn no_cache_flag() -> bool {
    std::env::args().any(|a| a == "--no-cache")
}

/// The artifact registry the bench binaries cache trained models in:
/// `$STCO_STORE_DIR` (default `.stco-store`), or `None` with
/// `--no-cache`. A registry that cannot be opened degrades to `None`
/// with a warning rather than failing the bench.
pub fn artifact_registry() -> Option<stco_store::Registry> {
    if no_cache_flag() {
        // stco-check: allow(no-print, user-facing bench harness status)
        println!("artifact cache disabled (--no-cache)");
        return None;
    }
    match stco_store::Registry::open_default() {
        Ok(reg) => {
            // stco-check: allow(no-print, user-facing bench harness status)
            println!("artifact cache: {}", reg.dir().display());
            Some(reg)
        }
        Err(e) => {
            // stco-check: allow(no-print, user-facing bench harness warning)
            eprintln!("warning: artifact cache unavailable ({e}); retraining");
            None
        }
    }
}

/// Reads the global cache hit/miss counters (registered by
/// `stco_store::Registry`), for before/after deltas around a cached
/// stage.
pub fn cache_counters() -> (u64, u64) {
    let metrics = stco_obs::Recorder::global().metrics();
    (
        metrics.counter("store.cache_hit").get(),
        metrics.counter("store.cache_miss").get(),
    )
}

/// Prints the hit/miss delta since `before` (from [`cache_counters`]).
pub fn report_cache_delta(label: &str, before: (u64, u64)) {
    let (hit, miss) = cache_counters();
    // stco-check: allow(no-print, user-facing bench harness status)
    println!(
        "{label}: artifact cache {} hit(s), {} miss(es)",
        hit - before.0,
        miss - before.1
    );
}

/// A live tracing session for a bench binary: a JSONL sink streaming to
/// `results/trace_<bin>.jsonl` plus an in-memory ring buffer the binary
/// can fold into [`Profile`]s.
pub struct TraceSession {
    handle: RingBufferHandle,
    path: PathBuf,
}

impl TraceSession {
    /// Starts tracing if `--trace` is on the command line; returns
    /// `None` (recording stays disabled, near-zero overhead) otherwise.
    pub fn start(bin: &str) -> Option<TraceSession> {
        if !trace_flag() {
            return None;
        }
        let path = PathBuf::from(format!("results/trace_{bin}.jsonl"));
        let recorder = Recorder::global();
        recorder.clear_sinks();
        let jsonl = JsonlSink::create(&path).expect("trace file under results/");
        // Large enough that a full bench run never evicts (records are
        // dominated by per-Newton-iteration and per-epoch events).
        let (ring, handle) = RingBufferSink::with_capacity(1 << 21);
        recorder.add_sink(Box::new(jsonl));
        recorder.add_sink(Box::new(ring));
        Some(TraceSession { handle, path })
    }

    /// Number of records captured so far — use as a mark, then fold
    /// `records_since(mark)` to profile one section of the run.
    pub fn mark(&self) -> usize {
        self.handle.len()
    }

    /// Folds the records captured since `mark` into a profile.
    pub fn profile_since(&self, mark: usize) -> Profile {
        let records = self.handle.records();
        Profile::from_records(&records[mark.min(records.len())..])
    }

    /// Ends the session: uninstalls the sinks (flushing the JSONL file)
    /// and returns the full-run profile plus the trace path.
    pub fn finish(self) -> (Profile, PathBuf) {
        let recorder = Recorder::global();
        recorder.clear_sinks();
        let dropped = self.handle.dropped();
        if dropped > 0 {
            // stco-check: allow(no-print, user-facing warning from the bench harness itself)
            eprintln!("warning: trace ring buffer evicted {dropped} records");
        }
        let profile = Profile::from_records(&self.handle.records());
        (profile, self.path)
    }
}

/// The characterization grid used by the benches (2×2; paper grids are
/// denser but the NLDM structure is identical).
pub fn bench_char_config() -> CharConfig {
    CharConfig {
        slews: vec![2.0e-9, 8.0e-9],
        loads: vec![5.0e-15, 20.0e-15],
        samples: 200,
        max_leakage_states: 2,
    }
}

/// `n` cell graphs for the batched-forward kernels, the inference
/// population the serving path batches: INV, NAND2 and NOR2 on the LTPS
/// reference card at each corner of a 4-level default [`CornerGrid`],
/// every input rising at 2 ns into a 10 fF load scaled by the corner's
/// C_ox, cycling through the (cell, corner) pairs until `n` exist.
pub fn encoded_graphs(n: usize) -> Vec<CellGraph> {
    let base = TechnologyCard::reference(Technology::Ltps);
    let corners = CornerGrid::default().corners(4);
    let pairs: Vec<(CellType, Corner)> = [CellKind::Inv, CellKind::Nand2, CellKind::Nor2]
        .into_iter()
        .flat_map(|kind| corners.iter().map(move |&c| (CellType::by_kind(kind), c)))
        .collect();
    pairs
        .iter()
        .cycle()
        .take(n)
        .map(|(cell, corner)| {
            let built = cell.build(&base.at_corner(*corner), 1.0);
            let load = 10.0e-15 * corner.cox_scale;
            encode_cell(&built, &EncodingContext::all_rising(cell, 2.0e-9, load))
        })
        .collect()
}

/// Prints a horizontal rule with a title.
pub fn banner(title: &str) {
    // stco-check: allow(no-print, bench table output is this helper's purpose)
    println!("\n=== {title} ===");
}

/// Formats seconds in engineering style.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(2.5), "2.50 s");
        assert_eq!(fmt_seconds(0.0025), "2.50 ms");
        assert_eq!(fmt_seconds(2.5e-6), "2.50 us");
    }

    #[test]
    fn bench_grid_is_square() {
        let c = bench_char_config();
        assert_eq!(c.slews.len(), 2);
        assert_eq!(c.loads.len(), 2);
    }
}
