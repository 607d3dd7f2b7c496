//! Lint identities and the workspace lint configuration.

use std::fmt;

/// The project-specific lints enforced by `stco-check`.
///
/// Identifiers (the names used in baselines, reports and waiver
/// comments) are stable strings — renaming one invalidates committed
/// baselines and in-tree waivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// **L1** `no-unwrap`: no `.unwrap()` / `.expect(...)` / `panic!`
    /// in library source files. Inline `#[cfg(test)]` modules are
    /// included — unit tests must propagate typed errors with `?` so a
    /// failure carries solver context instead of a bare panic.
    NoUnwrap,
    /// **L2** `obs-span`: every public solver/training/characterization
    /// entrypoint must open an `stco-obs` span.
    ObsSpan,
    /// **L3** `no-lossy-cast`: no lossy numeric `as` casts
    /// (`f64 as f32`, `usize as i32`, ...) in numeric crates; use
    /// `try_from` / `u8::from` / checked helpers instead.
    NoLossyCast,
    /// **L4** `no-print`: no `println!` / `eprintln!` / `dbg!` in
    /// library code — route diagnostics through `stco-obs` sinks.
    NoPrint,
    /// **L5** `no-alloc-in-hot-loop`: functions annotated with a
    /// preceding `// stco-hot` comment must not allocate per call —
    /// `Matrix::zeros(...)`, `.to_vec()` and `.clone()` are flagged;
    /// lease buffers from a workspace or accept an `&mut` output
    /// instead.
    NoAllocInHotLoop,
    /// **L6** `metric-name`: string-literal metric names passed to
    /// `.counter(` / `.gauge(` / `.histogram(` / `.windowed_histogram(`
    /// must follow the `area.noun_unit` convention —
    /// `^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$`, optionally followed by a
    /// `{key=value,...}` label block. One dot, lowercase snake case,
    /// units spelled in the noun (`_seconds`, `_bytes`).
    MetricName,
    /// **L7** `no-hashmap-iter-order`: iterating a `HashMap`/`HashSet`
    /// into any order-sensitive sink — `collect` into an ordered
    /// container, float reductions, `for_each`/`fold`, serialization —
    /// is the classic silent determinism killer. Iterate a `BTreeMap`,
    /// collect-then-sort, or reduce with an order-insensitive terminal
    /// (`count`, `any`, integer `sum`).
    NoHashMapIterOrder,
    /// **L8** `atomic-ordering`: every `load`/`store`/`swap`/
    /// `compare_exchange*`/`fetch_*` on an atomic must name an explicit
    /// `Ordering::...` at the call site, and `SeqCst` is banned inside
    /// `// stco-hot` functions (name the weakest ordering the protocol
    /// needs; SeqCst-by-default hides the reasoning and costs fences).
    AtomicOrdering,
    /// **L9** `no-raw-thread`: `std::thread::spawn` / `scope` /
    /// `Builder` outside `stco-par` and `stco-serve` internals — all
    /// parallelism must flow through the determinism-contracted pool so
    /// thread-count invariance holds.
    NoRawThread,
    /// **L10** `float-reduce-order`: `.sum::<f64>()` / float `fold` in
    /// functions that also use the stco-par API bypasses the
    /// fixed-chunk reduction contract — float addition is not
    /// associative, so the result depends on traversal order. Use
    /// `par_map_reduce` or the fixed-chunk serial helper.
    FloatReduceOrder,
    /// **L11** `lock-across-await-free-zone`: a `Mutex`/`RwLock` guard
    /// held across a channel `send`/`recv` or blocking I/O call in
    /// serve hot paths serializes the whole service (and deadlocks
    /// under backpressure). Scope the guard to end before the blocking
    /// call.
    LockAcrossBlocking,
}

/// Every lint, in report order.
pub const ALL_LINTS: [Lint; 11] = [
    Lint::NoUnwrap,
    Lint::ObsSpan,
    Lint::NoLossyCast,
    Lint::NoPrint,
    Lint::NoAllocInHotLoop,
    Lint::MetricName,
    Lint::NoHashMapIterOrder,
    Lint::AtomicOrdering,
    Lint::NoRawThread,
    Lint::FloatReduceOrder,
    Lint::LockAcrossBlocking,
];

impl Lint {
    /// Stable string identifier (used in baselines and waivers).
    pub fn id(self) -> &'static str {
        match self {
            Lint::NoUnwrap => "no-unwrap",
            Lint::ObsSpan => "obs-span",
            Lint::NoLossyCast => "no-lossy-cast",
            Lint::NoPrint => "no-print",
            Lint::NoAllocInHotLoop => "no-alloc-in-hot-loop",
            Lint::MetricName => "metric-name",
            Lint::NoHashMapIterOrder => "no-hashmap-iter-order",
            Lint::AtomicOrdering => "atomic-ordering",
            Lint::NoRawThread => "no-raw-thread",
            Lint::FloatReduceOrder => "float-reduce-order",
            Lint::LockAcrossBlocking => "lock-across-await-free-zone",
        }
    }

    /// Parses a stable identifier back into a lint.
    pub fn from_id(id: &str) -> Option<Lint> {
        ALL_LINTS.iter().copied().find(|l| l.id() == id)
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Static workspace configuration for the lint passes.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates whose shipped code must satisfy L1/L4 and, where listed,
    /// L2/L3. Crate name is the `crates/<name>` directory name.
    pub shim_crates: &'static [&'static str],
    /// `(crate, [entrypoint fn names])` that must open an obs span (L2).
    pub span_entrypoints: &'static [(&'static str, &'static [&'static str])],
    /// Crates subject to the lossy-cast lint (L3).
    pub numeric_crates: &'static [&'static str],
    /// Cast target types considered lossy (L3).
    pub lossy_targets: &'static [&'static str],
    /// Crates allowed to use `std::thread` directly (L9) — the
    /// determinism-contracted pool and the serving runtime.
    pub raw_thread_crates: &'static [&'static str],
    /// Crates whose fns are checked for float reductions when they
    /// also call a par entrypoint (L10).
    pub par_entrypoints: &'static [&'static str],
    /// Crates whose hot paths must not hold a lock guard across a
    /// channel or blocking I/O call (L11).
    pub serve_hot_crates: &'static [&'static str],
    /// Workspace helpers that return a lock guard (feeds the guard
    /// fact for L11).
    pub guard_fns: &'static [&'static str],
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            // In-tree stand-ins for external APIs (proptest/criterion)
            // mirror foreign idioms on purpose; linting them would just
            // seed permanent waivers.
            shim_crates: &["proptest", "criterion"],
            span_entrypoints: &[
                ("tcad", &["solve_poisson", "simulate_point"]),
                (
                    "spice",
                    &["transient", "transient_resuming", "dc_operating_point"],
                ),
                ("nn", &["fit", "fit_parallel"]),
                ("par", &["par_map", "try_par_map", "par_map_reduce"]),
                ("cells", &["characterize", "characterize_subset"]),
                (
                    "core",
                    &["run_iteration", "fast_device_solution", "predicted_library"],
                ),
                (
                    "system",
                    &[
                        "analyze_timing",
                        "analyze_power",
                        "place",
                        "evaluate",
                        "simulate_activity",
                    ],
                ),
                ("store", &["load", "put"]),
                (
                    "serve",
                    &[
                        "submit",
                        "submit_async",
                        "load",
                        "drain_shard",
                        "resume_shard",
                        "io_loop",
                    ],
                ),
                ("bench", &["run_load_curve"]),
                (
                    "sweep",
                    &[
                        "run_sweep",
                        "record_scenario",
                        "run_remote_worker",
                        "bayes_explore",
                        "explorer_ablation",
                    ],
                ),
            ],
            numeric_crates: &[
                "numerics",
                "nn",
                "par",
                "tcad",
                "compact",
                "spice",
                "cells",
                "surrogate",
                "system",
                "core",
                "store",
                "serve",
                "sweep",
            ],
            lossy_targets: &["f32", "i8", "i16", "i32", "u8", "u16", "u32"],
            // par: the determinism-contracted pool; serve: the serving
            // runtime's mux I/O event threads, acceptor and shard
            // workers.
            raw_thread_crates: &["par", "serve"],
            par_entrypoints: &["par_map", "try_par_map", "par_map_reduce"],
            serve_hot_crates: &["serve"],
            guard_fns: &["lock_ignore_poison", "lock_state"],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for l in ALL_LINTS {
            assert_eq!(Lint::from_id(l.id()), Some(l));
        }
        assert_eq!(Lint::from_id("nope"), None);
    }

    #[test]
    fn default_config_covers_the_five_paper_crates() {
        let cfg = LintConfig::default();
        for c in ["tcad", "spice", "nn", "cells", "system"] {
            assert!(
                cfg.span_entrypoints.iter().any(|(k, _)| *k == c),
                "missing span entrypoints for {c}"
            );
        }
    }
}
