//! `stco-obs`: the observability substrate of the fast-stco workspace.
//!
//! The paper's headline claim is *runtime* (Table I's 1.9×–14.1×
//! full-loop speedup), so this crate makes runtime a first-class,
//! inspectable quantity instead of scattered `Instant::now()` pairs:
//!
//! * **Spans** ([`recorder`]) — hierarchical wall-clock regions with
//!   key/value fields, emitted through a process-global [`Recorder`] to
//!   pluggable [`sink::Sink`]s (in-memory ring buffer, JSONL file).
//!   The [`span!`]/[`event!`] macros compile to a single atomic load
//!   when no sink is installed.
//! * **Metrics** ([`metrics`]) — named counters, gauges and lock-free
//!   fixed-bucket histograms with percentile summaries
//!   (`tcad.newton_iters`, `nn.epoch_loss`, `spice.timestep_rejects`,
//!   `rl.episode_reward`, `flow.stage_seconds{stage=…}`), including
//!   sliding-window histograms ([`metrics::WindowedHistogram`]) for
//!   rolling quantiles like a server's live p99.
//! * **Exposition** ([`exposition`]) — renders a metrics snapshot as a
//!   JSON document or Prometheus-style text for admin endpoints.
//! * **Profiles** ([`profile`]) — folds a recorded span stream into a
//!   per-stage/per-substage table (Markdown + JSON), the breakdown that
//!   justifies each Table I row.
//!
//! Naming scheme: `crate.operation` for spans and events
//! (`tcad.solve_poisson`, `system.place`), `crate.quantity` for metrics,
//! with `{key=value}` suffixes for low-cardinality labels
//! (`flow.stage_seconds{stage=device}`). Stage spans are named
//! `flow.stage` with a `stage` field so profiles fold them per stage.
//!
//! The crate is dependency-free (std only) so every layer of the
//! workspace can depend on it.

pub mod exposition;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod record;
pub mod recorder;
pub mod sink;

pub use exposition::{prometheus_text, snapshot_json};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, WindowConfig, WindowedHistogram};
pub use profile::{Profile, ProfileNode};
pub use record::{FieldValue, Record};
pub use recorder::{Recorder, SpanGuard};
pub use sink::{JsonlSink, RingBufferHandle, RingBufferSink, Sink};

/// Errors from observability plumbing (sink I/O, JSON parsing).
#[derive(Debug)]
pub enum ObsError {
    /// Sink I/O failure.
    Io(std::io::Error),
    /// Malformed JSON while decoding a trace.
    Json {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        context: String,
    },
    /// A trace record stream violated span nesting invariants.
    BadTrace {
        /// What went wrong.
        context: String,
    },
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsError::Io(e) => write!(f, "observability I/O: {e}"),
            ObsError::Json { offset, context } => {
                write!(f, "trace JSON error at byte {offset}: {context}")
            }
            ObsError::BadTrace { context } => write!(f, "bad trace: {context}"),
        }
    }
}

impl std::error::Error for ObsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ObsError {
    fn from(e: std::io::Error) -> Self {
        ObsError::Io(e)
    }
}

/// Result alias for observability routines.
pub type Result<T> = std::result::Result<T, ObsError>;

/// Opens a span on the global recorder.
///
/// ```
/// let _span = stco_obs::span!("tcad.solve_poisson", gate = 2.0, drain = 1.0);
/// ```
///
/// The guard closes the span (recording elapsed wall-clock) on drop, or
/// explicitly via [`SpanGuard::close`] which returns the elapsed seconds.
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::Recorder::global().span(
            $name,
            &[$((stringify!($key), $crate::FieldValue::from($value))),*],
        )
    };
}

/// Emits a point-in-time event on the global recorder, attached to the
/// innermost open span of the current thread.
///
/// Field expressions are only evaluated when a sink is installed, so the
/// disabled cost is one atomic load.
#[macro_export]
macro_rules! event {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::Recorder::global().enabled() {
            $crate::Recorder::global().event(
                $name,
                &[$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}
