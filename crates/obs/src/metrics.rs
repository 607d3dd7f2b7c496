//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms with percentile summaries.
//!
//! Metrics are always live (no sink required): handles are cheap
//! `Arc`-backed clones, so hot loops fetch a handle once and update it
//! with a few atomic ops per observation. No handle operation takes a
//! lock — [`Histogram::observe`] and [`WindowedHistogram::observe`] are
//! wait-free apart from the CAS retry loops on the f64 accumulators
//! (the registry's `Mutex` guards registration only, never the hot
//! path).
//!
//! Two histogram flavors:
//!
//! * [`Histogram`] — cumulative since process start (or [`reset`]).
//! * [`WindowedHistogram`] — the same buckets, plus a ring of rotating
//!   epochs so quantiles can be read over a **sliding window** of the
//!   last N epochs. `serve.latency_seconds` uses this so p99 reflects
//!   current load, not the whole process lifetime.
//!
//! Label convention: low-cardinality labels are folded into the name as
//! `name{key=value}` (see [`labeled`]). Bare names follow the
//! `area.noun_unit` convention (`serve.latency_seconds`) enforced by
//! the `metric-name` lint in `stco-check`.
//!
//! [`reset`]: Histogram::reset

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Formats a labeled metric name: `name{key=value}`.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    format!("{name}{{{key}={value}}}")
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// An `f64` stored as its bit pattern in an `AtomicU64`, with CAS-loop
/// read-modify-write helpers. Relaxed ordering throughout: metric
/// accumulators need atomicity, not inter-variable ordering.
#[derive(Debug)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    // stco-hot
    fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Lowers the stored value to `v` if `v` is smaller.
    // stco-hot
    fn fetch_min(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v < f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the stored value to `v` if `v` is larger.
    // stco-hot
    fn fetch_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Shared atomic accumulator: per-bucket counts plus count/sum/min/max.
/// Backs both the cumulative state of [`Histogram`] and each epoch of a
/// [`WindowedHistogram`].
#[derive(Debug)]
struct AtomicBuckets {
    /// Per-bucket counts (`counts[i]` ↔ `value ≤ bounds[i]`), plus one
    /// overflow bucket at the end.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl AtomicBuckets {
    fn new(n_bounds: usize) -> Self {
        AtomicBuckets {
            counts: (0..=n_bounds).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
        }
    }

    // stco-hot
    #[inline]
    fn observe(&self, idx: usize, v: f64) {
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
        // stco-check: allow(atomic-ordering, AtomicF64 wrapper pins Relaxed in its CAS loop)
        self.min.fetch_min(v);
        // stco-check: allow(atomic-ordering, AtomicF64 wrapper pins Relaxed in its CAS loop)
        self.max.fetch_max(v);
    }

    fn clear(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.set(0.0);
        self.min.set(f64::INFINITY);
        self.max.set(f64::NEG_INFINITY);
    }

    fn read(&self) -> HistogramReading {
        HistogramReading {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.get(),
            min: self.min.get(),
            max: self.max.get(),
        }
    }

    /// Accumulates this state into `into` (window merges).
    fn merge_into(&self, into: &mut HistogramReading) {
        for (acc, c) in into.counts.iter_mut().zip(&self.counts) {
            *acc += c.load(Ordering::Relaxed);
        }
        into.count += self.count.load(Ordering::Relaxed);
        into.sum += self.sum.get();
        into.min = into.min.min(self.min.get());
        into.max = into.max.max(self.max.get());
    }
}

/// A point-in-time copy of histogram state: per-bucket counts (overflow
/// bucket last), observation count/sum and observed extrema.
///
/// Fields are read individually with relaxed atomics, so a reading
/// taken concurrently with writers is *weakly* consistent (e.g. `count`
/// may trail the bucket total by in-flight observations). Quantile
/// estimation tolerates this.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramReading {
    /// Per-bucket counts; `counts[i]` pairs with `bounds[i]`, the last
    /// entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
}

impl HistogramReading {
    fn empty(n_bounds: usize) -> Self {
        HistogramReading {
            counts: vec![0; n_bounds + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Mean observation, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Estimated `q`-quantile against `bounds`, or `None` when empty.
    ///
    /// Linear interpolation inside the containing bucket, clamped to
    /// the exact observed `[min, max]` — so single-sample readings
    /// report that sample for every quantile, and a saturated overflow
    /// bucket reports `max` rather than infinity.
    #[must_use]
    pub fn quantile(&self, bounds: &[f64], q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cumulative + c;
            if rank <= next as f64 || i + 1 == self.counts.len() {
                // Bucket bounds: (lower, upper]; the overflow bucket and
                // the first bucket borrow the observed extrema.
                let upper = if i < bounds.len() {
                    bounds[i]
                } else {
                    self.max
                };
                let lower = if i == 0 {
                    self.min.min(upper)
                } else {
                    bounds[i - 1]
                };
                let frac = ((rank - cumulative as f64) / c as f64).clamp(0.0, 1.0);
                let v = lower + (upper - lower) * frac;
                return Some(v.clamp(self.min, self.max));
            }
            cumulative = next;
        }
        Some(self.max)
    }

    /// Prometheus-style cumulative `le` buckets: for each finite bound,
    /// the number of observations ≤ that bound. The `+Inf` bucket is
    /// [`count`](Self::count).
    #[must_use]
    pub fn le_buckets(&self, bounds: &[f64]) -> Vec<(f64, u64)> {
        let mut cumulative = 0u64;
        bounds
            .iter()
            .zip(&self.counts)
            .map(|(&b, &c)| {
                cumulative += c;
                (b, cumulative)
            })
            .collect()
    }
}

/// A fixed-bucket histogram: cumulative-style buckets defined by their
/// upper bounds, plus an overflow bucket. `observe` is lock-free.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Arc<Vec<f64>>,
    state: Arc<AtomicBuckets>,
}

impl Histogram {
    /// Creates a standalone histogram (registry-less use: tests,
    /// reference comparisons).
    #[must_use]
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Histogram {
            bounds: Arc::new(bounds),
            state: Arc::new(AtomicBuckets::new(n)),
        }
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Records one observation. Lock-free: two `fetch_add`s plus CAS
    /// loops on the f64 accumulators.
    // stco-hot
    pub fn observe(&self, v: f64) {
        let idx = bucket_index(&self.bounds, v);
        self.state.observe(idx, v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.state.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.state.sum.get()
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        self.read().mean()
    }

    /// Estimated `q`-quantile (`0 ≤ q ≤ 1`), or `None` when empty.
    ///
    /// See [`HistogramReading::quantile`] for the estimation contract.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.read().quantile(&self.bounds, q)
    }

    /// A weakly consistent copy of the full state.
    #[must_use]
    pub fn read(&self) -> HistogramReading {
        self.state.read()
    }

    /// Resets all state (bounds kept).
    pub fn reset(&self) {
        self.state.clear();
    }
}

#[inline]
fn bucket_index(bounds: &[f64], v: f64) -> usize {
    bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())
}

/// Shape of a [`WindowedHistogram`]'s sliding window: `epochs` ring
/// slots of `epoch_len` wall time each, so the window spans
/// `epochs × epoch_len` (e.g. 16 × 1 s = the last 16 seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Wall-clock length of one epoch.
    pub epoch_len: Duration,
    /// Number of ring slots (≥ 2; lower values are raised to 2).
    pub epochs: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            epoch_len: Duration::from_secs(1),
            epochs: 16,
        }
    }
}

/// Ring-slot marker for "never owned by any tick".
const TICK_UNUSED: u64 = u64::MAX;

#[derive(Debug)]
struct Epoch {
    /// Tick that currently owns this slot (`TICK_UNUSED` when fresh).
    /// Claimed by CAS before the slot is cleared for reuse.
    tick: AtomicU64,
    /// Last tick whose clear completed: readers and fellow writers
    /// treat the slot's counts as valid only when `ready == tick`.
    ready: AtomicU64,
    state: AtomicBuckets,
}

#[derive(Debug)]
struct WindowInner {
    epoch_ns: u64,
    epochs: Vec<Epoch>,
    start: Instant,
    cumulative: AtomicBuckets,
}

/// A histogram with both cumulative state and a **sliding window**: a
/// ring of N epochs rotated by wall-clock tick, so quantiles can be
/// read over just the last `N × epoch_len` of traffic.
///
/// `observe` is lock-free. Rotation is cooperative: the first observer
/// of a new tick claims the oldest ring slot with a CAS, clears it and
/// publishes it; no background thread is needed. Ticks are plain
/// integers (`elapsed / epoch_len`), and every time-dependent operation
/// has an `_at(tick)` variant so tests can drive a fake clock
/// deterministically.
///
/// Window reads taken concurrently with writers are weakly consistent,
/// like every other metric read; with an explicit tick and no
/// concurrent writers they are exact.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    bounds: Arc<Vec<f64>>,
    inner: Arc<WindowInner>,
}

impl WindowedHistogram {
    /// Creates a standalone windowed histogram (registry-less use:
    /// tests, reference comparisons).
    #[must_use]
    pub fn with_bounds(bounds: Vec<f64>, config: WindowConfig) -> Self {
        let n = bounds.len();
        let epochs = config.epochs.max(2);
        WindowedHistogram {
            bounds: Arc::new(bounds),
            inner: Arc::new(WindowInner {
                epoch_ns: config.epoch_len.as_nanos().max(1) as u64,
                epochs: (0..epochs)
                    .map(|_| Epoch {
                        tick: AtomicU64::new(TICK_UNUSED),
                        ready: AtomicU64::new(TICK_UNUSED),
                        state: AtomicBuckets::new(n),
                    })
                    .collect(),
                start: Instant::now(),
                cumulative: AtomicBuckets::new(n),
            }),
        }
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The current wall-clock tick (`elapsed / epoch_len`).
    #[must_use]
    pub fn current_tick(&self) -> u64 {
        (self.inner.start.elapsed().as_nanos() as u64) / self.inner.epoch_ns
    }

    /// Records one observation at the current wall-clock tick.
    pub fn observe(&self, v: f64) {
        self.observe_at(v, self.current_tick());
    }

    /// Records one observation at an explicit tick (fake-clock path;
    /// also counted into the cumulative state). Observations older than
    /// the slot's current owner are dropped from the window — they are
    /// already outside it.
    // stco-hot
    pub fn observe_at(&self, v: f64, tick: u64) {
        let idx = bucket_index(&self.bounds, v);
        self.inner.cumulative.observe(idx, v);
        let slot = &self.inner.epochs[(tick % self.inner.epochs.len() as u64) as usize];
        loop {
            let owner = slot.tick.load(Ordering::Acquire);
            if owner == tick {
                if slot.ready.load(Ordering::Acquire) == tick {
                    slot.state.observe(idx, v);
                    return;
                }
                // Another thread claimed this tick and is still
                // clearing the slot; wait for it to publish.
                std::hint::spin_loop();
                continue;
            }
            if owner != TICK_UNUSED && owner > tick {
                // The ring has already rotated past this tick.
                return;
            }
            if slot
                .tick
                .compare_exchange(owner, tick, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slot.state.clear();
                slot.ready.store(tick, Ordering::Release);
                slot.state.observe(idx, v);
                return;
            }
        }
    }

    /// Merged reading over the window ending at `tick` (inclusive):
    /// slots owned by ticks in `(tick - epochs, tick]`.
    #[must_use]
    pub fn window_reading_at(&self, tick: u64) -> HistogramReading {
        let mut out = HistogramReading::empty(self.bounds.len());
        let span = self.inner.epochs.len() as u64;
        let oldest = tick.saturating_sub(span - 1);
        for slot in &self.inner.epochs {
            let owner = slot.tick.load(Ordering::Acquire);
            if owner == TICK_UNUSED || owner < oldest || owner > tick {
                continue;
            }
            if slot.ready.load(Ordering::Acquire) != owner {
                continue;
            }
            slot.state.merge_into(&mut out);
        }
        out
    }

    /// Merged reading over the window ending at the current tick.
    #[must_use]
    pub fn window_reading(&self) -> HistogramReading {
        self.window_reading_at(self.current_tick())
    }

    /// Estimated `q`-quantile over the window ending at `tick`, or
    /// `None` when the window is empty.
    #[must_use]
    pub fn quantile_at(&self, q: f64, tick: u64) -> Option<f64> {
        self.window_reading_at(tick).quantile(&self.bounds, q)
    }

    /// Estimated `q`-quantile over the current window (`0 ≤ q ≤ 1`),
    /// or `None` when the window is empty. The windowed analogue of
    /// [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantile_at(q, self.current_tick())
    }

    /// Cumulative (since construction/reset) observation count.
    pub fn count(&self) -> u64 {
        self.inner.cumulative.count.load(Ordering::Relaxed)
    }

    /// Cumulative sum of observations.
    pub fn sum(&self) -> f64 {
        self.inner.cumulative.sum.get()
    }

    /// Cumulative mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        self.inner.cumulative.read().mean()
    }

    /// Cumulative reading (all observations ever, regardless of window).
    #[must_use]
    pub fn cumulative_reading(&self) -> HistogramReading {
        self.inner.cumulative.read()
    }

    /// Estimated `q`-quantile over the cumulative state.
    #[must_use]
    pub fn cumulative_quantile(&self, q: f64) -> Option<f64> {
        self.inner.cumulative.read().quantile(&self.bounds, q)
    }

    /// Resets cumulative and window state (bounds and shape kept).
    pub fn reset(&self) {
        self.inner.cumulative.clear();
        for slot in &self.inner.epochs {
            slot.ready.store(TICK_UNUSED, Ordering::Release);
            slot.tick.store(TICK_UNUSED, Ordering::Release);
            slot.state.clear();
        }
    }
}

/// Log-spaced seconds buckets (1 µs … 1000 s), the default for
/// `*_seconds` histograms.
pub fn seconds_buckets() -> Vec<f64> {
    let mut out = Vec::new();
    let mut b = 1e-6;
    while b <= 1.0e3 + 1e-9 {
        out.push(b);
        out.push(b * 2.5);
        out.push(b * 5.0);
        b *= 10.0;
    }
    out
}

/// Log-spaced dimensionless buckets (1e-9 … 1e3), suited to training
/// losses and rewards spanning many decades.
pub fn loss_buckets() -> Vec<f64> {
    let mut out = Vec::new();
    let mut b = 1e-9;
    while b <= 1.0e3 + 1e-9 {
        out.push(b);
        out.push(b * 3.0);
        b *= 10.0;
    }
    out
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Windowed(WindowedHistogram),
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone)]
pub enum MetricSnapshot {
    /// Counter reading.
    Counter {
        /// Metric name.
        name: String,
        /// Value.
        value: u64,
    },
    /// Gauge reading.
    Gauge {
        /// Metric name.
        name: String,
        /// Value.
        value: f64,
    },
    /// Histogram summary (cumulative).
    Histogram {
        /// Metric name.
        name: String,
        /// Observation count.
        count: u64,
        /// Observation sum.
        sum: f64,
        /// Mean (`None` when empty).
        mean: Option<f64>,
        /// p50 estimate.
        p50: Option<f64>,
        /// p90 estimate.
        p90: Option<f64>,
        /// p99 estimate.
        p99: Option<f64>,
        /// Cumulative `le` buckets: `(upper_bound, count ≤ bound)` per
        /// finite bound (the implicit `+Inf` bucket equals `count`).
        buckets: Vec<(f64, u64)>,
    },
    /// Sliding-window histogram summary: cumulative count/sum/mean and
    /// buckets plus rolling quantiles over the current window.
    Windowed {
        /// Metric name.
        name: String,
        /// Cumulative observation count.
        count: u64,
        /// Cumulative observation sum.
        sum: f64,
        /// Cumulative mean (`None` when empty).
        mean: Option<f64>,
        /// Observations inside the current window.
        window_count: u64,
        /// Rolling p50 estimate (`None` when the window is empty).
        p50: Option<f64>,
        /// Rolling p90 estimate.
        p90: Option<f64>,
        /// Rolling p95 estimate.
        p95: Option<f64>,
        /// Rolling p99 estimate.
        p99: Option<f64>,
        /// Cumulative `le` buckets: `(upper_bound, count ≤ bound)` per
        /// finite bound over every observation, like `count` (the
        /// implicit `+Inf` bucket equals `count`), so two snapshots'
        /// buckets difference to what was observed between them.
        buckets: Vec<(f64, u64)>,
    },
}

impl MetricSnapshot {
    /// The metric's name.
    pub fn name(&self) -> &str {
        match self {
            MetricSnapshot::Counter { name, .. }
            | MetricSnapshot::Gauge { name, .. }
            | MetricSnapshot::Histogram { name, .. }
            | MetricSnapshot::Windowed { name, .. } => name,
        }
    }
}

/// Registry of named metrics. Same name → same underlying metric; a
/// name registered as one kind and fetched as another panics (a naming
/// bug worth failing loudly on).
#[derive(Debug)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        // A poisoned registry only means a panic elsewhere while the
        // map was locked; the map itself holds no cross-entry
        // invariants, so keep serving metrics.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fetches (or creates) a counter.
    pub fn counter(&self, name: &str) -> Counter {
        match self
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            // stco-check: allow(no-unwrap, kind mismatch is a caller bug; panicking here is the documented contract)
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Fetches (or creates) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))))
        {
            Metric::Gauge(g) => g.clone(),
            // stco-check: allow(no-unwrap, kind mismatch is a caller bug; panicking here is the documented contract)
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Fetches (or creates) a histogram with the given bucket bounds
    /// (bounds are fixed at first registration).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        match self
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::with_bounds(bounds.to_vec())))
        {
            Metric::Histogram(h) => h.clone(),
            // stco-check: allow(no-unwrap, kind mismatch is a caller bug; panicking here is the documented contract)
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Fetches (or creates) a sliding-window histogram (bounds and
    /// window shape are fixed at first registration).
    pub fn windowed_histogram(
        &self,
        name: &str,
        bounds: &[f64],
        config: WindowConfig,
    ) -> WindowedHistogram {
        match self.lock().entry(name.to_string()).or_insert_with(|| {
            Metric::Windowed(WindowedHistogram::with_bounds(bounds.to_vec(), config))
        }) {
            Metric::Windowed(w) => w.clone(),
            // stco-check: allow(no-unwrap, kind mismatch is a caller bug; panicking here is the documented contract)
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Snapshots every registered metric, in deterministic sorted-name
    /// order (the `BTreeMap` iteration order), so snapshots and reports
    /// diff cleanly across runs.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let m = self.lock();
        m.iter()
            .map(|(name, metric)| match metric {
                Metric::Counter(c) => MetricSnapshot::Counter {
                    name: name.clone(),
                    value: c.get(),
                },
                Metric::Gauge(g) => MetricSnapshot::Gauge {
                    name: name.clone(),
                    value: g.get(),
                },
                Metric::Histogram(h) => {
                    let r = h.read();
                    MetricSnapshot::Histogram {
                        name: name.clone(),
                        count: r.count,
                        sum: r.sum,
                        mean: r.mean(),
                        p50: r.quantile(h.bounds(), 0.5),
                        p90: r.quantile(h.bounds(), 0.9),
                        p99: r.quantile(h.bounds(), 0.99),
                        buckets: r.le_buckets(h.bounds()),
                    }
                }
                Metric::Windowed(w) => {
                    let cum = w.cumulative_reading();
                    let win = w.window_reading();
                    MetricSnapshot::Windowed {
                        name: name.clone(),
                        count: cum.count,
                        sum: cum.sum,
                        mean: cum.mean(),
                        window_count: win.count,
                        p50: win.quantile(w.bounds(), 0.5),
                        p90: win.quantile(w.bounds(), 0.9),
                        p95: win.quantile(w.bounds(), 0.95),
                        p99: win.quantile(w.bounds(), 0.99),
                        buckets: cum.le_buckets(w.bounds()),
                    }
                }
            })
            .collect()
    }

    /// Renders the snapshot as a Markdown table (sorted by name).
    /// Windowed histograms report rolling quantiles over the current
    /// window and cumulative count/sum/mean.
    pub fn markdown(&self) -> String {
        let mut out =
            String::from("| metric | count/value | sum | mean | p50 | p90 | p99 |\n|---|---:|---:|---:|---:|---:|---:|\n");
        let fmt = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x:.4e}"));
        for snap in self.snapshot() {
            match snap {
                MetricSnapshot::Counter { name, value } => {
                    out.push_str(&format!("| {name} | {value} | — | — | — | — | — |\n"));
                }
                MetricSnapshot::Gauge { name, value } => {
                    out.push_str(&format!("| {name} | {value:.4e} | — | — | — | — | — |\n"));
                }
                MetricSnapshot::Histogram {
                    name,
                    count,
                    sum,
                    mean,
                    p50,
                    p90,
                    p99,
                    ..
                } => {
                    out.push_str(&format!(
                        "| {name} | {count} | {sum:.4e} | {} | {} | {} | {} |\n",
                        fmt(mean),
                        fmt(p50),
                        fmt(p90),
                        fmt(p99)
                    ));
                }
                MetricSnapshot::Windowed {
                    name,
                    count,
                    sum,
                    mean,
                    p50,
                    p90,
                    p99,
                    ..
                } => {
                    out.push_str(&format!(
                        "| {name} | {count} | {sum:.4e} | {} | {} | {} | {} |\n",
                        fmt(mean),
                        fmt(p50),
                        fmt(p90),
                        fmt(p99)
                    ));
                }
            }
        }
        out
    }

    /// Removes every metric (tests; bench bins between sections).
    pub fn reset(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("a.b").get(), 5, "same name, same counter");
        let g = reg.gauge("a.g");
        g.set(-2.5);
        assert_eq!(reg.gauge("a.g").get(), -2.5);
        assert_eq!(reg.snapshot().len(), 2);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::with_bounds(vec![1.0, 2.0]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_histogram_reports_that_sample() -> Result<(), String> {
        let h = Histogram::with_bounds(vec![1.0, 10.0, 100.0]);
        h.observe(7.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).ok_or(format!("no quantile at q={q}"))?;
            assert!((v - 7.0).abs() < 1e-12, "q={q}: {v}");
        }
        assert_eq!(h.mean(), Some(7.0));
        Ok(())
    }

    #[test]
    fn single_sample_above_top_bound_reports_that_sample() {
        // The sole observation lands in the overflow bucket; the
        // estimate must still be the exact sample, not infinity.
        let h = Histogram::with_bounds(vec![1.0, 2.0]);
        h.observe(50.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(50.0), "q={q}");
        }
    }

    #[test]
    fn saturated_overflow_bucket_reports_observed_max() -> Result<(), String> {
        let h = Histogram::with_bounds(vec![1.0]);
        for v in [5.0, 8.0, 11.0] {
            h.observe(v);
        }
        // All mass above the last bound: quantiles must stay within
        // [min, max] of the real observations, never infinite.
        for q in [0.1, 0.5, 0.9, 1.0] {
            let v = h.quantile(q).ok_or(format!("no quantile at q={q}"))?;
            assert!((5.0..=11.0).contains(&v), "q={q}: {v}");
        }
        assert_eq!(h.quantile(1.0), Some(11.0));
        Ok(())
    }

    #[test]
    fn extreme_q_is_clamped_and_bracketed() {
        let h = Histogram::with_bounds(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 3.5] {
            h.observe(v);
        }
        // q outside [0,1] clamps; q=0 → min, q=1 → max.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        assert_eq!(h.quantile(0.0), Some(0.5));
        assert_eq!(h.quantile(1.0), Some(3.5));
    }

    #[test]
    fn quantiles_are_monotone_and_bracketed() -> Result<(), String> {
        let h = Histogram::with_bounds(seconds_buckets());
        for i in 1..=1000 {
            h.observe(i as f64 * 1e-3);
        }
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).ok_or(format!("no quantile at q={q}"))?;
            assert!(v >= prev, "quantiles must be monotone in q");
            assert!((1e-3..=1.0).contains(&v));
            prev = v;
        }
        // Median of 1..1000 ms ≈ 0.5 s within bucket resolution (coarse
        // log buckets: accept a 2.5× band).
        let p50 = h.quantile(0.5).ok_or("no p50")?;
        assert!(p50 > 0.2 && p50 < 1.0, "p50 {p50}");
        Ok(())
    }

    #[test]
    fn concurrent_observe_loses_nothing() {
        let h = Histogram::with_bounds(vec![0.25, 0.5, 0.75]);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.observe((t * 1000 + i) as f64 * 1e-4);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8000);
        let r = h.read();
        assert_eq!(r.counts.iter().sum::<u64>(), 8000);
        assert_eq!(r.min, 0.0);
        assert!((r.max - 0.7999).abs() < 1e-12);
        assert!((r.sum - (0..8000).map(|i| i as f64 * 1e-4).sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn le_buckets_are_cumulative() {
        let h = Histogram::with_bounds(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.7, 3.0, 9.0] {
            h.observe(v);
        }
        let r = h.read();
        assert_eq!(r.le_buckets(h.bounds()), vec![(1.0, 1), (2.0, 3), (4.0, 4)]);
        assert_eq!(r.count, 5, "+Inf bucket equals count");
    }

    #[test]
    fn windowed_rotation_is_deterministic_under_fake_clock() {
        let cfg = WindowConfig {
            epoch_len: Duration::from_secs(1),
            epochs: 4,
        };
        let w = WindowedHistogram::with_bounds(vec![1.0, 2.0, 4.0], cfg);
        // One observation of value `t` at each tick t = 0..8.
        for t in 0..8u64 {
            w.observe_at(t as f64 * 0.5, t);
        }
        // Window at tick 7 covers ticks 4..=7 → values 2.0, 2.5, 3.0, 3.5.
        let win = w.window_reading_at(7);
        assert_eq!(win.count, 4);
        assert_eq!(win.min, 2.0);
        assert_eq!(win.max, 3.5);
        assert_eq!(w.quantile_at(1.0, 7), Some(3.5));
        // Cumulative keeps everything.
        assert_eq!(w.count(), 8);
        assert_eq!(w.cumulative_reading().min, 0.0);
        // Advancing the clock with no traffic empties the window.
        assert_eq!(w.window_reading_at(20).count, 0);
        assert_eq!(w.quantile_at(0.99, 20), None);
        // ... but not the cumulative state.
        assert_eq!(w.cumulative_quantile(1.0), Some(3.5));
    }

    #[test]
    fn windowed_drops_stale_ticks_from_window_only() {
        let cfg = WindowConfig {
            epoch_len: Duration::from_secs(1),
            epochs: 2,
        };
        let w = WindowedHistogram::with_bounds(vec![10.0], cfg);
        w.observe_at(1.0, 10);
        // Tick 8 maps to the same ring slot as tick 10 but is older:
        // the window must not resurrect it.
        w.observe_at(2.0, 8);
        assert_eq!(w.window_reading_at(10).count, 1);
        assert_eq!(w.count(), 2, "cumulative still counts stale ticks");
    }

    #[test]
    fn windowed_same_slot_reuse_clears_old_epoch() {
        let cfg = WindowConfig {
            epoch_len: Duration::from_secs(1),
            epochs: 2,
        };
        let w = WindowedHistogram::with_bounds(vec![10.0], cfg);
        w.observe_at(1.0, 0);
        w.observe_at(2.0, 1);
        assert_eq!(w.window_reading_at(1).count, 2);
        // Tick 2 reuses tick 0's slot; the old counts must vanish.
        w.observe_at(3.0, 2);
        let win = w.window_reading_at(2);
        assert_eq!(win.count, 2);
        assert_eq!(win.min, 2.0);
        assert_eq!(win.max, 3.0);
    }

    #[test]
    fn windowed_quantile_matches_cumulative_when_window_covers_all() {
        let w = WindowedHistogram::with_bounds(
            seconds_buckets(),
            WindowConfig {
                epoch_len: Duration::from_secs(1),
                epochs: 8,
            },
        );
        for i in 1..=100 {
            w.observe_at(i as f64 * 1e-3, 3);
        }
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(w.quantile_at(q, 3), w.cumulative_quantile(q), "q={q}");
        }
    }

    #[test]
    fn registry_windowed_roundtrip() -> Result<(), String> {
        let reg = MetricsRegistry::new();
        let w = reg.windowed_histogram("a.latency_seconds", &[1.0, 2.0], WindowConfig::default());
        w.observe_at(0.5, 0);
        let again =
            reg.windowed_histogram("a.latency_seconds", &[1.0, 2.0], WindowConfig::default());
        assert_eq!(again.count(), 1, "same name, same histogram");
        let snaps = reg.snapshot();
        match snaps.first() {
            Some(MetricSnapshot::Windowed { name, count, .. }) => {
                assert_eq!(name, "a.latency_seconds");
                assert_eq!(*count, 1);
                Ok(())
            }
            other => Err(format!("expected windowed snapshot, got {other:?}")),
        }
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn windowed_vs_histogram_kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.histogram("y", &[1.0]);
        reg.windowed_histogram("y", &[1.0], WindowConfig::default());
    }

    #[test]
    fn snapshot_is_sorted_by_name() -> Result<(), String> {
        let reg = MetricsRegistry::new();
        // Register deliberately out of order.
        reg.counter("z.last");
        reg.gauge("a.first");
        reg.histogram("m.mid_seconds", &[1.0]);
        reg.counter("b.second");
        let snaps = reg.snapshot();
        let names: Vec<&str> = snaps.iter().map(|s| s.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
        // markdown derives from snapshot, so rows follow the same order.
        let md = reg.markdown();
        let a = md.find("a.first").ok_or("a.first row missing")?;
        let b = md.find("b.second").ok_or("b.second row missing")?;
        let m = md.find("m.mid_seconds").ok_or("m.mid row missing")?;
        let z = md.find("z.last").ok_or("z.last row missing")?;
        assert!(a < b && b < m && m < z, "markdown rows must be name-sorted");
        Ok(())
    }

    #[test]
    fn labeled_formats() {
        assert_eq!(
            labeled("flow.stage_seconds", "stage", "device"),
            "flow.stage_seconds{stage=device}"
        );
    }
}
