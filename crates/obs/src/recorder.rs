//! The process-global [`Recorder`]: span/event emission, sink fan-out
//! and the single wall clock every record shares.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::MetricsRegistry;
use crate::record::{FieldValue, Record};
use crate::sink::Sink;

static GLOBAL: OnceLock<Recorder> = OnceLock::new();
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of open span ids on this thread (parent attribution).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Dense per-thread id (std ThreadId is opaque).
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Thread-safe recorder: hands out span guards, stamps records against
/// one epoch and fans them out to installed sinks.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    has_sinks: AtomicBool,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            has_sinks: AtomicBool::new(false),
            sinks: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The process-global recorder (created on first use).
    pub fn global() -> &'static Recorder {
        GLOBAL.get_or_init(Recorder::new)
    }

    /// Whether any sink is installed (the macros' fast-path check).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.has_sinks.load(Ordering::Relaxed)
    }

    /// The metrics registry (always live, sinks or not).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Installs a sink; every subsequent record is fanned out to it.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        let mut sinks = self.sinks.lock().expect("sink registry poisoned");
        sinks.push(sink);
        self.has_sinks.store(true, Ordering::Relaxed);
    }

    /// Removes every sink (flushing each) — used by bench bins between
    /// sections and by tests for isolation.
    pub fn clear_sinks(&self) {
        let mut sinks = self.sinks.lock().expect("sink registry poisoned");
        for sink in sinks.iter_mut() {
            sink.flush();
        }
        sinks.clear();
        self.has_sinks.store(false, Ordering::Relaxed);
    }

    /// Flushes every installed sink.
    pub fn flush(&self) {
        let mut sinks = self.sinks.lock().expect("sink registry poisoned");
        for sink in sinks.iter_mut() {
            sink.flush();
        }
    }

    fn emit(&self, record: &Record) {
        if !self.enabled() {
            return;
        }
        let mut sinks = self.sinks.lock().expect("sink registry poisoned");
        for sink in sinks.iter_mut() {
            sink.record(record);
        }
    }

    /// The innermost open span on the calling thread, if any.
    ///
    /// Capture this before handing work to another thread, then open the
    /// worker's spans with [`Recorder::span_with_parent`] so the trace
    /// tree stays connected across the thread boundary.
    pub fn current_span(&self) -> Option<u64> {
        SPAN_STACK.with(|s| s.borrow().last().copied())
    }

    /// Opens a span. The returned guard closes it on drop; keep it alive
    /// for the duration of the region (`let _span = …`, not `let _ = …`).
    ///
    /// Spans always measure wall-clock (so callers may rely on
    /// [`SpanGuard::close`] returning real elapsed time) but only emit
    /// records when a sink is installed.
    pub fn span(
        &'static self,
        name: &'static str,
        fields: &[(&'static str, FieldValue)],
    ) -> SpanGuard {
        self.span_inner(name, fields, None)
    }

    /// Opens a span whose parent is `parent` rather than this thread's
    /// innermost open span — the cross-thread variant of
    /// [`Recorder::span`] used by worker threads so their spans nest
    /// under the span that spawned the parallel region.
    ///
    /// The new span still becomes the innermost span of the *calling*
    /// thread, so nested spans and events opened by the worker attach
    /// underneath it as usual.
    pub fn span_with_parent(
        &'static self,
        name: &'static str,
        fields: &[(&'static str, FieldValue)],
        parent: Option<u64>,
    ) -> SpanGuard {
        self.span_inner(name, fields, Some(parent))
    }

    fn span_inner(
        &'static self,
        name: &'static str,
        fields: &[(&'static str, FieldValue)],
        parent_override: Option<Option<u64>>,
    ) -> SpanGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let stack_parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let parent = parent_override.unwrap_or(stack_parent);
        let start = Instant::now();
        if self.enabled() {
            let record = Record::SpanStart {
                id,
                parent,
                name: name.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                t_ns: self.now_ns(),
                thread: THREAD_ID.with(|t| *t),
            };
            self.emit(&record);
        }
        SpanGuard {
            recorder: self,
            id,
            start,
            closed: false,
        }
    }

    /// Emits an event attached to the innermost open span of this thread.
    pub fn event(&self, name: &str, fields: &[(&'static str, FieldValue)]) {
        if !self.enabled() {
            return;
        }
        let span = SPAN_STACK.with(|s| s.borrow().last().copied());
        let record = Record::Event {
            span,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            t_ns: self.now_ns(),
            thread: THREAD_ID.with(|t| *t),
        };
        self.emit(&record);
    }
}

/// An open span; closing (drop or [`SpanGuard::close`]) records the
/// elapsed wall-clock.
#[derive(Debug)]
pub struct SpanGuard {
    recorder: &'static Recorder,
    id: u64,
    start: Instant,
    closed: bool,
}

impl SpanGuard {
    /// The span's id (for cross-referencing in sinks).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span now and returns the elapsed seconds — the same
    /// quantity the `SpanEnd` record carries, so table rows built from
    /// the return value and profiles folded from the trace agree exactly.
    pub fn close(mut self) -> f64 {
        self.finish()
    }

    fn finish(&mut self) -> f64 {
        if self.closed {
            return 0.0;
        }
        self.closed = true;
        let elapsed = self.start.elapsed();
        // Pop this id wherever it sits — tolerates out-of-order drops.
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.remove(pos);
            }
        });
        if self.recorder.enabled() {
            let record = Record::SpanEnd {
                id: self.id,
                t_ns: self.recorder.now_ns(),
                elapsed_ns: elapsed.as_nanos() as u64,
            };
            self.recorder.emit(&record);
        }
        elapsed.as_secs_f64()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;

    // Recorder state is process-global; keep all recorder tests in one
    // function so parallel test threads don't fight over sinks.
    #[test]
    fn spans_nest_events_attach_and_close_reports_elapsed() {
        let recorder = Recorder::global();
        recorder.clear_sinks();
        let (sink, handle) = RingBufferSink::with_capacity(128);
        recorder.add_sink(Box::new(sink));

        let outer = recorder.span("test.outer", &[("k", FieldValue::from(1u64))]);
        let inner = recorder.span("test.inner", &[]);
        recorder.event("test.ping", &[]);
        let inner_s = inner.close();
        std::hint::black_box((0..50_000u64).sum::<u64>());
        let outer_s = outer.close();
        recorder.clear_sinks();

        assert!(inner_s >= 0.0 && outer_s >= inner_s, "outer ⊇ inner");
        let records = handle.records();
        let (mut starts, mut ends, mut events) = (0, 0, 0);
        let mut inner_parent = None;
        let mut event_span = None;
        let mut inner_id = None;
        for r in &records {
            match r {
                Record::SpanStart {
                    name, parent, id, ..
                } => {
                    starts += 1;
                    if name == "test.inner" {
                        inner_parent = *parent;
                        inner_id = Some(*id);
                    }
                }
                Record::SpanEnd { .. } => ends += 1,
                Record::Event { span, .. } => {
                    events += 1;
                    event_span = *span;
                }
            }
        }
        assert_eq!((starts, ends, events), (2, 2, 1));
        assert!(inner_parent.is_some(), "inner span has outer as parent");
        assert_eq!(event_span, inner_id, "event attaches to innermost span");
        // Timestamps are monotone non-decreasing in emission order.
        for w in records.windows(2) {
            assert!(w[1].t_ns() >= w[0].t_ns());
        }

        // Cross-thread parenting: a worker thread has its own (empty)
        // span stack, so span_with_parent must carry the caller's span id
        // across the boundary explicitly.
        let (sink, handle) = RingBufferSink::with_capacity(128);
        recorder.add_sink(Box::new(sink));
        let caller = recorder.span("test.caller", &[]);
        let caller_id = caller.id();
        assert_eq!(recorder.current_span(), Some(caller_id));
        let worker_parent = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    assert_eq!(recorder.current_span(), None, "fresh thread stack");
                    let w = recorder.span_with_parent("test.worker", &[], Some(caller_id));
                    assert_eq!(recorder.current_span(), Some(w.id()));
                    w.close();
                })
                .join()
                // stco-check: allow(no-unwrap, test-only join on a thread that cannot panic)
                .expect("worker thread");
            handle.records().iter().find_map(|r| match r {
                Record::SpanStart { name, parent, .. } if name == "test.worker" => Some(*parent),
                _ => None,
            })
        });
        caller.close();
        recorder.clear_sinks();
        assert_eq!(
            worker_parent,
            Some(Some(caller_id)),
            "worker span parents under the caller's span"
        );
    }
}
