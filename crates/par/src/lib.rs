//! `stco-par`: the workspace's dependency-free parallel execution layer.
//!
//! The paper's whole point is wall-clock (Table I), and the four STCO
//! hot loops — TCAD dataset sweeps, GNN minibatch training, per-corner
//! cell characterization and RL candidate scoring — are embarrassingly
//! parallel. This crate gives them a scoped thread pool built purely on
//! `std`: `std::thread::scope` workers pulling chunked work items off an
//! atomic index. No rayon, no channels, no allocator tricks.
//!
//! # Determinism contract
//!
//! Every entrypoint produces results that are **bitwise independent of
//! the thread count**:
//!
//! * [`par_map`] / [`try_par_map`] write each item's output into its own
//!   slot, so the returned `Vec` is in input order regardless of which
//!   worker computed what.
//! * [`par_map_reduce`] folds within fixed chunks and merges chunk
//!   accumulators **in chunk order**. The chunk layout is a pure
//!   function of `items.len()` (never of the thread count), so the
//!   sequence of f64 additions — and therefore the rounding — is
//!   identical at `STCO_THREADS=1` and `STCO_THREADS=64`.
//! * Errors and panics surface deterministically: work items are
//!   claimed in increasing index order, so the lowest erroring index is
//!   always evaluated before any abort, and [`try_par_map`] returns the
//!   same (first-by-index) error at every thread count.
//!
//! # Observability
//!
//! Each entrypoint opens an `stco-obs` span on the calling thread, and
//! every spawned worker opens a `par.worker` span explicitly parented
//! under it via [`stco_obs::Recorder::span_with_parent`] — so `--trace`
//! profiles keep a connected tree across thread boundaries and Table-I
//! stage seconds stay consistent.
//!
//! Each multi-threaded region also publishes pool health metrics:
//! `par.pool_utilization` (sum of worker busy time over `threads ×`
//! region wall, 1.0 = perfectly balanced) and a `par.region_items`
//! counter of work items scheduled.
//!
//! # Nesting
//!
//! Parallel regions do not nest: a `par_*` call made from inside a
//! worker (e.g. RL candidate scoring fanning out into per-corner
//! characterization) degrades to the serial path instead of
//! oversubscribing the machine. The serial path runs the identical
//! chunk/merge schedule, so nesting does not perturb results either.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use stco_obs::{FieldValue, Recorder};

/// Process-wide thread-count override installed by
/// [`set_global_threads`] (0 = unset). Takes precedence over the
/// `STCO_THREADS` environment variable, which tests cannot mutate
/// safely once threads exist.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is currently executing inside a parallel
    /// region (workers and the participating caller both set it).
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Configuration of a parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Worker count, caller thread included. `1` means fully serial
    /// (no threads spawned, no atomics on the work path).
    pub threads: usize,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig::current()
    }
}

impl ParConfig {
    /// Fully serial execution.
    pub fn serial() -> Self {
        ParConfig { threads: 1 }
    }

    /// An explicit thread count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        ParConfig {
            threads: threads.max(1),
        }
    }

    /// Reads `STCO_THREADS`; falls back to
    /// [`std::thread::available_parallelism`] when unset or unparsable.
    pub fn from_env() -> Self {
        let from_env = std::env::var("STCO_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let threads = from_env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        ParConfig { threads }
    }

    /// The effective configuration: the [`set_global_threads`] override
    /// if installed, the environment otherwise. This is what every
    /// `stco-*` hot path uses.
    pub fn current() -> Self {
        match GLOBAL_THREADS.load(Ordering::Relaxed) {
            0 => ParConfig::from_env(),
            n => ParConfig { threads: n },
        }
    }
}

/// Installs a process-wide thread-count override (`0` clears it back to
/// `STCO_THREADS`/auto). Determinism tests and bench bins use this to
/// switch thread counts without the data races of `std::env::set_var`.
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
}

/// Whether the calling thread is already inside a parallel region (in
/// which case any nested `par_*` call runs serially).
pub fn in_parallel_region() -> bool {
    IN_POOL.with(|f| f.get())
}

/// Locks a mutex, recovering the guard from a poisoned lock. Poisoning
/// is unreachable here — worker panics are caught per item before they
/// can unwind through a held guard — but recovery beats `expect`.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn into_inner_ignore_poison<T>(m: Mutex<T>) -> T {
    match m.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The lowest-index panic payload captured in a parallel region.
type PanicSlot = Mutex<Option<(usize, Box<dyn Any + Send>)>>;

/// Runs `work(i)` for every `i in 0..num_items` across `threads`
/// workers (caller thread included). Work items are claimed off a
/// shared atomic counter in increasing index order. `work` returning
/// `false` aborts the region: in-flight items finish, unclaimed ones
/// are skipped. Panics are caught per item; the lowest-index payload is
/// rethrown on the caller after all workers have joined.
fn dispatch<F>(threads: usize, num_items: usize, work: F)
where
    F: Fn(usize) -> bool + Sync,
{
    if num_items == 0 {
        return;
    }
    let threads = threads.clamp(1, num_items);
    let panic_slot: PanicSlot = Mutex::new(None);
    let abort = AtomicBool::new(false);

    let run_item = |i: usize| -> bool {
        match catch_unwind(AssertUnwindSafe(|| work(i))) {
            Ok(keep_going) => {
                if !keep_going {
                    abort.store(true, Ordering::Relaxed);
                }
                keep_going
            }
            Err(payload) => {
                abort.store(true, Ordering::Relaxed);
                let mut slot = lock_ignore_poison(&panic_slot);
                match slot.as_ref() {
                    Some((j, _)) if *j <= i => {}
                    _ => *slot = Some((i, payload)),
                }
                false
            }
        }
    };

    if threads == 1 || in_parallel_region() {
        // Serial path: same claim order (0, 1, 2, …), same abort
        // semantics, no atomics or spawns.
        let entered = !in_parallel_region();
        if entered {
            IN_POOL.with(|f| f.set(true));
        }
        for i in 0..num_items {
            if abort.load(Ordering::Relaxed) || !run_item(i) {
                break;
            }
        }
        if entered {
            IN_POOL.with(|f| f.set(false));
        }
    } else {
        let next = AtomicUsize::new(0);
        let parent = Recorder::global().current_span();
        let region_start = Instant::now();
        let busy_ns = AtomicU64::new(0);
        let worker_loop = || {
            IN_POOL.with(|f| f.set(true));
            let started = Instant::now();
            loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= num_items {
                    break;
                }
                run_item(i);
            }
            busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            IN_POOL.with(|f| f.set(false));
        };
        std::thread::scope(|scope| {
            let worker_loop = &worker_loop;
            for w in 1..threads {
                scope.spawn(move || {
                    let _span = Recorder::global().span_with_parent(
                        "par.worker",
                        &[("worker", FieldValue::from(w))],
                        parent,
                    );
                    worker_loop();
                });
            }
            // The caller participates as worker 0; its spans already
            // nest under the region span on this thread's stack.
            worker_loop();
        });
        // Pool health: busy time summed across workers over the
        // region's wall × threads budget. Spawn latency and tail
        // imbalance both show up as utilization < 1.
        let wall = region_start.elapsed().as_secs_f64();
        if wall > 0.0 {
            let busy = busy_ns.load(Ordering::Relaxed) as f64 * 1e-9;
            let metrics = Recorder::global().metrics();
            metrics
                .gauge("par.pool_utilization")
                .set((busy / (wall * threads as f64)).min(1.0));
            metrics.counter("par.region_items").add(num_items as u64);
        }
    }

    if let Some((_, payload)) = into_inner_ignore_poison(panic_slot) {
        resume_unwind(payload);
    }
}

/// Takes the computed value out of a result slot. `None` is impossible
/// once `dispatch` returned without rethrowing (every index was claimed
/// and completed), so this only documents the invariant.
fn take_slot<O>(slot: Mutex<Option<O>>, i: usize) -> O {
    match into_inner_ignore_poison(slot) {
        Some(v) => v,
        None => unreachable!("par result slot {i} empty after successful dispatch"),
    }
}

/// Applies `f` to every item, returning outputs in input order.
///
/// A panic in any worker is rethrown on the caller (lowest panicking
/// index wins at every thread count); the pool itself is never poisoned
/// — the scope joins all workers before the payload is rethrown.
pub fn par_map<T, O, F>(config: ParConfig, items: &[T], f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let _region = stco_obs::span!("par.map", items = items.len(), threads = config.threads);
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    dispatch(config.threads, items.len(), |i| {
        let out = f(&items[i]);
        *lock_ignore_poison(&slots[i]) = Some(out);
        true
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| take_slot(s, i))
        .collect()
}

/// Fallible [`par_map`]: stops claiming new work on the first error and
/// returns the error with the lowest input index.
///
/// Work is claimed in increasing index order, so the lowest erroring
/// index is always evaluated before the abort takes effect — the
/// returned error is identical at every thread count. Typed errors
/// (e.g. a `NumericsError::NonFinite` from a worker) cross the thread
/// boundary intact; panics are rethrown as with [`par_map`].
pub fn try_par_map<T, O, E, F>(config: ParConfig, items: &[T], f: F) -> Result<Vec<O>, E>
where
    T: Sync,
    O: Send,
    E: Send,
    F: Fn(&T) -> Result<O, E> + Sync,
{
    let _region = stco_obs::span!("par.try_map", items = items.len(), threads = config.threads);
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);
    dispatch(config.threads, items.len(), |i| match f(&items[i]) {
        Ok(out) => {
            *lock_ignore_poison(&slots[i]) = Some(out);
            true
        }
        Err(e) => {
            let mut slot = lock_ignore_poison(&first_err);
            match slot.as_ref() {
                Some((j, _)) if *j <= i => {}
                _ => *slot = Some((i, e)),
            }
            false
        }
    });
    if let Some((_, e)) = into_inner_ignore_poison(first_err) {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| take_slot(s, i))
        .collect())
}

/// Number of reduction chunks [`par_map_reduce`] partitions the input
/// into. Fixed (never derived from the thread count) so the f64
/// fold/merge order — and therefore rounding — is a pure function of
/// the input length.
pub const REDUCE_CHUNKS: usize = 8;

/// Deterministic parallel map-reduce.
///
/// The input is split into at most [`REDUCE_CHUNKS`] contiguous chunks
/// (layout depends only on `items.len()`). Each chunk folds its mapped
/// values into a fresh accumulator from `init` via
/// `fold(&mut acc, map(i, &items[i]))` in index order; chunk
/// accumulators are then merged **in chunk order** on the caller with
/// `merge`. The serial path runs the identical schedule, so the result
/// is bitwise independent of the thread count even for non-associative
/// f64 arithmetic.
pub fn par_map_reduce<T, M, A, FM, FI, FF, FR>(
    config: ParConfig,
    items: &[T],
    map: FM,
    init: FI,
    fold: FF,
    mut merge: FR,
) -> A
where
    T: Sync,
    M: Send,
    A: Send,
    FM: Fn(usize, &T) -> M + Sync,
    FI: Fn() -> A + Sync,
    FF: Fn(&mut A, M) + Sync,
    FR: FnMut(&mut A, A),
{
    let _region = stco_obs::span!(
        "par.map_reduce",
        items = items.len(),
        threads = config.threads
    );
    if items.is_empty() {
        return init();
    }
    let num_chunks = REDUCE_CHUNKS.min(items.len());
    let chunk_size = items.len().div_ceil(num_chunks);
    let bounds: Vec<(usize, usize)> = (0..num_chunks)
        .map(|c| (c * chunk_size, ((c + 1) * chunk_size).min(items.len())))
        .filter(|(a, b)| a < b)
        .collect();
    let slots: Vec<Mutex<Option<A>>> = bounds.iter().map(|_| Mutex::new(None)).collect();
    dispatch(config.threads, bounds.len(), |c| {
        let (start, end) = bounds[c];
        let mut acc = init();
        for (i, item) in items[start..end].iter().enumerate() {
            fold(&mut acc, map(start + i, item));
        }
        *lock_ignore_poison(&slots[c]) = Some(acc);
        true
    });
    let mut iter = slots.into_iter().enumerate().map(|(i, s)| take_slot(s, i));
    match iter.next() {
        Some(mut total) => {
            for acc in iter {
                merge(&mut total, acc);
            }
            total
        }
        None => init(),
    }
}
