//! Behavioral tests for the stco-par pool: ordering, determinism across
//! thread counts, typed-error and panic propagation, nesting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use stco_numerics::NumericsError;
use stco_par::{
    in_parallel_region, par_map, par_map_reduce, set_global_threads, try_par_map, ParConfig,
    REDUCE_CHUNKS,
};

/// Thread counts exercised by every determinism assertion: serial, a
/// divisor of typical chunk counts, oversubscribed odd, > chunk count.
const THREAD_COUNTS: [usize; 4] = [1, 2, 7, 16];

#[test]
fn par_map_returns_outputs_in_input_order() {
    let items: Vec<usize> = (0..100).collect();
    for t in THREAD_COUNTS {
        let out = par_map(ParConfig::with_threads(t), &items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>(), "t={t}");
    }
}

#[test]
fn par_map_runs_every_item_exactly_once() {
    let counter = AtomicUsize::new(0);
    let items: Vec<usize> = (0..57).collect();
    let out = par_map(ParConfig::with_threads(4), &items, |&x| {
        counter.fetch_add(1, Ordering::Relaxed);
        x
    });
    assert_eq!(out.len(), 57);
    assert_eq!(counter.load(Ordering::Relaxed), 57);
}

/// Non-associative f64 reduction: summing values of wildly different
/// magnitudes is rounding-order sensitive, so bitwise equality across
/// thread counts actually verifies the fixed chunk/merge schedule.
#[test]
fn par_map_reduce_is_bitwise_deterministic_across_thread_counts() {
    for n in [0usize, 1, 5, REDUCE_CHUNKS, 100, 1013] {
        let items: Vec<f64> = (0..n)
            .map(|i| (i as f64 + 0.1) * 10f64.powi((i % 17) as i32 - 8))
            .collect();
        let sums: Vec<f64> = THREAD_COUNTS
            .iter()
            .map(|&t| {
                par_map_reduce(
                    ParConfig::with_threads(t),
                    &items,
                    |_, &x| x,
                    || 0.0f64,
                    |acc, x| *acc += x,
                    |acc, other| *acc += other,
                )
            })
            .collect();
        for s in &sums[1..] {
            assert_eq!(s.to_bits(), sums[0].to_bits(), "n={n}, sums={sums:?}");
        }
    }
}

#[test]
fn par_map_reduce_empty_input_returns_init() {
    let items: Vec<f64> = Vec::new();
    let sum = par_map_reduce(
        ParConfig::with_threads(4),
        &items,
        |_, &x| x,
        || 42.0f64,
        |acc, x| *acc += x,
        |acc, other| *acc += other,
    );
    assert_eq!(sum, 42.0);
}

#[test]
fn try_par_map_propagates_injected_nonfinite_error_intact() {
    let items: Vec<f64> = vec![1.0, 2.0, f64::NAN, 4.0, f64::NAN, 6.0];
    for t in THREAD_COUNTS {
        let result = try_par_map(ParConfig::with_threads(t), &items, |&x| {
            if x.is_finite() {
                Ok(x * 2.0)
            } else {
                Err(NumericsError::NonFinite {
                    context: format!("injected at value {x}"),
                })
            }
        });
        // The lowest-index error (index 2) wins at every thread count,
        // and the typed error crosses the pool intact.
        match result {
            Err(NumericsError::NonFinite { context }) => {
                assert!(context.contains("injected"), "t={t}: {context}");
            }
            other => panic!("t={t}: expected NonFinite, got {other:?}"),
        }
    }
}

#[test]
fn try_par_map_ok_path_preserves_order() {
    let items: Vec<usize> = (0..64).collect();
    let out: Result<Vec<usize>, NumericsError> =
        try_par_map(ParConfig::with_threads(4), &items, |&x| Ok(x + 1));
    assert_eq!(out.unwrap(), (1..=64).collect::<Vec<_>>());
}

#[test]
fn worker_panic_is_rethrown_and_pool_is_reusable() {
    let items: Vec<usize> = (0..40).collect();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        par_map(ParConfig::with_threads(4), &items, |&x| {
            assert!(x != 13, "boom at {x}");
            x
        })
    }));
    let payload = caught.expect_err("panic must propagate to the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("boom at 13"), "lowest-index payload: {msg}");
    // No poisoned state: the next region on the same thread works.
    let out = par_map(ParConfig::with_threads(4), &items, |&x| x);
    assert_eq!(out, items);
}

#[test]
fn nested_regions_degrade_to_serial() {
    let items: Vec<usize> = (0..8).collect();
    assert!(!in_parallel_region());
    let out = par_map(ParConfig::with_threads(4), &items, |&x| {
        assert!(in_parallel_region(), "worker must be marked in-pool");
        // A nested region must not spawn another pool; it still computes
        // the right answer serially.
        let inner: Vec<usize> = par_map(ParConfig::with_threads(4), &items, |&y| y + x);
        inner.iter().sum::<usize>()
    });
    let base: usize = items.iter().sum();
    let expect: Vec<usize> = items.iter().map(|&x| base + 8 * x).collect();
    assert_eq!(out, expect);
    assert!(!in_parallel_region(), "flag restored after the region");
}

#[test]
fn serial_config_runs_on_the_caller_thread() {
    let caller = std::thread::current().id();
    let items = [1, 2, 3];
    par_map(ParConfig::serial(), &items, |_| {
        assert_eq!(std::thread::current().id(), caller);
    });
}

/// The one test allowed to touch process-global thread configuration:
/// override precedence and clearing. Other tests pass explicit configs.
#[test]
fn global_override_takes_precedence_and_clears() {
    set_global_threads(3);
    assert_eq!(ParConfig::current().threads, 3);
    set_global_threads(0);
    // Back to env/auto: just assert it is sane, the actual value depends
    // on STCO_THREADS and the machine.
    assert!(ParConfig::current().threads >= 1);
    assert!(ParConfig::with_threads(0).threads == 1);
}
