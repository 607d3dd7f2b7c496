//! Sharded-service guarantees: consistent-hash routing, per-shard
//! graceful drain (in-flight work completes, new work typed-rejected),
//! the shedding watermarks, and the drain/resume ops over the wire.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use stco_cells::library::CellKind;
use stco_serve::demo::{demo_graph, train_demo_model};
use stco_serve::service::{BatchConfig, ModelService, PredictInput};
use stco_serve::{Client, ServeError, TcpServer};
use stco_surrogate::cell_model::{CellModel, METRICS};

fn demo_loaded() -> CellModel {
    let model = train_demo_model().expect("train demo model");
    CellModel::from_artifact(&model.to_artifact()).expect("rehydrate")
}

fn demo_input() -> PredictInput {
    PredictInput::Cell {
        graph: demo_graph(CellKind::Inv),
        metrics: (0..METRICS.len()).collect(),
    }
}

/// Installs aliases of the demo model until `shard` owns at least one,
/// returning an id routed to that shard.
fn id_on_shard(service: &ModelService, shard: usize) -> String {
    for i in 0..4096 {
        let id = format!("cell-model:alias{i}");
        if service.shard_for(&id) == shard {
            service.install(&id, demo_loaded());
            return id;
        }
    }
    panic!("no alias landed on shard {shard} in 4096 tries");
}

#[test]
fn routing_is_stable_and_spreads_across_shards() {
    let service = ModelService::start(
        None,
        BatchConfig {
            shards: 3,
            ..BatchConfig::default()
        },
    );
    assert_eq!(service.shard_count(), 3);

    let ids: Vec<String> = (0..64).map(|i| format!("cell-model:{i:016x}")).collect();
    let homes: Vec<usize> = ids.iter().map(|id| service.shard_for(id)).collect();
    // Stable: the same id maps to the same shard every time.
    for (id, &home) in ids.iter().zip(&homes) {
        assert!(home < 3);
        assert_eq!(service.shard_for(id), home, "routing must be deterministic");
    }
    // Spread: 64 ids over 3 shards must hit more than one shard.
    let distinct: std::collections::BTreeSet<usize> = homes.iter().copied().collect();
    assert!(
        distinct.len() >= 2,
        "consistent hashing must spread models: {homes:?}"
    );
    service.shutdown();
}

#[test]
fn single_shard_routes_everything_to_zero() {
    let service = ModelService::start(
        None,
        BatchConfig {
            shards: 1,
            ..BatchConfig::default()
        },
    );
    for i in 0..16 {
        assert_eq!(service.shard_for(&format!("cell-model:{i}")), 0);
    }
    service.shutdown();
}

/// Ring placement is part of the deployment contract: a change to the
/// hash or the vnode layout would silently re-home every cached model.
#[test]
fn routing_is_pinned_for_known_ids() {
    let service = ModelService::start(
        None,
        BatchConfig {
            shards: 4,
            ..BatchConfig::default()
        },
    );
    for (id, home) in [
        ("cell-model:0000000000000000", 2),
        ("cell-model:9e3779b97f4a7c15", 3),
        ("cell-model:3c6ef372fe94f82a", 0),
        ("cell-model:78dde6e5fd29f054", 1),
    ] {
        assert_eq!(service.shard_for(id), home, "{id}");
    }
    service.shutdown();
}

#[test]
fn drain_completes_inflight_work_and_rejects_new_submits() {
    let service = ModelService::start(
        None,
        BatchConfig {
            shards: 2,
            max_batch: 4,
            max_linger: Duration::from_millis(1),
            ..BatchConfig::default()
        },
    );
    let target = 1usize;
    let id = id_on_shard(&service, target);

    // Queue a burst asynchronously, then drain: every queued request
    // must still be answered (drain refuses new work, not accepted work).
    let answered = Arc::new(AtomicUsize::new(0));
    let failed = Arc::new(AtomicUsize::new(0));
    for _ in 0..12 {
        let answered = Arc::clone(&answered);
        let failed = Arc::clone(&failed);
        service.submit_async(
            &id,
            demo_input(),
            Some(Duration::from_secs(10)),
            Box::new(move |outcome| {
                match outcome {
                    Ok(_) => answered.fetch_add(1, Ordering::SeqCst),
                    Err(_) => failed.fetch_add(1, Ordering::SeqCst),
                };
            }),
        );
    }
    service.drain_shard(target).expect("drain");
    assert_eq!(
        answered.load(Ordering::SeqCst),
        12,
        "drain must answer all accepted requests ({} failed)",
        failed.load(Ordering::SeqCst)
    );
    assert_eq!(service.shard_queue_depths()[target], 0);

    // New work on the drained shard gets the typed rejection...
    match service.submit(&id, demo_input(), None) {
        Err(ServeError::Draining { shard }) => assert_eq!(shard, target),
        other => panic!("drained shard must reject with Draining, got {other:?}"),
    }
    // ...while other shards keep serving.
    let other_id = id_on_shard(&service, 0);
    service
        .submit(&other_id, demo_input(), None)
        .expect("undrained shard keeps serving");

    // Resume reopens the shard.
    service.resume_shard(target).expect("resume");
    service
        .submit(&id, demo_input(), None)
        .expect("resumed shard serves again");
    service.shutdown();
}

#[test]
fn shedding_watermarks_reject_with_overloaded_and_count_sheds() {
    // Tiny watermarks + a long linger so the queue backs up: the worker
    // waits for a full batch of 64 while we stuff the queue past
    // shed_high = 4.
    let service = ModelService::start(
        None,
        BatchConfig {
            shards: 1,
            max_batch: 64,
            max_linger: Duration::from_secs(5),
            max_pending: 1024,
            shed_high: 4,
            shed_low: 2,
            ..BatchConfig::default()
        },
    );
    let id = "cell-model:shed".to_string();
    service.install(&id, demo_loaded());

    let shed_before = stco_obs::Recorder::global()
        .metrics()
        .counter("serve.shed_total")
        .get();

    type Outcomes = Arc<Mutex<Vec<Result<Vec<f64>, ServeError>>>>;
    let outcomes: Outcomes = Arc::new(Mutex::new(Vec::new()));
    let mut saw_overloaded = false;
    for _ in 0..32 {
        let sink = Arc::clone(&outcomes);
        service.submit_async(
            &id,
            demo_input(),
            Some(Duration::from_secs(10)),
            Box::new(move |outcome| {
                sink.lock().unwrap_or_else(|e| e.into_inner()).push(outcome);
            }),
        );
        // Rejections are delivered inline, so we can watch them appear
        // while stuffing.
        let snapshot = outcomes.lock().unwrap_or_else(|e| e.into_inner());
        if snapshot
            .iter()
            .any(|o| matches!(o, Err(ServeError::Overloaded { .. })))
        {
            saw_overloaded = true;
        }
    }
    assert!(
        saw_overloaded,
        "stuffing 32 requests past shed_high=4 must trip the shedder"
    );
    let shed_after = stco_obs::Recorder::global()
        .metrics()
        .counter("serve.shed_total")
        .get();
    assert!(
        shed_after > shed_before,
        "serve.shed_total must count sheds ({shed_before} -> {shed_after})"
    );

    // Shutdown answers everything that was accepted.
    service.shutdown();
    let outcomes = outcomes.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(outcomes.len(), 32, "every submit must be answered");
}

#[test]
fn drain_and_resume_roundtrip_over_the_wire() {
    let service = ModelService::start(
        None,
        BatchConfig {
            shards: 2,
            ..BatchConfig::default()
        },
    );
    let target = 1usize;
    let id = id_on_shard(&service, target);
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    client.drain(target).expect("drain over the wire");

    // A predict routed to the drained shard gets the typed code.
    match client.predict(&id, &demo_input(), Some(5_000)) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, "draining"),
        other => panic!("drained shard must answer 'draining' over TCP, got {other:?}"),
    }
    // Out-of-range shard indexes are typed errors, not hangups.
    assert!(client.drain(7).is_err(), "shard 7 does not exist");

    client.resume(target).expect("resume over the wire");
    client
        .predict(&id, &demo_input(), Some(5_000))
        .expect("resumed shard serves over TCP");

    // Stats reflect the shard topology.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.shard_queue_depths.len(), 2);

    client.shutdown().expect("shutdown");
    server.wait();
}
