//! Distributed sweep over serve's `ext` wire op: a [`SweepQueue`]
//! attached to a live server as the `sweep` extension, drained by
//! concurrent remote workers, must reproduce the local engine's Pareto
//! front bitwise.

use std::sync::Arc;

use stco_serve::{BatchConfig, Client, ModelService, TcpServer};
use stco_store::Registry;
use stco_sweep::{
    front_fingerprint, pareto_front, run_remote_worker, sweep_complete, sweep_lease, sweep_status,
    Result, SweepEngine, SweepQueue, SweepSpec, SyntheticEval,
};

/// A fresh registry and its directory, for the test to remove.
fn temp_registry(tag: &str) -> (Registry, std::path::PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("stco-sweep-remote-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (Registry::open(&dir).expect("temp registry"), dir)
}

fn spec() -> SweepSpec {
    let mut spec = SweepSpec::demo();
    spec.technologies.truncate(2);
    spec.benchmarks.truncate(1);
    spec.levels = 3; // 2 × 1 × 27 = 54 scenarios
    spec
}

#[test]
fn remote_workers_reproduce_the_local_front_bitwise() -> Result<()> {
    let spec = spec();

    // Local reference run.
    let (local_registry, local_dir) = temp_registry("local");
    let local = SweepEngine::new(&spec, local_registry)?.run_sweep(&SyntheticEval, None)?;
    let _ = std::fs::remove_dir_all(&local_dir);
    let local_front = front_fingerprint(&pareto_front(&local.records));

    // Server side: a sweep queue attached to a live TCP server.
    let service = ModelService::start(None, BatchConfig::default());
    let (server_registry, server_dir) = temp_registry("server");
    let (queue, resumed) = SweepQueue::open(&spec, server_registry)?;
    assert_eq!(resumed, 0);
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("server");
    server.attach("sweep", queue.clone());
    let addr = server.addr().to_string();

    // Two concurrent workers drain the queue.
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let addr = addr.clone();
            let spec = spec.clone();
            std::thread::spawn(move || {
                run_remote_worker(&addr, &spec, &SyntheticEval, &format!("w{w}"), 4)
            })
        })
        .collect();
    let mut completed = 0;
    for worker in workers {
        completed += worker.join().expect("worker thread")?;
    }
    assert_eq!(completed, spec.scenario_count());
    assert!(queue.is_complete());

    // Wire-level status agrees.
    let mut client = Client::connect(&addr).expect("client");
    let status = sweep_status(&mut client).expect("status");
    assert_eq!(status.total, spec.scenario_count());
    assert_eq!(status.completed, spec.scenario_count());
    assert_eq!(status.pending, 0);
    assert_eq!(status.leased, 0);

    // An idle worker leases nothing.
    assert!(sweep_lease(&mut client, "late", 4)
        .expect("lease")
        .is_empty());

    // The server-journaled records render the same front, bitwise.
    let remote_front = front_fingerprint(&pareto_front(&queue.records()?));
    assert_eq!(remote_front, local_front);

    server.stop();
    service.shutdown();
    drop((server, queue));
    let _ = std::fs::remove_dir_all(&server_dir);
    Ok(())
}

#[test]
fn sweep_op_without_a_queue_is_a_typed_reject() {
    let service = ModelService::start(None, BatchConfig::default());
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("server");
    let mut client = Client::connect(&server.addr().to_string()).expect("client");
    let err = sweep_status(&mut client).expect_err("no queue attached");
    match err {
        stco_serve::ServeError::Remote { code, .. } => assert_eq!(code, "bad-input"),
        other => panic!("expected a remote bad-input error, got {other:?}"),
    }
    server.stop();
    service.shutdown();
}

#[test]
fn completion_survives_a_server_side_restart() -> Result<()> {
    // Complete part of the sweep remotely, restart the queue over the
    // same journal, and check the remainder picks up where it left off.
    let spec = spec();
    let dir = std::env::temp_dir().join(format!(
        "stco-sweep-remote-it-restart-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || Registry::open(&dir).expect("registry");

    let service = ModelService::start(None, BatchConfig::default());
    let (queue, _) = SweepQueue::open(&spec, open())?;
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("server");
    server.attach("sweep", queue.clone());
    let addr = server.addr().to_string();

    // One worker completes a handful of leases, then "dies".
    let mut client = Client::connect(&addr).expect("client");
    let leased = sweep_lease(&mut client, "w0", 10).expect("lease");
    assert_eq!(leased.len(), 10);
    let scenarios = queue.scenarios().to_vec();
    for lease in &leased[..6] {
        let result = stco_sweep::synthetic_result(
            scenarios[lease.index].technology,
            scenarios[lease.index].benchmark,
            scenarios[lease.index].corner,
        );
        assert!(sweep_complete(&mut client, &lease.id, &result.to_values()).expect("complete"));
    }
    server.stop();
    service.shutdown();

    // Server restart: the journal carries the 6 completions; the 4
    // orphaned leases are simply pending again.
    let (reopened, resumed) = SweepQueue::open(&spec, open())?;
    assert_eq!(resumed, 6);
    let status = reopened.status();
    assert_eq!(status.completed, 6);
    assert_eq!(status.pending, spec.scenario_count() - 6);
    assert_eq!(status.leased, 0);
    drop((server, queue, reopened));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
