//! Closed-loop latency-curve load generator for `stco-serve`.
//!
//! ```text
//! stco_loadgen                              # self-host a demo server and sweep it
//! stco_loadgen --addr HOST:PORT MODEL_ID   # sweep an already-running server
//! stco_loadgen --steps 8,16,32 --requests 64 --warmup 8
//! stco_loadgen --max-conns 128             # truncate the sweep at 128 connections
//! ```
//!
//! Each step runs `--requests` measured predictions *per connection*
//! (after `--warmup` discarded warmup predictions per connection, so
//! every step measures steady state rather than connection-setup
//! transients) through N closed-loop workers — own TCP connection
//! each — and prints offered vs achieved throughput with exact
//! client-side p50/p99 plus the typed-shed count, next to the server's
//! p99 over the step's own requests and how many it timed (the
//! `serve.latency_seconds` buckets read over the `metrics` op before
//! and after the step).
//!
//! Self-hosted runs honour `STCO_THREADS` for the forward pool and
//! `STCO_SHARDS` for the worker-shard count, like the server binary.

use stco_bench::load_curve::{run_load_curve, LoadCurveConfig};
use stco_par::ParConfig;
use stco_serve::demo::{demo_graph, demo_key, train_demo_model, DEMO_CELLS};
use stco_serve::service::{BatchConfig, ModelService, PredictInput};
use stco_serve::{Client, TcpServer};
use stco_store::Registry;
use stco_surrogate::cell_model::{CellModel, METRICS};

const DEFAULT_STEPS: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];
const DEFAULT_REQUESTS_PER_CONN: usize = 32;
const DEFAULT_WARMUP_PER_CONN: usize = 8;

struct Args {
    addr: Option<String>,
    model: Option<String>,
    steps: Vec<usize>,
    requests_per_conn: usize,
    warmup_per_conn: usize,
    max_conns: Option<usize>,
    deadline_ms: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        model: None,
        steps: DEFAULT_STEPS.to_vec(),
        requests_per_conn: DEFAULT_REQUESTS_PER_CONN,
        warmup_per_conn: DEFAULT_WARMUP_PER_CONN,
        max_conns: None,
        deadline_ms: 10_000,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = || -> ! {
        eprintln!(
            "usage: stco_loadgen [--addr HOST:PORT MODEL_ID] [--steps N,N,...] \
             [--requests PER_CONN] [--warmup PER_CONN] [--max-conns N] \
             [--deadline-ms MS]"
        );
        std::process::exit(2);
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => {
                if i + 2 >= argv.len() {
                    usage();
                }
                args.addr = Some(argv[i + 1].clone());
                args.model = Some(argv[i + 2].clone());
                i += 3;
            }
            "--steps" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let parsed: Option<Vec<usize>> = argv[i + 1]
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().ok().filter(|&n| n > 0))
                    .collect();
                match parsed {
                    Some(steps) if !steps.is_empty() => args.steps = steps,
                    _ => usage(),
                }
                i += 2;
            }
            "--requests" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                match argv[i + 1].parse::<usize>() {
                    Ok(n) if n > 0 => args.requests_per_conn = n,
                    _ => usage(),
                }
                i += 2;
            }
            "--warmup" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                match argv[i + 1].parse::<usize>() {
                    Ok(n) => args.warmup_per_conn = n,
                    Err(_) => usage(),
                }
                i += 2;
            }
            "--max-conns" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                match argv[i + 1].parse::<usize>() {
                    Ok(n) if n > 0 => args.max_conns = Some(n),
                    _ => usage(),
                }
                i += 2;
            }
            "--deadline-ms" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                match argv[i + 1].parse::<u64>() {
                    Ok(ms) => args.deadline_ms = ms,
                    Err(_) => usage(),
                }
                i += 2;
            }
            _ => usage(),
        }
    }
    args
}

fn demo_inputs() -> Vec<PredictInput> {
    let all: Vec<usize> = (0..METRICS.len()).collect();
    DEMO_CELLS
        .iter()
        .map(|&kind| PredictInput::Cell {
            graph: demo_graph(kind),
            metrics: all.clone(),
        })
        .collect()
}

fn main() {
    let mut args = parse_args();
    if let Some(cap) = args.max_conns {
        args.steps.retain(|&c| c <= cap);
        if args.steps.is_empty() {
            eprintln!("--max-conns {cap} leaves no sweep steps");
            std::process::exit(2);
        }
    }

    // Self-host a demo server unless --addr points at a live one. The
    // server (and its scratch registry) lives for the whole sweep.
    let hosted = if args.addr.is_none() {
        let dir = std::env::temp_dir().join(format!("stco-loadgen-{}", std::process::id()));
        let registry = Registry::open(&dir).expect("open registry");
        let key = demo_key();
        let model = train_demo_model().expect("train demo model");
        registry.put(key, &model.to_artifact()).expect("export");
        let service = ModelService::start(Some(registry), BatchConfig::default());
        let server = TcpServer::start("127.0.0.1:0", service).expect("bind server");
        let addr = server.addr().to_string();
        let mut admin = Client::connect(&addr).expect("connect");
        let id = admin.load(CellModel::ARTIFACT_KIND, key).expect("load");
        println!(
            "self-hosting {id} on {addr} (STCO_THREADS={})",
            ParConfig::current().threads
        );
        Some((server, dir, addr, id))
    } else {
        None
    };
    let (addr, model_id) = match (&hosted, &args.addr, &args.model) {
        (Some((_, _, addr, id)), _, _) => (addr.clone(), id.clone()),
        (None, Some(addr), Some(model)) => (addr.clone(), model.clone()),
        _ => unreachable!("--addr always carries a model id"),
    };

    let sweep = LoadCurveConfig {
        addr,
        model: model_id,
        inputs: demo_inputs(),
        steps: args.steps.clone(),
        requests_per_conn: args.requests_per_conn,
        warmup_per_conn: args.warmup_per_conn,
        deadline_ms: Some(args.deadline_ms).filter(|&ms| ms > 0),
    };
    let steps = run_load_curve(&sweep).expect("load sweep");

    println!(
        "{:>11} {:>8} {:>7} {:>6} {:>12} {:>12} {:>11} {:>11} {:>14} {:>9}",
        "concurrency",
        "ok",
        "errors",
        "shed",
        "offered r/s",
        "achieved r/s",
        "p50 ms",
        "p99 ms",
        "server p99 ms",
        "server n"
    );
    for step in &steps {
        println!(
            "{:>11} {:>8} {:>7} {:>6} {:>12.0} {:>12.0} {:>11.3} {:>11.3} {:>14} {:>9}",
            step.concurrency,
            step.ok,
            step.errors,
            step.shed,
            step.offered_rps,
            step.achieved_rps,
            step.client_p50_seconds * 1e3,
            step.client_p99_seconds * 1e3,
            step.server_p99_seconds
                .map_or("n/a".to_string(), |p| format!("{:.3}", p * 1e3)),
            step.server_count,
        );
    }

    if let Some((server, dir, addr, _)) = hosted {
        let mut admin = Client::connect(&addr).expect("connect");
        admin.shutdown().expect("shutdown");
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
