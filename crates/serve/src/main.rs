//! `stco-serve`: serve surrogate models from an artifact registry over
//! TCP.
//!
//! ```text
//! stco-serve [--bind ADDR] [--shards N] [--io-threads N]
//!            [--load KIND:HEXKEY]...
//! ```
//!
//! * `--bind` — listen address, default `127.0.0.1:7878` (use `:0` for
//!   an ephemeral port; the bound address is printed).
//! * `--shards` — worker shards (default: `$STCO_SHARDS` or 1).
//! * `--io-threads` — multiplexer I/O event threads (default: auto
//!   from the core count).
//! * `--load` — pre-load an artifact from the registry at startup
//!   (clients can also load lazily with the `load` op).
//!
//! The registry directory comes from `$STCO_STORE_DIR` (default
//! `.stco-store`). The server runs until a client sends `shutdown` or
//! the process is killed.

use stco_serve::service::{BatchConfig, ModelService};
use stco_serve::TcpServer;
use stco_store::{ArtifactKey, Registry};

fn main() {
    let mut bind = "127.0.0.1:7878".to_string();
    let mut preload: Vec<(String, ArtifactKey)> = Vec::new();
    let mut batch = BatchConfig::default();
    let mut io_threads = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bind" => {
                bind = args.next().expect("--bind needs an address");
            }
            "--shards" => {
                let n = args.next().expect("--shards needs a count");
                batch.shards = n.parse().expect("--shards must be a positive integer");
                assert!(batch.shards > 0, "--shards must be a positive integer");
            }
            "--io-threads" => {
                let n = args.next().expect("--io-threads needs a count");
                io_threads = n.parse().expect("--io-threads must be a positive integer");
                assert!(io_threads > 0, "--io-threads must be a positive integer");
            }
            "--load" => {
                let spec = args.next().expect("--load needs KIND:HEXKEY");
                let (kind, hex) = spec
                    .rsplit_once(':')
                    .expect("--load spec must be KIND:HEXKEY");
                let key = u64::from_str_radix(hex, 16).expect("HEXKEY must be hex");
                preload.push((kind.to_string(), ArtifactKey::from_value(key)));
            }
            "--help" | "-h" => {
                println!(
                    "usage: stco-serve [--bind ADDR] [--shards N] [--io-threads N] \
                     [--load KIND:HEXKEY]..."
                );
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let registry = Registry::open_default().expect("open artifact registry");
    println!("registry: {}", registry.dir().display());
    let service = ModelService::start(Some(registry), batch);
    println!("shards: {}", service.shard_count());
    for (kind, key) in &preload {
        let id = service.load(kind, *key).expect("preload artifact");
        println!("loaded {id} (shard {})", service.shard_for(&id));
    }
    let server = TcpServer::start_with(&bind, service, io_threads).expect("bind server");
    println!("listening on {}", server.addr());
    server.wait();
    println!("server stopped");
}
