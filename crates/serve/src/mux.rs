//! The std-only TCP front end: a readiness-loop connection multiplexer.
//!
//! [`TcpServer`] runs a **small fixed pool of I/O event threads**
//! instead of one thread per connection. One blocking acceptor hands
//! each new socket — switched to nonblocking mode — to an I/O thread
//! round-robin; each I/O thread owns its connections outright and
//! sweeps them in a readiness loop:
//!
//! 1. **adopt** sockets the acceptor queued for it;
//! 2. **read** whatever bytes each socket has (up to a per-sweep cap),
//!    feeding them through the connection's [`FrameDecoder`] state
//!    machine — frames may arrive split at any byte boundary;
//! 3. **dispatch** each completed frame: cheap ops (ping, stats,
//!    metrics, load, resume, ext) answer inline on the I/O thread; `predict`
//!    goes to the sharded [`ModelService`] via
//!    [`ModelService::submit_async`] so a slow forward pass never parks
//!    the event loop; `drain` blocks until quiescence, so it runs on a
//!    short-lived helper thread;
//! 4. **write** queued reply frames back, tolerating partial writes.
//!
//! Replies are sequenced: every frame gets a per-connection sequence
//! number at dispatch, completions land in an ordered ready-map, and
//! the write pump emits them strictly in request order — pipelined
//! clients see replies in the order they asked.
//!
//! There is no OS readiness facility in std, so the loop *polls*: a
//! sweep that makes no progress parks the thread on its
//! `Waker` (a condvar) for `POLL_INTERVAL` (200 µs), escalating
//! to a longer nap when the pool has been idle a while. Completions
//! and the acceptor wake it early, so reply latency does not eat the
//! poll interval.
//!
//! Malformed frames get a typed error reply (`code: "malformed-frame"`);
//! the connection stays usable while the stream is still frame-aligned
//! and closes (after the reply) when a corrupt length prefix desyncs
//! it.
//!
//! Named [`Extension`]s attached with [`TcpServer::attach`] answer the
//! `ext` op, so a crate layered on serve (the distributed sweep queue in
//! `stco-sweep`) can speak its own protocol over this front end without
//! serve knowing its types.
//!
//! Shutdown (a wire `shutdown` or [`TcpServer::stop`]): the stop flag
//! halts reads; connections flush their pending replies, close once no
//! requests are outstanding (with a force-close grace for clients that
//! stopped reading), and the pool exits. The service then drains so
//! every accepted request was answered.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use stco_obs::json::JsonValue;

use crate::protocol::{encode_frame, FrameDecoder, Reply, Request, ServerStats};
use crate::service::ModelService;
use crate::{Result, ServeError};

/// A named handler for the `ext` wire op: takes the request's opaque
/// JSON body and returns the reply body. Handlers run inline on an I/O
/// event thread, so they must be quick (in-memory bookkeeping, or one
/// small atomic write — the `load` op's budget).
pub trait Extension: Send + Sync {
    /// Answers one `ext` call.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; it crosses the wire as its typed code
    /// (`malformed-frame` for [`ServeError::Protocol`], and so on).
    fn call(&self, body: &JsonValue) -> Result<JsonValue>;
}

/// Connection cap; sockets beyond it are dropped at accept (and counted
/// in `serve.conn_rejected_total`).
const MAX_CONNS: usize = 4096;

/// How long an idle I/O thread parks between readiness sweeps.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Resolves an I/O thread count: `0` picks `available_parallelism / 4`,
/// clamped to `1..=4` — event threads only shuffle bytes; the stco-par
/// pool does the math.
fn resolved_io_threads(io_threads: usize) -> usize {
    if io_threads > 0 {
        return io_threads.min(64);
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (cores / 4).clamp(1, 4)
}

/// Grace between the stop request and force-closing connections that
/// still hold unflushed replies (a client that stopped reading).
const STOP_GRACE: Duration = Duration::from_secs(1);

/// Per-sweep read budget per connection: at most this many `read`
/// calls, so one firehose connection cannot starve its siblings.
const READS_PER_SWEEP: usize = 4;

/// Per-connection cap on dispatched-but-unanswered requests; reads
/// pause above it (pipelining backpressure).
const MAX_OUTSTANDING: usize = 1024;

/// Idle sweeps before the park timeout escalates from
/// [`POLL_INTERVAL`] to the long nap.
const IDLE_ESCALATE_SWEEPS: u32 = 64;

const LONG_NAP: Duration = Duration::from_millis(5);

/// `Mutex::lock` that recovers the guard from a poisoned lock.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Condvar-based wakeup latch: completions and the acceptor `wake` an
/// I/O thread out of its park early.
struct Waker {
    flag: Mutex<bool>,
    cond: Condvar,
}

impl Waker {
    fn new() -> Waker {
        Waker {
            flag: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    fn wake(&self) {
        let mut flag = lock_ignore_poison(&self.flag);
        *flag = true;
        drop(flag);
        self.cond.notify_all();
    }

    fn wait(&self, timeout: Duration) {
        let mut flag = lock_ignore_poison(&self.flag);
        if !*flag {
            let (next, _timed_out) = self
                .cond
                .wait_timeout(flag, timeout)
                .unwrap_or_else(|e| e.into_inner());
            flag = next;
        }
        *flag = false;
    }
}

/// Acceptor → I/O-thread handoff slot.
struct IoThread {
    incoming: Mutex<Vec<TcpStream>>,
    waker: Arc<Waker>,
}

struct MuxShared {
    service: Arc<ModelService>,
    addr: std::net::SocketAddr,
    extensions: Mutex<BTreeMap<String, Arc<dyn Extension>>>,
    stop: AtomicBool,
    stop_at: Mutex<Option<Instant>>,
    conn_count: AtomicUsize,
    io: Vec<IoThread>,
}

/// Reply frames queued for one connection, keyed by request sequence.
struct OutBuf {
    /// Sequence number the wire buffer emits next.
    next_emit: u64,
    /// Encoded frames whose turn has not come yet.
    ready: BTreeMap<u64, Vec<u8>>,
    /// Bytes promoted for the socket, partially written.
    wire: Vec<u8>,
    written: usize,
}

/// The slice of connection state completion callbacks touch: the
/// ordered out-buffer and the outstanding-request count. Shared between
/// the owning I/O thread and in-flight completions via `Arc`.
struct ConnShared {
    out: Mutex<OutBuf>,
    outstanding: AtomicUsize,
}

/// Queues one reply frame at its sequence slot. An oversized reply
/// degrades to its own (small) error reply rather than desyncing the
/// stream.
fn push_ready(cs: &ConnShared, seq: u64, reply: &Reply) {
    let frame = encode_frame(&reply.to_json())
        .or_else(|e| encode_frame(&Reply::from_error(&e).to_json()))
        .unwrap_or_default();
    let mut out = lock_ignore_poison(&cs.out);
    out.ready.insert(seq, frame);
}

/// One multiplexed connection (owned by exactly one I/O thread).
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_seq: u64,
    shared: Arc<ConnShared>,
    /// Peer sent EOF — no more requests, close once answered.
    read_closed: bool,
    /// Stop reading and close once flushed (shutdown reply sent, or the
    /// stream desynchronized).
    close_after: bool,
    /// Remove from the sweep set (socket dead or fully closed).
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            next_seq: 0,
            shared: Arc::new(ConnShared {
                out: Mutex::new(OutBuf {
                    next_emit: 0,
                    ready: BTreeMap::new(),
                    wire: Vec::new(),
                    written: 0,
                }),
                outstanding: AtomicUsize::new(0),
            }),
            read_closed: false,
            close_after: false,
            dead: false,
        }
    }
}

/// A running TCP server: acceptor + I/O thread pool over one
/// [`ModelService`].
pub struct TcpServer {
    shared: Arc<MuxShared>,
    acceptor: Mutex<Option<std::thread::JoinHandle<()>>>,
    io_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TcpServer {
    /// Binds `bind` (use port 0 for an ephemeral port) and starts
    /// serving `service` with an automatic I/O thread count.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the bind or thread spawns fail.
    pub fn start(bind: &str, service: Arc<ModelService>) -> Result<Arc<TcpServer>> {
        Self::start_with(bind, service, 0)
    }

    /// [`TcpServer::start`] with `io_threads` I/O event threads (`0`
    /// picks `available_parallelism / 4`, clamped to `1..=4`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the bind or thread spawns fail.
    pub fn start_with(
        bind: &str,
        service: Arc<ModelService>,
        io_threads: usize,
    ) -> Result<Arc<TcpServer>> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let io_threads = resolved_io_threads(io_threads);
        let io = (0..io_threads)
            .map(|_| IoThread {
                incoming: Mutex::new(Vec::new()),
                waker: Arc::new(Waker::new()),
            })
            .collect();
        let mux = Arc::new(TcpServer {
            shared: Arc::new(MuxShared {
                service,
                addr,
                extensions: Mutex::new(BTreeMap::new()),
                stop: AtomicBool::new(false),
                stop_at: Mutex::new(None),
                conn_count: AtomicUsize::new(0),
                io,
            }),
            acceptor: Mutex::new(None),
            io_handles: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(io_threads);
        for idx in 0..io_threads {
            let io_mux = Arc::clone(&mux);
            let handle = std::thread::Builder::new()
                .name(format!("stco-serve-io{idx}"))
                .spawn(move || io_loop(&io_mux, idx))
                .map_err(ServeError::Io)?;
            handles.push(handle);
        }
        *lock_ignore_poison(&mux.io_handles) = handles;
        let accept_mux = Arc::clone(&mux);
        let acceptor = std::thread::Builder::new()
            .name("stco-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_mux))
            .map_err(ServeError::Io)?;
        *lock_ignore_poison(&mux.acceptor) = Some(acceptor);
        stco_obs::event!(
            "serve.listening",
            addr = addr.to_string(),
            io_threads = io_threads,
            shards = mux.shared.service.shard_count()
        );
        Ok(mux)
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.shared.addr
    }

    /// Attaches `extension` under `name`: subsequent `ext` requests
    /// naming it route to its [`Extension::call`]. Re-attaching a name
    /// replaces the previous handler.
    pub fn attach(&self, name: &str, extension: Arc<dyn Extension>) {
        lock_ignore_poison(&self.shared.extensions).insert(name.to_string(), extension);
    }

    /// Blocks until the server stops (via [`TcpServer::stop`] or a wire
    /// `shutdown`). Safe to call from the main thread of a server
    /// binary.
    pub fn wait(&self) {
        self.join_acceptor();
        self.join_io();
    }

    fn join_acceptor(&self) {
        let acceptor = lock_ignore_poison(&self.acceptor).take();
        if let Some(handle) = acceptor {
            let _ = handle.join();
        }
    }

    fn join_io(&self) {
        let handles = std::mem::take(&mut *lock_ignore_poison(&self.io_handles));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Stops the server: no new connections or reads, pending replies
    /// flush, the service drains (every accepted request is answered),
    /// threads join. Idempotent; returns once the front end has wound
    /// down.
    pub fn stop(&self) {
        let first = !self.shared.stop.swap(true, Ordering::SeqCst);
        if first {
            *lock_ignore_poison(&self.shared.stop_at) = Some(Instant::now());
            // Unblock the blocking accept() with a throwaway connection.
            if let Ok(conn) = TcpStream::connect(self.shared.addr) {
                drop(conn);
            }
            for io in &self.shared.io {
                io.waker.wake();
            }
        }
        self.join_acceptor();
        // Drain the shard queues: fires every pending completion into
        // the connection out-buffers before the I/O pool winds down.
        self.shared.service.shutdown();
        for io in &self.shared.io {
            io.waker.wake();
        }
        self.join_io();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, mux: &Arc<TcpServer>) {
    let shared = &mux.shared;
    let rejected = stco_obs::Recorder::global()
        .metrics()
        .counter("serve.conn_rejected_total");
    let mut next_io = 0usize;
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.conn_count.load(Ordering::SeqCst) >= MAX_CONNS {
            rejected.inc();
            continue;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        shared.conn_count.fetch_add(1, Ordering::SeqCst);
        let slot = &shared.io[next_io];
        next_io = (next_io + 1) % shared.io.len();
        {
            let mut incoming = lock_ignore_poison(&slot.incoming);
            incoming.push(stream);
        }
        slot.waker.wake();
    }
}

/// One I/O event thread: sweeps its connections until stopped.
fn io_loop(mux: &Arc<TcpServer>, io_idx: usize) {
    let _span = stco_obs::span!("serve.io_loop", io_thread = io_idx);
    let shared = &mux.shared;
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut idle_sweeps = 0u32;
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        let force_close = stopping && {
            let at = lock_ignore_poison(&shared.stop_at);
            at.is_some_and(|t| t.elapsed() > STOP_GRACE)
        };
        let adopted: Vec<TcpStream> = {
            let mut incoming = lock_ignore_poison(&shared.io[io_idx].incoming);
            incoming.drain(..).collect()
        };
        let mut progressed = !adopted.is_empty();
        for stream in adopted {
            if stopping {
                shared.conn_count.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            conns.push(Conn::new(stream));
        }
        for conn in &mut conns {
            progressed |= sweep_conn(mux, io_idx, conn, &mut scratch, stopping, force_close);
        }
        let before = conns.len();
        conns.retain(|c| !c.dead);
        if conns.len() < before {
            shared
                .conn_count
                .fetch_sub(before - conns.len(), Ordering::SeqCst);
            progressed = true;
        }
        if stopping && conns.is_empty() {
            return;
        }
        if progressed {
            idle_sweeps = 0;
            continue;
        }
        idle_sweeps = idle_sweeps.saturating_add(1);
        if idle_sweeps <= 3 {
            // A reply is often one forward pass away; spin briefly
            // before paying a park/unpark.
            std::thread::yield_now();
            continue;
        }
        let timeout = if conns.is_empty() || idle_sweeps > IDLE_ESCALATE_SWEEPS {
            LONG_NAP
        } else {
            POLL_INTERVAL
        };
        shared.io[io_idx].waker.wait(timeout);
    }
}

/// One readiness sweep over one connection: read, dispatch, write,
/// close-check. Returns whether any progress was made.
fn sweep_conn(
    mux: &Arc<TcpServer>,
    io_idx: usize,
    conn: &mut Conn,
    scratch: &mut [u8],
    stopping: bool,
    force_close: bool,
) -> bool {
    let mut progressed = false;
    let outstanding = conn.shared.outstanding.load(Ordering::SeqCst);
    let may_read = !stopping
        && !conn.read_closed
        && !conn.close_after
        && !conn.dead
        && outstanding < MAX_OUTSTANDING;
    if may_read {
        progressed |= pump_reads(mux, io_idx, conn, scratch);
    }
    if !conn.dead {
        progressed |= pump_writes(conn);
    }
    if conn.dead {
        return true;
    }
    if force_close {
        conn.dead = true;
        return true;
    }
    // Close when the peer is done (EOF / desync / shutdown / stop) and
    // everything accepted has been answered and flushed. Outstanding is
    // read *before* the flush check: completions decrement only after
    // queueing their reply, so 0-outstanding plus an empty out-buffer
    // means genuinely done.
    let done_reading = conn.read_closed || conn.close_after || stopping;
    if done_reading && conn.shared.outstanding.load(Ordering::SeqCst) == 0 {
        let out = lock_ignore_poison(&conn.shared.out);
        if out.ready.is_empty() && out.wire.len() == out.written {
            drop(out);
            conn.dead = true;
            progressed = true;
        }
    }
    progressed
}

/// Reads up to the per-sweep budget, feeding the frame decoder and
/// dispatching completed frames.
fn pump_reads(mux: &Arc<TcpServer>, io_idx: usize, conn: &mut Conn, scratch: &mut [u8]) -> bool {
    let mut progressed = false;
    for _ in 0..READS_PER_SWEEP {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                progressed = true;
                let mut items: Vec<Result<JsonValue>> = Vec::new();
                let fatal = conn.decoder.push(&scratch[..n], &mut items);
                for item in items {
                    dispatch_item(mux, io_idx, conn, item);
                }
                if let Err(e) = fatal {
                    // Length prefix broke framing: typed reply, then
                    // close — realignment would be a guess.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    push_ready(&conn.shared, seq, &Reply::from_error(&e));
                    conn.close_after = true;
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    progressed
}

/// Promotes due reply frames into the wire buffer and writes what the
/// socket will take.
fn pump_writes(conn: &mut Conn) -> bool {
    let mut progressed = false;
    let mut out = lock_ignore_poison(&conn.shared.out);
    loop {
        let due = out.next_emit;
        let Some(frame) = out.ready.remove(&due) else {
            break;
        };
        out.wire.extend_from_slice(&frame);
        out.next_emit += 1;
    }
    while out.written < out.wire.len() {
        // Nonblocking socket: plain write (not write_all) — a partial
        // write parks the rest for the next sweep.
        match conn.stream.write(&out.wire[out.written..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                out.written += n;
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if out.written == out.wire.len() {
        out.wire.clear();
        out.written = 0;
    } else if out.written > 64 * 1024 {
        // Large partial write: drop the emitted prefix so the buffer
        // does not grow without bound under sustained pipelining.
        let written = out.written;
        out.wire.drain(..written);
        out.written = 0;
    }
    progressed
}

/// Dispatches one decoded frame (or per-frame decode error). The reply
/// lands at this frame's sequence slot — immediately for cheap ops,
/// from a completion for `predict`/`drain`.
fn dispatch_item(mux: &Arc<TcpServer>, io_idx: usize, conn: &mut Conn, item: Result<JsonValue>) {
    let shared = &mux.shared;
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let request = match item.and_then(|doc| Request::from_json(&doc)) {
        Ok(request) => request,
        Err(e) => {
            push_ready(&conn.shared, seq, &Reply::from_error(&e));
            return;
        }
    };
    match request {
        Request::Ping => push_ready(&conn.shared, seq, &Reply::Pong),
        Request::Stats => {
            let metrics = stco_obs::Recorder::global().metrics();
            let reply = Reply::Stats(ServerStats {
                queue_depth: shared.service.queue_depth(),
                shards: shared.service.shard_count(),
                shard_queue_depths: shared.service.shard_queue_depths(),
                shed: metrics.counter("serve.shed_total").get(),
                loaded: shared.service.loaded(),
                requests: metrics.counter("serve.requests").get(),
                replies: metrics.counter("serve.replies").get(),
                errors: metrics.counter("serve.errors").get(),
                deadline_exceeded: metrics.counter("serve.deadline_exceeded").get(),
                slow_requests: shared.service.slow_requests(),
            });
            push_ready(&conn.shared, seq, &reply);
        }
        Request::Metrics => {
            let snaps = stco_obs::Recorder::global().metrics().snapshot();
            let reply = Reply::Metrics {
                snapshot: stco_obs::snapshot_json(&snaps),
                text: stco_obs::prometheus_text(&snaps),
            };
            push_ready(&conn.shared, seq, &reply);
        }
        // Registry I/O on the event thread: loads are rare admin ops
        // and warm-cache hits are cheap; not worth a helper thread.
        Request::Load { kind, key } => {
            let reply = match shared.service.load(&kind, key) {
                Ok(model) => {
                    let shard = shared.service.shard_for(&model);
                    Reply::Loaded { model, shard }
                }
                Err(e) => Reply::from_error(&e),
            };
            push_ready(&conn.shared, seq, &reply);
        }
        Request::Resume { shard } => {
            let reply = match shared.service.resume_shard(shard) {
                Ok(()) => Reply::Resumed { shard },
                Err(e) => Reply::from_error(&e),
            };
            push_ready(&conn.shared, seq, &reply);
        }
        // Drain blocks until the shard is quiescent — that cannot run
        // on the event thread, so a short-lived helper carries it.
        Request::Drain { shard } => {
            conn.shared.outstanding.fetch_add(1, Ordering::SeqCst);
            let cs = Arc::clone(&conn.shared);
            let waker = Arc::clone(&shared.io[io_idx].waker);
            let service = Arc::clone(&shared.service);
            let spawned = std::thread::Builder::new()
                .name("stco-serve-drain".to_string())
                .spawn(move || {
                    let reply = match service.drain_shard(shard) {
                        Ok(()) => Reply::Drained { shard },
                        Err(e) => Reply::from_error(&e),
                    };
                    push_ready(&cs, seq, &reply);
                    cs.outstanding.fetch_sub(1, Ordering::SeqCst);
                    waker.wake();
                });
            if spawned.is_err() {
                push_ready(
                    &conn.shared,
                    seq,
                    &Reply::from_error(&ServeError::ShuttingDown),
                );
                conn.shared.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
        }
        Request::Shutdown => {
            push_ready(&conn.shared, seq, &Reply::ShuttingDown);
            conn.close_after = true;
            // stop() joins the I/O threads — including this one — so it
            // must run detached.
            let stopper = Arc::clone(mux);
            let _ = std::thread::Builder::new()
                .name("stco-serve-stop".to_string())
                .spawn(move || stopper.stop());
        }
        // Extension calls run inline on the event thread, like `load`:
        // handlers are in-memory bookkeeping or one small atomic write,
        // not worth a helper thread.
        Request::Extension { name, body } => {
            let extension = lock_ignore_poison(&shared.extensions).get(&name).cloned();
            let reply = match extension {
                None => Reply::from_error(&ServeError::BadInput {
                    context: format!("no extension {name:?} attached to this server"),
                }),
                Some(extension) => match extension.call(&body) {
                    Ok(body) => Reply::Extension(body),
                    Err(e) => Reply::from_error(&e),
                },
            };
            push_ready(&conn.shared, seq, &reply);
        }
        Request::Predict {
            model,
            input,
            deadline_ms,
        } => {
            conn.shared.outstanding.fetch_add(1, Ordering::SeqCst);
            let cs = Arc::clone(&conn.shared);
            let waker = Arc::clone(&shared.io[io_idx].waker);
            let deadline = deadline_ms.map(Duration::from_millis);
            shared.service.submit_async(
                &model,
                input,
                deadline,
                Box::new(move |result| {
                    let reply = match result {
                        Ok(values) => Reply::Values(values),
                        Err(e) => Reply::from_error(&e),
                    };
                    push_ready(&cs, seq, &reply);
                    cs.outstanding.fetch_sub(1, Ordering::SeqCst);
                    waker.wake();
                }),
            );
        }
    }
}
