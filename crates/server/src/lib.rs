//! `dfs-server` — a fault-tolerant constraint-query daemon.
//!
//! The paper frames declarative feature selection as a *system* answering
//! constraint queries; this crate turns the fault-isolated, warm-cacheable
//! library into exactly that. One process serves many clients over the
//! [`dfs_proto`] frame protocol, and every PR-1 robustness guarantee is
//! extended across the network boundary:
//!
//! - **Admission control** — per-request wall-clock and evaluation quotas
//!   (requests above quota get a terminal `budget_exceeded`); the admitted
//!   request's [`Budget`] starts at admission, so queue wait counts
//!   against its deadline.
//! - **Load shedding** — a bounded queue that answers `overloaded`
//!   immediately when full or draining; a request is never silently
//!   dropped and never waits unboundedly.
//! - **Deadline propagation** — the client's `deadline_ms` drives a
//!   per-request watchdog; a blown deadline reports the cell's last
//!   [`dfs_obs::Heartbeat`] phase (`CellTimedOut`-style attribution) in
//!   the error frame.
//! - **Panic isolation** — query cells run under `catch_unwind` on named
//!   threads and connection handlers are themselves unwind-isolated: a
//!   panicking query answers `internal` and the daemon keeps serving.
//! - **Graceful drain** — SIGTERM (or a `shutdown` request) stops
//!   accepting, sheds the queue with explicit `overloaded` responses,
//!   lets in-flight queries finish and their responses flush, then writes
//!   the stats sidecar atomically. Every step logs an `obs` journal event.
//! - **Deterministic chaos** — a [`ServerFaultPlan`] keyed by client
//!   request id injects drop-mid-frame, handler stalls, response
//!   corruption, and in-cell panics on the exact production code paths,
//!   one-shot each, so every failure mode is a reproducible test. A
//!   [`ServerHold`] parks a request's worker until the test releases it,
//!   so tests order in-flight and queued work without sleeping.
//!
//! Warm state (prepared splits, the shared `ArtifactCache`) lives in
//! [`engine::Engine`]; results are bit-identical for any executor width
//! and any cache temperature.

pub mod engine;
pub mod queue;
pub mod stats;

use dfs_core::{DfsError, ServerFaultKind, ServerFaultPlan, ServerHold};
use dfs_obs::{self as obs, RunObserver};
use dfs_proto::frame::{encode_frame, read_frame, FrameError, HEADER_LEN};
use dfs_proto::{ErrorCode, Request, Response, ServerStats, WireError};
use dfs_search::Budget;
use engine::Engine;
use queue::{BoundedQueue, PushError};
use stats::Stats;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tuning knobs. Defaults are sized for tests and small hosts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads pulling from the admission queue (concurrent
    /// queries in flight).
    pub workers: usize,
    /// Executor permit-pool width for each query cell. Results are
    /// bit-identical for any value (the determinism contract); this only
    /// sets intra-query parallelism.
    pub threads: usize,
    /// Admission queue capacity; pushes beyond it shed with `overloaded`.
    pub queue_depth: usize,
    /// Hard per-request search-time quota; requests asking for more are
    /// rejected (`budget_exceeded`), not clamped.
    pub quota_time: Duration,
    /// Hard per-request evaluation quota.
    pub quota_evals: usize,
    /// Search time applied when a query sends `time_ms = 0`.
    pub default_time: Duration,
    /// Evaluation cap applied when a query sends `max_evals = 0`.
    pub default_evals: usize,
    /// Watchdog slack added on top of the search time when the client
    /// supplies no deadline (covers result confirmation and queue wait).
    pub deadline_grace: Duration,
    /// Per-connection read idle timeout; an idle connection is closed.
    pub idle_timeout: Duration,
    /// Per-connection write timeout (a stuck client cannot wedge a
    /// handler).
    pub write_timeout: Duration,
    /// Where to flush the stats sidecar on drain (atomic tmp+rename).
    pub sidecar: Option<PathBuf>,
    /// Deterministic server-side fault injection, keyed by request id.
    pub chaos: ServerFaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            threads: 1,
            queue_depth: 32,
            quota_time: Duration::from_secs(5),
            quota_evals: 5_000,
            default_time: Duration::from_millis(300),
            default_evals: 60,
            deadline_grace: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            sidecar: None,
            chaos: ServerFaultPlan::new(),
        }
    }
}

/// One admitted query waiting for (or on) a worker.
struct Job {
    spec: dfs_proto::QuerySpec,
    /// Effective search-time budget (scenario Max Search Time).
    search_time: Duration,
    /// Effective evaluation cap.
    max_evals: usize,
    /// Whole-request deadline (watchdog limit), measured by `budget`.
    deadline: Duration,
    /// Started at admission: queue wait counts against the deadline.
    budget: Budget,
    /// Chaos: panic inside the query cell.
    panic_in_cell: bool,
    /// Chaos: a gate the worker parks at before executing.
    hold: Option<ServerHold>,
    reply: mpsc::Sender<Response>,
}

struct Shared {
    cfg: ServerConfig,
    queue: BoundedQueue<Job>,
    stats: Stats,
    engine: Engine,
    chaos: Mutex<ServerFaultPlan>,
    draining: AtomicBool,
    /// Set by a client `shutdown` request; the host (CLI) polls it and
    /// calls [`ServerHandle::drain`].
    shutdown_requested: AtomicBool,
    /// Received queries and shutdown requests whose response has not been
    /// written yet.
    pending: AtomicUsize,
    /// Live connection handlers.
    active_handlers: AtomicUsize,
    /// Registered sockets, shut down at drain to unblock idle readers.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Shared {
    fn conns_lock(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn chaos_lock(&self) -> MutexGuard<'_, ServerFaultPlan> {
        self.chaos.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn snapshot(&self) -> ServerStats {
        let (computes, hits) = self.engine.ranking_counts();
        self.stats.snapshot(computes, hits)
    }
}

/// What [`ServerHandle::drain`] observed.
#[derive(Debug)]
pub struct DrainReport {
    /// Queued requests shed with `overloaded` during drain.
    pub shed: usize,
    /// Final counters (also flushed to the sidecar when configured).
    pub stats: ServerStats,
    /// The drain's obs journal (timestamp-stripped). Empty unless tracing
    /// is enabled.
    pub journal: String,
}

/// A running server. Dropping the handle without [`ServerHandle::drain`]
/// shuts down abruptly (queue closed, sockets severed, no joins).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    drained: bool,
}

/// Namespace for [`Server::spawn`].
pub struct Server;

impl Server {
    /// Binds, starts the accept loop and worker pool, and returns a handle.
    pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let chaos = cfg.chaos.clone();
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_depth),
            stats: Stats::default(),
            engine: Engine::new(cfg.threads),
            chaos: Mutex::new(chaos),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            active_handlers: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            cfg,
        });

        let mut workers = Vec::new();
        for i in 0..shared.cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("dfs-worker-{i}"))
                .spawn(move || worker_loop(&shared))?;
            workers.push(handle);
        }

        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("dfs-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };

        obs::info!("dfs-server", "listening on {addr}");
        Ok(ServerHandle { addr, shared, accept: Some(accept), workers, drained: false })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.snapshot()
    }

    /// Admitted queries waiting for a worker right now.
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// `true` once a client sent a `shutdown` request. The host decides
    /// when to act on it (usually by calling [`ServerHandle::drain`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Gracefully drains the server: stop accepting, shed the queue with
    /// explicit `overloaded` responses, let in-flight queries finish and
    /// flush their responses, sever idle connections, write the sidecar.
    /// Idempotent; every step is journaled.
    pub fn drain(&mut self) -> DrainReport {
        if self.drained {
            return DrainReport { shed: 0, stats: self.shared.snapshot(), journal: String::new() };
        }
        self.drained = true;
        let depth = obs::push_collector();
        obs::info!("dfs-server", "drain.begin");
        self.shared.draining.store(true, Ordering::Release);

        // 1. Stop accepting: wake the blocked accept so it sees the flag.
        //    Without a wake-up the loop would only exit on its next real
        //    connection, so it is then left detached rather than joined:
        //    drain must not hang.
        if let Some(accept) = self.accept.take() {
            if wake_accept(self.addr) && accept.join().is_err() {
                obs::warn!("dfs-server", "accept loop panicked during drain");
            }
        }

        // 2. Close the queue; answer every shed request explicitly.
        let shed_jobs = self.shared.queue.close();
        let shed = shed_jobs.len();
        for job in shed_jobs {
            Stats::bump(&self.shared.stats.shed);
            let err = DfsError::Overloaded { queued: shed, capacity: self.shared.cfg.queue_depth };
            let _ = job.reply.send(Response::Error(WireError::new(
                job.spec.req_id,
                ErrorCode::Overloaded,
                format!("{err} (draining)"),
            )));
        }
        obs::counter("server.drain.shed", shed as u64);
        obs::info!("dfs-server", "queue.shed: {shed} queued requests answered overloaded");

        // 3. Workers finish their in-flight query, then see the closed
        //    queue and exit.
        for w in self.workers.drain(..) {
            if w.join().is_err() {
                obs::warn!("dfs-server", "worker panicked during drain");
            }
        }
        obs::info!("dfs-server", "drain.inflight: workers idle, in-flight queries completed");

        // 4. Bounded wait for handlers to flush admitted responses.
        let flush_deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.pending.load(Ordering::Acquire) > 0 && Instant::now() < flush_deadline {
            thread::sleep(Duration::from_millis(2));
        }
        let unflushed = self.shared.pending.load(Ordering::Acquire);
        if unflushed > 0 {
            obs::warn!("dfs-server", "drain.flush: {unflushed} responses still unflushed at timeout");
        }

        // 5. Sever remaining (idle) connections so blocked readers exit.
        let conns: Vec<TcpStream> = self.shared.conns_lock().drain().map(|(_, s)| s).collect();
        for conn in conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let handler_deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.active_handlers.load(Ordering::Acquire) > 0
            && Instant::now() < handler_deadline
        {
            thread::sleep(Duration::from_millis(2));
        }

        // 6. Flush the stats sidecar atomically.
        let stats = self.shared.snapshot();
        if let Some(path) = &self.shared.cfg.sidecar {
            match write_sidecar(path, &stats) {
                Ok(()) => obs::info!("dfs-server", "sidecar.flush: {}", path.display()),
                Err(e) => obs::warn!("dfs-server", "sidecar.flush failed on {}: {e}", path.display()),
            }
        }
        obs::info!(
            "dfs-server",
            "drain.complete: served={} shed={} panicked={}",
            stats.served,
            stats.shed,
            stats.panicked
        );

        let journal = match obs::take_collector(depth) {
            Some(collector) => {
                let observer = RunObserver::new("dfs-server");
                observer.absorb_run(collector);
                observer.journal(true)
            }
            None => String::new(),
        };
        DrainReport { shed, stats, journal }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.drained {
            return;
        }
        // Abrupt shutdown: unblock everything, join nothing.
        self.shared.draining.store(true, Ordering::Release);
        wake_accept(self.addr);
        for job in self.shared.queue.close() {
            let _ = job.reply.send(Response::Error(WireError::new(
                job.spec.req_id,
                ErrorCode::Overloaded,
                "server shutting down",
            )));
        }
        let conns: Vec<TcpStream> = self.shared.conns_lock().drain().map(|(_, s)| s).collect();
        for conn in conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// The stats sidecar: same atomic write discipline as the benchmark
/// checkpoint (tmp + rename), same tab-separated idiom. v2 appends the
/// sparse-encoded latency histograms; [`read_sidecar`] still accepts v1.
fn write_sidecar(path: &std::path::Path, stats: &ServerStats) -> io::Result<()> {
    let mut body = String::from("#dfs-server-stats\tv2\n");
    for (key, value) in [
        ("connections", stats.connections),
        ("served", stats.served),
        ("succeeded", stats.succeeded),
        ("shed", stats.shed),
        ("panicked", stats.panicked),
        ("deadline_exceeded", stats.deadline_exceeded),
        ("malformed", stats.malformed),
        ("ranking_computes", stats.ranking_computes),
        ("ranking_hits", stats.ranking_hits),
    ] {
        body.push_str(&format!("{key}\t{value}\n"));
    }
    body.push_str(&format!("latency_hist\t{}\n", stats.latency_hist));
    body.push_str(&format!("queue_hist\t{}\n", stats.queue_hist));
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// Parses a sidecar written by `write_sidecar` back into counters.
/// Accepts v1 (counters only) and v2 (counters + histograms).
pub fn read_sidecar(path: &std::path::Path) -> Result<ServerStats, DfsError> {
    let text = std::fs::read_to_string(path)
        .map_err(|source| DfsError::Io { path: path.to_path_buf(), source })?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    if header != "#dfs-server-stats\tv1" && header != "#dfs-server-stats\tv2" {
        return Err(DfsError::CacheCorrupt {
            path: path.to_path_buf(),
            reason: format!("bad sidecar header '{header}'"),
        });
    }
    let mut stats = ServerStats::default();
    for line in lines {
        let (key, value) = match line.split_once('\t') {
            Some(kv) => kv,
            None => continue,
        };
        // Histogram lines carry the sparse wire string, not a counter.
        match key {
            "latency_hist" | "queue_hist" => {
                dfs_obs::Histogram::decode_sparse(value).map_err(|reason| {
                    DfsError::CacheCorrupt {
                        path: path.to_path_buf(),
                        reason: format!("bad {key}: {reason}"),
                    }
                })?;
                if key == "latency_hist" {
                    stats.latency_hist = value.to_string();
                } else {
                    stats.queue_hist = value.to_string();
                }
                continue;
            }
            _ => {}
        }
        let value: u64 = value.parse().map_err(|_| DfsError::CacheCorrupt {
            path: path.to_path_buf(),
            reason: format!("non-numeric counter '{line}'"),
        })?;
        match key {
            "connections" => stats.connections = value,
            "served" => stats.served = value,
            "succeeded" => stats.succeeded = value,
            "shed" => stats.shed = value,
            "panicked" => stats.panicked = value,
            "deadline_exceeded" => stats.deadline_exceeded = value,
            "malformed" => stats.malformed = value,
            "ranking_computes" => stats.ranking_computes = value,
            "ranking_hits" => stats.ranking_hits = value,
            _ => {}
        }
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Accept loop and connection handlers
// ---------------------------------------------------------------------------

/// Blocks in `accept` until a client connects. Drain and abrupt shutdown
/// set the draining flag first and then wake the loop with
/// [`wake_accept`]; whatever connection it accepts after the flag is set
/// is dropped, never served.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                Stats::bump(&shared.stats.connections);
                let shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name(format!("dfs-conn-{conn_id}"))
                    .spawn(move || handle_connection(&shared, stream, conn_id));
                if spawned.is_err() {
                    obs::warn!("dfs-server", "failed to spawn handler for connection {conn_id}");
                }
            }
            Err(e) => {
                obs::warn!("dfs-server", "accept failed: {e}");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Unblocks [`accept_loop`] with a throwaway self-connection to the bound
/// address (loopback when bound to an unspecified IP). The connection
/// completes in the listen backlog whether or not `accept` is running, so
/// the loop returns as soon as it next blocks. Returns whether the
/// connection was made.
fn wake_accept(addr: SocketAddr) -> bool {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    match TcpStream::connect_timeout(&target, Duration::from_secs(1)) {
        Ok(_) => true,
        Err(e) => {
            obs::warn!("dfs-server", "accept wake-up connect to {target} failed: {e}");
            false
        }
    }
}

/// Decrements a counter on drop, so panics cannot leak it.
struct CountGuard<'a>(&'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Counts a received request as pending until the guard drops, after its
/// response is written, so drain never severs a connection mid-reply.
fn hold_pending(shared: &Shared) -> CountGuard<'_> {
    shared.pending.fetch_add(1, Ordering::AcqRel);
    CountGuard(&shared.pending)
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream, conn_id: u64) {
    shared.active_handlers.fetch_add(1, Ordering::AcqRel);
    let _active = CountGuard(&shared.active_handlers);
    let _ = stream.set_read_timeout(Some(shared.cfg.idle_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    if let Ok(clone) = stream.try_clone() {
        shared.conns_lock().insert(conn_id, clone);
    }

    // Per-connection unwind isolation: one buggy handler cannot take
    // down the daemon.
    let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(shared, &mut stream)));
    if outcome.is_err() {
        obs::warn!("dfs-server", "connection {conn_id} handler panicked; connection dropped");
    }
    shared.conns_lock().remove(&conn_id);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads frames until the peer closes, the connection idles out, or the
/// framing breaks.
fn serve_connection(shared: &Arc<Shared>, stream: &mut TcpStream) {
    loop {
        let payload = match read_frame(stream) {
            Ok(payload) => payload,
            Err(FrameError::Closed) => return,
            Err(FrameError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                obs::debug!("dfs-server", "connection idle timeout; closing");
                return;
            }
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => return,
            Err(e) => {
                // Protocol violation (bad version, oversized length,
                // checksum mismatch): framing is no longer trustworthy.
                // Answer once, then close.
                Stats::bump(&shared.stats.malformed);
                obs::counter("server.frame.malformed", 1);
                let err = DfsError::MalformedFrame { reason: e.to_string() };
                obs::warn!("dfs-server", "{err}");
                let resp =
                    Response::Error(WireError::new(0, ErrorCode::MalformedQuery, err.to_string()));
                let _ = write_response(stream, &resp, None);
                return;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(reason) => {
                // Framing is intact — the payload just doesn't parse.
                // Answer and keep the connection.
                Stats::bump(&shared.stats.malformed);
                obs::counter("server.frame.malformed", 1);
                let err = DfsError::MalformedFrame { reason };
                obs::warn!("dfs-server", "{err}");
                let resp =
                    Response::Error(WireError::new(0, ErrorCode::MalformedQuery, err.to_string()));
                if write_response(stream, &resp, None).is_err() {
                    return;
                }
                continue;
            }
        };
        let (resp, fault, close, _pending) = match request {
            Request::Ping => (Response::Pong, None, false, None),
            Request::Stats => (Response::Stats(shared.snapshot()), None, false, None),
            Request::Shutdown => {
                // Pending before the flag is raised: the host may drain
                // the moment it sees the flag, and `Bye` must not be
                // severed on its way out.
                let pending = hold_pending(shared);
                shared.shutdown_requested.store(true, Ordering::Release);
                obs::info!("dfs-server", "shutdown requested by client");
                (Response::Bye, None, true, Some(pending))
            }
            Request::Query(spec) => {
                let pending = hold_pending(shared);
                let fault = shared.chaos_lock().take(spec.req_id);
                (serve_query(shared, spec, fault), fault, false, Some(pending))
            }
        };
        match write_response(stream, &resp, fault) {
            Ok(false) => {
                if close {
                    return;
                }
            }
            // `true`: the chaos injector severed the stream mid-frame.
            Ok(true) | Err(_) => return,
        }
    }
}

/// Validates, admits, and executes one query, returning the response to
/// write. Never blocks unboundedly: admission sheds, execution is under a
/// watchdog, and the reply wait is capped past the watchdog deadline.
fn serve_query(
    shared: &Arc<Shared>,
    spec: dfs_proto::QuerySpec,
    fault: Option<ServerFaultKind>,
) -> Response {
    let received = Instant::now();
    if let Err(wire) = shared.engine.validate(&spec) {
        Stats::bump(&shared.stats.malformed);
        obs::counter("server.query.malformed", 1);
        return Response::Error(wire);
    }
    let (search_time, max_evals, deadline) = match admit(&shared.cfg, &spec) {
        Ok(quotas) => quotas,
        Err(wire) => return Response::Error(wire),
    };

    // The request's Budget starts here: queue wait spends it.
    let budget = Budget::new(deadline, max_evals);
    if let Some(ServerFaultKind::StallHandler(wait)) = fault {
        // The stall burns the admitted request's own deadline, so a stall
        // past it must surface as `deadline_exceeded`, never a hang.
        obs::warn!("dfs-server", "chaos: stalling handler {wait:?} (req {})", spec.req_id);
        thread::sleep(wait);
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        spec: spec.clone(),
        search_time,
        max_evals,
        deadline,
        budget,
        panic_in_cell: matches!(fault, Some(ServerFaultKind::PanicInCell)),
        hold: shared.chaos_lock().take_hold(spec.req_id),
        reply: reply_tx,
    };
    match shared.queue.try_push(job) {
        Err(PushError::Full { queued, capacity, .. }) => {
            Stats::bump(&shared.stats.shed);
            obs::counter("server.query.shed", 1);
            let err = DfsError::Overloaded { queued, capacity };
            obs::warn!("dfs-server", "{err} (req {})", spec.req_id);
            Response::Error(WireError::new(spec.req_id, ErrorCode::Overloaded, err.to_string()))
        }
        Err(PushError::Closed(_)) => {
            Stats::bump(&shared.stats.shed);
            obs::counter("server.query.shed", 1);
            Response::Error(WireError::new(
                spec.req_id,
                ErrorCode::Overloaded,
                "server is draining; retry against another instance",
            ))
        }
        Ok(()) => {
            // The worker always replies (shed, executed, panicked, or
            // timed out); the cap is pure insurance so a lost reply can
            // never wedge the handler.
            let wait_cap = deadline + shared.cfg.deadline_grace + Duration::from_secs(5);
            let resp = reply_rx.recv_timeout(wait_cap).unwrap_or_else(|_| {
                Response::Error(WireError::new(
                    spec.req_id,
                    ErrorCode::Internal,
                    "worker reply lost",
                ))
            });
            // Request latency for every admitted query: handler entry to
            // reply resolution — validation, queue wait, and execution.
            shared.stats.latency.record(received.elapsed().as_nanos() as u64);
            resp
        }
    }
}

/// Admission control: resolve effective quotas, rejecting over-quota
/// requests with a terminal `budget_exceeded`.
fn admit(
    cfg: &ServerConfig,
    spec: &dfs_proto::QuerySpec,
) -> Result<(Duration, usize, Duration), WireError> {
    let over = |msg: String| WireError::new(spec.req_id, ErrorCode::BudgetExceeded, msg);
    let search_time = if spec.time_ms == 0 {
        cfg.default_time
    } else {
        Duration::from_millis(spec.time_ms)
    };
    if search_time > cfg.quota_time {
        return Err(over(format!(
            "requested search time {search_time:?} exceeds the {:?} quota",
            cfg.quota_time
        )));
    }
    let max_evals = if spec.max_evals == 0 { cfg.default_evals } else { spec.max_evals as usize };
    if max_evals > cfg.quota_evals {
        return Err(over(format!(
            "requested {max_evals} evaluations exceed the {} quota",
            cfg.quota_evals
        )));
    }
    let deadline = spec
        .deadline_ms
        .map_or(search_time + cfg.deadline_grace, Duration::from_millis);
    let deadline_cap = cfg.quota_time + cfg.deadline_grace;
    if deadline > deadline_cap {
        return Err(over(format!(
            "requested deadline {deadline:?} exceeds the {deadline_cap:?} cap"
        )));
    }
    Ok((search_time, max_evals, deadline))
}

/// Writes a response frame, applying response-path chaos. Returns
/// `Ok(true)` when the injector severed the connection.
fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    fault: Option<ServerFaultKind>,
) -> Result<bool, FrameError> {
    let payload = resp.encode();
    let mut buf = encode_frame(&payload)?;
    match fault {
        Some(ServerFaultKind::CorruptFrame) => {
            // Flip one payload byte *after* the checksum was computed:
            // the client's frame layer must reject the frame.
            obs::warn!("dfs-server", "chaos: corrupting response frame");
            if let Some(byte) = buf.last_mut() {
                *byte ^= 0x01;
            }
            stream.write_all(&buf)?;
            stream.flush()?;
            Ok(false)
        }
        Some(ServerFaultKind::DropMidFrame) => {
            // Write half the frame, then vanish: the client must observe
            // a truncated read, never a hang.
            obs::warn!("dfs-server", "chaos: dropping connection mid-frame");
            let cut = HEADER_LEN + payload.len() / 2;
            stream.write_all(&buf[..cut])?;
            stream.flush()?;
            let _ = stream.shutdown(Shutdown::Both);
            Ok(true)
        }
        _ => {
            stream.write_all(&buf)?;
            stream.flush()?;
            Ok(false)
        }
    }
}

// ---------------------------------------------------------------------------
// Workers: guarded query execution with deadline propagation
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        if let Some(hold) = &job.hold {
            hold.enter();
        }
        let resp = execute_job(shared, &job);
        if let Response::Result(result) = &resp {
            Stats::bump(&shared.stats.served);
            obs::counter("server.query.served", 1);
            if result.success {
                Stats::bump(&shared.stats.succeeded);
            }
        }
        // A vanished handler (client gone) is fine; the result is dropped.
        let _ = job.reply.send(resp);
    }
}

/// Runs one job under the watchdog. Mirrors the benchmark runner's
/// guarded-cell pattern: the query runs on a named thread with a
/// heartbeat installed; the worker waits with `recv_timeout` and converts
/// expiry into a `deadline_exceeded` error frame carrying the last
/// heartbeat phase.
fn execute_job(shared: &Arc<Shared>, job: &Job) -> Response {
    let req_id = job.spec.req_id;
    // The budget started at admission, so its elapsed time at pickup IS
    // the queue wait — recorded for every job, including ones the wait
    // already killed.
    shared.stats.queue_wait.record(job.budget.elapsed().as_nanos() as u64);
    // Queue wait already spent the whole deadline?
    if job.budget.exhausted() {
        Stats::bump(&shared.stats.deadline_exceeded);
        obs::counter("server.query.deadline", 1);
        let err = DfsError::DeadlineExceeded { deadline: job.deadline, phase: "queue".into() };
        obs::warn!("dfs-server", "{err} (req {req_id})");
        return Response::Error(
            WireError::new(req_id, ErrorCode::DeadlineExceeded, err.to_string()).with_phase("queue"),
        );
    }
    let remaining = job.deadline.saturating_sub(job.budget.elapsed());
    let heartbeat = Arc::new(obs::Heartbeat::new());
    let (cell_tx, cell_rx) = mpsc::channel();
    let cell = {
        let heartbeat = Arc::clone(&heartbeat);
        let shared = Arc::clone(shared);
        let spec = job.spec.clone();
        let search_time = job.search_time;
        let max_evals = job.max_evals;
        let panic_in_cell = job.panic_in_cell;
        thread::Builder::new().name(format!("dfs-cell-{req_id}")).spawn(move || {
            obs::install_heartbeat(heartbeat);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                shared.engine.run(&spec, search_time, max_evals, panic_in_cell)
            }));
            obs::clear_heartbeat();
            let _ = cell_tx.send(outcome);
        })
    };
    let cell = match cell {
        Ok(cell) => cell,
        Err(e) => {
            return Response::Error(WireError::new(
                req_id,
                ErrorCode::Internal,
                format!("failed to spawn query cell: {e}"),
            ));
        }
    };
    match cell_rx.recv_timeout(remaining) {
        Ok(Ok(Ok(result))) => {
            let _ = cell.join();
            Response::Result(result)
        }
        Ok(Ok(Err(wire))) => {
            let _ = cell.join();
            Response::Error(wire)
        }
        Ok(Err(panic_payload)) => {
            let _ = cell.join();
            Stats::bump(&shared.stats.panicked);
            obs::counter("server.query.panicked", 1);
            let payload = dfs_core::error::panic_payload_to_string(&*panic_payload);
            let err = DfsError::CellPanicked {
                scenario: job.spec.dataset.clone(),
                arm: job.spec.strategy.clone(),
                payload: payload.clone(),
            };
            obs::warn!("dfs-server", "{err} (req {req_id}); daemon unaffected");
            Response::Error(WireError::new(
                req_id,
                ErrorCode::Internal,
                format!("query cell panicked: {payload}"),
            ))
        }
        Err(_) => {
            // Watchdog fired. The cell thread keeps running detached (it
            // is budget-bounded and will unwind on its own); attribution
            // comes from its heartbeat, exactly like `CellTimedOut`.
            Stats::bump(&shared.stats.deadline_exceeded);
            obs::counter("server.query.deadline", 1);
            let phase = heartbeat.last();
            let err = DfsError::DeadlineExceeded { deadline: job.deadline, phase: phase.clone() };
            obs::warn!("dfs-server", "{err} (req {req_id})");
            Response::Error(
                WireError::new(req_id, ErrorCode::DeadlineExceeded, err.to_string())
                    .with_phase(phase),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_proto::QuerySpec;

    #[test]
    fn admission_rejects_over_quota_requests() {
        let cfg = ServerConfig::default();
        let mut spec = QuerySpec::example(1);
        spec.time_ms = cfg.quota_time.as_millis() as u64 + 1;
        let err = admit(&cfg, &spec).expect_err("over-quota time");
        assert_eq!(err.code, ErrorCode::BudgetExceeded);

        let mut spec = QuerySpec::example(2);
        spec.max_evals = cfg.quota_evals as u64 + 1;
        let err = admit(&cfg, &spec).expect_err("over-quota evals");
        assert_eq!(err.code, ErrorCode::BudgetExceeded);

        let mut spec = QuerySpec::example(3);
        spec.deadline_ms = Some((cfg.quota_time + cfg.deadline_grace).as_millis() as u64 + 1);
        let err = admit(&cfg, &spec).expect_err("over-cap deadline");
        assert_eq!(err.code, ErrorCode::BudgetExceeded);
    }

    #[test]
    fn admission_applies_defaults_and_client_deadline() {
        let cfg = ServerConfig::default();
        let spec = QuerySpec::example(1);
        let (time, evals, deadline) = admit(&cfg, &spec).expect("defaults admit");
        assert_eq!(time, cfg.default_time);
        assert_eq!(evals, cfg.default_evals);
        assert_eq!(deadline, cfg.default_time + cfg.deadline_grace);

        let mut spec = QuerySpec::example(2);
        spec.time_ms = 120;
        spec.max_evals = 40;
        spec.deadline_ms = Some(90);
        let (time, evals, deadline) = admit(&cfg, &spec).expect("explicit admit");
        assert_eq!(time, Duration::from_millis(120));
        assert_eq!(evals, 40);
        assert_eq!(deadline, Duration::from_millis(90), "client deadline propagates verbatim");
    }

    /// Binding the port again only succeeds once the accept thread has
    /// dropped its listener, i.e. once it has left `accept`.
    fn port_is_free(port: u16) -> bool {
        TcpListener::bind(("0.0.0.0", port)).is_ok()
    }

    #[test]
    fn drain_on_unspecified_ip_joins_accept_thread() {
        let cfg = ServerConfig { addr: "0.0.0.0:0".into(), workers: 1, ..ServerConfig::default() };
        let mut handle = Server::spawn(cfg).expect("spawn");
        let port = handle.addr().port();
        assert!(handle.addr().ip().is_unspecified());
        assert!(!port_is_free(port), "listener is bound while serving");
        handle.drain();
        assert!(handle.accept.is_none());
        // Drain joined the accept thread, so its listener is already gone.
        assert!(port_is_free(port), "port {port} still bound after drain");
    }

    #[test]
    fn dropping_undrained_handle_releases_port() {
        let handle = Server::spawn(ServerConfig { workers: 1, ..ServerConfig::default() })
            .expect("spawn");
        let port = handle.addr().port();
        drop(handle);
        // Abrupt shutdown joins nothing; the woken accept thread exits on
        // its own shortly after.
        let deadline = Instant::now() + Duration::from_secs(2);
        while !port_is_free(port) {
            assert!(Instant::now() < deadline, "port {port} still bound after drop");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn sidecar_roundtrips_atomically() {
        let dir = std::env::temp_dir().join("dfs-server-sidecar-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("stats.ckpt");
        let stats = ServerStats {
            connections: 4,
            served: 9,
            succeeded: 5,
            shed: 2,
            panicked: 1,
            deadline_exceeded: 3,
            malformed: 7,
            ranking_computes: 11,
            ranking_hits: 13,
            latency_hist: "2;3000000;21:1,22:1".into(),
            queue_hist: "1;500;9:1".into(),
        };
        write_sidecar(&path, &stats).expect("write");
        assert!(!path.with_extension("ckpt.tmp").exists(), "tmp file renamed away");
        let back = read_sidecar(&path).expect("read");
        assert_eq!(back, stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sidecar_accepts_v1_without_histograms() {
        let dir = std::env::temp_dir().join("dfs-server-sidecar-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("v1.ckpt");
        std::fs::write(&path, "#dfs-server-stats\tv1\nserved\t6\nshed\t2\n").expect("write");
        let back = read_sidecar(&path).expect("v1 reads");
        assert_eq!(back.served, 6);
        assert_eq!(back.shed, 2);
        assert_eq!(back.latency_hist, "");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sidecar_rejects_corrupt_histogram_line() {
        let dir = std::env::temp_dir().join("dfs-server-sidecar-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("badhist.ckpt");
        std::fs::write(&path, "#dfs-server-stats\tv2\nserved\t1\nlatency_hist\t1;1;99:1\n")
            .expect("write");
        assert!(matches!(read_sidecar(&path), Err(DfsError::CacheCorrupt { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sidecar_rejects_bad_header() {
        let dir = std::env::temp_dir().join("dfs-server-sidecar-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("garbled.ckpt");
        std::fs::write(&path, "#something-else\nserved\t3\n").expect("write");
        assert!(matches!(read_sidecar(&path), Err(DfsError::CacheCorrupt { .. })));
        std::fs::remove_file(&path).ok();
    }
}
