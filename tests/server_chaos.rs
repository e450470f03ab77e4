//! Deterministic chaos tests for the constraint-query daemon.
//!
//! Each injected fault — in-cell panic, handler stall past deadline,
//! corrupt response frame, mid-frame disconnect, queue overflow — must
//! yield its documented error response while the daemon keeps serving,
//! and concurrent queries that are *not* faulted must come back
//! bit-identical whether the server runs one executor thread or four.

use dfs_repro::client::{Client, ClientConfig, ClientError};
use dfs_repro::core::prelude::{ServerFaultKind, ServerFaultPlan};
use dfs_repro::proto::frame::{encode_frame, MAX_FRAME, PROTO_VERSION};
use dfs_repro::proto::{ErrorCode, QuerySpec, Request, Response};
use dfs_repro::server::{read_sidecar, Server, ServerConfig, ServerHandle};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn test_server(chaos: ServerFaultPlan, threads: usize) -> ServerHandle {
    test_server_with(chaos, threads, |_| {})
}

fn test_server_with(
    chaos: ServerFaultPlan,
    threads: usize,
    tweak: impl FnOnce(&mut ServerConfig),
) -> ServerHandle {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        threads,
        chaos,
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    Server::spawn(cfg).expect("server spawns")
}

fn test_client(addr: SocketAddr) -> Client {
    let cfg = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_secs(30),
        max_attempts: 4,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        jitter_seed: 1,
    };
    Client::with_config(addr, cfg).expect("client")
}

/// A small deterministic query: the evaluation cap binds long before the
/// generous time budget, so results cannot depend on wall-clock.
fn fast_spec(req_id: u64, strategy: &str, seed: u64) -> QuerySpec {
    let mut spec = QuerySpec::example(req_id);
    spec.rows = Some(120);
    spec.strategy = strategy.into();
    spec.seed = seed;
    spec.time_ms = 2000;
    spec.max_evals = 15;
    spec
}

#[test]
fn faulted_queries_get_documented_errors_and_unaffected_queries_stay_bit_identical() {
    const UNAFFECTED: &[(u64, &str, u64)] =
        &[(1, "variance", 13), (2, "fisher", 13), (3, "chi2", 7), (4, "variance", 7)];
    let fingerprints_at = |threads: usize| -> Vec<String> {
        let mut chaos = ServerFaultPlan::new();
        chaos.inject(101, ServerFaultKind::PanicInCell);
        chaos.inject(102, ServerFaultKind::StallHandler(Duration::from_millis(400)));
        chaos.inject(103, ServerFaultKind::CorruptFrame);
        chaos.inject(104, ServerFaultKind::DropMidFrame);
        let mut handle = test_server(chaos, threads);
        let addr = handle.addr();

        // Fire the faulted queries concurrently with the clean batch.
        let chaos_runs: Vec<_> = [101u64, 102, 103, 104]
            .into_iter()
            .map(|req| {
                std::thread::spawn(move || {
                    let client = test_client(addr);
                    let mut spec = fast_spec(req, "variance", 13);
                    if req == 102 {
                        // The 400 ms stall must blow this 100 ms deadline.
                        spec.deadline_ms = Some(100);
                    }
                    (req, client.query(&spec))
                })
            })
            .collect();
        let clean_runs: Vec<_> = UNAFFECTED
            .iter()
            .map(|&(req, strategy, seed)| {
                let spec = fast_spec(req, strategy, seed);
                std::thread::spawn(move || {
                    test_client(addr).query(&spec).expect("unaffected query succeeds")
                })
            })
            .collect();

        for run in chaos_runs {
            let (req, outcome) = run.join().expect("chaos client");
            match req {
                101 => {
                    // In-cell panic: terminal `internal`, no retry.
                    let err = outcome.expect_err("panic must fail");
                    let wire = err.wire().expect("server-classified error");
                    assert_eq!(wire.code, ErrorCode::Internal, "{wire:?}");
                    assert!(wire.message.contains("panicked"), "{wire:?}");
                }
                102 => {
                    // Stall past deadline: `deadline_exceeded` with the
                    // phase the request died in.
                    let err = outcome.expect_err("stalled query must miss its deadline");
                    let wire = err.wire().expect("server-classified error");
                    assert_eq!(wire.code, ErrorCode::DeadlineExceeded, "{wire:?}");
                    assert!(wire.phase.is_some(), "deadline errors carry a phase: {wire:?}");
                }
                // Corrupt frame and mid-frame drop hit the *response*
                // path; the fault is one-shot, so the client's retry gets
                // a clean answer.
                103 | 104 => {
                    let result = outcome.expect("retry must recover the response");
                    assert_eq!(result.req_id, req);
                }
                _ => unreachable!(),
            }
        }
        let fingerprints: Vec<String> =
            clean_runs.into_iter().map(|r| r.join().expect("clean client").fingerprint()).collect();

        // The daemon is still healthy after every fault.
        let client = test_client(addr);
        client.ping().expect("daemon still answers after chaos");
        let stats = client.stats().expect("stats");
        assert!(stats.panicked >= 1, "panic fault must be counted: {stats:?}");
        assert!(stats.deadline_exceeded >= 1, "stall fault must be counted: {stats:?}");
        handle.drain();
        fingerprints
    };

    let narrow = fingerprints_at(1);
    let wide = fingerprints_at(4);
    assert_eq!(
        narrow, wide,
        "unaffected queries must be bit-identical at DFS_THREADS=1 vs 4"
    );
}

/// A query that cannot satisfy its constraint and so burns its whole
/// time budget — used to keep a worker busy on purpose.
fn slow_spec(req_id: u64, time_ms: u64) -> QuerySpec {
    let mut spec = QuerySpec::example(req_id);
    spec.rows = Some(200);
    // Exhaustive search against an unsatisfiable constraint: never
    // converges, so the time budget is what stops it.
    spec.strategy = "es".into();
    spec.min_f1 = 0.99;
    spec.time_ms = time_ms;
    // With the eval quota raised server-side (see the tests), the time
    // budget is the binding limit, so the query runs ~time_ms.
    spec.max_evals = 1_000_000;
    spec.hpo = true;
    spec
}

/// Waits until `n` admitted queries sit in the server's queue. Polls
/// observed state; a generous bound turns a lost query into a failure
/// instead of a hang.
fn wait_queued(handle: &ServerHandle, n: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while handle.queued() < n {
        assert!(std::time::Instant::now() < deadline, "{n} queries never queued");
        std::thread::yield_now();
    }
}

#[test]
fn queue_overflow_sheds_with_overloaded_and_recovers() {
    // One worker, depth-1 queue: a held in-flight query plus one queued
    // query leaves no room — the third is shed, never parked.
    let mut chaos = ServerFaultPlan::new();
    let hold = chaos.hold(50);
    let mut handle = test_server_with(chaos, 1, |cfg| {
        cfg.workers = 1;
        cfg.queue_depth = 1;
        cfg.quota_evals = 10_000_000;
    });
    let addr = handle.addr();

    let slow = slow_spec(50, 300);
    let inflight = std::thread::spawn(move || test_client(addr).query(&slow));
    assert!(hold.wait_entered(Duration::from_secs(30)), "query 50 reached the worker");

    // Fill the queue with one more...
    let queued_spec = slow_spec(51, 200);
    let queued = std::thread::spawn(move || test_client(addr).query(&queued_spec));
    wait_queued(&handle, 1);

    // ...then observe the shed without retry masking it.
    let client = test_client(addr);
    match client.request_raw(&Request::Query(fast_spec(60, "variance", 13))) {
        Err(ClientError::Server(wire)) => {
            assert_eq!(wire.code, ErrorCode::Overloaded, "{wire:?}");
            assert!(wire.code.retryable(), "overloaded must be the retryable code");
            assert!(wire.message.contains("overloaded"), "{wire:?}");
        }
        other => panic!("a depth-1 queue under a busy worker must shed, got {other:?}"),
    }
    hold.release();

    // The in-flight request completes (the slow query fails its
    // impossible constraint but returns a real result), the queued one is
    // answered (its deadline counts the wait behind query 50), and the
    // daemon recovers fully.
    let slow_result = inflight.join().expect("join").expect("in-flight query completes");
    assert!(!slow_result.success, "min_f1=0.99 must be unsatisfiable");
    let _ = queued.join().expect("join");
    let result = client.query(&fast_spec(90, "variance", 13)).expect("recovered");
    assert!(result.evaluations > 0);
    let stats = client.stats().expect("stats");
    assert!(stats.shed >= 1, "shed counter must record the overflow: {stats:?}");
    handle.drain();
}

#[test]
fn protocol_violations_answer_or_close_but_never_kill_the_daemon() {
    let mut handle = test_server(ServerFaultPlan::new(), 1);
    let addr = handle.addr();

    // Garbage bytes: not even a valid header.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
        let _ = s.shutdown(std::net::Shutdown::Write);
    }
    // Wrong protocol version.
    {
        let mut buf = encode_frame(&Request::Ping.encode()).expect("encode");
        buf[0] = PROTO_VERSION + 1;
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&buf).expect("write");
    }
    // Oversized length prefix.
    {
        let mut buf = vec![PROTO_VERSION];
        buf.extend(((MAX_FRAME + 1) as u32).to_le_bytes());
        buf.extend(0u32.to_le_bytes());
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&buf).expect("write");
    }
    // Half a frame, then vanish (client-side mid-frame disconnect).
    {
        let buf = encode_frame(&Request::Ping.encode()).expect("encode");
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&buf[..buf.len() / 2]).expect("write");
        drop(s);
    }
    // Valid frame, payload that is not a request.
    {
        let buf = encode_frame(b"{\"cmd\":\"launch_missiles\"}").expect("encode");
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&buf).expect("write");
    }

    // After all of that the daemon still serves real queries.
    let client = test_client(addr);
    client.ping().expect("daemon survives protocol abuse");
    let result = client.query(&fast_spec(7, "variance", 13)).expect("query still works");
    assert!(result.evaluations > 0);
    let stats = client.stats().expect("stats");
    assert!(
        stats.malformed >= 3,
        "version/length/payload violations must be counted: {stats:?}"
    );
    handle.drain();
}

#[test]
fn graceful_drain_finishes_inflight_sheds_queue_and_flushes_sidecar() {
    dfs_repro::obs::set_trace_enabled(true);
    let dir = std::env::temp_dir().join(format!("dfs-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let sidecar = dir.join("server.ckpt");

    let sidecar_cfg = sidecar.clone();
    let mut chaos = ServerFaultPlan::new();
    let hold = chaos.hold(200);
    let mut handle = test_server_with(chaos, 1, move |cfg| {
        cfg.workers = 1;
        cfg.queue_depth = 4;
        cfg.quota_evals = 10_000_000;
        cfg.sidecar = Some(sidecar_cfg);
    });
    let addr = handle.addr();

    // Hold a query on the single worker, then park a second one in the
    // queue. The held query is released only once drain has answered the
    // queued one, so it is still in flight when drain begins.
    let inflight_spec = slow_spec(200, 300);
    let inflight = std::thread::spawn(move || test_client(addr).query(&inflight_spec));
    assert!(hold.wait_entered(Duration::from_secs(30)), "query 200 reached the worker");
    let queued_spec = slow_spec(201, 200);
    let release = hold.clone();
    let queued = std::thread::spawn(move || {
        let answer = test_client(addr).request_raw(&Request::Query(queued_spec));
        release.release();
        answer
    });
    wait_queued(&handle, 1);

    let report = handle.drain();

    // The in-flight query finished with a real result; the queued one
    // was shed with an explicit `overloaded`, not a hang.
    let result = inflight.join().expect("join").expect("in-flight survives drain");
    assert_eq!(result.req_id, 200);
    match queued.join().expect("join") {
        Err(ClientError::Server(wire)) => {
            assert_eq!(wire.code, ErrorCode::Overloaded, "{wire:?}");
            assert!(wire.message.contains("drain"), "{wire:?}");
        }
        other => panic!("queued query must be shed on drain, got {other:?}"),
    }
    assert!(report.shed >= 1, "drain report must count the shed job");

    // The sidecar was flushed atomically and parses back.
    let stats = read_sidecar(&sidecar).expect("sidecar readable");
    assert_eq!(stats.served, report.stats.served);
    assert!(stats.served >= 1, "{stats:?}");

    // The journal documents the drain protocol.
    for needle in ["drain.begin", "sidecar.flush", "drain.complete"] {
        assert!(
            report.journal.contains(needle),
            "journal missing '{needle}':\n{}",
            report.journal
        );
    }

    // New connections are refused (or reset) once drained.
    let late = test_client(addr);
    assert!(late.ping().is_err(), "drained server must not accept new work");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_artifact_cache_is_reused_across_requests() {
    let mut handle = test_server(ServerFaultPlan::new(), 1);
    let addr = handle.addr();
    let client = test_client(addr);

    let first = client.query(&fast_spec(11, "fisher", 13)).expect("first query");
    let repeat = client.query(&fast_spec(12, "fisher", 13)).expect("repeat query");
    // Identical work, different request ids: the ranking is computed once
    // and served warm afterwards.
    assert!(first.ranking_computes >= 1, "{first:?}");
    assert!(repeat.ranking_hits >= 1, "warm pool must serve the repeat: {repeat:?}");
    assert_eq!(repeat.ranking_computes, 0, "repeat must not recompute: {repeat:?}");

    // And the results themselves are bit-identical apart from the id.
    let mut renamed = repeat.clone();
    renamed.req_id = first.req_id;
    renamed.elapsed_ms = first.elapsed_ms;
    renamed.model_fits = first.model_fits;
    renamed.ranking_computes = first.ranking_computes;
    renamed.ranking_hits = first.ranking_hits;
    assert_eq!(renamed.fingerprint(), first.fingerprint());
    handle.drain();
}

#[test]
fn warm_eval_memo_is_reused_across_requests() {
    let mut handle = test_server(ServerFaultPlan::new(), 1);
    let addr = handle.addr();
    let client = test_client(addr);

    let first = client.query(&fast_spec(21, "sfs", 13)).expect("first query");
    let repeat = client.query(&fast_spec(22, "sfs", 13)).expect("repeat query");
    // Identical work, different request ids: every subset the repeat
    // proposes was already measured, so the shared evaluation memo
    // (DESIGN.md § 4h) serves it without fitting a single model.
    assert!(first.model_fits >= 1, "{first:?}");
    assert_eq!(repeat.model_fits, 0, "memo must serve the repeat warm: {repeat:?}");

    // And warm answers are bit-identical apart from the id.
    let mut renamed = repeat.clone();
    renamed.req_id = first.req_id;
    renamed.elapsed_ms = first.elapsed_ms;
    renamed.model_fits = first.model_fits;
    renamed.ranking_computes = first.ranking_computes;
    renamed.ranking_hits = first.ranking_hits;
    assert_eq!(renamed.fingerprint(), first.fingerprint());

    // A *different* strategy still profits: SFFS walks the same forward
    // prefix SFS already measured, so its cross-strategy overlap comes
    // out of the memo too.
    let overlap = client.query(&fast_spec(23, "sffs", 13)).expect("overlap query");
    assert!(
        overlap.model_fits < first.model_fits,
        "cross-strategy overlap must hit the memo: sffs {} vs sfs {}",
        overlap.model_fits,
        first.model_fits
    );
    handle.drain();
}

#[test]
fn repeated_rfe_and_min_safety_requests_refit_nothing() {
    // RFE ranks by the importances of fitted models, and a Min-Safety
    // search leaves attack-free lower bounds out of the memo, so their
    // repeats need the models themselves, not just the measurements. The
    // daemon keeps each cached split's models with it. Min F1 is out of
    // reach, so every search runs to its evaluation cap.
    let mut handle = test_server(ServerFaultPlan::new(), 1);
    let client = test_client(handle.addr());
    let cases = [
        ("rfe", "dt", None),
        ("rfe", "nb", None),
        ("sfs", "lr", Some(0.8)),
        ("sbs", "lr", Some(0.8)),
    ];
    for (i, (strategy, model, min_safety)) in cases.into_iter().enumerate() {
        let spec = |req_id: u64| {
            let mut spec = fast_spec(req_id, strategy, 13);
            spec.model = model.into();
            spec.min_f1 = 0.99;
            spec.min_safety = min_safety;
            spec
        };
        let req = 31 + 2 * i as u64;
        let first = client.query(&spec(req)).expect("first query");
        let mut repeat = client.query(&spec(req + 1)).expect("repeat query");
        assert!(first.model_fits >= 1, "{strategy} {model}: {first:?}");
        assert_eq!(repeat.model_fits, 0, "{strategy} {model}: the repeat refit: {repeat:?}");
        repeat.req_id = first.req_id;
        assert_eq!(repeat.fingerprint(), first.fingerprint(), "{strategy} {model}");
    }
    handle.drain();
}

#[test]
fn shutdown_requester_gets_bye_when_the_host_drains_at_once() {
    // The CLI host drains as soon as `shutdown_requested()` turns true.
    // Drain severs every connection with no response pending, so the
    // requester's `Bye` must count as pending until it is written. Hosts
    // run in parallel so handler threads get preempted between the flag
    // and the write.
    let hosts: Vec<_> = (0..4)
        .map(|host| {
            std::thread::spawn(move || {
                for round in 0..250 {
                    let mut handle = test_server(ServerFaultPlan::new(), 1);
                    let addr = handle.addr();
                    let requester = std::thread::spawn(move || {
                        test_client(addr).request_raw(&Request::Shutdown)
                    });
                    while !handle.shutdown_requested() {
                        std::thread::yield_now();
                    }
                    handle.drain();
                    let reply = requester.join().expect("requester thread");
                    assert!(
                        matches!(reply, Ok(Response::Bye)),
                        "host {host} round {round}: {reply:?}"
                    );
                }
            })
        })
        .collect();
    for host in hosts {
        host.join().expect("host thread");
    }
}

#[test]
fn a_warm_repeat_is_answered_while_both_workers_are_parked() {
    let mut chaos = ServerFaultPlan::new();
    let holds = [chaos.hold(71), chaos.hold(72)];
    let mut handle = test_server(chaos, 1);
    let addr = handle.addr();
    let client = test_client(addr);
    let first = client.query(&fast_spec(70, "sfs", 13)).expect("first query");

    // Both workers park on held queries, and a cold query waits behind
    // them in the queue.
    let parked: Vec<_> = [71u64, 72]
        .into_iter()
        .map(|req| {
            std::thread::spawn(move || test_client(addr).query(&fast_spec(req, "variance", 21)))
        })
        .collect();
    for hold in &holds {
        assert!(hold.wait_entered(Duration::from_secs(30)), "a held query reached a worker");
    }
    let cold = std::thread::spawn(move || test_client(addr).query(&fast_spec(73, "sfs", 29)));
    wait_queued(&handle, 1);

    // The repeat needs no worker: the connection thread answers it.
    let before = client.stats().expect("stats");
    let mut repeat = client.query(&fast_spec(74, "sfs", 13)).expect("warm repeat");
    let after = client.stats().expect("stats");
    assert_eq!(handle.queued(), 1, "the cold query is still queued");
    assert_eq!(repeat.model_fits, 0, "{repeat:?}");
    repeat.req_id = first.req_id;
    assert_eq!(repeat.fingerprint(), first.fingerprint());
    assert_eq!(after.served, before.served + 1);
    let waits =
        |s: &dfs_repro::proto::ServerStats| s.queue_hist.split(';').next().map(str::to_owned);
    assert_eq!(waits(&after), waits(&before), "a warm answer records no queue wait");

    for hold in &holds {
        hold.release();
    }
    for run in parked {
        run.join().expect("join").expect("a parked query completes");
    }
    cold.join().expect("join").expect("the queued query completes");
    handle.drain();
}

#[test]
fn a_warm_repeat_past_its_deadline_reports_the_search_phase() {
    // Every proposal is over the feature cap, so pruned for free: the
    // search only ends at its 4 s budget, far past the 300 ms deadline.
    let spec = |req_id: u64| {
        let mut spec = QuerySpec::example(req_id);
        spec.strategy = "tpe".into();
        spec.model = "nb".into();
        spec.max_feature_frac = Some(0.01);
        spec.min_f1 = 0.99;
        spec.time_ms = 4000;
        spec.deadline_ms = Some(300);
        spec
    };
    let mut handle = test_server(ServerFaultPlan::new(), 1);
    let client = test_client(handle.addr());
    let deadline_error = |req_id: u64| {
        let err = client.query(&spec(req_id)).expect_err("the deadline passes first");
        let wire = err.wire().expect("server-classified error").clone();
        assert_eq!(wire.code, ErrorCode::DeadlineExceeded, "req {req_id}: {wire:?}");
        wire
    };
    deadline_error(81);
    // The repeat measures nothing: it dies searching, answered by the
    // connection thread's warm attempt, not by the queue.
    let repeat = deadline_error(82);
    assert_eq!(repeat.phase.as_deref(), Some("search"), "{repeat:?}");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.deadline_exceeded, 2, "{stats:?}");
    assert!(stats.queue_hist.starts_with("1;"), "only the first query queued: {stats:?}");
    handle.drain();
}
