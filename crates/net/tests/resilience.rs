//! Client deadline/retry semantics and server overload protection,
//! pinned on loopback:
//!
//! * a connect to a peer that accepts but never speaks fails within the
//!   connect budget, not forever;
//! * a stalled handler trips the per-request deadline with a typed
//!   [`SfcError::DeadlineExceeded`];
//! * idempotent requests retry through a severed connection to success;
//!   writes never auto-retry — an orphaned write surfaces the typed
//!   [`SfcError::AmbiguousWrite`];
//! * a server over its admission cap answers with a typed
//!   [`SfcError::Unavailable`] busy frame (pre-execution: nothing ran);
//! * a clean close and a torn frame are distinct error classes;
//! * idle connections are reaped, and shutdown drains within its
//!   deadline even with connections open;
//! * a request or response over `MAX_FRAME` is refused with a typed
//!   error before any byte of it is sent, and the connection serves on.

use onion_core::{Point, SfcError};
use sfc_baselines::{curve_2d, DynCurve};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request};
use sfc_index::{DiskModel, ShardedTable};
use sfc_net::{
    Client, NetConfig, RetryPolicy, Server, ServerConfig, MAX_FRAME, NET_MAGIC, PROTOCOL_VERSION,
};
use sfc_workloads::{ChaosInjector, ChaosProxy};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIDE: u32 = 16;

fn mk_engine(shards: usize) -> Arc<Engine<DynCurve<2>, u64, 2>> {
    let curve = curve_2d("onion", SIDE).unwrap();
    let table = ShardedTable::build(curve, Vec::new(), DiskModel::ssd(), shards).unwrap();
    Arc::new(Engine::new(table, EngineConfig::with_epoch_ops(1 << 20)))
}

fn fast_net() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_millis(500),
        request_deadline: Some(Duration::from_millis(500)),
        retry: RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
        },
    }
}

/// The 10-byte preamble both sides exchange.
fn hello_bytes() -> [u8; 10] {
    let mut hello = [0u8; 10];
    hello[..8].copy_from_slice(&NET_MAGIC);
    hello[8..].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    hello
}

/// A raw fake server for protocol-edge tests: accepts one connection
/// and hands it to `serve`.
fn fake_server(
    serve: impl FnOnce(TcpStream) + Send + 'static,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            serve(stream);
        }
    });
    (addr, handle)
}

#[test]
fn connect_to_a_silent_peer_fails_within_the_budget() {
    // Accepts, then says nothing: no hello, ever.
    let (addr, handle) = fake_server(|stream| {
        std::thread::sleep(Duration::from_millis(600));
        drop(stream);
    });
    let start = Instant::now();
    let err = match Client::<DynCurve<2>, u64, 2>::connect_with(
        &addr,
        NetConfig {
            connect_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        },
    ) {
        Ok(_) => panic!("connect to a silent peer must fail"),
        Err(e) => e,
    };
    assert!(
        matches!(err, SfcError::DeadlineExceeded { .. }),
        "silent peer must trip the connect budget, got {err:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "connect returned in {:?}, not within the budget",
        start.elapsed()
    );
    handle.join().unwrap();
}

#[test]
fn stalled_handler_trips_the_request_deadline() {
    // Speaks the preamble, then swallows every request without
    // answering — on every connection, so the deadline-poisoned
    // client's reconnect meets the same stall.
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let mut handlers = Vec::new();
        while !stop2.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let stop = Arc::clone(&stop2);
                    handlers.push(std::thread::spawn(move || {
                        stream.set_nonblocking(false).unwrap();
                        let mut buf = [0u8; 1024];
                        if stream.read_exact(&mut buf[..10]).is_err() {
                            return;
                        }
                        stream.write_all(&hello_bytes()).unwrap();
                        stream
                            .set_read_timeout(Some(Duration::from_millis(20)))
                            .unwrap();
                        while !stop.load(Ordering::Acquire) {
                            let _ = stream.read(&mut buf); // consume, never reply
                        }
                    }));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        for h in handlers {
            let _ = h.join();
        }
    });
    let mut client = Client::<DynCurve<2>, u64, 2>::connect_with(
        &addr,
        NetConfig {
            connect_timeout: Duration::from_millis(500),
            request_deadline: Some(Duration::from_millis(150)),
            retry: RetryPolicy::none(),
        },
    )
    .unwrap();
    let start = Instant::now();
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, SfcError::DeadlineExceeded { .. }),
        "stalled handler must trip the deadline, got {err:?}"
    );
    assert!(start.elapsed() >= Duration::from_millis(150));
    assert!(start.elapsed() < Duration::from_secs(2));

    // The same stall under a *write* is an ambiguous outcome: the bytes
    // left, the response never came — the client must say so, typed.
    let err = client.insert(Point::new([1, 1]), 7).unwrap_err();
    assert!(
        matches!(err, SfcError::AmbiguousWrite { .. }),
        "a write that failed after send must be ambiguous, got {err:?}"
    );
    stop.store(true, Ordering::Release);
    handle.join().unwrap();
}

#[test]
fn idempotent_requests_retry_through_a_severed_connection() {
    let engine = mk_engine(2);
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let inj = ChaosInjector::new();
    let proxy = ChaosProxy::spawn(&server.local_addr().to_string(), Arc::clone(&inj)).unwrap();
    let mut client =
        Client::<DynCurve<2>, u64, 2>::connect_with(&proxy.addr(), fast_net()).unwrap();
    client.update(Point::new([2, 3]), 42).unwrap();
    client.flush().unwrap();

    // Sever the live connection; the next read must heal transparently.
    assert_eq!(proxy.kill_all(), 1);
    assert_eq!(
        client.get(Point::new([2, 3])).unwrap(),
        Some(42),
        "an idempotent request must retry through the blip"
    );

    // And again for a query-class verb.
    proxy.kill_all();
    assert_eq!(client.stats().unwrap().epochs, 1);

    proxy.shutdown();
    server.shutdown();
}

#[test]
fn writes_never_auto_retry() {
    let engine = mk_engine(1);
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let inj = ChaosInjector::new();
    let proxy = ChaosProxy::spawn(&server.local_addr().to_string(), Arc::clone(&inj)).unwrap();
    let mut client =
        Client::<DynCurve<2>, u64, 2>::connect_with(&proxy.addr(), fast_net()).unwrap();
    client.ping().unwrap();

    // Sever, then write: the generous retry policy must NOT apply — the
    // failure surfaces as a typed ambiguous outcome on the first error.
    proxy.kill_all();
    let err = client.insert(Point::new([5, 5]), 99).unwrap_err();
    assert!(
        matches!(err, SfcError::AmbiguousWrite { .. }),
        "a write through a severed connection must be ambiguous, got {err:?}"
    );
    let text = err.to_string();
    assert!(text.contains("Insert"), "the verb is named: {text}");

    // The caller decides: a re-read shows the write did not land, and an
    // explicit re-issue succeeds over the healed connection.
    assert_eq!(client.get(Point::new([5, 5])).unwrap(), None);
    client.insert(Point::new([5, 5]), 99).unwrap();
    client.flush().unwrap();
    assert_eq!(client.get(Point::new([5, 5])).unwrap(), Some(99));

    proxy.shutdown();
    server.shutdown();
}

#[test]
fn admission_cap_answers_busy_typed_and_recovers() {
    let engine = mk_engine(1);
    let server = Server::spawn_with(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut first = Client::<DynCurve<2>, u64, 2>::connect(&addr).unwrap();
    first.ping().unwrap();
    assert_eq!(server.active_connections(), 1);

    // Over the cap: the refusal is a typed, pre-execution busy error.
    let mut second = Client::<DynCurve<2>, u64, 2>::connect_with(
        &addr,
        NetConfig {
            retry: RetryPolicy::none(),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let err = second.ping().unwrap_err();
    assert!(
        matches!(err, SfcError::Unavailable { .. }),
        "over-cap connections get the typed busy error, got {err:?}"
    );
    assert!(err.is_pre_execution(), "busy is safe to retry for any verb");

    // A busy write was never admitted either — same typed refusal, not
    // an ambiguous outcome.
    let mut third = Client::<DynCurve<2>, u64, 2>::connect_with(
        &addr,
        NetConfig {
            retry: RetryPolicy::none(),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let err = third.insert(Point::new([1, 2]), 3).unwrap_err();
    assert!(
        matches!(err, SfcError::Unavailable { .. }),
        "a refused write is Unavailable (pre-execution), got {err:?}"
    );

    // Free the slot; an idempotent client with retries rides it out.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut probe = Client::<DynCurve<2>, u64, 2>::connect_with(&addr, fast_net()).unwrap();
        if probe.ping().is_ok() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slot never freed after the first client left"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn clean_close_and_torn_frame_are_distinct() {
    // Clean: hello, then close at a frame boundary.
    let (addr, handle) = fake_server(|mut stream| {
        let mut buf = [0u8; 10];
        stream.read_exact(&mut buf).unwrap();
        stream.write_all(&hello_bytes()).unwrap();
        // Read the request frame so the close happens after the send.
        let mut req = [0u8; 256];
        let _ = stream.read(&mut req);
    });
    let mut client = Client::<DynCurve<2>, u64, 2>::connect_with(
        &addr,
        NetConfig {
            connect_timeout: Duration::from_millis(500),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, SfcError::ConnectionLost { .. }),
        "a close at a frame boundary is ConnectionLost, got {err:?}"
    );
    assert!(err.is_transport());
    handle.join().unwrap();

    // Torn: hello, then half a response frame, then close.
    let (addr, handle) = fake_server(|mut stream| {
        let mut buf = [0u8; 10];
        stream.read_exact(&mut buf).unwrap();
        stream.write_all(&hello_bytes()).unwrap();
        let mut req = [0u8; 256];
        let _ = stream.read(&mut req);
        // A frame header promising 100 payload bytes, then only 10.
        let mut torn = Vec::new();
        torn.extend_from_slice(&100u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(&[0u8; 10]);
        stream.write_all(&torn).unwrap();
    });
    let mut client = Client::<DynCurve<2>, u64, 2>::connect_with(
        &addr,
        NetConfig {
            connect_timeout: Duration::from_millis(500),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, SfcError::TornFrame { .. }),
        "a close mid-frame is TornFrame, got {err:?}"
    );
    assert!(err.is_transport());
    handle.join().unwrap();
}

#[test]
fn idle_connections_are_reaped_and_clients_heal() {
    let engine = mk_engine(1);
    let server = Server::spawn_with(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(120)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::<DynCurve<2>, u64, 2>::connect_with(&addr, fast_net()).unwrap();
    client.ping().unwrap();
    assert_eq!(server.active_connections(), 1);

    // Go idle past the deadline: the server reaps the slot.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.active_connections() > 0 {
        assert!(Instant::now() < deadline, "idle connection never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The reconnecting client heals on its next idempotent request.
    client.ping().unwrap();
    assert_eq!(server.active_connections(), 1);
    server.shutdown();
}

#[test]
fn shutdown_drains_within_its_deadline_with_connections_open() {
    let engine = mk_engine(1);
    let server = Server::spawn_with(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            drain_deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    // Three idle-but-open connections, one of them a subscriber stream.
    let mut a = Client::<DynCurve<2>, u64, 2>::connect(&addr).unwrap();
    let mut b = Client::<DynCurve<2>, u64, 2>::connect(&addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();
    let _stream = Client::<DynCurve<2>, u64, 2>::connect(&addr)
        .unwrap()
        .subscribe_epochs(0)
        .unwrap();
    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} with open connections",
        start.elapsed()
    );
}

fn mk_blob_engine(records: Vec<(Point<2>, Vec<u8>)>) -> Arc<Engine<DynCurve<2>, Vec<u8>, 2>> {
    let curve = curve_2d("onion", SIDE).unwrap();
    let table = ShardedTable::build(curve, records, DiskModel::ssd(), 1).unwrap();
    Arc::new(Engine::new(table, EngineConfig::with_epoch_ops(1 << 20)))
}

/// Asserts a typed storage error naming `MAX_FRAME`.
fn assert_oversize(err: &SfcError) {
    let SfcError::Storage { context } = err else {
        panic!("an oversize frame must be a typed storage error, got {err:?}");
    };
    assert!(context.contains("MAX_FRAME"), "{context}");
}

#[test]
fn oversize_request_is_refused_before_sending() {
    let engine = mk_blob_engine(Vec::new());
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::<DynCurve<2>, Vec<u8>, 2>::connect_with(
        &server.local_addr().to_string(),
        fast_net(),
    )
    .unwrap();
    let p = Point::new([1, 1]);
    let err = client
        .execute(Request::Update(p, vec![7; MAX_FRAME as usize + 1]))
        .unwrap_err();
    // Not `AmbiguousWrite`: no byte of the request left the client.
    assert_oversize(&err);
    assert_eq!(engine.stats().writes, 0, "the write was not admitted");

    client.update(p, vec![7; 16]).unwrap();
    client.flush().unwrap();
    assert_eq!(client.get(p).unwrap(), Some(vec![7; 16]));
    assert_eq!(engine.stats().writes, 1);
    server.shutdown();
}

#[test]
fn oversize_response_is_answered_typed_and_the_connection_serves_on() {
    let half = MAX_FRAME as usize / 2 + 16;
    let engine = mk_blob_engine(vec![
        (Point::new([1, 1]), vec![1; half]),
        (Point::new([2, 2]), vec![2; half]),
        (Point::new([9, 9]), vec![9; 16]),
    ]);
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::<DynCurve<2>, Vec<u8>, 2>::connect_with(
        &server.local_addr().to_string(),
        fast_net(),
    )
    .unwrap();
    let both = RectQuery::new([0, 0], [4, 4]).unwrap();
    let err = client.query(both).unwrap_err();
    assert_oversize(&err);
    // A typed answer, not a transport failure: nothing was retried.
    assert_eq!(engine.stats().queries, 1, "the query ran exactly once");

    assert_eq!(client.get(Point::new([9, 9])).unwrap(), Some(vec![9; 16]));
    assert_eq!(server.active_connections(), 1);
    server.shutdown();
}
