//! Loopback integration: the remote transport is invisible.
//!
//! * **Byte identity, every curve, 1/2/5 shards:** a remote [`Client`]
//!   driving a server over TCP and an in-process twin engine driven
//!   through `Engine::execute` return equal results, with byte-identical
//!   encodings (`Err(e)` framed as `Response::Error(e)`), for an entire
//!   mixed op stream — data plane, admin verbs, and errors alike — for
//!   every curve in the baseline registry;
//! * **Disk-resident serving:** the same identity holds for a
//!   `FileBackend` engine whose leaf cache is smaller than its data;
//! * **Typed error transport:** out-of-bounds reads and writes and a
//!   refused checkpoint fail remotely with exactly the `SfcError` a
//!   local caller gets — never as an ambiguous write;
//! * **Concurrent clients:** N connections hammer one engine and every
//!   admitted write lands exactly once;
//! * **Protocol hygiene:** a garbage preamble is rejected; a corrupt
//!   frame poisons only its own connection; the next connection works.

use onion_core::{Point, SfcError};
use rand::SeedableRng;
use sfc_baselines::{curve_2d, DynCurve, CURVE_NAMES};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request, Response};
use sfc_index::{Backend, DiskModel, FileBackend, QueryOptions, Record, StoreConfig, WalCodec};
use sfc_net::{Client, Server};
use sfc_workloads::{mixed_op_stream, OpMix};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;

const SIDE: u32 = 16;

fn mk_engine(curve_name: &str, shards: usize) -> Engine<DynCurve<2>, u64, 2> {
    let curve = curve_2d(curve_name, SIDE).unwrap();
    let initial = (0..SIDE)
        .map(|i| (Point::new([i, (i * 7) % SIDE]), u64::from(i)))
        .collect();
    let table = sfc_index::ShardedTable::build(curve, initial, DiskModel::ssd(), shards).unwrap();
    // Manual flushes only: both twins must flush at identical stream
    // positions for their epochs (and Admitted receipts) to line up.
    Engine::new(table, EngineConfig::with_epoch_ops(1 << 20))
}

/// A disk-resident twin: an empty `FileBackend` engine under `dir`
/// whose 2-page leaf cache per shard is smaller than the 256 records
/// loaded into it (checkpointed, so they sit in segment files).
fn open_disk(dir: &Path, curve_name: &str, shards: usize) -> Engine<DynCurve<2>, u64, 2, Disk> {
    let store = StoreConfig {
        page_size: 256,
        pool_pages: 2,
    };
    let curve = curve_2d(curve_name, SIDE).unwrap();
    let config = EngineConfig::with_epoch_ops(1 << 20);
    let engine = Engine::open_stored(dir, curve, DiskModel::ssd(), shards, store, config).unwrap();
    for x in 0..SIDE {
        for y in 0..SIDE {
            engine
                .execute(Request::Insert(Point::new([x, y]), u64::from(x * SIDE + y)))
                .unwrap();
        }
    }
    engine.checkpoint().unwrap();
    // Even a repeated full scan reads from disk: the cache cannot hold
    // the data.
    let full = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
    let scan = || engine.table().query_rect(&full, &QueryOptions::default());
    scan().unwrap();
    assert!(
        scan().unwrap().io.real_reads > 0,
        "the leaf cache holds all data"
    );
    engine
}

type Disk = FileBackend<Record<2, u64>>;

fn connect(server: &Server) -> Client<DynCurve<2>, u64, 2> {
    Client::connect(&server.local_addr().to_string()).unwrap()
}

/// The wire form of a result: the response itself, or the error framed
/// as `Response::Error` — what the server sends for it.
fn encoded<const D: usize, V: WalCodec>(result: &Result<Response<D, V>, SfcError>) -> Vec<u8> {
    let mut buf = Vec::new();
    match result {
        Ok(resp) => resp.encode(&mut buf),
        Err(e) => Response::<D, V>::Error(e.clone()).encode(&mut buf),
    }
    buf
}

/// Remote client and in-process twin answer every request with the same
/// bytes — the loopback pin of "the transport is invisible".
#[test]
fn remote_replies_are_byte_identical_to_in_process_execution() {
    for curve_name in CURVE_NAMES {
        for shards in [1usize, 2, 5] {
            let local = mk_engine(curve_name, shards);
            let remote_engine = Arc::new(mk_engine(curve_name, shards));
            let server = Server::spawn(Arc::clone(&remote_engine), "127.0.0.1:0").unwrap();
            let mut client = connect(&server);
            let admin_q = RectQuery::new([2, 2], [5, 5]).unwrap();
            let admin = [
                Request::Flush,
                Request::Stats,
                Request::Explain(admin_q),
                Request::Ping,
                Request::Checkpoint, // in-memory: identical typed error
            ];
            let ctx = format!("{curve_name}/{shards} shards");
            drive_twins(&local, &mut client, shards, &admin, &ctx);
            server.shutdown();
        }
    }
}

/// A disk-resident engine served over TCP answers exactly as its
/// in-process twin: data-plane, `Flush` and `Checkpoint` answers are
/// equal byte for byte. `Explain` and `Stats` stay out: on a
/// `FileBackend` engine the planner's wall-clock fit and the WAL sync
/// pipeline make them timing-dependent.
#[test]
fn disk_resident_engine_serves_byte_identical_replies() {
    for curve_name in ["onion", "hilbert", "z-order"] {
        for shards in [1usize, 2, 5] {
            let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
                "loopback-disk-{curve_name}-{shards}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let local = open_disk(&root.join("local"), curve_name, shards);
            let remote_engine = Arc::new(open_disk(&root.join("remote"), curve_name, shards));
            let server = Server::spawn(Arc::clone(&remote_engine), "127.0.0.1:0").unwrap();
            let mut client = connect(&server);
            let admin = [Request::Flush, Request::Checkpoint];
            let ctx = format!("disk {curve_name}/{shards} shards");
            drive_twins(&local, &mut client, shards, &admin, &ctx);
            server.shutdown();
            // Close both engines (joining their WAL sync threads) before
            // their directories go.
            drop(remote_engine);
            drop(local);
            std::fs::remove_dir_all(&root).unwrap();
        }
    }
}

/// Drives the in-process twin `local` and the served engine behind
/// `client` with one mixed op stream, `admin` riding along every 25
/// ops, and checks every answer pair.
fn drive_twins<B>(
    local: &Engine<DynCurve<2>, u64, 2, B>,
    client: &mut Client<DynCurve<2>, u64, 2>,
    shards: usize,
    admin: &[Request<2, u64>],
    ctx: &str,
) where
    B: Backend<Record<2, u64>> + Send + Sync,
{
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE ^ shards as u64);
    let stream = mixed_op_stream::<2, _>(SIDE, 150, &OpMix::balanced(), 0.7, 6, &mut rng);
    for (i, stream_op) in stream.into_iter().enumerate() {
        check_identical(local, client, stream_op.into(), ctx, i);
        if i % 25 == 24 {
            // Admin verbs ride along at fixed stream positions.
            for request in admin {
                check_identical(local, client, request.clone(), ctx, i);
            }
        }
    }
}

fn check_identical<B>(
    local: &Engine<DynCurve<2>, u64, 2, B>,
    client: &mut Client<DynCurve<2>, u64, 2>,
    request: Request<2, u64>,
    ctx: &str,
    i: usize,
) where
    B: Backend<Record<2, u64>> + Send + Sync,
{
    let verb = request.verb();
    let local_result = local.execute(request.clone());
    let remote_result = client.execute(request);
    assert_eq!(
        local_result, remote_result,
        "[{ctx}, op {i} {verb}] remote result diverged"
    );
    assert_eq!(
        encoded(&local_result),
        encoded(&remote_result),
        "[{ctx}, op {i} {verb}] encodings diverged"
    );
}

/// A remote failure is the same typed error a local caller gets. For
/// writes this pins the order of the client's unwrapping: a server's
/// typed refusal must surface as itself, not as an ambiguous write.
#[test]
fn errors_travel_typed() {
    let local = mk_engine("onion", 2);
    let engine = Arc::new(mk_engine("onion", 2));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = connect(&server);

    let outside = Point::new([SIDE + 3, 1]);
    let out_of_bounds = SfcError::PointOutOfBounds {
        point: String::new(),
        side: 0,
    }
    .code();
    let storage = SfcError::Storage {
        context: String::new(),
    }
    .code();
    for (request, code) in [
        (Request::Get(outside), out_of_bounds),
        (Request::Insert(outside, 7), out_of_bounds),
        (Request::Update(outside, 7), out_of_bounds),
        // An in-memory engine has no WAL to compact.
        (Request::Checkpoint, storage),
    ] {
        let verb = request.verb();
        let local_err = local.execute(request.clone()).unwrap_err();
        let remote_err = client.execute(request).unwrap_err();
        assert_eq!(local_err.code(), code, "{verb}: local error {local_err:?}");
        assert_eq!(local_err, remote_err, "{verb}");
        assert_eq!(local_err.code(), remote_err.code(), "{verb}");
    }

    // The connection survives the error: the next request is served.
    assert_eq!(client.get(Point::new([1, 1])).unwrap(), None);
    server.shutdown();
}

/// N concurrent connections: every admitted write lands exactly once.
#[test]
fn concurrent_clients_land_every_write_exactly_once() {
    const CLIENTS: usize = 4;
    const WRITES: u32 = 40;
    let engine = Arc::new(mk_engine("onion", 2));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::<DynCurve<2>, u64, 2>::connect(&addr).unwrap();
                for i in 0..WRITES {
                    // Disjoint points per client: no cross-client dupes.
                    let p = Point::new([(c as u32 * 4) % SIDE + i % 4, i * 4 / SIDE]);
                    client.insert(p, (c as u64) << 32 | u64::from(i)).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut client = Client::<DynCurve<2>, u64, 2>::connect(&addr).unwrap();
    client.flush().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.writes, CLIENTS as u64 * u64::from(WRITES));
    assert_eq!(stats.pending, 0);
    let all = client
        .query(RectQuery::new([0, 0], [SIDE, SIDE]).unwrap())
        .unwrap();
    // Initial seed records + every concurrent insert.
    assert_eq!(all.len(), SIDE as usize + CLIENTS * WRITES as usize);
    server.shutdown();
}

/// A peer speaking the wrong protocol is rejected at the preamble, and a
/// frame with a corrupt checksum poisons only its own connection.
#[test]
fn bad_preambles_and_corrupt_frames_poison_only_their_connection() {
    let engine = Arc::new(mk_engine("onion", 1));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    // Garbage preamble: the server hangs up without serving frames.
    let mut bad = TcpStream::connect(&addr).unwrap();
    bad.write_all(b"HTTP/1.1 GET / plz").unwrap();
    let mut sink = Vec::new();
    let n = bad.read_to_end(&mut sink).unwrap_or(0);
    // The server may send its own hello before noticing; it must not
    // send any frame beyond it.
    assert!(n <= 10, "server leaked {n} bytes to a bad-magic peer");
    drop(bad);

    // Correct preamble, then a frame whose checksum lies.
    let mut torn = TcpStream::connect(&addr).unwrap();
    let mut hello = [0u8; 10];
    hello[..8].copy_from_slice(&sfc_net::NET_MAGIC);
    hello[8..].copy_from_slice(&sfc_net::PROTOCOL_VERSION.to_le_bytes());
    torn.write_all(&hello).unwrap();
    torn.read_exact(&mut [0u8; 10]).unwrap(); // server hello
    let payload = b"\x00"; // would be Request::Ping...
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes()); // ...but the CRC lies
    frame.extend_from_slice(payload);
    torn.write_all(&frame).unwrap();
    let mut sink = Vec::new();
    assert_eq!(
        torn.read_to_end(&mut sink).unwrap_or(0),
        0,
        "a corrupt frame must poison the connection, not be answered"
    );
    drop(torn);

    // The engine is unharmed and the next well-behaved client is served.
    let mut client = Client::<DynCurve<2>, u64, 2>::connect(&addr).unwrap();
    assert!(client.ping().is_ok());
    server.shutdown();
}
