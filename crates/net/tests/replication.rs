//! Transactor → replica replication, pinned end to end:
//!
//! * **Convergence:** a replica subscribed to a live transactor applies
//!   every committed epoch and converges to query-identical state,
//!   reporting zero lag at quiescence;
//! * **WAL catch-up:** a replica that connects *after* epochs committed
//!   replays them from the transactor's WAL, then hands off to the live
//!   feed without a gap (the exactly-once delivery protocol);
//! * **Time travel:** a replica's retention window answers `query_as_of`
//!   for the same epochs the transactor can, and a durable follower
//!   answers evicted epochs from its own WAL;
//! * **Epoch-prefix consistency (proptest):** any state a replica ever
//!   exposes equals the transactor's state at the replica's applied
//!   epoch — never a torn batch, never a reordering — across random
//!   curves, shard counts, flush schedules and follower backends
//!   (memory, or disk-resident and durable);
//! * **A follower is an engine:** a durable follower's WAL is the
//!   transactor's, byte for byte; a restarted follower resumes from its
//!   recovered epoch past a transactor checkpoint; a disk-resident
//!   follower behind its own `Server` reads like the transactor and
//!   refuses writes with a typed `ReadOnly`, in process and over TCP
//!   alike;
//! * **Durable before shipped:** a pipelining durable transactor ships
//!   an auto-flushed epoch only once its frame is fsynced, so a copy of
//!   its log taken then recovers every epoch a replica applied; and a
//!   chain transactor → served durable follower → follower converges
//!   with every hop reporting its upstream durable at least as far as
//!   it applied.

use onion_core::{Point, SfcError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfc_baselines::{curve_2d, DynCurve, CURVE_NAMES};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request, Response, WAL_FILE};
use sfc_index::{Backend, DiskModel, Record, RetentionPolicy, ShardedTable, StoreConfig};
use sfc_net::{Client, Replica, ReplicaState, Server};
use sfc_workloads::{mixed_op_stream, OpMix, StreamOp};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIDE: u32 = 16;
const FULL: ([u32; 2], [u32; 2]) = ([0, 0], [SIDE, SIDE]);

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mk_memory_engine(curve_name: &str, shards: usize) -> Engine<DynCurve<2>, u64, 2> {
    let curve = curve_2d(curve_name, SIDE).unwrap();
    let table = ShardedTable::build(curve, Vec::new(), DiskModel::ssd(), shards).unwrap();
    Engine::new(table, EngineConfig::with_epoch_ops(1 << 20))
}

fn open_durable(
    dir: &Path,
    curve_name: &str,
    shards: usize,
    config: EngineConfig,
) -> Engine<DynCurve<2>, u64, 2> {
    Engine::open(
        dir,
        curve_2d(curve_name, SIDE).unwrap(),
        DiskModel::ssd(),
        shards,
        config,
    )
    .unwrap()
}

fn full_rect() -> RectQuery<2> {
    RectQuery::new(FULL.0, FULL.1).unwrap()
}

/// Waits until the replica has applied `epoch` (bounded; replication is
/// asynchronous but must converge quickly on loopback).
fn await_applied<B>(replica: &Replica<DynCurve<2>, u64, 2, B>, epoch: u64)
where
    B: Backend<Record<2, u64>> + Send + Sync + 'static,
{
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.engine().epoch() < epoch {
        let status = replica.status();
        assert!(
            status.state != ReplicaState::Failed,
            "replica failed while catching up: {:?}",
            status.last_error
        );
        assert!(
            Instant::now() < deadline,
            "replica stuck at epoch {} (want {epoch})",
            status.applied
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn transactor_records<B>(engine: &Engine<DynCurve<2>, u64, 2, B>) -> Vec<(Point<2>, u64)>
where
    B: Backend<Record<2, u64>> + Send + Sync,
{
    match engine.execute(Request::Query(full_rect())).unwrap() {
        Response::Records(rs) => rs.into_iter().map(|r| (r.point, r.value)).collect(),
        other => panic!("query answered with {other:?}"),
    }
}

fn replica_records<B>(replica: &Replica<DynCurve<2>, u64, 2, B>) -> Vec<(Point<2>, u64)>
where
    B: Backend<Record<2, u64>> + Send + Sync + 'static,
{
    transactor_records(replica.engine())
}

/// Commits `epochs` epochs of 6 updates each straight on `engine`.
fn commit_epochs(engine: &Engine<DynCurve<2>, u64, 2>, epochs: std::ops::Range<u64>) {
    for epoch in epochs {
        for i in 0..6u32 {
            let p = Point::new([(i + epoch as u32) % SIDE, epoch as u32 % SIDE]);
            engine
                .execute(Request::Update(p, epoch * 100 + u64::from(i)))
                .unwrap();
        }
        engine.flush().unwrap();
    }
}

/// Live replication: subscribe first, then write — the replica applies
/// every epoch, converges to query-identical state, and reports lag 0.
#[test]
fn replica_converges_and_reports_lag() {
    let engine = Arc::new(mk_memory_engine("onion", 2));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    // Replica re-partitions: 3 shards against the transactor's 2.
    let replica = Replica::start(&addr, mk_memory_engine("onion", 3)).unwrap();
    assert_eq!(replica.status().applied, 0);
    assert!(replica.engine().table().is_empty());

    let mut client = Client::<DynCurve<2>, u64, 2>::connect(&addr).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let stream = mixed_op_stream::<2, _>(SIDE, 200, &OpMix::balanced(), 0.6, 5, &mut rng);
    let mut epochs = 0;
    for (i, op) in stream.into_iter().enumerate() {
        client.execute(op.into()).unwrap();
        if i % 40 == 39 {
            client.flush().unwrap();
            epochs += 1;
        }
    }
    client.flush().unwrap(); // flush the tail (may be a no-op epoch)
    let committed = engine.stats().epochs;
    assert!(committed >= epochs, "at least every forced flush committed");

    await_applied(&replica, committed);
    assert_eq!(replica.status().applied, committed);
    assert_eq!(
        replica.status().lag,
        0,
        "quiescent replica must report zero lag"
    );
    assert_eq!(replica_records(&replica), transactor_records(&engine));
    assert_eq!(
        replica.engine().table().len(),
        transactor_records(&engine).len()
    );
    assert_ne!(replica.status().state, ReplicaState::Failed);

    replica.stop();
    server.shutdown();
}

/// A replica that connects late replays committed epochs from the WAL,
/// then switches to the live feed with no gap and no duplicate.
#[test]
fn late_replica_catches_up_from_the_wal_and_hands_off_live() {
    let dir = test_dir("net-wal-catchup");
    let engine = Arc::new(
        Engine::<DynCurve<2>, u64, 2>::open(
            &dir,
            curve_2d("hilbert", SIDE).unwrap(),
            DiskModel::ssd(),
            2,
            EngineConfig::with_epoch_ops(1 << 20),
        )
        .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(21);
    let stream = mixed_op_stream::<2, _>(SIDE, 120, &OpMix::write_only(), 0.5, 4, &mut rng);
    let (before, after) = stream.split_at(80);

    // Commit four epochs before any replica exists.
    for (i, op) in before.iter().enumerate() {
        engine.execute(op.clone().into()).unwrap();
        if i % 20 == 19 {
            engine.flush().unwrap();
        }
    }
    let committed_before = engine.stats().epochs;
    assert_eq!(committed_before, 4);

    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let replica = Replica::start(
        &server.local_addr().to_string(),
        mk_memory_engine("hilbert", 5),
    )
    .unwrap();
    await_applied(&replica, committed_before);

    // Now keep committing: the stream must hand off to the live feed.
    for (i, op) in after.iter().enumerate() {
        engine.execute(op.clone().into()).unwrap();
        if i % 20 == 19 {
            engine.flush().unwrap();
        }
    }
    let committed = engine.stats().epochs;
    await_applied(&replica, committed);
    assert_eq!(replica_records(&replica), transactor_records(&engine));
    assert_eq!(replica.status().lag, 0);
    let status = replica.status();
    assert!(
        status.state != ReplicaState::Failed,
        "{:?}",
        status.last_error
    );

    replica.stop();
    server.shutdown();
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The replica's retention window answers the same time-travel reads the
/// transactor can, epoch for epoch.
#[test]
fn replica_time_travel_matches_the_transactor() {
    let engine = Arc::new(mk_memory_engine("z-order", 1));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let replica = Replica::start(
        &server.local_addr().to_string(),
        mk_memory_engine("z-order", 2),
    )
    .unwrap();

    let mut client =
        Client::<DynCurve<2>, u64, 2>::connect(&server.local_addr().to_string()).unwrap();
    for epoch in 0..5u64 {
        for i in 0..6u32 {
            client
                .update(
                    Point::new([i, epoch as u32 % SIDE]),
                    epoch * 100 + u64::from(i),
                )
                .unwrap();
        }
        client.flush().unwrap();
    }
    let committed = engine.stats().epochs;
    await_applied(&replica, committed);

    let q = full_rect();
    for epoch in 1..=committed {
        let from_replica = replica.engine().query_as_of(epoch, &q).unwrap().records;
        let from_transactor = match engine
            .execute(Request::QueryAsOf { epoch, query: q })
            .unwrap()
        {
            Response::Records(rs) => rs,
            other => panic!("QueryAsOf answered with {other:?}"),
        };
        assert_eq!(
            from_replica, from_transactor,
            "epoch {epoch} time-travel diverged"
        );
    }
    // An unretained epoch is a typed error, not a wrong answer.
    assert!(replica.engine().query_as_of(committed + 10, &q).is_err());

    replica.stop();
    server.shutdown();
}

/// A durable follower logs exactly the epochs the transactor committed,
/// so over the same epochs, with no checkpoint between, its WAL is the
/// transactor's byte for byte — whether an epoch reached it by WAL
/// catch-up or by the live feed, and although the two sides shard
/// differently. That checks the codec and exactly-once delivery without
/// trusting either side.
#[test]
fn durable_follower_logs_the_transactors_wal_byte_for_byte() {
    let dir = test_dir("net-follower-wal-identity");
    let engine = Arc::new(open_durable(
        &dir.join("transactor"),
        "onion",
        2,
        EngineConfig::with_epoch_ops(1 << 20),
    ));
    commit_epochs(&engine, 0..3);
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let follower = open_durable(&dir.join("follower"), "onion", 3, EngineConfig::default());
    let replica = Replica::start(&server.local_addr().to_string(), follower).unwrap();
    commit_epochs(&engine, 3..6);
    await_applied(&replica, 6);
    replica.stop(); // drops the follower: its WAL pipeline drains
    server.shutdown();
    drop(engine);

    let read = |side: &str| std::fs::read(dir.join(side).join(WAL_FILE)).unwrap();
    let transactor_wal = read("transactor");
    assert!(transactor_wal.len() > 64, "six epochs were logged");
    assert!(
        read("follower") == transactor_wal,
        "the follower's WAL differs from the transactor's"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A durable follower restarted after the transactor checkpointed past
/// the epochs it missed... does not need them: it resumes from its own
/// recovered epoch, which the transactor's WAL still reaches.
#[test]
fn restarted_durable_follower_resumes_past_a_transactor_checkpoint() {
    let dir = test_dir("net-follower-restart");
    let engine = Arc::new(open_durable(
        &dir.join("transactor"),
        "hilbert",
        2,
        EngineConfig::with_epoch_ops(1 << 20),
    ));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let follower_dir = dir.join("follower");
    let replica = Replica::start(
        &addr,
        open_durable(&follower_dir, "hilbert", 3, EngineConfig::default()),
    )
    .unwrap();
    commit_epochs(&engine, 0..4);
    await_applied(&replica, 4);
    replica.stop();

    assert_eq!(engine.checkpoint().unwrap(), 4);
    commit_epochs(&engine, 4..6);

    let follower = open_durable(&follower_dir, "hilbert", 3, EngineConfig::default());
    assert_eq!(follower.epoch(), 4, "the follower recovers what it applied");
    let replica = Replica::start(&addr, follower).unwrap();
    await_applied(&replica, 6);
    assert_eq!(replica_records(&replica), transactor_records(&engine));
    let status = replica.status();
    assert_eq!((status.applied, status.last_error), (6, None));

    replica.stop();
    server.shutdown();
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A disk-resident follower is served like any engine: behind its own
/// `Server` it answers the read verbs exactly as the transactor does,
/// and refuses every write with `ReadOnly` (code 14) — the same error
/// in process and over TCP, never an ambiguous write.
#[test]
fn stored_follower_serves_reads_and_refuses_writes_over_tcp() {
    let dir = test_dir("net-follower-stored-serving");
    let engine = Arc::new(mk_memory_engine("onion", 2));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let store = StoreConfig {
        page_size: 256,
        pool_pages: 2,
    };
    let follower = Engine::open_stored(
        &dir,
        curve_2d("onion", SIDE).unwrap(),
        DiskModel::ssd(),
        3,
        store,
        EngineConfig::default(),
    )
    .unwrap();
    let replica = Replica::start(&server.local_addr().to_string(), follower).unwrap();
    commit_epochs(&engine, 0..5);
    await_applied(&replica, 5);

    let follower_server = Server::spawn(Arc::clone(replica.engine()), "127.0.0.1:0").unwrap();
    let mut reader =
        Client::<DynCurve<2>, u64, 2>::connect(&follower_server.local_addr().to_string()).unwrap();
    let q = full_rect();
    let mut reads = vec![Request::Query(q)];
    reads.extend((1..=5).map(|epoch| Request::QueryAsOf { epoch, query: q }));
    reads.extend((0..SIDE).map(|x| Request::Get(Point::new([x, x % 5]))));
    for request in reads {
        let from_transactor = engine.execute(request.clone()).unwrap();
        assert_eq!(reader.execute(request).unwrap(), from_transactor);
    }

    let p = Point::new([1, 1]);
    for write in [
        Request::Insert(p, 1),
        Request::Update(p, 2),
        Request::Delete(p),
    ] {
        let local = replica.engine().execute(write.clone()).unwrap_err();
        assert!(matches!(local, SfcError::ReadOnly { .. }), "{local:?}");
        assert_eq!(local.code(), 14);
        assert_eq!(reader.execute(write).unwrap_err(), local);
    }
    assert_eq!(
        replica.engine().pending(),
        0,
        "no refused write was admitted"
    );
    assert_eq!(replica_records(&replica), transactor_records(&engine));

    follower_server.shutdown();
    replica.stop();
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With no retained versions, a durable follower answers every past
/// epoch by replaying its own `snapshot + WAL prefix` — and the answer
/// is the transactor's.
#[test]
fn durable_follower_answers_cold_time_travel_from_its_own_wal() {
    let dir = test_dir("net-follower-cold-as-of");
    let engine = Arc::new(mk_memory_engine("z-order", 2));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let config = EngineConfig {
        retention: RetentionPolicy {
            epochs: 0,
            ..RetentionPolicy::default()
        },
        ..EngineConfig::default()
    };
    let replica = Replica::start(
        &server.local_addr().to_string(),
        open_durable(&dir, "z-order", 1, config),
    )
    .unwrap();
    commit_epochs(&engine, 0..5);
    await_applied(&replica, 5);

    let q = full_rect();
    for epoch in 1..=5 {
        assert_eq!(
            replica.engine().query_as_of(epoch, &q).unwrap().records,
            engine.query_as_of(epoch, &q).unwrap().records,
            "epoch {epoch} time-travel diverged"
        );
    }

    replica.stop();
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Waits until the replica's last frame reported its upstream durable
/// at least as far as the replica has applied (the `durable` field is
/// stored just after each frame applies).
fn await_durable_covers_applied<B>(replica: &Replica<DynCurve<2>, u64, 2, B>)
where
    B: Backend<Record<2, u64>> + Send + Sync + 'static,
{
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = replica.status();
        if status.durable >= status.applied {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica applied past its upstream's durable epoch: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A transactor that pipelines its commits (auto-flushed epochs, no
/// explicit flush) still ships an epoch only once it is durable: when
/// the replica has applied five epochs, the transactor's log already
/// holds all five, so a crash then could not take back what the replica
/// keeps.
#[test]
fn replica_never_applies_an_epoch_its_transactor_can_still_lose() {
    let dir = test_dir("net-ship-durable");
    let engine = Arc::new(open_durable(
        &dir.join("transactor"),
        "onion",
        2,
        EngineConfig::with_epoch_ops(4),
    ));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let replica = Replica::start(
        &server.local_addr().to_string(),
        mk_memory_engine("onion", 1),
    )
    .unwrap();
    for i in 0..20u32 {
        let p = Point::new([i % SIDE, (i * 7) % SIDE]);
        engine.execute(Request::Update(p, u64::from(i))).unwrap();
    }
    await_applied(&replica, 5);
    assert!(
        engine.durable_epoch() >= 5,
        "shipped epochs must be durable (durable {})",
        engine.durable_epoch()
    );

    // What a crash right now would recover: a copy of the live log.
    let crash_dir = dir.join("crash-copy");
    std::fs::create_dir_all(&crash_dir).unwrap();
    std::fs::copy(
        dir.join("transactor").join(WAL_FILE),
        crash_dir.join(WAL_FILE),
    )
    .unwrap();
    let recovered = open_durable(&crash_dir, "onion", 2, EngineConfig::default());
    assert!(
        recovered.epoch() >= 5,
        "the log lost epochs a replica applied (recovered {})",
        recovered.epoch()
    );

    drop(recovered);
    replica.stop();
    server.shutdown();
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Chained replicas: a served durable follower is itself a transactor
/// for a second follower. The chain converges on the transactor's rows,
/// and each hop ships only epochs it has made durable.
#[test]
fn chained_replicas_converge_through_a_served_durable_follower() {
    let dir = test_dir("net-chained-replicas");
    let engine = Arc::new(open_durable(
        &dir.join("transactor"),
        "onion",
        2,
        EngineConfig::with_epoch_ops(4),
    ));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let r1 = Replica::start(
        &server.local_addr().to_string(),
        open_durable(&dir.join("r1"), "onion", 3, EngineConfig::default()),
    )
    .unwrap();
    let r1_server = Server::spawn(Arc::clone(r1.engine()), "127.0.0.1:0").unwrap();
    let r2 = Replica::start(
        &r1_server.local_addr().to_string(),
        mk_memory_engine("onion", 1),
    )
    .unwrap();

    for i in 0..40u32 {
        let p = Point::new([(i * 3) % SIDE, (i * 5 + i / SIDE) % SIDE]);
        engine
            .execute(Request::Update(p, u64::from(i) * 10))
            .unwrap();
    }
    engine.flush().unwrap();
    let committed = engine.epoch();
    assert_eq!(committed, 10, "40 writes in epochs of 4");

    await_applied(&r1, committed);
    await_applied(&r2, committed);
    assert_eq!(replica_records(&r2), transactor_records(&engine));
    assert_eq!(replica_records(&r1), transactor_records(&engine));
    await_durable_covers_applied(&r1);
    await_durable_covers_applied(&r2);
    for status in [r1.status(), r2.status()] {
        assert_eq!((status.applied, status.last_error), (committed, None));
    }

    r2.stop();
    r1_server.shutdown();
    r1.stop();
    server.shutdown();
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One epoch-prefix case against `follower`, whatever its backend.
fn prefix_case<B>(
    seed: u64,
    curve_name: &str,
    t_shards: usize,
    follower: Engine<DynCurve<2>, u64, 2, B>,
) -> Result<(), String>
where
    B: Backend<Record<2, u64>> + Send + Sync + 'static,
{
    let engine = Arc::new(mk_memory_engine(curve_name, t_shards));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let replica = Replica::start(&server.local_addr().to_string(), follower).unwrap();

    let mut client =
        Client::<DynCurve<2>, u64, 2>::connect(&server.local_addr().to_string()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let stream: Vec<StreamOp<2>> =
        mixed_op_stream::<2, _>(SIDE, 120, &OpMix::write_only(), 0.5, 4, &mut rng);
    let q = full_rect();
    for (i, op) in stream.into_iter().enumerate() {
        client.execute(op.into()).unwrap();
        if i % 15 == 14 {
            client.flush().unwrap();
            // Mid-stream probe: pin whatever epoch the replica has
            // applied and compare it to the transactor AT THAT EPOCH
            // (the live heads may already disagree — that is lag,
            // not inconsistency).
            let applied = replica.engine().epoch();
            if applied > 0 {
                if let Ok(replica_view) = replica.engine().query_as_of(applied, &q) {
                    let transactor_view = match engine.execute(Request::QueryAsOf {
                        epoch: applied,
                        query: q,
                    }) {
                        Ok(Response::Records(rs)) => rs,
                        // The transactor's retention may have evicted
                        // this epoch already; skip the probe then.
                        _ => continue,
                    };
                    prop_assert_eq!(
                        replica_view.records,
                        transactor_view,
                        "replica's epoch-{} state is not the transactor's prefix",
                        applied
                    );
                }
            }
        }
    }
    client.flush().unwrap();
    let committed = engine.stats().epochs;
    await_applied(&replica, committed);
    prop_assert_eq!(replica_records(&replica), transactor_records(&engine));
    prop_assert_eq!(replica.status().lag, 0);

    replica.stop();
    server.shutdown();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Epoch-prefix consistency: whatever epoch the replica reports
    /// having applied, its pinned state at that epoch is byte-for-byte
    /// the transactor's state at the same epoch — sampled mid-stream,
    /// while epochs are still in flight — for a memory follower and for
    /// a disk-resident durable one.
    #[test]
    fn replica_state_is_always_an_epoch_prefix_of_the_transactor(
        seed in 0u64..1_000_000,
        curve_idx in 0usize..CURVE_NAMES.len(),
        t_shards in prop::sample::select(vec![1usize, 2, 5]),
        r_shards in prop::sample::select(vec![1usize, 2, 5]),
        stored in prop::sample::select(vec![false, true]),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let curve_name = CURVE_NAMES[curve_idx];
        if stored {
            let dir = test_dir(&format!("net-prefix-{}", CASE.fetch_add(1, Ordering::Relaxed)));
            let follower = Engine::open_stored(
                &dir,
                curve_2d(curve_name, SIDE).unwrap(),
                DiskModel::ssd(),
                r_shards,
                StoreConfig::default(),
                EngineConfig::default(),
            )
            .unwrap();
            prefix_case(seed, curve_name, t_shards, follower)?;
            std::fs::remove_dir_all(&dir).unwrap();
        } else {
            prefix_case(seed, curve_name, t_shards, mk_memory_engine(curve_name, r_shards))?;
        }
    }
}
