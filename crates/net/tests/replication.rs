//! Transactor → replica replication, pinned end to end:
//!
//! * **Convergence:** a replica subscribed to a live transactor applies
//!   every committed epoch and converges to query-identical state,
//!   reporting zero lag at quiescence;
//! * **WAL catch-up:** a replica that connects *after* epochs committed
//!   replays them from the transactor's WAL, then hands off to the live
//!   feed without a gap (the exactly-once delivery protocol);
//! * **Time travel:** a replica's retention window answers `query_as_of`
//!   for the same epochs the transactor can;
//! * **Epoch-prefix consistency (proptest):** any state a replica ever
//!   exposes equals the transactor's state at the replica's applied
//!   epoch — never a torn batch, never a reordering — across random
//!   curves, shard counts, and flush schedules.

use onion_core::Point;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfc_baselines::{curve_2d, DynCurve, CURVE_NAMES};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request, Response};
use sfc_index::{DiskModel, ShardedTable};
use sfc_net::{Client, Replica, Server};
use sfc_workloads::{mixed_op_stream, OpMix, StreamOp};
use std::path::PathBuf;
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

fn full_rect() -> RectQuery<2> {
    RectQuery::new(FULL.0, FULL.1).unwrap()
}

/// Waits until the replica has applied `epoch` (bounded; replication is
/// asynchronous but must converge quickly on loopback).
fn await_applied(replica: &Replica<DynCurve<2>, u64, 2>, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.applied_epoch() < epoch {
        assert!(
            !replica.is_failed(),
            "replica failed while catching up: {:?}",
            replica.take_fault()
        );
        assert!(
            Instant::now() < deadline,
            "replica stuck at epoch {} (want {epoch})",
            replica.applied_epoch()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn transactor_records(engine: &Engine<DynCurve<2>, u64, 2>) -> Vec<(Point<2>, u64)> {
    match engine.execute(Request::Query(full_rect())).unwrap() {
        Response::Records(rs) => rs.into_iter().map(|r| (r.point, r.value)).collect(),
        other => panic!("query answered with {other:?}"),
    }
}

fn replica_records(replica: &Replica<DynCurve<2>, u64, 2>) -> Vec<(Point<2>, u64)> {
    replica
        .query(&full_rect())
        .unwrap()
        .records
        .into_iter()
        .map(|r| (r.point, r.value))
        .collect()
}

/// Live replication: subscribe first, then write — the replica applies
/// every epoch, converges to query-identical state, and reports lag 0.
#[test]
fn replica_converges_and_reports_lag() {
    let engine = Arc::new(mk_memory_engine("onion", 2));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    // Replica re-partitions: 3 shards against the transactor's 2.
    let replica = Replica::<DynCurve<2>, u64, 2>::start(
        &addr,
        curve_2d("onion", SIDE).unwrap(),
        DiskModel::ssd(),
        3,
        &EngineConfig::default(),
    )
    .unwrap();
    assert_eq!(replica.applied_epoch(), 0);
    assert!(replica.is_empty());

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
    assert_eq!(replica.applied_epoch(), committed);
    assert_eq!(replica.lag(), 0, "quiescent replica must report zero lag");
    assert_eq!(replica_records(&replica), transactor_records(&engine));
    assert_eq!(replica.len(), transactor_records(&engine).len());
    assert!(!replica.is_failed());

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
    let replica = Replica::<DynCurve<2>, u64, 2>::start(
        &server.local_addr().to_string(),
        curve_2d("hilbert", SIDE).unwrap(),
        DiskModel::ssd(),
        5,
        &EngineConfig::default(),
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
    assert_eq!(replica.lag(), 0);
    assert!(!replica.is_failed(), "{:?}", replica.take_fault());

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
    let replica = Replica::<DynCurve<2>, u64, 2>::start(
        &server.local_addr().to_string(),
        curve_2d("z-order", SIDE).unwrap(),
        DiskModel::ssd(),
        2,
        &EngineConfig::default(),
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
        let from_replica = replica.query_as_of(epoch, &q).unwrap().records;
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
    assert!(replica.query_as_of(committed + 10, &q).is_err());

    replica.stop();
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Epoch-prefix consistency: whatever epoch the replica reports
    /// having applied, its pinned state at that epoch is byte-for-byte
    /// the transactor's state at the same epoch — sampled mid-stream,
    /// while epochs are still in flight.
    #[test]
    fn replica_state_is_always_an_epoch_prefix_of_the_transactor(
        seed in 0u64..1_000_000,
        curve_idx in 0usize..CURVE_NAMES.len(),
        t_shards in prop::sample::select(vec![1usize, 2, 5]),
        r_shards in prop::sample::select(vec![1usize, 2, 5]),
    ) {
        let curve_name = CURVE_NAMES[curve_idx];
        let engine = Arc::new(mk_memory_engine(curve_name, t_shards));
        let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let replica = Replica::<DynCurve<2>, u64, 2>::start(
            &server.local_addr().to_string(),
            curve_2d(curve_name, SIDE).unwrap(),
            DiskModel::ssd(),
            r_shards,
            &EngineConfig::default(),
        )
        .unwrap();

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
                let applied = replica.applied_epoch();
                if applied > 0 {
                    if let Ok(replica_view) = replica.query_as_of(applied, &q) {
                        let transactor_view = match engine
                            .execute(Request::QueryAsOf { epoch: applied, query: q })
                        {
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
        prop_assert_eq!(replica.lag(), 0);

        replica.stop();
        server.shutdown();
    }
}
