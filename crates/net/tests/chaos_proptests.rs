//! Network-chaos proptests: the headline self-healing invariant.
//!
//! A durable transactor serves its epoch feed through a
//! [`ChaosProxy`](sfc_workloads::ChaosProxy) that kills, stalls, and
//! splits the replica's subscription at schedule points drawn from the
//! proptest seed. Under *every* such schedule:
//!
//! 1. the replica reconverges to a byte-identical copy of the
//!    transactor (reconnect → re-subscribe from its applied epoch →
//!    WAL catch-up — exactly-once, no skips, no double-applies);
//! 2. every intermediate state it ever serves is a committed epoch
//!    prefix of the transactor (the mid-stream probes);
//! 3. chaos is never terminal: the replica ends in a non-`Failed`
//!    state.
//!
//! The follower behind the replica is drawn per case: a memory engine,
//! or a disk-resident durable one (`Engine::open_stored`) that logs
//! every epoch it applies.
//!
//! The kill/stall *schedule* is exactly reproducible from the seed
//! (the injector's op clock counts forwarded chunks); thread
//! interleaving is not, so these invariants are ones that must hold
//! under *all* interleavings of a given schedule. Set `SFC_CHAOS_SEED`
//! to pin every case to one schedule when chasing a failure, e.g.
//! `SFC_CHAOS_SEED=123456 cargo test -p sfc-net --test chaos_proptests`.
//!
//! The transactor must be durable (disk WAL): an in-memory transactor
//! cannot serve catch-up for epochs shipped while a replica was away —
//! it answers the resume with a typed
//! [`EpochTruncated`](onion_core::SfcError::EpochTruncated), the
//! *correct* terminal fault for that topology, pinned in
//! `replication.rs`. Healing needs history.

use proptest::{prop_assert, prop_assert_eq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_baselines::{curve_2d, DynCurve, CURVE_NAMES};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request, Response};
use sfc_index::{Backend, DiskModel, Record, ShardedTable, StoreConfig};
use sfc_net::{Client, Replica, ReplicaConfig, ReplicaState, RetryPolicy, Server};
use sfc_workloads::{mixed_op_stream, ChaosInjector, ChaosProxy, NetFault, OpMix, StreamOp};
use std::path::{Path, PathBuf};
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

fn full_rect() -> RectQuery<2> {
    RectQuery::new(FULL.0, FULL.1).unwrap()
}

/// Each real-socket chaos case is ~100× the cost of a pure in-memory
/// proptest case, so run 1/8th of the requested budget (`PROPTEST_CASES`,
/// the knob CI and the nightly cron already set), floored at one case
/// per registry curve.
fn chaos_cases() -> u64 {
    let floor = CURVE_NAMES.len() as u64;
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|n| (n / 8).clamp(floor, 128))
        .unwrap_or(floor)
}

/// `SFC_CHAOS_SEED` overrides the proptest-drawn seed, pinning every
/// case to one reproducible fault schedule.
fn chaos_seed(drawn: u64) -> u64 {
    std::env::var("SFC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(drawn)
}

/// An aggressive self-healing config for loopback chaos: reconnect
/// fast, retry practically forever (the proxy always comes back —
/// terminal faults would be a bug here, not patience running out).
fn healing_config() -> ReplicaConfig {
    ReplicaConfig {
        connect_timeout: Duration::from_secs(2),
        subscribe_deadline: Duration::from_secs(5),
        reconnect: RetryPolicy {
            max_retries: 500,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
    }
}

/// Draws a fault schedule from the seed: 3–9 faults at chunk counts
/// inside the window a ~120-op replication stream actually spans, mixed
/// across kills, stalls, and split writes.
fn schedule_faults(injector: &ChaosInjector, rng: &mut StdRng) -> usize {
    let n = rng.random_range(3usize..10);
    for _ in 0..n {
        let at_op = rng.random_range(0u64..300);
        let fault = match rng.random_range(0u8..4) {
            0 | 1 => NetFault::Kill, // kills carry the invariant's weight
            2 => NetFault::Stall(Duration::from_millis(rng.random_range(5u64..40))),
            _ => NetFault::Split,
        };
        injector.schedule(at_op, fault);
    }
    n
}

/// An empty in-memory follower engine.
fn memory_follower(curve_name: &str, shards: usize) -> Engine<DynCurve<2>, u64, 2> {
    let curve = curve_2d(curve_name, SIDE).unwrap();
    let table = ShardedTable::build(curve, Vec::new(), DiskModel::ssd(), shards).unwrap();
    Engine::new(table, EngineConfig::default())
}

/// Starts a replica through the proxy, riding out any scheduled fault
/// that strikes the initial connect itself (each fault fires exactly
/// once, so retrying the start drains them). A failed start consumes
/// its engine, so each attempt gets a fresh one from `follower`.
fn start_replica<B>(
    proxy_addr: &str,
    follower: impl Fn() -> Engine<DynCurve<2>, u64, 2, B>,
) -> Replica<DynCurve<2>, u64, 2, B>
where
    B: Backend<Record<2, u64>> + Send + Sync + 'static,
{
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Replica::start_with(proxy_addr, follower(), healing_config()) {
            Ok(r) => return r,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "replica never got through the initial connect: {e:?}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn transactor_records(engine: &Engine<DynCurve<2>, u64, 2>) -> Vec<(onion_core::Point<2>, u64)> {
    match engine.execute(Request::Query(full_rect())).unwrap() {
        Response::Records(rs) => rs.into_iter().map(|r| (r.point, r.value)).collect(),
        other => panic!("query answered with {other:?}"),
    }
}

fn replica_records<B>(replica: &Replica<DynCurve<2>, u64, 2, B>) -> Vec<(onion_core::Point<2>, u64)>
where
    B: Backend<Record<2, u64>> + Send + Sync + 'static,
{
    replica
        .engine()
        .query(&full_rect())
        .unwrap()
        .0
        .records
        .into_iter()
        .map(|r| (r.point, r.value))
        .collect()
}

/// One full chaos case: durable transactor, proxied replica, seeded
/// fault schedule, mid-stream prefix probes, final byte-identity.
/// `stored` picks the follower's backend: memory, or a disk-resident
/// durable engine in the case's directory.
fn chaos_case(
    seed: u64,
    curve_name: &str,
    t_shards: usize,
    r_shards: usize,
    stored: bool,
) -> Result<(), String> {
    let dir = test_dir(&format!(
        "chaos_{curve_name}_{t_shards}_{r_shards}_{stored}_{seed}"
    ));
    if stored {
        let follower_dir = dir.join("follower");
        chaos_run(seed, curve_name, t_shards, &dir, || {
            Engine::open_stored(
                &follower_dir,
                curve_2d(curve_name, SIDE).unwrap(),
                DiskModel::ssd(),
                r_shards,
                StoreConfig::default(),
                EngineConfig::default(),
            )
            .unwrap()
        })
    } else {
        chaos_run(seed, curve_name, t_shards, &dir, || {
            memory_follower(curve_name, r_shards)
        })
    }
}

/// [`chaos_case`] for one follower backend.
fn chaos_run<B>(
    seed: u64,
    curve_name: &str,
    t_shards: usize,
    dir: &Path,
    follower: impl Fn() -> Engine<DynCurve<2>, u64, 2, B>,
) -> Result<(), String>
where
    B: Backend<Record<2, u64>> + Send + Sync + 'static,
{
    let engine = Arc::new(
        Engine::open(
            dir,
            curve_2d(curve_name, SIDE).unwrap(),
            DiskModel::ssd(),
            t_shards,
            EngineConfig::with_epoch_ops(1 << 20), // manual flushes only
        )
        .unwrap(),
    );
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();

    let mut rng = StdRng::seed_from_u64(seed);
    let injector = ChaosInjector::new();
    let scheduled = schedule_faults(&injector, &mut rng);
    let proxy = ChaosProxy::spawn(&server.local_addr().to_string(), Arc::clone(&injector)).unwrap();

    // The replica subscribes THROUGH the chaos; the writer goes direct.
    let replica = start_replica(&proxy.addr(), follower);
    let mut client =
        Client::<DynCurve<2>, u64, 2>::connect(&server.local_addr().to_string()).unwrap();

    let stream: Vec<StreamOp<2>> =
        mixed_op_stream::<2, _>(SIDE, 120, &OpMix::write_only(), 0.5, 4, &mut rng);
    let q = full_rect();
    for (i, op) in stream.into_iter().enumerate() {
        client.execute(op.into()).unwrap();
        if i % 15 == 14 {
            client.flush().unwrap();
            // Chaos must never be terminal in this topology.
            let status = replica.status();
            prop_assert!(
                status.state != ReplicaState::Failed,
                "replica parked a terminal fault mid-chaos: {:?}",
                status.last_error
            );
            // Prefix probe: whatever epoch the replica has applied, its
            // pinned state there is the transactor's state there —
            // served-while-healing reads are still committed prefixes.
            let applied = replica.engine().epoch();
            if applied > 0 {
                if let Ok(replica_view) = replica.engine().query_as_of(applied, &q) {
                    if let Ok(Response::Records(transactor_view)) =
                        engine.execute(Request::QueryAsOf {
                            epoch: applied,
                            query: q,
                        })
                    {
                        prop_assert_eq!(
                            replica_view.records,
                            transactor_view,
                            "epoch-{} state served under chaos is not a committed prefix",
                            applied
                        );
                    }
                }
            }
        }
    }
    client.flush().unwrap();

    // Reconvergence: generous deadline — the schedule may sever the
    // feed right at the end and the replica must reconnect, resume from
    // its applied epoch, and drain the WAL catch-up.
    let committed = engine.stats().epochs;
    let deadline = Instant::now() + Duration::from_secs(30);
    while replica.engine().epoch() < committed {
        let status = replica.status();
        prop_assert!(
            status.state != ReplicaState::Failed,
            "replica gave up instead of healing: {:?}",
            status.last_error
        );
        prop_assert!(
            Instant::now() < deadline,
            "replica stuck at epoch {} of {committed} (reconnects: {})",
            replica.engine().epoch(),
            replica.status().reconnects
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    prop_assert_eq!(replica_records(&replica), transactor_records(&engine));
    let status = replica.status();
    prop_assert_eq!(status.applied, committed);
    prop_assert_eq!(status.lag, 0);
    prop_assert!(
        status.state != ReplicaState::Failed,
        "converged byte-identically yet parked as failed: {:?}",
        status.last_error
    );
    // Telemetry sanity: the injector fired real faults (schedules are
    // drawn inside the stream's chunk window, so at least one lands),
    // and every reconnect was counted.
    prop_assert!(scheduled > 0);

    replica.stop();
    proxy.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// The headline invariant, across the whole curve registry and the
/// 1/2/5-shard matrix on both sides. A hand-rolled case loop (rather
/// than the `proptest!` macro) so the real-socket budget scales as
/// `PROPTEST_CASES / 8` — each chaos case spins a disk WAL, a server,
/// a proxy, and a replica; running it at the full in-memory case count
/// would dominate the suite. Every case is fully determined by its
/// index, and `SFC_CHAOS_SEED` pins all cases to one fault schedule.
#[test]
fn self_healing_replica_reconverges_under_arbitrary_schedules() {
    let shard_matrix = [1usize, 2, 5];
    let cases = chaos_cases();
    for i in 0..cases {
        let mut rng = StdRng::seed_from_u64(0x0520_CA05 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let seed = chaos_seed(rng.random_range(0u64..1_000_000));
        // Walk the registry in order so the default budget (one case
        // per curve) covers every curve; shards come from the seed.
        let curve_name = CURVE_NAMES[(i as usize) % CURVE_NAMES.len()];
        let t_shards = shard_matrix[rng.random_range(0..shard_matrix.len())];
        let r_shards = shard_matrix[rng.random_range(0..shard_matrix.len())];
        let stored = rng.random_bool(0.5);
        if let Err(msg) = chaos_case(seed, curve_name, t_shards, r_shards, stored) {
            panic!(
                "chaos case {i}/{cases} failed \
                 [SFC_CHAOS_SEED={seed}, curve {curve_name}, \
                 {t_shards}→{r_shards} shards, stored follower: {stored}]: {msg}"
            );
        }
    }
}

/// A deterministic kill-heavy schedule: the replica is severed early
/// (mid-catch-up) and repeatedly, and must still reconverge — with the
/// reconnects visible in its status.
#[test]
fn killed_mid_catchup_replica_resumes_from_its_applied_epoch() {
    let dir = test_dir("chaos_kill_mid_catchup");
    let engine = Arc::new(
        Engine::open(
            &dir,
            curve_2d("onion", SIDE).unwrap(),
            DiskModel::ssd(),
            2,
            EngineConfig::with_epoch_ops(1 << 20),
        )
        .unwrap(),
    );
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();

    // Ten committed epochs BEFORE the replica exists: it must catch up
    // from the WAL, through a proxy that kills it every few chunks.
    let mut client =
        Client::<DynCurve<2>, u64, 2>::connect(&server.local_addr().to_string()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let stream: Vec<StreamOp<2>> =
        mixed_op_stream::<2, _>(SIDE, 100, &OpMix::write_only(), 0.5, 4, &mut rng);
    for (i, op) in stream.into_iter().enumerate() {
        client.execute(op.into()).unwrap();
        if i % 10 == 9 {
            client.flush().unwrap();
        }
    }
    let committed = engine.stats().epochs;
    assert_eq!(committed, 10);

    // Catch up cleanly first, so the kills strike an established,
    // streaming subscription — not the initial connect (whose own
    // retries are a different path, already chaos-swept above).
    let injector = ChaosInjector::new();
    let proxy = ChaosProxy::spawn(&server.local_addr().to_string(), Arc::clone(&injector)).unwrap();
    let replica = start_replica(&proxy.addr(), || memory_follower("onion", 5));
    let deadline = Instant::now() + Duration::from_secs(30);
    while replica.engine().epoch() < committed {
        let status = replica.status();
        assert!(
            status.state != ReplicaState::Failed,
            "replica failed during clean catch-up: {:?}",
            status.last_error
        );
        assert!(Instant::now() < deadline, "clean catch-up never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        replica.status().reconnects,
        0,
        "the clean phase must not reconnect"
    );

    // Now sever the live feed repeatedly while ten more epochs ship.
    // Each kill forces: reconnect → re-subscribe from applied → WAL
    // catch-up of exactly the missed suffix.
    let base = injector.op_count();
    for gap in [2u64, 8, 14, 20] {
        injector.schedule(base + gap, NetFault::Kill);
    }
    let stream: Vec<StreamOp<2>> =
        mixed_op_stream::<2, _>(SIDE, 100, &OpMix::write_only(), 0.5, 4, &mut rng);
    for (i, op) in stream.into_iter().enumerate() {
        client.execute(op.into()).unwrap();
        if i % 10 == 9 {
            client.flush().unwrap();
        }
    }
    let committed = engine.stats().epochs;
    assert_eq!(committed, 20);

    let deadline = Instant::now() + Duration::from_secs(30);
    while replica.engine().epoch() < committed {
        let status = replica.status();
        assert!(
            status.state != ReplicaState::Failed,
            "replica failed instead of resuming: {:?}",
            status.last_error
        );
        assert!(
            Instant::now() < deadline,
            "post-kill catch-up never completed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(replica_records(&replica), transactor_records(&engine));
    assert!(
        injector.injected() > 0,
        "the kill schedule never fired — the test proved nothing"
    );
    assert!(
        replica.status().reconnects >= 1,
        "kills fired ({}) but the replica never counted a reconnect",
        injector.injected()
    );

    replica.stop();
    proxy.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// When the far side is genuinely gone (proxy torn down, nothing
/// listening), the reconnect budget runs out and the replica parks a
/// typed terminal fault — self-healing is bounded, not an infinite
/// retry loop.
#[test]
fn reconnect_budget_exhaustion_parks_a_typed_fault() {
    let dir = test_dir("chaos_budget_exhaustion");
    let engine: Arc<Engine<DynCurve<2>, u64, 2>> = Arc::new(
        Engine::open(
            &dir,
            curve_2d("onion", SIDE).unwrap(),
            DiskModel::ssd(),
            1,
            EngineConfig::with_epoch_ops(1 << 20),
        )
        .unwrap(),
    );
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let injector = ChaosInjector::new();
    let proxy = ChaosProxy::spawn(&server.local_addr().to_string(), Arc::clone(&injector)).unwrap();

    let config = ReplicaConfig {
        connect_timeout: Duration::from_millis(500),
        subscribe_deadline: Duration::from_secs(2),
        reconnect: RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
        },
    };
    let replica = Replica::start_with(&proxy.addr(), memory_follower("onion", 1), config).unwrap();
    assert_eq!(replica.status().state, ReplicaState::Streaming);

    // Tear the proxy down entirely: every reconnect now meets a dead
    // address. The budget (3 attempts) must exhaust into Failed.
    proxy.shutdown();
    let deadline = Instant::now() + Duration::from_secs(15);
    while replica.status().state != ReplicaState::Failed {
        assert!(
            Instant::now() < deadline,
            "replica never parked despite a dead upstream (state: {:?})",
            replica.status().state
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let status = replica.status();
    assert_eq!(status.state, ReplicaState::Failed);
    let fault = replica
        .status()
        .last_error
        .expect("a parked replica names its fault");
    assert!(
        matches!(
            fault,
            onion_core::SfcError::ConnectionLost { .. }
                | onion_core::SfcError::DeadlineExceeded { .. }
                | onion_core::SfcError::Unavailable { .. }
        ),
        "the terminal fault is a typed transport-layer error, got {fault:?}"
    );
    // The prefix it DID apply is still served.
    let _ = replica.engine().query(&full_rect()).unwrap();

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
