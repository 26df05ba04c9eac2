//! Media-failure behavior of the disk-resident engine, driven by the
//! [`sfc_workloads::FaultInjector`] layer:
//!
//! * a failed checkpoint (injected fsync failure or full-disk write
//!   during segment compaction) surfaces as an error, is **not**
//!   destructive — the engine keeps serving the exact pre-checkpoint
//!   state — and a retry succeeds once the fault clears;
//! * an injected short read fails the query that hits it and nothing
//!   else: the engine stays usable and the retry returns the right rows;
//! * under a whole schedule of write/sync faults, a clean reopen always
//!   recovers **exactly** the flush-acknowledged epochs — the WAL and
//!   snapshot, not the segment files, are the durability contract, so
//!   segment-level media failures never cost an acknowledged epoch.

use onion_core::Point;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_baselines::{curve_2d, DynCurve};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request, Response};
use sfc_index::{Backend, BatchOp, DiskModel, FileBackend, FileStore, Record, StoreConfig};
use sfc_workloads::{faulty_file_factory, CrashSchedule, Fault, FaultInjector, FaultStore};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

const SIDE: u32 = 16;

/// A fresh per-test directory under cargo's target tmpdir (inside the
/// workspace, wiped with `target/`).
fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Tight pages and a 4-page pool: the dataset genuinely lives on disk.
fn tight_store() -> StoreConfig {
    StoreConfig {
        page_size: 256,
        pool_pages: 4,
    }
}

type FaultyEngine = Engine<DynCurve<2>, u64, 2, FileBackend<Record<2, u64>, FaultStore<FileStore>>>;

/// Opens a disk-resident engine whose every segment store routes through
/// `injector`'s schedule.
fn open_faulty(dir: &PathBuf, shards: usize, injector: &Arc<FaultInjector>) -> FaultyEngine {
    Engine::open_stored_with(
        dir,
        curve_2d("onion", SIDE).unwrap(),
        DiskModel::ssd(),
        shards,
        tight_store(),
        faulty_file_factory(Arc::clone(injector)),
        EngineConfig::with_epoch_ops(1 << 20), // manual flushes only
    )
    .unwrap()
}

/// Opens the same directory on plain (fault-free) file stores — the
/// clean-reopen side of every recovery assertion.
fn open_clean(
    dir: &PathBuf,
    shards: usize,
) -> Engine<DynCurve<2>, u64, 2, FileBackend<Record<2, u64>>> {
    Engine::open_stored(
        dir,
        curve_2d("onion", SIDE).unwrap(),
        DiskModel::ssd(),
        shards,
        tight_store(),
        EngineConfig::with_epoch_ops(1 << 20),
    )
    .unwrap()
}

/// The single-threaded model with the engine's duplicate semantics (see
/// `recovery_proptests.rs`).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
struct Model(BTreeMap<Point<2>, Vec<u64>>);

impl Model {
    fn apply(&mut self, op: &BatchOp<2, u64>) {
        match op {
            BatchOp::Insert(p, v) => self.0.entry(*p).or_default().push(*v),
            BatchOp::Update(p, v) => {
                let slot = self.0.entry(*p).or_default();
                match slot.last_mut() {
                    Some(newest) => *newest = *v,
                    None => slot.push(*v),
                }
            }
            BatchOp::Delete(p) => {
                if let Some(slot) = self.0.get_mut(p) {
                    if !slot.is_empty() {
                        slot.remove(0);
                    }
                    if slot.is_empty() {
                        self.0.remove(p);
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.0.values().map(Vec::len).sum()
    }
}

/// Full-universe scan plus sampled point gets, against any backend.
fn assert_state_equals_model<B>(engine: &Engine<DynCurve<2>, u64, 2, B>, model: &Model, ctx: &str)
where
    B: Backend<Record<2, u64>> + Send + Sync,
{
    assert_eq!(engine.table().len(), model.len(), "{ctx}: record count");
    let q = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
    let (result, _) = engine.query(&q).unwrap();
    let mut got: BTreeMap<Point<2>, Vec<u64>> = BTreeMap::new();
    for rec in &result.records {
        got.entry(rec.point).or_default().push(rec.value);
    }
    assert_eq!(got, model.0, "{ctx}: full-universe scan");
    for x in (0..SIDE).step_by(3) {
        let p = Point::new([x, (x * 7) % SIDE]);
        let expect = model.0.get(&p).and_then(|vs| vs.last()).copied();
        assert_eq!(
            engine.execute(Request::Get(p)).unwrap(),
            Response::Value(expect),
            "{ctx}: point get at {p}"
        );
    }
}

/// Deterministic mixed write batch (inserts, upserts, deletes).
fn write_ops(rng: &mut StdRng, count: usize) -> Vec<BatchOp<2, u64>> {
    (0..count)
        .map(|i| {
            let p = Point::new([
                (rng.random_range(0..SIDE as u64 * 3) % u64::from(SIDE)) as u32,
                rng.random_range(0..u64::from(SIDE)) as u32,
            ]);
            match rng.random_range(0..10u64) {
                0..=4 => BatchOp::Insert(p, i as u64),
                5..=7 => BatchOp::Update(p, 1_000_000 + i as u64),
                _ => BatchOp::Delete(p),
            }
        })
        .collect()
}

fn as_op(op: &BatchOp<2, u64>) -> Request<2, u64> {
    match op {
        BatchOp::Insert(p, v) => Request::Insert(*p, *v),
        BatchOp::Update(p, v) => Request::Update(*p, *v),
        BatchOp::Delete(p) => Request::Delete(*p),
    }
}

/// A failed fsync during checkpoint compaction surfaces as an error,
/// destroys nothing, and clears on retry.
#[test]
fn fsync_failure_during_checkpoint_is_not_destructive() {
    let dir = test_dir("fault-fsync-checkpoint");
    let injector = FaultInjector::new();
    let engine = open_faulty(&dir, 3, &injector);
    let mut rng = StdRng::seed_from_u64(77);
    let mut model = Model::default();
    for _ in 0..3 {
        for op in &write_ops(&mut rng, 30) {
            engine.execute(as_op(op)).unwrap();
            model.apply(op);
        }
        engine.flush().unwrap();
    }
    // Strike the next sync — the one ending the compacted segment build.
    injector.schedule(injector.op_count(), Fault::SyncError);
    let err = engine
        .checkpoint()
        .expect_err("injected fsync must fail the checkpoint");
    assert!(err.to_string().contains("fsync"), "unexpected error: {err}");
    assert_eq!(injector.injected(), 1);
    // The engine keeps serving the exact pre-checkpoint state...
    assert_state_equals_model(&engine, &model, "after failed checkpoint");
    // ...and the retry succeeds with the fault consumed.
    assert_eq!(engine.checkpoint().unwrap(), 3);
    assert_state_equals_model(&engine, &model, "after retried checkpoint");
    drop(engine);
    let recovered = open_clean(&dir, 3);
    assert_eq!(recovered.epoch(), 3);
    assert_state_equals_model(&recovered, &model, "clean reopen");
}

/// A full-disk write during compaction behaves the same way: error out,
/// keep serving, recover everything on a clean reopen — including into a
/// different shard count.
#[test]
fn enospc_during_compaction_keeps_serving_and_recovers() {
    let dir = test_dir("fault-enospc-compaction");
    let injector = FaultInjector::new();
    let engine = open_faulty(&dir, 2, &injector);
    let mut rng = StdRng::seed_from_u64(13);
    let mut model = Model::default();
    for _ in 0..4 {
        for op in &write_ops(&mut rng, 25) {
            engine.execute(as_op(op)).unwrap();
            model.apply(op);
        }
        engine.flush().unwrap();
    }
    injector.schedule(injector.op_count(), Fault::WriteError);
    assert!(
        engine.checkpoint().is_err(),
        "injected ENOSPC must fail the checkpoint"
    );
    assert_state_equals_model(&engine, &model, "after failed compaction");
    drop(engine);
    // Acknowledged epochs survive — whatever the shard count at reopen.
    for shards in [2usize, 5] {
        let recovered = open_clean(&dir, shards);
        assert_eq!(recovered.epoch(), 4, "{shards} shards");
        assert_state_equals_model(&recovered, &model, &format!("reopen at {shards} shards"));
        drop(recovered);
    }
}

/// An injected short read fails exactly the query that hits it; the
/// engine stays usable and the retry answers correctly.
#[test]
fn short_read_fails_one_query_and_nothing_else() {
    let dir = test_dir("fault-short-read");
    let injector = FaultInjector::new();
    let engine = open_faulty(&dir, 2, &injector);
    let mut rng = StdRng::seed_from_u64(29);
    let mut model = Model::default();
    for op in &write_ops(&mut rng, 60) {
        engine.execute(as_op(op)).unwrap();
        model.apply(op);
    }
    engine.flush().unwrap();
    // Fold the overlay into segments so queries genuinely read the disk,
    // then drop the leaf caches' contents by... scanning is cached, so
    // checkpoint first (fresh generation, cold cache).
    engine.checkpoint().unwrap();
    injector.schedule(injector.op_count(), Fault::ShortRead);
    let q = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
    let err = engine.query(&q).expect_err("the struck read must surface");
    assert!(
        err.to_string().contains("injected short read"),
        "unexpected error: {err}"
    );
    assert_eq!(injector.injected(), 1);
    // Same query again: clean pass, right answer.
    assert_state_equals_model(&engine, &model, "after the failed read");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The prefix property under scheduled media failures: arm a whole
    /// [`CrashSchedule`] of write faults (plus a sync fault) against the
    /// segment stores, run epochs with checkpoints sprinkled between
    /// them — some fail, by design — and a clean reopen recovers
    /// **exactly** the flush-acknowledged epochs, at the original and at
    /// a different shard count.
    #[test]
    fn scheduled_faults_never_cost_an_acknowledged_epoch(seed in any::<u64>()) {
        let dir = test_dir(&format!("fault-schedule-{seed:x}"));
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = CrashSchedule::sample(400, 3, &mut rng);
        let injector = FaultInjector::new();
        let engine = open_faulty(&dir, 3, &injector);
        // Arm the schedule only now: its offsets are relative to the
        // first post-open store op, so the initial (empty) segment
        // builds are never struck and open itself always succeeds.
        let base = injector.op_count();
        for &p in schedule.points() {
            injector.schedule(base + p as u64, Fault::WriteError);
        }
        injector.schedule(base + rng.random_range(0..300u64), Fault::SyncError);
        let mut model = Model::default();
        let mut flushed = 0u64;
        let mut checkpoint_failures = 0u32;
        for _ in 0..5 {
            for op in &write_ops(&mut rng, 24) {
                engine.execute(as_op(op)).unwrap();
                model.apply(op);
            }
            // The WAL is not fault-wrapped: acknowledgment is unconditional.
            prop_assert_eq!(engine.flush().unwrap(), 24);
            flushed += 1;
            if rng.random_bool(0.5) {
                // Compaction may hit an armed fault; serving state must
                // not change either way.
                if engine.checkpoint().is_err() {
                    checkpoint_failures += 1;
                }
            }
        }
        // Whatever fired, the live engine serves every acknowledged epoch.
        assert_state_equals_model(&engine, &model, "live engine under faults");
        prop_assert_eq!(engine.epoch(), flushed);
        drop(engine);
        for shards in [3usize, 2] {
            let recovered = open_clean(&dir, shards);
            prop_assert_eq!(recovered.epoch(), flushed, "epochs at {} shards", shards);
            assert_state_equals_model(
                &recovered,
                &model,
                &format!("clean reopen at {shards} shards (after {checkpoint_failures} failed checkpoints)"),
            );
            drop(recovered);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
