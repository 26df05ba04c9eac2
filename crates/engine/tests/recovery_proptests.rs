//! Crash-consistency of the durable engine, pinned by property tests:
//!
//! * **Torn-tail recovery:** truncate the WAL at an *arbitrary byte
//!   offset* — clean frame boundaries, mid-frame, mid-header, even
//!   inside the file magic — reopen, and the recovered state equals
//!   exactly the prefix of fully committed epochs whose frames survived,
//!   for multiple registry curves (curve choice changes keys, never
//!   crash semantics);
//! * **Replay determinism across shard counts:** the same committed
//!   epochs recover to identical `query_rect` answers at 1, 2, and 5
//!   shards (regression pin: recovery re-partitions, it must never
//!   reorder);
//! * **Crash schedules:** a [`CrashSchedule`]-cut write stream driven
//!   through repeated open → serve → drop cycles recovers, after every
//!   crash, the auto-flushed epoch prefix the model predicts;
//! * **Checkpoint compaction:** snapshots absorb the log without
//!   changing recovered state, including after a crash landing between
//!   snapshot publication and log truncation.

use onion_core::Point;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_baselines::{curve_2d, DynCurve, CURVE_NAMES};
use sfc_clustering::RectQuery;
use sfc_engine::{CommitPolicy, Engine, EngineConfig, Request, Response, WAL_FILE};
use sfc_index::{Backend, BatchOp, DiskModel, FileBackend, Record, StoreConfig};
use sfc_workloads::CrashSchedule;
use std::collections::BTreeMap;
use std::path::PathBuf;

const SIDE: u32 = 16;

/// A fresh per-test directory under cargo's target tmpdir (inside the
/// workspace, wiped with `target/`).
fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_engine(dir: &PathBuf, curve_name: &str, shards: usize) -> Engine<DynCurve<2>, u64, 2> {
    Engine::open(
        dir,
        curve_2d(curve_name, SIDE).unwrap(),
        DiskModel::ssd(),
        shards,
        EngineConfig::with_epoch_ops(1 << 20), // manual flushes only
    )
    .unwrap()
}

/// Opens the same directory in disk-resident mode: file-backed segment
/// stores with 256-byte pages and a 4-page buffer pool, so the dataset
/// is far larger than the pool and every recovery genuinely re-reads
/// real pages.
fn open_stored_engine(
    dir: &PathBuf,
    curve_name: &str,
    shards: usize,
) -> Engine<DynCurve<2>, u64, 2, FileBackend<Record<2, u64>>> {
    Engine::open_stored(
        dir,
        curve_2d(curve_name, SIDE).unwrap(),
        DiskModel::ssd(),
        shards,
        StoreConfig {
            page_size: 256,
            pool_pages: 4,
        },
        EngineConfig::with_epoch_ops(1 << 20), // manual flushes only
    )
    .unwrap()
}

/// The single-threaded model of the table, with the engine's duplicate
/// semantics: `Insert` appends, `Update` rewrites the newest record (or
/// inserts), `Delete` removes the oldest, point gets return the newest.
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

/// Asserts the engine's full-universe scan and a sample of point gets
/// equal the model — against any backend, so the disk-resident engine
/// runs through the identical oracle.
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
    // Duplicate order within a cell is insertion order for both sides.
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

/// Deterministic write-only op batch: a mix of inserts, upserts, and
/// deletes over Zipf-ish skewed cells.
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

proptest! {
    /// THE crash-point property: commit a few epochs, truncate the WAL
    /// at an arbitrary byte offset (mid-frame and mid-header included),
    /// reopen, and the state equals exactly the prefix of epochs whose
    /// commit offset survived — for two registry curves.
    #[test]
    fn truncated_wal_recovers_exactly_the_committed_prefix(
        seed in any::<u64>(),
        cut_permille in 0u64..=1000,
    ) {
        for curve_name in ["onion", "z-order"] {
            let dir = test_dir(&format!(
                "truncate-{curve_name}-{seed:x}-{cut_permille}"
            ));
            let mut rng = StdRng::seed_from_u64(seed);
            let engine = open_engine(&dir, curve_name, 3);

            // Commit 6 epochs of 24 writes each, recording the WAL byte
            // offset each flush acknowledged and the model state at each
            // epoch boundary.
            let mut model = Model::default();
            let mut boundary_models = vec![model.clone()];
            let mut commit_offsets = vec![engine.wal_len().unwrap()];
            for _ in 0..6 {
                let batch = write_ops(&mut rng, 24);
                for op in &batch {
                    engine.execute(as_op(op)).unwrap();
                    model.apply(op);
                }
                prop_assert_eq!(engine.flush().unwrap(), 24);
                boundary_models.push(model.clone());
                commit_offsets.push(engine.wal_len().unwrap());
            }
            drop(engine); // crash (pending log is empty; epochs are on disk)

            // Truncate the log at an arbitrary byte offset.
            let wal_path = dir.join(WAL_FILE);
            let full = std::fs::metadata(&wal_path).unwrap().len();
            let cut = full * cut_permille / 1000;
            let file = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
            file.set_len(cut).unwrap();
            drop(file);

            // Every fully committed frame at or before the cut survives;
            // the first torn one ends recovery.
            let expected_epochs = commit_offsets
                .iter()
                .skip(1)
                .take_while(|&&end| end <= cut)
                .count();
            let recovered = open_engine(&dir, curve_name, 3);
            prop_assert_eq!(
                recovered.epoch(),
                expected_epochs as u64,
                "cut {} of {} must recover exactly the committed prefix ({})",
                cut,
                full,
                curve_name
            );
            assert_state_equals_model(
                &recovered,
                &boundary_models[expected_epochs],
                &format!("{curve_name} cut={cut}"),
            );
            drop(recovered);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Replay determinism across shard counts: the same committed epochs
    /// produce identical `query_rect` answers whether the WAL is
    /// recovered into 1, 2, or 5 shards. (Regression pin for the replay
    /// path: recovery re-partitions the key space, and must never let
    /// the layout reorder same-key writes or duplicate records.)
    #[test]
    fn replay_is_deterministic_across_shard_counts(seed in any::<u64>()) {
        let dir = test_dir(&format!("shard-determinism-{seed:x}"));
        let mut rng = StdRng::seed_from_u64(seed);
        let writer = open_engine(&dir, "onion", 3);
        let mut model = Model::default();
        for _ in 0..4 {
            let batch = write_ops(&mut rng, 32);
            for op in &batch {
                writer.execute(as_op(op)).unwrap();
                model.apply(op);
            }
            writer.flush().unwrap();
        }
        // Compact the middle into a snapshot, then commit more epochs on
        // top, so recovery exercises snapshot + suffix — not just replay.
        writer.checkpoint().unwrap();
        let batch = write_ops(&mut rng, 32);
        for op in &batch {
            writer.execute(as_op(op)).unwrap();
            model.apply(op);
        }
        writer.flush().unwrap();
        drop(writer);

        let queries = [
            RectQuery::new([0, 0], [SIDE, SIDE]).unwrap(),
            RectQuery::new([2, 3], [7, 5]).unwrap(),
            RectQuery::new([9, 0], [4, 12]).unwrap(),
        ];
        let mut per_shard_answers = Vec::new();
        for shards in [1usize, 2, 5] {
            let recovered = open_engine(&dir, "onion", shards);
            prop_assert_eq!(recovered.epoch(), 5, "all epochs at {} shards", shards);
            assert_state_equals_model(&recovered, &model, &format!("{shards} shards"));
            let answers: Vec<Vec<(Point<2>, u64)>> = queries
                .iter()
                .map(|q| {
                    let (res, _) = recovered.query(q).unwrap();
                    res.records.iter().map(|r| (r.point, r.value)).collect()
                })
                .collect();
            per_shard_answers.push(answers);
            drop(recovered);
        }
        // Identical — including in-cell duplicate order, because results
        // come back in curve-key order whatever the shard layout.
        prop_assert_eq!(&per_shard_answers[0], &per_shard_answers[1]);
        prop_assert_eq!(&per_shard_answers[0], &per_shard_answers[2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Crash schedules over auto-flushing engines: cut one write stream
    /// at sampled crash points, serve each run into a reopened engine,
    /// drop it cold, and check every recovery lands on the epoch
    /// boundary the auto-flush cadence predicts.
    #[test]
    fn crash_schedule_recovers_auto_flushed_prefixes(seed in any::<u64>()) {
        let dir = test_dir(&format!("schedule-{seed:x}"));
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = write_ops(&mut rng, 120);
        let schedule = CrashSchedule::sample(stream.len(), 3, &mut rng);
        let epoch_ops = 8usize;

        let mut durable_model = Model::default(); // what is on disk
        let mut total_epochs = 0u64;
        for run in schedule.segments(&stream) {
            let engine = Engine::open(
                &dir,
                curve_2d("onion", SIDE).unwrap(),
                DiskModel::ssd(),
                2,
                EngineConfig::with_epoch_ops(epoch_ops),
            )
            .unwrap();
            prop_assert_eq!(engine.epoch(), total_epochs, "epoch numbering continues");
            assert_state_equals_model(&engine, &durable_model, "post-recovery");
            for op in run {
                engine.execute(as_op(op)).unwrap();
            }
            // Auto-flush commits every full `epoch_ops` batch; the tail
            // beyond the last threshold dies with the crash (drop).
            let committed = run.len() - run.len() % epoch_ops;
            for op in &run[..committed] {
                durable_model.apply(op);
            }
            total_epochs += (run.len() / epoch_ops) as u64;
            prop_assert_eq!(engine.epoch(), total_epochs, "auto-flush cadence");
            drop(engine); // crash: pending tail ops are gone
        }
        let survivor = open_engine(&dir, "onion", 2);
        assert_state_equals_model(&survivor, &durable_model, "final recovery");
        drop(survivor);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Byte offsets where each WAL frame ends (header first): parsing the
/// `[len][crc]` headers without decoding payloads, so tests can cut the
/// log exactly *between* frames that shared one pipelined fsync.
fn frame_ends(wal_bytes: &[u8]) -> Vec<u64> {
    let magic = sfc_index::WAL_MAGIC.len();
    let mut ends = vec![magic as u64];
    let mut at = magic;
    while at + 8 <= wal_bytes.len() {
        let len = u32::from_le_bytes(wal_bytes[at..at + 4].try_into().unwrap()) as usize;
        if at + 8 + len > wal_bytes.len() {
            break;
        }
        at += 8 + len;
        ends.push(at as u64);
    }
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Group commit + the pipelined WAL are invisible on disk and in
    /// memory: the same flush cadence run through the pipelined default
    /// policy and through the synchronous PR-4 reference produces a
    /// **byte-identical** log and identical epoch-boundary state — for
    /// every registry curve and 1/2/5 shards (the log is written before
    /// sorting, so shard layout must not leak into it either).
    #[test]
    fn pipelined_group_commit_log_is_byte_identical_to_serial(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let epochs: Vec<Vec<BatchOp<2, u64>>> =
            (0..3).map(|_| write_ops(&mut rng, 16)).collect();
        for curve_name in CURVE_NAMES {
            for shards in [1usize, 2, 5] {
                let mut logs: Vec<Vec<u8>> = Vec::new();
                let mut answers = Vec::new();
                for (tag, policy) in [
                    ("pipe", CommitPolicy::default()),
                    ("sync", CommitPolicy::synchronous()),
                ] {
                    let dir = test_dir(&format!(
                        "groupcommit-{curve_name}-{shards}-{tag}-{seed:x}"
                    ));
                    let engine = Engine::open(
                        &dir,
                        curve_2d(curve_name, SIDE).unwrap(),
                        DiskModel::ssd(),
                        shards,
                        EngineConfig {
                            epoch_ops: 1 << 20,
                            commit: policy,
                            ..EngineConfig::default()
                        },
                    )
                    .unwrap();
                    for batch in &epochs {
                        for op in batch {
                            engine.execute(as_op(op)).unwrap();
                        }
                        engine.flush().unwrap();
                    }
                    prop_assert_eq!(engine.epoch(), 3);
                    prop_assert_eq!(
                        engine.durable_epoch(),
                        3,
                        "an explicit flush acknowledges only synced epochs"
                    );
                    let q = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
                    let (res, _) = engine.query(&q).unwrap();
                    answers.push(
                        res.records
                            .iter()
                            .map(|r| (r.point, r.value))
                            .collect::<Vec<_>>(),
                    );
                    drop(engine);
                    logs.push(std::fs::read(dir.join(WAL_FILE)).unwrap());
                    std::fs::remove_dir_all(&dir).unwrap();
                }
                prop_assert_eq!(
                    &logs[0],
                    &logs[1],
                    "{} at {} shards: pipelined and synchronous logs differ",
                    curve_name,
                    shards
                );
                prop_assert_eq!(&answers[0], &answers[1], "{} state", curve_name);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Cuts landing *between* coalesced frames: auto-flushed epochs ride
    /// the sync pipeline several frames per fsync, yet each keeps its own
    /// frame — so truncating the log at any frame boundary (and at
    /// arbitrary points inside the last frame) recovers exactly that
    /// epoch prefix, never a fused group.
    #[test]
    fn cuts_between_coalesced_frames_recover_epoch_prefixes(seed in any::<u64>()) {
        let dir = test_dir(&format!("coalesced-frames-{seed:x}"));
        let mut rng = StdRng::seed_from_u64(seed);
        let epoch_ops = 8usize;
        let stream = write_ops(&mut rng, 64);
        let engine = Engine::open(
            &dir,
            curve_2d("onion", SIDE).unwrap(),
            DiskModel::ssd(),
            3,
            EngineConfig::with_epoch_ops(epoch_ops), // default (pipelined) policy
        )
        .unwrap();
        let mut model = Model::default();
        let mut boundary_models = vec![model.clone()];
        for (i, op) in stream.iter().enumerate() {
            engine.execute(as_op(op)).unwrap();
            model.apply(op);
            if (i + 1) % epoch_ops == 0 {
                boundary_models.push(model.clone());
            }
        }
        prop_assert_eq!(engine.epoch(), 8, "auto-flush cadence");
        drop(engine); // drains the pipeline: every frame is on disk

        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        let ends = frame_ends(&bytes);
        prop_assert_eq!(ends.len(), 9, "one frame per epoch, pipelined or not");
        // Cut at aligned (frame-boundary) epochs, largest first so the
        // file only ever shrinks.
        let schedule = sfc_workloads::CrashSchedule::sample_aligned(8, 1, 4, &mut rng);
        for &epoch_cut in schedule.points().iter().rev() {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .unwrap();
            file.set_len(ends[epoch_cut]).unwrap();
            drop(file);
            let recovered = open_engine(&dir, "onion", 3);
            prop_assert_eq!(
                recovered.epoch(),
                epoch_cut as u64,
                "cut between frames at epoch {}",
                epoch_cut
            );
            assert_state_equals_model(
                &recovered,
                &boundary_models[epoch_cut],
                &format!("frame-boundary cut at epoch {epoch_cut}"),
            );
            drop(recovered);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// [`CrashSchedule::sample_aligned`] cuts a stream exactly between
    /// epoch batches: every crash then loses *nothing* — the recovered
    /// engine holds the full auto-flushed prefix, and epoch numbering
    /// continues seamlessly across the crashes (the aligned twin of
    /// `crash_schedule_recovers_auto_flushed_prefixes`, whose arbitrary
    /// cuts lose the sub-epoch tail).
    #[test]
    fn aligned_crash_schedule_loses_no_epochs(seed in any::<u64>()) {
        let dir = test_dir(&format!("aligned-schedule-{seed:x}"));
        let mut rng = StdRng::seed_from_u64(seed);
        let epoch_ops = 8usize;
        let stream = write_ops(&mut rng, 96);
        let schedule = CrashSchedule::sample_aligned(stream.len(), epoch_ops, 3, &mut rng);
        let mut model = Model::default();
        let mut total_epochs = 0u64;
        for run in schedule.segments(&stream) {
            let engine = Engine::open(
                &dir,
                curve_2d("onion", SIDE).unwrap(),
                DiskModel::ssd(),
                2,
                EngineConfig::with_epoch_ops(epoch_ops),
            )
            .unwrap();
            prop_assert_eq!(engine.epoch(), total_epochs, "epoch numbering continues");
            assert_state_equals_model(&engine, &model, "aligned post-recovery");
            for op in run {
                engine.execute(as_op(op)).unwrap();
            }
            // Runs start and end on epoch boundaries, so the only
            // unflushed tail is the final run's remainder.
            let committed = run.len() - run.len() % epoch_ops;
            for op in &run[..committed] {
                model.apply(op);
            }
            total_epochs += (run.len() / epoch_ops) as u64;
            drop(engine); // crash between epoch batches
        }
        let survivor = open_engine(&dir, "onion", 2);
        assert_state_equals_model(&survivor, &model, "aligned final recovery");
        drop(survivor);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn checkpoint_compacts_without_changing_recovered_state() {
    let dir = test_dir("checkpoint-compaction");
    let mut rng = StdRng::seed_from_u64(11);
    let engine = open_engine(&dir, "onion", 3);
    let mut model = Model::default();
    for _ in 0..3 {
        let batch = write_ops(&mut rng, 40);
        for op in &batch {
            engine.execute(as_op(op)).unwrap();
            model.apply(op);
        }
        engine.flush().unwrap();
    }
    let wal_before = engine.wal_len().unwrap();
    assert_eq!(
        engine.checkpoint().unwrap(),
        3,
        "checkpoint reports its epoch"
    );
    let wal_after = engine.wal_len().unwrap();
    assert!(
        wal_after < wal_before,
        "compaction must shrink the log ({wal_before} -> {wal_after})"
    );
    drop(engine);

    let recovered = open_engine(&dir, "onion", 3);
    assert_eq!(recovered.epoch(), 3, "snapshot carries the epoch");
    assert_state_equals_model(&recovered, &model, "post-checkpoint recovery");

    // Epochs committed after a checkpoint stack on the snapshot.
    let batch = write_ops(&mut rng, 16);
    for op in &batch {
        recovered.execute(as_op(op)).unwrap();
        model.apply(op);
    }
    recovered.flush().unwrap();
    drop(recovered);
    let again = open_engine(&dir, "onion", 3);
    assert_eq!(again.epoch(), 4);
    assert_state_equals_model(&again, &model, "snapshot + WAL suffix");
    drop(again);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_wal_frames_below_the_snapshot_epoch_are_skipped() {
    // A crash between snapshot publication and WAL truncation leaves
    // frames the snapshot already absorbed. Simulate it: checkpoint,
    // then restore the pre-checkpoint WAL bytes, and reopen.
    let dir = test_dir("stale-frames");
    let mut rng = StdRng::seed_from_u64(23);
    let engine = open_engine(&dir, "onion", 2);
    let mut model = Model::default();
    for _ in 0..2 {
        let batch = write_ops(&mut rng, 30);
        for op in &batch {
            engine.execute(as_op(op)).unwrap();
            model.apply(op);
        }
        engine.flush().unwrap();
    }
    let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    engine.checkpoint().unwrap();
    drop(engine);
    // Undo the truncation: the absorbed frames are back in the log.
    std::fs::write(dir.join(WAL_FILE), &wal_bytes).unwrap();

    let recovered = open_engine(&dir, "onion", 2);
    assert_eq!(recovered.epoch(), 2, "stale frames must not re-apply");
    assert_state_equals_model(&recovered, &model, "stale-frame recovery");
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipping_a_committed_byte_truncates_from_the_damage_on() {
    // Bit rot inside an earlier frame: the checksum catches it and
    // recovery keeps only the epochs before the damage — prefix
    // semantics, not a crash or a silently wrong table.
    let dir = test_dir("bitflip");
    let mut rng = StdRng::seed_from_u64(5);
    let engine = open_engine(&dir, "onion", 2);
    let mut model_epoch1 = Model::default();
    let batch = write_ops(&mut rng, 20);
    for op in &batch {
        engine.execute(as_op(op)).unwrap();
        model_epoch1.apply(op);
    }
    engine.flush().unwrap();
    let first_epoch_end = engine.wal_len().unwrap();
    for op in write_ops(&mut rng, 20) {
        engine.execute(as_op(&op)).unwrap();
    }
    engine.flush().unwrap();
    drop(engine);

    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let victim = first_epoch_end as usize + 12; // inside the second frame's payload
    bytes[victim] ^= 0x40;
    std::fs::write(&wal_path, &bytes).unwrap();

    let recovered = open_engine(&dir, "onion", 2);
    assert_eq!(recovered.epoch(), 1, "damage in epoch 2 keeps epoch 1");
    assert_state_equals_model(&recovered, &model_epoch1, "bit-flip recovery");
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The disk-resident engine honors the same prefix contract as the
    /// in-memory one: commit epochs onto file-backed segment stores
    /// (dataset ≫ the 4-page buffer pool), truncate the WAL at an
    /// arbitrary byte, and every reopen — stored at the original and a
    /// different shard count, and in-memory from the same directory —
    /// recovers exactly the committed-frame prefix.
    #[test]
    fn stored_engine_recovers_the_committed_prefix(
        seed in any::<u64>(),
        cut_permille in 0u64..=1000,
    ) {
        let dir = test_dir(&format!("stored-recovery-{seed:x}-{cut_permille}"));
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = open_stored_engine(&dir, "onion", 3);
        let mut epochs: Vec<Vec<BatchOp<2, u64>>> = Vec::new();
        let mut ends = Vec::new();
        for e in 0..4 {
            let batch = write_ops(&mut rng, 24);
            for op in &batch {
                engine.execute(as_op(op)).unwrap();
            }
            prop_assert_eq!(engine.flush().unwrap(), 24);
            epochs.push(batch);
            ends.push(engine.wal_len().unwrap());
            if e == 1 {
                // A mid-run checkpoint folds epochs 1-2 into segments +
                // snapshot; later cuts land in the WAL *suffix*.
                engine.checkpoint().unwrap();
                ends.clear(); // cuts below the snapshot cannot lose state
            }
        }
        drop(engine);

        // Cut the WAL suffix at an arbitrary byte. Frames past the cut
        // are lost; the snapshot floor (epoch 2) always survives.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let cut = bytes.len() as u64 * cut_permille / 1000;
        bytes.truncate(cut as usize);
        std::fs::write(&wal_path, &bytes).unwrap();
        let survivors = 2 + ends.iter().filter(|&&e| e <= cut).count() as u64;
        let mut model = Model::default();
        for batch in &epochs[..survivors as usize] {
            for op in batch {
                model.apply(op);
            }
        }

        let recovered = open_stored_engine(&dir, "onion", 3);
        prop_assert_eq!(recovered.epoch(), survivors);
        assert_state_equals_model(&recovered, &model, "stored reopen, same shards");
        drop(recovered);
        let resharded = open_stored_engine(&dir, "onion", 2);
        prop_assert_eq!(resharded.epoch(), survivors);
        assert_state_equals_model(&resharded, &model, "stored reopen, resharded");
        drop(resharded);
        // The directory is backend-agnostic: an in-memory reopen of the
        // same WAL + snapshot sees the identical state.
        let in_memory = open_engine(&dir, "onion", 3);
        prop_assert_eq!(in_memory.epoch(), survivors);
        assert_state_equals_model(&in_memory, &model, "in-memory reopen of stored dir");
        drop(in_memory);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
