//! The MVCC consistency contract, pinned by property tests:
//!
//! * **Every scan observes exactly one epoch:** concurrent rectangle
//!   scans racing a writer streaming `apply_batch` epochs — where each
//!   epoch rewrites every cell with its own epoch tag — must return
//!   records from a single epoch, byte-identical to that epoch's
//!   quiescent state, at 1, 2, and 5 shards and for every registry
//!   curve. A scan mixing two epochs' values (the old "scan may straddle
//!   an epoch" caveat) fails immediately.
//! * **`as_of(e)` equals the WAL prefix through `e`:** on a durable
//!   engine, time-travel reads answer exactly the single-threaded model
//!   of the first `e` epochs — both from the in-memory retention window
//!   and, for epochs evicted from it, from the `snapshot + WAL prefix`
//!   replay path; epochs older than a checkpoint's snapshot are refused.

use onion_core::Point;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_baselines::{curve_2d, DynCurve, CURVE_NAMES};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request, Response};
use sfc_index::{BatchOp, DiskModel, QueryOptions, RetentionPolicy, ShardedTable, StoreConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

const SIDE: u32 = 8;

/// A fresh per-test directory under cargo's target tmpdir (inside the
/// workspace, wiped with `target/`).
fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One record per cell, tagged with epoch 0.
fn dense_records(side: u32) -> Vec<(Point<2>, u64)> {
    (0..side)
        .flat_map(|x| (0..side).map(move |y| (Point::new([x, y]), 0)))
        .collect()
}

/// The batch that moves every cell from epoch `e - 1` to epoch `e`:
/// updates every cell's value to `e`. Applied atomically, so any
/// consistent state of the table has *all* cells carrying one tag.
fn epoch_batch(side: u32, e: u64) -> Vec<BatchOp<2, u64>> {
    (0..side)
        .flat_map(|x| (0..side).map(move |y| BatchOp::Update(Point::new([x, y]), e)))
        .collect()
}

proptest! {
    /// Readers hammer random sub-rectangles (straddling shard boundaries)
    /// while a writer streams whole-table rewrite epochs. Every scan must
    /// observe exactly one epoch: all returned values identical, the
    /// returned point set exactly the rect's cells — the strengthened
    /// contract, checked at 1, 2, and 5 shards for every registry curve.
    #[test]
    fn every_scan_observes_exactly_one_epoch(seed in any::<u64>()) {
        const EPOCHS: u64 = 12;
        for name in CURVE_NAMES {
            for &shards in &[1usize, 2, 5] {
                let table = ShardedTable::build(
                    curve_2d(name, SIDE).unwrap(),
                    dense_records(SIDE),
                    DiskModel::ssd(),
                    shards,
                )
                .unwrap();
                let table = &table;
                let done = AtomicBool::new(false);
                let done = &done;
                std::thread::scope(|s| {
                    let readers: Vec<_> = (0..2u64)
                        .map(|t| {
                            s.spawn(move || {
                                let mut rng = StdRng::seed_from_u64(seed ^ t);
                                let mut scans = 0u64;
                                let mut last_seen = 0u64;
                                while !done.load(Ordering::Acquire) || scans < 4 {
                                    let x0 = rng.random_range(0..SIDE);
                                    let y0 = rng.random_range(0..SIDE);
                                    let w = rng.random_range(1..=SIDE - x0);
                                    let h = rng.random_range(1..=SIDE - y0);
                                    let q = RectQuery::new([x0, y0], [w, h]).unwrap();
                                    let result =
                                        table.query_rect(&q, &QueryOptions::default()).unwrap();
                                    // Exactly one epoch: one tag across
                                    // the whole scan, one record per cell.
                                    let tag = result.records.first().map_or(0, |r| r.value);
                                    assert!(
                                        result.records.iter().all(|r| r.value == tag),
                                        "scan straddled epochs: {:?}",
                                        result
                                            .records
                                            .iter()
                                            .map(|r| r.value)
                                            .collect::<std::collections::BTreeSet<_>>()
                                    );
                                    assert_eq!(
                                        result.records.len() as u64,
                                        u64::from(w) * u64::from(h),
                                        "scan lost or duplicated cells"
                                    );
                                    // Same-thread monotonicity: versions
                                    // install in order, so a later scan
                                    // never observes an older epoch.
                                    assert!(
                                        tag >= last_seen,
                                        "epoch went backwards: {tag} after {last_seen}"
                                    );
                                    last_seen = tag;
                                    scans += 1;
                                }
                            })
                        })
                        .collect();
                    for e in 1..=EPOCHS {
                        table.apply_batch(epoch_batch(SIDE, e)).unwrap();
                    }
                    done.store(true, Ordering::Release);
                    for r in readers {
                        r.join().expect("reader panicked");
                    }
                });
                prop_assert_eq!(table.version_epoch(), EPOCHS, "{} {} shards", name, shards);
            }
        }
    }

    /// Pinned snapshots are immutable: a snapshot taken at epoch `e`
    /// keeps answering epoch `e` byte-for-byte while later epochs apply
    /// and evict it from the retention window — the `Arc` pin is the GC
    /// root, for every registry curve.
    #[test]
    fn pinned_snapshot_survives_eviction(keep in 1u64..6) {
        for name in CURVE_NAMES {
            let mut table = ShardedTable::build(
                curve_2d(name, SIDE).unwrap(),
                dense_records(SIDE),
                DiskModel::ssd(),
                3,
            )
            .unwrap();
            table.set_retention(RetentionPolicy { epochs: 2, bytes: u64::MAX });
            for e in 1..=keep {
                table.apply_batch(epoch_batch(SIDE, e)).unwrap();
            }
            let pinned = table.snapshot();
            prop_assert_eq!(pinned.epoch(), keep);
            // Stream enough epochs to evict `keep` from the window.
            for e in keep + 1..=keep + 8 {
                table.apply_batch(epoch_batch(SIDE, e)).unwrap();
            }
            prop_assert!(!table.retained_epochs().contains(&keep));
            let q = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
            let result = pinned.query_rect(&q).unwrap();
            prop_assert!(result.records.iter().all(|r| r.value == keep));
            prop_assert_eq!(result.records.len() as u64, u64::from(SIDE) * u64::from(SIDE));
        }
    }

    /// `as_of(e)` must equal the single-threaded replay of the WAL
    /// prefix through epoch `e` — i.e. the model state after the first
    /// `e` flushed batches — for every epoch of a random write history,
    /// on every registry curve. Retention is squeezed to 2 epochs so old
    /// epochs exercise the cold `snapshot + WAL prefix` path while
    /// recent ones answer from the in-memory window; a checkpoint then
    /// truncates history and `as_of` below the snapshot must refuse.
    #[test]
    fn as_of_equals_wal_prefix_replay(seed in any::<u64>()) {
        const EPOCHS: u64 = 8;
        let mut rng = StdRng::seed_from_u64(seed);
        for name in CURVE_NAMES {
            let dir = test_dir(&format!("mvcc_asof_{name}_{seed:x}"));
            let engine: Engine<DynCurve<2>, u64, 2> = Engine::open(
                &dir,
                curve_2d(name, SIDE).unwrap(),
                DiskModel::ssd(),
                3,
                EngineConfig {
                    epoch_ops: 1 << 20, // manual flushes only
                    retention: RetentionPolicy { epochs: 2, bytes: u64::MAX },
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            // A random upsert/delete history, one model snapshot per epoch.
            let mut model: BTreeMap<Point<2>, u64> = BTreeMap::new();
            let mut history: Vec<BTreeMap<Point<2>, u64>> = vec![model.clone()];
            for e in 1..=EPOCHS {
                for _ in 0..12 {
                    let p = Point::new([rng.random_range(0..SIDE), rng.random_range(0..SIDE)]);
                    if rng.random_bool(0.8) {
                        let v = e * 1000 + rng.random_range(0..100u64);
                        engine.execute(Request::Update(p, v)).unwrap();
                        model.insert(p, v);
                    } else {
                        engine.execute(Request::Delete(p)).unwrap();
                        model.remove(&p);
                    }
                }
                engine.flush().unwrap();
                prop_assert_eq!(engine.epoch(), e);
                history.push(model.clone());
            }
            let q = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
            for (e, expected) in history.iter().enumerate() {
                let result = engine.query_as_of(e as u64, &q).unwrap();
                let got: BTreeMap<Point<2>, u64> = result
                    .records
                    .iter()
                    .map(|r| (r.point, r.value))
                    .collect();
                prop_assert_eq!(
                    &got, expected,
                    "{} as_of({}) != WAL prefix replay", name, e
                );
                // Retained and replayed epochs report the same shape: one
                // I/O entry per shard, one seek per scanned range.
                prop_assert_eq!(result.shard_io.len(), 3);
                prop_assert_eq!(
                    result.shard_io.iter().map(|s| s.seeks).sum::<u64>(),
                    result.ranges_scanned
                );
                // Executing through the op stream answers identically.
                let reply = engine
                    .execute(Request::QueryAsOf { epoch: e as u64, query: q })
                    .unwrap();
                let Response::Records(records) = reply else { panic!("as_of reply shape") };
                prop_assert_eq!(records, result.records);
            }
            // Compaction draws the horizon: epochs at or above the
            // snapshot stay answerable, older ones are refused.
            let at = engine.checkpoint().unwrap();
            prop_assert_eq!(at, EPOCHS);
            prop_assert!(engine.query_as_of(EPOCHS, &q).is_ok());
            if EPOCHS > 0 {
                prop_assert!(engine.query_as_of(0, &q).is_err());
            }
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The one-epoch scan contract holds when the table is genuinely
    /// disk-resident: file-backed segment stores with a 4-page pool,
    /// readers racing whole-table rewrite epochs. Epoch installs are
    /// copy-on-write over the *overlay*; the immutable segment
    /// generation underneath must never let a scan mix two epochs.
    #[test]
    fn stored_scans_observe_exactly_one_epoch(seed in any::<u64>()) {
        const EPOCHS: u64 = 8;
        for &shards in &[1usize, 3] {
            let dir = test_dir(&format!("mvcc_stored_scan_{shards}_{seed:x}"));
            let table = ShardedTable::build_stored(
                curve_2d("onion", SIDE).unwrap(),
                dense_records(SIDE),
                DiskModel::ssd(),
                shards,
                &dir,
                StoreConfig { page_size: 256, pool_pages: 4 },
            )
            .unwrap();
            let table = &table;
            let done = AtomicBool::new(false);
            let done = &done;
            std::thread::scope(|s| {
                let readers: Vec<_> = (0..2u64)
                    .map(|t| {
                        s.spawn(move || {
                            let mut rng = StdRng::seed_from_u64(seed ^ t);
                            let mut scans = 0u64;
                            let mut last_seen = 0u64;
                            while !done.load(Ordering::Acquire) || scans < 4 {
                                let x0 = rng.random_range(0..SIDE);
                                let y0 = rng.random_range(0..SIDE);
                                let w = rng.random_range(1..=SIDE - x0);
                                let h = rng.random_range(1..=SIDE - y0);
                                let q = RectQuery::new([x0, y0], [w, h]).unwrap();
                                let result =
                                    table.query_rect(&q, &QueryOptions::default()).unwrap();
                                let tag = result.records.first().map_or(0, |r| r.value);
                                assert!(
                                    result.records.iter().all(|r| r.value == tag),
                                    "stored scan straddled epochs"
                                );
                                assert_eq!(
                                    result.records.len() as u64,
                                    u64::from(w) * u64::from(h),
                                    "stored scan lost or duplicated cells"
                                );
                                assert!(tag >= last_seen, "epoch went backwards");
                                last_seen = tag;
                                scans += 1;
                            }
                        })
                    })
                    .collect();
                for e in 1..=EPOCHS {
                    table.apply_batch(epoch_batch(SIDE, e)).unwrap();
                }
                done.store(true, Ordering::Release);
                for r in readers {
                    r.join().expect("reader panicked");
                }
            });
            prop_assert_eq!(table.version_epoch(), EPOCHS);
            // Folding the overlay into a fresh segment generation (the
            // checkpoint path) must preserve the final epoch exactly.
            table.compact_shards().unwrap();
            let q = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
            let result = table.query_rect(&q, &QueryOptions::default()).unwrap();
            prop_assert!(result.records.iter().all(|r| r.value == EPOCHS));
            prop_assert_eq!(
                result.records.len() as u64,
                u64::from(SIDE) * u64::from(SIDE)
            );
            drop(result);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// `as_of(e)` on the disk-resident engine equals the WAL-prefix
    /// replay model — the retention window is squeezed to 2 epochs so
    /// cold epochs exercise `snapshot + WAL prefix` replay while the
    /// serving table reads file-backed segments through a 4-page pool.
    #[test]
    fn stored_as_of_equals_wal_prefix_replay(seed in any::<u64>()) {
        const EPOCHS: u64 = 8;
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = test_dir(&format!("mvcc_stored_asof_{seed:x}"));
        let engine = Engine::open_stored(
            &dir,
            curve_2d("onion", SIDE).unwrap(),
            DiskModel::ssd(),
            3,
            StoreConfig { page_size: 256, pool_pages: 4 },
            EngineConfig {
                epoch_ops: 1 << 20, // manual flushes only
                retention: RetentionPolicy { epochs: 2, bytes: u64::MAX },
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let mut model: BTreeMap<Point<2>, u64> = BTreeMap::new();
        let mut history: Vec<BTreeMap<Point<2>, u64>> = vec![model.clone()];
        for e in 1..=EPOCHS {
            for _ in 0..12 {
                let p = Point::new([rng.random_range(0..SIDE), rng.random_range(0..SIDE)]);
                if rng.random_bool(0.8) {
                    let v = e * 1000 + rng.random_range(0..100u64);
                    engine.execute(Request::Update(p, v)).unwrap();
                    model.insert(p, v);
                } else {
                    engine.execute(Request::Delete(p)).unwrap();
                    model.remove(&p);
                }
            }
            engine.flush().unwrap();
            prop_assert_eq!(engine.epoch(), e);
            history.push(model.clone());
        }
        let q = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
        for (e, expected) in history.iter().enumerate() {
            let result = engine.query_as_of(e as u64, &q).unwrap();
            let got: BTreeMap<Point<2>, u64> =
                result.records.iter().map(|r| (r.point, r.value)).collect();
            prop_assert_eq!(&got, expected, "stored as_of({}) != replay", e);
        }
        // A checkpoint compacts the segments and draws the horizon.
        prop_assert_eq!(engine.checkpoint().unwrap(), EPOCHS);
        prop_assert!(engine.query_as_of(EPOCHS, &q).is_ok());
        prop_assert!(engine.query_as_of(0, &q).is_err());
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
