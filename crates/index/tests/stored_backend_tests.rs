//! Backend-equivalence suite for the disk-resident [`FileBackend`]: for
//! every registry curve and several shard counts, a file-backed sharded
//! table must return the rows of an independent model (`model/mod.rs`)
//! and of the in-memory backend — the storage medium may never change an
//! answer. Also covers batched queries' measured I/O, snapshot restore
//! into a *different* shard count, and a mutation stream exercising the
//! segment-overlay write path.

mod model;

use model::Model;
use onion_core::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_baselines::{curve_2d, CURVE_NAMES};
use sfc_clustering::RectQuery;
use sfc_index::{BatchOp, DiskModel, QueryOptions, Record, ShardedTable, StoreConfig};
use sfc_workloads::zipf_points;
use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Tight store: small pages and a 4-page pool, so any dataset of real
/// size is genuinely re-read from the file rather than served resident.
fn tight_store() -> StoreConfig {
    StoreConfig {
        page_size: 256,
        pool_pages: 4,
    }
}

fn model() -> DiskModel {
    DiskModel {
        page_size: 16,
        seek_us: 8_000.0,
        transfer_us: 100.0,
    }
}

fn dataset(seed: u64, side: u32, count: usize) -> Vec<(Point<2>, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    zipf_points::<2, _>(side, count, 0.8, &mut rng)
        .points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, (i as u64) << 8 | 0x5a))
        .collect()
}

fn queries(side: u32) -> Vec<RectQuery<2>> {
    vec![
        RectQuery::new([0, 0], [side, side]).unwrap(),
        RectQuery::new([2, 3], [7, 9]).unwrap(),
        RectQuery::new([side - 4, 0], [4, side]).unwrap(),
        RectQuery::new([5, 5], [1, 1]).unwrap(),
    ]
}

/// A query result's rows as `(point, value)` pairs, the model's shape.
fn pairs(records: &[Record<2, u64>]) -> Vec<(Point<2>, u64)> {
    records.iter().map(|r| (r.point, r.value)).collect()
}

/// The core equivalence matrix: every registry curve × 1/2/5 shards,
/// model vs memory vs file-backed, identical records for every query.
#[test]
fn file_backend_matches_memory_for_every_registry_curve_and_shard_count() {
    let dir = test_dir("stored-equivalence");
    let side = 16u32;
    let records = dataset(11, side, 320);
    let reference = Model::new(records.clone());
    let qs = queries(side);
    for name in CURVE_NAMES {
        let curve = curve_2d(name, side).unwrap();
        for shards in [1usize, 2, 5] {
            let mem = ShardedTable::build(
                curve_2d(name, side).unwrap(),
                records.clone(),
                model(),
                shards,
            )
            .unwrap();
            let stored = ShardedTable::build_stored(
                curve_2d(name, side).unwrap(),
                records.clone(),
                model(),
                shards,
                &dir.join(format!("{name}-{shards}")),
                tight_store(),
            )
            .unwrap();
            assert_eq!(stored.len(), records.len());
            for q in &qs {
                let expect = reference.query(&curve, q);
                let from_mem = mem.query_rect(q, &QueryOptions::default()).unwrap();
                let cold = stored.query_rect(q, &QueryOptions::default()).unwrap();
                let warm = stored.query_rect(q, &QueryOptions::default()).unwrap();
                assert_eq!(
                    pairs(&from_mem.records),
                    expect,
                    "{name}/{shards} memory {q:?}"
                );
                assert_eq!(
                    pairs(&cold.records),
                    expect,
                    "{name}/{shards} stored cold {q:?}"
                );
                assert_eq!(
                    pairs(&warm.records),
                    expect,
                    "{name}/{shards} stored warm {q:?}"
                );
            }
            // The file backend reports *real* I/O; simulated backends
            // must report none.
            let full = RectQuery::new([0, 0], [side, side]).unwrap();
            let real = stored
                .query_rect(&full, &QueryOptions::default())
                .unwrap()
                .io;
            assert!(real.real_reads > 0, "{name}/{shards} disk scan reads pages");
            let simulated = mem.query_rect(&full, &QueryOptions::default()).unwrap().io;
            assert_eq!(
                simulated.real_reads, 0,
                "{name}/{shards} memory is simulated"
            );
        }
    }
}

/// Batched queries on a file-backed table report the same measured I/O
/// as one-at-a-time queries: on a tight store every query of the batch
/// really reads pages, and each result's stats (merged and per shard)
/// equal those of the same query, issued in the same order, against an
/// identically built table.
#[test]
fn batched_queries_report_measured_reads() {
    let dir = test_dir("stored-batch-io");
    let side = 16u32;
    let records = dataset(53, side, 300);
    let qs = vec![
        RectQuery::new([0, 0], [side, side]).unwrap(),
        RectQuery::new([2, 3], [7, 9]).unwrap(),
        RectQuery::new([side - 4, 0], [4, side]).unwrap(),
        RectQuery::new([0, 0], [6, 6]).unwrap(),
    ];
    for shards in [1usize, 3] {
        let build = |tag: &str| {
            ShardedTable::build_stored(
                curve_2d("onion", side).unwrap(),
                records.clone(),
                model(),
                shards,
                &dir.join(format!("{tag}-{shards}")),
                tight_store(),
            )
            .unwrap()
        };
        let batched = build("batch");
        let single = build("single");
        let batch = batched.query_rect_batch(&qs).unwrap();
        for (q, res) in qs.iter().zip(&batch) {
            let one = single.query_rect(q, &QueryOptions::default()).unwrap();
            assert!(
                res.io.real_reads > 0,
                "{shards} shards {q:?}: batch reads pages"
            );
            assert_eq!(
                res.io.real_reads, one.io.real_reads,
                "{shards} shards {q:?}"
            );
            assert_eq!(res.io, one.io, "{shards} shards {q:?}");
            assert_eq!(res.shard_io, one.shard_io, "{shards} shards {q:?}");
            assert_eq!(res.records, one.records, "{shards} shards {q:?}");
        }
    }
}

/// Point gets through the owned-guard path agree with the memory backend
/// for hits, misses, and out-of-universe errors.
#[test]
fn stored_point_gets_match_memory() {
    let dir = test_dir("stored-gets");
    let side = 16u32;
    let records = dataset(23, side, 250);
    let name = CURVE_NAMES[0];
    let mem =
        ShardedTable::build(curve_2d(name, side).unwrap(), records.clone(), model(), 3).unwrap();
    let stored = ShardedTable::build_stored(
        curve_2d(name, side).unwrap(),
        records.clone(),
        model(),
        3,
        &dir,
        tight_store(),
    )
    .unwrap();
    for x in 0..side {
        for y in 0..side {
            let p = Point::new([x, y]);
            let a = mem.get(p).unwrap().map(|g| g.value);
            let b = stored.get(p).unwrap().map(|g| g.value);
            assert_eq!(a, b, "get({x},{y})");
        }
    }
    let outside = Point::new([side + 1, 0]);
    assert!(stored.get(outside).is_err());
    assert!(mem.get(outside).is_err());
}

/// A snapshot persisted from a stored table restores into a stored table
/// with a *different* shard count — and into a memory table — without
/// changing a single answer.
#[test]
fn stored_snapshot_restores_into_a_different_shard_count() {
    let dir = test_dir("stored-reshard");
    let side = 16u32;
    let records = dataset(31, side, 300);
    let name = "onion";
    let source = ShardedTable::build_stored(
        curve_2d(name, side).unwrap(),
        records.clone(),
        model(),
        2,
        &dir.join("src"),
        tight_store(),
    )
    .unwrap();
    // Persist every shard in curve-key order — the snapshot stream.
    let snap = source.snapshot();
    let mut entries: Vec<(u64, Record<2, u64>)> = Vec::new();
    for shard in 0..source.shard_count() {
        snap.persist_shard(shard, &mut |k, rec| entries.push((k, *rec)))
            .unwrap();
    }
    assert_eq!(entries.len(), records.len());
    assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0), "curve order");

    // Restore into five file-backed shards and into three memory shards.
    let wider = ShardedTable::build_stored(
        curve_2d(name, side).unwrap(),
        Vec::new(),
        model(),
        5,
        &dir.join("dst"),
        tight_store(),
    )
    .unwrap();
    wider.restore_entries(entries.clone()).unwrap();
    let mem = ShardedTable::build(curve_2d(name, side).unwrap(), Vec::new(), model(), 3).unwrap();
    mem.restore_entries(entries).unwrap();

    assert_eq!(wider.len(), records.len());
    assert_eq!(mem.len(), records.len());
    for q in &queries(side) {
        let expect = source
            .query_rect(q, &QueryOptions::default())
            .unwrap()
            .records;
        assert_eq!(
            wider
                .query_rect(q, &QueryOptions::default())
                .unwrap()
                .records,
            expect,
            "restored 2→5 stored shards {q:?}"
        );
        assert_eq!(
            mem.query_rect(q, &QueryOptions::default()).unwrap().records,
            expect,
            "restored 2→3 memory shards {q:?}"
        );
    }
}

/// A mixed mutation stream (inserts, updates, deletes — exercising the
/// segment base, the overlay tree, and the per-key base edits) keeps the
/// file-backed table in lockstep with the memory backend.
#[test]
fn mutation_stream_keeps_stored_and_memory_in_lockstep() {
    let dir = test_dir("stored-mutations");
    let side = 16u32;
    let records = dataset(47, side, 200);
    let name = "hilbert";
    let mem =
        ShardedTable::build(curve_2d(name, side).unwrap(), records.clone(), model(), 3).unwrap();
    let stored = ShardedTable::build_stored(
        curve_2d(name, side).unwrap(),
        records,
        model(),
        3,
        &dir,
        tight_store(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0xbeef);
    for round in 0..12 {
        let batch: Vec<BatchOp<2, u64>> = (0..40)
            .map(|_| {
                let p = Point::new([rng.random_range(0..side), rng.random_range(0..side)]);
                match rng.random_range(0..10) {
                    0..=4 => BatchOp::Insert(p, rng.random_range(0..1u64 << 32)),
                    5..=7 => BatchOp::Update(p, rng.random_range(0..1u64 << 32)),
                    _ => BatchOp::Delete(p),
                }
            })
            .collect();
        let a = mem.apply_batch(batch.clone()).unwrap();
        let b = stored.apply_batch(batch).unwrap();
        assert_eq!(a, b, "round {round}: batch results diverge");
        assert_eq!(mem.len(), stored.len(), "round {round}: sizes diverge");
        let full = RectQuery::new([0, 0], [side, side]).unwrap();
        assert_eq!(
            mem.query_rect(&full, &QueryOptions::default())
                .unwrap()
                .records,
            stored
                .query_rect(&full, &QueryOptions::default())
                .unwrap()
                .records,
            "round {round}: full scans diverge"
        );
    }
    // Compaction folds the overlay back into fresh segment generations
    // without changing any answer.
    stored.compact_shards().unwrap();
    let full = RectQuery::new([0, 0], [side, side]).unwrap();
    assert_eq!(
        mem.query_rect(&full, &QueryOptions::default())
            .unwrap()
            .records,
        stored
            .query_rect(&full, &QueryOptions::default())
            .unwrap()
            .records,
        "post-compaction scans diverge"
    );
}
