//! Backend-equivalence suite for the disk-resident [`FileBackend`]: for
//! every registry curve and several shard counts, a file-backed sharded
//! table must return the rows of an independent model (`model/mod.rs`)
//! and of the in-memory backend — the storage medium may never change an
//! answer. Also covers batched queries' measured I/O, `scan_ranges`
//! summing every counter, the leaf cache warming up and staying out of
//! persist/restore, planned queries on real pages, snapshot restore into
//! a *different* shard count, and a mutation stream exercising the
//! segment-overlay write path.

mod model;

use model::Model;
use onion_core::{Onion2D, Point};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_baselines::{curve_2d, CURVE_NAMES};
use sfc_clustering::RectQuery;
use sfc_index::{
    Backend, BatchOp, DiskModel, FileBackend, IoStats, MemoryBackend, Planner, QueryOptions,
    Record, ShardedTable, StoreConfig,
};
use sfc_workloads::zipf_points;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

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
            // The file backend reports *real* I/O; the memory backend
            // must report none.
            let full = RectQuery::new([0, 0], [side, side]).unwrap();
            let real = stored
                .query_rect(&full, &QueryOptions::default())
                .unwrap()
                .io;
            assert!(real.real_reads > 0, "{name}/{shards} disk scan reads pages");
            let in_memory = mem.query_rect(&full, &QueryOptions::default()).unwrap().io;
            assert_eq!(
                in_memory.real_reads, 0,
                "{name}/{shards} memory reads no file"
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

/// `(k, 10·k)` for every `k < n`: the backend-level tests' entries, 20
/// encoded bytes each.
fn entries(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|k| (k, k * 10)).collect()
}

/// One record per cell of a `side × side` grid, value `x·1000 + y`.
fn dense_records(side: u32) -> Vec<(Point<2>, u32)> {
    (0..side)
        .flat_map(|x| (0..side).map(move |y| (Point::new([x, y]), x * 1000 + y)))
        .collect()
}

/// Pages of exactly 16 `Record<2, u32>` entries (24 encoded bytes each
/// behind the 8-byte page header): the 16 entries per page the tests'
/// 16-entry disk models assume.
fn store16(pool_pages: usize) -> StoreConfig {
    StoreConfig {
        page_size: 8 + 16 * 24,
        pool_pages,
    }
}

/// Both backends implement the trait's duplicate semantics alike: the
/// oldest copy of a key — here the one in the file backend's segment —
/// is removed first, and scans return the rest in key order.
#[test]
fn backends_agree_through_the_trait() {
    fn drive<B: Backend<u64>>(b: &mut B) -> Vec<(u64, u64)> {
        b.insert(1, 10);
        b.insert(2, 20);
        b.insert(3, 31);
        assert_eq!(b.remove(3), Some(30), "first duplicate removed first");
        let mut got = Vec::new();
        b.scan(0, 10, &mut |k, &v| got.push((k, v))).unwrap();
        got
    }
    let dir = test_dir("stored-trait");
    let mut mem = MemoryBackend::bulk_load(vec![(3, 30)]);
    let mut file = FileBackend::create(&dir, "trait", tight_store(), vec![(3, 30)]).unwrap();
    assert_eq!(drive(&mut mem), drive(&mut file));
}

/// `scan_ranges` returns exactly the [`IoStats::absorb`] sum of the same
/// `scan`s run in the same order — every counter included — on the
/// memory backend, and on a file backend whose tight leaf cache makes the
/// ranges read, re-hit and seek.
#[test]
fn scan_ranges_sums_every_counter() {
    fn check<B: Backend<u64>>(one_by_one: &B, batched: &B, ranges: &[(u64, u64)]) -> IoStats {
        let mut summed = IoStats::default();
        let mut seen = Vec::new();
        for &(lo, hi) in ranges {
            let stats = one_by_one
                .scan(lo, hi, &mut |k, &v| seen.push((k, v)))
                .unwrap();
            summed.absorb(stats);
        }
        let mut seen_batched = Vec::new();
        let stats = batched
            .scan_ranges(ranges, &mut |k, &v| seen_batched.push((k, v)))
            .unwrap();
        assert_eq!(seen_batched, seen);
        assert_eq!(stats, summed);
        stats
    }
    // 12 entries per 256-byte leaf: the first range reads leaves 0..=8,
    // the second re-hits leaf 8 and reads leaf 9, the third seeks away.
    let ranges = [(0, 100), (103, 110), (1500, 1700)];
    let mem = check(
        &MemoryBackend::bulk_load(entries(2000)),
        &MemoryBackend::bulk_load(entries(2000)),
        &ranges,
    );
    assert!(mem.pages > 0, "{mem:?}");
    let dir = test_dir("stored-scan-ranges");
    let build = |stem: &str| FileBackend::create(&dir, stem, tight_store(), entries(2000)).unwrap();
    let file = check(&build("one-by-one"), &build("batched"), &ranges);
    assert!(file.pages > 0 && file.cache_hits > 0, "{file:?}");
    assert!(file.real_reads > 0 && file.real_seeks > 1, "{file:?}");
}

/// `persist` streams the contents without touching the leaf cache, and
/// `restore` starts the rebuilt backend cold. The cache holds only the
/// scanned half of the data, so a persist that went through it would
/// evict the warm leaves.
#[test]
fn persist_leaves_the_leaf_cache_untouched_and_restore_starts_cold() {
    let dir = test_dir("stored-persist-cache");
    // 16 entries per page: 128 entries span 8 leaves, keys 0..=63 the
    // first 4 of them — as many as the cache holds.
    let cfg = StoreConfig {
        page_size: 8 + 16 * 20,
        pool_pages: 4,
    };
    let mut b = FileBackend::create(&dir, "persist", cfg, entries(128)).unwrap();
    let cold = b.scan(0, 63, &mut |_, _| {}).unwrap();
    assert_eq!((cold.pages, cold.cache_hits), (4, 0), "{cold:?}");
    let warm = b.scan(0, 63, &mut |_, _| {}).unwrap();
    assert_eq!((warm.pages, warm.cache_hits), (0, 4), "{warm:?}");
    let mut dumped = Vec::new();
    b.persist(&mut |k, &v| dumped.push((k, v))).unwrap();
    assert_eq!(dumped, entries(128), "persist streams in key order");
    let after_persist = b.scan(0, 63, &mut |_, _| {}).unwrap();
    assert_eq!(after_persist, warm, "persist must bypass the leaf cache");
    b.restore(dumped).unwrap();
    assert_eq!(b.len(), 128);
    let after_restore = b.scan(0, 63, &mut |_, _| {}).unwrap();
    assert_eq!(after_restore, cold, "post-restore scans start cold");
    assert_eq!(after_restore.cache_hits, 0);
}

/// Planned queries on real pages return the exact rows, never cost more
/// than the exact decomposition under the model, and feed the planner;
/// the explain entry point plans without scanning.
#[test]
fn planned_queries_return_exact_rows_with_fewer_seeks() {
    let dir = test_dir("stored-planned");
    let side = 32u32;
    let model = DiskModel {
        page_size: 16,
        seek_us: 8_000.0, // seek-heavy: the planner should coalesce
        transfer_us: 10.0,
    };
    for shards in [1usize, 4] {
        let t = ShardedTable::build_stored(
            Onion2D::new(side).unwrap(),
            dense_records(side),
            model,
            shards,
            &dir.join(format!("{shards}")),
            store16(256),
        )
        .unwrap();
        assert!((t.density() - 1.0).abs() < 1e-9, "dense table");
        let planner = Planner::new(model);
        for (lo, len) in [
            ([2u32, 3u32], [9u32, 7u32]),
            ([0, 15], [32, 2]),
            ([7, 7], [3, 3]),
            ([0, 0], [32, 32]),
        ] {
            let q = RectQuery::new(lo, len).unwrap();
            let exact = t.query_rect(&q, &QueryOptions::default()).unwrap();
            assert!(exact.plan.is_none());
            let planned = t.query_rect(&q, &QueryOptions::planned(&planner)).unwrap();
            let plan = planned
                .plan
                .clone()
                .expect("planned query carries its plan");
            assert_eq!(planned.records, exact.records, "{q:?} {}", plan.explain());
            assert_eq!(planned.io.entries, exact.io.entries);
            assert!(plan.ranges.len() <= plan.clusters);
            if shards == 1 {
                assert_eq!(planned.io.seeks, plan.ranges.len() as u64);
            }
            assert!(
                planned.io.time_us(t.model()) <= exact.io.time_us(t.model()) + 1e-9,
                "planned must not cost more under the model: {}",
                plan.explain()
            );
        }
        assert_eq!(planner.observed(), 4, "executed plans feed the planner");
        // The explain entry point plans without scanning.
        let q = RectQuery::new([1, 1], [20, 20]).unwrap();
        let plan = t.plan_rect(&q, &planner).unwrap();
        assert!(!plan.explain().is_empty());
        assert_eq!(planner.observed(), 4);
        assert!(t
            .plan_rect(&RectQuery::new([20, 20], [20, 20]).unwrap(), &planner)
            .is_err());
    }
}

/// Each shard's leaf cache warms up: repeating a query reads no page,
/// every page it touches is a cache hit, and it costs only seeks under
/// the model.
#[test]
fn paged_sharded_table_warms_up() {
    let dir = test_dir("stored-warm-up");
    let side = 16u32;
    let model = DiskModel {
        page_size: 16,
        seek_us: 8_000.0,
        transfer_us: 100.0,
    };
    for shards in [1usize, 4] {
        for (i, q) in [
            RectQuery::new([0, 0], [16, 16]).unwrap(),
            RectQuery::new([2, 2], [8, 8]).unwrap(),
        ]
        .iter()
        .enumerate()
        {
            // A fresh table per query, so every query starts cold.
            let t = ShardedTable::build_stored(
                Onion2D::new(side).unwrap(),
                dense_records(side),
                model,
                shards,
                &dir.join(format!("{shards}-{i}")),
                store16(64),
            )
            .unwrap();
            let cold = t.query_rect(q, &QueryOptions::default()).unwrap();
            let warm = t.query_rect(q, &QueryOptions::default()).unwrap();
            assert_eq!(cold.records, warm.records);
            assert!(cold.io.pages > 0, "cold cache reads pages");
            assert_eq!(warm.io.pages, 0, "every shard cache warm");
            assert_eq!(warm.io.cache_hits, cold.io.pages + cold.io.cache_hits);
            assert!(warm.io.time_us(t.model()) < cold.io.time_us(t.model()));
        }
    }
}

/// A fresh directory per proptest case (shrinking may repeat a seed, so
/// the name counts cases instead).
fn case_dir(name: &str) -> PathBuf {
    static CASES: AtomicUsize = AtomicUsize::new(0);
    test_dir(&format!("{name}-{}", CASES.fetch_add(1, Ordering::Relaxed)))
}

proptest! {
    /// The file backend changes the cost accounting, never the answers:
    /// query results match the memory backend's and the model's, and
    /// replaying a workload converts page reads into cache hits without
    /// touching results.
    #[test]
    fn file_backend_answers_match_memory_backend(seed in any::<u64>()) {
        let side = 32u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let points = zipf_points::<2, _>(side, 500, 0.6, &mut rng).points;
        let records: Vec<(Point<2>, u64)> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let model = Model::new(records.clone());
        let curve = curve_2d("onion", side).unwrap();
        let disk = DiskModel { page_size: 32, seek_us: 8_000.0, transfer_us: 100.0 };
        let mem = ShardedTable::build(curve_2d("onion", side).unwrap(), records.clone(), disk, 1)
            .unwrap();
        // Pages of 32 `Record<2, u64>` entries (28 encoded bytes each),
        // behind a cache larger than the table.
        let dir = case_dir("stored-vs-memory");
        let stored = ShardedTable::build_stored(
            curve_2d("onion", side).unwrap(),
            records,
            disk,
            1,
            &dir,
            StoreConfig { page_size: 8 + 32 * 28, pool_pages: 128 },
        )
        .unwrap();
        for _ in 0..8 {
            let q = RectQuery::from_corners(
                Point::new([rng.random_range(0..side), rng.random_range(0..side)]),
                Point::new([rng.random_range(0..side), rng.random_range(0..side)]),
            );
            let a = mem.query_rect(&q, &QueryOptions::default()).unwrap();
            let cold = stored.query_rect(&q, &QueryOptions::default()).unwrap();
            let warm = stored.query_rect(&q, &QueryOptions::default()).unwrap();
            prop_assert_eq!(pairs(&a.records), model.query(&curve, &q), "{:?}", q);
            prop_assert_eq!(&a.records, &cold.records, "{:?}", q);
            prop_assert_eq!(&a.records, &warm.records, "{:?}", q);
            prop_assert_eq!(a.io.seeks, cold.io.seeks);
            // The replay is fully absorbed by a cache larger than the table.
            prop_assert_eq!(warm.io.pages, 0, "{:?}", q);
            prop_assert_eq!(warm.io.cache_hits, cold.io.pages + cold.io.cache_hits);
        }
        drop(stored);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
