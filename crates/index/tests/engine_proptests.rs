//! Engine-level properties of the layered storage engine:
//!
//! * the table types are `Send + Sync` (checked at compile time) and
//!   actually serve concurrent readers;
//! * insert/delete sequences preserve every B+-tree structural invariant
//!   and agree with a naive sorted-multiset model;
//! * the windowed multi-range B+-tree scan visits and reports exactly what
//!   the per-range reference scan does;
//! * tables answer exactly like an independent model (`model/mod.rs`: a
//!   `Vec` of rows filtered and ordered by the curve) for **every**
//!   registry curve, across shard counts, single-record writes and
//!   batched epoch writes (the file-backed backend's equivalence suite
//!   lives in `stored_backend_tests.rs`).

mod model;

use model::Model;
use onion_core::Point;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_baselines::{curve_2d, CURVE_NAMES};
use sfc_clustering::{RectQuery, ScratchPool};
use sfc_index::{
    BPlusTree, BatchOp, DiskModel, FileBackend, MemoryBackend, QueryOptions, Record, ShardedTable,
};
use sfc_workloads::zipf_points;

/// A query result's rows as `(point, value)` pairs, the model's shape.
fn pairs<V: Clone>(records: &[Record<2, V>]) -> Vec<(Point<2>, V)> {
    records.iter().map(|r| (r.point, r.value.clone())).collect()
}

/// Compile-time `Send + Sync` assertions: the engine's whole read path must
/// be shareable across threads.
#[test]
fn engine_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedTable<onion_core::Onion2D, u64, 2>>();
    assert_send_sync::<ShardedTable<onion_core::Onion2D, u64, 2, FileBackend<Record<2, u64>>>>();
    assert_send_sync::<MemoryBackend<u64>>();
    assert_send_sync::<FileBackend<u64>>();
    assert_send_sync::<BPlusTree<u64>>();
    assert_send_sync::<ScratchPool<2>>();
    // Registry curves are handed out thread-safe, so dyn-curve tables are
    // shareable too.
    assert_send_sync::<ShardedTable<sfc_baselines::DynCurve<2>, u64, 2>>();
}

/// Concurrent readers on one shared table: every thread sees the full,
/// correct result set, at one shard and at several.
#[test]
fn concurrent_queries_on_shared_table() {
    let side = 32u32;
    let curve = onion_core::Onion2D::new(side).unwrap();
    let mut records = Vec::new();
    for x in 0..side {
        for y in 0..side {
            records.push((Point::new([x, y]), x * 1000 + y));
        }
    }
    let model = Model::new(records.clone());
    let queries = [
        RectQuery::new([0, 0], [32, 32]).unwrap(),
        RectQuery::new([3, 5], [9, 11]).unwrap(),
        RectQuery::new([20, 0], [12, 32]).unwrap(),
        RectQuery::new([31, 31], [1, 1]).unwrap(),
    ];
    let expected: Vec<Vec<(Point<2>, u32)>> =
        queries.iter().map(|q| model.query(&curve, q)).collect();
    for shards in [1usize, 3] {
        let table = ShardedTable::build(curve, records.clone(), DiskModel::ssd(), shards).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (q, expect) in queries.iter().zip(&expected) {
                        let got = table.query_rect(q, &QueryOptions::default()).unwrap();
                        assert_eq!(&pairs(&got.records), expect, "shards={shards} {q:?}");
                    }
                });
            }
        });
    }
}

proptest! {
    /// Random insert/delete interleavings preserve the B+-tree invariants
    /// and match a sorted-multiset model (stable among duplicates: inserts
    /// append after equal keys, removals take the first).
    #[test]
    fn btree_writes_preserve_invariants(seed in any::<u64>(), capacity in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree: BPlusTree<u32> = BPlusTree::new(capacity);
        let mut model: Vec<(u64, u32)> = Vec::new();
        for step in 0..400u32 {
            let key = u64::from(rng.random_range(0..48u32)); // dense: duplicates happen
            if rng.random_range(0..3u32) == 0 {
                let got = tree.remove(key);
                let expect = model
                    .iter()
                    .position(|&(k, _)| k == key)
                    .map(|i| model.remove(i).1);
                prop_assert_eq!(got, expect, "remove {} at step {}", key, step);
            } else {
                tree.insert(key, step);
                let pos = model.partition_point(|&(k, _)| k <= key);
                model.insert(pos, (key, step));
            }
        }
        tree.check_invariants().map_err(|e| format!("invariants: {e}"))?;
        prop_assert_eq!(tree.len(), model.len());
        let got: Vec<(u64, u32)> = tree.iter().map(|(k, &v)| (k, v)).collect();
        prop_assert_eq!(got, model);
    }

    /// The windowed multi-range scan visits the same entries and reports
    /// the same page ids, in the same order, as the no-prefetch reference
    /// scan called once per range — on trees with duplicates and
    /// removal-emptied leaves, for range lists long enough to fill, run
    /// and drain the window several times over.
    #[test]
    fn btree_scan_ranges_matches_per_range_reference(
        seed in any::<u64>(),
        capacity in 2usize..17,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree: BPlusTree<u32> = BPlusTree::new(capacity);
        for step in 0..600u32 {
            tree.insert(u64::from(rng.random_range(0..300u32)), step);
        }
        for _ in 0..rng.random_range(0..400u32) {
            tree.remove(u64::from(rng.random_range(0..300u32)));
        }
        let n = rng.random_range(0..48usize);
        let mut ranges = Vec::new();
        let mut lo = u64::from(rng.random_range(0..8u32));
        while ranges.len() < n && lo < 320 {
            let hi = lo + u64::from(rng.random_range(0..12u32));
            ranges.push((lo, hi));
            lo = hi + 1 + u64::from(rng.random_range(0..10u32));
        }
        let (mut pages, mut got) = (Vec::new(), Vec::new());
        tree.scan_ranges(&ranges, &mut |id| pages.push(id), &mut |k, &v| got.push((k, v)));
        let (mut ref_pages, mut ref_got) = (Vec::new(), Vec::new());
        for &(lo, hi) in &ranges {
            tree.scan_range_reference(lo, hi, &mut |id| ref_pages.push(id), &mut |k, &v| {
                ref_got.push((k, v))
            });
        }
        prop_assert_eq!(got, ref_got, "entries diverge over {:?}", ranges);
        prop_assert_eq!(pages, ref_pages, "pages diverge over {:?}", ranges);
    }

    /// For every registry curve: a table answers rectangle queries
    /// exactly like the model, single and batched, across shard counts —
    /// including on Zipf-skewed data where shards are badly imbalanced.
    #[test]
    fn sharded_matches_model_for_every_registry_curve(
        seed in any::<u64>(),
        shards in 1usize..7,
    ) {
        let side = 16u32; // power of two: every registry curve accepts it
        let mut rng = StdRng::seed_from_u64(seed);
        let points = zipf_points::<2, _>(side, 300, 0.8, &mut rng).points;
        let records: Vec<(Point<2>, u64)> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let model = Model::new(records.clone());
        for name in CURVE_NAMES {
            let curve = curve_2d(name, side).unwrap();
            let sharded = ShardedTable::build(
                curve_2d(name, side).unwrap(),
                records.clone(),
                DiskModel::hdd(),
                shards,
            )
            .unwrap();
            prop_assert_eq!(sharded.len(), model.len());
            let queries = [
                RectQuery::new([0, 0], [side, side]).unwrap(),
                RectQuery::from_corners(
                    Point::new([rng.random_range(0..side), rng.random_range(0..side)]),
                    Point::new([rng.random_range(0..side), rng.random_range(0..side)]),
                ),
                RectQuery::new([0, 0], [1, 1]).unwrap(),
            ];
            let batch = sharded.query_rect_batch(&queries).unwrap();
            for (q, batched) in queries.iter().zip(&batch) {
                let expect = model.query(&curve, q);
                let res = sharded.query_rect(q, &QueryOptions::default()).unwrap();
                prop_assert_eq!(
                    &pairs(&res.records), &expect,
                    "{} shards={} {:?}", name, shards, q
                );
                prop_assert_eq!(res.io.entries, expect.len() as u64);
                prop_assert_eq!(
                    &pairs(&batched.records), &expect,
                    "batch {} {:?}", name, q
                );
            }
        }
    }

    /// Single-record writes follow the model for every registry curve:
    /// the same inserts/deletes/updates return the same displaced values
    /// and leave the same rows and point reads, at any shard count.
    #[test]
    fn writes_match_model_for_every_registry_curve(seed in any::<u64>(), shards in 1usize..6) {
        let side = 16u32;
        for name in CURVE_NAMES {
            let mut rng = StdRng::seed_from_u64(seed);
            let curve = curve_2d(name, side).unwrap();
            let mut model: Model<2, u64> = Model::new(Vec::new());
            let sharded: ShardedTable<_, u64, 2> = ShardedTable::build(
                curve_2d(name, side).unwrap(),
                Vec::new(),
                DiskModel::ssd(),
                shards,
            )
            .unwrap();
            for step in 0..200u64 {
                let p = Point::new([rng.random_range(0..side), rng.random_range(0..side)]);
                match rng.random_range(0..4u32) {
                    0 => {
                        prop_assert_eq!(
                            sharded.apply_batch(vec![BatchOp::Delete(p)]).unwrap(),
                            vec![model.delete(p)],
                            "{} delete", name
                        );
                    }
                    1 => {
                        prop_assert_eq!(
                            sharded.apply_batch(vec![BatchOp::Update(p, step)]).unwrap(),
                            vec![model.update(p, step)],
                            "{} update", name
                        );
                    }
                    _ => {
                        prop_assert_eq!(
                            sharded.apply_batch(vec![BatchOp::Insert(p, step)]).unwrap(),
                            vec![None]
                        );
                        model.insert(p, step);
                    }
                }
                prop_assert_eq!(sharded.get(p).unwrap().map(|g| g.cloned()), model.get(p));
            }
            prop_assert_eq!(sharded.len(), model.len());
            let q = RectQuery::new([0, 0], [side, side]).unwrap();
            prop_assert_eq!(
                pairs(&sharded.query_rect(&q, &QueryOptions::default()).unwrap().records),
                model.query(&curve, &q),
                "{}", name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Batched epoch writes follow the model: for every registry curve and
    /// 1/2/5 shards, a batch large enough to cross `apply_batch`'s thread
    /// threshold (on a multi-core host) returns the displaced payloads the
    /// model's in-order writes return (in submission order) and lands on
    /// the model's record count and full-scan rows — including
    /// adversarial same-point op chains, whose submission order
    /// parallelism must never reorder.
    #[test]
    fn parallel_apply_matches_model_for_every_curve(seed in any::<u64>()) {
        let side = 16u32;
        let mut rng = StdRng::seed_from_u64(seed);
        // Well above the 1024-op parallel threshold, with heavy same-point
        // traffic (the universe has only 256 cells).
        let ops: Vec<BatchOp<2, u64>> = (0..2048)
            .map(|i| {
                let p = Point::new([
                    rng.random_range(0..side),
                    rng.random_range(0..side),
                ]);
                match rng.random_range(0..10u32) {
                    0..=4 => BatchOp::Insert(p, i),
                    5..=7 => BatchOp::Update(p, 1_000_000 + i),
                    _ => BatchOp::Delete(p),
                }
            })
            .collect();
        let mut model: Model<2, u64> = Model::new(Vec::new());
        let expected: Vec<Option<u64>> = ops
            .iter()
            .map(|op| match *op {
                BatchOp::Insert(p, v) => {
                    model.insert(p, v);
                    None
                }
                BatchOp::Update(p, v) => model.update(p, v),
                BatchOp::Delete(p) => model.delete(p),
            })
            .collect();
        let q = RectQuery::new([0, 0], [side, side]).unwrap();
        for name in CURVE_NAMES {
            let curve = curve_2d(name, side).unwrap();
            for shards in [1usize, 2, 5] {
                let table: ShardedTable<_, u64, 2> = ShardedTable::build(
                    curve_2d(name, side).unwrap(),
                    Vec::new(),
                    DiskModel::ssd(),
                    shards,
                )
                .unwrap();
                let results = table.apply_batch(ops.clone()).unwrap();
                prop_assert_eq!(
                    &results,
                    &expected,
                    "{} at {} shards: displaced payloads",
                    name,
                    shards
                );
                prop_assert_eq!(table.len(), model.len(), "{} record count", name);
                prop_assert_eq!(
                    pairs(&table.query_rect(&q, &QueryOptions::default()).unwrap().records),
                    model.query(&curve, &q),
                    "{} at {} shards: full-scan state",
                    name,
                    shards
                );
            }
        }
    }
}
