//! End-to-end index tests: rectangle queries through the B+-tree return
//! exactly the right records under every curve, and the I/O accounting
//! equals the clustering number. Expected rows come from brute-force
//! filters and the independent table model in
//! `crates/index/tests/model/mod.rs`, never from the table itself.

#[path = "../crates/index/tests/model/mod.rs"]
mod model;

use model::Model;
use onion_curve::baselines::{curve_2d, CURVE_NAMES};
use onion_curve::clustering::{clustering_number, random_translations, RectQuery};
use onion_curve::index::{
    evaluate_partitioning, partition_universe, DiskModel, QueryOptions, Record, ShardedTable,
};
use onion_curve::workloads::{clustered_points, grid_points, uniform_points, zipf_points};
use onion_curve::{Point, SpaceFillingCurve};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A query result's rows as `(point, value)` pairs, the model's shape.
fn pairs(records: &[Record<2, u64>]) -> Vec<(Point<2>, u64)> {
    records.iter().map(|r| (r.point, r.value)).collect()
}

fn brute_force_hits(records: &[(Point<2>, u64)], q: &RectQuery<2>) -> Vec<u64> {
    let mut out: Vec<u64> = records
        .iter()
        .filter(|(p, _)| q.contains(*p))
        .map(|&(_, v)| v)
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn every_curve_answers_queries_identically() {
    let side = 64u32;
    let mut rng = StdRng::seed_from_u64(31);
    let mut records: Vec<(Point<2>, u64)> = Vec::new();
    for (i, p) in uniform_points::<2, _>(side, 3000, &mut rng)
        .points
        .into_iter()
        .enumerate()
    {
        records.push((p, i as u64));
    }
    let queries = random_translations(side, [13u32, 22], 25, &mut rng).unwrap();

    for name in CURVE_NAMES {
        let curve = curve_2d(name, side).unwrap();
        let table = ShardedTable::build(curve, records.clone(), DiskModel::ssd(), 1).unwrap();
        for q in &queries {
            let res = table.query_rect(q, &QueryOptions::default()).unwrap();
            let mut got: Vec<u64> = res.records.iter().map(|r| r.value).collect();
            got.sort_unstable();
            assert_eq!(got, brute_force_hits(&records, q), "{name} query {q:?}");
        }
    }
}

#[test]
fn seeks_equal_clustering_number_for_dense_tables() {
    // With one record per cell, every cluster range is non-empty, so the
    // seeks of a query equal the paper's clustering number exactly.
    let side = 32u32;
    let records: Vec<(Point<2>, u64)> = grid_points::<2>(side, 1)
        .points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    let mut rng = StdRng::seed_from_u64(5);
    let queries = random_translations(side, [9u32, 14], 20, &mut rng).unwrap();
    for name in ["onion", "hilbert", "z-order"] {
        let curve = curve_2d(name, side).unwrap();
        let table = ShardedTable::build(curve, records.clone(), DiskModel::hdd(), 1).unwrap();
        for q in &queries {
            let res = table.query_rect(q, &QueryOptions::default()).unwrap();
            let curve_again = curve_2d(name, side).unwrap();
            let expected = clustering_number(&curve_again, q);
            assert_eq!(res.io.seeks, expected, "{name} {q:?}");
            assert_eq!(res.records.len() as u64, q.volume());
        }
    }
}

#[test]
fn onion_needs_fewest_seeks_for_near_full_queries() {
    // The paper's adversarial regime, end to end through the index: a
    // near-full window on a dense table.
    let side = 64u32;
    let records: Vec<(Point<2>, u64)> = grid_points::<2>(side, 1)
        .points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    let q = RectQuery::new([1, 1], [side - 9, side - 9]).unwrap();
    let mut seeks = std::collections::HashMap::new();
    for name in ["onion", "hilbert", "z-order", "row-major"] {
        let curve = curve_2d(name, side).unwrap();
        let table = ShardedTable::build(curve, records.clone(), DiskModel::hdd(), 1).unwrap();
        seeks.insert(
            name,
            table
                .query_rect(&q, &QueryOptions::default())
                .unwrap()
                .io
                .seeks,
        );
    }
    assert!(
        seeks["onion"] * 4 < seeks["hilbert"],
        "onion {} vs hilbert {}",
        seeks["onion"],
        seeks["hilbert"]
    );
    assert!(seeks["onion"] * 4 < seeks["row-major"]);
}

#[test]
fn partitioning_covers_and_balances_for_all_curves() {
    let side = 32u32;
    for name in CURVE_NAMES {
        let curve = curve_2d(name, side).unwrap();
        for k in [2usize, 5, 16] {
            let parts = partition_universe(&curve, k);
            let total: u64 = parts.iter().map(|p| p.hi - p.lo + 1).sum();
            assert_eq!(total, curve.universe().cell_count(), "{name} k={k}");
            let m = evaluate_partitioning(&curve, &parts);
            assert!(m.imbalance <= 1, "{name} k={k}: imbalance {}", m.imbalance);
        }
    }
}

#[test]
fn buffer_pool_measures_page_working_sets() {
    // The buffer pool exposes a metric orthogonal to the clustering number:
    // the *distinct pages* a query workload touches. With 64-cell pages the
    // Z curve's pages are aligned 8×8 tiles, so window queries touch few
    // distinct pages (and its many tiny ranges re-hit them), while the
    // onion curve's ring-shaped runs spread across layers. Clustering
    // governs seeks, not working sets — another №VIII-style trade-off this
    // workspace makes measurable.
    use onion_curve::clustering::cluster_ranges;
    use onion_curve::index::LruBufferPool;
    let side = 64u32;
    let page = 64u64;
    let mut rng = StdRng::seed_from_u64(12);
    let queries = random_translations(side, [24u32, 24], 12, &mut rng).unwrap();
    let mut distinct_pages = std::collections::HashMap::new();
    for name in ["onion", "z-order", "hilbert"] {
        let curve = curve_2d(name, side).unwrap();
        // Pool big enough to never evict: misses == distinct pages.
        let mut pool = LruBufferPool::new(4096);
        for q in &queries {
            for (lo, hi) in cluster_ranges(&curve, q) {
                pool.access_range(lo, hi, page);
            }
        }
        distinct_pages.insert(name, pool.misses());
        // Replaying the identical workload hits the now-warm pool only.
        let before = pool.misses();
        for q in &queries {
            for (lo, hi) in cluster_ranges(&curve, q) {
                pool.access_range(lo, hi, page);
            }
        }
        assert_eq!(pool.misses(), before, "{name}: warm replay must not miss");
    }
    // The tiled Z layout has the smallest page working set at this page
    // size; the onion curve pays for its ring-shaped runs.
    assert!(
        distinct_pages["z-order"] <= distinct_pages["onion"],
        "z {} vs onion {}",
        distinct_pages["z-order"],
        distinct_pages["onion"]
    );
}

#[test]
fn sharded_engine_matches_single_table_end_to_end() {
    // The full pipeline through the facade: skewed data, several curves,
    // a 6-shard table and a 1-shard table against the independent model,
    // under mixed read traffic.
    let side = 64u32;
    let mut rng = StdRng::seed_from_u64(99);
    let records: Vec<(Point<2>, u64)> = zipf_points::<2, _>(side, 2500, 0.7, &mut rng)
        .points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    let model = Model::new(records.clone());
    let queries = random_translations(side, [17u32, 11], 15, &mut rng).unwrap();
    for name in ["onion", "hilbert", "z-order"] {
        let curve = curve_2d(name, side).unwrap();
        let build = |shards| {
            ShardedTable::build(
                curve_2d(name, side).unwrap(),
                records.clone(),
                DiskModel::hdd(),
                shards,
            )
            .unwrap()
        };
        let (single, sharded) = (build(1), build(6));
        // Zipf skew shows up as record imbalance across equal cell ranges.
        let sizes = sharded.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), records.len());
        for q in &queries {
            let expect = model.query(&curve, q);
            let a = single.query_rect(q, &QueryOptions::default()).unwrap();
            let b = sharded.query_rect(q, &QueryOptions::default()).unwrap();
            assert_eq!(pairs(&a.records), expect, "{name} single {q:?}");
            assert_eq!(pairs(&b.records), expect, "{name} sharded {q:?}");
            // One shard seeks once per cluster; splitting at shard
            // boundaries never loses or duplicates entries, and total
            // seeks can only grow.
            assert_eq!(a.io.seeks, clustering_number(&curve, q), "{name} {q:?}");
            assert_eq!(b.io.entries, expect.len() as u64, "{name} {q:?}");
            assert!(b.io.seeks >= a.io.seeks, "{name} {q:?}");
        }
        let batch = sharded.query_rect_batch(&queries).unwrap();
        for (q, res) in queries.iter().zip(&batch) {
            assert_eq!(
                pairs(&res.records),
                model.query(&curve, q),
                "{name} batch {q:?}"
            );
        }
    }
}

#[test]
fn clustered_data_changes_volumes_not_correctness() {
    let side = 64u32;
    let mut rng = StdRng::seed_from_u64(77);
    let records: Vec<(Point<2>, u64)> = clustered_points::<2, _>(side, 4000, 6, 8, &mut rng)
        .points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    let q = RectQuery::new([10, 10], [30, 30]).unwrap();
    let curve = curve_2d("onion", side).unwrap();
    let table = ShardedTable::build(curve, records.clone(), DiskModel::hdd(), 1).unwrap();
    let res = table.query_rect(&q, &QueryOptions::default()).unwrap();
    let mut got: Vec<u64> = res.records.iter().map(|r| r.value).collect();
    got.sort_unstable();
    assert_eq!(got, brute_force_hits(&records, &q));
    assert_eq!(res.io.entries as usize, got.len());
}
