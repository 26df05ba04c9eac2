//! B+-tree and SFC-table performance: bulk load, point lookup, and
//! rectangle queries under different curves (the end-to-end path whose seek
//! count the paper's clustering number predicts).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use onion_core::{Point, SpaceFillingCurve};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_baselines::curve_2d;
use sfc_clustering::RectQuery;
use sfc_index::{BPlusTree, DiskModel, QueryOptions, ShardedTable};
use std::hint::black_box;

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    group.sample_size(30);
    let entries: Vec<(u64, u64)> = (0..100_000u64).map(|k| (k, k)).collect();
    group.bench_function("bulk_load_100k", |b| {
        b.iter(|| black_box(BPlusTree::bulk_load(entries.clone(), 256)));
    });
    let tree = BPlusTree::bulk_load(entries, 256);
    group.bench_function("point_get", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k.wrapping_mul(6364136223846793005).wrapping_add(7)) % 100_000;
            black_box(tree.get(black_box(k)))
        });
    });
    group.bench_function("range_scan_1k", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k.wrapping_mul(6364136223846793005).wrapping_add(7)) % 99_000;
            black_box(tree.range(k, k + 999).count())
        });
    });
    group.finish();
}

fn bench_table_queries(c: &mut Criterion) {
    let side = 1 << 8;
    let mut rng = StdRng::seed_from_u64(7);
    let records: Vec<(Point<2>, u64)> = (0..50_000)
        .map(|i| {
            (
                Point::new([rng.random_range(0..side), rng.random_range(0..side)]),
                i,
            )
        })
        .collect();
    let mut group = c.benchmark_group("sfc_table_rect_query");
    group.sample_size(30);
    for name in ["onion", "hilbert", "z-order", "row-major"] {
        let curve = curve_2d(name, side).unwrap();
        let table = ShardedTable::build(curve, records.clone(), DiskModel::hdd(), 1).unwrap();
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut x = 0u32;
            b.iter(|| {
                x = (x.wrapping_mul(1664525).wrapping_add(1013904223)) % (side - 32);
                let q = RectQuery::new([x, (x * 7) % (side - 32)], [32, 32]).unwrap();
                black_box(
                    table
                        .query_rect(black_box(&q), &QueryOptions::default())
                        .unwrap()
                        .io,
                )
            });
        });
        let _ = table.curve().universe();
    }
    group.finish();
}

criterion_group!(benches, bench_btree, bench_table_queries);
criterion_main!(benches);
