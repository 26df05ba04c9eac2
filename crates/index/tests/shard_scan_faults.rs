//! A storage failure in the middle of a cross-shard scan: a rectangle
//! read scans its shards one after another on the calling thread, so a
//! short read in a later shard must fail the whole query with a typed
//! `SfcError::Storage` — after earlier shards already produced rows —
//! and leave the table serving the right rows to the next query.

mod model;

use model::Model;
use onion_core::{Onion2D, Point, SfcError};
use sfc_clustering::RectQuery;
use sfc_index::{DiskModel, QueryOptions, Record, ShardedTable, StoreConfig};
use sfc_workloads::{faulty_file_factory, Fault, FaultInjector};
use std::path::PathBuf;
use std::sync::Arc;

const SIDE: u32 = 16;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pairs(records: &[Record<2, u64>]) -> Vec<(Point<2>, u64)> {
    records.iter().map(|r| (r.point, r.value)).collect()
}

#[test]
fn short_read_in_a_later_shard_fails_the_query_and_nothing_else() {
    let dir = test_dir("shard-scan-short-read");
    let records: Vec<(Point<2>, u64)> = (0..SIDE)
        .flat_map(|x| (0..SIDE).map(move |y| Point::new([x, y])))
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    let reference = Model::new(records.clone());
    let injector = FaultInjector::new();
    // Small pages and a 4-page leaf cache per shard: a full scan misses
    // on every leaf, so each run reads the same pages from the file.
    let table = ShardedTable::build_stored_with(
        Onion2D::new(SIDE).unwrap(),
        records,
        DiskModel::ssd(),
        3,
        &dir,
        StoreConfig {
            page_size: 256,
            pool_pages: 4,
        },
        faulty_file_factory(Arc::clone(&injector)),
    )
    .unwrap();
    let q = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
    let expect = reference.query(&Onion2D::new(SIDE).unwrap(), &q);
    let reads = || -> Vec<u64> {
        let res = table.query_rect(&q, &QueryOptions::default()).unwrap();
        assert_eq!(pairs(&res.records), expect);
        res.shard_io.iter().map(|s| s.real_reads).collect()
    };
    reads();
    let per_shard = reads();
    assert_eq!(reads(), per_shard, "clean scans read the same pages");
    assert!(
        per_shard.iter().all(|&r| r > 0),
        "the query reads from all three shards: {per_shard:?}"
    );

    // Strike the first read after the first shard's reads: the second
    // shard's first leaf, with the first shard's rows already collected.
    let before = injector.op_count();
    injector.schedule(before + per_shard[0], Fault::ShortRead);
    let err = table
        .query_rect(&q, &QueryOptions::default())
        .expect_err("the struck read must fail the query");
    assert!(
        matches!(err, SfcError::Storage { .. }),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("injected short read"), "{err}");
    assert_eq!(injector.injected(), 1);
    // The scan stopped at the struck read: the third shard was never read.
    assert_eq!(injector.op_count(), before + per_shard[0] + 1);

    // No fault left: the next query answers with the model's rows.
    assert_eq!(injector.pending(), 0);
    assert_eq!(reads(), per_shard);
}
