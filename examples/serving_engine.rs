//! The serving layer end to end: an `Engine` over a Zipf-skewed,
//! file-backed sharded table, driven by concurrent mixed op-streams, with
//! the adaptive planner explaining its decisions as its live statistics —
//! among them the shards' leaf-cache hit rate — warm up.
//!
//! Run with `cargo run --release --example serving_engine`. The table's
//! segment files live in a temporary directory removed at exit.

use onion_curve::clustering::RectQuery;
use onion_curve::engine::{Engine, EngineConfig, Request};
use onion_curve::index::{DiskModel, ShardedTable, StoreConfig};
use onion_curve::workloads::{mixed_op_stream, zipf_points, OpMix};
use onion_curve::{Onion2D, Point};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let side = 1u32 << 8;
    let mut rng = StdRng::seed_from_u64(7);
    let records: Vec<(Point<2>, u64)> = zipf_points::<2, _>(side, 50_000, 0.8, &mut rng)
        .points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    let dir = std::env::temp_dir().join(format!("sfc-serving-engine-{}", std::process::id()));
    let table = ShardedTable::build_stored(
        Onion2D::new(side).unwrap(),
        records,
        DiskModel::hdd(),
        4,
        &dir,
        StoreConfig {
            page_size: 4096,
            pool_pages: 1 << 9,
        },
    )
    .unwrap();
    println!(
        "engine over {} records, {} shards (sizes {:?})",
        table.len(),
        table.shard_count(),
        table.shard_sizes()
    );
    let engine = Engine::new(table, EngineConfig::with_epoch_ops(256));

    // A cold plan, before any feedback.
    let q = RectQuery::new([20, 20], [96, 96]).unwrap();
    println!("\ncold plan:  {}", engine.explain(&q).unwrap().explain());

    // Serve mixed traffic: 4 reader threads + 1 writer thread.
    let reader_streams: Vec<Vec<Request<2, u64>>> = (0..4)
        .map(|_| {
            mixed_op_stream::<2, _>(side, 500, &OpMix::read_only(), 0.8, 48, &mut rng)
                .into_iter()
                .map(Request::from)
                .collect()
        })
        .collect();
    let writer: Vec<Request<2, u64>> =
        mixed_op_stream::<2, _>(side, 1_000, &OpMix::write_only(), 0.8, 1, &mut rng)
            .into_iter()
            .map(Request::from)
            .collect();
    let engine_ref = &engine;
    std::thread::scope(|s| {
        for stream in &reader_streams {
            s.spawn(move || {
                for op in stream {
                    engine_ref.execute(op.clone()).unwrap();
                }
            });
        }
        s.spawn(move || {
            for op in &writer {
                engine_ref.execute(op.clone()).unwrap();
            }
        });
    });
    engine.flush().unwrap();

    let stats = engine.stats();
    println!(
        "\nserved: {} gets, {} rect queries, {} writes in {} epoch(s)",
        stats.gets, stats.queries, stats.writes, stats.epochs
    );
    println!(
        "planner: hit rate {:.2}, shard skew {:.2} after {} observed queries",
        engine.planner().hit_rate(),
        engine.planner().shard_skew(),
        engine.planner().observed()
    );
    // The same query, planned warm: the cache feedback discounts
    // transfers, so the plan leans further toward fewer seeks.
    println!("warm plan:  {}", engine.explain(&q).unwrap().explain());
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}
