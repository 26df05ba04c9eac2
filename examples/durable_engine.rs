//! Durable serving: insert, crash, reopen, recover — and group commit.
//!
//! Walks the whole durability story end to end: a WAL-backed engine
//! serves writes in epochs, the process "crashes" (the engine is dropped
//! cold, pending writes and all), and a reopened engine recovers exactly
//! the acknowledged epoch boundary — then compacts its log into a
//! snapshot, proves the state survives that too, and finishes with a
//! multi-writer group commit: several threads flushing concurrently
//! coalesce into **one** epoch frame (and one fsync), observed via
//! `wal_len`.
//!
//! Run with `cargo run --release --example durable_engine`.

use onion_core::{Onion2D, Point};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request, Response, WAL_FILE};
use sfc_index::DiskModel;
use std::sync::Barrier;

fn main() {
    let side = 1u32 << 7;
    let dir = std::env::temp_dir().join(format!("sfc-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || -> Engine<Onion2D, u64, 2> {
        Engine::open(
            &dir,
            Onion2D::new(side).unwrap(),
            DiskModel::ssd(),
            4,
            EngineConfig::with_epoch_ops(256),
        )
        .unwrap()
    };

    // --- Run 1: serve writes, flush some epochs, crash. -----------------
    let engine = open();
    println!(
        "fresh engine: epoch {}, {} records",
        engine.epoch(),
        engine.table().len()
    );
    for i in 0..1000u64 {
        let p = Point::new([
            (i % u64::from(side)) as u32,
            (i / 8 % u64::from(side)) as u32,
        ]);
        engine.execute(Request::Insert(p, i)).unwrap();
    }
    engine.flush().unwrap(); // commit point: every insert above is durable
    let durable_count = engine.table().len();

    // These writes are admitted (acknowledged `Queued`) but never
    // flushed — the crash below takes them with it.
    for i in 0..100u64 {
        engine
            .execute(Request::Insert(Point::new([i as u32, 101]), 9_000_000 + i))
            .unwrap();
    }
    println!(
        "before crash: epoch {}, {} records durable, {} writes pending, WAL {} bytes",
        engine.epoch(),
        durable_count,
        engine.pending(),
        engine.wal_len().unwrap(),
    );
    drop(engine); // crash: no flush, no shutdown hook

    // --- Run 2: recover, verify, checkpoint. ----------------------------
    let engine = open();
    println!(
        "\nrecovered: epoch {}, {} records (pending writes lost, epochs kept)",
        engine.epoch(),
        engine.table().len()
    );
    assert_eq!(engine.table().len(), durable_count);
    let Response::Value(v) = engine.execute(Request::Get(Point::new([5, 0]))).unwrap() else {
        unreachable!()
    };
    println!("point get after recovery: {v:?}");

    // Compact the log into a snapshot; recovery afterwards reads the
    // snapshot plus an empty WAL suffix.
    let before = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    let epoch = engine.checkpoint().unwrap();
    let after = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    println!("checkpoint at epoch {epoch}: WAL {before} -> {after} bytes");
    drop(engine);

    let engine = open();
    let q = RectQuery::new([0, 0], [side, side]).unwrap();
    let Response::Records(recs) = engine.execute(Request::Query(q)).unwrap() else {
        unreachable!()
    };
    assert_eq!(recs.len(), durable_count);
    println!(
        "\nreopened from snapshot: epoch {}, {} records — identical state, instant log",
        engine.epoch(),
        recs.len()
    );

    drop(engine);

    // --- Run 3: group commit — N writers, one epoch frame, one fsync. ---
    // Each thread admits its own writes, waits at a barrier until every
    // writer's admissions are in, and calls `flush` concurrently. The
    // first to take flush leadership applies one epoch holding everything
    // admitted so far; the other flushers take it after, find their
    // writes covered and only wait for its fsync — so the WAL grows by a
    // single coalesced frame (one fsync serves every writer) instead of
    // one frame per writer, however the threads are scheduled.
    let engine = open();
    let writers = 4u64;
    let per_writer = 32u64;
    let epoch_before = engine.epoch();
    let wal_before = engine.wal_len().unwrap();
    let engine_ref = &engine;
    let admitted = Barrier::new(writers as usize);
    let admitted = &admitted;
    std::thread::scope(|s| {
        for w in 0..writers {
            s.spawn(move || {
                for i in 0..per_writer {
                    let p = Point::new([(w * per_writer + i) as u32 % side, 120]);
                    engine_ref
                        .execute(Request::Update(p, 7_000_000 + w * 1000 + i))
                        .unwrap();
                }
                admitted.wait();
                // Every thread asks for durability; one fsync serves all.
                engine_ref.flush().unwrap();
            });
        }
    });
    let frames = engine.epoch() - epoch_before;
    println!(
        "\ngroup commit: {writers} writers x {per_writer} ops flushed concurrently \
         -> {frames} epoch frame(s), WAL {wal_before} -> {} bytes, all durable \
         (durable epoch {})",
        engine.wal_len().unwrap(),
        engine.durable_epoch(),
    );
    assert_eq!(frames, 1, "concurrent flushes coalesce into one epoch");
    assert_eq!(engine.durable_epoch(), engine.epoch(), "flush acknowledged");
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}
