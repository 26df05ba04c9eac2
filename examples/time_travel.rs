//! Time travel: epoch MVCC, `as_of` reads, and the retention window.
//!
//! Every flush installs a new immutable table version stamped with its
//! epoch; the engine retains a bounded window of recent versions. This
//! example writes a short history, then reads the past three ways:
//!
//! 1. **Pinned snapshot** — `snapshot_at(e)` pins a retained version;
//!    reads through it keep answering epoch `e` while later epochs land.
//! 2. **`as_of` inside the window** — `Request::QueryAsOf` answers from the
//!    retained version with zero I/O.
//! 3. **`as_of` past the window** — the version is gone from memory, so
//!    the engine reconstructs the state by replaying the WAL prefix
//!    through epoch `e` (the same computation crash recovery runs),
//!    until a checkpoint compacts that history away and draws the
//!    horizon for how far back `as_of` can reach.
//!
//! Run with `cargo run --release --example time_travel`.

use onion_core::{Onion2D, Point};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request, Response};
use sfc_index::{DiskModel, RetentionPolicy};

fn main() {
    let side = 1u32 << 6;
    let dir = std::env::temp_dir().join(format!("sfc-time-travel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine: Engine<Onion2D, u64, 2> = Engine::open(
        &dir,
        Onion2D::new(side).unwrap(),
        DiskModel::ssd(),
        4,
        EngineConfig {
            epoch_ops: 1 << 20, // flush manually: one epoch per "day" below
            // Keep only the last 3 epochs in memory; anything older must
            // come back through the WAL.
            retention: RetentionPolicy {
                epochs: 3,
                bytes: u64::MAX,
            },
            ..EngineConfig::default()
        },
    )
    .unwrap();

    // --- A history: each epoch revalues one column of the grid. --------
    const EPOCHS: u64 = 8;
    for e in 1..=EPOCHS {
        for y in 0..side {
            engine
                .execute(Request::Update(Point::new([(e - 1) as u32, y]), e * 100))
                .unwrap();
        }
        engine.flush().unwrap(); // epoch e is now durable and versioned
    }
    println!(
        "wrote {EPOCHS} epochs; retained versions: {:?}",
        engine.table().retained_epochs()
    );

    // --- 1. A pinned snapshot is a stable past. ------------------------
    let pinned = engine.table().snapshot();
    let at = pinned.epoch();
    for y in 0..side {
        engine.execute(Request::Delete(Point::new([0, y]))).unwrap();
    }
    engine.flush().unwrap();
    let q = RectQuery::new([0, 0], [side, side]).unwrap();
    let now = engine.query(&q).unwrap().0.records.len();
    let then = pinned.query_rect(&q).unwrap().records.len();
    println!("after a deleting epoch: live={now} records, pinned@{at}={then} records");
    assert_eq!(then as u64, u64::from(side) * EPOCHS);

    // --- 2. as_of inside the retention window: memory, zero I/O. -------
    let warm = engine.epoch() - 1;
    assert!(engine.snapshot_at(warm).is_some(), "still retained");
    let Response::Records(recs) = engine
        .execute(Request::QueryAsOf {
            epoch: warm,
            query: q,
        })
        .unwrap()
    else {
        unreachable!()
    };
    println!("as_of({warm}) from the window: {} records", recs.len());

    // --- 3. as_of past the window: eviction, then WAL replay. ----------
    let cold = 2u64;
    assert!(
        engine.snapshot_at(cold).is_none(),
        "epoch {cold} was evicted from the {:?}-epoch window",
        engine.table().retention().epochs
    );
    let recs = engine.query_as_of(cold, &q).unwrap().records;
    println!(
        "as_of({cold}) after eviction: {} records, reconstructed by WAL replay",
        recs.len()
    );
    assert_eq!(recs.len() as u64, u64::from(side) * cold);
    assert!(recs.iter().all(|r| r.value <= cold * 100));

    // --- The checkpoint horizon. ---------------------------------------
    // Compaction folds the WAL into a snapshot at the current epoch;
    // epochs before it are no longer reconstructible, and `as_of` says so.
    let horizon = engine.checkpoint().unwrap();
    let err = engine.query_as_of(cold, &q).unwrap_err();
    println!("after checkpoint at epoch {horizon}: as_of({cold}) -> {err}");
    assert!(engine.query_as_of(horizon, &q).is_ok());

    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}
