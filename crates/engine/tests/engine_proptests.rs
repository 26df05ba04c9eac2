//! Serving-layer correctness under concurrency, against single-threaded
//! models:
//!
//! * the engine is `Send + Sync` end to end (compile-time check);
//! * concurrent mixed op-streams from threads owning disjoint key bands
//!   are **per-key linearizable**: every `Get` observes exactly the value
//!   the thread's own single-threaded model predicts (reads-your-writes
//!   through the pending log, epoch application never loses or reorders a
//!   key's writes);
//! * at epoch boundaries the whole table equals the model table produced
//!   by applying the same ops single-threaded — for **every** registry
//!   curve, so curve choice changes costs, never answers.

use onion_core::Point;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfc_baselines::{curve_2d, CURVE_NAMES};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request, Response};
use sfc_index::{DiskModel, FileBackend, Record, ShardedTable};
use sfc_workloads::{mixed_op_stream, OpMix, StreamOp};
use std::collections::HashMap;

#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine<onion_core::Onion2D, u64, 2>>();
    assert_send_sync::<Engine<onion_core::Onion2D, u64, 2, FileBackend<Record<2, u64>>>>();
    assert_send_sync::<Engine<sfc_baselines::DynCurve<2>, u64, 2>>();
}

/// Initial dense payload: one record per cell, value = x*1000 + y.
fn dense_records(side: u32) -> Vec<(Point<2>, u64)> {
    (0..side)
        .flat_map(|x| {
            (0..side).map(move |y| (Point::new([x, y]), u64::from(x) * 1000 + u64::from(y)))
        })
        .collect()
}

/// Rewrites a generated stream so every *point* op — writes AND gets —
/// lands in thread `t`'s band (`x % threads == t`); only rectangle
/// queries roam freely. Banding the gets too is what makes the per-key
/// assertions sound: every read target is thread-owned, so its value is
/// predictable from the thread's own model. Banding the writes makes the
/// concurrent final state deterministic: no two threads ever write the
/// same cell, so any interleaving produces the same epoch-boundary table.
fn band_stream(stream: Vec<StreamOp<2>>, t: u32, threads: u32, side: u32) -> Vec<Request<2, u64>> {
    assert_eq!(side % threads, 0, "bands must tile the universe");
    let to_band = |p: Point<2>| -> Point<2> {
        let x = p.0[0] - p.0[0] % threads + t;
        debug_assert!(x < side);
        Point::new([x, p.0[1]])
    };
    stream
        .into_iter()
        .map(|op| match op {
            StreamOp::Get(p) => Request::Get(to_band(p)),
            StreamOp::Query(q) => Request::Query(q),
            // Insert would create duplicates on occupied cells, making
            // per-key values ambiguous; the banded model uses the upsert
            // form so every cell holds at most one record.
            StreamOp::Insert(p, v) | StreamOp::Update(p, v) => Request::Update(to_band(p), v),
            StreamOp::Delete(p) => Request::Delete(to_band(p)),
        })
        .collect()
}

/// Runs one banded stream against the engine, asserting per-key
/// linearizability of every `Get` against the thread's own model, and
/// returns the model's final band state.
fn run_banded_stream(
    engine: &Engine<sfc_baselines::DynCurve<2>, u64, 2>,
    ops: &[Request<2, u64>],
    side: u32,
) -> HashMap<Point<2>, u64> {
    // Start from the initial dense payload (the engine was built on it).
    let mut model: HashMap<Point<2>, u64> = HashMap::new();
    for x in 0..side {
        for y in 0..side {
            model.insert(Point::new([x, y]), u64::from(x) * 1000 + u64::from(y));
        }
    }
    let mut touched: HashMap<Point<2>, Option<u64>> = HashMap::new();
    for op in ops {
        let reply = engine.execute(op.clone()).expect("in-bounds op");
        match op {
            Request::Get(p) => {
                // Only cells this thread owns are predictable: other
                // threads may be writing their own bands concurrently, but
                // never ours.
                if let Some(&mine) = touched.get(p) {
                    assert_eq!(
                        reply,
                        Response::Value(mine),
                        "get after own writes at {p} must be linearizable"
                    );
                } else if let Response::Value(v) = reply {
                    // Untouched by us: must still hold the initial value —
                    // no other thread ever writes our band.
                    assert_eq!(v, model.get(p).copied(), "untouched cell {p}");
                }
            }
            Request::Query(q) => {
                // Epoch-consistent: only sanity here (exact equality is
                // checked at the final boundary below).
                let Response::Records(recs) = reply else {
                    panic!("query reply shape")
                };
                assert!(recs.len() as u64 <= q.volume());
            }
            Request::Update(p, v) => {
                touched.insert(*p, Some(*v));
            }
            Request::Delete(p) => {
                touched.insert(*p, None);
            }
            other => unreachable!(
                "banded streams use upserts and live queries only, not {}",
                other.verb()
            ),
        }
    }
    // Final band state: initial values overridden by this thread's writes.
    for (p, v) in touched {
        match v {
            Some(v) => model.insert(p, v),
            None => model.remove(&p),
        };
    }
    model
}

proptest! {
    /// Four threads of mixed Zipf-skewed traffic over disjoint write
    /// bands, for every registry curve: per-key gets are linearizable
    /// while running, and the epoch-boundary table equals the
    /// single-threaded model exactly.
    #[test]
    fn concurrent_streams_match_model_for_every_registry_curve(seed in any::<u64>()) {
        let side = 16u32;
        let threads = 4u32;
        for name in CURVE_NAMES {
            let table = ShardedTable::build(
                curve_2d(name, side).unwrap(),
                dense_records(side),
                DiskModel::ssd(),
                4,
            )
            .unwrap();
            // Small epochs force many concurrent flushes mid-run.
            let engine = Engine::new(table, EngineConfig::with_epoch_ops(32));
            let streams: Vec<Vec<Request<2, u64>>> = (0..threads)
                .map(|t| {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (u64::from(t) << 32) ^ name.len() as u64,
                    );
                    let raw = mixed_op_stream::<2, _>(
                        side,
                        120,
                        &OpMix::balanced(),
                        0.8,
                        6,
                        &mut rng,
                    );
                    band_stream(raw, t, threads, side)
                })
                .collect();
            let engine = &engine;
            let models: Vec<HashMap<Point<2>, u64>> = std::thread::scope(|s| {
                let handles: Vec<_> = streams
                    .iter()
                    .map(|ops| s.spawn(move || run_banded_stream(engine, ops, side)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("stream thread panicked"))
                    .collect()
            });
            // Merge the per-thread band states into the expected table:
            // thread t's model is authoritative for x % threads == t, the
            // initial data for... nothing (bands tile the whole universe).
            let mut expected: Vec<(Point<2>, u64)> = Vec::new();
            for x in 0..side {
                let owner = (x % threads) as usize;
                for y in 0..side {
                    let p = Point::new([x, y]);
                    if let Some(&v) = models[owner].get(&p) {
                        expected.push((p, v));
                    }
                }
            }
            // Epoch boundary: flush, then the whole table must equal the
            // model (as a set — curve order differs per curve).
            engine.flush().unwrap();
            let q = RectQuery::new([0, 0], [side, side]).unwrap();
            let (result, _) = engine.query(&q).unwrap();
            let mut got: Vec<(Point<2>, u64)> =
                result.records.iter().map(|r| (r.point, r.value)).collect();
            got.sort();
            expected.sort();
            prop_assert_eq!(engine.table().len(), expected.len(), "{}", name);
            prop_assert_eq!(got, expected, "{} epoch-boundary state", name);
        }
    }

    /// Epoch batching is semantically invisible: the same single stream
    /// produces the same epoch-boundary state whether applied op-by-op
    /// (epoch size 1) or in one giant epoch.
    #[test]
    fn epoch_size_never_changes_boundary_state(seed in any::<u64>(), epoch_ops in 1usize..64) {
        let side = 16u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = mixed_op_stream::<2, _>(side, 150, &OpMix::balanced(), 0.6, 5, &mut rng);
        let ops = band_stream(raw, 0, 1, side);
        let run = |epoch_ops: usize| {
            let engine = Engine::new(
                ShardedTable::build(
                    curve_2d("onion", side).unwrap(),
                    dense_records(side),
                    DiskModel::ssd(),
                    3,
                )
                .unwrap(),
                EngineConfig::with_epoch_ops(epoch_ops),
            );
            for op in &ops {
                engine.execute(op.clone()).unwrap();
            }
            engine.flush().unwrap();
            let q = RectQuery::new([0, 0], [side, side]).unwrap();
            let (result, _) = engine.query(&q).unwrap();
            result
                .records
                .iter()
                .map(|r| (r.point, r.value))
                .collect::<Vec<_>>()
        };
        let tiny = run(1);
        let chosen = run(epoch_ops);
        let giant = run(usize::MAX);
        prop_assert_eq!(&tiny, &chosen);
        prop_assert_eq!(&tiny, &giant);
    }
}
