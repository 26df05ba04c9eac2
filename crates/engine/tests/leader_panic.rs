//! A flush leader that panics mid-epoch must not wedge the engine.
//!
//! A disk-resident table's point lookups cannot return an error, so a
//! failed segment read inside `apply_batch` panics the leader. Its
//! epoch may then be logged but not applied, which only a reopen can
//! reconcile. What the engine owes its other callers is a prompt answer:
//! every later flush and checkpoint fails with `SfcError::Storage`
//! instead of waiting for a leader that will never finish, and reads
//! are still served.

use onion_core::{Onion2D, Point, SfcError};
use sfc_engine::{Engine, EngineConfig, Request, Response};
use sfc_index::{DiskModel, FileBackend, FileStore, Record, StoreConfig};
use sfc_workloads::{faulty_file_factory, Fault, FaultInjector, FaultStore};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const SIDE: u32 = 16;

type FaultyEngine = Engine<Onion2D, u64, 2, FileBackend<Record<2, u64>, FaultStore<FileStore>>>;

/// Runs `call` on its own thread and waits at most 10 s for its answer,
/// so a call that blocks fails the test instead of hanging it (a call
/// that panics drops the sender and fails the wait too). The thread is
/// joined only once it has answered.
fn within_10s<T: Send + 'static>(
    engine: &Arc<FaultyEngine>,
    call: fn(&FaultyEngine) -> T,
) -> Result<T, mpsc::RecvTimeoutError> {
    let (tx, rx) = mpsc::channel();
    let engine = Arc::clone(engine);
    let caller = std::thread::spawn(move || {
        let _ = tx.send(call(&engine));
    });
    let answer = rx.recv_timeout(Duration::from_secs(10))?;
    caller.join().expect("the caller has answered");
    Ok(answer)
}

#[test]
fn a_flush_after_a_panicked_leader_fails_instead_of_blocking() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("leader-panic");
    let _ = std::fs::remove_dir_all(&dir);
    let injector = FaultInjector::new();
    let engine: Arc<FaultyEngine> = Arc::new(
        Engine::open_stored_with(
            &dir,
            Onion2D::new(SIDE).unwrap(),
            DiskModel::ssd(),
            1,
            StoreConfig {
                page_size: 256,
                pool_pages: 4,
            },
            faulty_file_factory(Arc::clone(&injector)),
            EngineConfig::with_epoch_ops(1 << 20), // manual flushes only
        )
        .unwrap(),
    );
    let value = |x: u32, y: u32| u64::from(x * SIDE + y);
    for x in 0..SIDE {
        for y in 0..SIDE {
            engine
                .execute(Request::Insert(Point::new([x, y]), value(x, y)))
                .unwrap();
        }
    }
    engine.checkpoint().unwrap();

    // The update's apply looks its cell up in the base segment; the
    // next store read fails, and the leader panics inside `apply_batch`.
    let p = Point::new([3, 5]);
    engine.execute(Request::Update(p, 9_999)).unwrap();
    injector.schedule(injector.op_count(), Fault::ShortRead);
    let leader = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.flush())
    };
    assert!(
        leader.join().is_err(),
        "the leader panics on the failed segment read"
    );
    assert_eq!(injector.injected(), 1);

    let flushed =
        within_10s(&engine, |e| e.flush()).expect("a flush after a panicked leader must not block");
    assert!(
        matches!(flushed, Err(SfcError::Storage { .. })),
        "{flushed:?}"
    );
    let checkpointed = within_10s(&engine, |e| e.checkpoint())
        .expect("a checkpoint after a panicked leader must not block");
    assert!(
        matches!(checkpointed, Err(SfcError::Storage { .. })),
        "{checkpointed:?}"
    );

    // Reads are still served: the admitted write from the log, every
    // other cell from the table's installed version.
    assert_eq!(
        engine.execute(Request::Get(p)).unwrap(),
        Response::Value(Some(9_999))
    );
    assert_eq!(
        engine.execute(Request::Get(Point::new([0, 1]))).unwrap(),
        Response::Value(Some(value(0, 1)))
    );
    assert_eq!(engine.epoch(), 1, "the panicked epoch was not installed");
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}
