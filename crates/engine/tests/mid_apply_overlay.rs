//! What the engine serves while a flush leader is inside `apply_batch`.
//!
//! A gated page store holds the leader in its first segment read, in
//! the middle of applying an epoch. Meanwhile a point get must return
//! the write being applied (it is admitted, and the overlay must not
//! lose it between the log and the table), a rectangle query must return
//! the last installed epoch, and new writes must still be admitted. Every
//! wait is bounded, so a regression fails instead of hanging.

use onion_core::{Onion2D, Point};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Request, Response};
use sfc_index::{DiskModel, FileStore, PageStore, StoreConfig, StoreFactory, StoreStats};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SIDE: u32 = 16;
const WAIT: Duration = Duration::from_secs(10);

/// Once armed, the next page read anywhere signals `entered` and waits
/// for `release` (or for its sender to drop).
type Gate = Arc<Mutex<Option<(Sender<()>, Receiver<()>)>>>;

struct GatedStore {
    inner: FileStore,
    gate: Gate,
}

impl PageStore for GatedStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn read_page(&self, page: u64, buf: &mut [u8]) -> io::Result<()> {
        let armed = self.gate.lock().unwrap().take();
        if let Some((entered, release)) = armed {
            let _ = entered.send(());
            let _ = release.recv();
        }
        self.inner.read_page(page, buf)
    }

    fn write_page(&self, page: u64, buf: &[u8]) -> io::Result<()> {
        self.inner.write_page(page, buf)
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }

    fn path(&self) -> PathBuf {
        self.inner.path()
    }

    fn publish(&self, to: &Path) -> io::Result<()> {
        self.inner.publish(to)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[test]
fn a_write_being_applied_stays_visible_to_gets_and_invisible_to_scans() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("mid-apply-overlay");
    let _ = std::fs::remove_dir_all(&dir);
    let gate: Gate = Arc::default();
    let factory: StoreFactory<GatedStore> = {
        let gate = Arc::clone(&gate);
        Arc::new(move |path: &Path, page_size: usize| {
            Ok(GatedStore {
                inner: FileStore::create(path, page_size)?,
                gate: Arc::clone(&gate),
            })
        })
    };
    let engine = Arc::new(
        Engine::<Onion2D, u64, 2, _>::open_stored_with(
            &dir,
            Onion2D::new(SIDE).unwrap(),
            DiskModel::ssd(),
            1,
            StoreConfig {
                page_size: 256,
                pool_pages: 4,
            },
            factory,
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

    let p = Point::new([3, 5]);
    engine.execute(Request::Update(p, 1_000)).unwrap();
    let (entered_tx, entered) = channel();
    // Dropped on a failed assertion, which frees the held leader too.
    let (release, release_rx) = channel();
    *gate.lock().unwrap() = Some((entered_tx, release_rx));
    // A leader that panics drops `flushed_tx`, which fails the wait too.
    let (flushed_tx, flushed) = channel();
    let leader = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let _ = flushed_tx.send(engine.flush());
        })
    };
    entered
        .recv_timeout(WAIT)
        .expect("the leader reaches its first segment read");

    // The write being applied is neither dropped nor doubled...
    assert_eq!(
        engine.execute(Request::Get(p)).unwrap(),
        Response::Value(Some(1_000))
    );
    // ...and scans see the last installed epoch.
    let q = RectQuery::new([0, 0], [8, 8]).unwrap();
    let Response::Records(records) = engine.execute(Request::Query(q)).unwrap() else {
        unreachable!()
    };
    assert_eq!(records.len(), 64);
    let at_p: Vec<u64> = records
        .iter()
        .filter(|r| r.point == p)
        .map(|r| r.value)
        .collect();
    assert_eq!(at_p, vec![value(3, 5)]);
    // Writes are still admitted, and both count as pending.
    let r = Point::new([7, 2]);
    assert!(matches!(
        engine.execute(Request::Update(r, 2_000)).unwrap(),
        Response::Admitted(_)
    ));
    assert_eq!(engine.pending(), 2);
    assert_eq!(
        engine.execute(Request::Get(r)).unwrap(),
        Response::Value(Some(2_000))
    );

    release.send(()).unwrap();
    let applied = flushed
        .recv_timeout(WAIT)
        .expect("the leader finishes once released")
        .unwrap();
    leader.join().expect("the leader has answered");
    assert_eq!(
        applied, 2,
        "the leader also applies the write admitted mid-apply"
    );
    assert_eq!(engine.pending(), 0);
    let Response::Records(records) = engine.execute(Request::Query(q)).unwrap() else {
        unreachable!()
    };
    let at = |cell: Point<2>| -> Vec<u64> {
        records
            .iter()
            .filter(|rec| rec.point == cell)
            .map(|rec| rec.value)
            .collect()
    };
    assert_eq!((at(p), at(r)), (vec![1_000], vec![2_000]));
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}
