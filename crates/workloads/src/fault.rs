//! Deterministic fault injection for real page stores — the workload
//! side of media-failure testing.
//!
//! [`crate::CrashSchedule`] cuts an *operation stream* to test crash
//! recovery; [`FaultInjector`] cuts the *I/O stream itself*: a schedule
//! of store-operation counts at which a fault strikes — a torn page, a
//! full disk, a short read, a failed fsync. [`FaultStore`] interposes the
//! injector between any consumer and any
//! [`PageStore`](sfc_index::PageStore), so the same durable-engine test
//! that drives crash segments can also drive scheduled media failures and
//! assert the engine's error paths and recovery behave.
//!
//! Determinism contract: every `read_page`/`write_page`/`sync` through a
//! [`FaultStore`] advances one shared operation counter (shared across
//! all stores wrapping the same injector — a sharded engine's segments
//! tick one clock). A fault scheduled at count `n` fires on the first
//! operation of its kind at or after the `n`-th operation, exactly once.
//! Replaying the same operation sequence against the same schedule
//! reproduces the same faults at the same instants.

use sfc_index::{FileStore, PageStore, StoreFactory, StoreStats};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a scheduled fault does to the operation it strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The write reports success but the page lands **torn**: the first
    /// half of the buffer reaches the medium intact, the rest corrupted —
    /// the classic partial sector write a checksum must catch.
    TornWrite,
    /// The write fails (`ENOSPC`-flavored) and **no byte** reaches the
    /// medium.
    WriteError,
    /// The read fails with an unexpected-EOF error (a short read).
    ShortRead,
    /// The durability barrier fails: `sync` returns an error and makes
    /// no promise about previously written pages.
    SyncError,
}

impl Fault {
    /// Whether this fault can strike an operation of the given kind.
    fn strikes(self, kind: OpKind) -> bool {
        matches!(
            (self, kind),
            (Fault::TornWrite | Fault::WriteError, OpKind::Write)
                | (Fault::ShortRead, OpKind::Read)
                | (Fault::SyncError, OpKind::Sync)
        )
    }
}

/// The kind of store operation ticking the injector's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
    Sync,
}

/// One armed fault: strikes the first matching operation at or after
/// `at_op` ticks.
#[derive(Clone, Copy, Debug)]
struct Armed {
    at_op: u64,
    fault: Fault,
}

/// The shared injection state: one operation clock plus the faults
/// scheduled against it. Wrap it in an `Arc` and hand clones to every
/// [`FaultStore`] (and to the test, for [`Self::injected`] assertions).
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Operations observed so far, across all wrapping stores.
    ops: AtomicU64,
    /// Faults not yet fired.
    armed: Mutex<Vec<Armed>>,
    /// Faults fired so far.
    injected: AtomicU64,
}

impl FaultInjector {
    /// An injector with an empty schedule (every operation passes
    /// through until faults are [`Self::schedule`]d).
    pub fn new() -> Arc<Self> {
        Arc::new(FaultInjector::default())
    }

    /// Arms `fault` to strike the first operation of its kind at or
    /// after the `at_op`-th store operation (0-based; callable while
    /// stores are live, so tests can arm mid-run).
    pub fn schedule(&self, at_op: u64, fault: Fault) {
        self.armed
            .lock()
            .expect("fault schedule poisoned")
            .push(Armed { at_op, fault });
    }

    /// Arms one `fault` per crash point of `schedule`, reading the crash
    /// offsets as store-operation counts — the bridge from the
    /// op-stream-cutting [`crate::CrashSchedule`] to I/O-level faults.
    pub fn from_crash_schedule(schedule: &crate::CrashSchedule, fault: Fault) -> Arc<Self> {
        let inj = Self::new();
        for &p in schedule.points() {
            inj.schedule(p as u64, fault);
        }
        inj
    }

    /// Store operations observed so far (reads + writes + syncs through
    /// every wrapping [`FaultStore`]).
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Faults still armed (scheduled but not yet fired).
    pub fn pending(&self) -> usize {
        self.armed.lock().expect("fault schedule poisoned").len()
    }

    /// Ticks the clock for one operation of `kind` and returns the fault
    /// striking it, if any. At most one fault fires per operation (the
    /// earliest-scheduled due one, ties broken by arming order).
    fn tick(&self, kind: OpKind) -> Option<Fault> {
        let now = self.ops.fetch_add(1, Ordering::Relaxed);
        let mut armed = self.armed.lock().expect("fault schedule poisoned");
        let due = armed
            .iter()
            .enumerate()
            .filter(|(_, a)| a.at_op <= now && a.fault.strikes(kind))
            .min_by_key(|(i, a)| (a.at_op, *i))
            .map(|(i, _)| i)?;
        let fired = armed.swap_remove(due);
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(fired.fault)
    }
}

/// A [`PageStore`] wrapper injecting the faults its [`FaultInjector`]
/// has scheduled; every other operation delegates untouched.
#[derive(Debug)]
pub struct FaultStore<S> {
    inner: S,
    injector: Arc<FaultInjector>,
}

impl<S: PageStore> FaultStore<S> {
    /// Wraps `inner`, routing every operation through `injector`'s
    /// schedule.
    pub fn new(inner: S, injector: Arc<FaultInjector>) -> Self {
        FaultStore { inner, injector }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

/// A [`StoreFactory`] producing fault-wrapped [`FileStore`]s that all
/// share `injector`'s clock — plug it into
/// `ShardedTable::build_stored_with` / `Engine::open_stored_with` to run
/// a whole disk-resident engine under scheduled media failures.
pub fn faulty_file_factory(injector: Arc<FaultInjector>) -> StoreFactory<FaultStore<FileStore>> {
    Arc::new(move |path: &Path, page_size: usize| {
        Ok(FaultStore::new(
            FileStore::create(path, page_size)?,
            Arc::clone(&injector),
        ))
    })
}

impl<S: PageStore> PageStore for FaultStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn read_page(&self, page: u64, buf: &mut [u8]) -> io::Result<()> {
        match self.injector.tick(OpKind::Read) {
            Some(Fault::ShortRead) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("injected short read of page {page}"),
            )),
            _ => self.inner.read_page(page, buf),
        }
    }

    fn write_page(&self, page: u64, buf: &[u8]) -> io::Result<()> {
        match self.injector.tick(OpKind::Write) {
            Some(Fault::WriteError) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                format!("injected full-disk write failure at page {page}"),
            )),
            Some(Fault::TornWrite) => {
                // First half lands, the rest is garbage — but the write
                // "succeeds", so only a checksum can catch it.
                let mut torn = buf.to_vec();
                for b in &mut torn[buf.len() / 2..] {
                    *b ^= 0xA5;
                }
                self.inner.write_page(page, &torn)
            }
            _ => self.inner.write_page(page, buf),
        }
    }

    fn sync(&self) -> io::Result<()> {
        match self.injector.tick(OpKind::Sync) {
            Some(Fault::SyncError) => Err(io::Error::other("injected fsync failure")),
            _ => self.inner.sync(),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashSchedule;

    /// A per-test directory under the system temp directory, removed
    /// with everything in it when the guard drops.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(test: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("sfc-fault-tests-{}-{test}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        /// A 32-byte-page store at `name` in this directory, behind `inj`.
        fn store(&self, name: &str, inj: &Arc<FaultInjector>) -> FaultStore<FileStore> {
            FaultStore::new(
                FileStore::create(&self.0.join(name), 32).unwrap(),
                Arc::clone(inj),
            )
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn write_error_blocks_the_bytes() {
        let inj = FaultInjector::new();
        inj.schedule(1, Fault::WriteError);
        let dir = TempDir::new("enospc");
        let s = dir.store("enospc.pages", &inj);
        s.write_page(0, &[1u8; 32]).unwrap(); // op 0: passes
        let err = s.write_page(1, &[2u8; 32]).unwrap_err(); // op 1: struck
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(s.page_count(), 1, "failed write reached no byte");
        assert_eq!(inj.injected(), 1);
        assert_eq!(inj.pending(), 0);
        // The fault fired once: the retry passes.
        s.write_page(1, &[2u8; 32]).unwrap();
        assert_eq!(s.page_count(), 2);
    }

    #[test]
    fn torn_write_succeeds_but_corrupts_the_tail_half() {
        let inj = FaultInjector::new();
        inj.schedule(0, Fault::TornWrite);
        let dir = TempDir::new("torn");
        let s = dir.store("torn.pages", &inj);
        let data = [7u8; 32];
        s.write_page(0, &data).unwrap(); // "succeeds"
        let mut back = [0u8; 32];
        s.read_page(0, &mut back).unwrap();
        assert_eq!(&back[..16], &data[..16], "head half lands intact");
        assert_ne!(&back[16..], &data[16..], "tail half is torn");
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn faults_only_strike_their_own_kind_at_or_after_their_tick() {
        let inj = FaultInjector::new();
        // Armed at op 0 but the first ops are writes: the read fault
        // waits for the first read, the sync fault for the first sync.
        inj.schedule(0, Fault::ShortRead);
        inj.schedule(0, Fault::SyncError);
        let dir = TempDir::new("kinds");
        let s = dir.store("kinds.pages", &inj);
        s.write_page(0, &[1u8; 32]).unwrap();
        s.write_page(1, &[2u8; 32]).unwrap();
        let mut buf = [0u8; 32];
        let err = s.read_page(0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(s.sync().is_err());
        // Both fired; everything passes now.
        s.read_page(0, &mut buf).unwrap();
        s.sync().unwrap();
        assert_eq!(inj.injected(), 2);
        assert_eq!(inj.op_count(), 6);
    }

    #[test]
    fn crash_schedule_points_arm_faults_deterministically() {
        let sched = CrashSchedule::at(10, vec![2, 5]);
        let dir = TempDir::new("crash");
        let run = |name: &str| {
            let inj = FaultInjector::from_crash_schedule(&sched, Fault::WriteError);
            let s = dir.store(name, &inj);
            let mut failures = Vec::new();
            for i in 0..8u64 {
                if s.write_page(i, &[i as u8; 32]).is_err() {
                    failures.push(i);
                }
            }
            failures
        };
        let a = run("crash-a.pages");
        let b = run("crash-b.pages");
        assert_eq!(a, b, "same schedule, same ops, same faults");
        assert_eq!(a, vec![2, 5]);
    }

    #[test]
    fn one_injector_clocks_many_stores() {
        let inj = FaultInjector::new();
        inj.schedule(3, Fault::WriteError);
        let dir = TempDir::new("multi");
        let s1 = dir.store("multi-1.pages", &inj);
        let s2 = dir.store("multi-2.pages", &inj);
        s1.write_page(0, &[1u8; 32]).unwrap(); // op 0
        s2.write_page(0, &[1u8; 32]).unwrap(); // op 1
        s1.write_page(1, &[1u8; 32]).unwrap(); // op 2
        assert!(s2.write_page(1, &[1u8; 32]).is_err(), "op 3 struck");
        assert_eq!(inj.op_count(), 4);
    }
}
