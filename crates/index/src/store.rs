//! Real page-granular storage: the [`PageStore`] trait and its
//! file-backed implementation, [`FileStore`].
//!
//! `PageStore` is the bottom layer of the paged read path: explicit
//! read/write/sync of fixed-size pages against a real medium, with
//! **measured** counters (`reads`, `writes`, `seeks`, `syncs`) instead of
//! modeled ones. The [`SegmentTree`](crate::SegmentTree) persists its
//! leaves through this trait, and [`FileBackend`](crate::FileBackend)
//! stacks the whole table on top — which is what lets the planner refine
//! its [`DiskModel`](crate::DiskModel) default rates with measured
//! latency.
//!
//! The trait is deliberately tiny (five I/O methods plus introspection)
//! so that test harnesses can interpose: `sfc-workloads`' `FaultStore`
//! wraps any `PageStore` and injects torn pages, short reads, full-disk
//! writes, and failed fsyncs at scheduled operation counts.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Measured I/O counters of a [`PageStore`] — real operations issued to
/// the medium, not modeled costs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pages read from the medium.
    pub reads: u64,
    /// Pages written to the medium.
    pub writes: u64,
    /// Non-sequential head movements: an access whose offset did not
    /// immediately follow the previous access's end.
    pub seeks: u64,
    /// Durability barriers (`fsync`) issued.
    pub syncs: u64,
}

/// Page-granular storage with explicit read/write/sync — the pluggable
/// KV-store seam under [`SegmentTree`](crate::SegmentTree) and
/// [`FileBackend`](crate::FileBackend).
///
/// All methods take `&self` and may be called concurrently, so a store
/// can be shared by concurrent readers of an immutable segment (a file
/// store reads and writes at explicit offsets on one descriptor, without
/// a lock).
///
/// Implementations must give each page `page_size` bytes at offset
/// `page * page_size`, persist `write_page` data no later than the next
/// successful [`Self::sync`], and keep serving reads after
/// [`Self::publish`] renames the backing file (the descriptor survives
/// the rename).
pub trait PageStore: Send + Sync {
    /// Fixed page size in bytes. Constant for the store's lifetime.
    fn page_size(&self) -> usize;

    /// Number of pages currently stored (highest written page + 1).
    fn page_count(&self) -> u64;

    /// Reads page `page` into `buf` (whose length must be
    /// [`Self::page_size`]). Reading a page that was never written is an
    /// error.
    ///
    /// # Errors
    /// On I/O failure or out-of-bounds page.
    fn read_page(&self, page: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Writes `buf` (length [`Self::page_size`]) as page `page`,
    /// extending the store if needed.
    ///
    /// # Errors
    /// On I/O failure.
    fn write_page(&self, page: u64, buf: &[u8]) -> io::Result<()>;

    /// Durability barrier: all previously written pages survive a crash
    /// once this returns.
    ///
    /// # Errors
    /// On fsync failure.
    fn sync(&self) -> io::Result<()>;

    /// Current path of the backing file.
    fn path(&self) -> PathBuf;

    /// Atomically renames the backing file to `to` (the
    /// temp-file-then-rename publication step) and fsyncs the parent
    /// directory on a best-effort basis. The open descriptor keeps
    /// serving reads.
    ///
    /// # Errors
    /// On rename failure.
    fn publish(&self, to: &Path) -> io::Result<()>;

    /// Lifetime I/O counters.
    fn stats(&self) -> StoreStats;
}

/// A [`PageStore`] over one ordinary file: positional page I/O
/// (`pread`/`pwrite`, one syscall per page and no `lseek`) with measured
/// counters, no mmap, no unsafe.
///
/// Reads and writes share the descriptor without a lock; only the path,
/// which [`PageStore::publish`] changes, sits behind a mutex. Counters
/// are atomics so [`PageStore::stats`] never blocks a reader.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    /// Path of the backing file (updated by [`PageStore::publish`]).
    path: Mutex<PathBuf>,
    page_size: usize,
    pages: AtomicU64,
    /// Byte offset just past the last access — where a disk head would
    /// sit — so `seeks` counts the accesses that do not continue it;
    /// `u64::MAX` = unknown.
    pos: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    seeks: AtomicU64,
    syncs: AtomicU64,
}

impl FileStore {
    /// Creates (or truncates) the file at `path` as an empty store of
    /// `page_size`-byte pages.
    ///
    /// # Errors
    /// On I/O failure.
    ///
    /// # Panics
    /// If `page_size` is zero.
    pub fn create(path: &Path, page_size: usize) -> io::Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStore::from_file(file, path.to_path_buf(), page_size, 0))
    }

    /// Opens an existing store; the page count is derived from the file
    /// length (a trailing partial page is treated as absent — the torn
    /// tail of an interrupted append).
    ///
    /// # Errors
    /// On I/O failure (including a missing file).
    ///
    /// # Panics
    /// If `page_size` is zero.
    pub fn open(path: &Path, page_size: usize) -> io::Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let pages = len / page_size as u64;
        Ok(FileStore::from_file(
            file,
            path.to_path_buf(),
            page_size,
            pages,
        ))
    }

    fn from_file(file: File, path: PathBuf, page_size: usize, pages: u64) -> Self {
        FileStore {
            file,
            path: Mutex::new(path),
            page_size,
            pages: AtomicU64::new(pages),
            pos: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            seeks: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }

    /// Moves the head past a page access at `off`, counting a seek when
    /// it was not already at `off`.
    fn position(&self, off: u64) {
        let end = off + self.page_size as u64;
        if self.pos.swap(end, Ordering::Relaxed) != off {
            self.seeks.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl PageStore for FileStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn page_count(&self) -> u64 {
        self.pages.load(Ordering::Relaxed)
    }

    fn read_page(&self, page: u64, buf: &mut [u8]) -> io::Result<()> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        if page >= self.page_count() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("page {page} beyond store ({} pages)", self.page_count()),
            ));
        }
        let off = page * self.page_size as u64;
        self.position(off);
        match self.file.read_exact_at(buf, off) {
            Ok(()) => {
                self.reads.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                // A failed access leaves the head unknown.
                self.pos.store(u64::MAX, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn write_page(&self, page: u64, buf: &[u8]) -> io::Result<()> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        let off = page * self.page_size as u64;
        self.position(off);
        match self.file.write_all_at(buf, off) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.pages.fetch_max(page + 1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.pos.store(u64::MAX, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_all()?;
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn path(&self) -> PathBuf {
        self.path.lock().expect("file store poisoned").clone()
    }

    fn publish(&self, to: &Path) -> io::Result<()> {
        let mut path = self.path.lock().expect("file store poisoned");
        std::fs::rename(&*path, to)?;
        *path = to.to_path_buf();
        // Make the rename itself durable where the platform allows it.
        if let Some(dir) = to.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-test directory under the system temp directory, removed
    /// with everything in it when the guard drops.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(test: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("sfc-store-tests-{}-{test}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn join(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn pages_round_trip_and_counters_measure() {
        let dir = TempDir::new("roundtrip");
        let path = dir.join("roundtrip.pages");
        let s = FileStore::create(&path, 64).unwrap();
        assert_eq!(s.page_count(), 0);
        let a = [1u8; 64];
        let b = [2u8; 64];
        s.write_page(0, &a).unwrap();
        s.write_page(1, &b).unwrap();
        s.write_page(4, &a).unwrap(); // gap: extends the file, costs a seek
        s.sync().unwrap();
        assert_eq!(s.page_count(), 5);

        let mut buf = [0u8; 64];
        s.read_page(1, &mut buf).unwrap();
        assert_eq!(buf, b);
        s.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, a);

        let stats = s.stats();
        assert_eq!(stats.writes, 3);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.syncs, 1);
        // write 0 (sequential from start), write 1 (sequential), write 4
        // (seek), read 1 (seek back), read 0 (seek back).
        assert_eq!(stats.seeks, 3);
    }

    #[test]
    fn reopen_sees_written_pages_and_drops_torn_tail() {
        let dir = TempDir::new("reopen");
        let path = dir.join("reopen.pages");
        {
            let s = FileStore::create(&path, 32).unwrap();
            s.write_page(0, &[7u8; 32]).unwrap();
            s.write_page(1, &[8u8; 32]).unwrap();
            s.sync().unwrap();
        }
        // Simulate a torn append: half a page of garbage at the tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9u8; 16]).unwrap();
        }
        let s = FileStore::open(&path, 32).unwrap();
        assert_eq!(s.page_count(), 2, "partial trailing page is not counted");
        let mut buf = [0u8; 32];
        s.read_page(1, &mut buf).unwrap();
        assert_eq!(buf, [8u8; 32]);
        assert!(s.read_page(2, &mut buf).is_err());
    }

    #[test]
    fn publish_renames_while_descriptor_stays_live() {
        let dir = TempDir::new("publish");
        let from = dir.join("publish.tmp");
        let to = dir.join("publish.final");
        let s = FileStore::create(&from, 16).unwrap();
        s.write_page(0, &[3u8; 16]).unwrap();
        s.sync().unwrap();
        s.publish(&to).unwrap();
        assert!(!from.exists());
        assert!(to.exists());
        assert_eq!(s.path(), to);
        let mut buf = [0u8; 16];
        s.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 16]);
    }
}
