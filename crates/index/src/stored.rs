//! The disk-resident storage backend — the one paged read path: an
//! immutable [`SegmentTree`] base plus an in-memory write overlay, behind
//! the same [`Backend`] trait the in-memory backend implements.
//!
//! A [`FileBackend`] is a miniature log-structured tree of exactly two
//! levels:
//!
//! * **base** — a bulk-built segment file on a [`PageStore`], holding the
//!   table's contents as of the last restore or compaction, shared
//!   (`Arc`) across MVCC forks;
//! * **overlay** — a small in-memory [`BPlusTree`] absorbing every write
//!   since, copy-on-write forked exactly like the in-memory backends.
//!
//! Deletes and in-place updates of base-resident entries never touch the
//! segment file (it is immutable): a per-key *edit record* narrows the
//! window of the base's duplicate run that is still live
//! (`dead_front..base_n - promoted_back`), and updates *promote* the
//! newest base copy into the overlay before mutating it. Reads and scans
//! merge the two levels, preserving the trait's duplicate semantics:
//! newest copy wins point reads, oldest copy is removed first, scans
//! visit a key's copies oldest-to-newest.
//!
//! [`Backend::restore`] and [`Backend::compact`] rebuild the base: a new
//! **generation** segment file is bulk-built at a temporary path, synced,
//! renamed into place ([`PageStore::publish`] — the `SFCSNP01` snapshot
//! discipline), and the superseded generation's file is unlinked. Forks
//! pinned by MVCC retention keep reading the old generation through its
//! still-open descriptor; nothing is re-encoded in place.
//!
//! Durability note: segment files are a *materialization*, not the source
//! of truth — the durable engine rebuilds them from snapshot + WAL on
//! every open. A torn segment left by a crash is therefore overwritten,
//! never trusted, which is what keeps the recovery contract (state equals
//! a prefix of flush-acknowledged epochs) independent of segment fate.

use crate::backend::Backend;
use crate::btree::{BPlusTree, EntryGuard, DEFAULT_NODE_CAPACITY};
use crate::disk::IoStats;
use crate::segment::SegmentTree;
use crate::store::{FileStore, PageStore};
use crate::wal::{storage_err, WalCodec};
use onion_core::SfcError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sizing knobs of a [`FileBackend`]'s segment files and leaf cache.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Bytes per segment page.
    pub page_size: usize,
    /// Leaf pages kept resident, decoded, per backend: the bound of its
    /// segment's buffer pool, whose slots hold the leaves. Once the pool
    /// is full, a miss reuses the evicted leaf's buffers; datasets larger
    /// than this are genuinely re-read from disk.
    pub pool_pages: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            page_size: 4096,
            pool_pages: 64,
        }
    }
}

/// Constructor for page stores at a given path — the injection seam test
/// harnesses use to interpose fault-injecting stores.
pub type StoreFactory<S> = Arc<dyn Fn(&Path, usize) -> std::io::Result<S> + Send + Sync>;

/// State shared by every fork of one logical backend: where its segment
/// generations live and how to create their stores.
struct StoredShared<S> {
    dir: PathBuf,
    stem: String,
    cfg: StoreConfig,
    /// Monotonic generation counter, shared across forks so concurrent
    /// rebuilds (retained versions compacting independently) never
    /// collide on a filename.
    generation: AtomicU64,
    factory: StoreFactory<S>,
}

/// Per-key narrowing of the base segment's duplicate run. The base holds
/// `base_n` copies of the key (oldest first); only indices in
/// `dead_front..base_n - promoted_back` are still live.
#[derive(Clone, Copy, Debug, Default)]
struct BaseEdit {
    dead_front: u32,
    promoted_back: u32,
    base_n: u32,
}

impl BaseEdit {
    fn live(&self) -> (u32, u32) {
        (self.dead_front, self.base_n - self.promoted_back)
    }
}

/// The file-backed [`Backend`]: immutable segment base + in-memory write
/// overlay. See the module docs for the merge semantics.
pub struct FileBackend<V, S: PageStore = FileStore> {
    base: Arc<SegmentTree<V, S>>,
    overlay: BPlusTree<V>,
    /// Keys whose base duplicate-run has been narrowed by removes or
    /// promotions. Absent key = whole run live.
    edits: HashMap<u64, BaseEdit>,
    /// Live entries in the base (total minus removed minus promoted).
    base_live: u64,
    shared: Arc<StoredShared<S>>,
}

impl<V: WalCodec + Clone> FileBackend<V, FileStore> {
    /// Bulk-builds a backend over real files: entries (sorted ascending
    /// by key) are packed into generation-0 of `dir/stem.g<N>.seg`.
    ///
    /// # Errors
    /// On I/O failure or unsorted input.
    pub fn create(
        dir: &Path,
        stem: &str,
        cfg: StoreConfig,
        entries: Vec<(u64, V)>,
    ) -> Result<Self, SfcError> {
        let page_size = cfg.page_size;
        Self::create_with(
            dir,
            stem,
            cfg,
            Arc::new(move |path: &Path, _ps: usize| FileStore::create(path, page_size)),
            entries,
        )
    }
}

impl<V: WalCodec + Clone, S: PageStore> FileBackend<V, S> {
    /// [`Self::create`] with an explicit store factory — the hook fault
    /// injection and alternative media ride in through.
    ///
    /// # Errors
    /// On I/O failure or unsorted input.
    pub(crate) fn create_with(
        dir: &Path,
        stem: &str,
        cfg: StoreConfig,
        factory: StoreFactory<S>,
        entries: Vec<(u64, V)>,
    ) -> Result<Self, SfcError> {
        std::fs::create_dir_all(dir).map_err(|e| storage_err("creating segment directory", e))?;
        let shared = Arc::new(StoredShared {
            dir: dir.to_path_buf(),
            stem: stem.to_string(),
            cfg,
            generation: AtomicU64::new(0),
            factory,
        });
        let count = entries.len() as u64;
        let base = build_generation(&shared, entries)?;
        Ok(FileBackend {
            base,
            overlay: BPlusTree::new(DEFAULT_NODE_CAPACITY),
            edits: HashMap::new(),
            base_live: count,
            shared,
        })
    }

    /// The live window of `key`'s base duplicate run, read-only (point
    /// reads must not allocate edit records).
    fn live_window(&self, key: u64) -> (u32, u32) {
        match self.edits.get(&key) {
            Some(e) => e.live(),
            None => {
                let n = self
                    .base
                    .count(key)
                    .unwrap_or_else(|e| panic!("segment read failed: {e}"));
                (0, n)
            }
        }
    }

    /// The edit record for `key`, creating it (one segment `count` read)
    /// on first touch.
    fn edit_mut(&mut self, key: u64) -> &mut BaseEdit {
        if !self.edits.contains_key(&key) {
            let n = self
                .base
                .count(key)
                .unwrap_or_else(|e| panic!("segment read failed: {e}"));
            self.edits.insert(
                key,
                BaseEdit {
                    base_n: n,
                    ..BaseEdit::default()
                },
            );
        }
        self.edits.get_mut(&key).expect("just inserted")
    }

    /// Whether the `dup_idx`-th base copy of `key` is still live.
    fn base_copy_live(&self, key: u64, dup_idx: u32) -> bool {
        match self.edits.get(&key) {
            Some(e) => {
                let (lo, hi) = e.live();
                dup_idx >= lo && dup_idx < hi
            }
            None => true,
        }
    }

    /// Merges base and overlay over `lo..=hi` in key order — base copies
    /// of a key (oldest first) before overlay copies, dead/promoted base
    /// copies skipped. Returns the segment's page statistics plus the
    /// overlay leaves touched.
    fn merged_scan(
        &self,
        lo: u64,
        hi: u64,
        visit: &mut dyn FnMut(u64, &V),
    ) -> Result<IoStats, SfcError> {
        let mut it = self.overlay.range(lo, hi);
        let mut pending = it.next();
        let mut stats = self.base.scan(lo, hi, &mut |k, v, dup| {
            while let Some((ok, ov)) = pending {
                if ok < k {
                    visit(ok, ov);
                    pending = it.next();
                } else {
                    break;
                }
            }
            if self.base_copy_live(k, dup) {
                visit(k, v);
            }
        })?;
        while let Some((ok, ov)) = pending {
            visit(ok, ov);
            pending = it.next();
        }
        stats.pages += it.pages();
        Ok(stats)
    }

    /// Streams the merged live contents in persist order, bypassing the
    /// leaf cache (snapshots must not pollute live cache statistics).
    fn merged_stream(&self, sink: &mut dyn FnMut(u64, &V)) -> Result<(), SfcError> {
        let mut it = self.overlay.range(0, u64::MAX);
        let mut pending = it.next();
        self.base.stream(&mut |k, v, dup| {
            while let Some((ok, ov)) = pending {
                if ok < k {
                    sink(ok, ov);
                    pending = it.next();
                } else {
                    break;
                }
            }
            if self.base_copy_live(k, dup) {
                sink(k, v);
            }
        })?;
        while let Some((ok, ov)) = pending {
            sink(ok, ov);
            pending = it.next();
        }
        Ok(())
    }

    /// Rebuilds the base from `entries` as a fresh generation and resets
    /// the overlay/edits. The superseded generation's file is unlinked;
    /// forks still holding it read on through their open descriptor.
    fn rebuild(&mut self, entries: Vec<(u64, V)>) -> Result<(), SfcError> {
        let count = entries.len() as u64;
        let new_base = build_generation(&self.shared, entries)?;
        let old = self.base.store().path();
        self.base = new_base;
        self.overlay = BPlusTree::new(DEFAULT_NODE_CAPACITY);
        self.edits.clear();
        self.base_live = count;
        // Best-effort: other forks keep their descriptor; a reopened
        // engine rebuilds from snapshot + WAL regardless.
        let _ = std::fs::remove_file(old);
        Ok(())
    }
}

/// Bulk-builds the next generation segment: temp path, streaming build,
/// fsync, rename into place.
fn build_generation<V: WalCodec + Clone, S: PageStore>(
    shared: &Arc<StoredShared<S>>,
    entries: Vec<(u64, V)>,
) -> Result<Arc<SegmentTree<V, S>>, SfcError> {
    let gen = shared.generation.fetch_add(1, Ordering::SeqCst);
    let final_path = shared.dir.join(format!("{}.g{gen}.seg", shared.stem));
    let tmp_path = shared.dir.join(format!("{}.g{gen}.seg.tmp", shared.stem));
    let store = (shared.factory)(&tmp_path, shared.cfg.page_size)
        .map_err(|e| storage_err("creating segment store", e))?;
    let seg = SegmentTree::build(store, shared.cfg.pool_pages, entries)?;
    seg.store()
        .publish(&final_path)
        .map_err(|e| storage_err("publishing segment", e))?;
    Ok(Arc::new(seg))
}

impl<V, S: PageStore> std::fmt::Debug for FileBackend<V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("base_live", &self.base_live)
            .field("overlay_len", &self.overlay.len())
            .field("edited_keys", &self.edits.len())
            .finish()
    }
}

impl<V: WalCodec + Clone, S: PageStore> Backend<V> for FileBackend<V, S> {
    fn len(&self) -> usize {
        self.base_live as usize + self.overlay.len()
    }

    fn fork(&self) -> Self {
        FileBackend {
            base: Arc::clone(&self.base),
            overlay: self.overlay.clone(),
            edits: self.edits.clone(),
            base_live: self.base_live,
            shared: Arc::clone(&self.shared),
        }
    }

    fn get_pinned(&self, key: u64) -> Result<Option<EntryGuard<V>>, SfcError> {
        // Overlay copies are always newer than base copies.
        if let Some(guard) = self.overlay.get_pinned(key) {
            return Ok(Some(guard));
        }
        let (lo, hi) = self.live_window(key);
        if lo >= hi {
            return Ok(None);
        }
        Ok(self.base.dup(key, hi - 1)?.map(EntryGuard::owned))
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if self.overlay.get(key).is_none() {
            // Newest copy (if any) lives in the base: promote it into the
            // overlay so the caller can mutate it. The promoted copy stays
            // *newer* than the remaining base copies and *older* than any
            // overlay insert that follows — exactly its logical age.
            let (lo, hi) = self.live_window(key);
            if lo >= hi {
                return None;
            }
            let v = self
                .base
                .dup(key, hi - 1)
                .unwrap_or_else(|e| panic!("segment read failed: {e}"))?;
            let edit = self.edit_mut(key);
            edit.promoted_back += 1;
            self.base_live -= 1;
            self.overlay.insert(key, v);
        }
        self.overlay.get_mut(key)
    }

    fn insert(&mut self, key: u64, value: V) {
        self.overlay.insert(key, value);
    }

    fn remove(&mut self, key: u64) -> Option<V> {
        // Oldest copy first: base copies precede every overlay copy.
        let (lo, hi) = self.live_window(key);
        if lo < hi {
            let v = self
                .base
                .dup(key, lo)
                .unwrap_or_else(|e| panic!("segment read failed: {e}"))?;
            self.edit_mut(key).dead_front += 1;
            self.base_live -= 1;
            return Some(v);
        }
        self.overlay.remove(key)
    }

    fn scan(&self, lo: u64, hi: u64, visit: &mut dyn FnMut(u64, &V)) -> Result<IoStats, SfcError> {
        self.merged_scan(lo, hi, visit)
    }

    /// Streams base + overlay merged, bypassing the leaf cache — the
    /// segment *is* the persisted form, so nothing is re-encoded and the
    /// cache the live statistics measure stays untouched.
    fn persist(&self, sink: &mut dyn FnMut(u64, &V)) -> Result<(), SfcError> {
        self.merged_stream(sink)
    }

    fn restore(&mut self, entries: Vec<(u64, V)>) -> Result<(), SfcError> {
        self.rebuild(entries)
    }

    /// Merges the overlay and edits into a fresh bulk-built segment
    /// generation (no-op while the backend is unchanged since the last
    /// rebuild).
    fn compact(&mut self) -> Result<(), SfcError> {
        if self.overlay.is_empty() && self.edits.is_empty() {
            return Ok(());
        }
        let mut merged = Vec::with_capacity(self.len());
        self.merged_stream(&mut |k, v| merged.push((k, v.clone())))?;
        self.rebuild(merged)
    }
}
