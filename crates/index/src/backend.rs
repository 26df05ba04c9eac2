//! The storage-backend layer: pluggable key-ordered storage under the
//! table and sharding layers.
//!
//! A [`Backend`] is anything that stores `(u64 curve key, value)` entries
//! in key order and can scan contiguous key ranges — the operation the
//! paper's clustering number counts. Three implementations ship:
//!
//! * [`MemoryBackend`] — the [`BPlusTree`] alone; every touched leaf page
//!   counts as a transfer. This is the fastest backend and the default for
//!   `ShardedTable`.
//! * [`PagedBackend`] — the B+-tree fronted by an [`LruBufferPool`], with a
//!   [`DiskModel`] attached. Leaf pages play the role of
//!   [`SimulatedDisk`](crate::SimulatedDisk) pages: a scan seeks once, then
//!   each touched leaf is looked up in the pool, and only misses count as
//!   page transfers — so cache effects show up directly in per-query
//!   [`IoStats`](crate::IoStats) and simulated timings.
//! * [`FileBackend`](crate::FileBackend) — genuinely disk-resident: an
//!   immutable [`SegmentTree`](crate::SegmentTree) on a
//!   [`PageStore`](crate::PageStore) file plus an in-memory write overlay.
//!   Its scans report *measured* reads and seeks next to the simulated
//!   counters.
//!
//! Every read path takes `&self` and returns its statistics per call
//! (`PagedBackend` guards its pool with a `Mutex`), so backends are
//! `Send + Sync` whenever their values are — the property the concurrent
//! sharding layer relies on.

use crate::btree::{BPlusTree, EntryGuard, DEFAULT_NODE_CAPACITY};
use crate::cache::LruBufferPool;
use crate::disk::DiskModel;
use onion_core::SfcError;
use std::sync::{Arc, Mutex};

/// Page statistics of one backend range scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Pages transferred from the medium.
    pub pages: u64,
    /// Pages served by the buffer pool (zero for pool-less backends).
    pub cache_hits: u64,
    /// Pages *physically read* from a real storage file — zero for the
    /// simulated backends, measured for [`FileBackend`](crate::FileBackend).
    pub real_reads: u64,
    /// Non-contiguous physical fetches issued by this scan (the first
    /// fetch counts as one) — zero for the simulated backends.
    pub real_seeks: u64,
}

/// Key-ordered storage of `(u64, V)` entries with duplicate keys allowed.
///
/// The contract mirrors what the table layer needs: point reads, writes
/// riding the underlying structure's splits, and an in-order range scan
/// that reports how many pages the scan touched and how many of those the
/// backend's cache absorbed.
///
/// Backends are *forkable*: [`Self::fork`] produces an independent
/// copy-on-write version sharing unmutated pages with the original. The
/// MVCC table layer forks the current version, applies a batch to the
/// fork, and atomically publishes it — readers keep scanning the old
/// version untouched.
pub trait Backend<V> {
    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Whether the backend holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An O(pages-metadata) copy-on-write fork: the new backend shares
    /// every storage page with `self` until one side mutates it. Physical
    /// cache state (buffer pools) *is* shared — two versions of a table
    /// live on the same simulated device, so warming one warms the other.
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Looks up `key` as a pinned read: for in-memory backends the guard
    /// holds the storage page, so no value copy is made and the read stays
    /// valid after the backend (or any fork of it) is mutated or dropped;
    /// disk-resident backends return an owned guard decoded from the page.
    ///
    /// This is the *only* point-read in the trait: a backend whose pages
    /// live in a file cannot return a borrow into them, so the former
    /// `get(&self) -> Option<&V>` could not be part of a storage contract
    /// that admits real disks.
    ///
    /// # Errors
    /// On storage failure (in-memory backends never fail).
    fn get_pinned(&self, key: u64) -> Result<Option<EntryGuard<V>>, SfcError>;

    /// Mutable lookup of a value stored under `key`.
    fn get_mut(&mut self, key: u64) -> Option<&mut V>;

    /// Inserts an entry (duplicates allowed).
    fn insert(&mut self, key: u64, value: V);

    /// Removes the first entry stored under `key`, returning its value.
    fn remove(&mut self, key: u64) -> Option<V>;

    /// Scans entries with keys in `lo..=hi` in ascending key order,
    /// passing each to `visit`, and returns the scan's page statistics.
    ///
    /// # Errors
    /// On storage failure — a short read or a checksum mismatch on a
    /// disk-resident page. Entries visited before the failure may have
    /// been delivered; callers must treat the whole scan as failed.
    fn scan(&self, lo: u64, hi: u64, visit: &mut dyn FnMut(u64, &V))
        -> Result<ScanStats, SfcError>;

    /// Executes the range list of a [`QueryPlan`](crate::QueryPlan) (or any
    /// sorted, disjoint range set) in order, summing page statistics — the
    /// plan-aware scan entry point. Backends may override it to amortize
    /// per-scan setup across a plan's ranges; the default simply chains
    /// [`Self::scan`].
    ///
    /// # Errors
    /// On storage failure, like [`Self::scan`].
    fn scan_ranges(
        &self,
        ranges: &[(u64, u64)],
        visit: &mut dyn FnMut(u64, &V),
    ) -> Result<ScanStats, SfcError> {
        let mut total = ScanStats::default();
        for &(lo, hi) in ranges {
            let s = self.scan(lo, hi, visit)?;
            total.pages += s.pages;
            total.cache_hits += s.cache_hits;
            total.real_reads += s.real_reads;
            total.real_seeks += s.real_seeks;
        }
        Ok(total)
    }

    /// Streams every stored entry to `sink` in ascending key order
    /// (duplicates in insertion order) — the persistence hook snapshots
    /// ride. The default walks [`Self::scan`] over the full key range;
    /// backends with simulated-I/O accounting should override it so a
    /// snapshot never pollutes cache statistics.
    ///
    /// # Errors
    /// On storage failure, like [`Self::scan`].
    fn persist(&self, sink: &mut dyn FnMut(u64, &V)) -> Result<(), SfcError> {
        self.scan(0, u64::MAX, &mut |k, v| sink(k, v))?;
        Ok(())
    }

    /// Replaces the backend's entire contents with `entries`, which must
    /// be sorted ascending by key (duplicates in the order they should be
    /// stored) — the recovery hook snapshots restore through. Existing
    /// entries are discarded; caches are reset.
    ///
    /// # Errors
    /// On storage failure (disk-resident backends rebuild a real segment
    /// file here; the in-memory backends never fail).
    ///
    /// # Panics
    /// If `entries` is not sorted by key.
    fn restore(&mut self, entries: Vec<(u64, V)>) -> Result<(), SfcError>;

    /// Reorganizes storage without changing contents — the log-structured
    /// checkpoint hook. Disk-resident backends merge their write overlay
    /// into a fresh bulk-built segment (and drop the superseded
    /// generation); in-memory backends have nothing to compact.
    ///
    /// # Errors
    /// On storage failure.
    fn compact(&mut self) -> Result<(), SfcError> {
        Ok(())
    }
}

/// The plain in-memory backend: a [`BPlusTree`], nothing else. Every leaf
/// page a scan touches counts as one transferred page.
#[derive(Debug)]
pub struct MemoryBackend<V> {
    tree: BPlusTree<V>,
}

impl<V> MemoryBackend<V> {
    /// An empty backend with the default node capacity.
    pub fn new() -> Self {
        MemoryBackend {
            tree: BPlusTree::new(DEFAULT_NODE_CAPACITY),
        }
    }

    /// Bulk-loads from entries sorted ascending by key.
    ///
    /// # Panics
    /// If the input is not sorted.
    pub fn bulk_load(entries: Vec<(u64, V)>) -> Self {
        MemoryBackend {
            tree: BPlusTree::bulk_load(entries, DEFAULT_NODE_CAPACITY),
        }
    }

    /// The underlying B+-tree (invariant checks in tests, stats).
    pub fn tree(&self) -> &BPlusTree<V> {
        &self.tree
    }
}

impl<V> Default for MemoryBackend<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> Backend<V> for MemoryBackend<V> {
    fn len(&self) -> usize {
        self.tree.len()
    }

    fn fork(&self) -> Self {
        MemoryBackend {
            tree: self.tree.clone(),
        }
    }

    fn get_pinned(&self, key: u64) -> Result<Option<EntryGuard<V>>, SfcError> {
        Ok(self.tree.get_pinned(key))
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.tree.get_mut(key)
    }

    fn insert(&mut self, key: u64, value: V) {
        self.tree.insert(key, value);
    }

    fn remove(&mut self, key: u64) -> Option<V> {
        self.tree.remove(key)
    }

    fn scan(
        &self,
        lo: u64,
        hi: u64,
        visit: &mut dyn FnMut(u64, &V),
    ) -> Result<ScanStats, SfcError> {
        let mut pages = 0u64;
        self.tree.scan_range(lo, hi, &mut |_| pages += 1, visit);
        Ok(ScanStats {
            pages,
            ..ScanStats::default()
        })
    }

    fn persist(&self, sink: &mut dyn FnMut(u64, &V)) -> Result<(), SfcError> {
        self.tree.scan_range(0, u64::MAX, &mut |_| {}, sink);
        Ok(())
    }

    fn restore(&mut self, entries: Vec<(u64, V)>) -> Result<(), SfcError> {
        self.tree = BPlusTree::bulk_load(entries, DEFAULT_NODE_CAPACITY);
        Ok(())
    }
}

/// A paged backend: the B+-tree's leaves treated as disk pages behind an
/// [`LruBufferPool`], priced by a [`DiskModel`].
///
/// Scans report only pool *misses* as transferred pages, so a workload that
/// re-touches the same region (the regime
/// [`SimulatedDisk`](crate::SimulatedDisk) cannot express) gets cheaper as
/// the pool warms — and a curve that clusters queries into fewer, tighter
/// ranges keeps a smaller page working set, which is exactly the cache
/// effect the Onion Curve paper's clustering argument predicts.
///
/// The pool sits behind a `Mutex` (locked once per page access), so the
/// backend stays `Sync`; concurrent scans contend only on the pool
/// bookkeeping, not on the tree. Forks share the pool through an `Arc`:
/// the pool models the *physical* page cache of the device, which every
/// version of the tree lives on — page ids are stable across forks, so
/// pages untouched by a batch stay warm across epochs.
#[derive(Debug)]
pub struct PagedBackend<V> {
    tree: BPlusTree<V>,
    pool: Arc<Mutex<LruBufferPool>>,
    model: DiskModel,
}

impl<V> PagedBackend<V> {
    /// An empty backend whose pool holds at most `pool_pages` pages.
    pub fn new(model: DiskModel, pool_pages: usize) -> Self {
        PagedBackend {
            tree: BPlusTree::new(model.page_size.max(2)),
            pool: Arc::new(Mutex::new(LruBufferPool::new(pool_pages))),
            model,
        }
    }

    /// Bulk-loads from entries sorted ascending by key; leaves hold
    /// `model.page_size` entries, matching the disk model's page math.
    ///
    /// # Panics
    /// If the input is not sorted.
    pub fn bulk_load(entries: Vec<(u64, V)>, model: DiskModel, pool_pages: usize) -> Self {
        PagedBackend {
            tree: BPlusTree::bulk_load(entries, model.page_size.max(2)),
            pool: Arc::new(Mutex::new(LruBufferPool::new(pool_pages))),
            model,
        }
    }

    /// The disk model pricing this backend's transfers.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Lifetime hit/miss counters of the buffer pool.
    pub fn pool_stats(&self) -> (u64, u64) {
        let pool = self.pool.lock().expect("buffer pool poisoned");
        (pool.hits(), pool.misses())
    }

    /// The underlying B+-tree (invariant checks in tests, stats).
    pub fn tree(&self) -> &BPlusTree<V> {
        &self.tree
    }
}

impl<V: Clone> Backend<V> for PagedBackend<V> {
    fn len(&self) -> usize {
        self.tree.len()
    }

    fn fork(&self) -> Self {
        PagedBackend {
            tree: self.tree.clone(),
            pool: Arc::clone(&self.pool),
            model: self.model,
        }
    }

    fn get_pinned(&self, key: u64) -> Result<Option<EntryGuard<V>>, SfcError> {
        Ok(self.tree.get_pinned(key))
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.tree.get_mut(key)
    }

    fn insert(&mut self, key: u64, value: V) {
        self.tree.insert(key, value);
    }

    fn remove(&mut self, key: u64) -> Option<V> {
        self.tree.remove(key)
    }

    fn scan(
        &self,
        lo: u64,
        hi: u64,
        visit: &mut dyn FnMut(u64, &V),
    ) -> Result<ScanStats, SfcError> {
        let mut stats = ScanStats::default();
        self.tree.scan_range(
            lo,
            hi,
            // Lock per page, not across the scan: the critical section is
            // the O(1) LRU bookkeeping only, so concurrent readers contend
            // on that and never on each other's leaf traversal or visits.
            &mut |leaf| {
                let hit = self
                    .pool
                    .lock()
                    .expect("buffer pool poisoned")
                    .access(leaf as u64);
                if hit {
                    stats.cache_hits += 1;
                } else {
                    stats.pages += 1;
                }
            },
            visit,
        );
        Ok(stats)
    }

    /// Walks the tree directly, bypassing the buffer pool: snapshotting
    /// the backend must not warm (or thrash) the cache the live query
    /// statistics are measuring.
    fn persist(&self, sink: &mut dyn FnMut(u64, &V)) -> Result<(), SfcError> {
        self.tree.scan_range(0, u64::MAX, &mut |_| {}, sink);
        Ok(())
    }

    /// Rebuilds the tree from the sorted entries and resets the buffer
    /// pool: the old page ids are meaningless against the new leaves.
    fn restore(&mut self, entries: Vec<(u64, V)>) -> Result<(), SfcError> {
        self.tree = BPlusTree::bulk_load(entries, self.model.page_size.max(2));
        let mut pool = self.pool.lock().expect("buffer pool poisoned");
        *pool = LruBufferPool::new(pool.capacity());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|k| (k, k * 10)).collect()
    }

    #[test]
    fn memory_backend_round_trips() {
        let mut b = MemoryBackend::bulk_load(entries(1000));
        assert_eq!(b.len(), 1000);
        assert_eq!(b.get_pinned(500).unwrap().as_deref(), Some(&5000));
        *b.get_mut(500).unwrap() = 1;
        assert_eq!(b.remove(500), Some(1));
        assert!(b.get_pinned(500).unwrap().is_none());
        b.insert(500, 7);
        let mut got = Vec::new();
        let stats = b.scan(498, 502, &mut |k, &v| got.push((k, v))).unwrap();
        assert_eq!(
            got,
            vec![(498, 4980), (499, 4990), (500, 7), (501, 5010), (502, 5020)]
        );
        assert!(stats.pages >= 1);
        assert_eq!(stats.cache_hits, 0, "no pool, no hits");
        b.tree().check_invariants().unwrap();
    }

    #[test]
    fn paged_backend_hits_cache_on_rescans() {
        let model = DiskModel {
            page_size: 16,
            seek_us: 1000.0,
            transfer_us: 10.0,
        };
        let b = PagedBackend::bulk_load(entries(256), model, 64);
        let mut sink = 0u64;
        let cold = b.scan(0, 255, &mut |_, &v| sink += v).unwrap();
        assert_eq!(cold.pages, 16, "16 leaves, all cold");
        assert_eq!(cold.cache_hits, 0);
        let warm = b.scan(0, 255, &mut |_, &v| sink += v).unwrap();
        assert_eq!(warm.pages, 0, "whole scan served from the pool");
        assert_eq!(warm.cache_hits, 16);
        assert_eq!(b.pool_stats(), (16, 16));
        std::hint::black_box(sink);
    }

    #[test]
    fn tiny_pool_thrashes() {
        let model = DiskModel {
            page_size: 16,
            seek_us: 1000.0,
            transfer_us: 10.0,
        };
        let b = PagedBackend::bulk_load(entries(256), model, 2);
        for _ in 0..3 {
            let stats = b.scan(0, 255, &mut |_, _| {}).unwrap();
            assert_eq!(stats.pages, 16, "a 2-page pool cannot hold a 16-page scan");
            assert_eq!(stats.cache_hits, 0);
        }
    }

    #[test]
    fn coalesced_super_range_rescan_counts_each_page_once() {
        // Regression: a super-range starting exactly on a page boundary
        // (key 16 = first key of leaf 1) used to bill the *landing* leaf 0
        // too, although no entry of leaf 0 is scanned — so re-scanning a
        // coalesced plan reported one phantom cache hit per boundary-
        // aligned range. Leaf 1 holds keys 16..=31; the scan legitimately
        // peeks leaf 2 (duplicates of 31 could continue there), so the
        // true page count is 2 — not 3.
        let model = DiskModel {
            page_size: 16,
            seek_us: 1000.0,
            transfer_us: 10.0,
        };
        let b = PagedBackend::bulk_load(entries(64), model, 64);
        let cold = b.scan(16, 31, &mut |_, _| {}).unwrap();
        assert_eq!(cold.pages + cold.cache_hits, 2, "no phantom landing page");
        let warm = b.scan(16, 31, &mut |_, _| {}).unwrap();
        assert_eq!(warm.pages, 0);
        assert_eq!(warm.cache_hits, 2, "re-scan hits exactly the read pages");
        // The plan-aware multi-range scan sums identically: 2 pages for
        // (16, 31) as above, 1 for (48, 63) (last leaf, nothing to peek).
        let plan = b
            .scan_ranges(&[(16, 31), (48, 63)], &mut |_, _| {})
            .unwrap();
        assert_eq!(plan.pages + plan.cache_hits, 3);
    }

    #[test]
    fn persist_restore_round_trips_without_touching_the_pool() {
        let model = DiskModel {
            page_size: 16,
            seek_us: 1000.0,
            transfer_us: 10.0,
        };
        let mut paged = PagedBackend::bulk_load(entries(128), model, 32);
        paged.scan(0, 127, &mut |_, _| {}).unwrap();
        let stats_before = paged.pool_stats();
        let mut dumped = Vec::new();
        paged.persist(&mut |k, &v| dumped.push((k, v))).unwrap();
        assert_eq!(dumped, entries(128), "persist streams in key order");
        assert_eq!(
            paged.pool_stats(),
            stats_before,
            "persist must bypass the buffer pool"
        );
        // Restore into the other backend kind: the hooks are the
        // cross-backend round-trip the durable layer relies on.
        let mut mem = MemoryBackend::new();
        mem.restore(dumped.clone()).unwrap();
        assert_eq!(mem.len(), 128);
        assert_eq!(mem.get_pinned(77).unwrap().as_deref(), Some(&770));
        mem.tree().check_invariants().unwrap();
        // Restoring the paged backend resets its pool accounting.
        paged.restore(dumped).unwrap();
        assert_eq!(paged.pool_stats(), (0, 0), "restore resets the pool");
        assert_eq!(paged.len(), 128);
        let cold = paged.scan(0, 127, &mut |_, _| {}).unwrap();
        assert_eq!(cold.cache_hits, 0, "post-restore scans start cold");
        paged.tree().check_invariants().unwrap();
    }

    #[test]
    fn backends_agree_through_the_trait() {
        fn drive<B: Backend<u64>>(b: &mut B) -> Vec<(u64, u64)> {
            b.insert(3, 30);
            b.insert(1, 10);
            b.insert(2, 20);
            b.insert(3, 31);
            assert_eq!(b.remove(3), Some(30), "first duplicate removed first");
            let mut got = Vec::new();
            b.scan(0, 10, &mut |k, &v| got.push((k, v))).unwrap();
            got
        }
        let mut mem = MemoryBackend::new();
        let mut paged = PagedBackend::new(DiskModel::ssd(), 8);
        assert_eq!(drive(&mut mem), drive(&mut paged));
    }
}
