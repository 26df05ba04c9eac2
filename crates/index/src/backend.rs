//! The storage-backend layer: pluggable key-ordered storage under the
//! table and sharding layers.
//!
//! A [`Backend`] is anything that stores `(u64 curve key, value)` entries
//! in key order and can scan contiguous key ranges — the operation the
//! paper's clustering number counts. Two implementations ship:
//!
//! * [`MemoryBackend`] — the [`BPlusTree`] alone; every touched leaf page
//!   counts as a transfer. This is the fastest backend and the default for
//!   `ShardedTable`.
//! * [`FileBackend`](crate::FileBackend) — the paged read path: an
//!   immutable [`SegmentTree`](crate::SegmentTree) on a
//!   [`PageStore`](crate::PageStore) file behind an LRU leaf cache, plus
//!   an in-memory write overlay. Its scans report leaf-cache hits and
//!   *measured* reads and seeks.
//!
//! Every read path takes `&self` and returns its
//! [`IoStats`] per call, so backends are `Send + Sync` whenever their
//! values are — the property the concurrent sharding layer relies on.

use crate::btree::{BPlusTree, EntryGuard, DEFAULT_NODE_CAPACITY};
use crate::disk::IoStats;
use onion_core::SfcError;

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
    /// cache state (leaf caches) *is* shared — two versions of a table
    /// read the same segment file, so warming one warms the other.
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
    /// passing each to `visit`, and returns the scan's page counters
    /// (`pages`, `cache_hits`, `real_reads`, `real_seeks`); `seeks` and
    /// `entries` stay zero for the table layer to fill in.
    ///
    /// # Errors
    /// On storage failure — a short read or a checksum mismatch on a
    /// disk-resident page. Entries visited before the failure may have
    /// been delivered; callers must treat the whole scan as failed.
    fn scan(&self, lo: u64, hi: u64, visit: &mut dyn FnMut(u64, &V)) -> Result<IoStats, SfcError>;

    /// Executes the range list of a [`QueryPlan`](crate::QueryPlan) (or any
    /// sorted, disjoint range set) in order, summing page statistics — the
    /// plan-aware scan entry point. Backends may override it to amortize
    /// per-scan setup across a plan's ranges, but must visit the same
    /// entries and return the same [`IoStats`] as the default, which simply
    /// chains [`Self::scan`]. [`MemoryBackend`] overrides it with
    /// [`BPlusTree::scan_ranges`], which overlaps the ranges' cold leaf
    /// landings; [`FileBackend`](crate::FileBackend) keeps the default.
    ///
    /// # Errors
    /// On storage failure, like [`Self::scan`].
    fn scan_ranges(
        &self,
        ranges: &[(u64, u64)],
        visit: &mut dyn FnMut(u64, &V),
    ) -> Result<IoStats, SfcError> {
        let mut total = IoStats::default();
        for &(lo, hi) in ranges {
            total.absorb(self.scan(lo, hi, visit)?);
        }
        Ok(total)
    }

    /// Streams every stored entry to `sink` in ascending key order
    /// (duplicates in insertion order) — the persistence hook snapshots
    /// ride. The default walks [`Self::scan`] over the full key range;
    /// backends with a cache must override it so a snapshot never warms
    /// the cache or pollutes its statistics.
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

    fn scan(&self, lo: u64, hi: u64, visit: &mut dyn FnMut(u64, &V)) -> Result<IoStats, SfcError> {
        self.scan_ranges(&[(lo, hi)], visit)
    }

    /// One windowed leaf walk over the whole range list
    /// ([`BPlusTree::scan_ranges`]): the ranges' cold leaf landings
    /// overlap, and the page count is the sum the per-range loop reports.
    fn scan_ranges(
        &self,
        ranges: &[(u64, u64)],
        visit: &mut dyn FnMut(u64, &V),
    ) -> Result<IoStats, SfcError> {
        let mut pages = 0u64;
        self.tree.scan_ranges(ranges, &mut |_| pages += 1, visit);
        Ok(IoStats {
            pages,
            ..IoStats::default()
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
    fn memory_scan_ranges_sums_per_range_scans() {
        // Enough ranges to run the window's fill, steady state and drain,
        // including neighbours on one page, a range starting on a page
        // boundary (key 256 opens the second leaf) and one past the end.
        let b = MemoryBackend::bulk_load(entries(5000));
        let mut ranges: Vec<(u64, u64)> = (0..30u64).map(|i| (i * 97, i * 97 + 40)).collect();
        ranges.extend([
            (256, 260),
            (3000, 3001),
            (3004, 3004),
            (3100, 3500),
            (6000, 7000),
        ]);
        ranges.sort_unstable();
        let mut per_range = IoStats::default();
        let mut expected = Vec::new();
        for &(lo, hi) in &ranges {
            per_range.absorb(b.scan(lo, hi, &mut |k, &v| expected.push((k, v))).unwrap());
        }
        let mut got = Vec::new();
        let windowed = b
            .scan_ranges(&ranges, &mut |k, &v| got.push((k, v)))
            .unwrap();
        assert_eq!(got, expected);
        assert_eq!(windowed, per_range);
        assert!(windowed.pages > ranges.len() as u64);
    }
}
