//! Immutable B+-tree segments: the `SFCSEG01` on-disk page format,
//! bulk-built leaf-first in one streaming pass.
//!
//! A [`SegmentTree`] is the durable, read-only half of the stored
//! backend: entries arrive once, already in curve-key order (a snapshot
//! iterator, a compaction merge), and are packed into fixed-size leaf
//! pages written sequentially through a [`PageStore`]. There are no
//! interior node pages — the per-leaf fence keys (each leaf's first key)
//! are small enough to keep in memory, so a lookup is one binary search
//! over the fence array plus at most one page read. This is the
//! bulk-build shape the classic B+-tree literature prescribes for sorted
//! input: leaves first, no splits, every page full.
//!
//! ## File layout (all pages `page_size` bytes, zero-padded)
//!
//! ```text
//! page 0              header: magic "SFCSEG01", page_size u32,
//!                     leaf_count u64, entry_count u64,
//!                     fence_page_count u64, crc32 of the above
//! pages 1..=L         leaf pages:  [crc32 u32][count u32]
//!                                  [key u64, len u32, value bytes]*count
//! pages L+1..=L+F     fence pages: [crc32 u32][count u32][key u64]*count
//! ```
//!
//! Publication reuses the snapshot discipline: the segment is built at a
//! temporary path, fsynced, then renamed into place
//! ([`PageStore::publish`]) — a crash mid-build leaves at most a stale
//! `.tmp` file, never a half-visible segment.
//!
//! Values go through [`WalCodec`], the workspace's one byte codec; every
//! page carries a crc32 so a torn or bit-flipped page is *detected* at
//! read time rather than decoded into garbage.
//!
//! ## Reads
//!
//! Leaves are cached decoded, so a hit is one pool lookup and a binary
//! search. The decoded leaf lives in the [`LruBufferPool`] slot that
//! holds its page. A miss costs one positional page read, the crc32 and
//! the decode, and it reuses buffers: the page is read into a spare
//! buffer kept under the cache lock, and decoded into the vector of the
//! leaf it evicts, unless a reader still holds that leaf. Once the pool
//! is full, a miss allocates nothing.

use crate::cache::LruBufferPool;
use crate::checksum::crc32;
use crate::disk::IoStats;
use crate::store::{FileStore, PageStore};
use crate::wal::{storage_err, WalCodec, WalCursor};
use onion_core::SfcError;
use std::sync::{Arc, Mutex};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"SFCSEG01";

/// Byte overhead of a leaf/fence page before its payload: crc32 + count.
const PAGE_HEADER: usize = 8;

/// Bytes of the header page's fields (magic through crc32) — the smallest
/// page size a segment can be built or opened with.
const MIN_PAGE_SIZE: usize = 40;

/// Byte overhead of one leaf entry before its value bytes: key + length.
const ENTRY_HEADER: usize = 12;

/// One decoded leaf held by the resident cache.
type Leaf<V> = Arc<Vec<(u64, V)>>;

/// The leaf cache: an [`LruBufferPool`] whose slots hold the decoded
/// leaves of their pages, so memory tracks the configured page budget.
/// A slot is empty while its page's read is in flight or after that read
/// failed; the next access of the page reads it again.
#[derive(Debug)]
struct LeafCache<V> {
    pool: LruBufferPool<Option<Leaf<V>>>,
    /// Page buffers of finished misses, for the next misses to read into:
    /// at most one per miss that ever ran concurrently.
    spare: Vec<Vec<u8>>,
}

impl<V> LeafCache<V> {
    fn new(pool_pages: usize) -> Self {
        LeafCache {
            pool: LruBufferPool::with_slots(pool_pages.max(1)),
            spare: Vec::new(),
        }
    }
}

/// An immutable, file-resident B+-tree segment of `(u64, V)` entries in
/// ascending key order (duplicates allowed, stored oldest-first).
///
/// Reads are `&self` and thread-safe: the leaf cache sits behind a mutex
/// locked only for the O(1) pool bookkeeping, never across a page read
/// or a decode.
#[derive(Debug)]
pub struct SegmentTree<V, S: PageStore = FileStore> {
    store: S,
    /// First key of each leaf page, in order — the in-memory fence index.
    fences: Vec<u64>,
    entry_count: u64,
    cache: Mutex<LeafCache<V>>,
}

impl<V: WalCodec + Clone, S: PageStore> SegmentTree<V, S> {
    /// Bulk-builds a segment into `store` from entries **sorted ascending
    /// by key** (duplicates in oldest-to-newest order), one streaming
    /// pass, then fsyncs. The caller publishes the store's file to its
    /// final path afterwards ([`PageStore::publish`]).
    ///
    /// At most `pool_pages` decoded leaves are kept resident for reads.
    ///
    /// # Errors
    /// If the store's page size is below the 40-byte header, the input is
    /// unsorted, an encoded entry exceeds the page capacity, or the store
    /// fails.
    pub fn build(
        store: S,
        pool_pages: usize,
        entries: impl IntoIterator<Item = (u64, V)>,
    ) -> Result<Self, SfcError> {
        let page_size = check_page_size(&store)?;
        let mut fences: Vec<u64> = Vec::new();
        let mut entry_count = 0u64;
        let mut page = vec![0u8; page_size];
        let mut fill = PAGE_HEADER; // bytes used in the current leaf
        let mut leaf_keys = 0u32;
        let mut first_key = 0u64;
        let mut last_key: Option<u64> = None;
        let mut scratch = Vec::new();
        let mut next_page = 1u64; // page 0 is the header

        let mut flush_leaf = |page: &mut Vec<u8>,
                              fill: &mut usize,
                              leaf_keys: &mut u32,
                              next_page: &mut u64,
                              first_key: u64|
         -> Result<(), SfcError> {
            page[4..8].copy_from_slice(&leaf_keys.to_le_bytes());
            let crc = crc32(&page[4..]);
            page[..4].copy_from_slice(&crc.to_le_bytes());
            store
                .write_page(*next_page, page)
                .map_err(|e| storage_err("writing segment leaf", e))?;
            fences.push(first_key);
            *next_page += 1;
            page.iter_mut().for_each(|b| *b = 0);
            *fill = PAGE_HEADER;
            *leaf_keys = 0;
            Ok(())
        };

        for (key, value) in entries {
            if let Some(prev) = last_key {
                if key < prev {
                    return Err(SfcError::Storage {
                        context: format!("segment build input not sorted: key {key} after {prev}"),
                    });
                }
            }
            last_key = Some(key);
            scratch.clear();
            value.encode(&mut scratch);
            let need = ENTRY_HEADER + scratch.len();
            if PAGE_HEADER + need > page_size {
                return Err(SfcError::Storage {
                    context: format!(
                        "segment entry ({need} bytes encoded) exceeds page capacity ({})",
                        page_size - PAGE_HEADER
                    ),
                });
            }
            if fill + need > page_size {
                flush_leaf(
                    &mut page,
                    &mut fill,
                    &mut leaf_keys,
                    &mut next_page,
                    first_key,
                )?;
            }
            if leaf_keys == 0 {
                first_key = key;
            }
            page[fill..fill + 8].copy_from_slice(&key.to_le_bytes());
            page[fill + 8..fill + 12].copy_from_slice(&(scratch.len() as u32).to_le_bytes());
            page[fill + 12..fill + need].copy_from_slice(&scratch);
            fill += need;
            leaf_keys += 1;
            entry_count += 1;
        }
        if leaf_keys > 0 {
            flush_leaf(
                &mut page,
                &mut fill,
                &mut leaf_keys,
                &mut next_page,
                first_key,
            )?;
        }
        let leaf_count = fences.len() as u64;

        // Fence pages: the in-memory index, persisted for reopen.
        let keys_per_page = (page_size - PAGE_HEADER) / 8;
        let mut fence_pages = 0u64;
        for chunk in fences.chunks(keys_per_page) {
            page.iter_mut().for_each(|b| *b = 0);
            page[4..8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
            for (i, key) in chunk.iter().enumerate() {
                let at = PAGE_HEADER + i * 8;
                page[at..at + 8].copy_from_slice(&key.to_le_bytes());
            }
            let crc = crc32(&page[4..]);
            page[..4].copy_from_slice(&crc.to_le_bytes());
            store
                .write_page(next_page + fence_pages, &page)
                .map_err(|e| storage_err("writing segment fence page", e))?;
            fence_pages += 1;
        }

        // Header last: a segment whose header page is valid is complete.
        page.iter_mut().for_each(|b| *b = 0);
        page[..8].copy_from_slice(&SEGMENT_MAGIC);
        page[8..12].copy_from_slice(&(page_size as u32).to_le_bytes());
        page[12..20].copy_from_slice(&leaf_count.to_le_bytes());
        page[20..28].copy_from_slice(&entry_count.to_le_bytes());
        page[28..36].copy_from_slice(&fence_pages.to_le_bytes());
        let crc = crc32(&page[8..36]);
        page[36..40].copy_from_slice(&crc.to_le_bytes());
        store
            .write_page(0, &page)
            .map_err(|e| storage_err("writing segment header", e))?;
        store
            .sync()
            .map_err(|e| storage_err("syncing segment", e))?;

        Ok(SegmentTree {
            store,
            fences,
            entry_count,
            cache: Mutex::new(LeafCache::new(pool_pages)),
        })
    }

    /// Opens a previously built segment, validating the header and
    /// reloading the fence index from its pages.
    ///
    /// # Errors
    /// If the store's page size is below the 40-byte header, on I/O
    /// failure, or on a corrupt header/fence page.
    pub fn open(store: S, pool_pages: usize) -> Result<Self, SfcError> {
        let page_size = check_page_size(&store)?;
        let corrupt = |what: &str| SfcError::Storage {
            context: format!("opening segment {}: {what}", store_name(&store)),
        };
        let mut page = vec![0u8; page_size];
        store
            .read_page(0, &mut page)
            .map_err(|e| storage_err("reading segment header", e))?;
        if page[..8] != SEGMENT_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let stored_ps = u32::from_le_bytes(page[8..12].try_into().expect("4 bytes")) as usize;
        if stored_ps != page_size {
            return Err(corrupt("page size mismatch"));
        }
        let crc = u32::from_le_bytes(page[36..40].try_into().expect("4 bytes"));
        if crc32(&page[8..36]) != crc {
            return Err(corrupt("header checksum mismatch"));
        }
        let leaf_count = u64::from_le_bytes(page[12..20].try_into().expect("8 bytes"));
        let entry_count = u64::from_le_bytes(page[20..28].try_into().expect("8 bytes"));
        let fence_pages = u64::from_le_bytes(page[28..36].try_into().expect("8 bytes"));
        // The header's counts come from disk: bound them by the pages the
        // store really holds before allocating or reading with them.
        let pages_needed = leaf_count
            .checked_add(fence_pages)
            .and_then(|n| n.checked_add(1));
        if pages_needed.is_none_or(|n| n > store.page_count()) {
            return Err(corrupt("leaf and fence page counts exceed the store"));
        }

        let keys_per_page = (page_size - PAGE_HEADER) / 8;
        let mut fences = Vec::with_capacity(leaf_count as usize);
        for fp in 0..fence_pages {
            store
                .read_page(1 + leaf_count + fp, &mut page)
                .map_err(|e| storage_err("reading segment fence page", e))?;
            let crc = u32::from_le_bytes(page[..4].try_into().expect("4 bytes"));
            if crc32(&page[4..]) != crc {
                return Err(corrupt("fence page checksum mismatch"));
            }
            let count = u32::from_le_bytes(page[4..8].try_into().expect("4 bytes")) as usize;
            if count > keys_per_page {
                return Err(corrupt("fence page key count exceeds the page"));
            }
            for i in 0..count {
                let at = PAGE_HEADER + i * 8;
                fences.push(u64::from_le_bytes(
                    page[at..at + 8].try_into().expect("8 bytes"),
                ));
            }
        }
        if fences.len() as u64 != leaf_count {
            return Err(corrupt("fence count does not match leaf count"));
        }
        Ok(SegmentTree {
            store,
            fences,
            entry_count,
            cache: Mutex::new(LeafCache::new(pool_pages)),
        })
    }

    /// Number of entries in the segment.
    pub fn len(&self) -> u64 {
        self.entry_count
    }

    /// Whether the segment holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// The underlying page store (publication, measured counters).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Reads leaf `leaf` (0-based) from the store into `page` (one page
    /// long) and decodes its entries into `entries`, replacing what it
    /// held.
    fn read_leaf(
        &self,
        leaf: u64,
        page: &mut [u8],
        entries: &mut Vec<(u64, V)>,
    ) -> Result<(), SfcError> {
        self.store
            .read_page(1 + leaf, page)
            .map_err(|e| storage_err("reading segment leaf", e))?;
        let crc = u32::from_le_bytes(page[..4].try_into().expect("4 bytes"));
        if crc32(&page[4..]) != crc {
            return Err(SfcError::Storage {
                context: format!("segment leaf page {leaf} checksum mismatch (torn or corrupt)"),
            });
        }
        let count = u32::from_le_bytes(page[4..8].try_into().expect("4 bytes")) as usize;
        // Every entry takes at least its header, so a larger count is
        // corrupt — and must not size the allocation below.
        if count > (page.len() - PAGE_HEADER) / ENTRY_HEADER {
            return Err(SfcError::Storage {
                context: format!("segment leaf page {leaf} entry count {count} exceeds the page"),
            });
        }
        entries.clear();
        entries.reserve(count);
        let mut cur = WalCursor::new(&page[PAGE_HEADER..]);
        for _ in 0..count {
            let decoded = (|| {
                let key = u64::decode(&mut cur)?;
                let len = u32::decode(&mut cur)? as usize;
                let bytes = cur.take(len)?;
                let value = V::decode(&mut WalCursor::new(bytes))?;
                Some((key, value))
            })();
            match decoded {
                Some(e) => entries.push(e),
                None => {
                    return Err(SfcError::Storage {
                        context: format!("segment leaf page {leaf} malformed entry"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Fetches leaf `leaf` through the cache. Returns the decoded page
    /// and whether it was a cache hit.
    fn leaf(&self, leaf: u64) -> Result<(Leaf<V>, bool), SfcError> {
        let (mut page, evicted) = {
            let mut cache = self.cache.lock().expect("leaf cache poisoned");
            let (hit, slot) = cache.pool.access_slot(leaf);
            if let (true, Some(found)) = (hit, &*slot) {
                return Ok((Arc::clone(found), true));
            }
            // A miss: the slot still holds the leaf of the page it held
            // before (if any). A hit on an empty slot takes nothing.
            let evicted = slot.take();
            let page = cache
                .spare
                .pop()
                .unwrap_or_else(|| vec![0u8; self.store.page_size()]);
            (page, evicted)
        };
        // Decode into the evicted leaf's vector unless a reader still
        // holds that leaf.
        let mut decoded = evicted
            .and_then(|mut old| Arc::get_mut(&mut old).is_some().then_some(old))
            .unwrap_or_default();
        let read = self.read_leaf(
            leaf,
            &mut page,
            Arc::get_mut(&mut decoded).expect("leaf not yet shared"),
        );
        let mut cache = self.cache.lock().expect("leaf cache poisoned");
        cache.spare.push(page);
        read?;
        // Fill the page's slot unless it was evicted meanwhile, or a
        // concurrent miss on the same page filled it first.
        if let Some(slot) = cache.pool.slot_mut(leaf) {
            if slot.is_none() {
                *slot = Some(Arc::clone(&decoded));
            }
        }
        Ok((decoded, false))
    }

    /// Index of the rightmost leaf whose first key is `<= key`, if any.
    fn leaf_for(&self, key: u64) -> Option<u64> {
        let idx = self.fences.partition_point(|&f| f <= key);
        idx.checked_sub(1).map(|i| i as u64)
    }

    /// Newest (last-stored) value under `key`.
    ///
    /// # Errors
    /// On I/O failure or a corrupt page.
    pub fn get(&self, key: u64) -> Result<Option<V>, SfcError> {
        let Some(leaf_no) = self.leaf_for(key) else {
            return Ok(None);
        };
        let (leaf, _) = self.leaf(leaf_no)?;
        let end = leaf.partition_point(|&(k, _)| k <= key);
        if end > 0 && leaf[end - 1].0 == key {
            Ok(Some(leaf[end - 1].1.clone()))
        } else {
            Ok(None)
        }
    }

    /// Number of stored copies of `key` (duplicates).
    ///
    /// # Errors
    /// On I/O failure or a corrupt page.
    pub fn count(&self, key: u64) -> Result<u32, SfcError> {
        let Some(first) = self.leaf_for_first(key) else {
            return Ok(0);
        };
        let mut total = 0u32;
        let mut leaf_no = first;
        loop {
            let (leaf, _) = self.leaf(leaf_no)?;
            let lo = leaf.partition_point(|&(k, _)| k < key);
            let hi = leaf.partition_point(|&(k, _)| k <= key);
            total += (hi - lo) as u32;
            // Duplicates may spill into the next leaf only if this leaf
            // ends exactly at `key`.
            if hi == leaf.len()
                && leaf_no + 1 < self.fences.len() as u64
                && self.fences[(leaf_no + 1) as usize] == key
            {
                leaf_no += 1;
                continue;
            }
            return Ok(total);
        }
    }

    /// `idx`-th stored copy of `key` (0 = oldest), if it exists.
    ///
    /// # Errors
    /// On I/O failure or a corrupt page.
    pub fn dup(&self, key: u64, idx: u32) -> Result<Option<V>, SfcError> {
        let Some(first) = self.leaf_for_first(key) else {
            return Ok(None);
        };
        let mut remaining = idx;
        let mut leaf_no = first;
        loop {
            let (leaf, _) = self.leaf(leaf_no)?;
            let lo = leaf.partition_point(|&(k, _)| k < key);
            let hi = leaf.partition_point(|&(k, _)| k <= key);
            let here = (hi - lo) as u32;
            if remaining < here {
                return Ok(Some(leaf[lo + remaining as usize].1.clone()));
            }
            remaining -= here;
            if hi == leaf.len()
                && leaf_no + 1 < self.fences.len() as u64
                && self.fences[(leaf_no + 1) as usize] == key
            {
                leaf_no += 1;
                continue;
            }
            return Ok(None);
        }
    }

    /// Leftmost leaf that can hold `key` (where its oldest copy lives).
    fn leaf_for_first(&self, key: u64) -> Option<u64> {
        if self.fences.is_empty() {
            return None;
        }
        // The first leaf whose fence is > key is past the key; its
        // predecessor may hold it. A fence == key means the *previous*
        // leaf could still end in older copies of key, so start at the
        // first leaf whose fence >= key minus one.
        let idx = self.fences.partition_point(|&f| f < key);
        Some(idx.saturating_sub(1) as u64)
    }

    /// Scans keys in `lo..=hi` ascending, calling
    /// `visit(key, value, dup_idx)` for each entry, where `dup_idx`
    /// counts that key's copies from the oldest (0-based). Returns the
    /// scan's page counters: `pages` and `real_reads` both count leaf
    /// pages read from the store (leaf-cache misses), `cache_hits` the
    /// leaves the cache served, and `real_seeks` the non-contiguous
    /// fetches among the reads (the first counts as one).
    ///
    /// # Errors
    /// On I/O failure or a corrupt page.
    pub fn scan(
        &self,
        lo: u64,
        hi: u64,
        visit: &mut dyn FnMut(u64, &V, u32),
    ) -> Result<IoStats, SfcError> {
        let mut stats = IoStats::default();
        if lo > hi || self.fences.is_empty() {
            return Ok(stats);
        }
        let mut leaf_no = self.leaf_for_first(lo).unwrap_or(0);
        let mut cur_key = u64::MAX;
        let mut dup_idx = 0u32;
        let mut last_fetched: Option<u64> = None;
        while leaf_no < self.fences.len() as u64 {
            if self.fences[leaf_no as usize] > hi {
                break;
            }
            let (leaf, hit) = self.leaf(leaf_no)?;
            if hit {
                stats.cache_hits += 1;
            } else {
                stats.pages += 1;
                stats.real_reads += 1;
                if last_fetched != Some(leaf_no.wrapping_sub(1)) {
                    stats.real_seeks += 1;
                }
                last_fetched = Some(leaf_no);
            }
            let start = leaf.partition_point(|&(k, _)| k < lo);
            for &(k, ref v) in &leaf[start..] {
                if k > hi {
                    return Ok(stats);
                }
                if k == cur_key {
                    dup_idx += 1;
                } else {
                    cur_key = k;
                    dup_idx = 0;
                }
                visit(k, v, dup_idx);
            }
            leaf_no += 1;
        }
        Ok(stats)
    }

    /// Streams every entry in key order straight from the store,
    /// bypassing (and not warming) the leaf cache — the persistence
    /// path, so a snapshot never pollutes live cache statistics. Every
    /// leaf is read into one page buffer and decoded into one vector.
    /// The sink receives `(key, value, dup_idx)` with `dup_idx` counting
    /// each key's copies from the oldest.
    ///
    /// # Errors
    /// On I/O failure or a corrupt page.
    pub fn stream(&self, sink: &mut dyn FnMut(u64, &V, u32)) -> Result<(), SfcError> {
        let mut cur_key = u64::MAX;
        let mut dup_idx = 0u32;
        let mut first = true;
        let mut page = vec![0u8; self.store.page_size()];
        let mut leaf = Vec::new();
        for leaf_no in 0..self.fences.len() as u64 {
            self.read_leaf(leaf_no, &mut page, &mut leaf)?;
            for &(k, ref v) in &leaf {
                if !first && k == cur_key {
                    dup_idx += 1;
                } else {
                    cur_key = k;
                    dup_idx = 0;
                    first = false;
                }
                sink(k, v, dup_idx);
            }
        }
        Ok(())
    }
}

/// Best-effort display name for error contexts.
fn store_name<S: PageStore>(store: &S) -> String {
    store.path().display().to_string()
}

/// The store's page size, if it can hold the header page's fields.
fn check_page_size<S: PageStore>(store: &S) -> Result<usize, SfcError> {
    let page_size = store.page_size();
    if page_size < MIN_PAGE_SIZE {
        return Err(SfcError::Storage {
            context: format!(
                "segment {}: page size {page_size} is below the {MIN_PAGE_SIZE}-byte minimum",
                store_name(store)
            ),
        });
    }
    Ok(page_size)
}
