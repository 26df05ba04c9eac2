//! The sharding layer: `ShardedTable`, a curve-partitioned table whose
//! shards each model one independent disk.
//!
//! §I of the paper motivates SFC partitioning for distributed spatial data
//! and load balancing: [`partition_universe`](crate::partition_universe)
//! splits the curve into `k` contiguous index ranges, each owned by one
//! worker. `ShardedTable` turns that into a query engine: records are
//! placed in the shard owning their curve key, a rectangle query's cluster
//! ranges are split at shard boundaries, and the per-shard pieces are
//! scanned in shard order on the caller's thread. What is *modelled* and
//! what is *executed* differ: each shard's I/O is reported apart
//! ([`QueryResult::shard_io`]) and priced as its own disk, so a query's
//! modelled latency is the *slowest* shard's I/O, not the sum, while the
//! scan itself spawns no thread. Concurrency comes from concurrent callers
//! (e.g. a server's connection threads); [`ShardedTable::query_rect_batch`]
//! is the one read that fans out over the shards.
//!
//! Skewed data stresses this design exactly as it does real systems: the
//! partitioning balances *cells*, not records, so a hotspot concentrates
//! records (and scan work) in few shards — measurable here via
//! [`ShardedTable::shard_sizes`] and the per-shard stats every query
//! returns in [`QueryResult::shard_io`].

use crate::backend::{Backend, MemoryBackend};
use crate::disk::{DiskModel, IoStats};
use crate::partition::{partition_universe, Partition};
use crate::plan::{Planner, QueryPlan};
use crate::store::PageStore;
use crate::stored::{FileBackend, StoreConfig, StoreFactory};
use crate::table::{keyed_records, QueryOptions, QueryResult, Record, ValueGuard};
use crate::wal::WalCodec;
use onion_core::{Point, SfcError, SpaceFillingCurve};
use sfc_clustering::{RectQuery, ScratchPool};
use std::collections::VecDeque;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// One write against a sharded table, applied through
/// [`ShardedTable::apply_batch`] — the table's only writer; a
/// single-record write is a 1-op batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOp<const D: usize, V> {
    /// Insert a record (duplicates allowed); displaces nothing.
    Insert(Point<D>, V),
    /// Replace the newest payload at a point, returning the old one;
    /// inserts if the cell is vacant.
    Update(Point<D>, V),
    /// Remove the oldest record at a point, returning its payload.
    Delete(Point<D>),
}

impl<const D: usize, V> BatchOp<D, V> {
    /// The point this write touches.
    pub fn point(&self) -> Point<D> {
        match self {
            BatchOp::Insert(p, _) | BatchOp::Update(p, _) | BatchOp::Delete(p) => *p,
        }
    }
}

/// How many recent epoch versions a table keeps alive for
/// [`ShardedTable::snapshot_at`] time-travel reads, beyond the current one.
///
/// Both bounds apply: a version is evicted once the window exceeds
/// `epochs` *or* the retained versions' estimated footprint exceeds
/// `bytes` (a conservative per-version estimate of `records × entry
/// size`, ignoring the page sharing that usually makes retention far
/// cheaper). Eviction only drops the *table's* reference — a reader still
/// pinning an evicted version keeps it (and every page it shares) alive
/// until the pin drops; that `Arc` refcount is the whole GC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Maximum number of superseded versions retained (the current
    /// version is always reachable and never counts).
    pub epochs: usize,
    /// Maximum estimated total footprint of retained versions, in bytes.
    pub bytes: u64,
}

impl Default for RetentionPolicy {
    /// Eight epochs, unbounded bytes — enough history for a serving tier
    /// to answer "just now" time-travel reads without measurable memory
    /// cost on COW-shared pages.
    fn default() -> Self {
        RetentionPolicy {
            epochs: 8,
            bytes: u64::MAX,
        }
    }
}

/// One immutable epoch-stamped version of a sharded table's contents.
///
/// A version owns its shard backends through `Arc`s: installing epoch
/// `e + 1` clones the `Arc`s of untouched shards and forks
/// ([`Backend::fork`]) only the shards the batch wrote — and the fork
/// itself shares all unwritten B+-tree pages. Readers holding a version
/// (via [`ShardedTable::snapshot`]/[`ShardedTable::snapshot_at`], or
/// implicitly for the duration of any query) observe it forever unchanged.
pub(crate) struct TableVersion<B> {
    /// The number of applied batches since the table was built (or the
    /// epoch stamped by recovery).
    epoch: u64,
    shards: Vec<Arc<B>>,
    records: u64,
}

impl<B> TableVersion<B> {
    /// Records stored in this version.
    fn len(&self) -> usize {
        self.records as usize
    }
}

/// Manual impl: cloning a version is O(shards) `Arc` bumps and never
/// touches backend contents, so no `B: Clone` bound is wanted.
impl<B> Clone for TableVersion<B> {
    fn clone(&self) -> Self {
        TableVersion {
            epoch: self.epoch,
            shards: self.shards.clone(),
            records: self.records,
        }
    }
}

/// Copy-on-write access to one shard slot of a version under
/// construction: fork the backend if the `Arc` is shared (some other
/// version or reader also holds it), then hand out the unique `&mut`.
fn cow_shard<V, B: Backend<V>>(slot: &mut Arc<B>) -> &mut B {
    if Arc::get_mut(slot).is_none() {
        *slot = Arc::new(slot.fork());
    }
    Arc::get_mut(slot).expect("slot was just made unique")
}

/// A spatial table split into contiguous curve-range shards, each
/// modelling one disk, with MVCC epoch versions.
///
/// Shards are ordered by curve range, so concatenating per-shard results in
/// shard order preserves global curve-key order — a query returns the same
/// rows at any shard count, and a 1-shard table is the plain SFC-ordered
/// table of the paper's application (§I).
///
/// Shard state lives in an immutable, epoch-stamped version behind an
/// atomic pointer: every read path **pins** the current version (one
/// `Arc` clone under a momentarily-held lock) and then scans it with no
/// lock held at all, while [`Self::apply_batch`] — the table's only
/// writer — builds the next version copy-on-write, forking only the
/// shards (and within them only the B+-tree pages) the batch writes, and
/// installs it with a pointer swap. Readers and the writer therefore
/// never block each other, and **every scan observes exactly one
/// epoch**, even when it straddles shards mid-apply. Superseded versions
/// stay reachable for [`Self::snapshot_at`] time-travel reads within a
/// bounded [`RetentionPolicy`] window.
pub struct ShardedTable<C, V, const D: usize, B = MemoryBackend<Record<D, V>>> {
    curve: C,
    parts: Vec<Partition>,
    /// The current version. The lock is held only long enough to clone
    /// (readers) or swap (the writer) the `Arc` — never across a scan or
    /// an apply.
    current: RwLock<Arc<TableVersion<B>>>,
    /// Superseded versions, oldest first, bounded by `retention`.
    retained: Mutex<VecDeque<Arc<TableVersion<B>>>>,
    retention: RetentionPolicy,
    /// Serializes version installs (batch applies, restores): versions
    /// form a linear history, so there is exactly one version under
    /// construction at any time.
    write_gate: Mutex<()>,
    model: DiskModel,
    scratch: ScratchPool<D>,
    /// Total stored records, kept equal to the current version's count so
    /// [`Self::len`]/[`Self::density`] — called per planned query — never
    /// touch the version lock (a query would otherwise pay two lock
    /// hops per plan).
    records: std::sync::atomic::AtomicU64,
    // `V` only occurs inside `B` (as `Backend<Record<D, V>>`); the `fn`
    // wrapper keeps the marker from affecting auto traits or variance.
    _values: std::marker::PhantomData<fn() -> V>,
}

/// Work split of one query: for each shard (by position in `parts`), the
/// sub-ranges of the query's clusters that fall inside it.
type ShardWork = Vec<Vec<(u64, u64)>>;

impl<const D: usize, C, V> ShardedTable<C, V, D>
where
    C: SpaceFillingCurve<D>,
    V: Clone,
{
    /// Builds a sharded table over `curve` with `shard_count` shards
    /// (in-memory backends), placing each record in the shard owning its
    /// curve key.
    ///
    /// # Errors
    /// If any point lies outside the curve's universe.
    ///
    /// # Panics
    /// If `shard_count` is zero.
    pub fn build(
        curve: C,
        records: Vec<(Point<D>, V)>,
        model: DiskModel,
        shard_count: usize,
    ) -> Result<Self, SfcError> {
        Self::build_with(curve, records, model, shard_count, |_, chunk| {
            Ok(MemoryBackend::bulk_load(chunk))
        })
    }
}

impl<const D: usize, C, V> ShardedTable<C, V, D, FileBackend<Record<D, V>>>
where
    C: SpaceFillingCurve<D>,
    V: Clone,
    Record<D, V>: WalCodec,
{
    /// Builds a sharded table whose shards are genuinely disk-resident:
    /// each shard's records are bulk-built into an immutable segment file
    /// `dir/shard<i>.g<N>.seg` (fronted by an LRU page cache of
    /// `cfg.pool_pages` pages), and later writes land in an in-memory
    /// overlay until [`Self::compact_shards`]. Query [`IoStats`] report
    /// leaf-cache hits and the *measured* `real_reads` / `real_seeks`.
    ///
    /// # Errors
    /// If any point lies outside the curve's universe, or segment I/O
    /// fails.
    ///
    /// # Panics
    /// If `shard_count` is zero.
    pub fn build_stored(
        curve: C,
        records: Vec<(Point<D>, V)>,
        model: DiskModel,
        shard_count: usize,
        dir: &Path,
        cfg: StoreConfig,
    ) -> Result<Self, SfcError> {
        Self::build_with(curve, records, model, shard_count, |idx, chunk| {
            FileBackend::create(dir, &format!("shard{idx}"), cfg, chunk)
        })
    }
}

impl<const D: usize, C, V, S> ShardedTable<C, V, D, FileBackend<Record<D, V>, S>>
where
    C: SpaceFillingCurve<D>,
    V: Clone,
    Record<D, V>: WalCodec,
    S: PageStore,
{
    /// [`Self::build_stored`] with an explicit [`StoreFactory`] — the hook
    /// fault-injecting test stores and alternative media ride in through.
    ///
    /// # Errors
    /// If any point lies outside the curve's universe, or segment I/O
    /// fails.
    ///
    /// # Panics
    /// If `shard_count` is zero.
    pub fn build_stored_with(
        curve: C,
        records: Vec<(Point<D>, V)>,
        model: DiskModel,
        shard_count: usize,
        dir: &Path,
        cfg: StoreConfig,
        factory: StoreFactory<S>,
    ) -> Result<Self, SfcError> {
        Self::build_with(curve, records, model, shard_count, |idx, chunk| {
            FileBackend::create_with(dir, &format!("shard{idx}"), cfg, factory.clone(), chunk)
        })
    }
}

impl<const D: usize, C, V, B> ShardedTable<C, V, D, B>
where
    C: SpaceFillingCurve<D>,
    V: Clone,
    B: Backend<Record<D, V>>,
{
    /// Generic build: keys and sorts the records once, cuts them at the
    /// partition boundaries of [`partition_universe`], and bulk-loads each
    /// shard's chunk through `make_backend`, which also receives the shard
    /// index so disk-resident shards can claim distinct files.
    fn build_with(
        curve: C,
        records: Vec<(Point<D>, V)>,
        model: DiskModel,
        shard_count: usize,
        make_backend: impl Fn(usize, Vec<(u64, Record<D, V>)>) -> Result<B, SfcError>,
    ) -> Result<Self, SfcError> {
        assert!(shard_count >= 1, "need at least one shard");
        let parts = partition_universe(&curve, shard_count);
        let mut keyed = keyed_records(&curve, records)?;
        let total = keyed.len() as u64;
        let mut shards = Vec::with_capacity(parts.len());
        // `keyed` is sorted, so each shard's records are a prefix of the
        // remainder: split it off partition by partition.
        for (rev_idx, part) in parts.iter().enumerate().rev() {
            let cut = keyed.partition_point(|&(k, _)| k < part.lo);
            shards.push(Arc::new(make_backend(rev_idx, keyed.split_off(cut))?));
        }
        shards.reverse();
        debug_assert!(keyed.is_empty());
        Ok(ShardedTable {
            curve,
            parts,
            current: RwLock::new(Arc::new(TableVersion {
                epoch: 0,
                shards,
                records: total,
            })),
            retained: Mutex::new(VecDeque::new()),
            retention: RetentionPolicy::default(),
            write_gate: Mutex::new(()),
            model,
            scratch: ScratchPool::new(),
            records: std::sync::atomic::AtomicU64::new(total),
            _values: std::marker::PhantomData,
        })
    }

    /// Pins the current version: after this one `Arc` clone (under a
    /// momentarily-held read lock) the caller reads the version with no
    /// lock at all, unaffected by any concurrent apply.
    fn pin(&self) -> Arc<TableVersion<B>> {
        self.current
            .read()
            .expect("version pointer poisoned by a panicked writer")
            .clone()
    }

    /// Publishes `new` as the current version and pushes the superseded
    /// one into the retention window, evicting past the policy bounds.
    /// Callers hold `write_gate`.
    fn install(&self, new: Arc<TableVersion<B>>) {
        let prev = {
            let mut cur = self
                .current
                .write()
                .expect("version pointer poisoned by a panicked writer");
            std::mem::replace(&mut *cur, new)
        };
        let mut retained = self.retained.lock().expect("retention window poisoned");
        retained.push_back(prev);
        Self::evict(&mut retained, self.retention);
    }

    /// Drops the oldest retained versions until the window fits `policy`:
    /// first the epoch bound, then the estimated byte bound. The current
    /// version is never in the window, so it is never evicted.
    fn evict(retained: &mut VecDeque<Arc<TableVersion<B>>>, policy: RetentionPolicy) {
        while retained.len() > policy.epochs {
            retained.pop_front();
        }
        // Conservative per-entry footprint: versions share unwritten
        // pages, so the true marginal cost is usually far lower.
        let entry_bytes = (std::mem::size_of::<Record<D, V>>() + std::mem::size_of::<u64>()) as u64;
        let mut estimated: u64 = retained.iter().map(|v| v.records * entry_bytes).sum();
        while estimated > policy.bytes {
            match retained.pop_front() {
                Some(v) => estimated -= v.records * entry_bytes,
                None => break,
            }
        }
    }

    /// Installs `new` and discards all retained history — for operations
    /// (restore, epoch re-stamping) after which older versions no longer
    /// belong to the same timeline. Callers hold `write_gate`.
    fn install_and_clear_history(&self, new: Arc<TableVersion<B>>) {
        {
            let mut cur = self
                .current
                .write()
                .expect("version pointer poisoned by a panicked writer");
            *cur = new;
        }
        self.retained
            .lock()
            .expect("retention window poisoned")
            .clear();
    }

    /// The retention policy bounding [`Self::snapshot_at`]'s window.
    pub fn retention(&self) -> RetentionPolicy {
        self.retention
    }

    /// Replaces the retention policy and immediately applies its bounds
    /// to the retained window.
    pub fn set_retention(&mut self, policy: RetentionPolicy) {
        self.retention = policy;
        Self::evict(
            self.retained.get_mut().expect("retention window poisoned"),
            policy,
        );
    }

    /// The epoch of the current version: the number of batches applied
    /// since the build, or whatever [`Self::set_epoch`] last stamped.
    /// Read under the version lock without pinning: the serving layer
    /// reads it on every admitted write, and an `Arc` clone and drop
    /// there would add two atomic read-modify-writes per write.
    pub fn version_epoch(&self) -> u64 {
        self.current
            .read()
            .expect("version pointer poisoned by a panicked writer")
            .epoch
    }

    /// Re-stamps the current version's epoch and discards retained
    /// history — the recovery hook: after a snapshot restore the replayed
    /// timeline restarts at the snapshot's epoch, so pre-restore versions
    /// are meaningless.
    pub fn set_epoch(&self, epoch: u64) {
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        let base = self.pin();
        let mut restamped = TableVersion::clone(&base);
        restamped.epoch = epoch;
        self.install_and_clear_history(Arc::new(restamped));
    }

    /// Pins the current version as a snapshot handle: every read through
    /// it observes this exact epoch, however many batches are applied
    /// concurrently or afterwards.
    pub fn snapshot(&self) -> TableSnapshot<'_, C, V, D, B> {
        TableSnapshot {
            table: self,
            version: self.pin(),
        }
    }

    /// Pins the version of epoch `epoch` from the current version or the
    /// retention window — the time-travel entry point. Returns `None` if
    /// that epoch has been evicted (or never existed); durable callers
    /// fall back to WAL replay.
    pub fn snapshot_at(&self, epoch: u64) -> Option<TableSnapshot<'_, C, V, D, B>> {
        let current = self.pin();
        let version = if current.epoch == epoch {
            Some(current)
        } else {
            self.retained
                .lock()
                .expect("retention window poisoned")
                .iter()
                .find(|v| v.epoch == epoch)
                .cloned()
        };
        version.map(|version| TableSnapshot {
            table: self,
            version,
        })
    }

    /// Epochs currently answerable by [`Self::snapshot_at`], ascending
    /// (retained window, then the current epoch).
    pub fn retained_epochs(&self) -> Vec<u64> {
        let mut epochs: Vec<u64> = self
            .retained
            .lock()
            .expect("retention window poisoned")
            .iter()
            .map(|v| v.epoch)
            .collect();
        epochs.push(self.pin().epoch);
        epochs
    }

    /// The curve ordering this table.
    pub fn curve(&self) -> &C {
        &self.curve
    }

    /// The disk cost model pricing [`IoStats::time_us`] timings (per
    /// shard) and the planner's default coefficients.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.parts.len()
    }

    /// The curve-range partitions backing the shards.
    pub fn partitions(&self) -> &[Partition] {
        &self.parts
    }

    /// Records per shard — the load-balance view ("imbalance" in the sense
    /// of [`PartitionMetrics`](crate::PartitionMetrics), but record-weighted
    /// rather than cell-weighted, which is what skewed data distorts).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.pin().shards.iter().map(|s| s.len()).collect()
    }

    /// Total number of stored records (a lock-free counter maintained by
    /// every write path — reading it never touches the shard locks).
    pub fn len(&self) -> usize {
        self.records.load(std::sync::atomic::Ordering::Relaxed) as usize
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record density: stored records per curve cell, the planner's
    /// expected yield of a scanned key span.
    pub fn density(&self) -> f64 {
        crate::plan::record_density(self.len(), self.curve.universe().cell_count())
    }

    /// The shard (by position) owning curve key `key`.
    fn shard_of_key(&self, key: u64) -> usize {
        let pos = self.parts.partition_point(|part| part.hi < key);
        // `partition_universe` covers every curve key and all keys come
        // from validated points, so this is unreachable today — but guard
        // in every build profile with a clear message (the `owner_of`
        // lesson: a vanished debug_assert leaves an opaque index panic) in
        // case a future constructor accepts caller-supplied partitions.
        assert!(
            pos < self.parts.len() && self.parts[pos].lo <= key,
            "curve key {key} is not covered by the table's {} partition(s)",
            self.parts.len()
        );
        pos
    }

    /// Validates and keys a batch (one [`SpaceFillingCurve::fill_indices`]
    /// call) and stable-sorts it into curve order, returning the per-op
    /// keys and the sorted submission-index permutation — the front half
    /// of [`Self::apply_batch`]. Stable sort: ops on the same key keep
    /// their submission order.
    fn key_batch(&self, ops: &[BatchOp<D, V>]) -> Result<(Vec<u64>, Vec<usize>), SfcError> {
        let universe = self.curve.universe();
        let points: Vec<Point<D>> = ops.iter().map(BatchOp::point).collect();
        for p in &points {
            if !universe.contains(*p) {
                return Err(SfcError::PointOutOfBounds {
                    point: p.to_string(),
                    side: universe.side(),
                });
            }
        }
        let mut keys: Vec<u64> = Vec::with_capacity(points.len());
        self.curve.fill_indices(&points, &mut keys);
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        Ok((keys, order))
    }

    /// Replaces the table's entire contents with `entries` — keyed
    /// records sorted ascending by curve key, as produced by
    /// [`read_snapshot`](crate::read_snapshot) or by concatenating
    /// [`TableSnapshot::persist_shard`] streams. The entries are re-cut
    /// at *this* table's partition boundaries and handed to each shard's
    /// [`Backend::restore`], so a snapshot taken at one shard count
    /// restores into any other: same committed state, identical
    /// [`Self::query_rect`] answers, whatever the layout. Time-travel
    /// reads past the retention window rebuild an epoch this way too:
    /// restore the last snapshot into a throwaway table, apply the WAL
    /// prefix through [`Self::apply_batch`], and query it.
    ///
    /// Keys are trusted to match this table's curve (they are validated
    /// against the universe, but not re-derived from the points — the
    /// durable layer guarantees curve identity by construction).
    ///
    /// # Errors
    /// If any key lies outside the curve's universe or the entries are
    /// not sorted (a snapshot from a different universe, a foreign
    /// format revision, or corruption the checksum missed) — recovery
    /// failures are reported, never panicked, so a durable engine's
    /// `open` can surface them.
    pub fn restore_entries(&self, entries: Vec<(u64, Record<D, V>)>) -> Result<(), SfcError> {
        let cells = self.curve.universe().cell_count();
        if let Some(&(key, _)) = entries.iter().find(|&&(k, _)| k >= cells) {
            return Err(SfcError::IndexOutOfBounds { index: key, cells });
        }
        if !entries.windows(2).all(|w| w[0].0 <= w[1].0) {
            return Err(SfcError::Storage {
                context: "restoring table: snapshot entries are not in curve-key order".into(),
            });
        }
        let total = entries.len() as u64;
        let mut remainder = entries;
        // Cut the sorted entries at partition boundaries, back to front
        // (mirroring `build_with`), restore each shard into a fork, and
        // install the restored set as one new version: a scan racing the
        // restore observes either the entire pre-restore state or the
        // entire post-restore state, never a mix. Retained history is
        // discarded — the restored timeline replaces it (recovery
        // re-stamps the epoch via [`Self::set_epoch`]).
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        let base = self.pin();
        let mut chunks: Vec<Vec<(u64, Record<D, V>)>> = Vec::new();
        chunks.resize_with(self.parts.len(), Vec::new);
        for (shard, part) in self.parts.iter().enumerate().rev() {
            let cut = remainder.partition_point(|&(k, _)| k < part.lo);
            chunks[shard] = remainder.split_off(cut);
        }
        debug_assert!(remainder.is_empty());
        let shards: Vec<Arc<B>> = chunks
            .into_iter()
            .enumerate()
            .map(|(shard, chunk)| {
                let mut backend = base.shards[shard].fork();
                backend.restore(chunk)?;
                Ok(Arc::new(backend))
            })
            .collect::<Result<_, SfcError>>()?;
        self.install_and_clear_history(Arc::new(TableVersion {
            epoch: base.epoch,
            shards,
            records: total,
        }));
        self.records
            .store(total, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Compacts every shard's backend ([`Backend::compact`]) into one new
    /// version at the **same** epoch: logical state is untouched — for
    /// disk-resident backends the overlay and removal edits are folded
    /// into a fresh base segment, so subsequent scans run against one
    /// sequential file again. A no-op (and free) for in-memory backends.
    /// Readers pinned to older versions keep their segment files alive
    /// through the open descriptors even after the old generation is
    /// unlinked.
    ///
    /// # Errors
    /// If a backend's compaction I/O fails; the table keeps serving the
    /// pre-compaction version in that case.
    pub fn compact_shards(&self) -> Result<(), SfcError> {
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        let base = self.pin();
        let shards: Vec<Arc<B>> = base
            .shards
            .iter()
            .map(|shard| {
                let mut backend = shard.fork();
                backend.compact()?;
                Ok(Arc::new(backend))
            })
            .collect::<Result<_, SfcError>>()?;
        self.install(Arc::new(TableVersion {
            epoch: base.epoch,
            shards,
            records: base.records,
        }));
        Ok(())
    }

    /// Point lookup (routed to the owning shard; no threads involved),
    /// returned as a **pinned guard**: the value is not copied — the
    /// guard holds the storage page of the version current at call time,
    /// so it stays valid and bit-identical whatever is applied (or
    /// dropped) afterwards. If the cell holds duplicates, the guard pins
    /// the **newest** one. Callers needing an owned payload chain
    /// [`ValueGuard::cloned`].
    ///
    /// # Errors
    /// If the point lies outside the curve's universe.
    pub fn get(&self, p: Point<D>) -> Result<Option<ValueGuard<D, V>>, SfcError> {
        let key = self.curve.index_of(p)?;
        let shard = self.shard_of_key(key);
        Ok(self.pin().shards[shard]
            .get_pinned(key)?
            .map(ValueGuard::new))
    }

    /// Splits sorted ranges (a plan's, or a full decomposition's) at shard
    /// boundaries. Returns the per-shard sub-range lists and the total
    /// sub-range count.
    fn split_ranges(&self, ranges: &[(u64, u64)]) -> (ShardWork, u64) {
        let mut work: ShardWork = vec![Vec::new(); self.parts.len()];
        let mut pieces = 0u64;
        for &(mut lo, hi) in ranges {
            let mut shard = self.shard_of_key(lo);
            loop {
                let cut = self.parts[shard].hi.min(hi);
                work[shard].push((lo, cut));
                pieces += 1;
                if cut == hi {
                    break;
                }
                lo = cut + 1;
                shard += 1;
            }
        }
        (work, pieces)
    }

    fn check_fits(&self, q: &RectQuery<D>) -> Result<(), SfcError> {
        let side = self.curve.universe().side();
        if !q.fits_in(side) {
            return Err(SfcError::PointOutOfBounds {
                point: Point::new(q.hi()).to_string(),
                side,
            });
        }
        Ok(())
    }
}

/// How many permutation steps ahead [`take_run`] hints `slots` entries
/// into cache (see [`crate::prefetch`]): far enough to cover an
/// L2 miss under the loop's per-op work, near enough that hinted lines
/// survive until use.
const APPLY_PREFETCH_DISTANCE: usize = 8;

/// Batches below this many ops always apply on the calling thread: their
/// per-shard slices are too small to amortize thread spawns (an epoch of
/// a few hundred ops applies in tens of microseconds — comparable to
/// starting one thread). Recovery replay and bulk loads run far above it.
const PARALLEL_APPLY_MIN_OPS: usize = 1024;

/// Whether this host can actually run shard workers concurrently. On a
/// single-core machine the parallel apply is pure spawn overhead (the
/// workers serialize anyway), so `apply_batch` stays on the calling
/// thread there — behavior is identical either way, only the schedule
/// differs.
fn host_has_parallelism() -> bool {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }) > 1
}

impl<const D: usize, C, V, B> ShardedTable<C, V, D, B>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send,
    B: Backend<Record<D, V>> + Send + Sync,
{
    /// Applies a batch of writes through `&self`: validates and keys every
    /// point with one [`SpaceFillingCurve::fill_indices`] call, stably
    /// sorts the batch into curve order, cuts the sorted run at shard
    /// boundaries, and applies each shard's contiguous slice to a private
    /// copy-on-write fork of that shard — so the B+-trees see sorted bulk
    /// mutations instead of random single inserts, and readers never wait:
    /// they keep scanning the pinned previous version while the forks are
    /// written.
    ///
    /// Large batches (1024+ ops touching more than one shard, on hosts
    /// with more than one core) apply their per-shard slices
    /// **concurrently** under [`std::thread::scope`]: the slices are
    /// disjoint by construction and each worker owns its fork outright,
    /// taking no lock, so the epoch's critical path shrinks to the slowest
    /// shard. Smaller batches (and single-core hosts) apply the slices one
    /// after another on the calling thread. Both schedules return the same
    /// displaced payloads and install the same state.
    ///
    /// Returns the displaced payloads in **submission order** (`None` for
    /// inserts and for deletes/updates of vacant cells). Ops on the same
    /// point apply in submission order; no write is applied if any point
    /// is invalid. An empty batch installs nothing and bumps no epoch.
    ///
    /// This is the write entry point the epoch-batching serving layer
    /// (`sfc-engine`) drives — both for live epochs and for recovery
    /// replay. The batch becomes visible as one new epoch version in a
    /// single pointer swap: a reader's scan observes either the entire
    /// pre-batch table or the entire post-batch table — never a mix,
    /// even across shards — and in-flight scans that pinned the old
    /// version complete against it untouched.
    ///
    /// # Errors
    /// If any point lies outside the curve's universe (checked before
    /// anything is applied).
    pub fn apply_batch(&self, ops: Vec<BatchOp<D, V>>) -> Result<Vec<Option<V>>, SfcError> {
        let total = ops.len();
        let (keys, order) = self.key_batch(&ops)?;
        let mut results: Vec<Option<V>> = Vec::new();
        results.resize_with(total, || None);
        if order.is_empty() {
            return Ok(results);
        }
        // Cut the curve-sorted permutation at shard boundaries: one run of
        // positions in `order` per touched shard.
        let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
        let mut at = 0usize;
        while at < order.len() {
            let shard = self.shard_of_key(keys[order[at]]);
            let end = at
                + order[at..]
                    .iter()
                    .take_while(|&&i| keys[i] <= self.parts[shard].hi)
                    .count();
            runs.push((shard, at..end));
            at = end;
        }
        let threaded = total >= PARALLEL_APPLY_MIN_OPS && runs.len() > 1 && host_has_parallelism();
        let mut slots: Vec<Option<BatchOp<D, V>>> = ops.into_iter().map(Some).collect();
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        let base = self.pin();
        let mut shards = base.shards.clone();
        let mut delta = 0i64;
        if threaded {
            // Each worker owns its shard's private fork and its staged ops
            // outright: the workers hold no lock and share nothing mutable.
            type Staged<B, const D: usize, V> = (usize, B, Vec<(usize, u64, BatchOp<D, V>)>);
            let mut staged: Vec<Staged<B, D, V>> = runs
                .into_iter()
                .map(|(shard, run)| {
                    let slice = take_run(&mut slots, &keys, &order, run).collect();
                    (shard, shards[shard].fork(), slice)
                })
                .collect();
            type ShardChunk<V> = (Vec<(usize, Option<V>)>, i64);
            let chunks: Vec<ShardChunk<V>> = std::thread::scope(|s| {
                let handles: Vec<_> = staged
                    .iter_mut()
                    .map(|(_, backend, slice)| {
                        s.spawn(move || {
                            let mut local_delta = 0i64;
                            let pairs: Vec<(usize, Option<V>)> = slice
                                .drain(..)
                                .map(|(i, key, op)| {
                                    (i, apply_one(backend, key, op, &mut local_delta))
                                })
                                .collect();
                            (pairs, local_delta)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard apply worker panicked"))
                    .collect()
            });
            for (shard, backend, _) in staged {
                shards[shard] = Arc::new(backend);
            }
            for (pairs, d) in chunks {
                delta += d;
                for (i, displaced) in pairs {
                    results[i] = displaced;
                }
            }
        } else {
            for (shard, run) in runs {
                // Fork the touched shard (readers keep scanning `base`'s
                // copy untouched); untouched shards stay shared `Arc`s.
                let backend = cow_shard(&mut shards[shard]);
                for (i, key, op) in take_run(&mut slots, &keys, &order, run) {
                    results[i] = apply_one(backend, key, op, &mut delta);
                }
            }
        }
        let records = base
            .records
            .checked_add_signed(delta)
            .expect("record count underflow");
        self.install(Arc::new(TableVersion {
            epoch: base.epoch + 1,
            shards,
            records,
        }));
        self.records
            .store(records, std::sync::atomic::Ordering::Relaxed);
        Ok(results)
    }

    /// Answers a rectangle query: decomposes it into cluster ranges, splits
    /// them at shard boundaries, and scans the shards one after another on
    /// the calling thread, in shard order — which is curve-key order, so
    /// the rows are the same at any shard count.
    ///
    /// `opts` selects the decomposition: the exact cluster ranges (the
    /// default — seeks per query = the paper's clustering number), or the
    /// adaptive planner ([`QueryOptions::planned`]), which budgets the
    /// ranges globally before the shard split, returns its [`QueryPlan`]
    /// in [`QueryResult::plan`], and is fed the realized I/O. The rows are
    /// identical either way; only the seek/read-amplification trade moves.
    ///
    /// [`QueryResult::io`] *sums* the shards' I/O (total work);
    /// [`QueryResult::shard_io`] keeps each shard's share, from which the
    /// modelled critical path of one disk per shard, `max(time_us)`, can
    /// be computed. That is a model of the I/O, not of the execution.
    ///
    /// # Errors
    /// If the query does not fit inside the universe.
    pub fn query_rect(
        &self,
        q: &RectQuery<D>,
        opts: &QueryOptions<'_>,
    ) -> Result<QueryResult<D, V>, SfcError> {
        self.query_version(&self.pin(), q, opts.planner)
    }

    /// The one rect-query executor behind [`Self::query_rect`],
    /// [`Self::knn`] and [`TableSnapshot::query_rect`]: decomposes `q`,
    /// lets `planner` (if any) budget the ranges on `version`'s record
    /// density, splits them at shard boundaries, scans `version`, and
    /// feeds the merged and per-shard I/O back into the planner. Planned
    /// ranges may absorb gap cells, so their scans drop records outside
    /// `q`.
    fn query_version(
        &self,
        version: &TableVersion<B>,
        q: &RectQuery<D>,
        planner: Option<&Planner>,
    ) -> Result<QueryResult<D, V>, SfcError> {
        self.check_fits(q)?;
        let (plan, (work, pieces)) = {
            let mut scratch = self.scratch.checkout();
            let full = scratch.ranges_of(&self.curve, q);
            match planner {
                None => (None, self.split_ranges(full)),
                Some(planner) => {
                    let cells = self.curve.universe().cell_count();
                    let plan = planner
                        .plan_ranges(full, crate::plan::record_density(version.len(), cells));
                    let split = self.split_ranges(&plan.ranges);
                    (Some(plan), split)
                }
            }
        };
        let started = std::time::Instant::now();
        let (records, shard_io) = self.scan_work(version, &work, q, plan.is_some())?;
        let wall_us = started.elapsed().as_secs_f64() * 1e6;
        let mut io = IoStats::default();
        for stats in &shard_io {
            io.absorb(*stats);
        }
        if let Some(planner) = planner {
            planner.observe(&io);
            planner.observe_shards(&shard_io);
            if io.real_reads > 0 {
                planner.observe_latency(io.real_seeks, io.real_reads, wall_us);
            }
        }
        Ok(QueryResult {
            records,
            ranges_scanned: pieces,
            io,
            shard_io,
            plan,
        })
    }

    /// Plans a rectangle query without executing it (the `EXPLAIN` entry
    /// point): the plan is made on the *global* decomposition, before any
    /// shard-boundary splitting, so its budget reflects the query's true
    /// clustering.
    ///
    /// # Errors
    /// If the query does not fit inside the universe.
    pub fn plan_rect(&self, q: &RectQuery<D>, planner: &Planner) -> Result<QueryPlan, SfcError> {
        self.check_fits(q)?;
        let mut scratch = self.scratch.checkout();
        let full = scratch.ranges_of(&self.curve, q);
        Ok(planner.plan_ranges(full, self.density()))
    }

    /// Scans a per-shard worklist against one pinned version, one shard
    /// after another in shard (= curve-key) order on the calling thread,
    /// appending to one record vector. A query's shard pieces are too
    /// small to pay for a thread each; concurrency comes from concurrent
    /// callers. No lock is held anywhere in the scan — the version is
    /// immutable — so scans never wait on writers (or each other). With
    /// `filter`, records outside `q` are dropped (plans absorb gap
    /// cells); without it they are debug-asserted impossible (exact
    /// decompositions never scan outside the query). The first storage
    /// failure fails the whole query.
    fn scan_work(
        &self,
        version: &TableVersion<B>,
        work: &ShardWork,
        q: &RectQuery<D>,
        filter: bool,
    ) -> Result<(Vec<Record<D, V>>, Vec<IoStats>), SfcError> {
        let mut per_shard = vec![IoStats::default(); version.shards.len()];
        let mut records = Vec::new();
        for (shard, ranges) in work.iter().enumerate() {
            if !ranges.is_empty() {
                per_shard[shard] =
                    scan_shard(&*version.shards[shard], ranges, q, filter, &mut records)?;
            }
        }
        Ok((records, per_shard))
    }

    /// Answers a batch of exact rectangle queries with one pin and one
    /// thread scope — the one read that fans out over the shards: each
    /// shard worker scans its sub-ranges of *every* query, so the spawn
    /// cost is amortized across the batch.
    /// Each result equals what [`Self::query_rect`] would return for that
    /// query, I/O stats included.
    ///
    /// # Errors
    /// If any query does not fit inside the universe.
    pub fn query_rect_batch(
        &self,
        queries: &[RectQuery<D>],
    ) -> Result<Vec<QueryResult<D, V>>, SfcError> {
        // One pin for the whole batch: every query in it observes the
        // same epoch.
        let version = self.pin();
        // Split every query first so errors surface before any scan work.
        let mut splits: Vec<(ShardWork, u64)> = Vec::with_capacity(queries.len());
        {
            let mut scratch = self.scratch.checkout();
            for q in queries {
                self.check_fits(q)?;
                splits.push(self.split_ranges(scratch.ranges_of(&self.curve, q)));
            }
        }
        let shard_count = version.shards.len();
        type Chunk<const D: usize, V> =
            Result<(usize, Vec<(usize, Vec<Record<D, V>>, IoStats)>), SfcError>;
        let chunks: Vec<Chunk<D, V>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..shard_count)
                .filter(|&shard| splits.iter().any(|(work, _)| !work[shard].is_empty()))
                .map(|shard| {
                    let backend: &B = &version.shards[shard];
                    let splits = &splits;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for (qi, ((work, _), q)) in splits.iter().zip(queries).enumerate() {
                            let ranges = &work[shard];
                            if !ranges.is_empty() {
                                let mut recs = Vec::new();
                                let stats = scan_shard(backend, ranges, q, false, &mut recs)?;
                                out.push((qi, recs, stats));
                            }
                        }
                        Ok((shard, out))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let mut results: Vec<QueryResult<D, V>> = splits
            .iter()
            .map(|&(_, pieces)| QueryResult {
                records: Vec::new(),
                ranges_scanned: pieces,
                io: IoStats::default(),
                shard_io: vec![IoStats::default(); shard_count],
                plan: None,
            })
            .collect();
        // Chunks arrive in shard order (spawn order), and within a shard in
        // query order, so per-query extension preserves curve-key order.
        for chunk in chunks {
            let (shard, chunk) = chunk?;
            for (qi, recs, stats) in chunk {
                results[qi].records.extend(recs);
                results[qi].io.absorb(stats);
                results[qi].shard_io[shard] = stats;
            }
        }
        Ok(results)
    }

    /// The `k` records nearest to `center` in Euclidean distance — the
    /// "multi-dimensional similarity searching" application of §I.
    ///
    /// Works by querying expanding Chebyshev windows around `center`
    /// (radius doubling each round) on one pinned version: once at least
    /// `k` hits lie within Euclidean distance `r` of the center, no record
    /// outside the window can be closer. Returns `(record, squared
    /// distance)` pairs sorted by distance (ties broken by curve key
    /// order), with fewer than `k` entries only if the table is smaller
    /// than `k`.
    ///
    /// # Errors
    /// If `center` lies outside the universe.
    pub fn knn(&self, center: Point<D>, k: usize) -> Result<Vec<(Record<D, V>, u64)>, SfcError> {
        let side = self.curve.universe().side();
        if !self.curve.universe().contains(center) {
            return Err(SfcError::PointOutOfBounds {
                point: center.to_string(),
                side,
            });
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        let dist2 = |p: Point<D>| -> u64 {
            (0..D)
                .map(|d| {
                    let delta = u64::from(p.0[d].abs_diff(center.0[d]));
                    delta * delta
                })
                .sum()
        };
        let version = self.pin();
        let mut radius = 1u32;
        loop {
            let lo: [u32; D] = std::array::from_fn(|d| center.0[d].saturating_sub(radius));
            let len: [u32; D] =
                std::array::from_fn(|d| (center.0[d] + radius).min(side - 1) - lo[d] + 1);
            let window = RectQuery::new(lo, len).expect("window is non-degenerate");
            let res = self.query_version(&version, &window, None)?;
            let mut hits: Vec<(Record<D, V>, u64)> = res
                .records
                .into_iter()
                .map(|r| {
                    let d2 = dist2(r.point);
                    (r, d2)
                })
                .collect();
            hits.sort_by_key(|&(_, d2)| d2);
            let safe = u64::from(radius) * u64::from(radius);
            let certain = hits.iter().take(k).filter(|&&(_, d2)| d2 <= safe).count();
            let window_is_whole_universe = len.iter().all(|&l| l == side);
            if certain >= k || window_is_whole_universe {
                hits.truncate(k);
                return Ok(hits);
            }
            radius = radius.saturating_mul(2);
        }
    }
}

/// A read handle pinned to one epoch version of a [`ShardedTable`] —
/// what [`ShardedTable::snapshot`] / [`ShardedTable::snapshot_at`]
/// return. Every query through the handle observes exactly this
/// version's state, byte-for-byte, regardless of concurrent or later
/// applies; holding the handle keeps the version (and all pages it
/// shares) alive past retention eviction.
pub struct TableSnapshot<'t, C, V, const D: usize, B = MemoryBackend<Record<D, V>>> {
    table: &'t ShardedTable<C, V, D, B>,
    version: Arc<TableVersion<B>>,
}

impl<const D: usize, C, V, B> TableSnapshot<'_, C, V, D, B>
where
    C: SpaceFillingCurve<D>,
    V: Clone,
    B: Backend<Record<D, V>>,
{
    /// The epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.version.epoch
    }

    /// Pinned point lookup at this epoch (see [`ShardedTable::get`]).
    ///
    /// # Errors
    /// If the point lies outside the curve's universe.
    pub fn get(&self, p: Point<D>) -> Result<Option<ValueGuard<D, V>>, SfcError> {
        let key = self.table.curve.index_of(p)?;
        let shard = self.table.shard_of_key(key);
        Ok(self.version.shards[shard]
            .get_pinned(key)?
            .map(ValueGuard::new))
    }

    /// Streams shard `shard`'s entries at this epoch in ascending key
    /// order through the backend's [`Backend::persist`] hook.
    /// [`write_snapshot`](crate::write_snapshot) walks every shard of one
    /// snapshot in partition order, so its file is the whole table at one
    /// epoch, in curve-key order, whatever batches land meanwhile.
    ///
    /// # Errors
    /// On storage failure reading a disk-resident shard.
    ///
    /// # Panics
    /// If `shard` is out of range.
    pub fn persist_shard(
        &self,
        shard: usize,
        sink: &mut dyn FnMut(u64, &Record<D, V>),
    ) -> Result<(), SfcError> {
        self.version.shards[shard].persist(sink)
    }
}

impl<const D: usize, C, V, B> TableSnapshot<'_, C, V, D, B>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send,
    B: Backend<Record<D, V>> + Send + Sync,
{
    /// Answers a rectangle query against this epoch — same decomposition,
    /// sharding, and executor as [`ShardedTable::query_rect`], but the
    /// scanned state is this snapshot's version.
    ///
    /// # Errors
    /// If the query does not fit inside the universe.
    pub fn query_rect(&self, q: &RectQuery<D>) -> Result<QueryResult<D, V>, SfcError> {
        self.table.query_version(&self.version, q, None)
    }
}

/// Moves the ops at positions `run` of the curve-sorted permutation
/// `order` out of `slots`, as `(submission index, key, op)` in curve order
/// — the op stream both `apply_batch` schedules feed to [`apply_one`].
/// The permutation visits `slots` with a data-dependent
/// stride the hardware prefetcher cannot follow, so each step hints the
/// slot a few ops ahead into cache.
fn take_run<'a, const D: usize, V>(
    slots: &'a mut [Option<BatchOp<D, V>>],
    keys: &'a [u64],
    order: &'a [usize],
    run: Range<usize>,
) -> impl Iterator<Item = (usize, u64, BatchOp<D, V>)> + 'a {
    run.map(move |pos| {
        if let Some(&ahead) = order.get(pos + APPLY_PREFETCH_DISTANCE) {
            crate::prefetch::prefetch_read(&slots[ahead]);
        }
        let i = order[pos];
        (i, keys[i], slots[i].take().expect("each op applied once"))
    })
}

/// Applies one write to a shard backend, accumulating the record-count
/// delta and returning the displaced payload — the single op kernel
/// both `apply_batch` schedules share, so their semantics cannot drift
/// apart.
fn apply_one<const D: usize, V, B: Backend<Record<D, V>>>(
    backend: &mut B,
    key: u64,
    op: BatchOp<D, V>,
    delta: &mut i64,
) -> Option<V> {
    match op {
        BatchOp::Insert(point, value) => {
            backend.insert(key, Record { point, value });
            *delta += 1;
            None
        }
        BatchOp::Update(point, value) => {
            if let Some(rec) = backend.get_mut(key) {
                Some(std::mem::replace(&mut rec.value, value))
            } else {
                backend.insert(key, Record { point, value });
                *delta += 1;
                None
            }
        }
        BatchOp::Delete(_) => {
            let removed = backend.remove(key).map(|rec| rec.value);
            if removed.is_some() {
                *delta -= 1;
            }
            removed
        }
    }
}

/// Scans `ranges` of one shard, appending matches to `records`; one seek
/// per sub-range, pages/hits as reported by the backend. With `filter`,
/// records outside `q` (absorbed gap cells of a plan) are skipped.
fn scan_shard<const D: usize, V: Clone, B: Backend<Record<D, V>>>(
    backend: &B,
    ranges: &[(u64, u64)],
    q: &RectQuery<D>,
    filter: bool,
    records: &mut Vec<Record<D, V>>,
) -> Result<IoStats, SfcError> {
    let before = records.len();
    let stats = backend.scan_ranges(ranges, &mut |_, rec| {
        if filter {
            if q.contains(rec.point) {
                records.push(rec.clone());
            }
        } else {
            debug_assert!(q.contains(rec.point));
            records.push(rec.clone());
        }
    })?;
    Ok(IoStats {
        seeks: ranges.len() as u64,
        entries: (records.len() - before) as u64,
        ..stats
    })
}

#[cfg(test)]
#[path = "../tests/model/mod.rs"]
mod model;

#[cfg(test)]
mod tests {
    use super::model::Model;
    use super::*;
    use onion_core::Onion2D;

    fn dense_records(side: u32) -> Vec<(Point<2>, u32)> {
        let mut records = Vec::new();
        for x in 0..side {
            for y in 0..side {
                records.push((Point::new([x, y]), x * 1000 + y));
            }
        }
        records
    }

    /// A result's rows as `(point, value)` pairs, the model's shape.
    fn rows(res: &QueryResult<2, u32>) -> Vec<(Point<2>, u32)> {
        res.records.iter().map(|r| (r.point, r.value)).collect()
    }

    #[test]
    fn rows_match_the_model_at_every_shard_count() {
        let side = 16u32;
        let curve = Onion2D::new(side).unwrap();
        let records = dense_records(side);
        let model = Model::new(records.clone());
        for shards in [1usize, 2, 3, 4, 7] {
            let t = ShardedTable::build(curve, records.clone(), DiskModel::hdd(), shards).unwrap();
            assert_eq!(t.shard_count(), shards);
            assert_eq!(t.len(), 256);
            for q in [
                RectQuery::new([0, 0], [16, 16]).unwrap(),
                RectQuery::new([2, 3], [5, 4]).unwrap(),
                RectQuery::new([7, 7], [2, 2]).unwrap(),
                RectQuery::new([0, 15], [16, 1]).unwrap(),
            ] {
                let res = t.query_rect(&q, &QueryOptions::default()).unwrap();
                assert_eq!(rows(&res), model.query(&curve, &q), "shards={shards} {q:?}");
                // One seek per range; one shard scans exactly the paper's
                // clustering number, and shard boundaries only add ranges.
                let clusters = sfc_clustering::clustering_number(&curve, &q);
                assert_eq!(res.io.seeks, res.ranges_scanned);
                assert!(res.ranges_scanned >= clusters, "shards={shards} {q:?}");
                if shards == 1 {
                    assert_eq!(res.ranges_scanned, clusters, "{q:?}");
                }
                assert_eq!(res.io.entries, q.volume());
                assert!(res.io.pages >= res.io.seeks, "each range touches >= 1 page");
                assert_eq!(res.io.cache_hits, 0, "memory backend has no pool");
                assert!(res.io.time_us(t.model()) > 0.0);
            }
        }
        // A sparse table returns just the stored subset of the rect.
        let sparse = vec![
            (Point::new([0, 0]), 1u32),
            (Point::new([5, 5]), 2),
            (Point::new([15, 15]), 3),
            (Point::new([5, 6]), 4),
        ];
        let q = RectQuery::new([4, 4], [4, 4]).unwrap();
        for shards in [1usize, 3] {
            let t = ShardedTable::build(curve, sparse.clone(), DiskModel::ssd(), shards).unwrap();
            let res = t.query_rect(&q, &QueryOptions::default()).unwrap();
            assert_eq!(rows(&res), Model::new(sparse.clone()).query(&curve, &q));
            assert_eq!(res.records.len(), 2);
        }
    }

    #[test]
    fn batch_matches_individual_sharded_queries() {
        let side = 16u32;
        let queries = [
            RectQuery::new([0, 0], [16, 16]).unwrap(),
            RectQuery::new([5, 1], [4, 9]).unwrap(),
            RectQuery::new([15, 15], [1, 1]).unwrap(),
        ];
        for shards in [1usize, 4] {
            let sharded = ShardedTable::build(
                Onion2D::new(side).unwrap(),
                dense_records(side),
                DiskModel::ssd(),
                shards,
            )
            .unwrap();
            let batch = sharded.query_rect_batch(&queries).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (q, res) in queries.iter().zip(&batch) {
                let single = sharded.query_rect(q, &QueryOptions::default()).unwrap();
                assert_eq!(res.records, single.records, "{q:?}");
                assert_eq!(res.io, single.io, "{q:?}");
                assert_eq!(res.shard_io, single.shard_io, "{q:?}");
                assert_eq!(res.ranges_scanned, single.ranges_scanned, "{q:?}");
            }
            // A bad query anywhere in the batch fails the whole batch.
            assert!(sharded
                .query_rect_batch(&[queries[1], RectQuery::new([10, 10], [10, 10]).unwrap()])
                .is_err());
        }
    }

    #[test]
    fn writes_route_to_owning_shard() {
        let side = 16u32;
        let curve = Onion2D::new(side).unwrap();
        assert!(
            ShardedTable::build(
                curve,
                vec![(Point::new([16, 0]), 0u32)],
                DiskModel::ssd(),
                2
            )
            .is_err(),
            "out-of-universe builds are rejected"
        );
        for shards in [1usize, 4] {
            let t: ShardedTable<Onion2D, u32, 2> =
                ShardedTable::build(curve, Vec::new(), DiskModel::ssd(), shards).unwrap();
            assert!(t.is_empty());
            // One write per batch, so each routes on its own.
            let write = |op| t.apply_batch(vec![op]).unwrap().pop().unwrap();
            // Reverse submission order: incremental inserts must land
            // exactly where a bulk build would put them.
            let mut model = Model::new(Vec::new());
            for (p, v) in dense_records(side).into_iter().rev() {
                assert_eq!(write(BatchOp::Insert(p, v)), None);
                model.insert(p, v);
            }
            assert_eq!(t.len(), model.len());
            let all = RectQuery::new([0, 0], [side, side]).unwrap();
            assert_eq!(
                rows(&t.query_rect(&all, &QueryOptions::default()).unwrap()),
                model.query(&curve, &all)
            );
            let sizes = t.shard_sizes();
            assert_eq!(sizes.len(), shards);
            assert!(
                sizes.iter().all(|&s| s == 256 / shards),
                "dense data balances: {sizes:?}"
            );
            let p = Point::new([3, 9]);
            assert_eq!(t.get(p).unwrap().map(|g| g.cloned()), model.get(p));
            assert_eq!(model.get(p), Some(3009));
            let update = write(BatchOp::Update(p, 1));
            assert_eq!(update, model.update(p, 1), "update returns old");
            assert_eq!(t.get(p).unwrap().map(|g| g.value), model.get(p));
            assert_eq!(write(BatchOp::Delete(p)), model.delete(p));
            assert!(t.get(p).unwrap().is_none());
            assert_eq!(write(BatchOp::Delete(p)), None, "second delete is a no-op");
            assert_eq!(t.len(), model.len());
            // Out-of-universe writes are rejected and change nothing.
            let outside = Point::new([16, 0]);
            for op in [
                BatchOp::Insert(outside, 0),
                BatchOp::Delete(outside),
                BatchOp::Update(outside, 0),
            ] {
                assert!(t.apply_batch(vec![op]).is_err());
            }
            assert_eq!(t.len(), model.len());
            assert_eq!(
                t.get(Point::new([20, 0])).err(),
                Some(SfcError::PointOutOfBounds {
                    point: "(20, 0)".into(),
                    side: 16
                })
            );
            // Queries reflect the writes.
            let q = RectQuery::new([2, 8], [4, 4]).unwrap();
            assert_eq!(
                rows(&t.query_rect(&q, &QueryOptions::default()).unwrap()),
                model.query(&curve, &q)
            );
            // Update on a vacant cell inserts.
            assert_eq!(write(BatchOp::Update(p, 42)), model.update(p, 42));
            assert_eq!(t.get(p).unwrap().map(|g| g.value), Some(42));
            assert_eq!(t.len(), 256);
        }
    }

    #[test]
    fn per_shard_stats_sum_to_merged_io() {
        let side = 32u32;
        let t = ShardedTable::build(
            Onion2D::new(side).unwrap(),
            dense_records(side),
            DiskModel::hdd(),
            5,
        )
        .unwrap();
        let q = RectQuery::new([1, 1], [30, 30]).unwrap();
        let res = t.query_rect(&q, &QueryOptions::default()).unwrap();
        assert_eq!(res.shard_io.len(), 5);
        let mut sum = IoStats::default();
        for s in &res.shard_io {
            sum.absorb(*s);
        }
        assert_eq!(sum, res.io);
        assert!(res.shard_io.iter().filter(|s| s.seeks > 0).count() > 1);
        // Critical path (max shard) is below the serial sum for a query
        // spanning multiple shards.
        let max = res
            .shard_io
            .iter()
            .map(|s| s.time_us(t.model()))
            .fold(0.0f64, f64::max);
        assert!(max < res.io.time_us(t.model()));
    }

    #[test]
    fn apply_batch_matches_sequential_writes() {
        let side = 16u32;
        let curve = Onion2D::new(side).unwrap();
        let batched: ShardedTable<Onion2D, u32, 2> =
            ShardedTable::build(curve, Vec::new(), DiskModel::ssd(), 4).unwrap();
        // A mixed batch in adversarial (reverse-curve-ish) submission
        // order, including same-point sequences whose order matters.
        let mut ops: Vec<BatchOp<2, u32>> = Vec::new();
        for x in (0..side).rev() {
            for y in 0..side {
                ops.push(BatchOp::Insert(Point::new([x, y]), x * 100 + y));
            }
        }
        let p = Point::new([5, 5]);
        ops.push(BatchOp::Update(p, 7777));
        ops.push(BatchOp::Delete(p));
        ops.push(BatchOp::Insert(p, 42));
        ops.push(BatchOp::Delete(Point::new([2, 2])));
        ops.push(BatchOp::Delete(Point::new([2, 2]))); // second is a no-op

        // The model applies the same writes one by one, in submission
        // order.
        let mut sequential = Model::new(Vec::new());
        let expected: Vec<Option<u32>> = ops
            .iter()
            .map(|op| match *op {
                BatchOp::Insert(p, v) => {
                    sequential.insert(p, v);
                    None
                }
                BatchOp::Update(p, v) => sequential.update(p, v),
                BatchOp::Delete(p) => sequential.delete(p),
            })
            .collect();
        let results = batched.apply_batch(ops).unwrap();
        assert_eq!(results, expected, "displaced payloads in submission order");
        assert_eq!(batched.len(), sequential.len());
        let q = RectQuery::new([0, 0], [side, side]).unwrap();
        assert_eq!(
            rows(&batched.query_rect(&q, &QueryOptions::default()).unwrap()),
            sequential.query(&curve, &q)
        );
    }

    #[test]
    fn apply_batch_validates_before_applying_anything() {
        let t: ShardedTable<Onion2D, u32, 2> =
            ShardedTable::build(Onion2D::new(8).unwrap(), Vec::new(), DiskModel::ssd(), 2).unwrap();
        let ops = vec![
            BatchOp::Insert(Point::new([1, 1]), 1),
            BatchOp::Insert(Point::new([8, 0]), 2), // out of bounds
        ];
        assert!(t.apply_batch(ops).is_err());
        assert!(t.is_empty(), "no partial application");
        assert_eq!(t.apply_batch(Vec::new()).unwrap(), Vec::new());
    }

    #[test]
    fn batched_writes_interleave_with_concurrent_readers() {
        let side = 32u32;
        let t = ShardedTable::build(
            Onion2D::new(side).unwrap(),
            dense_records(side),
            DiskModel::ssd(),
            4,
        )
        .unwrap();
        let q = RectQuery::new([0, 0], [side, side]).unwrap();
        let total = u64::from(side) * u64::from(side);
        std::thread::scope(|s| {
            // Writers toggle a disjoint set of "extra" cells via
            // update/delete pairs; readers continuously scan. Every
            // observed result set size must stay within the toggled band,
            // and per-shard locking must never deadlock or lose records.
            let writer = s.spawn(|| {
                for round in 0..20u32 {
                    let ops: Vec<BatchOp<2, u32>> = (0..side)
                        .map(|x| BatchOp::Update(Point::new([x, x]), 900_000 + round))
                        .collect();
                    t.apply_batch(ops).unwrap();
                }
            });
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let res = t.query_rect(&q, &QueryOptions::default()).unwrap();
                        assert_eq!(res.records.len() as u64, total, "no torn reads of a shard");
                    }
                });
            }
            writer.join().unwrap();
        });
        // Updates replaced in place: same cardinality, new diagonal values.
        assert_eq!(t.len() as u64, total);
        assert_eq!(
            t.get(Point::new([3, 3])).unwrap().map(|g| g.cloned()),
            Some(900_019)
        );
    }

    #[test]
    fn version_epoch_bumps_once_per_batch_and_window_tracks_it() {
        let mut t = ShardedTable::build(
            Onion2D::new(8).unwrap(),
            dense_records(8),
            DiskModel::ssd(),
            3,
        )
        .unwrap();
        t.set_retention(RetentionPolicy {
            epochs: 2,
            bytes: u64::MAX,
        });
        assert_eq!(t.version_epoch(), 0);
        assert_eq!(t.retained_epochs(), vec![0], "only the live version");
        for e in 1..=4u64 {
            t.apply_batch(vec![BatchOp::Update(Point::new([0, 0]), e as u32)])
                .unwrap();
            assert_eq!(t.version_epoch(), e);
        }
        // Window holds the last `epochs` superseded versions plus the
        // current one, oldest evicted first.
        assert_eq!(t.retained_epochs(), vec![2, 3, 4]);
        assert!(t.snapshot_at(4).is_some(), "current epoch always pinnable");
        assert!(t.snapshot_at(3).is_some());
        assert!(t.snapshot_at(1).is_none(), "evicted");
        assert!(t.snapshot_at(9).is_none(), "never applied");
    }

    #[test]
    fn snapshot_at_answers_the_stamped_epoch() {
        let t = ShardedTable::build(
            Onion2D::new(8).unwrap(),
            dense_records(8),
            DiskModel::ssd(),
            2,
        )
        .unwrap();
        let p = Point::new([5, 5]);
        t.apply_batch(vec![BatchOp::Update(p, 111)]).unwrap();
        t.apply_batch(vec![BatchOp::Update(p, 222)]).unwrap();
        let q = RectQuery::new([5, 5], [1, 1]).unwrap();
        let old = t.snapshot_at(1).expect("retained");
        assert_eq!(old.epoch(), 1);
        assert_eq!(old.query_rect(&q).unwrap().records[0].value, 111);
        assert_eq!(
            t.query_rect(&q, &QueryOptions::default()).unwrap().records[0].value,
            222
        );
        // The live table's history never moves underneath a snapshot.
        t.apply_batch(vec![BatchOp::Delete(p)]).unwrap();
        assert_eq!(old.query_rect(&q).unwrap().records[0].value, 111);
    }

    #[test]
    fn byte_bound_evicts_before_epoch_bound() {
        let mut t = ShardedTable::build(
            Onion2D::new(8).unwrap(),
            dense_records(8),
            DiskModel::ssd(),
            2,
        )
        .unwrap();
        // Far below one 64-record version's estimated footprint: every
        // superseded version is evicted immediately despite `epochs: 8`.
        t.set_retention(RetentionPolicy {
            epochs: 8,
            bytes: 16,
        });
        for e in 1..=3u64 {
            t.apply_batch(vec![BatchOp::Update(Point::new([1, 1]), e as u32)])
                .unwrap();
        }
        assert_eq!(
            t.retained_epochs(),
            vec![3],
            "byte bound drained the window"
        );
        assert!(t.snapshot_at(3).is_some(), "current version unaffected");
    }

    #[test]
    fn set_retention_shrinks_a_populated_window() {
        let mut t = ShardedTable::build(
            Onion2D::new(8).unwrap(),
            dense_records(8),
            DiskModel::ssd(),
            2,
        )
        .unwrap();
        let p = Point::new([0, 0]);
        for e in 1..=6u32 {
            t.apply_batch(vec![BatchOp::Update(p, e)]).unwrap();
        }
        assert_eq!(t.retained_epochs(), vec![0, 1, 2, 3, 4, 5, 6]);
        // The epoch bound drops the oldest versions first.
        t.set_retention(RetentionPolicy {
            epochs: 3,
            bytes: u64::MAX,
        });
        assert_eq!(t.retained_epochs(), vec![3, 4, 5, 6]);
        // Every version holds the 64 records of the 8x8 grid.
        let version_bytes =
            64 * (std::mem::size_of::<Record<2, u32>>() + std::mem::size_of::<u64>()) as u64;
        t.set_retention(RetentionPolicy {
            epochs: 3,
            bytes: 2 * version_bytes,
        });
        assert_eq!(
            t.retained_epochs(),
            vec![4, 5, 6],
            "byte bound, oldest first"
        );
        t.set_retention(RetentionPolicy {
            epochs: 3,
            bytes: 0,
        });
        assert_eq!(t.retained_epochs(), vec![6], "the current version stays");
        assert!(t.snapshot_at(5).is_none());
        let q = RectQuery::new([0, 0], [1, 1]).unwrap();
        let current = t.snapshot_at(6).expect("current epoch always pinnable");
        assert_eq!(current.query_rect(&q).unwrap().records[0].value, 6);
    }

    #[test]
    fn knn_matches_bruteforce() {
        for shards in [1usize, 3] {
            let t = ShardedTable::build(
                Onion2D::new(16).unwrap(),
                dense_records(16),
                DiskModel::hdd(),
                shards,
            )
            .unwrap();
            for center in [Point::new([0, 0]), Point::new([8, 8]), Point::new([15, 3])] {
                for k in [1usize, 4, 10] {
                    let got: Vec<u64> = t
                        .knn(center, k)
                        .unwrap()
                        .iter()
                        .map(|&(_, d2)| d2)
                        .collect();
                    // Brute-force distances over the dense grid.
                    let mut all: Vec<u64> = dense_records(16)
                        .iter()
                        .map(|(p, _)| {
                            let dx = u64::from(p.0[0].abs_diff(center.0[0]));
                            let dy = u64::from(p.0[1].abs_diff(center.0[1]));
                            dx * dx + dy * dy
                        })
                        .collect();
                    all.sort_unstable();
                    all.truncate(k);
                    assert_eq!(got, all, "shards {shards} center {center} k {k}");
                }
            }
        }
    }

    #[test]
    fn knn_on_sparse_table() {
        let records = vec![
            (Point::new([1, 1]), 0u32),
            (Point::new([60, 60]), 1),
            (Point::new([10, 12]), 2),
            (Point::new([11, 12]), 3),
        ];
        for shards in [1usize, 4] {
            let t = ShardedTable::build(
                Onion2D::new(64).unwrap(),
                records.clone(),
                DiskModel::ssd(),
                shards,
            )
            .unwrap();
            let got = t.knn(Point::new([10, 10]), 2).unwrap();
            let vals: Vec<u32> = got.iter().map(|(r, _)| r.value).collect();
            assert_eq!(vals, vec![2, 3], "shards {shards}");
            // Asking for more neighbors than records returns all of them.
            assert_eq!(t.knn(Point::new([10, 10]), 99).unwrap().len(), 4);
            // k = 0 is a no-op.
            assert!(t.knn(Point::new([1, 1]), 0).unwrap().is_empty());
            // Out-of-bounds centers are rejected.
            assert!(t.knn(Point::new([64, 0]), 1).is_err());
        }
    }
}
