//! Durable serving: crash recovery riding the epoch write path.
//!
//! A durable [`Engine`] puts the PR-3 epoch machinery on disk. The unit
//! of logging is exactly the unit of application — the epoch batch — so
//! the commit protocol is one rule deep:
//!
//! 1. **Commit:** [`Engine::flush`] encodes each staged batch as one
//!    WAL frame payload (into a reused buffer — steady-state commits
//!    allocate nothing) and queues it for the next *group sync*, which
//!    frames, checksums and appends every queued payload with one write
//!    ([`Wal::append_payloads_unsynced`], the log's one appender) and
//!    fsyncs once. Whoever waits for durability runs the group sync on
//!    its own thread when none is running — an explicit `flush`, a
//!    checkpoint, a replication stream, a commit at the pipeline
//!    window's edge — so a lone flusher pays one fsync and no hand-off;
//!    a background sync thread runs it only when the backlog nears the
//!    window, and drains the queue on shutdown. The **commit point is
//!    unchanged**: an explicit `flush` returns `Ok` only once every epoch
//!    it covers is appended *and* fsynced — the synced append — and
//!    auto-flushed epochs become durable in order, bounded by
//!    [`CommitPolicy::max_epochs`](crate::CommitPolicy::max_epochs)
//!    frames of lag (depth 0, [`CommitPolicy::synchronous`](crate::CommitPolicy),
//!    makes every commit wait for its own sync before the epoch applies).
//!    Concurrent flushers **group-commit**: one leader stages everything
//!    admitted so far and everyone shares its epochs and syncs. Flush
//!    leadership is the one serializer of the write path: only the
//!    leader commits, applies, publishes and checkpoints, so commits are
//!    totally ordered without a second lock.
//! 2. **Recover:** [`Engine::open`] rebuilds the table from the last
//!    snapshot (entries in curve order, re-cut at this table's shard
//!    boundaries) and re-applies every WAL frame with a later epoch,
//!    coalesced into one batch through the same
//!    [`ShardedTable::apply_batch`] path live traffic uses — which
//!    applies per-shard slices in parallel, so replay scales with shards.
//!    Replay is deterministic across shard counts — the batch is sorted
//!    by curve key and same-key ops keep submission order (also across
//!    frame boundaries, which is why coalescing frames is sound) — so a
//!    log written by a 3-shard engine recovers bit-identically into 1 or
//!    8 shards. The recovered table is stamped with the last replayed
//!    epoch, and the engine reads its epoch from the table, so the
//!    numbering flushes, subscriptions and time-travel reads use is the
//!    WAL's. Time-travel reads past the retention window re-read
//!    `snapshot + WAL prefix` through the same checksummed frame walker
//!    recovery uses: a damaged committed frame is an error, never a
//!    decoded wrong answer.
//! 3. **Compact:** [`Engine::checkpoint`] flushes, writes a
//!    point-in-time snapshot (atomic rename, fsynced), and truncates the
//!    log — absorbing any still-in-flight frame syncs, since the snapshot
//!    now carries their epochs. Epoch numbering continues across
//!    checkpoints and restarts.
//!
//! **Crash-consistency contract:** dropping (or killing) the process at
//! any instant recovers the state of an *epoch boundary* — the largest
//! prefix of flush-acknowledged epochs whose frames survived intact.
//! Pipelining preserves this shape: frames are appended in epoch order
//! and fsync covers file prefixes, so whatever subset of in-flight
//! frames reaches the disk is itself an epoch-boundary prefix. A torn
//! trailing frame (crash mid-append) is detected by length/checksum and
//! truncated; it never surfaces as a half-applied epoch. Writes that
//! were admitted ([`Response::Admitted`](crate::Response::Admitted)) but not yet
//! flushed are not covered — durability is acknowledged by `flush`, not
//! by admission or by the auto-flush cadence. Dropping the engine drains
//! the pipeline (a final fsync), so clean shutdown loses nothing. The
//! recovery proptests drive byte-offset truncation, multi-curve and
//! multi-shard reopening, and group-commit/pipelined-vs-synchronous
//! byte-identity of the log itself.
//!
//! If an append or fsync **fails**, the pipeline poisons itself, at any
//! depth: already-applied epochs past the failure stay served from
//! memory, but every further commit (and every explicit
//! `flush`/`checkpoint`, and every replication stream) returns the sync
//! error and [`EngineStats::flush_failures`](crate::EngineStats)
//! grows — the log device needs attention and the engine should be
//! reopened. The error surfaces at the next acknowledgement point, not
//! inside the (unacknowledged) auto-flush.
//!
//! Durability is strictly pay-as-you-go: an engine built with
//! [`Engine::new`] carries `None` state and its flush path is byte-for-
//! byte the in-memory one (a single `Option` test per epoch, no I/O, no
//! sync thread).

use crate::engine::{Engine, EngineConfig};
use onion_core::{SfcError, SpaceFillingCurve};
use sfc_index::wal::encode_epoch_payload_into;
use sfc_index::{
    read_snapshot, write_snapshot, Backend, BatchOp, DiskModel, FileBackend, PageStore, Record,
    ShardedTable, StoreConfig, StoreFactory, Wal, WalCodec,
};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// File name of the write-ahead log inside a durable engine's directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the snapshot inside a durable engine's directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Subdirectory holding a disk-resident engine's segment files (see
/// [`Engine::open_stored`]).
pub const SEGMENT_DIR: &str = "segments";

/// The commit pipeline's bookkeeping: the queue of encoded-but-unwritten
/// frame payloads, which epochs have been committed (`requested`) and
/// which are known durable (`synced`), whether a group sync is running,
/// plus the poison slot for a failed append or fsync.
struct SyncState {
    /// Encoded payloads handed off by `commit`, in epoch order, awaiting
    /// the next group sync. Commit touches neither the file nor the
    /// checksum: the write path pays one encode and one queue push per
    /// epoch, and the frame assembly (CRC included), the append and the
    /// fsync all happen in [`SyncShared::sync_group`].
    pending: std::collections::VecDeque<(u64, Vec<u8>)>,
    /// Recycled payload buffers: the steady-state pipeline allocates
    /// nothing.
    spare: Vec<Vec<u8>>,
    /// Highest epoch committed to the pipeline (queued or appended).
    requested: u64,
    /// Highest epoch whose frame is appended *and* fsync-confirmed.
    /// `synced == requested` means the pipeline is drained.
    synced: u64,
    /// Whether a group sync is running. At most one runs at a time: a
    /// thread that needs durability meanwhile waits for it on `done`.
    syncing: bool,
    /// The first fsync failure, kept permanently: a failed fsync leaves
    /// the kernel's view of earlier writes undefined, so the pipeline
    /// refuses further commits rather than guessing (reopen to recover).
    failed: Option<String>,
    /// Set by `Drop`: the sync thread drains outstanding work, then
    /// exits.
    shutdown: bool,
}

/// The commit pipeline: [`SyncState`] with its condvar pair, and the log
/// itself. `work` wakes the background sync thread; `done` wakes threads
/// waiting for `synced` to advance.
struct SyncShared {
    state: Mutex<SyncState>,
    work: Condvar,
    done: Condvar,
    /// The open log. Only [`Self::sync_group`] appends to it; rollbacks,
    /// checkpoint resets and re-reads lock it too.
    wal: Mutex<Wal>,
    /// A second handle to the log file, so a group's `sync_data` runs
    /// outside the `wal` lock: `wal_len` readers and re-reads stay
    /// responsive during the I/O.
    file: File,
    /// Unsynced-frame count at which the sync thread acts without being
    /// asked (one below the pipeline window, so commits rarely wait at
    /// its edge).
    trigger: u64,
}

impl SyncShared {
    fn new(wal: Wal, recovered_epoch: u64, trigger: u64) -> Result<Self, SfcError> {
        Ok(SyncShared {
            state: Mutex::new(SyncState {
                pending: std::collections::VecDeque::new(),
                spare: Vec::new(),
                requested: recovered_epoch,
                synced: recovered_epoch,
                syncing: false,
                failed: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            file: wal.sync_handle()?,
            wal: Mutex::new(wal),
            trigger,
        })
    }

    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().expect("WAL sync state poisoned")
    }

    fn lock_wal(&self) -> MutexGuard<'_, Wal> {
        self.wal.lock().expect("WAL handle poisoned")
    }

    /// A recycled payload buffer for the next commit to encode into.
    fn payload_buf(&self) -> Vec<u8> {
        self.lock().spare.pop().unwrap_or_default()
    }

    /// Queues `epoch`'s encoded payload for the next group sync, waking
    /// the sync thread only when the backlog reaches its trigger — an
    /// unconditional wakeup would cost a context switch per epoch just
    /// for the thread to decide to keep waiting. A poisoned pipeline
    /// refuses the epoch.
    fn enqueue(&self, epoch: u64, payload: Vec<u8>) -> Result<(), SfcError> {
        let mut st = self.lock();
        if let Some(e) = &st.failed {
            return Err(pipeline_poisoned(e));
        }
        st.pending.push_back((epoch, payload));
        st.requested = st.requested.max(epoch);
        if st.requested - st.synced >= self.trigger {
            self.work.notify_all();
        }
        Ok(())
    }

    /// Marks epochs up to `epoch` durable without an fsync of our own —
    /// used by checkpoints, whose snapshot supersedes the log, making any
    /// still-queued payloads obsolete. Absorbing also clears a poisoned
    /// pipeline: the caller has just made every applied epoch durable
    /// through an independent, fully synced channel (the snapshot), so
    /// refusing further commits would contradict the durability it
    /// re-established.
    fn absorb(&self, epoch: u64) {
        let mut st = self.lock();
        st.pending.clear();
        st.requested = st.requested.max(epoch);
        st.synced = st.synced.max(epoch);
        st.failed = None;
        self.done.notify_all();
    }

    /// Blocks until every epoch up to `epoch` is durable, or the pipeline
    /// is poisoned. Whoever waits syncs: when no group is running, the
    /// caller runs [`Self::sync_group`] on its own thread, and the group
    /// covers every epoch committed so far, so a lone flusher pays its
    /// fsync with no hand-off; otherwise it waits for the running group
    /// and checks again. Epochs past the last committed one at the call
    /// (or retracted while waiting) are not waited for — nothing would
    /// ever make them durable.
    fn wait_synced(&self, epoch: u64) -> Result<(), SfcError> {
        let mut st = self.lock();
        let target = epoch.min(st.requested);
        loop {
            if st.synced >= target.min(st.requested) {
                return Ok(());
            }
            if let Some(e) = &st.failed {
                return Err(pipeline_poisoned(e));
            }
            st = if st.syncing {
                self.done.wait(st).expect("WAL sync state poisoned")
            } else {
                self.sync_group(st)
            };
        }
    }

    /// [`Self::wait_synced`] on every epoch committed so far: when it
    /// returns, every committed frame is appended and synced (or the
    /// pipeline is poisoned, and no group runs any more).
    fn quiesce(&self) -> Result<(), SfcError> {
        self.wait_synced(u64::MAX)
    }

    /// One group commit, the one place frames reach the disk: drains the
    /// queue, frames and appends every payload with one write
    /// ([`Wal::append_payloads_unsynced`], the log's one appender), then
    /// syncs once outside both locks — fsync is a file-prefix barrier, so
    /// one sync confirms the whole group (group commit at the disk). It
    /// publishes `synced`, or the poison on failure, and recycles the
    /// payload buffers. Takes the state guard with no group running and
    /// returns it re-acquired; `syncing` is set across the I/O.
    fn sync_group<'a>(&'a self, mut st: MutexGuard<'a, SyncState>) -> MutexGuard<'a, SyncState> {
        st.syncing = true;
        let target = st.requested;
        let group: Vec<(u64, Vec<u8>)> = st.pending.drain(..).collect();
        drop(st);
        // Its own statement, so the WAL guard drops before the sync.
        let appended = self.lock_wal().append_payloads_unsynced(&group);
        let result = appended
            .map_err(|e| format!("appending epoch group: {e}"))
            .and_then(|()| {
                self.file
                    .sync_data()
                    .map_err(|e| format!("syncing WAL frames: {e}"))
            });
        let mut st = self.lock();
        st.syncing = false;
        match result {
            Ok(()) => {
                st.synced = st.synced.max(target);
                for (_, mut buf) in group {
                    buf.clear();
                    st.spare.push(buf);
                }
            }
            Err(e) => st.failed = Some(e),
        }
        self.done.notify_all();
        // The sync thread may have found this group running and gone back
        // to sleep on a backlog that is still due.
        if st.requested - st.synced >= self.trigger {
            self.work.notify_all();
        }
        st
    }

    /// Clamps both watermarks back to `epoch` and drops any queued
    /// payloads above it — the rollback path, after the frame above
    /// `epoch` has been truncated away (or never landed).
    fn retract(&self, epoch: u64) {
        let mut st = self.lock();
        st.pending.retain(|&(e, _)| e <= epoch);
        st.requested = st.requested.min(epoch);
        st.synced = st.synced.min(epoch);
        self.done.notify_all();
    }
}

/// Formats the permanent poison error of a failed pipeline fsync.
fn pipeline_poisoned(cause: &str) -> SfcError {
    SfcError::Storage {
        context: format!(
            "WAL sync pipeline failed and refuses further commits \
             (reopen the engine to recover): {cause}"
        ),
    }
}

/// The sync thread, the pipeline's background half: it keeps
/// auto-flushed epochs durable when nobody waits for them, running
/// [`SyncShared::sync_group`] once the backlog reaches `trigger` frames
/// (so commits rarely reach the window's edge) and draining what is
/// left on shutdown, so dropping an engine loses nothing. Threads that
/// wait for durability sync for themselves.
fn run_syncer(shared: &SyncShared) {
    let mut st = shared.lock();
    loop {
        let backlog = st.requested - st.synced;
        if !st.syncing
            && st.failed.is_none()
            && backlog > 0
            && (backlog >= shared.trigger || st.shutdown)
        {
            st = shared.sync_group(st);
        } else if st.shutdown && !st.syncing {
            return;
        } else {
            st = shared.work.wait(st).expect("WAL sync state poisoned");
        }
    }
}

/// The durable half of an engine: the directory it lives in and the
/// commit pipeline (which owns the open WAL). It holds no typed state:
/// the methods that encode or decode frames are generic over the
/// engine's payload codec.
pub(crate) struct Durability {
    dir: PathBuf,
    sync: Arc<SyncShared>,
    syncer: Option<JoinHandle<()>>,
    /// [`CommitPolicy::max_epochs`](crate::CommitPolicy::max_epochs):
    /// pipeline depth; `0` = every commit waits for its own sync.
    depth: usize,
}

impl Durability {
    /// Commits one epoch frame. Called only by the flush leader, so
    /// commits are totally ordered and epochs strictly increase.
    ///
    /// The payload is encoded (into a recycled buffer — no allocation,
    /// no checksum, no syscall on this thread) and queued for the next
    /// group sync, which frames, appends and fsyncs it with every other
    /// queued epoch, in epoch order. Then the call waits until at most
    /// `depth` epochs are unsynced, running the group itself if none is
    /// running — so depth 0 returns only once this very epoch is
    /// durable, and a positive depth blocks only at the window's edge.
    pub(crate) fn commit<const D: usize, V: WalCodec>(
        &self,
        epoch: u64,
        ops: &[BatchOp<D, V>],
    ) -> Result<(), SfcError> {
        let mut payload = self.sync.payload_buf();
        encode_epoch_payload_into(epoch, ops, &mut payload);
        self.sync.enqueue(epoch, payload)?;
        self.sync
            .wait_synced(epoch.saturating_sub(self.depth as u64))
    }

    /// Blocks until every committed epoch up to `epoch` is
    /// fsync-confirmed — the commit point explicit flushes acknowledge —
    /// running the group sync on this thread when none is running.
    pub(crate) fn wait_durable(&self, epoch: u64) -> Result<(), SfcError> {
        self.sync.wait_synced(epoch)
    }

    /// Highest fsync-confirmed epoch.
    pub(crate) fn synced_epoch(&self) -> u64 {
        self.sync.lock().synced
    }

    /// Un-commits `epoch` — the frame [`Self::commit`] just wrote (or
    /// queued) — when the in-memory apply fails after a successful
    /// commit, keeping log and table in lockstep. Quiesces the pipeline
    /// first (whatever its outcome) so the truncation cannot race an
    /// fsync of the very frame being removed, and truncates only if the
    /// frame actually landed: if the pipeline poisoned before appending
    /// it (a double-fault — apply *and* WAL I/O failing), the log
    /// already ends at an older, still-acknowledged frame, which must
    /// not be cut away.
    pub(crate) fn rollback_last(&self, epoch: u64) -> Result<(), SfcError> {
        let _ = self.sync.quiesce();
        let mut wal = self.sync.lock_wal();
        if wal.last_epoch() == epoch {
            wal.rollback_last()?;
        }
        self.sync.retract(wal.last_epoch());
        Ok(())
    }

    /// Reconstructs the raw material of epoch `epoch`'s state from disk:
    /// the last snapshot's entries plus every WAL frame in
    /// `(snapshot_epoch, epoch]`, concatenated in commit order — the cold
    /// half of [`Engine::query_as_of`](crate::Engine::query_as_of), taken
    /// when the retention window no longer holds the epoch in memory.
    ///
    /// Returns `None` when the log can no longer reach that far back: a
    /// checkpoint whose snapshot is *newer* than `epoch` has absorbed and
    /// truncated the frames that led up to it.
    ///
    /// Waits for the sync pipeline first so every committed frame is
    /// physically appended (a poisoned pipeline fails the read: frames
    /// it lost would silently drop epochs from the replay), then holds
    /// the WAL mutex across both reads — a concurrent checkpoint cannot
    /// truncate frames between the snapshot read and the prefix read.
    pub(crate) fn historical_state<const D: usize, V: WalCodec>(
        &self,
        epoch: u64,
    ) -> Result<HistoricalState<D, V>, SfcError> {
        self.sync.quiesce()?;
        let mut wal = self.sync.lock_wal();
        let (snapshot_epoch, entries) =
            read_snapshot::<D, V>(&self.dir.join(SNAPSHOT_FILE))?.unwrap_or_default();
        if snapshot_epoch > epoch {
            return Ok(None);
        }
        let ops = wal
            .read_frames::<D, V>()?
            .into_iter()
            .filter(|f| f.epoch > snapshot_epoch && f.epoch <= epoch)
            .flat_map(|f| f.ops)
            .collect();
        Ok(Some((entries, ops)))
    }

    /// Reads every committed WAL frame with `epoch > from_excl`, in
    /// commit order — the catch-up half of epoch replication: a replica
    /// that subscribed at epoch `e` fetches `frames_since(e)` once, then
    /// switches to the live feed.
    ///
    /// Waits for the sync pipeline first so every committed frame is
    /// physically appended before the read (a poisoned pipeline fails
    /// it). Frames a checkpoint has already truncated are gone; callers
    /// that need deeper history must bootstrap from a snapshot instead.
    pub(crate) fn frames_since<const D: usize, V: WalCodec>(
        &self,
        from_excl: u64,
    ) -> Result<Vec<sfc_index::EpochFrame<D, V>>, SfcError> {
        self.sync.quiesce()?;
        let mut frames = self.sync.lock_wal().read_frames::<D, V>()?;
        // The log's oldest frame bounds how far back catch-up reaches:
        // resuming after `from_excl` needs frame `from_excl + 1` onward.
        // If a checkpoint truncated past that, say so with the horizon
        // rather than silently replaying a gapped history.
        if let Some(first) = frames.first() {
            if from_excl + 1 < first.epoch {
                return Err(SfcError::EpochTruncated {
                    requested: from_excl,
                    horizon: first.epoch - 1,
                });
            }
        }
        frames.retain(|f| f.epoch > from_excl);
        Ok(frames)
    }
}

/// What [`Durability::historical_state`] yields: snapshot entries plus
/// the WAL-prefix ops that bring them to the requested epoch (`None` if
/// a checkpoint already absorbed that history).
pub(crate) type HistoricalState<const D: usize, V> =
    Option<(Vec<(u64, Record<D, V>)>, Vec<BatchOp<D, V>>)>;

impl Drop for Durability {
    fn drop(&mut self) {
        if let Some(handle) = self.syncer.take() {
            if let Ok(mut st) = self.sync.state.lock() {
                st.shutdown = true;
            }
            self.sync.work.notify_all();
            let _ = handle.join();
        }
    }
}

impl<const D: usize, C, V> Engine<C, V, D>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
{
    /// Opens (or creates) a durable engine over in-memory shard backends
    /// at `dir`: restores the snapshot if one exists, replays the WAL
    /// suffix, and leaves the log open for committing future epochs.
    /// The state recovered is exactly the last acknowledged epoch
    /// boundary (see the [module docs](crate::durable)).
    ///
    /// `curve` must be the curve the directory was written with: curve
    /// keys are persisted, not re-derived. `shard_count` is free to
    /// differ from the writing engine's — recovery re-partitions.
    ///
    /// # Errors
    /// On I/O failure, if another live engine holds this directory's
    /// WAL (an OS advisory lock, released automatically if that process
    /// dies), on a corrupt snapshot or mistyped WAL, or on persisted
    /// keys that do not fit `curve`'s universe.
    ///
    /// # Panics
    /// If `shard_count` is zero.
    pub fn open(
        dir: impl AsRef<Path>,
        curve: C,
        model: DiskModel,
        shard_count: usize,
        config: EngineConfig,
    ) -> Result<Self, SfcError> {
        let table = ShardedTable::build(curve, Vec::new(), model, shard_count)?;
        Self::open_with(dir.as_ref(), table, config)
    }
}

impl<const D: usize, C, V> Engine<C, V, D, FileBackend<Record<D, V>>>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
    Record<D, V>: WalCodec,
{
    /// [`Engine::open`] over genuinely disk-resident shard backends: each
    /// shard keeps its records in an immutable segment file under
    /// `dir/segments/`, rebuilt from `snapshot + WAL suffix` on open and
    /// re-materialized by [`Engine::checkpoint`] (which compacts the
    /// shards' write overlays into fresh segments after truncating the
    /// log). Queries report leaf-cache hits and the measured
    /// `real_reads` / `real_seeks`.
    ///
    /// # Errors
    /// As for [`Engine::open`], plus segment build I/O failures.
    ///
    /// # Panics
    /// If `shard_count` is zero.
    pub fn open_stored(
        dir: impl AsRef<Path>,
        curve: C,
        model: DiskModel,
        shard_count: usize,
        store: StoreConfig,
        config: EngineConfig,
    ) -> Result<Self, SfcError> {
        let dir = dir.as_ref();
        let table = ShardedTable::build_stored(
            curve,
            Vec::new(),
            model,
            shard_count,
            &dir.join(SEGMENT_DIR),
            store,
        )?;
        Self::open_with(dir, table, config)
    }
}

impl<const D: usize, C, V, S> Engine<C, V, D, FileBackend<Record<D, V>, S>>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
    Record<D, V>: WalCodec,
    S: PageStore + 'static,
{
    /// [`Engine::open_stored`] with an explicit [`StoreFactory`] — the
    /// hook fault-injecting test stores ride in through: every page store
    /// the engine's segments ever open (including checkpoint-compacted
    /// generations) is produced by `factory`.
    ///
    /// # Errors
    /// As for [`Engine::open_stored`].
    ///
    /// # Panics
    /// If `shard_count` is zero.
    pub fn open_stored_with(
        dir: impl AsRef<Path>,
        curve: C,
        model: DiskModel,
        shard_count: usize,
        store: StoreConfig,
        factory: StoreFactory<S>,
        config: EngineConfig,
    ) -> Result<Self, SfcError> {
        let dir = dir.as_ref();
        let table = ShardedTable::build_stored_with(
            curve,
            Vec::new(),
            model,
            shard_count,
            &dir.join(SEGMENT_DIR),
            store,
            factory,
        )?;
        Self::open_with(dir, table, config)
    }
}

impl<const D: usize, C, V, B> Engine<C, V, D, B>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
    B: Backend<Record<D, V>> + Send + Sync,
{
    /// Shared recovery: restore `snapshot + WAL suffix` into the (empty)
    /// `table`, then wire the log into the engine's flush path.
    fn open_with(
        dir: &Path,
        table: ShardedTable<C, V, D, B>,
        config: EngineConfig,
    ) -> Result<Self, SfcError> {
        std::fs::create_dir_all(dir).map_err(|e| SfcError::Storage {
            context: format!("creating durable engine directory: {e}"),
        })?;
        let snapshot_epoch = match read_snapshot::<D, V>(&dir.join(SNAPSHOT_FILE))? {
            Some((epoch, entries)) => {
                table.restore_entries(entries)?;
                epoch
            }
            None => 0,
        };
        let (wal, frames) = Wal::open::<D, V>(&dir.join(WAL_FILE))?;
        // Coalesce the replayable frames into one batch through the live
        // apply path: `apply_batch` stable-sorts by curve key and keeps
        // same-key submission order across the concatenation, so one
        // parallel-applied batch lands on exactly the per-epoch state —
        // and replay cost scales with shards instead of frame count.
        let mut epoch = snapshot_epoch;
        let mut replay: Vec<BatchOp<D, V>> = Vec::new();
        for frame in frames {
            // Frames at or below the snapshot's epoch are stale: a crash
            // between snapshot publication and log truncation leaves
            // them behind, already absorbed by the snapshot.
            if frame.epoch <= snapshot_epoch {
                continue;
            }
            replay.extend(frame.ops);
            epoch = frame.epoch;
        }
        if !replay.is_empty() {
            table.apply_batch(replay)?;
        }
        // Act one frame before the window fills, so steady-state commits
        // rarely wait at its edge.
        let trigger = (config.commit.max_epochs as u64).saturating_sub(1).max(1);
        let sync = Arc::new(SyncShared::new(wal, epoch, trigger)?);
        // At depth 0 every commit waits for its own group, so no backlog
        // is ever left for a background thread: none to spawn or join.
        let syncer = if config.commit.max_epochs == 0 {
            None
        } else {
            let shared = Arc::clone(&sync);
            Some(
                std::thread::Builder::new()
                    .name("sfc-wal-sync".into())
                    .spawn(move || run_syncer(&shared))
                    .map_err(|e| SfcError::Storage {
                        context: format!("spawning WAL sync thread: {e}"),
                    })?,
            )
        };
        // Stamp the recovered table with the WAL's numbering: the engine
        // takes its epoch (and its feed's) from the table, so
        // post-recovery flushes continue the log seamlessly and
        // [`Engine::snapshot_at`] answers in WAL epochs.
        table.set_epoch(epoch);
        let mut engine = Engine::new(table, config);
        engine.durability = Some(Durability {
            dir: dir.to_path_buf(),
            sync,
            syncer,
            depth: config.commit.max_epochs,
        });
        Ok(engine)
    }

    /// Compacts the log into a snapshot: flushes pending writes, writes
    /// a point-in-time snapshot of the whole table in curve order
    /// (atomic temp-file + rename, fsynced), then truncates the WAL —
    /// absorbing any frame syncs still in flight, since the snapshot now
    /// carries their epochs. Returns the epoch the snapshot captures.
    /// Concurrent readers keep being served throughout; concurrent
    /// flushes wait at the commit queue.
    ///
    /// Crash-safe at every step: before the rename the old snapshot
    /// still pairs with the full log; after the rename but before the
    /// truncation, replay skips the frames the snapshot absorbed.
    ///
    /// # Errors
    /// If called on a non-durable engine, or on I/O failure.
    pub fn checkpoint(&self) -> Result<u64, SfcError> {
        // Refuse before flushing: an error from a misconfigured call
        // must not leave visible side effects (applied epochs).
        let Some(d) = &self.durability else {
            return Err(SfcError::Storage {
                context: "checkpoint called on a non-durable engine (use Engine::open)".into(),
            });
        };
        self.acquire_lead();
        let result = (|| {
            self.flush_as_leader()?;
            // Quiesce the pipeline before touching the file, so no group
            // sync can append a queued frame *after* the reset and
            // resurrect epochs the snapshot already absorbed. A poisoned
            // pipeline is no error here: the synced snapshot below makes
            // every applied epoch durable again, and `absorb` clears it.
            let _ = d.sync.quiesce();
            let epoch = self.epoch();
            write_snapshot(&d.dir.join(SNAPSHOT_FILE), epoch, self.table())?;
            d.sync.lock_wal().reset()?;
            // The snapshot (written and fsynced above) now carries every
            // epoch the truncated frames held: mark them durable.
            d.sync.absorb(epoch);
            // Fold each shard's write overlay into a fresh base segment
            // (a no-op for in-memory backends). Durability does not
            // depend on this: the snapshot above is the recovery source,
            // so a compaction failure leaves a consistent engine serving
            // the pre-compaction version — but the error is surfaced so
            // operators see the segment rewrite was skipped.
            self.table().compact_shards()?;
            Ok(epoch)
        })();
        self.finish_lead();
        result
    }

    /// Whether this engine commits epochs to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable engine's data directory (`None` for in-memory
    /// engines).
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Bytes of committed frames currently in the WAL (`None` for
    /// in-memory engines). After an explicit [`Engine::flush`] returns,
    /// everything up to this offset survives any crash — the
    /// observability hook the crash-point tests key on, and a practical
    /// "time to checkpoint?" signal. (Mid-pipeline, recently committed
    /// epochs may still sit in the commit queue, not yet counted
    /// here; compare [`Engine::durable_epoch`] with [`Engine::epoch`]
    /// for the lag.)
    pub fn wal_len(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.sync.lock_wal().len())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineConfig, Request, WAL_FILE};
    use onion_core::{Onion2D, Point, SfcError};
    use sfc_clustering::RectQuery;
    use sfc_index::{DiskModel, RetentionPolicy, WAL_MAGIC};
    use std::io::{Read, Seek, SeekFrom, Write};

    #[test]
    fn cold_as_of_refuses_a_damaged_committed_frame() {
        let dir = std::env::temp_dir().join(format!("sfc-durable-damage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // No retained versions: every past epoch is answered by replaying
        // `snapshot + WAL prefix`.
        let config = EngineConfig {
            retention: RetentionPolicy {
                epochs: 0,
                ..RetentionPolicy::default()
            },
            ..EngineConfig::default()
        };
        let engine: Engine<Onion2D, u64, 2> =
            Engine::open(&dir, Onion2D::new(8).unwrap(), DiskModel::ssd(), 2, config).unwrap();
        let p = Point::new([1, 1]);
        for value in 1..=2u64 {
            engine.execute(Request::Update(p, value)).unwrap();
            engine.flush().unwrap();
        }
        let q = RectQuery::new([0, 0], [8, 8]).unwrap();
        let as_of_1 = engine.query_as_of(1, &q).unwrap().records;
        assert_eq!(as_of_1.len(), 1);
        assert_eq!(as_of_1[0].value, 1);

        // Flip a byte of epoch 1's one op value (after the magic, the
        // frame header, the epoch, the op count, the tag and the point)
        // through a second handle, as a media fault would.
        let value_at = (WAL_MAGIC.len() + 8 + 8 + 4 + 1 + 2 * 4) as u64;
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        let mut byte = [0u8; 1];
        file.seek(SeekFrom::Start(value_at)).unwrap();
        file.read_exact(&mut byte).unwrap();
        assert_eq!(byte[0], 1, "epoch 1 wrote the value 1");
        file.seek(SeekFrom::Start(value_at)).unwrap();
        file.write_all(&[byte[0] ^ 0x40]).unwrap();
        drop(file);

        let err = engine.query_as_of(1, &q).unwrap_err();
        assert!(matches!(err, SfcError::Storage { .. }), "{err}");
        // The current epoch is still served from memory.
        assert_eq!(engine.query_as_of(2, &q).unwrap().records[0].value, 2);
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
