//! The engine itself: shared-reference op execution, the epoch write log,
//! and the planner wiring.

use crate::proto::{Request, Response};
use onion_core::{Point, SfcError, SpaceFillingCurve};
use sfc_clustering::RectQuery;
use sfc_index::{
    Backend, BatchOp, DiskModel, MemoryBackend, Planner, QueryPlan, QueryResult, Record,
    ShardedTable, WalCodec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, TryLockError};
use std::time::Duration;

/// A write's admission receipt: the acknowledgment that the op is in the
/// engine's log and will be applied by a later epoch
/// ([`Response::Admitted`]), identical for a remote client and a local
/// caller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Admitted {
    /// Epochs applied so far at admission time — a lower bound on the
    /// epoch that will apply this write (strictly greater than this;
    /// usually the next one, but an admission racing an in-flight flush
    /// whose batch was already staged lands in the epoch after that).
    pub epoch: u64,
}

impl sfc_index::WalCodec for Admitted {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
    }

    fn decode(cur: &mut sfc_index::WalCursor<'_>) -> Option<Self> {
        Some(Admitted {
            epoch: u64::decode(cur)?,
        })
    }
}

/// How epochs reach the write-ahead log: the pipelining knob of a
/// durable engine's flush path (ignored — zero cost — on in-memory
/// engines).
///
/// Concurrent `flush` callers coalesce behind one leadership lock: the
/// leader commits and applies everything admitted so far, and each
/// flusher that takes the lock after it finds its writes applied and
/// only waits for the sync that covers them. Every commit takes one
/// path: the epoch's payload joins a queue, and a group sync appends
/// every queued frame with one write and fsyncs once. Whoever waits for
/// durability runs that group on its own thread when none is running
/// (an explicit flush, a commit at the window's edge); a background
/// sync thread runs it when the backlog nears the window. The policy
/// sets that window:
/// [`max_epochs`](Self::max_epochs) is the **pipeline depth** — how
/// many committed-but-not-yet-fsynced epoch frames may be in flight
/// while the engine goes on encoding and applying later epochs. `0`
/// makes every commit wait for its own frame's sync before its epoch
/// applies (the synchronous reference for the byte-identity proptests
/// and the `engine/wal_commit_path` bench pair).
///
/// Whatever the policy, the **commit point is unchanged**: when an
/// explicit [`Engine::flush`] returns `Ok`, every epoch it covers has
/// been appended *and* fsynced. Pipelining only changes what happens
/// between auto-flush cadences, where durability was never acknowledged
/// to anyone; the crash contract (recovery = a prefix of
/// flush-acknowledged epochs) is untouched, and epochs become durable in
/// order, so recovery still always lands on an epoch-boundary prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitPolicy {
    /// Pipeline depth: epoch frames appended to the WAL but not yet
    /// fsync-confirmed while later epochs encode and apply. `0` =
    /// fully synchronous commits (append + fsync before the epoch
    /// applies).
    pub max_epochs: usize,
}

impl CommitPolicy {
    /// The synchronous reference: depth 0 of the one commit path, so
    /// every epoch frame is appended and fsynced before it applies.
    pub fn synchronous() -> Self {
        CommitPolicy { max_epochs: 0 }
    }
}

impl Default for CommitPolicy {
    fn default() -> Self {
        CommitPolicy {
            // Deep enough that production-rate epochs (tens of
            // microseconds apart) never stall behind a device flush
            // (hundreds): the window must cover at least one fsync's
            // worth of epochs for the pipeline to hide the disk.
            max_epochs: 16,
        }
    }
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Admitted writes that trigger an automatic epoch flush. Larger
    /// epochs amortize sorting and lock traffic better but delay rect-
    /// query visibility of writes. Also the staging granularity: a flush
    /// draining a larger backlog commits it as multiple epochs of at most
    /// this many ops, all sharing the pipeline's syncs.
    pub epoch_ops: usize,
    /// WAL-pipelining policy (durable engines only).
    pub commit: CommitPolicy,
    /// How many superseded epoch versions the table keeps for
    /// [`Engine::snapshot_at`]/[`Request::QueryAsOf`] — the in-memory
    /// time-travel window. Epochs evicted from it are still reachable on
    /// durable engines through WAL replay (until a checkpoint absorbs
    /// them).
    pub retention: sfc_index::RetentionPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            epoch_ops: 1024,
            commit: CommitPolicy::default(),
            retention: sfc_index::RetentionPolicy::default(),
        }
    }
}

impl EngineConfig {
    /// Default config with the given auto-flush threshold.
    pub fn with_epoch_ops(epoch_ops: usize) -> Self {
        EngineConfig {
            epoch_ops,
            ..EngineConfig::default()
        }
    }
}

/// A live snapshot of the engine's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Point gets served.
    pub gets: u64,
    /// Rectangle queries served.
    pub queries: u64,
    /// Writes admitted.
    pub writes: u64,
    /// Epochs applied.
    pub epochs: u64,
    /// Writes currently pending in the log.
    pub pending: u64,
    /// Epoch flushes that failed (durable engines: WAL I/O errors). The
    /// epoch's writes stay in the log and are retried; a nonzero value
    /// with a growing `pending` means the log device needs attention.
    pub flush_failures: u64,
    /// Epochs whose WAL frame is fsync-confirmed (durable engines; equal
    /// to `epochs` on in-memory engines and whenever the commit pipeline
    /// is drained). `epochs - durable_epochs` is the pipeline's current
    /// durability lag, bounded by [`CommitPolicy::max_epochs`].
    pub durable_epochs: u64,
}

/// Wire format: the seven counters in declaration order, so a remote
/// `Stats` verb ships the same struct the in-process call returns.
impl sfc_index::WalCodec for EngineStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.gets.encode(buf);
        self.queries.encode(buf);
        self.writes.encode(buf);
        self.epochs.encode(buf);
        self.pending.encode(buf);
        self.flush_failures.encode(buf);
        self.durable_epochs.encode(buf);
    }

    fn decode(cur: &mut sfc_index::WalCursor<'_>) -> Option<Self> {
        Some(EngineStats {
            gets: u64::decode(cur)?,
            queries: u64::decode(cur)?,
            writes: u64::decode(cur)?,
            epochs: u64::decode(cur)?,
            pending: u64::decode(cur)?,
            flush_failures: u64::decode(cur)?,
            durable_epochs: u64::decode(cur)?,
        })
    }
}

/// Epochs a subscriber may buffer before the feed declares it lagged and
/// drops its backlog: bounds the engine-side memory a stalled consumer
/// (e.g. a replica behind a dead socket) can pin.
const FEED_QUEUE_CAP: usize = 1024;

/// One event from an epoch subscription.
#[derive(Clone, Debug)]
pub enum FeedEvent<const D: usize, V> {
    /// Epoch `.0` committed with ops `.1` (submission order). Epoch
    /// numbers arrive strictly consecutively per subscription.
    Epoch(u64, std::sync::Arc<Vec<BatchOp<D, V>>>),
    /// The subscriber fell more than `FEED_QUEUE_CAP` epochs behind;
    /// its backlog was dropped. The subscription is dead — re-subscribe
    /// and catch up from the WAL (or a fresh snapshot).
    Lagged,
}

/// One subscriber's slot in the feed: its undelivered epochs, oldest
/// first.
struct FeedSlot<const D: usize, V> {
    id: u64,
    queue: std::collections::VecDeque<(u64, std::sync::Arc<Vec<BatchOp<D, V>>>)>,
    lagged: bool,
}

struct FeedState<const D: usize, V> {
    slots: Vec<FeedSlot<D, V>>,
    /// Highest epoch published so far (starting at the table's epoch when
    /// the engine is built) — what a new subscription resumes *after*.
    last_published: u64,
    next_id: u64,
}

/// The live epoch feed behind [`Engine::subscribe_epochs`]: committed
/// epoch batches fan out to subscribers, cloned only when at least one
/// subscription is active — an engine nobody subscribes to pays nothing.
pub(crate) struct FeedShared<const D: usize, V> {
    state: Mutex<FeedState<D, V>>,
    wake: Condvar,
}

impl<const D: usize, V> FeedShared<D, V> {
    /// A feed whose first published epoch will follow `epoch`.
    fn new(epoch: u64) -> Self {
        FeedShared {
            state: Mutex::new(FeedState {
                slots: Vec::new(),
                last_published: epoch,
                next_id: 0,
            }),
            wake: Condvar::new(),
        }
    }

    /// Publishes one committed epoch to every live subscriber. Called
    /// only by the flush leader, so epochs arrive in order and exactly
    /// once per subscription.
    fn publish(&self, epoch: u64, ops: &[BatchOp<D, V>])
    where
        V: Clone,
    {
        let mut st = self.state.lock().expect("epoch feed poisoned");
        st.last_published = epoch;
        if st.slots.is_empty() {
            return;
        }
        let shared = std::sync::Arc::new(ops.to_vec());
        for slot in &mut st.slots {
            if slot.lagged {
                continue;
            }
            if slot.queue.len() >= FEED_QUEUE_CAP {
                slot.queue.clear();
                slot.lagged = true;
                continue;
            }
            slot.queue
                .push_back((epoch, std::sync::Arc::clone(&shared)));
        }
        drop(st);
        self.wake.notify_all();
    }
}

/// A live subscription to an engine's committed epochs — what the
/// replication layer ships to read replicas. Obtained from
/// [`Engine::subscribe_epochs`]; detached from the engine's lifetime (it
/// holds the feed by `Arc`), so it can be owned by a server thread.
///
/// Delivery starts with the first epoch applied *after* the subscription
/// was registered ([`Self::start_epoch`] is the boundary); earlier
/// epochs must be caught up from the WAL or a snapshot.
pub struct EpochSubscription<const D: usize, V> {
    feed: std::sync::Arc<FeedShared<D, V>>,
    id: u64,
    start_epoch: u64,
}

impl<const D: usize, V> EpochSubscription<D, V> {
    /// The feed's epoch watermark when this subscription registered:
    /// every epoch `> start_epoch` will be delivered (in order, no
    /// gaps); every epoch `<= start_epoch` predates the subscription.
    pub fn start_epoch(&self) -> u64 {
        self.start_epoch
    }

    /// Waits up to `timeout` for the next event. `None` means the wait
    /// timed out with nothing queued — poll again (servers use the
    /// timeout to notice shutdown and dead peers).
    pub fn next_timeout(&self, timeout: Duration) -> Option<FeedEvent<D, V>> {
        let mut st = self.feed.state.lock().expect("epoch feed poisoned");
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let slot = st
                .slots
                .iter_mut()
                .find(|s| s.id == self.id)
                .expect("subscription outlives its slot");
            if slot.lagged {
                return Some(FeedEvent::Lagged);
            }
            if let Some((epoch, ops)) = slot.queue.pop_front() {
                return Some(FeedEvent::Epoch(epoch, ops));
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, timed_out) = self
                .feed
                .wake
                .wait_timeout(st, deadline - now)
                .expect("epoch feed poisoned");
            st = guard;
            if timed_out.timed_out() {
                // Re-check once: a publish may have raced the timeout.
                let slot = st
                    .slots
                    .iter_mut()
                    .find(|s| s.id == self.id)
                    .expect("subscription outlives its slot");
                if slot.lagged {
                    return Some(FeedEvent::Lagged);
                }
                return slot
                    .queue
                    .pop_front()
                    .map(|(e, ops)| FeedEvent::Epoch(e, ops));
            }
        }
    }
}

impl<const D: usize, V> Drop for EpochSubscription<D, V> {
    fn drop(&mut self) {
        let mut st = self.feed.state.lock().expect("epoch feed poisoned");
        st.slots.retain(|s| s.id != self.id);
    }
}

/// The concurrent serving layer: a [`ShardedTable`] behind an op-stream
/// API, with epoch-batched writes and adaptive query planning. See the
/// crate docs for the consistency model.
///
/// Every method takes `&self`; the engine is `Send + Sync` whenever its
/// curve, payload, and backend are, so one instance serves any number of
/// threads.
pub struct Engine<C, V, const D: usize, B = MemoryBackend<Record<D, V>>> {
    table: ShardedTable<C, V, D, B>,
    planner: Planner,
    /// The write log: every admitted write the table does not hold yet,
    /// oldest first. A write leaves it only once the table holds its
    /// epoch, so a point get always finds an admitted write in the log
    /// or in the table. An `RwLock` so concurrent point-get overlays
    /// (read) never serialize each other; only admits and the leader's
    /// drain take the write lock.
    log: RwLock<Vec<BatchOp<D, V>>>,
    /// Flush leadership, the engine's one write serializer: only its
    /// holder commits, applies and publishes epochs (and checkpoints), so
    /// same-key writes never reorder across batches. A flusher that gets
    /// it after another leader finds its writes applied and only waits
    /// for their sync. A leader that panics poisons it, and every later
    /// flush, checkpoint and follower epoch fails instead of waiting.
    leader: Mutex<()>,
    /// Durable state (WAL handle, data directory, sync pipeline) — `Some`
    /// only for engines built by [`Engine::open`], [`Engine::open_stored`]
    /// or [`Engine::open_stored_with`].
    /// When present, [`Engine::flush`] commits each epoch to the log
    /// before any shard mutates; see the [`durable`](crate) docs.
    pub(crate) durability: Option<crate::durable::Durability>,
    /// The live epoch feed ([`Engine::subscribe_epochs`]). Behind an
    /// `Arc` so subscriptions survive independently of the engine.
    feed: std::sync::Arc<FeedShared<D, V>>,
    /// Set by [`Engine::into_follower`]: the engine refuses writes and
    /// applies epochs only through [`Engine::apply_epoch`].
    follower: bool,
    gets: AtomicU64,
    queries: AtomicU64,
    writes: AtomicU64,
    /// Flushes that returned an error (see [`EngineStats::flush_failures`]).
    flush_failures: AtomicU64,
    /// Backlog size at the last *failed* auto-flush. The next automatic
    /// attempt waits for another full epoch of admissions past this
    /// watermark, so a persistently failing WAL costs one staging
    /// attempt per `epoch_ops` writes instead of one per write (the
    /// backlog still grows; `flush_failures` is the signal to act on).
    /// Cleared by any successful flush.
    auto_flush_watermark: AtomicU64,
    config: EngineConfig,
}

impl<const D: usize, C, V, B> Engine<C, V, D, B>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
    B: Backend<Record<D, V>> + Send + Sync,
{
    /// Wraps a sharded table as a serving engine. The planner prices
    /// plans under the table's own [`DiskModel`]; the engine's epoch
    /// numbering continues the table's ([`ShardedTable::version_epoch`]),
    /// so batches the table applied before still count.
    pub fn new(table: ShardedTable<C, V, D, B>, config: EngineConfig) -> Self {
        let planner = Planner::new(*table.model());
        let mut table = table;
        table.set_retention(config.retention);
        let feed = std::sync::Arc::new(FeedShared::new(table.version_epoch()));
        Engine {
            table,
            planner,
            log: RwLock::new(Vec::new()),
            leader: Mutex::new(()),
            durability: None,
            feed,
            gets: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flush_failures: AtomicU64::new(0),
            auto_flush_watermark: AtomicU64::new(0),
            config,
            follower: false,
        }
    }

    /// Turns this engine into a **follower** of a transactor's epoch
    /// stream, for good: `Insert`/`Update`/`Delete` are refused with
    /// [`SfcError::ReadOnly`], and epochs arrive only through
    /// [`Self::apply_epoch`]. Reads and the admin verbs serve as before.
    pub fn into_follower(mut self) -> Self {
        self.follower = true;
        self
    }

    /// The underlying sharded table (stats, shard sizes, direct queries).
    /// Reads through it see the last epoch's state, like `Request::Query`.
    pub fn table(&self) -> &ShardedTable<C, V, D, B> {
        &self.table
    }

    /// The adaptive planner and its live statistics.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The disk model pricing this engine's modelled I/O times and its
    /// planner's default cost coefficients.
    pub fn model(&self) -> &DiskModel {
        self.table.model()
    }

    /// The epoch of the table's current version: the number of epochs
    /// applied so far (counting batches the table applied before
    /// [`Engine::new`], and continuing the WAL's numbering on durable
    /// engines).
    pub fn epoch(&self) -> u64 {
        self.table.version_epoch()
    }

    /// Number of epochs whose WAL frame is fsync-confirmed — the durable
    /// prefix a crash right now would recover (equal to [`Self::epoch`]
    /// for in-memory engines, and whenever the commit pipeline is
    /// drained, e.g. right after an explicit [`Self::flush`]).
    pub fn durable_epoch(&self) -> u64 {
        match &self.durability {
            Some(d) => d.synced_epoch(),
            None => self.epoch(),
        }
    }

    /// Blocks until every epoch up to `epoch` that this engine has
    /// committed is fsync-confirmed, so a crash can no longer lose it.
    /// When no group sync is running, the caller runs one on its own
    /// thread (covering every epoch committed so far); otherwise it waits
    /// for the running one. Returns at once on in-memory engines and for
    /// epochs already durable. A replication stream calls it before it
    /// ships each live epoch, so no follower applies an epoch its
    /// transactor could still lose.
    ///
    /// # Errors
    /// If a failed WAL append or fsync has poisoned the commit pipeline
    /// (see the [`durable`](crate::durable) module docs).
    pub fn wait_durable(&self, epoch: u64) -> Result<(), SfcError> {
        match &self.durability {
            Some(d) => d.wait_durable(epoch),
            None => Ok(()),
        }
    }

    /// Subscribes to the engine's committed epochs: every epoch applied
    /// after this call is delivered — in order, without gaps — as a
    /// [`FeedEvent::Epoch`] carrying the epoch's ops. This is the
    /// replication tap: a transactor's serving layer streams these
    /// frames to read replicas, which apply them to a follower engine
    /// through [`Self::apply_epoch`].
    ///
    /// Epochs committed *before* the call (at or below
    /// [`EpochSubscription::start_epoch`]) are not replayed here; catch
    /// up from the WAL ([`Engine::committed_frames_since`]) or a
    /// snapshot first. A subscriber that falls more than a queue's worth
    /// of epochs behind is cut off with [`FeedEvent::Lagged`].
    pub fn subscribe_epochs(&self) -> EpochSubscription<D, V> {
        let mut st = self.feed.state.lock().expect("epoch feed poisoned");
        let id = st.next_id;
        st.next_id += 1;
        let start_epoch = st.last_published;
        st.slots.push(FeedSlot {
            id,
            queue: std::collections::VecDeque::new(),
            lagged: false,
        });
        drop(st);
        EpochSubscription {
            feed: std::sync::Arc::clone(&self.feed),
            id,
            start_epoch,
        }
    }

    /// Reads every committed WAL frame with `epoch > from_excl`, in
    /// commit order — the catch-up path a fresh epoch subscriber pairs
    /// with [`Self::subscribe_epochs`]: subscribe first, then fetch
    /// `committed_frames_since(0)` (or since its own applied epoch) and
    /// replay up to the subscription's
    /// [`start_epoch`](EpochSubscription::start_epoch) before switching
    /// to live events.
    ///
    /// Drains the commit pipeline first, so every acknowledged epoch is
    /// physically in the log before the read.
    ///
    /// # Errors
    /// [`SfcError::EpochTruncated`] when the WAL no longer reaches back
    /// to `from_excl` — a checkpoint truncated that history, or the
    /// engine is in-memory and has no replayable history at all. The
    /// error carries the horizon (the oldest epoch catch-up can still
    /// resume from), so a subscriber can tell "bootstrap from a
    /// snapshot" apart from transient I/O failure
    /// ([`SfcError::Storage`]).
    pub fn committed_frames_since(
        &self,
        from_excl: u64,
    ) -> Result<Vec<sfc_index::EpochFrame<D, V>>, SfcError> {
        match &self.durability {
            Some(d) => {
                // Read the epoch *before* the frames: if a flush lands in
                // between, the new epoch's frame is in the result and the
                // emptiness check below cannot spuriously fire.
                let epoch_before = self.epoch();
                let frames = d.frames_since(from_excl)?;
                if frames.is_empty() && from_excl < epoch_before {
                    // A checkpoint emptied the log past `from_excl`:
                    // epochs up to (at least) `epoch_before` committed
                    // but are no longer replayable.
                    return Err(SfcError::EpochTruncated {
                        requested: from_excl,
                        horizon: epoch_before,
                    });
                }
                Ok(frames)
            }
            // An in-memory engine has no WAL: nothing before the current
            // epoch can ever be replayed, which is exactly a truncation
            // with the horizon at the present.
            None => Err(SfcError::EpochTruncated {
                requested: from_excl,
                horizon: self.epoch(),
            }),
        }
    }

    /// Writes currently pending: admitted, and still in the log because
    /// the table does not hold their epoch yet (an epoch being applied
    /// right now included).
    pub fn pending(&self) -> usize {
        self.log.read().expect("write log poisoned").len()
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            gets: self.gets.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            epochs: self.epoch(),
            pending: self.pending() as u64,
            flush_failures: self.flush_failures.load(Ordering::Relaxed),
            durable_epochs: self.durable_epoch(),
        }
    }

    /// Applies every pending write in epochs: the log is applied oldest
    /// first in chunks of at most [`EngineConfig::epoch_ops`] ops, each
    /// stably sorted into curve-key order inside
    /// [`ShardedTable::apply_batch`] and installed as one new table
    /// version with a single pointer swap (large epochs: their per-shard
    /// slices applied concurrently on private copy-on-write forks), so
    /// every scan observes all of an epoch or none of it. Returns the
    /// number of writes applied (zero if the log was empty — no epoch is
    /// counted then).
    ///
    /// Concurrent `flush` callers **group-commit**: they take flush
    /// leadership in turn, and the first applies everything admitted so
    /// far. A later one that finds every write admitted before its call
    /// already applied returns `Ok(0)` once those epochs are durable,
    /// without applying or syncing anything itself.
    ///
    /// On a durable engine ([`Engine::open`]), each epoch is committed to
    /// the write-ahead log before it applies, and `flush` returns
    /// `Ok` only once every epoch it covers is appended **and fsynced**:
    /// the commit point is the synced append, exactly as without
    /// pipelining. When `flush` returns `Ok`, the epochs survive any
    /// crash; writes that are merely admitted (acknowledged
    /// [`Response::Admitted`], not yet flushed) do not.
    ///
    /// # Errors
    /// On a WAL commit or sync failure (durable engines; the epoch's
    /// writes stay in the log, so no acknowledged write is lost in memory
    /// and a later flush retries the same epoch). [`SfcError::Storage`]
    /// once a flush leader has panicked mid-epoch: the engine must be
    /// reopened.
    pub fn flush(&self) -> Result<usize, SfcError> {
        let target = self.writes.load(Ordering::Acquire);
        let lead = self.lead()?;
        // Admits count and push under the log's write lock, so `writes`
        // read under its read lock matches the log's contents.
        let applied_writes = {
            let log = self.log.read().expect("write log poisoned");
            self.writes.load(Ordering::Acquire) - log.len() as u64
        };
        let applied = if applied_writes >= target {
            // An earlier leader applied everything admitted before this
            // call; only confirm its durability.
            0
        } else {
            self.flush_as_leader()?
        };
        let epoch = self.epoch();
        drop(lead);
        self.wait_durable(epoch)?;
        Ok(applied)
    }

    /// Takes flush leadership, waiting for the current leader — shared
    /// with [`Engine::checkpoint`] (which keeps it across its flush and
    /// its snapshot, so no epoch can slip in between) and
    /// [`Self::apply_epoch`].
    ///
    /// # Errors
    /// [`SfcError::Storage`] if a leader panicked mid-epoch: its epoch
    /// may be logged but not applied, and only a reopen brings the log
    /// and the table back in step.
    pub(crate) fn lead(&self) -> Result<MutexGuard<'_, ()>, SfcError> {
        self.leader.lock().map_err(|_| SfcError::Storage {
            context: "a flush leader panicked mid-epoch; reopen the engine".into(),
        })
    }

    /// Applies the whole log in epochs of at most
    /// [`EngineConfig::epoch_ops`] ops; the caller holds flush leadership
    /// ([`Self::lead`]). Shared with [`Engine::checkpoint`], which must
    /// snapshot at the exact epoch its own flush produced. On durable
    /// engines the epochs ride the commit pipeline and are *not*
    /// necessarily fsynced yet when this returns (the callers own the
    /// commit point: `flush` waits, `checkpoint` supersedes the log with
    /// a synced snapshot).
    pub(crate) fn flush_as_leader(&self) -> Result<usize, SfcError> {
        let mut total = 0usize;
        loop {
            let applied = self.flush_one_epoch()?;
            if applied == 0 {
                return Ok(total);
            }
            total += applied;
        }
    }

    /// Commits and applies the log's oldest ops, at most
    /// [`EngineConfig::epoch_ops`] of them, as one epoch (the caller
    /// leads). They stay in the log until the table holds them, so
    /// point-get overlays see them throughout, and a failed commit leaves
    /// them where the next flush finds them.
    fn flush_one_epoch(&self) -> Result<usize, SfcError> {
        let batch = {
            let log = self.log.read().expect("write log poisoned");
            log[..log.len().min(self.config.epoch_ops.max(1))].to_vec()
        };
        if batch.is_empty() {
            return Ok(0);
        }
        let applied = batch.len();
        // Only the leader applies, so the table's next version is this
        // epoch: `apply_batch` stamps exactly `epoch`.
        let epoch = self.epoch() + 1;
        if let Err(e) = self.commit_and_apply(epoch, batch) {
            self.flush_failures.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        // The table holds the epoch: fan it out to replication
        // subscribers and drain it. Only the leader drains and admits only
        // append, so the log still starts with this epoch's ops; only the
        // leader publishes, so each subscription gets epochs in order.
        let mut log = self.log.write().expect("write log poisoned");
        self.feed.publish(epoch, &log[..applied]);
        log.drain(..applied);
        drop(log);
        self.auto_flush_watermark.store(0, Ordering::Release);
        Ok(applied)
    }

    /// Commits `batch` as epoch `epoch` and applies it to the table (the
    /// caller leads, and publishes the epoch). On durable engines the
    /// epoch's frame is queued for the next group sync before any shard
    /// mutates; at [`CommitPolicy::max_epochs`] `0` the commit also waits
    /// for that sync. The durable commit *point* stays the synced append:
    /// it is what explicit flushes and replication streams wait for
    /// ([`Self::wait_durable`]). Every op was bounds-checked before it got
    /// here (at admission, or by [`Self::apply_epoch`]), so the apply
    /// cannot fail and nothing committed is ever undone.
    fn commit_and_apply(&self, epoch: u64, batch: Vec<BatchOp<D, V>>) -> Result<(), SfcError> {
        if let Some(d) = &self.durability {
            d.commit(epoch, &batch)?;
        }
        self.table
            .apply_batch(batch)
            .expect("every op was bounds-checked before its epoch was committed");
        Ok(())
    }

    /// Applies epoch `epoch` of a transactor's history, with its ops in
    /// submission order — the follower's one write entry, which
    /// `sfc-net`'s replica drives. Under flush leadership it checks every
    /// op's point, then commits, applies and publishes the epoch exactly
    /// as a flush would its own, so a durable follower logs every epoch
    /// it applies and serves its own subscribers.
    ///
    /// # Errors
    /// [`SfcError::Storage`] on an engine that is not a
    /// [follower](Self::into_follower), for any epoch other than
    /// [`Self::epoch`]` + 1` or an empty one (a gap or a replay in the
    /// stream), and once a flush leader has panicked mid-epoch;
    /// [`SfcError::PointOutOfBounds`] for an op outside the universe.
    /// These leave the state unchanged: nothing is logged. Otherwise the
    /// commit's own error.
    pub fn apply_epoch(&self, epoch: u64, ops: Vec<BatchOp<D, V>>) -> Result<(), SfcError> {
        if !self.follower {
            return Err(SfcError::Storage {
                context: format!("epoch {epoch} offered to an engine that is not a follower"),
            });
        }
        let _lead = self.lead()?;
        let expect = self.epoch() + 1;
        if epoch != expect || ops.is_empty() {
            return Err(SfcError::Storage {
                context: format!(
                    "epoch stream gap: got epoch {epoch} ({} ops), expected {expect}",
                    ops.len()
                ),
            });
        }
        for op in &ops {
            self.check_point(op.point())?;
        }
        let published = ops.clone();
        self.commit_and_apply(epoch, ops)?;
        self.feed.publish(epoch, &published);
        Ok(())
    }

    /// Validates a write target against the universe so the epoch apply
    /// can never fail on it.
    fn check_point(&self, p: Point<D>) -> Result<(), SfcError> {
        let universe = self.table.curve().universe();
        if universe.contains(p) {
            Ok(())
        } else {
            Err(SfcError::PointOutOfBounds {
                point: p.to_string(),
                side: universe.side(),
            })
        }
    }

    /// Admits one write; auto-flushes when the log reaches the epoch
    /// threshold.
    fn admit(&self, op: BatchOp<D, V>) -> Result<Admitted, SfcError> {
        if self.follower {
            return Err(SfcError::ReadOnly {
                context: "this engine follows a transactor's epoch stream; write there".into(),
            });
        }
        self.check_point(op.point())?;
        let epoch = self.epoch();
        let backlog = {
            let mut log = self.log.write().expect("write log poisoned");
            // Counted under the same lock the op is pushed under, so
            // `flush` reads the applied writes, `writes - log.len()`,
            // consistently.
            self.writes.fetch_add(1, Ordering::Release);
            log.push(op);
            log.len()
        };
        // Auto-flush once the backlog crosses the threshold — backed off
        // past the last failure's watermark so a persistently failing WAL
        // (durable engines, disk trouble) retries the growing backlog
        // once per epoch of admissions, not once per write.
        let watermark = self.auto_flush_watermark.load(Ordering::Acquire);
        if backlog >= self.config.epoch_ops
            && backlog as u64 >= watermark + self.config.epoch_ops as u64
        {
            // An auto-flush failure is not *this op's* failure — the
            // write is admitted either way, and stays in the log for the
            // next flush. Propagating the error here would tell the
            // caller the write failed while it is in fact pending, and a
            // retry would then duplicate it. Durability errors surface
            // where durability is acknowledged: explicit
            // [`Self::flush`]/`checkpoint` calls, and the
            // [`EngineStats::flush_failures`] counter.
            if !self.try_flush_auto() {
                self.auto_flush_watermark
                    .store(backlog as u64, Ordering::Release);
            }
        }
        Ok(Admitted { epoch })
    }

    /// The admission path's flush: applies the backlog like
    /// [`Self::flush`] but **never blocks behind another leader** (the
    /// active leader is already applying this op's epoch, or the next
    /// admission will re-trigger) and **never waits for fsyncs** — the
    /// commit pipeline makes auto-flushed epochs durable in the
    /// background, and only an explicit `flush`/`checkpoint` acknowledges
    /// durability. Returns `false` only on a flush error or after a
    /// leader panicked.
    fn try_flush_auto(&self) -> bool {
        match self.leader.try_lock() {
            Ok(_lead) => self.flush_as_leader().is_ok(),
            Err(TryLockError::WouldBlock) => true,
            Err(TryLockError::Poisoned(_)) => false,
        }
    }

    /// Serves a point get: the write log overlays the table, newest write
    /// first. A write leaves the log only once the table holds its epoch,
    /// so every admitted write is observable at all times, including
    /// mid-flush. The overlay scan takes a read lock (gets never
    /// serialize each other) and is `O(pending)`, bounded by
    /// [`EngineConfig::epoch_ops`].
    fn get(&self, p: Point<D>) -> Result<Option<V>, SfcError> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        {
            let log = self.log.read().expect("write log poisoned");
            if let Some(op) = log.iter().rev().find(|op| op.point() == p) {
                return Ok(match op {
                    BatchOp::Insert(_, v) | BatchOp::Update(_, v) => Some(v.clone()),
                    BatchOp::Delete(_) => None,
                });
            }
        }
        Ok(self.table.get(p)?.map(|guard| guard.cloned()))
    }

    /// Serves a rectangle query through the planner, returning the full
    /// [`QueryResult`] (records, ranges, [`IoStats`](sfc_index::IoStats))
    /// and the executed [`QueryPlan`].
    ///
    /// # Errors
    /// If the query does not fit inside the universe.
    pub fn query(&self, q: &RectQuery<D>) -> Result<(QueryResult<D, V>, QueryPlan), SfcError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut result = self
            .table
            .query_rect(q, &sfc_index::QueryOptions::planned(&self.planner))?;
        let plan = result.plan.take().expect("planned query carries its plan");
        Ok((result, plan))
    }

    /// Plans a rectangle query without executing it — the `EXPLAIN` API:
    /// [`QueryPlan::explain`] describes the decision the next execution
    /// of `q` would take under current statistics.
    ///
    /// # Errors
    /// If the query does not fit inside the universe.
    pub fn explain(&self, q: &RectQuery<D>) -> Result<QueryPlan, SfcError> {
        self.table.plan_rect(q, &self.planner)
    }

    /// Pins epoch `epoch`'s version as a read handle, if the retention
    /// window (configured by [`EngineConfig::retention`]) still holds it.
    /// Every read through the returned snapshot observes exactly that
    /// epoch, however many batches later flushes apply; the pin itself is
    /// what keeps the version (and every page it shares) alive. `None`
    /// means the version was evicted — [`Self::query_as_of`] still
    /// answers on durable engines, by WAL replay.
    pub fn snapshot_at(&self, epoch: u64) -> Option<sfc_index::TableSnapshot<'_, C, V, D, B>> {
        self.table.snapshot_at(epoch)
    }

    /// Serves a rectangle query **as of** a past epoch — the time-travel
    /// read behind [`Request::QueryAsOf`]. Fast path: the retention window
    /// still holds the version, and the scan pins it like any other
    /// (lock-free, no replay). Cold path (durable engines only): the
    /// epoch's state is reconstructed from `snapshot + WAL prefix`, read
    /// through the live log handle, into a throwaway table
    /// (`restore_entries`, then `apply_batch`) — exactly the recovery
    /// computation, evaluated at `epoch` instead of at the tail — so
    /// `as_of(e)` always equals what a crash-recovery at epoch `e` would
    /// have served.
    ///
    /// Like [`Request::Query`], this reads committed epoch state only: writes
    /// still pending in the log are invisible until flushed.
    ///
    /// # Errors
    /// If `epoch` exceeds the applied epoch, if the query does not fit
    /// inside the universe, on WAL/snapshot I/O failure, or if the
    /// epoch's history is gone — evicted from retention on an in-memory
    /// engine, or absorbed by a newer checkpoint on a durable one.
    pub fn query_as_of(&self, epoch: u64, q: &RectQuery<D>) -> Result<QueryResult<D, V>, SfcError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if let Some(snapshot) = self.table.snapshot_at(epoch) {
            return snapshot.query_rect(q);
        }
        if epoch > self.epoch() {
            return Err(SfcError::Storage {
                context: format!(
                    "as_of epoch {epoch} has not been applied yet (current epoch {})",
                    self.epoch()
                ),
            });
        }
        let Some(d) = &self.durability else {
            return Err(SfcError::Storage {
                context: format!(
                    "epoch {epoch} was evicted from the retention window and this \
                     in-memory engine has no WAL to replay it from (retained: {:?})",
                    self.table.retained_epochs()
                ),
            });
        };
        let Some((entries, ops)) = d.historical_state(epoch)? else {
            return Err(SfcError::Storage {
                context: format!(
                    "epoch {epoch} is older than the last checkpoint's snapshot — its \
                     history was compacted away"
                ),
            });
        };
        // Rebuild the epoch in a throwaway table over the same curve,
        // model and shard layout, through the live restore and apply
        // paths, and answer through the one query executor.
        let history: ShardedTable<&C, V, D> = ShardedTable::build(
            self.table.curve(),
            Vec::new(),
            *self.table.model(),
            self.table.shard_count(),
        )?;
        history.restore_entries(entries)?;
        history.apply_batch(ops)?;
        history.query_rect(q, &sfc_index::QueryOptions::default())
    }

    /// Executes one request — the one dispatcher for every verb, in
    /// process and behind `sfc-net`'s server alike. Reads return their
    /// results; writes return [`Response::Admitted`] and become visible
    /// to rectangle queries at the next epoch (point gets see them
    /// immediately via the log overlay); the admin verbs answer as
    /// [`Self::flush`], [`Self::checkpoint`], [`Self::stats`] and
    /// [`Self::explain`] do. `Ok` never holds [`Response::Error`].
    ///
    /// # Errors
    /// If the request's point or query lies outside the curve's universe,
    /// or with the verb's own error (a failed flush, `Checkpoint` on an
    /// in-memory engine). [`Request::SubscribeEpochs`] turns a connection
    /// into a stream and cannot be answered in place: it gets a typed
    /// [`SfcError::Storage`].
    pub fn execute(&self, request: Request<D, V>) -> Result<Response<D, V>, SfcError> {
        Ok(match request {
            Request::Ping => Response::Pong,
            Request::Get(p) => Response::Value(self.get(p)?),
            Request::Query(q) => Response::Records(self.query(&q)?.0.records),
            Request::QueryAsOf { epoch, query } => {
                Response::Records(self.query_as_of(epoch, &query)?.records)
            }
            Request::Insert(p, v) => Response::Admitted(self.admit(BatchOp::Insert(p, v))?),
            Request::Update(p, v) => Response::Admitted(self.admit(BatchOp::Update(p, v))?),
            Request::Delete(p) => Response::Admitted(self.admit(BatchOp::Delete(p))?),
            Request::Flush => Response::Flushed {
                applied: self.flush()? as u64,
            },
            Request::Checkpoint => Response::Checkpointed {
                epoch: self.checkpoint()?,
            },
            Request::Stats => Response::Stats(self.stats()),
            Request::Explain(q) => Response::Explained(self.explain(&q)?),
            Request::SubscribeEpochs { .. } => {
                return Err(SfcError::Storage {
                    context: "SubscribeEpochs is a streaming verb; it cannot be answered in-place"
                        .into(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_core::Onion2D;
    use sfc_index::DiskModel;

    fn engine(side: u32, shards: usize, epoch_ops: usize) -> Engine<Onion2D, u32, 2> {
        let records: Vec<(Point<2>, u32)> = (0..side)
            .flat_map(|x| (0..side).map(move |y| (Point::new([x, y]), x * 100 + y)))
            .collect();
        let table = ShardedTable::build(
            Onion2D::new(side).unwrap(),
            records,
            DiskModel::ssd(),
            shards,
        )
        .unwrap();
        Engine::new(table, EngineConfig::with_epoch_ops(epoch_ops))
    }

    #[test]
    fn reads_see_pending_writes_immediately() {
        let e = engine(16, 4, 1_000_000);
        let p = Point::new([3, 3]);
        assert_eq!(
            e.execute(Request::Get(p)).unwrap(),
            Response::Value(Some(303))
        );
        assert_eq!(
            e.execute(Request::Update(p, 999)).unwrap(),
            Response::Admitted(Admitted { epoch: 0 })
        );
        // Overlay: the write is pending, not applied...
        assert_eq!(
            e.execute(Request::Get(p)).unwrap(),
            Response::Value(Some(999))
        );
        assert_eq!(e.epoch(), 0);
        assert_eq!(e.pending(), 1);
        // ...and a delete overlays the update.
        e.execute(Request::Delete(p)).unwrap();
        assert_eq!(e.execute(Request::Get(p)).unwrap(), Response::Value(None));
        // The table below still holds the old value until the epoch.
        assert_eq!(e.table().get(p).unwrap().map(|g| g.value), Some(303));
        assert_eq!(e.flush().unwrap(), 2);
        assert_eq!(e.epoch(), 1);
        assert!(e.table().get(p).unwrap().is_none());
        assert_eq!(e.execute(Request::Get(p)).unwrap(), Response::Value(None));
    }

    #[test]
    fn rect_queries_are_epoch_boundary_consistent() {
        let e = engine(16, 4, 1_000_000);
        let q = RectQuery::new([0, 0], [4, 4]).unwrap();
        let Response::Records(before) = e.execute(Request::Query(q)).unwrap() else {
            unreachable!()
        };
        assert_eq!(before.len(), 16);
        e.execute(Request::Delete(Point::new([1, 1]))).unwrap();
        // Pending writes are invisible to rect queries...
        let Response::Records(mid) = e.execute(Request::Query(q)).unwrap() else {
            unreachable!()
        };
        assert_eq!(mid.len(), 16);
        // ...until the epoch boundary.
        e.flush().unwrap();
        let Response::Records(after) = e.execute(Request::Query(q)).unwrap() else {
            unreachable!()
        };
        assert_eq!(after.len(), 15);
    }

    #[test]
    fn epoch_threshold_auto_flushes() {
        let e = engine(16, 2, 4);
        for i in 0..7u32 {
            e.execute(Request::Insert(Point::new([i, 0]), 1000 + i))
                .unwrap();
        }
        // 7 writes at threshold 4: one auto-flush at the 4th, 3 pending.
        assert_eq!(e.epoch(), 1);
        assert_eq!(e.pending(), 3);
        let stats = e.stats();
        assert_eq!(stats.writes, 7);
        assert_eq!(stats.epochs, 1);
        assert_eq!(stats.pending, 3);
        e.flush().unwrap();
        assert_eq!(e.epoch(), 2);
        assert_eq!(e.flush().unwrap(), 0, "empty flush is a no-op");
        assert_eq!(e.epoch(), 2, "empty flush counts no epoch");
    }

    #[test]
    fn invalid_ops_error_without_corrupting_state() {
        let e = engine(8, 2, 100);
        assert!(e.execute(Request::Get(Point::new([8, 0]))).is_err());
        assert!(e.execute(Request::Insert(Point::new([0, 8]), 1)).is_err());
        assert!(e
            .execute(Request::Query(RectQuery::new([5, 5], [5, 5]).unwrap()))
            .is_err());
        assert_eq!(e.pending(), 0, "invalid writes are not admitted");
        assert_eq!(e.table().len(), 64);
    }

    #[test]
    fn explain_reports_without_executing() {
        let e = engine(32, 4, 100);
        let q = RectQuery::new([3, 3], [20, 9]).unwrap();
        let plan = e.explain(&q).unwrap();
        assert!(plan.clusters >= 1);
        assert!(!plan.explain().is_empty());
        assert_eq!(e.stats().queries, 0, "explain is not an execution");
        let (result, executed) = e.query(&q).unwrap();
        assert_eq!(result.records.len() as u64, q.volume());
        assert_eq!(executed.clusters, plan.clusters);
        assert_eq!(e.stats().queries, 1);
    }

    #[test]
    fn epochs_continue_the_numbering_of_a_table_built_elsewhere() {
        let side = 16;
        let table =
            ShardedTable::build(Onion2D::new(side).unwrap(), Vec::new(), DiskModel::ssd(), 2)
                .unwrap();
        for v in 1..=2u32 {
            table
                .apply_batch(vec![BatchOp::Update(Point::new([v, v]), v)])
                .unwrap();
        }
        let e: Engine<Onion2D, u32, 2> = Engine::new(table, EngineConfig::with_epoch_ops(100));
        assert_eq!(e.epoch(), 2);
        assert_eq!(e.epoch(), e.table().version_epoch());
        let feed = e.subscribe_epochs();
        assert_eq!(feed.start_epoch(), e.epoch());

        e.execute(Request::Update(Point::new([3, 3]), 3)).unwrap();
        e.flush().unwrap();
        assert_eq!(e.epoch(), 3);
        match feed.next_timeout(Duration::from_secs(5)) {
            Some(FeedEvent::Epoch(epoch, ops)) => {
                assert_eq!(epoch, 3);
                assert_eq!(ops.len(), 1);
            }
            other => panic!("expected epoch 3 on the feed, got {other:?}"),
        }
        let q = RectQuery::new([0, 0], [side, side]).unwrap();
        let live = e.query(&q).unwrap().0.records;
        assert_eq!(live.len(), 3);
        assert_eq!(e.query_as_of(e.epoch(), &q).unwrap().records, live);
    }

    fn one_update(v: u32) -> Vec<BatchOp<2, u32>> {
        vec![BatchOp::Update(Point::new([1, 2]), v)]
    }

    #[test]
    fn apply_epoch_takes_exactly_the_next_epoch_on_a_follower() {
        let leader = engine(8, 2, 100);
        assert!(matches!(
            leader.apply_epoch(1, one_update(7)),
            Err(SfcError::Storage { .. })
        ));
        assert_eq!(leader.epoch(), 0, "a non-follower applies nothing");

        let f = engine(8, 2, 100).into_follower();
        let feed = f.subscribe_epochs();
        f.apply_epoch(1, one_update(7)).unwrap();
        f.apply_epoch(2, one_update(8)).unwrap();
        for (epoch, ops) in [(4, one_update(9)), (2, one_update(9)), (3, Vec::new())] {
            let err = f.apply_epoch(epoch, ops).unwrap_err();
            assert!(matches!(err, SfcError::Storage { .. }), "{err}");
            assert_eq!(
                f.epoch(),
                2,
                "a gap, a replay or an empty epoch changes nothing"
            );
        }
        assert_eq!(
            f.execute(Request::Get(Point::new([1, 2]))).unwrap(),
            Response::Value(Some(8))
        );
        // Applied epochs reach the follower's own subscribers.
        for epoch in 1..=2 {
            assert!(matches!(
                feed.next_timeout(Duration::from_secs(5)),
                Some(FeedEvent::Epoch(e, _)) if e == epoch
            ));
        }
    }

    #[test]
    fn a_follower_refuses_writes_but_flushes() {
        let f = engine(8, 2, 1).into_follower();
        for write in [
            Request::Insert(Point::new([1, 1]), 1),
            Request::Update(Point::new([1, 1]), 2),
            Request::Delete(Point::new([1, 1])),
        ] {
            let err = f.execute(write).unwrap_err();
            assert!(matches!(err, SfcError::ReadOnly { .. }), "{err}");
            assert!(err.is_pre_execution());
        }
        assert_eq!(f.stats().writes, 0, "no refused write was admitted");
        f.apply_epoch(1, one_update(5)).unwrap();
        assert_eq!(
            f.execute(Request::Flush).unwrap(),
            Response::Flushed { applied: 0 }
        );
        assert_eq!(f.epoch(), 1);
    }

    #[test]
    fn a_follower_refuses_an_out_of_bounds_epoch_before_logging_it() {
        let dir = std::env::temp_dir().join(format!("sfc-follower-oob-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            Engine::<Onion2D, u32, 2>::open(
                &dir,
                Onion2D::new(8).unwrap(),
                DiskModel::ssd(),
                2,
                EngineConfig::default(),
            )
            .unwrap()
            .into_follower()
        };
        let f = open();
        let empty_log = f.wal_len();
        let mut ops = one_update(7);
        ops.push(BatchOp::Update(Point::new([8, 0]), 8));
        let err = f.apply_epoch(1, ops).unwrap_err();
        assert!(matches!(err, SfcError::PointOutOfBounds { .. }), "{err}");
        f.execute(Request::Flush).unwrap();
        assert_eq!((f.epoch(), f.durable_epoch()), (0, 0));
        assert_eq!(f.wal_len(), empty_log, "the refused epoch was never logged");

        f.apply_epoch(1, one_update(7)).unwrap();
        drop(f);
        let f = open();
        assert_eq!(f.epoch(), 1);
        assert_eq!(
            f.execute(Request::Get(Point::new([1, 2]))).unwrap(),
            Response::Value(Some(7))
        );
        drop(f);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_durable_follower_logs_its_epochs_and_checkpoints() {
        let dir = std::env::temp_dir().join(format!("sfc-follower-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            Engine::<Onion2D, u32, 2>::open(
                &dir,
                Onion2D::new(8).unwrap(),
                DiskModel::ssd(),
                2,
                EngineConfig::default(),
            )
            .unwrap()
            .into_follower()
        };
        let f = open();
        for epoch in 1..=3 {
            f.apply_epoch(epoch, one_update(epoch as u32)).unwrap();
        }
        assert_eq!(
            f.execute(Request::Checkpoint).unwrap(),
            Response::Checkpointed { epoch: 3 }
        );
        f.apply_epoch(4, one_update(4)).unwrap();
        drop(f);
        let f = open();
        assert_eq!(f.epoch(), 4, "snapshot at 3 plus the logged epoch 4");
        assert_eq!(
            f.execute(Request::Get(Point::new([1, 2]))).unwrap(),
            Response::Value(Some(4))
        );
        drop(f);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
