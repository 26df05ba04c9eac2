//! Read replicas: a [`ShardedTable`] kept in lockstep with a remote
//! transactor by replaying its committed epoch stream.
//!
//! A [`Replica`] connects a [`Client`] subscription
//! ([`Client::subscribe_epochs`]) to the same `apply_batch` path
//! recovery uses: each [`EpochEvent::Epoch`] frame is applied as one
//! batch, bumping the table's version epoch to exactly the epoch number
//! the transactor committed — so the replica's MVCC window is, epoch
//! for epoch, the transactor's history, and [`Replica::query_as_of`]
//! answers time-travel reads with no WAL of its own.
//!
//! **Consistency model: epoch-prefix.** A replica's visible state is
//! always *some committed epoch prefix* of the transactor's history —
//! never a torn batch, never reordered — because epochs arrive in
//! order, without gaps (WAL catch-up first, then the live feed) and
//! apply atomically per batch. Lag is observable, not hidden:
//! [`Replica::lag`] is the distance between the transactor's durable
//! epoch (shipped with every frame) and the replica's applied epoch.
//!
//! **Self-healing.** A lost connection (or a `Lagged` cutoff) is not
//! fatal: the apply thread reconnects with bounded exponential backoff
//! plus jitter and re-subscribes from its own current
//! [`applied_epoch`](Replica::applied_epoch). The server's WAL
//! catch-up for `(applied, start_epoch]` makes resume **exactly-once**
//! — every epoch committed while the replica was away is replayed, in
//! order, never doubled — so reconvergence needs no replica-side log.
//! The one terminal resume fault is [`SfcError::EpochTruncated`]: the
//! transactor checkpointed past the replica's position, and the WAL no
//! longer holds the missing history (bootstrap a fresh replica
//! instead). The whole story is exposed by [`Replica::status`] —
//! applied/durable/lag, reconnect count, connection state, last error.

use crate::client::{jitter_salt, Client, EpochEvent, EpochStream, NetConfig, RetryPolicy};
use onion_core::{Point, SfcError, SpaceFillingCurve};
use sfc_clustering::RectQuery;
use sfc_engine::EngineConfig;
use sfc_index::{DiskModel, Planner, QueryOptions, QueryResult, ShardedTable, WalCodec};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the apply thread blocks on the stream before re-checking
/// its stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Resilience knobs for a [`Replica`]'s subscription.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Transport config for the subscription connection (connect
    /// budget, subscribe-acknowledgment deadline). The request
    /// [`RetryPolicy`] inside is unused here — the replica's retry unit
    /// is the whole subscription, governed by
    /// [`reconnect`](Self::reconnect).
    pub net: NetConfig,
    /// Reconnect schedule after the stream dies: up to `max_retries`
    /// *consecutive* failed reconnect attempts (the counter resets on
    /// every successfully applied epoch), backing off exponentially
    /// with deterministic jitter between attempts.
    pub reconnect: RetryPolicy,
}

impl Default for ReplicaConfig {
    /// Self-healing defaults: a 5 s connect budget and 16 consecutive
    /// reconnect attempts backing off 10 ms → 1 s.
    fn default() -> Self {
        ReplicaConfig {
            net: NetConfig {
                connect_timeout: Duration::from_secs(5),
                request_deadline: Some(Duration::from_secs(10)),
                retry: RetryPolicy::none(),
            },
            reconnect: RetryPolicy {
                max_retries: 16,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_secs(1),
            },
        }
    }
}

/// Where a [`Replica`]'s subscription currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaState {
    /// Connected and replaying the live epoch stream.
    Streaming,
    /// The stream died; reconnect attempts are in progress.
    Reconnecting,
    /// Terminally failed (reconnect budget exhausted, epoch history
    /// truncated, or a corrupt stream). The last applied prefix is
    /// still served; [`Replica::take_fault`] holds the cause.
    Failed,
    /// [`Replica::stop`] was called.
    Stopped,
}

const STATE_STREAMING: u8 = 0;
const STATE_RECONNECTING: u8 = 1;
const STATE_FAILED: u8 = 2;
const STATE_STOPPED: u8 = 3;

/// A point-in-time health snapshot of a [`Replica`] — the fields an
/// operator (or a load balancer deciding whether to route reads here)
/// needs in one read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Highest epoch applied locally; every read observes at least this.
    pub applied: u64,
    /// The transactor's fsync-confirmed epoch as of the last frame.
    pub durable: u64,
    /// `durable - applied`, floored at zero.
    pub lag: u64,
    /// Successful reconnects over the replica's lifetime.
    pub reconnects: u64,
    /// Current subscription state.
    pub state: ReplicaState,
    /// The most recent stream error (transient or terminal), if any.
    pub last_error: Option<SfcError>,
}

/// State shared between the apply thread and the [`Replica`] handle.
struct Shared {
    /// Transactor durable epoch as of the last received frame.
    durable: AtomicU64,
    /// Successful reconnects (not attempts) over the lifetime.
    reconnects: AtomicU64,
    state: AtomicU8,
    /// The most recent stream error, transient or terminal.
    last_error: Mutex<Option<SfcError>>,
    /// The terminal fault, once the apply thread gives up.
    fault: Mutex<Option<SfcError>>,
    stop: AtomicBool,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn set_state(&self, state: u8) {
        self.state.store(state, Ordering::Release);
    }

    fn note_error(&self, e: &SfcError) {
        *self.last_error.lock().expect("error slot poisoned") = Some(e.clone());
    }

    /// Terminal: park the fault and flip to `Failed`.
    fn park(&self, e: SfcError) {
        self.note_error(&e);
        *self.fault.lock().expect("fault slot poisoned") = Some(e);
        self.set_state(STATE_FAILED);
    }
}

/// A read replica of a remote transactor. Created by
/// [`Replica::start`]; queries are served from the local table while a
/// background thread replays the epoch stream into it.
pub struct Replica<C, V, const D: usize>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
{
    table: Arc<ShardedTable<C, V, D>>,
    planner: Planner,
    shared: Arc<Shared>,
    apply: Option<JoinHandle<()>>,
}

impl<C, V, const D: usize> Replica<C, V, D>
where
    C: SpaceFillingCurve<D> + Send + Sync + 'static,
    V: Clone + Send + Sync + WalCodec + 'static,
{
    /// Connects to a transactor's server at `addr`, subscribes from
    /// epoch 0, and starts replaying into a fresh empty table, with
    /// self-healing [`ReplicaConfig`] defaults.
    ///
    /// `curve` must equal the transactor's curve (keys are derived from
    /// points identically on both sides); `shards` is free to differ —
    /// like recovery, replication re-partitions.
    ///
    /// # Errors
    /// On connection failure or a table-build failure. (The *initial*
    /// connect is not retried: a replica that never connected has no
    /// prefix worth serving.)
    pub fn start(
        addr: &str,
        curve: C,
        model: DiskModel,
        shards: usize,
        config: &EngineConfig,
    ) -> Result<Self, SfcError> {
        Self::start_with(addr, curve, model, shards, config, ReplicaConfig::default())
    }

    /// [`Replica::start`] with explicit resilience knobs — a `reconnect`
    /// of [`RetryPolicy::none`] makes the replica stop at the first
    /// stream fault and keep serving its last applied prefix.
    ///
    /// # Errors
    /// As [`Replica::start`].
    pub fn start_with(
        addr: &str,
        curve: C,
        model: DiskModel,
        shards: usize,
        config: &EngineConfig,
        replica_config: ReplicaConfig,
    ) -> Result<Self, SfcError> {
        let mut table = ShardedTable::build(curve, Vec::new(), model, shards)?;
        table.set_retention(config.retention);
        let planner = Planner::new(model);
        let stream =
            Client::<C, V, D>::connect_with(addr, replica_config.net)?.subscribe_epochs(0)?;
        let table = Arc::new(table);
        let shared = Arc::new(Shared {
            durable: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            state: AtomicU8::new(STATE_STREAMING),
            last_error: Mutex::new(None),
            fault: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let apply = {
            let addr = addr.to_string();
            let table = Arc::clone(&table);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || apply_loop(&addr, replica_config, stream, &table, &shared))
        };
        Ok(Replica {
            table,
            planner,
            shared,
            apply: Some(apply),
        })
    }

    /// The highest epoch applied locally — the epoch every read
    /// observes (or a later one, if a frame lands mid-call).
    pub fn applied_epoch(&self) -> u64 {
        self.table.version_epoch()
    }

    /// The transactor's fsync-confirmed epoch as of the last received
    /// frame — the durable frontier this replica is chasing.
    pub fn durable_epoch(&self) -> u64 {
        self.shared.durable.load(Ordering::Acquire)
    }

    /// Replication lag in epochs: [`durable_epoch`](Self::durable_epoch)
    /// minus [`applied_epoch`](Self::applied_epoch), floored at zero (a
    /// replica can briefly run *ahead* of the durable frontier when the
    /// transactor pipelines commits).
    pub fn lag(&self) -> u64 {
        self.durable_epoch().saturating_sub(self.applied_epoch())
    }

    /// Current subscription state.
    pub fn state(&self) -> ReplicaState {
        match self.shared.state.load(Ordering::Acquire) {
            STATE_STREAMING => ReplicaState::Streaming,
            STATE_RECONNECTING => ReplicaState::Reconnecting,
            STATE_FAILED => ReplicaState::Failed,
            _ => ReplicaState::Stopped,
        }
    }

    /// Successful reconnects over the replica's lifetime — a cheap
    /// health signal (a climbing count under a stable network means the
    /// transactor is cutting this replica off).
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::Acquire)
    }

    /// One consistent health snapshot: applied/durable/lag, reconnect
    /// count, connection state, last stream error.
    pub fn status(&self) -> ReplicaStatus {
        let applied = self.applied_epoch();
        let durable = self.durable_epoch();
        ReplicaStatus {
            applied,
            durable,
            lag: durable.saturating_sub(applied),
            reconnects: self.reconnects(),
            state: self.state(),
            last_error: self
                .shared
                .last_error
                .lock()
                .expect("error slot poisoned")
                .clone(),
        }
    }

    /// Whether the stream has died terminally (reconnect budget
    /// exhausted, epoch history truncated, corrupt stream). A failed
    /// replica keeps serving its last applied prefix;
    /// [`take_fault`](Self::take_fault) retrieves the cause.
    pub fn is_failed(&self) -> bool {
        self.state() == ReplicaState::Failed
    }

    /// The error that terminally killed the stream, if any (consumes
    /// it).
    pub fn take_fault(&self) -> Option<SfcError> {
        self.shared
            .fault
            .lock()
            .expect("fault slot poisoned")
            .take()
    }

    /// Point lookup against the applied prefix. Epoch-boundary
    /// consistent: pending transactor writes are invisible until their
    /// epoch arrives.
    ///
    /// # Errors
    /// If `p` lies outside the universe.
    pub fn get(&self, p: Point<D>) -> Result<Option<V>, SfcError> {
        Ok(self.table.get(p)?.map(|guard| guard.cloned()))
    }

    /// Rectangle query against the applied prefix, through the
    /// replica's own adaptive planner (each replica learns its own I/O
    /// statistics).
    ///
    /// # Errors
    /// If the query exceeds the universe.
    pub fn query(&self, q: &RectQuery<D>) -> Result<QueryResult<D, V>, SfcError> {
        self.table
            .query_rect(q, &QueryOptions::planned(&self.planner))
    }

    /// Time-travel read against a past applied epoch, answered from the
    /// replica's retention window.
    ///
    /// # Errors
    /// If the epoch is no longer retained (or not yet applied), or the
    /// query exceeds the universe.
    pub fn query_as_of(&self, epoch: u64, q: &RectQuery<D>) -> Result<QueryResult<D, V>, SfcError> {
        match self.table.snapshot_at(epoch) {
            Some(snapshot) => snapshot.query_rect(q),
            None => Err(SfcError::Storage {
                context: format!(
                    "epoch {epoch} is not in the replica's retention window (applied: {})",
                    self.applied_epoch()
                ),
            }),
        }
    }

    /// Total records in the applied prefix.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the applied prefix holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stops the apply thread and drops the subscription.
    pub fn stop(mut self) {
        self.stop_and_join();
    }
}

impl<C, V, const D: usize> Replica<C, V, D>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
{
    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.apply.take() {
            let _ = h.join();
        }
        if self.shared.state.load(Ordering::Acquire) != STATE_FAILED {
            self.shared.set_state(STATE_STOPPED);
        }
    }
}

impl<C, V, const D: usize> Drop for Replica<C, V, D>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
{
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Whether a stream error ends the replica for good. A truncated epoch
/// history can never be healed by reconnecting — the data is gone from
/// the transactor's WAL.
fn is_terminal(e: &SfcError) -> bool {
    matches!(e, SfcError::EpochTruncated { .. })
}

/// Sleeps `total` in small slices so a concurrent stop lands promptly.
fn backoff_sleep(shared: &Shared, total: Duration) {
    let slice = Duration::from_millis(10);
    let mut left = total;
    while !left.is_zero() && !shared.stopping() {
        let step = left.min(slice);
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

/// The replay loop: apply each epoch frame as one batch, enforcing
/// gapless, in-order delivery. A dead stream (transport loss, `Lagged`
/// cutoff) is healed by reconnecting with backoff and re-subscribing
/// from the applied epoch — the WAL catch-up makes the resume
/// exactly-once. Only unhealable faults stop the thread: a truncated
/// epoch history, a gap or apply failure (corrupt stream — serving a
/// torn state is worse than serving a stale prefix), or an exhausted
/// reconnect budget.
fn apply_loop<C, V, const D: usize>(
    addr: &str,
    config: ReplicaConfig,
    initial: EpochStream<D, V>,
    table: &ShardedTable<C, V, D>,
    shared: &Shared,
) where
    C: SpaceFillingCurve<D> + Send + Sync + 'static,
    V: Clone + Send + Sync + WalCodec + 'static,
{
    let salt = jitter_salt(addr);
    let mut stream = Some(initial);
    // Consecutive failed reconnect attempts; reset by every applied
    // epoch, so only an actually-unreachable transactor exhausts it.
    let mut attempt: u32 = 0;
    while !shared.stopping() {
        let mut live = match stream.take() {
            Some(live) => live,
            None => {
                if attempt >= config.reconnect.max_retries {
                    let last = shared
                        .last_error
                        .lock()
                        .expect("error slot poisoned")
                        .clone();
                    shared.park(last.unwrap_or(SfcError::ConnectionLost {
                        context: format!("reconnect budget exhausted after {attempt} attempts"),
                    }));
                    return;
                }
                backoff_sleep(shared, config.reconnect.backoff(attempt, salt));
                if shared.stopping() {
                    return;
                }
                attempt += 1;
                // Resume from the applied epoch: the server replays
                // `(applied, start_epoch]` from its WAL, then the live
                // feed takes over — exactly-once, no replica-side log.
                match Client::<C, V, D>::connect_with(addr, config.net)
                    .and_then(|c| c.subscribe_epochs(table.version_epoch()))
                {
                    Ok(live) => {
                        shared.reconnects.fetch_add(1, Ordering::AcqRel);
                        live
                    }
                    Err(e) => {
                        if is_terminal(&e) {
                            shared.park(e);
                            return;
                        }
                        shared.note_error(&e);
                        continue;
                    }
                }
            }
        };
        shared.set_state(STATE_STREAMING);
        // Drain this stream until it dies or the replica stops.
        let stream_fault = loop {
            if shared.stopping() {
                return;
            }
            match live.poll(POLL_INTERVAL) {
                Ok(None) => continue,
                Ok(Some(EpochEvent::Epoch {
                    epoch,
                    durable_epoch,
                    ops,
                })) => {
                    let expect = table.version_epoch() + 1;
                    if epoch != expect {
                        shared.park(SfcError::Storage {
                            context: format!("epoch stream gap: got {epoch}, expected {expect}"),
                        });
                        return;
                    }
                    if let Err(e) = table.apply_batch(ops) {
                        shared.park(e);
                        return;
                    }
                    shared.durable.store(durable_epoch, Ordering::Release);
                    attempt = 0;
                }
                Ok(Some(EpochEvent::Lagged)) => {
                    // The transactor cut us off for falling behind. Not
                    // fatal under self-healing: re-subscribing from the
                    // applied epoch is precisely the catch-up protocol.
                    break SfcError::Unavailable {
                        context: "subscription lagged out; re-subscribing from applied".into(),
                    };
                }
                Err(e) => {
                    if is_terminal(&e) {
                        shared.park(e);
                        return;
                    }
                    break e;
                }
            }
        };
        shared.note_error(&stream_fault);
        if config.reconnect.max_retries == 0 {
            // Fail-stop mode: park the original stream fault unchanged.
            shared.park(stream_fault);
            return;
        }
        shared.set_state(STATE_RECONNECTING);
    }
}
