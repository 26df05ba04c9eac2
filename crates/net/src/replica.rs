//! Read replicas: a follower [`Engine`] kept in lockstep with a remote
//! transactor by replaying its committed epoch stream.
//!
//! A [`Replica`] is a subscription loop around an ordinary engine that
//! only follows ([`Engine::into_follower`]): each [`EpochEvent::Epoch`]
//! a [`Client`] subscription ([`Client::subscribe_epochs`]) delivers is
//! handed to [`Engine::apply_epoch`], which commits, applies and
//! publishes it exactly as the transactor's flush did — so the
//! follower's epoch numbering, MVCC window and (on a durable follower)
//! WAL are, epoch for epoch, the transactor's. Every read goes through
//! [`Engine::execute`] on [`Replica::engine`], and whatever an engine
//! can do, a follower can: be served over TCP
//! (`Server::spawn(Arc::clone(replica.engine()), addr)`), be durable or
//! disk-resident ([`Engine::open`], [`Engine::open_stored`]), answer
//! `Stats`/`Explain`, and answer time-travel reads past its retention
//! window from its own WAL. Writes are refused with
//! [`SfcError::ReadOnly`]: they belong to the transactor.
//!
//! **Consistency model: epoch-prefix.** A replica's visible state is
//! always *some committed epoch prefix* of the transactor's history —
//! never a torn batch, never reordered — because epochs arrive in
//! order, without gaps (WAL catch-up first, then the live feed),
//! [`Engine::apply_epoch`] refuses any other epoch, and each applies
//! atomically. Lag is observable, not hidden: [`ReplicaStatus::lag`] is
//! the distance between the transactor's durable epoch (shipped with
//! every frame) and the follower's epoch.
//!
//! **Self-healing.** A lost connection (or a `Lagged` cutoff) is not
//! fatal: the apply thread reconnects with bounded exponential backoff
//! plus jitter and re-subscribes from the follower's current
//! [`Engine::epoch`]. The server's WAL catch-up for `(epoch,
//! start_epoch]` makes resume **exactly-once** — every epoch committed
//! while the replica was away is replayed, in order, never doubled. A
//! durable follower resumes the same way after a restart, from the
//! epoch it recovered. The one terminal resume fault is
//! [`SfcError::EpochTruncated`]: the transactor checkpointed past the
//! follower's position, and the WAL no longer holds the missing history
//! (bootstrap a fresh follower instead). The whole story is exposed by
//! [`Replica::status`] — applied/durable/lag, reconnect count,
//! connection state, last error.

use crate::client::{jitter_salt, Client, EpochEvent, EpochStream, NetConfig, RetryPolicy};
use onion_core::{SfcError, SpaceFillingCurve};
use sfc_engine::Engine;
use sfc_index::{Backend, MemoryBackend, Record, WalCodec};
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
    /// Bound on each connect and its preamble exchange, for the first
    /// subscription and every reconnect.
    pub connect_timeout: Duration,
    /// How long to wait for the transactor to acknowledge a
    /// subscription.
    pub subscribe_deadline: Duration,
    /// Reconnect schedule after the stream dies: up to `max_retries`
    /// *consecutive* failed reconnect attempts (the counter resets on
    /// every successfully applied epoch), backing off exponentially
    /// with deterministic jitter between attempts.
    pub reconnect: RetryPolicy,
}

impl ReplicaConfig {
    /// The transport config of one subscription connection. The replica
    /// never retries a request: its retry unit is the whole
    /// subscription, governed by [`reconnect`](Self::reconnect).
    fn net(&self) -> NetConfig {
        NetConfig {
            connect_timeout: self.connect_timeout,
            request_deadline: Some(self.subscribe_deadline),
            retry: RetryPolicy::none(),
        }
    }
}

impl Default for ReplicaConfig {
    /// Self-healing defaults: a 5 s connect budget, a 10 s subscribe
    /// deadline and 16 consecutive reconnect attempts backing off
    /// 10 ms → 1 s.
    fn default() -> Self {
        ReplicaConfig {
            connect_timeout: Duration::from_secs(5),
            subscribe_deadline: Duration::from_secs(10),
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
    /// still served; [`ReplicaStatus::last_error`] holds the cause.
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
    /// The follower's epoch ([`Engine::epoch`]); every read observes at
    /// least this.
    pub applied: u64,
    /// The transactor's fsync-confirmed epoch as of the last frame.
    pub durable: u64,
    /// `durable - applied`, floored at zero. A transactor ships an epoch
    /// only once it is durable, so a follower never runs ahead of it:
    /// each frame's `durable` is at least the epoch it carries.
    pub lag: u64,
    /// Successful reconnects over the replica's lifetime.
    pub reconnects: u64,
    /// Current subscription state.
    pub state: ReplicaState,
    /// The most recent stream error, transient or terminal: once
    /// `state` is [`ReplicaState::Failed`], the fault that ended the
    /// stream.
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

    /// Terminal: record the fault and flip to `Failed`.
    fn park(&self, e: SfcError) {
        self.note_error(&e);
        self.set_state(STATE_FAILED);
    }
}

/// A read replica of a remote transactor: a follower [`Engine`] plus
/// the background thread that replays the transactor's epoch stream
/// into it. Created by [`Replica::start`]; read through
/// [`Replica::engine`].
pub struct Replica<C, V, const D: usize, B = MemoryBackend<Record<D, V>>> {
    engine: Arc<Engine<C, V, D, B>>,
    shared: Arc<Shared>,
    apply: Option<JoinHandle<()>>,
}

impl<C, V, const D: usize, B> Replica<C, V, D, B>
where
    C: SpaceFillingCurve<D> + Send + Sync + 'static,
    V: Clone + Send + Sync + WalCodec + 'static,
    B: Backend<Record<D, V>> + Send + Sync + 'static,
{
    /// Turns `engine` into a follower ([`Engine::into_follower`]) of the
    /// transactor served at `addr`, subscribes from the engine's own
    /// epoch — 0 for a fresh engine, the recovered epoch for a reopened
    /// durable one — and starts replaying, with self-healing
    /// [`ReplicaConfig`] defaults.
    ///
    /// `engine`'s curve must equal the transactor's (keys are derived
    /// from points identically on both sides); its shard count and
    /// backend are free to differ — like recovery, replication
    /// re-partitions.
    ///
    /// # Errors
    /// [`SfcError::Storage`] if `engine` has pending writes (they are
    /// not the transactor's history), or on connection failure. (The
    /// *initial* connect is not retried: a replica that never connected
    /// has no prefix worth serving.)
    pub fn start(addr: &str, engine: Engine<C, V, D, B>) -> Result<Self, SfcError> {
        Self::start_with(addr, engine, ReplicaConfig::default())
    }

    /// [`Replica::start`] with explicit resilience knobs — a `reconnect`
    /// of [`RetryPolicy::none`] makes the replica stop at the first
    /// stream fault and keep serving its last applied prefix.
    ///
    /// # Errors
    /// As [`Replica::start`].
    pub fn start_with(
        addr: &str,
        engine: Engine<C, V, D, B>,
        config: ReplicaConfig,
    ) -> Result<Self, SfcError> {
        let pending = engine.pending();
        if pending > 0 {
            return Err(SfcError::Storage {
                context: format!("a replica's engine must not hold pending writes ({pending})"),
            });
        }
        let engine = Arc::new(engine.into_follower());
        let stream = Client::<C, V, D>::connect_with(addr, config.net())?
            .subscribe_epochs(engine.epoch())?;
        let shared = Arc::new(Shared {
            durable: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            state: AtomicU8::new(STATE_STREAMING),
            last_error: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let apply = {
            let addr = addr.to_string();
            let engine = Arc::clone(&engine);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || apply_loop(&addr, config, stream, &engine, &shared))
        };
        Ok(Replica {
            engine,
            shared,
            apply: Some(apply),
        })
    }

    /// The follower engine: every read (`Get`, `Query`, `QueryAsOf`,
    /// `Stats`, `Explain`) goes through its [`Engine::execute`], and
    /// [`Server::spawn`](crate::Server::spawn) serves it over TCP.
    pub fn engine(&self) -> &Arc<Engine<C, V, D, B>> {
        &self.engine
    }

    /// One consistent health snapshot: applied/durable/lag, reconnect
    /// count, connection state, last stream error.
    pub fn status(&self) -> ReplicaStatus {
        let applied = self.engine.epoch();
        let durable = self.shared.durable.load(Ordering::Acquire);
        ReplicaStatus {
            applied,
            durable,
            lag: durable.saturating_sub(applied),
            reconnects: self.shared.reconnects.load(Ordering::Acquire),
            state: match self.shared.state.load(Ordering::Acquire) {
                STATE_STREAMING => ReplicaState::Streaming,
                STATE_RECONNECTING => ReplicaState::Reconnecting,
                STATE_FAILED => ReplicaState::Failed,
                _ => ReplicaState::Stopped,
            },
            last_error: self
                .shared
                .last_error
                .lock()
                .expect("error slot poisoned")
                .clone(),
        }
    }

    /// Stops the apply thread and drops the subscription. The follower
    /// engine lives on in every [`Arc`] handed out by
    /// [`Replica::engine`].
    pub fn stop(mut self) {
        self.stop_and_join();
    }
}

impl<C, V, const D: usize, B> Replica<C, V, D, B> {
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

impl<C, V, const D: usize, B> Drop for Replica<C, V, D, B> {
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

/// The replay loop: hand each epoch frame to [`Engine::apply_epoch`],
/// which enforces gapless, in-order delivery. A dead stream (transport
/// loss, `Lagged` cutoff) is healed by reconnecting with backoff and
/// re-subscribing from the follower's epoch — the WAL catch-up makes
/// the resume exactly-once. Only unhealable faults stop the thread: a
/// truncated epoch history, a refused or failed epoch (corrupt stream —
/// serving a torn state is worse than serving a stale prefix), or an
/// exhausted reconnect budget.
fn apply_loop<C, V, const D: usize, B>(
    addr: &str,
    config: ReplicaConfig,
    initial: EpochStream<D, V>,
    engine: &Engine<C, V, D, B>,
    shared: &Shared,
) where
    C: SpaceFillingCurve<D> + Send + Sync + 'static,
    V: Clone + Send + Sync + WalCodec + 'static,
    B: Backend<Record<D, V>> + Send + Sync,
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
                // Resume from the follower's epoch: the server replays
                // `(epoch, start_epoch]` from its WAL, then the live
                // feed takes over — exactly-once.
                match Client::<C, V, D>::connect_with(addr, config.net())
                    .and_then(|c| c.subscribe_epochs(engine.epoch()))
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
                    if let Err(e) = engine.apply_epoch(epoch, ops) {
                        shared.park(e);
                        return;
                    }
                    shared.durable.store(durable_epoch, Ordering::Release);
                    attempt = 0;
                }
                Ok(Some(EpochEvent::Lagged)) => {
                    // The transactor cut us off for falling behind. Not
                    // fatal under self-healing: re-subscribing from the
                    // follower's epoch is precisely the catch-up protocol.
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
