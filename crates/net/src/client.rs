//! The client handle: the engine's verb set over a socket.
//!
//! A [`Client`] holds a reconnecting connection to a
//! [`Server`](crate::Server). [`Client::execute`] has the signature of
//! [`Engine::execute`](sfc_engine::Engine::execute), and the server
//! answers through that same dispatcher, so switching a caller from
//! embedded to networked is one line — `engine.execute(r)` ↔
//! `client.execute(r)` — and a no-op semantically. The loopback
//! integration tests pin exactly that: remote and in-process answers are
//! identical, byte for byte, for every verb.

use crate::frame::{lost_err, read_hello, write_frame, write_hello, FrameReader, PollFrame};
use onion_core::{Point, SfcError, SpaceFillingCurve};
use sfc_clustering::RectQuery;
use sfc_engine::{Admitted, EngineStats, Request, Response};
use sfc_index::{BatchOp, QueryPlan, Record, WalCodec, WalCursor};
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Backoff schedule for retrying **idempotent** requests that fail at
/// the transport (`Get`/`Query`/`QueryAsOf`/`Stats`/`Explain`/`Ping`).
/// Writes are never governed by this policy: a write orphaned after its
/// bytes left the socket surfaces as [`SfcError::AmbiguousWrite`]
/// instead of being silently reissued.
///
/// Delays double from [`base_backoff`](Self::base_backoff) per attempt,
/// saturate at [`max_backoff`](Self::max_backoff), and carry jitter in
/// `[50%, 100%]` of the computed delay. The jitter is a pure function of
/// the attempt and a salt ([`Self::backoff`]), so a failing schedule
/// replays exactly from its salt; each [`Client`] and
/// [`Replica`](crate::Replica) draws its own salt from the server
/// address, a process-wide instance counter and the process id, so a
/// fleet of them retrying the same outage decorrelates without any
/// global randomness source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_backoff: Duration,
    /// Upper bound the exponential schedule saturates at.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// No retries: every transport failure surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The delay before retry number `attempt` (0-based), jittered
    /// deterministically by `salt`: same salt and attempt, same delay.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        // xorshift the salt with the attempt for a jitter factor in
        // [0.5, 1.0): decorrelated, reproducible, no RNG dependency.
        let mut x = salt ^ (u64::from(attempt) << 32) ^ 0x9E37_79B9_7F4A_7C15;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let jitter = 0.5 + (x % 1024) as f64 / 2048.0;
        exp.mul_f64(jitter)
    }
}

/// Transport knobs for a [`Client`] (and for the subscription a
/// [`Replica`](crate::Replica) rides): how long to wait for a
/// connection, how long to wait per request, and what to retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// Bound on `TcpStream::connect` **and** on the preamble exchange,
    /// so a black-holed address fails within this budget instead of
    /// hanging [`Client::connect`] forever.
    pub connect_timeout: Duration,
    /// Per-request deadline covering send + receive. `None` waits
    /// indefinitely. A tripped deadline poisons the connection — a late
    /// response must never be mistaken for the *next* request's answer —
    /// so the following request reconnects.
    pub request_deadline: Option<Duration>,
    /// Retry schedule for idempotent requests (see [`RetryPolicy`]).
    pub retry: RetryPolicy,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout: Duration::from_secs(10),
            request_deadline: None,
            retry: RetryPolicy::none(),
        }
    }
}

/// A framed connection to a server.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str, config: &NetConfig) -> Result<Conn, SfcError> {
        let candidates = addr
            .to_socket_addrs()
            .map_err(|e| lost_err(format!("resolve {addr}"), e))?;
        let mut stream = None;
        let mut last_err = None;
        for candidate in candidates {
            match TcpStream::connect_timeout(&candidate, config.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let mut stream = match (stream, last_err) {
            (Some(s), _) => s,
            (None, Some(e)) => return Err(lost_err(format!("connect {addr}"), e)),
            (None, None) => {
                return Err(SfcError::ConnectionLost {
                    context: format!("connect {addr}: no addresses resolved"),
                })
            }
        };
        stream.set_nodelay(true).ok();
        write_hello(&mut stream)?;
        // The preamble read shares the connect budget: a peer that
        // accepts the socket but never speaks fails the open legibly.
        read_hello(&mut stream, Some(config.connect_timeout))?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
            buf: Vec::new(),
        })
    }

    fn send<const D: usize, V: WalCodec>(&mut self, req: &Request<D, V>) -> Result<(), SfcError> {
        write_frame(&mut self.stream, &mut self.buf, req)
    }

    fn recv<const D: usize, V: WalCodec>(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<Response<D, V>>, SfcError> {
        let payload = match self.reader.poll(&mut self.stream, timeout)? {
            PollFrame::Frame(payload) => payload,
            PollFrame::Idle => return Ok(None),
            PollFrame::Closed => {
                return Err(SfcError::ConnectionLost {
                    context: "server closed the connection".into(),
                })
            }
        };
        let mut cur = WalCursor::new(payload);
        Response::decode(&mut cur)
            .map(Some)
            .ok_or(SfcError::Storage {
                context: "undecodable response".into(),
            })
    }

    /// Blocks until a full response arrives, the connection dies, or
    /// `deadline` elapses ([`SfcError::DeadlineExceeded`]).
    fn recv_response<const D: usize, V: WalCodec>(
        &mut self,
        deadline: Option<Duration>,
    ) -> Result<Response<D, V>, SfcError> {
        let start = Instant::now();
        loop {
            let remaining = match deadline {
                None => None,
                Some(d) => match d.checked_sub(start.elapsed()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => {
                        return Err(SfcError::DeadlineExceeded {
                            context: format!("no response within {d:?}"),
                        })
                    }
                },
            };
            if let Some(resp) = self.recv(remaining)? {
                return Ok(resp);
            }
            // Idle poll — the deadline arithmetic above loops us out.
        }
    }
}

/// A fresh backoff jitter salt for one client or replica of `addr` —
/// FNV-1a over the address, a process-wide instance counter and the
/// process id. Every call returns a different salt, so two instances of
/// one address (in one process or in two) draw different schedules,
/// while each instance's schedule stays a pure function of its salt.
/// Clients and replicas both derive it here.
pub(crate) fn jitter_salt(addr: &str) -> u64 {
    static INSTANCES: AtomicU64 = AtomicU64::new(0);
    let instance = INSTANCES.fetch_add(1, Ordering::Relaxed);
    addr.bytes()
        .chain(instance.to_le_bytes())
        .chain(std::process::id().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |salt, b| {
            (salt ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// The serving API over TCP: a server address plus [`NetConfig`] around
/// an optional live connection. A dead or deadline-poisoned connection
/// is dropped and reopened lazily by the next request.
/// `Client::<C, V, D>` mirrors the engine's generics; the curve type `C`
/// is only a marker naming the curve the server keys by.
pub struct Client<C, V, const D: usize> {
    addr: String,
    config: NetConfig,
    conn: Option<Conn>,
    /// This client's backoff jitter salt, from [`jitter_salt`].
    salt: u64,
    _types: PhantomData<fn() -> (C, V)>,
}

impl<C, V, const D: usize> Client<C, V, D>
where
    C: SpaceFillingCurve<D>,
    V: Clone + Send + Sync + WalCodec,
{
    fn ensure_conn(&mut self) -> Result<&mut Conn, SfcError> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(&self.addr, &self.config)?);
        }
        Ok(self.conn.as_mut().expect("connection just opened"))
    }

    /// One request attempt over the current (or a freshly opened)
    /// connection. Any failure drops the connection so the next attempt
    /// starts clean; a non-idempotent request that fails after its
    /// bytes were sent is wrapped as [`SfcError::AmbiguousWrite`].
    fn try_request(&mut self, req: &Request<D, V>) -> Result<Response<D, V>, SfcError> {
        let deadline = self.config.request_deadline;
        let idempotent = req.is_idempotent();
        let verb = req.verb();
        let conn = self.ensure_conn()?;
        let mut outcome = match conn.send(req) {
            // The frame writer refused the request (over MAX_FRAME)
            // before sending a byte: the server saw nothing, so the
            // error is final for every verb and the connection stays
            // clean for the next request.
            Err(e) if !e.is_transport() => return Err(e),
            sent => sent.and_then(|()| conn.recv_response(deadline)),
        };
        if let Err(e) = &outcome {
            if e.is_transport() {
                // A server refusing admission answers with one typed
                // error frame and closes; depending on timing the local
                // send can fail (broken pipe) before that frame is
                // read. The parting refusal is still in the receive
                // buffer — prefer it over the raced transport error.
                if let Ok(Some(resp @ Response::Error(SfcError::Unavailable { .. }))) =
                    conn.recv(Some(Duration::from_millis(20)))
                {
                    outcome = Ok(resp);
                }
            }
        }
        match outcome {
            Ok(resp) => {
                if matches!(resp, Response::Error(SfcError::Unavailable { .. })) {
                    // A busy server answers and closes; don't reuse.
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                if idempotent {
                    Err(e)
                } else {
                    // From the first sent byte on, the server may have
                    // executed the write even though we never saw the
                    // response. Name the ambiguity instead of guessing.
                    Err(SfcError::AmbiguousWrite {
                        context: format!("{verb}: {e}"),
                    })
                }
            }
        }
    }

    /// Connects to a [`Server`](crate::Server) with [`NetConfig`]
    /// defaults (10 s connect budget, no request deadline, no retries)
    /// and performs the preamble exchange.
    ///
    /// # Errors
    /// On connection failure, a connect that exceeds the budget, or a
    /// peer that is not speaking
    /// [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION).
    pub fn connect(addr: &str) -> Result<Self, SfcError> {
        Self::connect_with(addr, NetConfig::default())
    }

    /// [`Client::connect`] with explicit transport knobs. The address
    /// and config are retained: a connection lost later is reopened
    /// transparently by the next request (subject to `config.retry` for
    /// idempotent requests; writes surface the failure instead).
    ///
    /// # Errors
    /// As [`Client::connect`].
    pub fn connect_with(addr: &str, config: NetConfig) -> Result<Self, SfcError> {
        let mut client = Client {
            addr: addr.to_string(),
            config,
            conn: None,
            salt: jitter_salt(addr),
            _types: PhantomData,
        };
        client.ensure_conn()?;
        Ok(client)
    }

    /// Sends one request and waits for its response — the wire twin of
    /// [`Engine::execute`](sfc_engine::Engine::execute), with its
    /// signature and its answers, and the raw API every typed helper
    /// below goes through.
    ///
    /// Idempotent requests that fail at the transport (connection lost,
    /// torn frame) or are turned away pre-execution
    /// ([`SfcError::Unavailable`]) are retried per the configured
    /// [`RetryPolicy`], reconnecting between attempts. Writes are never
    /// auto-retried: a write orphaned after send returns
    /// [`SfcError::AmbiguousWrite`], and a busy response reaches the
    /// caller typed (retrying *is* safe there — the server guarantees
    /// the request was not admitted — but the decision stays with the
    /// caller). A tripped deadline is returned immediately for every
    /// verb: the time budget is already spent.
    ///
    /// # Errors
    /// The request's own typed error (e.g. out-of-bounds), decoded from
    /// the server's [`Response::Error`] frame — including a response
    /// over [`MAX_FRAME`](crate::MAX_FRAME); a transport failure after
    /// retries are exhausted; or a typed [`SfcError::Storage`] for a
    /// request whose encoding exceeds `MAX_FRAME`: that one is refused
    /// before any byte is sent, so it is never ambiguous.
    pub fn execute(&mut self, request: Request<D, V>) -> Result<Response<D, V>, SfcError> {
        let retryable = request.is_idempotent();
        let mut attempt: u32 = 0;
        loop {
            let outcome = self.try_request(&request);
            let failed_safely = match &outcome {
                Ok(Response::Error(e)) => e.is_pre_execution(),
                Ok(_) => false,
                Err(e) => e.is_transport(),
            };
            if !(retryable && failed_safely) || attempt >= self.config.retry.max_retries {
                // `try_request` has already told a lost write from a
                // refused one, so a typed refusal arrives as itself.
                return match outcome? {
                    Response::Error(e) => Err(e),
                    response => Ok(response),
                };
            }
            std::thread::sleep(self.config.retry.backoff(attempt, self.salt));
            attempt += 1;
        }
    }

    /// Point lookup.
    ///
    /// # Errors
    /// If `p` lies outside the universe, or on transport failure.
    pub fn get(&mut self, p: Point<D>) -> Result<Option<V>, SfcError> {
        match self.execute(Request::Get(p))? {
            Response::Value(v) => Ok(v),
            other => unexpected("Value", &other),
        }
    }

    /// Rectangle query; records in curve-key order.
    ///
    /// # Errors
    /// If the query exceeds the universe, or on transport failure.
    pub fn query(&mut self, q: RectQuery<D>) -> Result<Vec<Record<D, V>>, SfcError> {
        match self.execute(Request::Query(q))? {
            Response::Records(rs) => Ok(rs),
            other => unexpected("Records", &other),
        }
    }

    /// Admits an insert.
    ///
    /// # Errors
    /// If `p` lies outside the universe, or on transport failure.
    pub fn insert(&mut self, p: Point<D>, v: V) -> Result<Admitted, SfcError> {
        match self.execute(Request::Insert(p, v))? {
            Response::Admitted(a) => Ok(a),
            other => unexpected("Admitted", &other),
        }
    }

    /// Admits an update (replace-or-insert).
    ///
    /// # Errors
    /// If `p` lies outside the universe, or on transport failure.
    pub fn update(&mut self, p: Point<D>, v: V) -> Result<Admitted, SfcError> {
        match self.execute(Request::Update(p, v))? {
            Response::Admitted(a) => Ok(a),
            other => unexpected("Admitted", &other),
        }
    }

    /// Admits a delete.
    ///
    /// # Errors
    /// If `p` lies outside the universe, or on transport failure.
    pub fn delete(&mut self, p: Point<D>) -> Result<Admitted, SfcError> {
        match self.execute(Request::Delete(p))? {
            Response::Admitted(a) => Ok(a),
            other => unexpected("Admitted", &other),
        }
    }

    /// Applies every pending write; returns how many were applied.
    ///
    /// # Errors
    /// On a WAL commit failure or transport failure.
    pub fn flush(&mut self) -> Result<u64, SfcError> {
        match self.execute(Request::Flush)? {
            Response::Flushed { applied } => Ok(applied),
            other => unexpected("Flushed", &other),
        }
    }

    /// Compacts the server's WAL into a snapshot (durable engines).
    ///
    /// # Errors
    /// On in-memory engines, snapshot I/O failure, or transport failure.
    pub fn checkpoint(&mut self) -> Result<u64, SfcError> {
        match self.execute(Request::Checkpoint)? {
            Response::Checkpointed { epoch } => Ok(epoch),
            other => unexpected("Checkpointed", &other),
        }
    }

    /// The engine's live counters.
    ///
    /// # Errors
    /// On transport failure.
    pub fn stats(&mut self) -> Result<EngineStats, SfcError> {
        match self.execute(Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => unexpected("Stats", &other),
        }
    }

    /// Plans a query without executing it — `EXPLAIN` over the wire.
    ///
    /// # Errors
    /// If the query exceeds the universe, or on transport failure.
    pub fn explain(&mut self, q: RectQuery<D>) -> Result<QueryPlan, SfcError> {
        match self.execute(Request::Explain(q))? {
            Response::Explained(p) => Ok(p),
            other => unexpected("Explained", &other),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// On transport failure.
    pub fn ping(&mut self) -> Result<(), SfcError> {
        match self.execute(Request::Ping)? {
            Response::Pong => Ok(()),
            other => unexpected("Pong", &other),
        }
    }

    /// Turns this client into an epoch subscription starting after
    /// epoch `from` (exclusive): WAL catch-up frames first, then live
    /// epochs, in order, without gaps — the stream a read replica
    /// replays.
    ///
    /// # Errors
    /// On transport failure, or with the server's typed refusal.
    pub fn subscribe_epochs(mut self, from: u64) -> Result<EpochStream<D, V>, SfcError> {
        self.ensure_conn()?;
        let deadline = self.config.request_deadline;
        let mut conn = self.conn.take().expect("connection just ensured");
        conn.send(&Request::<D, V>::SubscribeEpochs { from })?;
        // Wait for the acknowledgment: once it arrives, the server's live
        // tap is registered and every epoch committed from here on is
        // guaranteed to be delivered.
        match conn.recv_response::<D, V>(deadline)? {
            Response::Subscribed { .. } => Ok(EpochStream {
                conn,
                _values: PhantomData,
            }),
            Response::Error(e) => Err(e),
            other => unexpected("Subscribed", &other),
        }
    }
}

/// One event from an [`EpochStream`].
#[derive(Clone, Debug, PartialEq)]
pub enum EpochEvent<const D: usize, V> {
    /// Epoch `epoch` committed with `ops`; the transactor's durable
    /// epoch stood at `durable_epoch` when the frame was sent.
    Epoch {
        /// The committed epoch number (strictly consecutive).
        epoch: u64,
        /// The transactor's fsync-confirmed epoch at send time.
        durable_epoch: u64,
        /// The epoch's ops in submission order.
        ops: Vec<BatchOp<D, V>>,
    },
    /// The subscription fell too far behind and was cut off; the stream
    /// is dead.
    Lagged,
}

/// A one-way stream of committed epochs, produced by
/// [`Client::subscribe_epochs`].
pub struct EpochStream<const D: usize, V> {
    conn: Conn,
    _values: PhantomData<fn() -> V>,
}

impl<const D: usize, V: Clone + WalCodec> EpochStream<D, V> {
    /// Waits up to `timeout` for the next event. `Ok(None)` means the
    /// timeout elapsed quietly — poll again.
    ///
    /// # Errors
    /// On transport failure, a poisoned stream, or a server-side error
    /// frame.
    pub fn poll(&mut self, timeout: Duration) -> Result<Option<EpochEvent<D, V>>, SfcError> {
        match self.conn.recv::<D, V>(Some(timeout))? {
            None => Ok(None),
            Some(Response::Epoch {
                epoch,
                durable_epoch,
                ops,
            }) => Ok(Some(EpochEvent::Epoch {
                epoch,
                durable_epoch,
                ops,
            })),
            Some(Response::Lagged) => Ok(Some(EpochEvent::Lagged)),
            Some(Response::Error(e)) => Err(e),
            Some(other) => unexpected("Epoch", &other),
        }
    }
}

/// A protocol violation: the server sent `got` where `expected` was due.
/// Names the variant alone — payloads may not be `Debug`.
fn unexpected<T, const D: usize, V>(expected: &str, got: &Response<D, V>) -> Result<T, SfcError> {
    let got = match got {
        Response::Pong => "Pong",
        Response::Value(_) => "Value",
        Response::Records(_) => "Records",
        Response::Admitted(_) => "Admitted",
        Response::Flushed { .. } => "Flushed",
        Response::Checkpointed { .. } => "Checkpointed",
        Response::Stats(_) => "Stats",
        Response::Explained(_) => "Explained",
        Response::Epoch { .. } => "Epoch",
        Response::Lagged => "Lagged",
        Response::Error(_) => "Error",
        Response::Subscribed { .. } => "Subscribed",
    };
    Err(SfcError::Storage {
        context: format!("protocol violation: expected {expected}, got {got}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Server;
    use onion_core::Onion2D;
    use sfc_engine::{Engine, EngineConfig};
    use sfc_index::{DiskModel, ShardedTable};
    use std::sync::Arc;

    #[test]
    fn clients_of_one_address_draw_different_backoff_schedules() {
        let table =
            ShardedTable::build(Onion2D::new(8).unwrap(), Vec::new(), DiskModel::ssd(), 1).unwrap();
        let engine = Arc::new(Engine::<Onion2D, u64, 2>::new(
            table,
            EngineConfig::default(),
        ));
        let server = Server::spawn(engine, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let a = Client::<Onion2D, u64, 2>::connect(&addr).unwrap();
        let b = Client::<Onion2D, u64, 2>::connect(&addr).unwrap();
        let policy = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        };
        let schedule = |salt: u64| -> Vec<Duration> {
            (0..8)
                .map(|attempt| policy.backoff(attempt, salt))
                .collect()
        };
        assert_ne!(
            schedule(a.salt),
            schedule(b.salt),
            "two clients of one server must not retry in lockstep"
        );
        assert_eq!(
            schedule(a.salt),
            schedule(a.salt),
            "a schedule is a pure function of its salt"
        );
    }
}
