//! The verb set: one [`Request`] enum and one [`Response`] enum for every
//! caller, answered by one dispatcher, [`Engine::execute`](crate::Engine::execute).
//! An in-process caller passes a `Request` to it directly; `sfc-net`
//! ships the same `Request` over a socket and hands it to the same call.
//!
//! [`Request`] holds the data-plane verbs (`Get`, `Query`, `QueryAsOf`,
//! `Insert`, `Update`, `Delete`), the admin verbs (`Flush`, `Checkpoint`,
//! `Stats`, `Explain`, `Ping`) and the replication tap `SubscribeEpochs`.
//! [`Response`] holds one answer per verb plus the stream frames of
//! `SubscribeEpochs`. [`Response::Error`] is the wire form of an `Err`:
//! [`SfcError`] encodes with its stable numeric codes (`SfcError::code`),
//! so a remote caller sees the same typed error a local caller would.
//!
//! Both enums encode through the WAL's [`WalCodec`] — one tag byte, then
//! the variant's fields in the same little-endian primitives every WAL
//! frame uses — so the payload layer of the wire protocol is the
//! already-proptested WAL codec, and an epoch shipped to a replica is
//! encoded by the identical code path that wrote it to the log.

use crate::{Admitted, EngineStats};
use onion_core::{Point, SfcError};
use sfc_clustering::RectQuery;
use sfc_index::{decode_seq, encode_seq, BatchOp, QueryPlan, Record, WalCodec, WalCursor};

/// One verb. `V` is the record payload type, `D` the dimension — the
/// same generics the engine serves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request<const D: usize, V> {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Point lookup: pending-log overlay first, then the owning shard.
    Get(Point<D>),
    /// Rectangle query through the adaptive planner (epoch-boundary
    /// consistent; does not read the pending log).
    Query(RectQuery<D>),
    /// Rectangle query against a **past** epoch — a Datomic-style
    /// time-travel read: answered from the retention window when the
    /// version is still held, reconstructed by `snapshot + WAL prefix`
    /// replay on durable engines when it is not. See
    /// [`Engine::query_as_of`](crate::Engine::query_as_of).
    QueryAsOf {
        /// The epoch whose state to observe (as counted by
        /// [`Engine::epoch`](crate::Engine::epoch)).
        epoch: u64,
        /// The rectangle to query at that epoch.
        query: RectQuery<D>,
    },
    /// Insert a record (duplicates allowed), deferred to the next epoch.
    /// On an occupied cell this appends a duplicate: point gets return
    /// the **newest** record (both in the pending-log overlay and once
    /// applied), so read-your-writes holds; rectangle scans still return
    /// every duplicate in insertion order. Use [`Request::Update`] to
    /// replace instead of append.
    Insert(Point<D>, V),
    /// Replace-or-insert the payload at a point, deferred to the next
    /// epoch.
    Update(Point<D>, V),
    /// Remove the oldest record at a point, deferred to the next epoch.
    Delete(Point<D>),
    /// Apply every pending write; answered with [`Response::Flushed`].
    Flush,
    /// Compact the WAL into a snapshot; answered with
    /// [`Response::Checkpointed`]. Durable engines only.
    Checkpoint,
    /// Engine counters; answered with [`Response::Stats`].
    Stats,
    /// Plan a query without executing it; answered with
    /// [`Response::Explained`].
    Explain(RectQuery<D>),
    /// Switch a connection into a one-way epoch stream: every epoch
    /// committed after `from` arrives as a [`Response::Epoch`] frame, in
    /// order, without gaps — WAL catch-up first, then live frames. No
    /// further requests are read from the connection. A connection mode,
    /// not a call: [`Engine::execute`](crate::Engine::execute) refuses
    /// it with a typed error.
    SubscribeEpochs {
        /// Replay starts after this epoch (exclusive); `0` streams the
        /// full history a transactor's WAL still holds.
        from: u64,
    },
}

/// One answer. Every variant a [`Request`] can produce, plus the stream
/// frames of `SubscribeEpochs`.
#[derive(Clone, Debug, PartialEq)]
pub enum Response<const D: usize, V> {
    /// [`Request::Ping`] acknowledged.
    Pong,
    /// A point lookup's result.
    Value(Option<V>),
    /// A query's matching records, in curve-key order.
    Records(Vec<Record<D, V>>),
    /// A write was admitted into the log — see [`Admitted`].
    Admitted(Admitted),
    /// [`Request::Flush`] applied this many writes.
    Flushed {
        /// Writes the flush applied (0 if the log was already empty).
        applied: u64,
    },
    /// [`Request::Checkpoint`] compacted the log at this epoch.
    Checkpointed {
        /// The epoch the snapshot captured.
        epoch: u64,
    },
    /// [`Request::Stats`]: the engine's live counters.
    Stats(EngineStats),
    /// [`Request::Explain`]: the plan the next execution would take.
    Explained(QueryPlan),
    /// One committed epoch, streamed to a [`Request::SubscribeEpochs`]
    /// subscriber.
    Epoch {
        /// The epoch these ops committed as. Strictly consecutive per
        /// subscription.
        epoch: u64,
        /// The transactor's fsync-confirmed epoch at send time — what a
        /// replica reports its lag against.
        durable_epoch: u64,
        /// The epoch's ops in submission order, ready for
        /// `apply_batch`.
        ops: Vec<BatchOp<D, V>>,
    },
    /// The subscriber fell too far behind and its backlog was dropped;
    /// the stream is dead. Re-subscribe and catch up from the WAL.
    Lagged,
    /// [`Request::SubscribeEpochs`] acknowledged: the live tap is
    /// registered, so every epoch committed after this frame is
    /// guaranteed to arrive. Always the stream's first frame — a
    /// subscriber that must not miss epochs (a replica) waits for it
    /// before letting writes proceed.
    Subscribed {
        /// The feed position at registration: catch-up frames cover
        /// `(from, start_epoch]`, the live feed everything after.
        start_epoch: u64,
    },
    /// The wire form of an `Err`: the typed error a local caller gets.
    /// [`Engine::execute`](crate::Engine::execute) never returns it
    /// inside `Ok`.
    Error(SfcError),
}

/// Alias of [`Request`], the name the `perfbench` crate drives the
/// engine by; new code names `Request`.
pub type Op<const D: usize, V> = Request<D, V>;

/// Alias of [`Response`], the name the `perfbench` crate matches answers
/// by; new code names `Response`.
pub type Reply<const D: usize, V> = Response<D, V>;

impl<const D: usize, V> Request<D, V> {
    /// Whether reissuing this request verbatim cannot change server
    /// state — the contract the client's retry loop keys on. Reads and
    /// probes qualify; writes (`Insert`/`Update`/`Delete`) and the
    /// state-advancing admin verbs (`Flush`/`Checkpoint`) do not, and
    /// neither does `SubscribeEpochs` (re-subscribing is the replica's
    /// resume protocol, not a blind retry).
    pub fn is_idempotent(&self) -> bool {
        matches!(
            self,
            Request::Ping
                | Request::Get(_)
                | Request::Query(_)
                | Request::QueryAsOf { .. }
                | Request::Stats
                | Request::Explain(_)
        )
    }

    /// The verb name alone, for error contexts — payloads may not be
    /// `Debug`.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "Ping",
            Request::Get(_) => "Get",
            Request::Query(_) => "Query",
            Request::QueryAsOf { .. } => "QueryAsOf",
            Request::Insert(..) => "Insert",
            Request::Update(..) => "Update",
            Request::Delete(_) => "Delete",
            Request::Flush => "Flush",
            Request::Checkpoint => "Checkpoint",
            Request::Stats => "Stats",
            Request::Explain(_) => "Explain",
            Request::SubscribeEpochs { .. } => "SubscribeEpochs",
        }
    }
}

/// Generated workload streams ([`sfc_workloads::mixed_op_stream`]) map
/// one-to-one onto data-plane requests, so benches and tests can drive
/// an engine with `stream.into_iter().map(Request::from)`.
impl<const D: usize> From<sfc_workloads::StreamOp<D>> for Request<D, u64> {
    fn from(op: sfc_workloads::StreamOp<D>) -> Self {
        use sfc_workloads::StreamOp;
        match op {
            StreamOp::Get(p) => Request::Get(p),
            StreamOp::Query(q) => Request::Query(q),
            StreamOp::Insert(p, v) => Request::Insert(p, v),
            StreamOp::Update(p, v) => Request::Update(p, v),
            StreamOp::Delete(p) => Request::Delete(p),
        }
    }
}

const REQ_PING: u8 = 0;
const REQ_GET: u8 = 1;
const REQ_QUERY: u8 = 2;
const REQ_QUERY_AS_OF: u8 = 3;
const REQ_INSERT: u8 = 4;
const REQ_UPDATE: u8 = 5;
const REQ_DELETE: u8 = 6;
const REQ_FLUSH: u8 = 7;
const REQ_CHECKPOINT: u8 = 8;
const REQ_STATS: u8 = 9;
const REQ_EXPLAIN: u8 = 10;
const REQ_SUBSCRIBE: u8 = 11;

impl<const D: usize, V: WalCodec> WalCodec for Request<D, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ping => buf.push(REQ_PING),
            Request::Get(p) => {
                buf.push(REQ_GET);
                p.encode(buf);
            }
            Request::Query(q) => {
                buf.push(REQ_QUERY);
                q.encode(buf);
            }
            Request::QueryAsOf { epoch, query } => {
                buf.push(REQ_QUERY_AS_OF);
                epoch.encode(buf);
                query.encode(buf);
            }
            Request::Insert(p, v) => {
                buf.push(REQ_INSERT);
                p.encode(buf);
                v.encode(buf);
            }
            Request::Update(p, v) => {
                buf.push(REQ_UPDATE);
                p.encode(buf);
                v.encode(buf);
            }
            Request::Delete(p) => {
                buf.push(REQ_DELETE);
                p.encode(buf);
            }
            Request::Flush => buf.push(REQ_FLUSH),
            Request::Checkpoint => buf.push(REQ_CHECKPOINT),
            Request::Stats => buf.push(REQ_STATS),
            Request::Explain(q) => {
                buf.push(REQ_EXPLAIN);
                q.encode(buf);
            }
            Request::SubscribeEpochs { from } => {
                buf.push(REQ_SUBSCRIBE);
                from.encode(buf);
            }
        }
    }

    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        Some(match cur.u8()? {
            REQ_PING => Request::Ping,
            REQ_GET => Request::Get(Point::decode(cur)?),
            REQ_QUERY => Request::Query(RectQuery::decode(cur)?),
            REQ_QUERY_AS_OF => Request::QueryAsOf {
                epoch: u64::decode(cur)?,
                query: RectQuery::decode(cur)?,
            },
            REQ_INSERT => Request::Insert(Point::decode(cur)?, V::decode(cur)?),
            REQ_UPDATE => Request::Update(Point::decode(cur)?, V::decode(cur)?),
            REQ_DELETE => Request::Delete(Point::decode(cur)?),
            REQ_FLUSH => Request::Flush,
            REQ_CHECKPOINT => Request::Checkpoint,
            REQ_STATS => Request::Stats,
            REQ_EXPLAIN => Request::Explain(RectQuery::decode(cur)?),
            REQ_SUBSCRIBE => Request::SubscribeEpochs {
                from: u64::decode(cur)?,
            },
            _ => return None,
        })
    }
}

const RESP_PONG: u8 = 0;
const RESP_VALUE: u8 = 1;
const RESP_RECORDS: u8 = 2;
const RESP_ADMITTED: u8 = 3;
const RESP_FLUSHED: u8 = 4;
const RESP_CHECKPOINTED: u8 = 5;
const RESP_STATS: u8 = 6;
const RESP_EXPLAINED: u8 = 7;
const RESP_EPOCH: u8 = 8;
const RESP_LAGGED: u8 = 9;
const RESP_ERROR: u8 = 10;
const RESP_SUBSCRIBED: u8 = 11;

impl<const D: usize, V: WalCodec> WalCodec for Response<D, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Pong => buf.push(RESP_PONG),
            Response::Value(v) => {
                buf.push(RESP_VALUE);
                match v {
                    Some(v) => {
                        true.encode(buf);
                        v.encode(buf);
                    }
                    None => false.encode(buf),
                }
            }
            Response::Records(rs) => {
                buf.push(RESP_RECORDS);
                encode_seq(rs, buf);
            }
            Response::Admitted(a) => {
                buf.push(RESP_ADMITTED);
                a.encode(buf);
            }
            Response::Flushed { applied } => {
                buf.push(RESP_FLUSHED);
                applied.encode(buf);
            }
            Response::Checkpointed { epoch } => {
                buf.push(RESP_CHECKPOINTED);
                epoch.encode(buf);
            }
            Response::Stats(s) => {
                buf.push(RESP_STATS);
                s.encode(buf);
            }
            Response::Explained(p) => {
                buf.push(RESP_EXPLAINED);
                p.encode(buf);
            }
            Response::Epoch {
                epoch,
                durable_epoch,
                ops,
            } => {
                buf.push(RESP_EPOCH);
                epoch.encode(buf);
                durable_epoch.encode(buf);
                encode_seq(ops, buf);
            }
            Response::Lagged => buf.push(RESP_LAGGED),
            Response::Error(e) => {
                buf.push(RESP_ERROR);
                e.encode(buf);
            }
            Response::Subscribed { start_epoch } => {
                buf.push(RESP_SUBSCRIBED);
                start_epoch.encode(buf);
            }
        }
    }

    fn decode(cur: &mut WalCursor<'_>) -> Option<Self> {
        Some(match cur.u8()? {
            RESP_PONG => Response::Pong,
            RESP_VALUE => Response::Value(if bool::decode(cur)? {
                Some(V::decode(cur)?)
            } else {
                None
            }),
            RESP_RECORDS => Response::Records(decode_seq(cur)?),
            RESP_ADMITTED => Response::Admitted(Admitted::decode(cur)?),
            RESP_FLUSHED => Response::Flushed {
                applied: u64::decode(cur)?,
            },
            RESP_CHECKPOINTED => Response::Checkpointed {
                epoch: u64::decode(cur)?,
            },
            RESP_STATS => Response::Stats(EngineStats::decode(cur)?),
            RESP_EXPLAINED => Response::Explained(QueryPlan::decode(cur)?),
            RESP_EPOCH => Response::Epoch {
                epoch: u64::decode(cur)?,
                durable_epoch: u64::decode(cur)?,
                ops: decode_seq(cur)?,
            },
            RESP_LAGGED => Response::Lagged,
            RESP_ERROR => Response::Error(SfcError::decode(cur)?),
            RESP_SUBSCRIBED => Response::Subscribed {
                start_epoch: u64::decode(cur)?,
            },
            _ => return None,
        })
    }
}
