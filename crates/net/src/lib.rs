//! # sfc-net
//!
//! The network layer of the Onion Curve workspace: the `sfc-engine`
//! serving layer put on the wire, behind a redesigned request/response
//! API, plus single-writer/many-reader replication.
//!
//! * **Framing** — the WAL's `SFCWAL01` idiom lifted onto a socket: a
//!   `SFCNET01` + version preamble, then length-prefixed
//!   `[len][crc32][payload]` frames (see [`frame`]); payloads are
//!   [`WalCodec`](sfc_index::WalCodec)-encoded, so the protocol's
//!   serialization layer is the already-proptested WAL codec.
//! * **Protocol** — `sfc-engine`'s verb set,
//!   [`Request`](sfc_engine::Request)/[`Response`](sfc_engine::Response):
//!   the data-plane verbs plus the admin verbs `Flush`, `Checkpoint`,
//!   `Stats`, `Explain`, `Ping`, and the replication tap
//!   `SubscribeEpochs`. Errors travel typed:
//!   [`SfcError`](onion_core::SfcError) is wire-representable with
//!   stable numeric codes.
//! * **Server** — [`Server`]: a blocking thread-per-connection server
//!   that hands every decoded request to
//!   [`Engine::execute`](sfc_engine::Engine::execute), the engine's one
//!   dispatcher, over any backend — a disk-resident engine serves like
//!   an in-memory one.
//! * **Client** — [`Client`]: [`Client::execute`] has the signature of
//!   `Engine::execute`, so switching a caller from embedded to networked
//!   is one line (`engine.execute(r)` ↔ `client.execute(r)`), and the
//!   loopback tests pin that the answers are identical.
//! * **Replication** — [`Replica`]: a transactor ships committed WAL
//!   epoch frames over `SubscribeEpochs` (WAL catch-up, then the live
//!   epoch feed); a replica hands each to a follower engine's
//!   [`Engine::apply_epoch`](sfc_engine::Engine::apply_epoch), whose
//!   reads — through [`Replica::engine`], in process or behind a
//!   [`Server`] — are **epoch-prefix consistent**, time travel
//!   included, while [`Replica::status`] exposes the lag against the
//!   transactor's durable epoch.
//!
//! ```
//! use onion_core::{Onion2D, Point};
//! use sfc_engine::{Engine, EngineConfig};
//! use sfc_index::{DiskModel, ShardedTable};
//! use sfc_net::{Client, Server};
//! use std::sync::Arc;
//!
//! // A transactor: any engine, wrapped in an Arc, put on a socket.
//! let table = ShardedTable::build(
//!     Onion2D::new(64).unwrap(),
//!     (0..64u32).map(|i| (Point::new([i, i]), u64::from(i))).collect(),
//!     DiskModel::ssd(),
//!     2,
//! )
//! .unwrap();
//! let engine = Arc::new(Engine::new(table, EngineConfig::default()));
//! let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
//!
//! // A remote client sees exactly what a local caller sees.
//! let mut client =
//!     Client::<Onion2D, u64, 2>::connect(&server.local_addr().to_string()).unwrap();
//! client.update(Point::new([3, 3]), 999).unwrap();
//! client.flush().unwrap();
//! assert_eq!(client.get(Point::new([3, 3])).unwrap(), Some(999));
//! assert_eq!(client.stats().unwrap().epochs, 1);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
pub mod frame;
mod replica;
mod server;

pub use client::{Client, EpochEvent, EpochStream, NetConfig, RetryPolicy};
pub use frame::{MAX_FRAME, NET_MAGIC, PROTOCOL_VERSION};
pub use replica::{Replica, ReplicaConfig, ReplicaState, ReplicaStatus};
pub use server::{Server, ServerConfig};
