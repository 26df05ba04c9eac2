//! # sfc-engine
//!
//! The concurrent serving layer over the `sfc-index` storage engine: an
//! [`Engine`] accepts a stream of [`Request`]s — point gets, rectangle
//! queries, inserts/updates/deletes and the admin verbs — from any number
//! of threads through `&self`, and turns the Onion Curve paper's
//! clustering guarantee into served traffic. [`Engine::execute`] is the
//! one dispatcher for every verb on every backend: `sfc-net`'s server
//! hands each decoded request to it and frames the [`Response`] it gets
//! back, so a remote caller and an in-process one get the same answer.
//!
//! * **Reads** go straight to the [`ShardedTable`](sfc_index::ShardedTable):
//!   each read pins one immutable epoch version and scans it with no lock
//!   held, so readers never contend with each other or with the writer.
//!   Rectangle queries run through the
//!   [adaptive planner](sfc_index::Planner), which picks each query's
//!   decomposition budget from a cost model fed by the engine's own live
//!   I/O statistics ([`Engine::explain`] shows the decision).
//! * **Writes** are *admitted*, not applied: they enter a write log and
//!   are applied in **epochs** — the log is stably sorted into curve-key
//!   order and pushed through
//!   [`ShardedTable::apply_batch`](sfc_index::ShardedTable::apply_batch),
//!   so the
//!   B+-trees see sorted bulk mutations instead of random single inserts,
//!   each touched shard is written as a private copy-on-write fork, and
//!   readers observe whole epochs: a new version is installed with one
//!   pointer swap.
//!
//! Consistency model (what the proptests verify): **per-key
//! read-your-writes** at all times — a `Get` consults the pending log
//! before the table, so a submitted write is immediately visible to point
//! reads — and **every scan observes exactly one epoch**: rectangle
//! queries never read the pending log, and each scan pins one immutable
//! epoch version for its whole duration, across all shards. A scan
//! racing any number of flushes returns the state of some single applied
//! epoch, with no quiescing required, and successive scans on one thread
//! observe non-decreasing epochs. Once [`Engine::flush`] returns (and no
//! other flush is applying), rectangle queries equal what a
//! single-threaded table that applied the same ops would return.
//! Duplicates and the overlay:
//! `Request::Insert` on an *occupied* cell stores a second record, and point
//! gets return the **newest** record at the cell (B+-tree newest-
//! duplicate semantics) — the same record the overlay reported while the
//! write was pending — so per-key read-your-writes holds unconditionally
//! for `Insert` and `Update`. `Request::Delete` on a cell holding duplicates
//! removes only the **oldest** record, while the overlay answers `None`
//! until the epoch applies; read-your-writes for `Delete` therefore
//! holds on cells without duplicates, which every write path except
//! Insert-on-occupied preserves. Rectangle scans still return every
//! duplicate, in insertion order.
//!
//! * **Durability** (optional — [`Engine::open`]): the epoch batch is
//!   also the unit of logging. A durable engine commits each epoch to an
//!   append-only, checksummed write-ahead log and recovers `snapshot +
//!   WAL suffix` on reopen — dropping the engine (or the process) at any
//!   instant recovers the last acknowledged epoch boundary. Commits
//!   group-commit and pipeline: concurrent [`Engine::flush`] callers
//!   coalesce behind one leader, and frame appends + fsyncs run as one
//!   group sync per batch of queued epochs — on the thread that waits
//!   for durability, or on a background sync thread when nobody waits —
//!   overlapped with the next epochs' work under a [`CommitPolicy`],
//!   while an explicit `flush` still acknowledges only synced epochs.
//!   [`Engine::checkpoint`] compacts the log into a snapshot. See the
//!   [`durable`] module docs for the commit protocol and the
//!   crash-consistency contract; engines built with [`Engine::new`] pay
//!   nothing for any of it.
//!
//! ```
//! use onion_core::{Onion2D, Point};
//! use sfc_clustering::RectQuery;
//! use sfc_engine::{Engine, EngineConfig, Request, Response};
//! use sfc_index::{DiskModel, ShardedTable};
//!
//! let table = ShardedTable::build(
//!     Onion2D::new(64).unwrap(),
//!     (0..64u32).map(|i| (Point::new([i, i]), i)).collect(),
//!     DiskModel::ssd(),
//!     4,
//! )
//! .unwrap();
//! let engine = Engine::new(table, EngineConfig::default());
//!
//! // Writes are admitted into the epoch log; gets see them immediately.
//! engine.execute(Request::Update(Point::new([3, 3]), 999)).unwrap();
//! assert_eq!(
//!     engine.execute(Request::Get(Point::new([3, 3]))).unwrap(),
//!     Response::Value(Some(999))
//! );
//!
//! // Rect queries see the new value once the epoch is applied.
//! engine.flush().unwrap();
//! let q = RectQuery::new([0, 0], [8, 8]).unwrap();
//! let Response::Records(recs) = engine.execute(Request::Query(q)).unwrap() else {
//!     unreachable!()
//! };
//! assert!(recs.iter().any(|r| r.value == 999));
//! ```
//!
//! The same stream against a durable engine survives a crash:
//!
//! ```
//! use onion_core::{Onion2D, Point};
//! use sfc_engine::{Engine, EngineConfig, Request, Response};
//! use sfc_index::DiskModel;
//!
//! let dir = std::env::temp_dir().join(format!("sfc-engine-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let open = || {
//!     Engine::<Onion2D, u64, 2>::open(
//!         &dir, Onion2D::new(64).unwrap(), DiskModel::ssd(), 4, EngineConfig::default(),
//!     )
//!     .unwrap()
//! };
//!
//! let engine = open();
//! engine.execute(Request::Update(Point::new([3, 3]), 999)).unwrap();
//! engine.flush().unwrap(); // commit point: the epoch is now on disk
//! engine.execute(Request::Update(Point::new([4, 4]), 7)).unwrap();
//! drop(engine); // crash: the admitted-but-unflushed write is lost
//!
//! let recovered = open();
//! assert_eq!(recovered.epoch(), 1);
//! let get = |x| recovered.execute(Request::Get(Point::new([x, x]))).unwrap();
//! assert_eq!(get(3), Response::Value(Some(999)));
//! assert_eq!(get(4), Response::Value(None));
//! # drop(recovered);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durable;
mod engine;
mod proto;

pub use durable::{SNAPSHOT_FILE, WAL_FILE};
pub use engine::{
    Admitted, CommitPolicy, Engine, EngineConfig, EngineStats, EpochSubscription, FeedEvent,
};
pub use proto::{Op, Reply, Request, Response};
