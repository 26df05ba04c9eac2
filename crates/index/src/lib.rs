//! # sfc-index
//!
//! An SFC-backed storage engine — the application the Onion Curve paper
//! motivates (§I): index multi-dimensional data with one-dimensional
//! techniques by keying records with their curve index. The engine is
//! layered:
//!
//! * **Storage backends** — the [`Backend`] trait over key-ordered storage,
//!   with [`MemoryBackend`] (a from-scratch [`BPlusTree`]: bulk load,
//!   inserts with splits, lazy removal, linked-leaf range scans, invariant
//!   checker) and [`FileBackend`] (the paged read path: an immutable
//!   bulk-built [`SegmentTree`] file on a [`PageStore`] behind an
//!   [`LruBufferPool`] leaf cache, plus an in-memory write overlay). Every
//!   scan layer returns one [`IoStats`] record: pages, leaf-cache hits and
//!   *measured* reads and seeks, priced by a [`DiskModel`];
//! * **Page stores** — the [`PageStore`] trait ([`store`] module):
//!   explicit page-granular read/write/sync against a real medium, with
//!   [`FileStore`] as the file implementation and an injection seam for
//!   fault-injecting test stores;
//! * **Tables** — [`ShardedTable`]: records ordered by any
//!   [`onion_core::SpaceFillingCurve`] and split into contiguous curve
//!   ranges ([`partition_universe`], with communication metrics for the
//!   load-balancing application); a 1-shard table is the plain SFC table.
//!   Rectangle queries are decomposed into the curve's cluster ranges, so
//!   **seeks per query = the paper's clustering number**, and a query
//!   scans its shards one after another on the caller's thread, each
//!   reporting its own [`IoStats`] (priced as one disk per shard: the
//!   model, not the execution). `Send + Sync`, so concurrency comes from
//!   concurrent callers; [`ShardedTable::query_rect_batch`] is the one
//!   read that fans out over the shards. Every write is an epoch batch
//!   through [`ShardedTable::apply_batch`] (a single-record write is a
//!   1-op batch), and reads also come as [`ShardedTable::knn`]. Shard
//!   state is **epoch MVCC**: the live state is an immutable, epoch-stamped
//!   version; every read pins one (no lock held while scanning, so a scan
//!   observes exactly one epoch) and `apply_batch` copies-on-write only
//!   the shards and B+-tree pages a batch touches before installing the
//!   new version with a pointer swap. A [`RetentionPolicy`]-bounded window
//!   of recent versions backs [`ShardedTable::snapshot_at`] time-travel
//!   reads;
//! * **Planning** — [`Planner`] / [`QueryPlan`]: an adaptive query planner
//!   that chooses each rectangle query's decomposition budget (exact
//!   cluster ranges, gap-coalesced, or one covering range) from a cost
//!   model fed by live [`IoStats`] — see the [`plan`](Planner) module docs
//!   for the model. The concurrent serving layer over all of this lives in
//!   the `sfc-engine` crate;
//! * **Durability** — the [`wal`] module: an epoch-framed, checksummed
//!   write-ahead log ([`Wal`]) plus curve-ordered snapshots
//!   ([`write_snapshot`]/[`read_snapshot`]) over the [`Backend`]
//!   persist/restore hooks. The serving layer commits each epoch batch to
//!   the log *before* applying it, and recovery replays
//!   `snapshot + WAL suffix` — see the [`wal`] module docs for the disk
//!   formats and the torn-tail policy.
//!
//! ```
//! use onion_core::{Onion2D, Point};
//! use sfc_index::{DiskModel, QueryOptions, ShardedTable};
//! use sfc_clustering::RectQuery;
//!
//! let records: Vec<(Point<2>, u32)> = (0..64u32).map(|i| (Point::new([i, i]), i)).collect();
//! let q = RectQuery::new([0, 0], [10, 10]).unwrap();
//! let opts = QueryOptions::default();
//!
//! let table = ShardedTable::build(Onion2D::new(64).unwrap(), records.clone(), DiskModel::hdd(), 1).unwrap();
//! let rows = table.query_rect(&q, &opts).unwrap();
//! assert_eq!(rows.records.len(), 10);
//!
//! // The same query over four shards returns the same rows.
//! let sharded = ShardedTable::build(Onion2D::new(64).unwrap(), records, DiskModel::hdd(), 4).unwrap();
//! assert_eq!(sharded.query_rect(&q, &opts).unwrap().records, rows.records);
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid` so two modules alone can scope an `allow`:
// `prefetch` around the `_mm_prefetch` cache hint (which touches no
// memory), and `checksum` around its carry-less-multiply CRC-32 kernel;
// every other module still rejects unsafe code outright.
#![deny(unsafe_code)]

mod backend;
mod btree;
mod cache;
mod checksum;
mod disk;
mod partition;
mod plan;
mod prefetch;
mod segment;
mod shard;
pub mod store;
mod stored;
mod table;
pub mod wal;

pub use backend::{Backend, MemoryBackend};
pub use btree::{BPlusTree, EntryGuard, RangeIter, DEFAULT_NODE_CAPACITY};
pub use cache::LruBufferPool;
pub use checksum::{crc32, crc32_portable};
pub use disk::{DiskModel, IoStats};
pub use partition::{evaluate_partitioning, partition_universe, Partition, PartitionMetrics};
pub use plan::{PlanStrategy, Planner, QueryPlan};
pub use segment::{SegmentTree, SEGMENT_MAGIC};
pub use shard::{BatchOp, RetentionPolicy, ShardedTable, TableSnapshot};
pub use store::{FileStore, PageStore, StoreStats};
pub use stored::{FileBackend, StoreConfig, StoreFactory};
pub use table::{QueryOptions, QueryResult, Record, ValueGuard};
pub use wal::{
    decode_seq, encode_seq, read_snapshot, write_snapshot, EpochFrame, SnapshotContents, Wal,
    WalCodec, WalCursor, SNAPSHOT_MAGIC, WAL_MAGIC,
};
