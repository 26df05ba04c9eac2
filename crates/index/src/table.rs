//! The row types of the table layer: [`Record`]s, the [`ValueGuard`]
//! point lookups return, and the [`QueryOptions`] / [`QueryResult`] pair
//! of [`ShardedTable::query_rect`](crate::ShardedTable::query_rect).
//!
//! Records are keyed by their cell's curve index; a rectangle query is
//! decomposed into the curve's cluster ranges (`sfc-clustering`) and
//! answered with one backend range scan per cluster, so the number of
//! scans *is* the paper's clustering number and the choice of curve
//! directly controls the number of seeks.

use crate::btree::EntryGuard;
use crate::disk::IoStats;
use crate::plan::{Planner, QueryPlan};
use onion_core::{Point, SfcError, SpaceFillingCurve};

/// Options selecting how [`ShardedTable::query_rect`](crate::ShardedTable::query_rect)
/// derives a query's range decomposition.
///
/// `QueryOptions::default()` scans the exact cluster ranges: seeks per
/// query = the paper's clustering number, no read amplification. With
/// [`Self::planned`], the adaptive planner chooses the coalescing budget
/// from its live cost model; the chosen [`QueryPlan`] comes back in
/// [`QueryResult::plan`]. The rows are identical either way.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryOptions<'p> {
    /// Adaptive planner to cost and budget the decomposition (and to feed
    /// realized I/O stats back into); `None` scans the exact ranges.
    pub planner: Option<&'p Planner>,
}

impl<'p> QueryOptions<'p> {
    /// Route the query through `planner`'s adaptive cost model.
    pub fn planned(planner: &'p Planner) -> Self {
        Self {
            planner: Some(planner),
        }
    }
}

/// A pinned point-lookup result (what [`crate::ShardedTable::get`] and
/// [`crate::TableSnapshot::get`] return): dereferences to the stored
/// [`Record`] without copying it. For in-memory backends the guard holds
/// the B+-tree leaf page of the version it was read from, so it remains
/// valid — and immutable — after any number of epoch applies, and even
/// after the table itself is dropped; for disk-resident backends it owns
/// the decoded record outright.
#[derive(Debug, Clone)]
pub struct ValueGuard<const D: usize, V> {
    entry: EntryGuard<Record<D, V>>,
}

impl<const D: usize, V> ValueGuard<D, V> {
    pub(crate) fn new(entry: EntryGuard<Record<D, V>>) -> Self {
        ValueGuard { entry }
    }
}

impl<const D: usize, V> std::ops::Deref for ValueGuard<D, V> {
    type Target = Record<D, V>;

    fn deref(&self) -> &Record<D, V> {
        &self.entry
    }
}

impl<const D: usize, V: Clone> ValueGuard<D, V> {
    /// Owned copy of the pinned payload — the one-call form of
    /// "pin, then clone `guard.value`", for callers that need `V` by
    /// value (e.g. to send it over a channel or the wire).
    pub fn cloned(&self) -> V {
        self.entry.value.clone()
    }
}

/// A record stored in the table: a point with an opaque payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record<const D: usize, V> {
    /// The record's location.
    pub point: Point<D>,
    /// Application payload.
    pub value: V,
}

/// Result of a rectangle query against a
/// [`ShardedTable`](crate::ShardedTable) or one of its snapshots.
#[derive(Clone, Debug)]
pub struct QueryResult<const D: usize, V> {
    /// Matching records, in curve-key order.
    pub records: Vec<Record<D, V>>,
    /// Number of contiguous key ranges scanned: the clustering number of
    /// the query under the table's curve (or the plan's coalesced count),
    /// after splitting at shard boundaries.
    pub ranges_scanned: u64,
    /// I/O statistics summed over the shards: one seek per range, one page
    /// per backend leaf transferred, plus leaf-cache hits and measured
    /// reads for backends that have them; `entries` counts the records
    /// returned.
    pub io: IoStats,
    /// Each shard's own share of `io`, indexed by shard (zeros for shards
    /// the query did not touch). With one disk per shard, the query's
    /// parallel latency is the largest per-shard `time_us`.
    pub shard_io: Vec<IoStats>,
    /// The plan the adaptive planner chose, when the query ran with
    /// [`QueryOptions::planned`]; `None` for exact scans.
    pub plan: Option<QueryPlan>,
}

/// Validates `records` against `curve`'s universe and keys them with one
/// [`SpaceFillingCurve::fill_indices`] batch call, so the curve's per-call
/// setup (and, for `dyn` curves, virtual dispatch) is paid once for the
/// whole load rather than once per record.
pub(crate) fn keyed_records<const D: usize, C: SpaceFillingCurve<D>, V>(
    curve: &C,
    records: Vec<(Point<D>, V)>,
) -> Result<Vec<(u64, Record<D, V>)>, SfcError> {
    let universe = curve.universe();
    let mut points: Vec<Point<D>> = Vec::with_capacity(records.len());
    for (point, _) in &records {
        if !universe.contains(*point) {
            return Err(SfcError::PointOutOfBounds {
                point: point.to_string(),
                side: universe.side(),
            });
        }
        points.push(*point);
    }
    let mut keys: Vec<u64> = Vec::new();
    curve.fill_indices(&points, &mut keys);
    let mut keyed: Vec<(u64, Record<D, V>)> = keys
        .into_iter()
        .zip(records)
        .map(|(key, (point, value))| (key, Record { point, value }))
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    Ok(keyed)
}
