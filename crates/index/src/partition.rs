//! Range partitioning along a space-filling curve.
//!
//! §I of the paper cites distributed partitioning of spatial data and load
//! balancing in parallel simulations as SFC applications: the curve
//! linearizes the grid, and contiguous index ranges become partitions. Good
//! clustering keeps each partition spatially coherent, which shrinks the
//! cross-partition neighbor surface ("communication volume").

use onion_core::{Point, SpaceFillingCurve};

/// A contiguous curve-index range assigned to one worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Worker id, `0..k`.
    pub worker: usize,
    /// First curve index (inclusive).
    pub lo: u64,
    /// Last curve index (inclusive).
    pub hi: u64,
}

/// Splits the whole universe into `k` contiguous curve ranges of (almost)
/// equal cell count.
pub fn partition_universe<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    k: usize,
) -> Vec<Partition> {
    assert!(k >= 1, "need at least one worker");
    let n = curve.universe().cell_count();
    let k64 = k as u64;
    let base = n / k64;
    let extra = n % k64; // first `extra` workers get one more cell
    let mut out = Vec::with_capacity(k);
    let mut lo = 0u64;
    for worker in 0..k {
        let size = base + u64::from((worker as u64) < extra);
        if size == 0 {
            break;
        }
        out.push(Partition {
            worker,
            lo,
            hi: lo + size - 1,
        });
        lo += size;
    }
    out
}

/// The worker owning a given cell under the partitioning, or `None` if the
/// cell's curve index is not covered by `parts` (possible when `parts` is a
/// truncated or hand-built partitioning rather than a full
/// [`partition_universe`] result).
pub(crate) fn try_owner_of<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    parts: &[Partition],
    p: Point<D>,
) -> Option<usize> {
    let idx = curve.index_unchecked(p);
    let pos = parts.partition_point(|part| part.hi < idx);
    (pos < parts.len() && parts[pos].lo <= idx).then(|| parts[pos].worker)
}

/// The worker owning a given cell under the partitioning.
///
/// # Panics
/// If the cell's curve index is not covered by `parts` — in every build
/// profile, with a message naming the point and index (the previous
/// `debug_assert!` vanished in release builds, leaving an opaque
/// out-of-bounds index panic). Use [`try_owner_of`] to handle gaps without
/// panicking.
pub(crate) fn owner_of<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    parts: &[Partition],
    p: Point<D>,
) -> usize {
    try_owner_of(curve, parts, p).unwrap_or_else(|| {
        panic!(
            "owner_of: point {p} (curve index {}) is not covered by the {} given partition(s)",
            curve.index_unchecked(p),
            parts.len()
        )
    })
}

/// Communication metrics of a partitioning: for each grid edge between
/// cells owned by different workers, one unit of cross-traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionMetrics {
    /// Grid-neighbor pairs owned by different workers (each pair counted
    /// once).
    pub cut_edges: u64,
    /// Cells with at least one remote neighbor.
    pub surface_cells: u64,
    /// Largest partition size minus smallest (cell-count imbalance).
    pub imbalance: u64,
}

/// Evaluates a partitioning by walking every grid edge once.
///
/// `O(n · D)` — intended for moderate universes (the experiments use sides
/// up to a few hundred).
pub fn evaluate_partitioning<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    parts: &[Partition],
) -> PartitionMetrics {
    let u = curve.universe();
    let side = u.side();
    let mut cut = 0u64;
    let mut surface = 0u64;
    let mut sizes = vec![0u64; parts.len()];
    for p in u.iter_cells() {
        let w = owner_of(curve, parts, p);
        sizes[w] += 1;
        let mut is_surface = false;
        // Count each undirected edge once via the +1 directions.
        for d in 0..D {
            if let Some(nb) = p.step(d, 1, side) {
                if owner_of(curve, parts, nb) != w {
                    cut += 1;
                    is_surface = true;
                }
            }
            // A remote neighbor in the −1 direction also makes this a
            // surface cell even though the edge was counted from the other
            // side.
            if !is_surface {
                if let Some(nb) = p.step(d, -1, side) {
                    if owner_of(curve, parts, nb) != w {
                        is_surface = true;
                    }
                }
            }
        }
        if is_surface {
            surface += 1;
        }
    }
    let max = sizes.iter().copied().max().unwrap_or(0);
    let min = sizes.iter().copied().min().unwrap_or(0);
    PartitionMetrics {
        cut_edges: cut,
        surface_cells: surface,
        imbalance: max - min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_core::Onion2D;

    #[test]
    fn partitions_cover_universe_without_gaps() {
        let o = Onion2D::new(8).unwrap();
        for k in [1usize, 2, 3, 7, 64] {
            let parts = partition_universe(&o, k);
            assert_eq!(parts[0].lo, 0);
            assert_eq!(parts.last().unwrap().hi, 63);
            for w in parts.windows(2) {
                assert_eq!(w[1].lo, w[0].hi + 1, "gap between partitions");
            }
            // Balance: sizes differ by at most 1.
            let sizes: Vec<u64> = parts.iter().map(|p| p.hi - p.lo + 1).collect();
            let max = *sizes.iter().max().unwrap();
            let min = *sizes.iter().min().unwrap();
            assert!(max - min <= 1, "k={k}: sizes {sizes:?}");
        }
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let o = Onion2D::new(2).unwrap();
        let parts = partition_universe(&o, 10);
        assert_eq!(parts.len(), 4);
        let total: u64 = parts.iter().map(|p| p.hi - p.lo + 1).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn owner_lookup_matches_ranges() {
        let o = Onion2D::new(8).unwrap();
        let parts = partition_universe(&o, 4);
        for p in o.universe().iter_cells() {
            let idx = o.index_unchecked(p);
            let w = owner_of(&o, &parts, p);
            assert!(parts[w].lo <= idx && idx <= parts[w].hi);
        }
    }

    #[test]
    fn uncovered_points_are_reported_clearly() {
        let o = Onion2D::new(8).unwrap();
        let mut parts = partition_universe(&o, 4);
        parts.pop(); // drop the last quarter of the curve
        let covered = o.point_unchecked(0);
        let uncovered = o.point_unchecked(63);
        assert_eq!(try_owner_of(&o, &parts, covered), Some(0));
        assert_eq!(try_owner_of(&o, &parts, uncovered), None);
        let err = std::panic::catch_unwind(|| owner_of(&o, &parts, uncovered))
            .expect_err("must panic in every build profile");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("not covered"), "opaque panic: {msg}");
    }

    #[test]
    fn metrics_single_worker_has_no_cut() {
        let o = Onion2D::new(8).unwrap();
        let parts = partition_universe(&o, 1);
        let m = evaluate_partitioning(&o, &parts);
        assert_eq!(m.cut_edges, 0);
        assert_eq!(m.surface_cells, 0);
        assert_eq!(m.imbalance, 0);
    }

    #[test]
    fn metrics_detect_cut_edges() {
        let o = Onion2D::new(8).unwrap();
        let parts = partition_universe(&o, 4);
        let m = evaluate_partitioning(&o, &parts);
        assert!(m.cut_edges > 0);
        assert!(m.surface_cells > 0);
        assert!(m.imbalance <= 1);
    }
}
