//! Rectangular queries — the paper's query model (§I): subsets of the
//! universe formed by intersections of halfspaces.

use onion_core::{Point, SfcError};

/// An axis-aligned rectangular query: the cells `lo[d] ..= lo[d]+len[d]-1`
/// along each dimension.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct RectQuery<const D: usize> {
    lo: [u32; D],
    len: [u32; D],
}

impl<const D: usize> RectQuery<D> {
    /// Creates a query with lower corner `lo` and side lengths `len`
    /// (every `len[d] ≥ 1`).
    pub fn new(lo: [u32; D], len: [u32; D]) -> Result<Self, SfcError> {
        for d in 0..D {
            if len[d] == 0 {
                return Err(SfcError::ZeroSide);
            }
            if u64::from(lo[d]) + u64::from(len[d]) > u64::from(u32::MAX) {
                return Err(SfcError::PointOutOfBounds {
                    point: Point::new(lo).to_string(),
                    side: u32::MAX,
                });
            }
        }
        Ok(RectQuery { lo, len })
    }

    /// The smallest query covering both corner cells `a` and `b`
    /// (the Figure 7 experiment's construction).
    pub fn from_corners(a: Point<D>, b: Point<D>) -> Self {
        let mut lo = [0u32; D];
        let mut len = [0u32; D];
        for d in 0..D {
            lo[d] = a.0[d].min(b.0[d]);
            len[d] = a.0[d].abs_diff(b.0[d]) + 1;
        }
        RectQuery { lo, len }
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> [u32; D] {
        self.lo
    }

    /// Inclusive upper corner.
    #[inline]
    pub fn hi(&self) -> [u32; D] {
        let mut hi = self.lo;
        for (h, l) in hi.iter_mut().zip(self.len) {
            *h += l - 1;
        }
        hi
    }

    /// Side lengths (the paper's `ℓ_1, …, ℓ_d`).
    ///
    /// Named `side_lengths` rather than `len` because a `RectQuery` is not
    /// a container: clippy's `len_without_is_empty` pairing makes no sense
    /// for a shape that is never empty (every side is ≥ 1 by
    /// construction).
    #[inline]
    pub fn side_lengths(&self) -> [u32; D] {
        self.len
    }

    /// Number of cells `|q| = Π ℓ_d`.
    #[inline]
    pub fn volume(&self) -> u64 {
        self.len.iter().map(|&l| u64::from(l)).product()
    }

    /// Whether `p` lies inside the query.
    #[inline]
    pub fn contains(&self, p: Point<D>) -> bool {
        for d in 0..D {
            let c = p.0[d];
            if c < self.lo[d] || c - self.lo[d] >= self.len[d] {
                return false;
            }
        }
        true
    }

    /// Whether the query lies fully inside a universe of side `side`.
    #[inline]
    pub fn fits_in(&self, side: u32) -> bool {
        (0..D).all(|d| u64::from(self.lo[d]) + u64::from(self.len[d]) <= u64::from(side))
    }

    /// Whether the query is a cube (`ℓ_i = ℓ_j` for all i, j — §I).
    #[inline]
    pub fn is_cube(&self) -> bool {
        self.len.iter().all(|&l| l == self.len[0])
    }

    /// Iterates every cell of the query in row-major order.
    pub fn cells(&self) -> RectCellIter<D> {
        RectCellIter {
            q: *self,
            next: Some(Point::new(self.lo)),
        }
    }

    /// Visits every *inner boundary* cell of the query — the cells with at
    /// least one extremal coordinate — exactly once.
    ///
    /// Runs in time proportional to the number of boundary cells (the
    /// query's surface), not its volume; this is what makes the
    /// boundary-scan clustering algorithm fast for large queries.
    pub fn for_each_boundary_cell<F: FnMut(Point<D>)>(&self, mut f: F) {
        let mut coords = self.lo;
        shell_recurse(&self.lo, &self.len, 0, &mut coords, &mut f);
    }

    /// Collects the inner boundary cells (convenience for tests).
    pub fn boundary_cells(&self) -> Vec<Point<D>> {
        let mut out = Vec::new();
        self.for_each_boundary_cell(|p| out.push(p));
        out
    }
}

/// Recursive shell enumeration: dimension `d` is split into the low face,
/// the high face (full sub-rectangles), and interior slabs (recursing on the
/// remaining dimensions' shell).
fn shell_recurse<const D: usize, F: FnMut(Point<D>)>(
    lo: &[u32; D],
    len: &[u32; D],
    d: usize,
    coords: &mut [u32; D],
    f: &mut F,
) {
    if d == D {
        // Reached only through interior slab choices in every dimension —
        // such a cell is interior, not boundary.
        return;
    }
    let first = lo[d];
    let last = lo[d] + len[d] - 1;
    // Low face: everything below is free.
    coords[d] = first;
    full_recurse(lo, len, d + 1, coords, f);
    if last != first {
        // High face.
        coords[d] = last;
        full_recurse(lo, len, d + 1, coords, f);
        // Interior slabs: must touch the boundary in a later dimension.
        // The last dimension has none, so its interior cells are interior
        // to the query: skipping them keeps the walk O(surface).
        if d + 1 == D {
            return;
        }
        for x in (first + 1)..last {
            coords[d] = x;
            shell_recurse(lo, len, d + 1, coords, f);
        }
    }
}

/// Enumerates the full sub-rectangle over dimensions `d..`.
fn full_recurse<const D: usize, F: FnMut(Point<D>)>(
    lo: &[u32; D],
    len: &[u32; D],
    d: usize,
    coords: &mut [u32; D],
    f: &mut F,
) {
    if d == D {
        f(Point::new(*coords));
        return;
    }
    for x in lo[d]..lo[d] + len[d] {
        coords[d] = x;
        full_recurse(lo, len, d + 1, coords, f);
    }
}

/// Row-major iterator over the cells of a query. See [`RectQuery::cells`].
#[derive(Clone, Debug)]
pub struct RectCellIter<const D: usize> {
    q: RectQuery<D>,
    next: Option<Point<D>>,
}

impl<const D: usize> Iterator for RectCellIter<D> {
    type Item = Point<D>;

    fn next(&mut self) -> Option<Point<D>> {
        let current = self.next?;
        let mut succ = current;
        let mut dim = 0;
        loop {
            if dim == D {
                self.next = None;
                break;
            }
            if succ.0[dim] + 1 < self.q.lo[dim] + self.q.len[dim] {
                succ.0[dim] += 1;
                self.next = Some(succ);
                break;
            }
            succ.0[dim] = self.q.lo[dim];
            dim += 1;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_length() {
        assert!(RectQuery::new([0, 0], [3, 0]).is_err());
    }

    #[test]
    fn contains_and_corners() {
        let q = RectQuery::new([2, 3], [4, 2]).unwrap();
        assert_eq!(q.hi(), [5, 4]);
        assert!(q.contains(Point::new([2, 3])));
        assert!(q.contains(Point::new([5, 4])));
        assert!(!q.contains(Point::new([6, 4])));
        assert!(!q.contains(Point::new([1, 3])));
        assert_eq!(q.volume(), 8);
    }

    #[test]
    fn from_corners_is_order_independent() {
        let a = Point::new([5, 1, 9]);
        let b = Point::new([2, 7, 9]);
        let q = RectQuery::from_corners(a, b);
        let r = RectQuery::from_corners(b, a);
        assert_eq!(q, r);
        assert_eq!(q.lo(), [2, 1, 9]);
        assert_eq!(q.side_lengths(), [4, 7, 1]);
        assert!(q.contains(a) && q.contains(b));
    }

    #[test]
    fn fits_in_checks_upper_corner() {
        let q = RectQuery::new([6, 0], [2, 8]).unwrap();
        assert!(q.fits_in(8));
        assert!(!q.fits_in(7));
    }

    #[test]
    fn cells_iterates_volume_cells() {
        let q = RectQuery::new([1, 2], [3, 2]).unwrap();
        let cells: Vec<_> = q.cells().collect();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], Point::new([1, 2]));
        assert_eq!(cells[1], Point::new([2, 2]));
        assert_eq!(cells[3], Point::new([1, 3]));
        assert!(cells.iter().all(|&p| q.contains(p)));
    }

    #[test]
    fn boundary_matches_bruteforce_2d_and_3d() {
        let q2 = RectQuery::new([1, 1], [5, 4]).unwrap();
        check_boundary(&q2);
        let q3 = RectQuery::new([0, 2, 1], [4, 3, 5]).unwrap();
        check_boundary(&q3);
        // Thin queries: everything is boundary.
        let thin = RectQuery::new([0, 0], [1, 7]).unwrap();
        check_boundary(&thin);
        let thin3 = RectQuery::new([0, 0, 0], [2, 2, 6]).unwrap();
        check_boundary(&thin3);
        let single = RectQuery::new([3, 4], [1, 1]).unwrap();
        check_boundary(&single);
    }

    fn check_boundary<const D: usize>(q: &RectQuery<D>) {
        let mut expected: Vec<Point<D>> = q
            .cells()
            .filter(|p| {
                (0..D).any(|d| p.0[d] == q.lo()[d] || p.0[d] == q.lo()[d] + q.side_lengths()[d] - 1)
            })
            .collect();
        let mut got = q.boundary_cells();
        expected.sort();
        got.sort();
        let dedup_len = {
            let mut g = got.clone();
            g.dedup();
            g.len()
        };
        assert_eq!(dedup_len, got.len(), "boundary cells visited twice");
        assert_eq!(got, expected);
    }

    #[test]
    fn cube_detection() {
        assert!(RectQuery::new([0, 0], [5, 5]).unwrap().is_cube());
        assert!(!RectQuery::new([0, 0], [5, 6]).unwrap().is_cube());
        assert!(RectQuery::new([0, 0, 0], [2, 2, 2]).unwrap().is_cube());
    }
}
