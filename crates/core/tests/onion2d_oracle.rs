//! An Onion2D oracle that shares no code with `onion2d.rs`: the onion
//! order of an `s × s` square built by walking its rings, outermost first,
//! as a plain list of cells. Each ring runs along the bottom row left to
//! right, up the right column, along the top row right to left and down
//! the left column; then the walk recurses into the square two cells
//! smaller. An odd side ends on the one centre cell.
//!
//! The closed-form rank and unrank, the curve's `index_of` and the
//! run-emitting `fill_walk` are each pinned to this list for every side
//! from 1 to 64, odd and even.

use onion_core::onion2d::{rank_in_square, unrank_in_square};
use onion_core::{Onion2D, Point, SpaceFillingCurve};

/// The cells of an `s × s` square in onion order, ring by ring.
fn ring_walk(s: u32) -> Vec<(u32, u32)> {
    let mut cells = Vec::with_capacity((s * s) as usize);
    let (mut lo, mut side) = (0u32, s);
    while side > 0 {
        let hi = lo + side - 1;
        cells.extend((lo..=hi).map(|x| (x, lo))); // bottom row
        cells.extend((lo + 1..=hi).map(|y| (hi, y))); // right column
        cells.extend((lo..hi).rev().map(|x| (x, hi))); // top row
        cells.extend((lo + 1..hi).rev().map(|y| (lo, y))); // left column
        lo += 1;
        side = side.saturating_sub(2);
    }
    cells
}

#[test]
fn rank_unrank_and_index_of_match_the_ring_walk() {
    for s in 1..=64u32 {
        let curve = Onion2D::new(s).unwrap();
        let walk = ring_walk(s);
        // With the rank checks below (a cell has one rank), this makes
        // the walk a permutation of the square.
        assert_eq!(walk.len(), (s * s) as usize, "side {s}");
        for (k, &(u, v)) in walk.iter().enumerate() {
            let k = k as u64;
            assert_eq!(rank_in_square(s, u, v), k, "side {s} rank of ({u}, {v})");
            assert_eq!(unrank_in_square(s, k), (u, v), "side {s} unrank {k}");
            assert_eq!(curve.index_of(Point::new([u, v])).unwrap(), k, "side {s}");
        }
    }
}

#[test]
fn fill_walk_windows_match_the_ring_walk() {
    for s in 1..=64u32 {
        let curve = Onion2D::new(s).unwrap();
        let expected: Vec<Point<2>> = ring_walk(s)
            .into_iter()
            .map(|(u, v)| Point::new([u, v]))
            .collect();
        let n = expected.len();
        // Starts on the first corner, mid-edge, the second corner, the
        // second ring's first cell, deep inside, and the last cell.
        let side = s as usize;
        let starts = [0, 1, side - 1, 4 * (side - 1), n / 3, n / 2, n - 1];
        for &start in starts.iter().filter(|&&start| start < n) {
            for len in [1, 2, side, 4 * side, n - start] {
                let len = len.min(n - start);
                let mut out = Vec::new();
                curve.fill_walk(start as u64, len, &mut out);
                assert_eq!(
                    out,
                    expected[start..start + len],
                    "side {s} start {start} len {len}"
                );
            }
        }
    }
}
