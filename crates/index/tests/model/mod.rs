//! A reference model of an SFC-keyed table that shares no code with
//! `sfc-index`: every stored `(point, value)` sits in a plain `Vec` in
//! insertion order, and a rectangle read filters it and orders the hits by
//! the curve's index.
//!
//! Duplicate points follow the B+-tree's rule: a point may hold several
//! values, kept in insertion order; `get` and `update` address the newest,
//! `delete` removes the oldest.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use onion_core::{Point, SpaceFillingCurve};
use sfc_clustering::RectQuery;

/// The rows of a table, in insertion order.
pub struct Model<const D: usize, V> {
    rows: Vec<(Point<D>, V)>,
}

impl<const D: usize, V: Clone> Model<D, V> {
    /// A model holding `rows`, oldest first.
    pub fn new(rows: Vec<(Point<D>, V)>) -> Self {
        Model { rows }
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row is stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row; duplicates are allowed.
    pub fn insert(&mut self, point: Point<D>, value: V) {
        self.rows.push((point, value));
    }

    /// The newest value at `point`.
    pub fn get(&self, point: Point<D>) -> Option<V> {
        self.rows
            .iter()
            .rev()
            .find(|(p, _)| *p == point)
            .map(|(_, v)| v.clone())
    }

    /// Replaces the newest value at `point` and returns it, or appends a
    /// row if the point is vacant.
    pub fn update(&mut self, point: Point<D>, value: V) -> Option<V> {
        match self.rows.iter_mut().rev().find(|(p, _)| *p == point) {
            Some((_, old)) => Some(std::mem::replace(old, value)),
            None => {
                self.rows.push((point, value));
                None
            }
        }
    }

    /// Removes the oldest value at `point`.
    pub fn delete(&mut self, point: Point<D>) -> Option<V> {
        let i = self.rows.iter().position(|(p, _)| *p == point)?;
        Some(self.rows.remove(i).1)
    }

    /// The rows inside `q`, ordered by `curve`'s index; duplicates keep
    /// their insertion order (the sort is stable).
    pub fn query<C: SpaceFillingCurve<D>>(
        &self,
        curve: &C,
        q: &RectQuery<D>,
    ) -> Vec<(Point<D>, V)> {
        let mut hits: Vec<(u64, Point<D>, V)> = self
            .rows
            .iter()
            .filter(|(p, _)| q.contains(*p))
            .map(|(p, v)| {
                (
                    curve.index_of(*p).expect("model rows lie in the universe"),
                    *p,
                    v.clone(),
                )
            })
            .collect();
        hits.sort_by_key(|&(key, _, _)| key);
        hits.into_iter().map(|(_, p, v)| (p, v)).collect()
    }
}
