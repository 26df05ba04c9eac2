//! The benchmark's output oracle: a naive model of the records and the
//! writes applied, sharing no code with `sfc-index`.
//!
//! The base records live in a `Vec` sorted by `(x, y)`; points that writes
//! add later live in a `BTreeMap`. A rectangle answer is rebuilt row by
//! row with binary searches and put in curve-key order with the curve's
//! own mapping, so one comparison checks both the set and the order.
//!
//! The model mirrors the engine's consistency contract: point gets see
//! every admitted write, rectangle queries see applied epochs only. An
//! epoch applies once `epoch_ops` writes are pending (the engine's
//! auto-flush) or on an explicit flush.

use onion_core::{Point, SpaceFillingCurve};
use std::collections::{BTreeMap, HashMap};

type Cell = (u32, u32);

fn cell(p: Point<2>) -> Cell {
    (p.0[0], p.0[1])
}

/// Naive model of the table's state.
pub struct Oracle {
    /// Base records, sorted by cell.
    cells: Vec<Cell>,
    /// Applied payload of each base record.
    values: Vec<u64>,
    /// Applied records at cells outside the base set.
    added: BTreeMap<Cell, u64>,
    /// Admitted writes not yet applied, in admission order.
    pending: Vec<(Cell, u64)>,
    /// Newest pending payload per cell (the get overlay).
    overlay: HashMap<Cell, u64>,
    epoch_ops: usize,
}

impl Oracle {
    /// A model of a table holding `records` (distinct cells), applying
    /// writes in epochs of `epoch_ops`.
    pub fn new(records: &[(Point<2>, u64)], epoch_ops: usize) -> Self {
        let mut rows: Vec<(Cell, u64)> = records.iter().map(|&(p, v)| (cell(p), v)).collect();
        rows.sort_unstable_by_key(|&(c, _)| c);
        Oracle {
            cells: rows.iter().map(|&(c, _)| c).collect(),
            values: rows.iter().map(|&(_, v)| v).collect(),
            added: BTreeMap::new(),
            pending: Vec::new(),
            overlay: HashMap::new(),
            epoch_ops,
        }
    }

    /// Records an admitted replace-or-insert write.
    pub fn update(&mut self, p: Point<2>, value: u64) {
        self.pending.push((cell(p), value));
        self.overlay.insert(cell(p), value);
        if self.pending.len() >= self.epoch_ops {
            self.flush();
        }
    }

    /// Applies every pending write (an explicit flush).
    pub fn flush(&mut self) {
        for (c, v) in self.pending.drain(..) {
            match self.cells.binary_search(&c) {
                Ok(i) => self.values[i] = v,
                Err(_) => {
                    self.added.insert(c, v);
                }
            }
        }
        self.overlay.clear();
    }

    fn applied(&self, c: Cell) -> Option<u64> {
        match self.cells.binary_search(&c) {
            Ok(i) => Some(self.values[i]),
            Err(_) => self.added.get(&c).copied(),
        }
    }

    /// What a point get must answer.
    pub fn get(&self, p: Point<2>) -> Option<u64> {
        let c = cell(p);
        self.overlay.get(&c).copied().or_else(|| self.applied(c))
    }

    /// What a rectangle query over `lo..=hi` must answer: the applied
    /// records inside it, in `curve`-key order.
    pub fn query<C: SpaceFillingCurve<2>>(
        &self,
        curve: &C,
        lo: [u32; 2],
        hi: [u32; 2],
    ) -> Vec<(Point<2>, u64)> {
        let mut keyed = Vec::new();
        for x in lo[0]..=hi[0] {
            let start = self.cells.partition_point(|&c| c < (x, lo[1]));
            let end = self.cells.partition_point(|&c| c <= (x, hi[1]));
            for i in start..end {
                keyed.push((self.cells[i], self.values[i]));
            }
            keyed.extend(
                self.added
                    .range((x, lo[1])..=(x, hi[1]))
                    .map(|(&c, &v)| (c, v)),
            );
        }
        let mut out: Vec<(u64, Point<2>, u64)> = keyed
            .into_iter()
            .map(|((x, y), v)| {
                let p = Point::new([x, y]);
                (curve.index_unchecked(p), p, v)
            })
            .collect();
        out.sort_unstable_by_key(|&(key, _, _)| key);
        out.into_iter().map(|(_, p, v)| (p, v)).collect()
    }

    /// Checks a query answer against [`Self::query`].
    ///
    /// # Errors
    /// Describes the first difference.
    pub fn check_query<C: SpaceFillingCurve<2>>(
        &self,
        curve: &C,
        lo: [u32; 2],
        hi: [u32; 2],
        got: &[(Point<2>, u64)],
    ) -> Result<(), String> {
        let want = self.query(curve, lo, hi);
        if want.len() != got.len() {
            return Err(format!(
                "query {lo:?}..={hi:?}: {} records, expected {}",
                got.len(),
                want.len()
            ));
        }
        match want.iter().zip(got).position(|(w, g)| w != g) {
            None => Ok(()),
            Some(i) => Err(format!(
                "query {lo:?}..={hi:?}: record {i} is {:?}, expected {:?}",
                got[i], want[i]
            )),
        }
    }

    /// Checks a get answer against [`Self::get`].
    ///
    /// # Errors
    /// Describes the difference.
    pub fn check_get(&self, p: Point<2>, got: Option<u64>) -> Result<(), String> {
        let want = self.get(p);
        if want == got {
            Ok(())
        } else {
            Err(format!("get {p:?}: {got:?}, expected {want:?}"))
        }
    }
}
