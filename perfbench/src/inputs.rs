//! Seeded input generation: the dataset and each workload's op stream.
//! The same seed always yields the same records and the same ops.

use onion_core::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_clustering::RectQuery;
use sfc_engine::Op;
use sfc_workloads::ZipfSampler;

/// Universe side of every workload (`Onion2D` over 4096 × 4096 cells).
pub const SIDE: u32 = 4096;

/// Per-coordinate Zipf exponent of record locations and op targets.
pub const ZIPF_EXPONENT: f64 = 0.6;

// Independent RNG streams derived from one seed, so changing how many ops
// a run draws never shifts the dataset.
const RECORD_STREAM: u64 = 0x5EED_0000_0000_0001;
const OP_STREAM: u64 = 0x5EED_0000_0000_0002;

/// `count` records at distinct Zipf-distributed cells, each with a random
/// payload. A cell drawn twice is redrawn, so every cell holds at most one
/// record and point reads have a single right answer.
///
/// # Panics
/// If `count` exceeds half the universe (redrawing would crawl).
pub fn records(seed: u64, count: usize) -> Vec<(Point<2>, u64)> {
    let cells = SIDE as usize * SIDE as usize;
    assert!(
        count <= cells / 2,
        "{count} records would crowd the universe"
    );
    let sampler = ZipfSampler::new(SIDE, ZIPF_EXPONENT);
    let mut rng = StdRng::seed_from_u64(seed ^ RECORD_STREAM);
    let mut taken = vec![0u64; cells.div_ceil(64)];
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let p: Point<2> = sampler.point(&mut rng);
        let cell = p.0[0] as usize * SIDE as usize + p.0[1] as usize;
        let bit = 1u64 << (cell % 64);
        if taken[cell / 64] & bit == 0 {
            taken[cell / 64] |= bit;
            out.push((p, rng.random_range(0..u64::MAX)));
        }
    }
    out
}

/// The three workloads, by traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-only cubes, side log-uniform in [8, 256], uniform corners.
    CubeMem,
    /// 80% gets, 15% updates, 5% cubes of side 2–16, all on Zipf targets.
    PointTcp,
    /// 50% cubes of side 4–64 and 50% updates, on Zipf targets.
    DiskRw,
}

/// A workload's op stream, drawn one op at a time.
pub struct OpGen {
    workload: Workload,
    rng: StdRng,
    zipf: ZipfSampler,
}

impl OpGen {
    /// The stream of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        OpGen {
            workload,
            rng: StdRng::seed_from_u64(seed ^ OP_STREAM),
            zipf: ZipfSampler::new(SIDE, ZIPF_EXPONENT),
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op<2, u64> {
        match self.workload {
            Workload::CubeMem => {
                let side = self.log_uniform(8, 256);
                let lo = [0; 2].map(|_| self.rng.random_range(0..=SIDE - side));
                Op::Query(cube(lo, side))
            }
            Workload::PointTcp => match self.rng.random_range(0..100u32) {
                0..80 => Op::Get(self.zipf.point(&mut self.rng)),
                80..95 => Op::Update(self.zipf.point(&mut self.rng), self.value()),
                _ => Op::Query(self.zipf_cube(2, 16)),
            },
            Workload::DiskRw => {
                if self.rng.random_bool(0.5) {
                    Op::Query(self.zipf_cube(4, 64))
                } else {
                    Op::Update(self.zipf.point(&mut self.rng), self.value())
                }
            }
        }
    }

    fn value(&mut self) -> u64 {
        self.rng.random_range(0..u64::MAX)
    }

    /// A side length log-uniform in `lo..=hi`.
    fn log_uniform(&mut self, lo: u32, hi: u32) -> u32 {
        let u = self.rng.random_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64;
        let side = f64::from(lo) * ((f64::from(hi) + 1.0) / f64::from(lo)).powf(u);
        (side as u32).clamp(lo, hi)
    }

    /// A cube of log-uniform side whose low corner is a Zipf point, pulled
    /// in where the cube would cross the universe's far edge.
    fn zipf_cube(&mut self, lo: u32, hi: u32) -> RectQuery<2> {
        let side = self.log_uniform(lo, hi);
        let p: Point<2> = self.zipf.point(&mut self.rng);
        cube(p.0.map(|c| c.min(SIDE - side)), side)
    }
}

fn cube(lo: [u32; 2], side: u32) -> RectQuery<2> {
    RectQuery::new(lo, [side, side]).expect("a cube with a nonzero side inside the universe")
}
