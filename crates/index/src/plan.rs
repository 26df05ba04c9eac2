//! The adaptive query planner: choose how finely a rectangle query is
//! decomposed against the curve, from a cost model fed by live I/O
//! statistics.
//!
//! The paper's clustering number counts the *pieces* a query's curve image
//! decomposes into; Haverkort & van Walderveen observe that the realized
//! cost of a range query is dominated by how that decomposition is executed
//! — every piece costs a seek, every absorbed gap costs extra transfers.
//! The fixed `ranges_of` split is optimal only when seeks and transfers
//! trade at one particular ratio and nothing is cached. The [`Planner`]
//! instead evaluates the whole trade-off curve per query and picks the
//! piece budget with the lowest *expected* cost under what the engine has
//! actually observed.
//!
//! # Cost model
//!
//! For a decomposition of `R` ranges covering `cells` cells with sorted gap
//! prefix sums `gap[·]` (see [`sfc_clustering::gap_profile`]), the
//! estimated cost of executing it with budget `B ≤ R` ranges is
//!
//! ```text
//! cost(B) = B · seek_us                                  // one seek per piece
//!         + pages(B) · (1 − h) · transfer_us             // only pool misses transfer
//! pages(B) = ceil((cells + gap[R − B]) · density / page_size) + B
//! ```
//!
//! where
//!
//! * `seek_us` and `transfer_us` are the model's two coefficients: the
//!   table's [`DiskModel`] gives their defaults, and measurement refines
//!   them (below); `page_size` is the [`DiskModel`]'s entries-per-page
//!   estimate;
//! * `density` is the table's record density (records per curve cell), so
//!   spans are converted into expected stored entries before paging;
//! * `+ B` charges each piece its landing page probe;
//! * `h` is the **live cache-hit rate**: the fraction of touched pages the
//!   buffer pool absorbed, accumulated from every [`IoStats`] the planner
//!   [`observe`](Planner::observe)s. A warm pool drives `(1 − h) ·
//!   transfer_us` toward zero, which makes absorbed gap cells nearly free
//!   and pushes the planner toward fewer, larger ranges; a cold or
//!   thrashing pool makes read amplification expensive and pushes it back
//!   toward the exact decomposition.
//!
//! This is the planner's one cost formula. Its coefficients start at the
//! [`DiskModel`] defaults; once enough queries served by a real page store
//! have reported their wall-clock latency
//! ([`observe_latency`](Planner::observe_latency)), a decayed
//! least-squares fit `wall_us ≈ seek_us·real_seeks +
//! transfer_us·real_reads` replaces them
//! ([`measured_costs`](Planner::measured_costs)).
//!
//! The planner minimizes `cost(B)` over all `B ∈ 1..=R` in `O(R log R)`
//! (sorting the gaps dominates), then materializes the chosen budget via
//! [`sfc_clustering::coalesce_to_budget`]. The two extremes of the
//! candidate set are exactly the strategies a fixed engine would hard-code:
//! `B = R` is the full `ranges_of` split, `B = 1` a single covering range;
//! everything between is gap-coalesced.
//!
//! Sharded execution feeds back through
//! [`observe_shards`](Planner::observe_shards): the planner keeps an
//! exponentially-weighted estimate of per-shard latency skew (critical path
//! ÷ mean), which [`QueryPlan::explain`] reports so operators can see when
//! a hot shard — not the decomposition — bounds query latency.

use crate::disk::{DiskModel, IoStats};
use sfc_clustering::{coalesce_to_budget, covered_cells, gap_profile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Record density of a table: stored records per curve cell — the
/// `density` input of [`Planner::plan_ranges`]'s cost model (how many
/// entries a scanned key span is expected to yield). May exceed 1 when
/// cells hold duplicate records. The single definition shared by
/// `ShardedTable::density` and the planned query path.
pub(crate) fn record_density(records: usize, cells: u64) -> f64 {
    if cells == 0 {
        0.0
    } else {
        records as f64 / cells as f64
    }
}

/// How a [`QueryPlan`] decided to execute its query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanStrategy {
    /// Scan the exact cluster decomposition (one seek per cluster).
    FullDecomposition,
    /// Scan gap-coalesced ranges: fewer seeks, some non-query cells read.
    Coalesced,
    /// Scan one covering range from the first to the last cluster.
    SingleRange,
}

/// The planner's decision for one rectangle query: the ranges to scan and
/// the model numbers that justified them.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryPlan {
    /// The key ranges to scan, sorted and disjoint.
    pub ranges: Vec<(u64, u64)>,
    /// Size of the full (exact) cluster decomposition — the paper's
    /// clustering number for this query and curve.
    pub clusters: usize,
    /// Non-query cells the chosen ranges absorb (read amplification).
    pub extra_cells: u64,
    /// Cache-hit rate fed into the cost model when this plan was made.
    pub hit_rate: f64,
    /// Estimated cost of the full decomposition, in modelled µs.
    pub est_full_us: f64,
    /// Estimated cost of the chosen ranges, in modelled µs.
    pub est_chosen_us: f64,
    /// Observed per-shard latency skew (critical path ÷ mean) at plan
    /// time; `1.0` for unsharded execution or before any feedback.
    pub shard_skew: f64,
}

impl QueryPlan {
    /// The strategy class this plan falls into.
    pub(crate) fn strategy(&self) -> PlanStrategy {
        if self.ranges.len() >= self.clusters {
            PlanStrategy::FullDecomposition
        } else if self.ranges.len() == 1 {
            PlanStrategy::SingleRange
        } else {
            PlanStrategy::Coalesced
        }
    }

    /// Human-readable account of the decision — what `EXPLAIN` prints.
    pub fn explain(&self) -> String {
        format!(
            "{:?}: {} of {} cluster(s), +{} absorbed cell(s); \
             est {:.1}us vs {:.1}us full ({}% of full) \
             [hit rate {:.2}, shard skew {:.2}]",
            self.strategy(),
            self.ranges.len(),
            self.clusters,
            self.extra_cells,
            self.est_chosen_us,
            self.est_full_us,
            if self.est_full_us > 0.0 {
                (100.0 * self.est_chosen_us / self.est_full_us).round() as i64
            } else {
                100
            },
            self.hit_rate,
            self.shard_skew,
        )
    }
}

/// Scale factor storing EWMA floats in atomics (milli-units).
const MILLI: f64 = 1000.0;

/// EWMA weight of each new observation (per mille).
const EWMA_NEW: u64 = 200;

/// Page events (hits + transfers) after which the hit-rate counters are
/// halved, bounding how much history the "live" estimate can cling to.
const HIT_HISTORY_WINDOW: u64 = 1 << 16;

/// Per-sample decay of the latency-calibration sums: each new wall-clock
/// observation discounts all prior ones by this factor, so the fit tracks
/// the medium actually serving queries (cold spinning disk, warm page
/// cache, tmpfs) within a few hundred observations.
const CALIBRATION_DECAY: f64 = 0.99;

/// Decayed sample mass below which [`Planner::measured_costs`] refuses to
/// report rates — a couple of noisy queries must not hijack the model.
const CALIBRATION_MIN_SAMPLES: f64 = 16.0;

/// Decayed least-squares fit of the measured cost model
/// `wall_us ≈ a·seeks + b·pages` over real-I/O queries: the normal
/// equations' sums, exponentially discounted so the fit follows the live
/// medium rather than all of history.
#[derive(Clone, Copy, Debug, Default)]
struct Calibration {
    /// Σ seeks².
    ss: f64,
    /// Σ seeks·pages.
    sp: f64,
    /// Σ pages².
    pp: f64,
    /// Σ seeks·wall.
    sw: f64,
    /// Σ pages·wall.
    pw: f64,
    /// Decayed sample mass.
    samples: f64,
}

impl Calibration {
    fn observe(&mut self, seeks: f64, pages: f64, wall_us: f64) {
        let d = CALIBRATION_DECAY;
        self.ss = self.ss * d + seeks * seeks;
        self.sp = self.sp * d + seeks * pages;
        self.pp = self.pp * d + pages * pages;
        self.sw = self.sw * d + seeks * wall_us;
        self.pw = self.pw * d + pages * wall_us;
        self.samples = self.samples * d + 1.0;
    }

    /// Solves the 2×2 normal equations for `(seek_us, transfer_us)`,
    /// clamped non-negative. `None` until enough samples have arrived;
    /// when the system is degenerate (seeks and pages perfectly
    /// correlated, e.g. every query one sequential run), falls back to a
    /// pages-only fit so the per-page rate is still usable.
    fn rates(&self) -> Option<(f64, f64)> {
        if self.samples < CALIBRATION_MIN_SAMPLES {
            return None;
        }
        let det = self.ss * self.pp - self.sp * self.sp;
        // Relative threshold: the sums' scale grows with observation
        // magnitude, so an absolute epsilon would misclassify either tiny
        // or huge workloads.
        if det > 1e-9 * (self.ss * self.pp).max(1.0) {
            let a = (self.sw * self.pp - self.pw * self.sp) / det;
            let b = (self.pw * self.ss - self.sw * self.sp) / det;
            Some((a.max(0.0), b.max(0.0)))
        } else if self.pp > 0.0 {
            Some((0.0, (self.pw / self.pp).max(0.0)))
        } else {
            None
        }
    }
}

/// An adaptive planner: a cost model plus the live statistics that feed it.
///
/// All state is atomic, so one planner can be shared by any number of
/// concurrently-planning and -observing threads without locking; the
/// statistics it accumulates are the engine's own [`IoStats`], fed back via
/// [`Self::observe`] after every executed plan. See the module docs for
/// the cost model itself.
#[derive(Debug)]
pub struct Planner {
    model: DiskModel,
    /// Lifetime pages served by the buffer pool, across observed queries.
    hits: AtomicU64,
    /// Lifetime pages transferred from the medium.
    pages: AtomicU64,
    /// EWMA of per-shard latency skew (max/mean), in milli-units.
    skew_milli: AtomicU64,
    /// Number of observed queries.
    observed: AtomicU64,
    /// Measured-latency fit over real-I/O queries, refining the cost
    /// model's [`DiskModel`] default coefficients.
    calibration: Mutex<Calibration>,
}

impl Planner {
    /// A planner pricing plans under `model`, with no history yet (hit
    /// rate starts at zero: assume cold until told otherwise).
    pub fn new(model: DiskModel) -> Self {
        Planner {
            model,
            hits: AtomicU64::new(0),
            pages: AtomicU64::new(0),
            skew_milli: AtomicU64::new(MILLI as u64),
            observed: AtomicU64::new(0),
            calibration: Mutex::new(Calibration::default()),
        }
    }

    /// The disk model pricing this planner's estimates.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Feeds one executed query's statistics back into the hit-rate
    /// estimate.
    ///
    /// History is bounded by exponential forgetting: once the counters
    /// cover a fixed window (`2^16` page events), both are halved — the
    /// ratio (and thus [`Self::hit_rate`]) is unchanged at that instant,
    /// but every future observation carries proportionally more weight,
    /// so a workload shift (pool starts thrashing, or warms up) moves the
    /// estimate within a bounded number of pages instead of `O(lifetime)`.
    /// The halving races with concurrent `fetch_add`s benignly: a lost
    /// increment shifts the estimate by at most one observation.
    pub fn observe(&self, io: &IoStats) {
        let hits = self.hits.fetch_add(io.cache_hits, Ordering::Relaxed) + io.cache_hits;
        let pages = self.pages.fetch_add(io.pages, Ordering::Relaxed) + io.pages;
        if hits + pages > HIT_HISTORY_WINDOW {
            self.hits.store(hits / 2, Ordering::Relaxed);
            self.pages.store(pages / 2, Ordering::Relaxed);
        }
        self.observed.fetch_add(1, Ordering::Relaxed);
    }

    /// Feeds one sharded query's per-shard breakdown into the latency-skew
    /// estimate (EWMA of critical path ÷ mean over involved shards).
    pub(crate) fn observe_shards(&self, per_shard: &[IoStats]) {
        // One pass, no allocation: this runs on every planned query.
        let (max, sum, count) = per_shard
            .iter()
            .filter(|s| s.seeks > 0)
            .map(|s| s.time_us(&self.model))
            .fold((0.0f64, 0.0f64, 0usize), |(max, sum, n), t| {
                (max.max(t), sum + t, n + 1)
            });
        if count == 0 {
            return;
        }
        let mean = sum / count as f64;
        let skew = if mean > 0.0 { max / mean } else { 1.0 };
        let new = (skew * MILLI) as u64;
        // EWMA in integer milli-units; races lose an update, never corrupt.
        let old = self.skew_milli.load(Ordering::Relaxed);
        let blended = (old * (MILLI as u64 - EWMA_NEW) + new * EWMA_NEW) / MILLI as u64;
        self.skew_milli.store(blended, Ordering::Relaxed);
    }

    /// Feeds one real-I/O query's wall-clock latency into the measured
    /// cost model: `seeks` non-contiguous physical fetches and `pages`
    /// physical page reads (`IoStats::real_seeks` / `real_reads`)
    /// explained `wall_us` microseconds of scan time. Once
    /// [`Self::measured_costs`] has enough mass, planning prices budgets
    /// with these *measured* per-seek/per-page rates instead of the
    /// [`DiskModel`] defaults — the table layers call this automatically
    /// for planned queries served by a real page store.
    pub(crate) fn observe_latency(&self, seeks: u64, pages: u64, wall_us: f64) {
        if (seeks == 0 && pages == 0) || !wall_us.is_finite() || wall_us < 0.0 {
            return;
        }
        let mut cal = self.calibration.lock().expect("calibration poisoned");
        cal.observe(seeks as f64, pages as f64, wall_us);
    }

    /// The measured `(seek_us, transfer_us)` rates fitted from the
    /// wall-clock latency of planned queries on real page stores, or
    /// `None` while the planner is still pricing with the [`DiskModel`]
    /// defaults (too few decayed samples to trust a fit).
    pub fn measured_costs(&self) -> Option<(f64, f64)> {
        self.calibration
            .lock()
            .expect("calibration poisoned")
            .rates()
    }

    /// The `(seek_us, transfer_us)` pair pricing plans right now: the
    /// measured fit when calibrated, the [`DiskModel`] defaults otherwise.
    fn cost_rates(&self) -> (f64, f64) {
        self.measured_costs()
            .unwrap_or((self.model.seek_us, self.model.transfer_us))
    }

    /// The live cache-hit rate estimate in `[0, 1)`: hits over touched
    /// pages, with a +2 Laplace denominator so an unobserved planner
    /// reports 0 instead of dividing by zero.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits.load(Ordering::Relaxed) as f64;
        let pages = self.pages.load(Ordering::Relaxed) as f64;
        hits / (hits + pages + 2.0)
    }

    /// The current per-shard latency-skew estimate (≥ 1).
    pub fn shard_skew(&self) -> f64 {
        self.skew_milli.load(Ordering::Relaxed) as f64 / MILLI
    }

    /// Number of queries observed so far.
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::Relaxed)
    }

    /// Plans the execution of a query whose exact cluster decomposition is
    /// `full`, for a table storing `density` records per curve cell:
    /// evaluates `cost(B)` for every budget `B` and returns the cheapest
    /// materialized plan. `full` must be sorted and disjoint — what
    /// [`sfc_clustering::ClusterScratch::ranges_of`] produces.
    pub(crate) fn plan_ranges(&self, full: &[(u64, u64)], density: f64) -> QueryPlan {
        let clusters = full.len();
        let hit_rate = self.hit_rate();
        let skew = self.shard_skew();
        let rates = self.cost_rates();
        if clusters <= 1 {
            let est = self.estimate_us(
                clusters as u64,
                covered_cells(full),
                0,
                density,
                hit_rate,
                rates,
            );
            return QueryPlan {
                ranges: full.to_vec(),
                clusters,
                extra_cells: 0,
                hit_rate,
                est_full_us: est,
                est_chosen_us: est,
                shard_skew: skew,
            };
        }
        let cells = covered_cells(full);
        let gaps = gap_profile(full);
        let mut best_budget = clusters;
        let mut best_cost = f64::INFINITY;
        for budget in 1..=clusters {
            let extra = gaps[clusters - budget];
            let cost = self.estimate_us(budget as u64, cells, extra, density, hit_rate, rates);
            // `<=` with ascending budgets keeps the largest budget among
            // ties: prefer the exact decomposition when coalescing buys
            // nothing.
            if cost <= best_cost {
                best_cost = cost;
                best_budget = budget;
            }
        }
        let est_full_us = self.estimate_us(clusters as u64, cells, 0, density, hit_rate, rates);
        let ranges = if best_budget == clusters {
            full.to_vec()
        } else {
            coalesce_to_budget(full, best_budget)
        };
        let extra_cells = covered_cells(&ranges) - cells;
        QueryPlan {
            ranges,
            clusters,
            extra_cells,
            hit_rate,
            est_full_us,
            est_chosen_us: best_cost,
            shard_skew: skew,
        }
    }

    /// `cost(B)` of the module docs: seeks plus discounted transfers for a
    /// plan of `budget` ranges covering `cells + extra` cells, priced at
    /// `rates = (seek_us, transfer_us)` — the [`DiskModel`] defaults or
    /// the measured fit, per [`Self::cost_rates`]. Density may exceed 1
    /// (duplicate records per cell are allowed), in which case a scanned
    /// span yields proportionally more entries.
    fn estimate_us(
        &self,
        budget: u64,
        cells: u64,
        extra: u64,
        density: f64,
        hit_rate: f64,
        rates: (f64, f64),
    ) -> f64 {
        let (seek_us, transfer_us) = rates;
        let entries = (cells + extra) as f64 * density.max(0.0);
        let pages = (entries / self.model.page_size.max(1) as f64).ceil() + budget as f64;
        budget as f64 * seek_us + pages * (1.0 - hit_rate) * transfer_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdd() -> DiskModel {
        DiskModel::hdd()
    }

    #[test]
    fn cold_planner_on_seek_heavy_model_coalesces() {
        // 64 single-cell clusters with tiny gaps: on an HDD (8 ms seek vs
        // 0.1 ms page) the exact decomposition is absurdly seek-bound.
        let ranges: Vec<(u64, u64)> = (0..64u64).map(|i| (i * 3, i * 3)).collect();
        let planner = Planner::new(hdd());
        let plan = planner.plan_ranges(&ranges, 1.0);
        assert!(
            plan.ranges.len() < 64,
            "seek-heavy model must coalesce: {}",
            plan.explain()
        );
        assert!(plan.est_chosen_us < plan.est_full_us);
        assert_eq!(plan.clusters, 64);
        // Coverage is preserved.
        for &(lo, hi) in &ranges {
            assert!(plan.ranges.iter().any(|&(plo, phi)| plo <= lo && hi <= phi));
        }
    }

    #[test]
    fn transfer_heavy_model_keeps_the_exact_decomposition() {
        // Two clusters separated by a huge gap, with seeks nearly free:
        // absorbing the gap can only lose.
        let model = DiskModel {
            page_size: 4,
            seek_us: 1.0,
            transfer_us: 1000.0,
        };
        let ranges = [(0u64, 3u64), (100_000, 100_003)];
        let planner = Planner::new(model);
        let plan = planner.plan_ranges(&ranges, 1.0);
        assert_eq!(plan.ranges, ranges.to_vec(), "{}", plan.explain());
        assert_eq!(plan.strategy(), PlanStrategy::FullDecomposition);
        assert_eq!(plan.extra_cells, 0);
    }

    #[test]
    fn warm_pool_feedback_shifts_the_plan_toward_fewer_seeks() {
        // A mildly transfer-priced model where gaps are borderline: cold,
        // the planner keeps pieces; after observing a high hit rate,
        // transfers become nearly free and it coalesces further.
        let model = DiskModel {
            page_size: 8,
            seek_us: 400.0,
            transfer_us: 100.0,
        };
        let ranges: Vec<(u64, u64)> = (0..16u64).map(|i| (i * 64, i * 64 + 7)).collect();
        let planner = Planner::new(model);
        let cold = planner.plan_ranges(&ranges, 1.0);
        // Observe a long warm history: almost every page a hit.
        planner.observe(&IoStats {
            seeks: 100,
            pages: 10,
            cache_hits: 10_000,
            ..IoStats::default()
        });
        let warm = planner.plan_ranges(&ranges, 1.0);
        assert!(planner.hit_rate() > 0.95);
        assert!(
            warm.ranges.len() < cold.ranges.len(),
            "warm {} vs cold {}",
            warm.explain(),
            cold.explain()
        );
    }

    #[test]
    fn density_discounts_sparse_tables() {
        // Same geometry, sparse table: far fewer expected entries per
        // span, so absorbing gaps is cheaper and the plan coalesces more.
        let model = DiskModel {
            page_size: 8,
            seek_us: 500.0,
            transfer_us: 120.0,
        };
        let ranges: Vec<(u64, u64)> = (0..16u64).map(|i| (i * 640, i * 640 + 63)).collect();
        let planner = Planner::new(model);
        let dense = planner.plan_ranges(&ranges, 1.0);
        let sparse = planner.plan_ranges(&ranges, 0.01);
        assert!(
            sparse.ranges.len() <= dense.ranges.len(),
            "sparse {} vs dense {}",
            sparse.explain(),
            dense.explain()
        );
        assert!(sparse.ranges.len() < 16);
    }

    #[test]
    fn cost_ties_keep_the_exact_decomposition() {
        // Merging here saves one seek (100) and one probe page (100) but
        // adds two gap pages (200): an exact tie. The planner must keep
        // the full decomposition rather than absorb cells for nothing.
        let model = DiskModel {
            page_size: 1,
            seek_us: 100.0,
            transfer_us: 100.0,
        };
        let ranges = [(0u64, 0u64), (3, 3)];
        let planner = Planner::new(model);
        let plan = planner.plan_ranges(&ranges, 1.0);
        assert_eq!(plan.ranges, ranges.to_vec(), "{}", plan.explain());
        assert!((plan.est_chosen_us - plan.est_full_us).abs() < 1e-9);
    }

    #[test]
    fn hit_rate_forgets_stale_history() {
        let planner = Planner::new(hdd());
        // A long warm history: ~1M hit events (far past the window).
        for _ in 0..64 {
            planner.observe(&IoStats {
                seeks: 1,
                pages: 10,
                cache_hits: 16_000,
                ..IoStats::default()
            });
        }
        assert!(planner.hit_rate() > 0.95);
        // The workload shifts: the pool thrashes, every page misses. A
        // bounded number of observations must drag the estimate down —
        // with lifetime counters it would take ~1M miss pages to halve.
        for _ in 0..16 {
            planner.observe(&IoStats {
                seeks: 1,
                pages: 16_000,
                ..IoStats::default()
            });
        }
        assert!(
            planner.hit_rate() < 0.3,
            "stale warmth must decay: {}",
            planner.hit_rate()
        );
    }

    #[test]
    fn duplicate_heavy_density_raises_transfer_cost() {
        // Density > 1 (duplicate records per cell) must scale expected
        // entries up, not be clamped to 1: absorbing gaps gets *more*
        // expensive, so the plan keeps at least as many pieces.
        let model = DiskModel {
            page_size: 8,
            seek_us: 400.0,
            transfer_us: 100.0,
        };
        let ranges: Vec<(u64, u64)> = (0..16u64).map(|i| (i * 64, i * 64 + 7)).collect();
        let planner = Planner::new(model);
        let unit = planner.plan_ranges(&ranges, 1.0);
        let dup_heavy = planner.plan_ranges(&ranges, 8.0);
        assert!(
            dup_heavy.ranges.len() >= unit.ranges.len(),
            "dup-heavy {} vs unit {}",
            dup_heavy.explain(),
            unit.explain()
        );
        assert!(dup_heavy.est_full_us > unit.est_full_us);
    }

    #[test]
    fn trivial_and_single_cluster_plans_pass_through() {
        let planner = Planner::new(hdd());
        let empty = planner.plan_ranges(&[], 1.0);
        assert!(empty.ranges.is_empty());
        assert_eq!(empty.clusters, 0);
        let one = planner.plan_ranges(&[(5, 9)], 0.5);
        assert_eq!(one.ranges, vec![(5, 9)]);
        assert_eq!(one.strategy(), PlanStrategy::FullDecomposition);
        assert!(one.explain().contains("1 of 1"));
    }

    #[test]
    fn measured_latency_fit_recovers_the_true_rates() {
        let planner = Planner::new(hdd());
        assert!(planner.measured_costs().is_none(), "uncalibrated at birth");
        // Synthesize queries against a medium where a seek really costs
        // 500 µs and a page 20 µs; vary the mix so the 2×2 system is
        // well-conditioned.
        for i in 1..=40u64 {
            let seeks = 1 + (i % 7);
            let pages = 2 + (i * 3) % 29;
            let wall = seeks as f64 * 500.0 + pages as f64 * 20.0;
            planner.observe_latency(seeks, pages, wall);
        }
        let (seek_us, transfer_us) = planner.measured_costs().expect("calibrated");
        assert!((seek_us - 500.0).abs() < 1.0, "seek fit {seek_us}");
        assert!(
            (transfer_us - 20.0).abs() < 1.0,
            "transfer fit {transfer_us}"
        );
        // The fit, not the simulated HDD constants, now prices plans: the
        // full decomposition of 64 single-cell clusters costs 64 measured
        // seeks (~32 ms), not 64 simulated 8 ms seeks (~512 ms).
        let ranges: Vec<(u64, u64)> = (0..64u64).map(|i| (i * 3, i * 3)).collect();
        let plan = planner.plan_ranges(&ranges, 1.0);
        assert!(
            plan.est_full_us < 64.0 * 1000.0,
            "must be priced at measured rates: {}",
            plan.explain()
        );
        assert!(plan.est_full_us > 64.0 * 400.0, "{}", plan.explain());
        // Degenerate and junk observations are rejected, not absorbed.
        planner.observe_latency(0, 0, 1.0);
        planner.observe_latency(1, 1, f64::NAN);
        let (s2, t2) = planner.measured_costs().expect("still calibrated");
        assert!((s2 - seek_us).abs() < 1e-9 && (t2 - transfer_us).abs() < 1e-9);
    }

    #[test]
    fn pages_only_workload_degrades_to_a_transfer_fit() {
        let planner = Planner::new(hdd());
        // Every observation is one sequential run: seeks ∝ pages is rank
        // deficient... but here seeks are constant 1 while pages vary, so
        // use a truly proportional mix to hit the degenerate arm.
        for _ in 0..40 {
            planner.observe_latency(2, 10, 2.0 * 100.0 + 10.0 * 50.0);
        }
        let (_, transfer_us) = planner.measured_costs().expect("calibrated");
        // The pages-only fallback folds the seek cost into the per-page
        // rate: 700 µs over 10 pages.
        assert!(transfer_us > 0.0);
    }

    #[test]
    fn shard_skew_tracks_imbalance() {
        let planner = Planner::new(hdd());
        assert!((planner.shard_skew() - 1.0).abs() < 1e-9);
        // One hot shard, three idle-ish ones, repeatedly observed.
        let hot = IoStats {
            seeks: 10,
            pages: 100,
            ..IoStats::default()
        };
        let cool = IoStats {
            seeks: 1,
            pages: 1,
            ..IoStats::default()
        };
        for _ in 0..50 {
            planner.observe_shards(&[hot, cool, cool, cool]);
        }
        assert!(planner.shard_skew() > 1.5, "skew {}", planner.shard_skew());
        // Untouched shards (zero seeks) are excluded from the mean.
        planner.observe_shards(&[IoStats::default(); 4]);
        assert!(planner.shard_skew() > 1.5);
    }
}
