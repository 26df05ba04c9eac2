//! Hot-path perf tracking: times the innermost mapping kernels before and
//! after this repo's batch/stepper rewrite and exports the results as
//! `BENCH_hotpath.json` (committed at the repo root so the perf trajectory
//! is visible across PRs).
//!
//! Every comparison runs the *same* algorithm twice: once on the raw curve
//! (specialized batch + O(1) stepping kernels) and once wrapped in
//! [`ScalarOnly`], which strips the specializations back to one closed-form
//! unrank per probe — the pre-rewrite behavior.
//!
//! Flags: `--out <path>` (default `BENCH_hotpath.json`), `--quick` (fewer
//! repetitions, for smoke runs).

use onion_core::{CurveWalk, Onion2D, Onion3D, Point, SpaceFillingCurve};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_baselines::Morton;
use sfc_bench::baseline::ScalarOnly;
use sfc_bench::{print_table, Row};
use sfc_clustering::{
    average_clustering_exact, cluster_ranges_into, clustering_number_with, ClusterMethod,
    ClusterScratch, RectQuery,
};
use sfc_engine::{CommitPolicy, Engine, EngineConfig, Request};
use sfc_index::{
    BPlusTree, Backend, DiskModel, LruBufferPool, MemoryBackend, Planner, QueryOptions, Record,
    ShardedTable, DEFAULT_NODE_CAPACITY,
};
use sfc_net::{Client, Replica, ReplicaState, Server};
use sfc_workloads::{client_streams, mixed_op_stream, zipf_points, OpMix, StreamOp, ZipfSampler};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One tracked measurement: a baseline-vs-optimized pair, or a
/// timing-only entry (no scalar twin exists) with `baseline_ns: None`.
struct Comparison {
    name: &'static str,
    baseline_ns: Option<f64>,
    optimized_ns: f64,
}

impl Comparison {
    fn speedup(&self) -> Option<f64> {
        self.baseline_ns.map(|b| b / self.optimized_ns)
    }
}

/// Best-of-N wall time of `f`, in nanoseconds.
fn time_ns<F: FnMut() -> u64>(reps: usize, mut f: F) -> f64 {
    let mut sink = 0u64;
    sink = sink.wrapping_add(f()); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    std::hint::black_box(sink);
    best
}

fn walk_sum<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> u64 {
    let mut acc = 0u64;
    for p in CurveWalk::new(curve) {
        acc = acc.wrapping_add(u64::from(p.0[0]) ^ u64::from(p.0[D - 1]));
    }
    acc
}

/// Total range count of every query's exact decomposition, through one
/// reused scratch.
fn decompose_all<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    queries: &[RectQuery<D>],
) -> u64 {
    let mut scratch = ClusterScratch::new();
    queries
        .iter()
        .map(|q| scratch.ranges_of(curve, q).len() as u64)
        .sum()
}

fn main() {
    let mut out_path = String::from("BENCH_hotpath.json");
    let mut reps = 7usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--quick" => reps = 2,
            "--help" | "-h" => {
                eprintln!("flags: [--out <path>] [--quick]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    let mut comparisons: Vec<Comparison> = Vec::new();
    // Millisecond-scale wall-clock kernels whose best of 2 (`--quick`)
    // can land wholly in a slow phase of the host and read ~2x on
    // unchanged code: `curve_walk/onion2d`, `clustering/entry_scan`,
    // `exact_average`, `engine/mvcc_scan_vs_writer` and
    // `engine/replica_failover` take the min over at least 12 reps, as
    // `index/segment_scan` does.
    let floor_reps = reps.max(12);

    // Full-curve walks: per-index unrank (ScalarOnly inherits the default
    // `fill_walk`, i.e. one unrank per cell) vs. the run-emitting batched
    // walk — `CurveWalk` pulls 1024-cell chunks through `fill_walk`, and
    // the onion overrides emit whole ring edges / 3D segments as counted
    // loops (~1–2 ns/cell). This replaced the per-cell stepper, whose
    // branchy successor was already ~3 ns/cell but paid a classification
    // per step; a *branchless* successor was tried first and measured ~2x
    // slower on walks (sequential steps are perfectly predicted, so the
    // select chain's extra data dependencies were pure cost).
    {
        let onion = Onion2D::new(1 << 10).unwrap();
        let slow = ScalarOnly(onion);
        comparisons.push(Comparison {
            name: "curve_walk/onion2d/side1024",
            baseline_ns: Some(time_ns(floor_reps, || walk_sum(&slow))),
            optimized_ns: time_ns(floor_reps, || walk_sum(&onion)),
        });
    }
    {
        let onion = Onion3D::new(1 << 6).unwrap();
        let slow = ScalarOnly(onion);
        comparisons.push(Comparison {
            name: "curve_walk/onion3d/side64",
            baseline_ns: Some(time_ns(reps, || walk_sum(&slow))),
            optimized_ns: time_ns(reps, || walk_sum(&onion)),
        });
    }

    // Clustering scans at side 2^10: every predecessor/successor probe is a
    // perimeter step vs. a full unrank.
    {
        let side = 1u32 << 10;
        let onion = Onion2D::new(side).unwrap();
        let slow = ScalarOnly(onion);
        let l = 512u32;
        let q = RectQuery::new([(side - l) / 2, (side - l) / 3], [l, l]).unwrap();
        comparisons.push(Comparison {
            name: "clustering/entry_scan/onion2d/side1024/l512",
            baseline_ns: Some(time_ns(floor_reps, || {
                clustering_number_with(&slow, &q, ClusterMethod::EntryScan)
            })),
            optimized_ns: time_ns(floor_reps, || {
                clustering_number_with(&onion, &q, ClusterMethod::EntryScan)
            }),
        });
        comparisons.push(Comparison {
            name: "clustering/boundary_scan/onion2d/side1024/l512",
            baseline_ns: Some(time_ns(reps * 4, || {
                clustering_number_with(&slow, &q, ClusterMethod::BoundaryScan)
            })),
            optimized_ns: time_ns(reps * 4, || {
                clustering_number_with(&onion, &q, ClusterMethod::BoundaryScan)
            }),
        });
        // Allocation-free range decomposition with reused scratch —
        // timing-only (no scalar twin: the old API allocated fresh vectors
        // per call), tracked so its trajectory is still visible.
        let mut scratch = ClusterScratch::new();
        let mut ranges = Vec::new();
        comparisons.push(Comparison {
            name: "clustering/ranges_scratch/onion2d/side1024/l512",
            baseline_ns: None,
            optimized_ns: time_ns(reps * 4, || {
                cluster_ranges_into(&onion, &q, &mut scratch, &mut ranges);
                ranges.len() as u64
            }),
        });
    }

    // Exact average clustering (Lemma 1 edge walk) via the stepper.
    {
        let onion = Onion2D::new(1 << 8).unwrap();
        let slow = ScalarOnly(onion);
        comparisons.push(Comparison {
            name: "exact_average/onion2d/side256/shape32",
            baseline_ns: Some(time_ns(floor_reps, || {
                average_clustering_exact(&slow, [32, 32]).unwrap().to_bits()
            })),
            optimized_ns: time_ns(floor_reps, || {
                average_clustering_exact(&onion, [32, 32])
                    .unwrap()
                    .to_bits()
            }),
        });
    }

    // Batch inverse mapping through a dyn curve: virtual call per cell vs.
    // per batch. The dyn dispatch itself was already hoisted to one call
    // per batch in PR 1, which is why this pair long sat at ~1.01x — both
    // sides were bounded by the same unrank kernel, whose software
    // `u64::isqrt` dominated the per-cell cost. PR 5 swapped it for an
    // FPU sqrt with an exact fixup (`isqrt_fast`, mirroring the 3D
    // curve's `icbrt`), which cut the *absolute* per-cell cost of both
    // sides: optimized_ns dropped from ~2.03ms to ~1.5ms for the 64k
    // batch. PR 6 made `unrank_in_perimeter` branch-free (random indices
    // hit all four perimeter rules, so the old branches were unpredictable
    // and cost ~10 ns/cell in mispredicts): ~1.5ms → ~0.8ms. The ratio
    // still sits near 1x by construction — the baseline unranks through
    // the same kernel — so the absolute number is the one this entry
    // tracks. Two batch-side restructurings measured slower and were
    // dropped: an 8-wide lane split of the sqrt (the FPU already pipelines
    // independent iterations) and a fully branch-free ring-location fixup
    // chain (loses to `isqrt_fast`'s never-taken predicted branches).
    {
        let side = 1u32 << 10;
        let curve: Box<dyn SpaceFillingCurve<2>> = Box::new(Onion2D::new(side).unwrap());
        let n = u64::from(side) * u64::from(side);
        let mut probe = 0x9E3779B97F4A7C15u64;
        let indices: Vec<u64> = (0..(1 << 16))
            .map(|_| {
                probe = probe.wrapping_mul(6364136223846793005).wrapping_add(1);
                probe % n
            })
            .collect();
        let mut out: Vec<Point<2>> = Vec::with_capacity(indices.len());
        comparisons.push(Comparison {
            name: "batch/fill_points/onion2d_dyn/64k",
            baseline_ns: Some(time_ns(reps, || {
                out.clear();
                for &idx in &indices {
                    out.push(curve.point_unchecked(idx));
                }
                out.len() as u64
            })),
            optimized_ns: time_ns(reps, || {
                out.clear();
                curve.fill_points(&indices, &mut out);
                out.len() as u64
            }),
        });
    }

    // 3D twin of the pair above: the layer location is an `icbrt` chain
    // and the in-layer decode scans up to ten segments, so the kernel is
    // heavier than 2D; the batch side lane-batches the cube-root part
    // across chunks of eight indices.
    {
        let side = 1u32 << 6;
        let curve: Box<dyn SpaceFillingCurve<3>> = Box::new(Onion3D::new(side).unwrap());
        let n = curve.universe().cell_count();
        let mut probe = 0x2545F4914F6CDD1Du64;
        let indices: Vec<u64> = (0..(1 << 16))
            .map(|_| {
                probe = probe.wrapping_mul(6364136223846793005).wrapping_add(1);
                probe % n
            })
            .collect();
        let mut out: Vec<Point<3>> = Vec::with_capacity(indices.len());
        comparisons.push(Comparison {
            name: "batch/fill_points/onion3d_dyn/64k",
            baseline_ns: Some(time_ns(reps, || {
                out.clear();
                for &idx in &indices {
                    out.push(curve.point_unchecked(idx));
                }
                out.len() as u64
            })),
            optimized_ns: time_ns(reps, || {
                out.clear();
                curve.fill_points(&indices, &mut out);
                out.len() as u64
            }),
        });
    }

    // Bulk keying, the stage ShardedTable::build batches: one virtual call per
    // record through the dyn boundary vs. one fill_indices batch. This pair
    // sat flat for several PRs (~1.0x) because the old baseline called
    // `slow.fill_indices` — ONE virtual call whose ScalarOnly default then
    // statically inlined the same rank kernel, so both sides compiled to
    // the identical loop. The baseline now keys each record through the
    // `dyn` pointer, which is what a non-batched build actually does.
    // Timed in isolation — a full build is dominated by clone + sort +
    // bulk-load, which would bury the keying kernel below noise.
    {
        let side = 1u32 << 8;
        let fast: Box<dyn SpaceFillingCurve<2>> = Box::new(Onion2D::new(side).unwrap());
        let points: Vec<Point<2>> = (0..side)
            .flat_map(|x| (0..side).map(move |y| Point::new([x, y])))
            .collect();
        let mut keys: Vec<u64> = Vec::with_capacity(points.len());
        comparisons.push(Comparison {
            name: "index/bulk_keying/onion2d_dyn/65k",
            baseline_ns: Some(time_ns(reps * 4, || {
                keys.clear();
                for &p in &points {
                    keys.push(fast.index_unchecked(p));
                }
                keys.len() as u64
            })),
            optimized_ns: time_ns(reps * 4, || {
                keys.clear();
                fast.fill_indices(&points, &mut keys);
                keys.len() as u64
            }),
        });
    }

    // Bulk keying through a bit-parallel curve: the onion pair above stays
    // near 1.0x because its rank kernel is ~3 ns/cell scalar either way,
    // but for Morton the batch path swaps the per-bit/magic-mask interleave
    // for one BMI2 `pdep` per coordinate — this is the pair that shows what
    // routing `ShardedTable::build` keying through `fill_indices` buys.
    {
        let side = 1u32 << 8;
        let fast: Box<dyn SpaceFillingCurve<2>> = Box::new(Morton::<2>::new(side).unwrap());
        let points: Vec<Point<2>> = (0..side)
            .flat_map(|x| (0..side).map(move |y| Point::new([x, y])))
            .collect();
        let mut keys: Vec<u64> = Vec::with_capacity(points.len());
        comparisons.push(Comparison {
            name: "index/bulk_keying/morton2d_dyn/65k",
            baseline_ns: Some(time_ns(reps * 4, || {
                keys.clear();
                for &p in &points {
                    keys.push(fast.index_unchecked(p));
                }
                keys.len() as u64
            })),
            optimized_ns: time_ns(reps * 4, || {
                keys.clear();
                fast.fill_indices(&points, &mut keys);
                keys.len() as u64
            }),
        });
    }
    // Leaf-chain range scan with software prefetch: the tree is grown by
    // 64k random-order inserts, so the linked leaves are scattered through
    // the node arena in split order and every `next` hop is a
    // data-dependent cache miss the hardware prefetcher cannot predict.
    // `scan_range` hints the next leaf one leaf early;
    // `scan_range_reference` is the pinned no-prefetch twin with identical
    // visiting semantics.
    {
        let mut probe = 0xD1B54A32D192ED03u64;
        let mut tree: BPlusTree<u64> = BPlusTree::new(DEFAULT_NODE_CAPACITY);
        for _ in 0..(1 << 16) {
            probe = probe
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            tree.insert(probe, probe >> 32);
        }
        // A ~50–150 µs memory-bound kernel whose speed swings ~2x with
        // the host's load over tens of milliseconds: best of 4 (`--quick`)
        // often sees only the slow phase, so take at least 64 reps.
        let scan_reps = (reps * 2).max(64);
        let mut acc = 0u64;
        comparisons.push(Comparison {
            name: "index/scan_range/prefetch/scatter64k",
            baseline_ns: Some(time_ns(scan_reps, || {
                acc = 0;
                tree.scan_range_reference(0, u64::MAX, &mut |_| {}, &mut |k, v| {
                    acc = acc.wrapping_add(k ^ v);
                });
                acc
            })),
            optimized_ns: time_ns(scan_reps, || {
                acc = 0;
                tree.scan_range(0, u64::MAX, &mut |_| {}, &mut |k, v| {
                    acc = acc.wrapping_add(k ^ v);
                });
                acc
            }),
        });
    }

    // Multi-range scan of whole query plans: each cube's exact
    // decomposition (~65 ranges at these sizes) is one plan. Every range
    // lands on a cold leaf — 2M records make the leaves far exceed L2 —
    // and one landing needs nothing from the one before it. The baseline
    // scans a plan range by range through `Backend::scan`, so each landing
    // waits for the last; `MemoryBackend::scan_ranges` runs one windowed
    // leaf walk that descends and hints later ranges' leaves while it
    // scans the current one. Both sides visit the same entries and count
    // the same pages.
    {
        let side = 1u32 << 12;
        let onion = Onion2D::new(side).unwrap();
        let sampler = ZipfSampler::new(side, 0.6);
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        let points: Vec<Point<2>> = (0..2_000_000).map(|_| sampler.point(&mut rng)).collect();
        let mut keys = Vec::with_capacity(points.len());
        onion.fill_indices(&points, &mut keys);
        let mut entries: Vec<(u64, Record<2, u64>)> = keys
            .into_iter()
            .zip(points)
            .enumerate()
            .map(|(i, (k, point))| {
                (
                    k,
                    Record {
                        point,
                        value: i as u64,
                    },
                )
            })
            .collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        let backend = MemoryBackend::bulk_load(entries);
        let mut scratch = ClusterScratch::new();
        let plans: Vec<Vec<(u64, u64)>> = (0..2000)
            .map(|_| {
                let u = rng.random_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64;
                let l = ((8.0 * (257.0f64 / 8.0).powf(u)) as u32).clamp(8, 256);
                let lo = [0; 2].map(|_| rng.random_range(0..=side - l));
                scratch
                    .ranges_of(&onion, &RectQuery::new(lo, [l, l]).unwrap())
                    .to_vec()
            })
            .collect();
        let mut acc = 0u64;
        comparisons.push(Comparison {
            name: "index/scan_ranges/onion2d/zipf2m/cubes",
            baseline_ns: Some(time_ns(reps, || {
                acc = 0;
                for plan in &plans {
                    for &(lo, hi) in plan {
                        let io = backend
                            .scan(lo, hi, &mut |k, r| acc = acc.wrapping_add(k ^ r.value))
                            .unwrap();
                        acc = acc.wrapping_add(io.pages);
                    }
                }
                acc
            })),
            optimized_ns: time_ns(reps, || {
                acc = 0;
                for plan in &plans {
                    let io = backend
                        .scan_ranges(plan, &mut |k, r| acc = acc.wrapping_add(k ^ r.value))
                        .unwrap();
                    acc = acc.wrapping_add(io.pages);
                }
                acc
            }),
        });
    }

    // Decomposition time against the query's surface: `ranges_of` over 40
    // random squares per side length (Fig 5a's lengths in 2D, one large
    // cube in 3D). Boundary enumeration visits only the shell cells, so
    // these grow with ℓ (2D) and ℓ² (3D), not with the area or volume;
    // correct output alone cannot show that, so CI watches the family.
    {
        let mut rng = StdRng::seed_from_u64(0xDEC0);
        let onion = Onion2D::new(1 << 10).unwrap();
        for (name, l) in [
            ("clustering/decompose/onion2d/side1024/l174", 174u32),
            ("clustering/decompose/onion2d/side1024/l574", 574),
            ("clustering/decompose/onion2d/side1024/l974", 974),
        ] {
            let queries: Vec<RectQuery<2>> = (0..40)
                .map(|_| {
                    let lo = [0; 2].map(|_| rng.random_range(0..=(1 << 10) - l));
                    RectQuery::new(lo, [l, l]).unwrap()
                })
                .collect();
            comparisons.push(Comparison {
                name,
                baseline_ns: None,
                optimized_ns: time_ns(reps, || decompose_all(&onion, &queries)),
            });
        }
        let onion = Onion3D::new(1 << 8).unwrap();
        let l = 240u32;
        let queries: Vec<RectQuery<3>> = (0..40)
            .map(|_| {
                let lo = [0; 3].map(|_| rng.random_range(0..=(1 << 8) - l));
                RectQuery::new(lo, [l, l, l]).unwrap()
            })
            .collect();
        comparisons.push(Comparison {
            name: "clustering/decompose/onion3d/side256/l240",
            baseline_ns: None,
            optimized_ns: time_ns(reps, || decompose_all(&onion, &queries)),
        });
    }

    // Sanity anchor: the end-to-end table build these keys feed (timing
    // only — clone + sort + bulk-load dominate, so no pair is claimed).
    {
        let side = 1u32 << 8;
        let curve = Onion2D::new(side).unwrap();
        let records: Vec<(Point<2>, u32)> = (0..side)
            .flat_map(|x| (0..side).map(move |y| (Point::new([x, y]), x ^ y)))
            .collect();
        comparisons.push(Comparison {
            name: "index/table_build/onion2d/65k",
            baseline_ns: None,
            optimized_ns: time_ns(reps, || {
                ShardedTable::build(curve, records.clone(), DiskModel::ssd(), 1)
                    .unwrap()
                    .len() as u64
            }),
        });
    }

    // Sharded query engine on a skewed (Zipf) workload. Three views:
    //
    // * `simio` — deterministic simulated I/O latency under one HDD-model
    //   disk *per shard*: a query's latency is its slowest shard's
    //   seek+transfer time (seeks split at shard boundaries), summed over
    //   the query batch. Baseline = the same engine at 1 shard, i.e. the
    //   serial seek total. This is the paper's cost model, so the scaling
    //   numbers are machine-independent; skew caps the speedup below the
    //   shard count because the hot shard bounds the critical path.
    // * `wall` — wall-clock time of the concurrent (`thread::scope`) batch
    //   path, recorded timing-only: thread speedup depends on the host's
    //   cores (CI boxes may have one), so no baseline pair is claimed.
    // * `query_rect/cross_shard` — wall-clock of single queries that span
    //   both shards of a 2-shard table against the 1-shard table.
    {
        let side = 1u32 << 9;
        let mut rng = StdRng::seed_from_u64(42);
        let data = zipf_points::<2, _>(side, 200_000, 0.8, &mut rng);
        let records: Vec<(Point<2>, u64)> = data
            .points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let queries: Vec<RectQuery<2>> = (0..48)
            .map(|_| {
                let l = rng.random_range(32..224u32);
                let x = rng.random_range(0..side - l);
                let y = rng.random_range(0..side - l);
                RectQuery::new([x, y], [l, l]).unwrap()
            })
            .collect();
        let model = DiskModel::hdd();
        // Simulated critical-path latency of the whole batch at k shards.
        let sim_ns = |k: usize| -> f64 {
            let table = ShardedTable::build(Onion2D::new(side).unwrap(), records.clone(), model, k)
                .unwrap();
            let mut total_us = 0.0f64;
            for q in &queries {
                let res = table.query_rect(q, &QueryOptions::default()).unwrap();
                let critical = res
                    .shard_io
                    .iter()
                    .map(|s| s.time_us(&model))
                    .fold(0.0f64, f64::max);
                total_us += critical;
            }
            total_us * 1e3 // report in ns like every other entry
        };
        let serial = sim_ns(1);
        for (name, k) in [
            ("index/sharded_query_simio/onion2d/zipf200k/shards2", 2),
            ("index/sharded_query_simio/onion2d/zipf200k/shards4", 4),
            ("index/sharded_query_simio/onion2d/zipf200k/shards8", 8),
        ] {
            comparisons.push(Comparison {
                name,
                baseline_ns: Some(serial),
                optimized_ns: sim_ns(k),
            });
        }
        // Wall-clock of the concurrent batch path (timing-only).
        let sharded =
            ShardedTable::build(Onion2D::new(side).unwrap(), records.clone(), model, 4).unwrap();
        comparisons.push(Comparison {
            name: "index/sharded_query_wall/onion2d/zipf200k/shards4",
            baseline_ns: None,
            optimized_ns: time_ns(reps, || {
                sharded
                    .query_rect_batch(&queries)
                    .unwrap()
                    .iter()
                    .map(|r| r.records.len() as u64)
                    .sum()
            }),
        });
        // Cross-shard single queries: the cubes whose exact decomposition
        // seeks on both shards, one `query_rect` each. A query scans its
        // shards one after another on the calling thread, so the shard
        // split costs a range cut, not a thread: the ratio should sit
        // near 1x.
        let one =
            ShardedTable::build(Onion2D::new(side).unwrap(), records.clone(), model, 1).unwrap();
        let two =
            ShardedTable::build(Onion2D::new(side).unwrap(), records.clone(), model, 2).unwrap();
        let cross: Vec<RectQuery<2>> = queries
            .iter()
            .copied()
            .filter(|q| {
                let res = two.query_rect(q, &QueryOptions::default()).unwrap();
                res.shard_io.iter().all(|s| s.seeks > 0)
            })
            .collect();
        assert!(!cross.is_empty(), "no cube spans both shards");
        let scan_each = |table: &ShardedTable<Onion2D, u64, 2>| -> u64 {
            cross
                .iter()
                .map(|q| {
                    let res = table.query_rect(q, &QueryOptions::default()).unwrap();
                    res.records.len() as u64
                })
                .sum()
        };
        comparisons.push(Comparison {
            name: "index/query_rect/cross_shard/onion2d/zipf200k/shards2",
            baseline_ns: Some(time_ns(reps, || scan_each(&one))),
            optimized_ns: time_ns(reps, || scan_each(&two)),
        });
    }

    // Write path: a full insert + delete cycle riding B+-tree splits, as
    // 4096-op epochs through `apply_batch`, the table's only writer:
    // insert every cell, then delete every cell (timing-only).
    {
        let side = 1u32 << 8;
        let curve = Onion2D::new(side).unwrap();
        let points: Vec<Point<2>> = (0..side)
            .flat_map(|x| (0..side).map(move |y| Point::new([x, y])))
            .collect();
        comparisons.push(Comparison {
            name: "index/write_path/insert_delete/onion2d/65k",
            baseline_ns: None,
            optimized_ns: time_ns(reps, || {
                let t: ShardedTable<Onion2D, u32, 2> =
                    ShardedTable::build(curve, Vec::new(), DiskModel::ssd(), 1).unwrap();
                for (c, chunk) in points.chunks(4096).enumerate() {
                    let inserts: Vec<sfc_index::BatchOp<2, u32>> = chunk
                        .iter()
                        .enumerate()
                        .map(|(i, &p)| sfc_index::BatchOp::Insert(p, (c * 4096 + i) as u32))
                        .collect();
                    t.apply_batch(inserts).unwrap();
                }
                for chunk in points.chunks(4096) {
                    let deletes: Vec<sfc_index::BatchOp<2, u32>> = chunk
                        .iter()
                        .map(|&p| sfc_index::BatchOp::Delete(p))
                        .collect();
                    t.apply_batch(deletes).unwrap();
                }
                t.len() as u64
            }),
        });
    }

    // Adaptive planner vs fixed full decomposition on the paged backend
    // (file-backed segments behind a leaf cache): deterministic modelled
    // I/O time of a Zipf query batch under the HDD model. The planner
    // coalesces seek-heavy decompositions (and leans further on the leaf
    // cache as its live hit-rate estimate warms), so total modelled time
    // drops below the fixed `ranges_of` execution. Fresh tables per mode
    // keep the cache states independent. 8 KiB pages hold 292 records,
    // the power of two nearest the 256 entries per page `hdd()` gives the
    // planner.
    {
        use sfc_index::StoreConfig;
        let side = 1u32 << 9;
        let mut rng = StdRng::seed_from_u64(7);
        let data = zipf_points::<2, _>(side, 200_000, 0.8, &mut rng);
        let records: Vec<(Point<2>, u64)> = data
            .points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let queries: Vec<RectQuery<2>> = (0..48)
            .map(|_| {
                let l = rng.random_range(16..192u32);
                let x = rng.random_range(0..side - l);
                let y = rng.random_range(0..side - l);
                RectQuery::new([x, y], [l, l]).unwrap()
            })
            .collect();
        let model = DiskModel::hdd();
        let store = StoreConfig {
            page_size: 8192,
            pool_pages: 1 << 10,
        };
        let dir = std::env::temp_dir().join(format!("sfc-bench-planner-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fixed_us = {
            let t = ShardedTable::build_stored(
                Onion2D::new(side).unwrap(),
                records.clone(),
                model,
                1,
                &dir.join("fixed"),
                store,
            )
            .unwrap();
            queries
                .iter()
                .map(|q| {
                    t.query_rect(q, &QueryOptions::default())
                        .unwrap()
                        .io
                        .time_us(&model)
                })
                .sum::<f64>()
        };
        let planned_us = {
            let t = ShardedTable::build_stored(
                Onion2D::new(side).unwrap(),
                records.clone(),
                model,
                1,
                &dir.join("planned"),
                store,
            )
            .unwrap();
            let planner = Planner::new(model);
            let total = queries
                .iter()
                .map(|q| {
                    let res = t.query_rect(q, &QueryOptions::planned(&planner)).unwrap();
                    res.io.time_us(&model)
                })
                .sum::<f64>();
            // The entry is gated as machine-independent: it stays so only
            // while the planner prices with the model's defaults, never
            // with rates fitted from this host's measured latencies.
            assert!(
                planner.measured_costs().is_none(),
                "measured cost fit switched on"
            );
            total
        };
        let _ = std::fs::remove_dir_all(&dir);
        comparisons.push(Comparison {
            name: "planner/adaptive_vs_fixed/onion2d/zipf200k/paged",
            baseline_ns: Some(fixed_us * 1e3),
            optimized_ns: planned_us * 1e3,
        });
    }

    // The serving layer under mixed concurrent traffic: 2 reader threads
    // (gets + planned rect queries) run their fixed streams to completion
    // while 1 writer thread streams epoch-batched upserts/deletes as
    // continuous background load — the measured quantity is reader
    // completion time under that load. The writer brackets every flush in
    // a write lock on both sides (identical load); only the readers
    // differ: the baseline reconstructs the pre-MVCC discipline, every
    // read holding the read side of the lock so the reader fleet stalls
    // behind each epoch application (and convoys behind the writer's
    // queue), while the optimized side reads epoch-pinned versions and
    // never touches the lock. Same host, same thread layout, same
    // background writer — the ratio isolates exactly the reader-side
    // contention MVCC removes.
    {
        let side = 1u32 << 9;
        let mut rng = StdRng::seed_from_u64(21);
        let data = zipf_points::<2, _>(side, 200_000, 0.8, &mut rng);
        let records: Vec<(Point<2>, u64)> = data
            .points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let reader_streams: Vec<Vec<Request<2, u64>>> = (0..2)
            .map(|_| {
                mixed_op_stream::<2, _>(side, 800, &OpMix::read_only(), 0.8, 48, &mut rng)
                    .into_iter()
                    .map(Request::from)
                    .collect()
            })
            .collect();
        // Upsert form (no duplicate-inserting `Insert`) so the table
        // stays near its 200k-record steady state however many times the
        // background writer cycles the stream.
        let writer_stream: Vec<Request<2, u64>> =
            mixed_op_stream::<2, _>(side, 24_000, &OpMix::write_only(), 0.8, 1, &mut rng)
                .into_iter()
                .map(|op| match op {
                    StreamOp::Insert(p, v) | StreamOp::Update(p, v) => Request::Update(p, v),
                    StreamOp::Delete(p) => Request::Delete(p),
                    StreamOp::Get(p) => Request::Get(p),
                    StreamOp::Query(q) => Request::Query(q),
                })
                .collect();
        let table = ShardedTable::build(
            Onion2D::new(side).unwrap(),
            records.clone(),
            DiskModel::ssd(),
            4,
        )
        .unwrap();
        let engine = Engine::new(table, EngineConfig::with_epoch_ops(1 << 20));
        let gate = std::sync::RwLock::new(());
        let stop = AtomicBool::new(false);
        let (engine, gate, stop) = (&engine, &gate, &stop);
        let (mut baseline, mut optimized) = (0.0, 0.0);
        std::thread::scope(|s| {
            // Continuous epoch writer: admit a 512-op chunk, then apply it
            // under the write lock, until the readers are done measuring.
            let writer = &writer_stream;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for chunk in writer.chunks(2048) {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        for op in chunk {
                            engine.execute(op.clone()).unwrap();
                        }
                        let _apply = gate.write().unwrap();
                        engine.flush().unwrap();
                    }
                }
            });
            let serve = |locked: bool| -> u64 {
                std::thread::scope(|s2| {
                    for stream in &reader_streams {
                        s2.spawn(move || {
                            for op in stream {
                                let _scan = locked.then(|| gate.read().unwrap());
                                engine.execute(op.clone()).unwrap();
                            }
                        });
                    }
                });
                engine.stats().gets
            };
            baseline = time_ns(reps, || serve(true));
            optimized = time_ns(reps, || serve(false));
            stop.store(true, Ordering::Relaxed);
        });
        comparisons.push(Comparison {
            name: "engine/mixed_rw/onion2d/zipf200k/2r1w",
            baseline_ns: Some(baseline),
            optimized_ns: optimized,
        });
    }

    // The MVCC headline, isolated at the table layer: 2 scanner threads
    // run a fixed rect-scan workload (4 passes over 48 queries each) to
    // completion while a writer cycles whole-epoch batches through
    // `apply_batch` as continuous background load — the measured
    // quantity is scan completion time under that load. The writer
    // brackets every apply in a write lock on both sides (identical
    // load); only the scanners differ. Baseline: each scan holds the
    // read side (the pre-MVCC shard-lock discipline hoisted to table
    // scope), so scans stall behind every multi-millisecond epoch
    // application and convoy at the gate. Optimized: scans pin an epoch
    // version and run lock-free while the writer installs new versions
    // with a pointer swap — scan latency stays flat however fast epochs
    // land, and no scan ever observes a torn epoch. Each rep spans many
    // apply cycles, so best-of-N timing reflects the steady state, not a
    // lucky quiet window.
    {
        let side = 1u32 << 9;
        let mut rng = StdRng::seed_from_u64(77);
        let data = zipf_points::<2, _>(side, 200_000, 0.8, &mut rng);
        let records: Vec<(Point<2>, u64)> = data
            .points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let queries: Vec<RectQuery<2>> = (0..48)
            .map(|_| {
                let w = rng.random_range(16..128u32);
                let h = rng.random_range(16..128u32);
                let x = rng.random_range(0..side - w);
                let y = rng.random_range(0..side - h);
                RectQuery::new([x, y], [w, h]).unwrap()
            })
            .collect();
        let epochs: Vec<Vec<sfc_index::BatchOp<2, u64>>> = (0..16)
            .map(|e| {
                let batch = zipf_points::<2, _>(side, 8_192, 0.8, &mut rng);
                batch
                    .points
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| sfc_index::BatchOp::Update(p, (e * 10_000 + i) as u64))
                    .collect()
            })
            .collect();
        let table = ShardedTable::build(
            Onion2D::new(side).unwrap(),
            records.clone(),
            DiskModel::ssd(),
            4,
        )
        .unwrap();
        let gate = std::sync::RwLock::new(());
        let stop = AtomicBool::new(false);
        let (table, gate, stop, queries) = (&table, &gate, &stop, &queries);
        let (mut baseline, mut optimized) = (0.0, 0.0);
        std::thread::scope(|s| {
            // Continuous epoch writer, cycling the pre-generated batches
            // with a short admission gap between applies (the cadence a
            // real epoch writer has between flushes).
            let epochs = &epochs;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    {
                        let _apply = gate.write().unwrap();
                        table.apply_batch(epochs[i % epochs.len()].clone()).unwrap();
                    }
                    i += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            let run_scans = |locked: bool| -> u64 {
                std::thread::scope(|s2| {
                    let scanners: Vec<_> = (0..2)
                        .map(|_| {
                            s2.spawn(move || {
                                let mut rows = 0u64;
                                for _ in 0..4 {
                                    for q in queries {
                                        let _scan = locked.then(|| gate.read().unwrap());
                                        rows += table
                                            .query_rect(q, &QueryOptions::default())
                                            .unwrap()
                                            .records
                                            .len()
                                            as u64;
                                    }
                                }
                                rows
                            })
                        })
                        .collect();
                    scanners
                        .into_iter()
                        .map(|h| h.join().expect("scanner panicked"))
                        .sum()
                })
            };
            baseline = time_ns(floor_reps, || run_scans(true));
            optimized = time_ns(floor_reps, || run_scans(false));
            stop.store(true, Ordering::Relaxed);
        });
        comparisons.push(Comparison {
            name: "engine/mvcc_scan_vs_writer/onion2d/zipf200k/2r1w",
            baseline_ns: Some(baseline),
            optimized_ns: optimized,
        });
    }

    // Time-travel reads, warm vs cold: `as_of` an epoch still inside the
    // retention window pins a retained version (pointer chase, zero
    // I/O); `as_of` one evicted from it reconstructs the state by
    // `snapshot + WAL prefix` replay through the live log handle. The
    // pair prices the retention window — what keeping a few epochs of
    // COW versions in memory buys over re-reading history from disk.
    {
        let side = 1u32 << 9;
        let mut rng = StdRng::seed_from_u64(91);
        let dir = std::env::temp_dir().join(format!("sfc-bench-asof-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine: Engine<Onion2D, u64, 2> = Engine::open(
            &dir,
            Onion2D::new(side).unwrap(),
            DiskModel::ssd(),
            4,
            EngineConfig {
                epoch_ops: 1 << 20,
                retention: sfc_index::RetentionPolicy {
                    epochs: 4,
                    bytes: u64::MAX,
                },
                ..EngineConfig::default()
            },
        )
        .unwrap();
        const EPOCHS: u64 = 12;
        for _ in 0..EPOCHS {
            let batch = zipf_points::<2, _>(side, 2_048, 0.8, &mut rng);
            for (i, p) in batch.points.into_iter().enumerate() {
                engine.execute(Request::Update(p, i as u64)).unwrap();
            }
            engine.flush().unwrap();
        }
        let q = RectQuery::new([64, 64], [256, 256]).unwrap();
        let warm = EPOCHS - 1; // retained (window holds the last 4)
        let cold = 2; // long evicted: snapshot-less WAL-prefix replay
        assert!(engine.snapshot_at(warm).is_some());
        assert!(engine.snapshot_at(cold).is_none());
        comparisons.push(Comparison {
            name: "engine/mvcc_as_of/onion2d/zipf2k12e/window_vs_replay",
            baseline_ns: Some(time_ns(reps, || {
                engine.query_as_of(cold, &q).unwrap().records.len() as u64
            })),
            optimized_ns: time_ns(reps, || {
                engine.query_as_of(warm, &q).unwrap().records.len() as u64
            }),
        });
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The write path the epoch log buys: curve-order-sorted 4096-op
    // batches through `apply_batch` vs the same Zipf-ordered writes as
    // 1-op batches, one epoch per write. Both start from an empty
    // 4-shard table.
    {
        let side = 1u32 << 9;
        let mut rng = StdRng::seed_from_u64(33);
        let data = zipf_points::<2, _>(side, 100_000, 0.8, &mut rng);
        let records: Vec<(Point<2>, u64)> = data
            .points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let empty_table = || -> ShardedTable<Onion2D, u64, 2> {
            ShardedTable::build(Onion2D::new(side).unwrap(), Vec::new(), DiskModel::ssd(), 4)
                .unwrap()
        };
        comparisons.push(Comparison {
            name: "engine/write_epochs/onion2d/zipf100k",
            baseline_ns: Some(time_ns(reps, || {
                let t = empty_table();
                for &(p, v) in &records {
                    t.apply_batch(vec![sfc_index::BatchOp::Insert(p, v)])
                        .unwrap();
                }
                t.len() as u64
            })),
            optimized_ns: time_ns(reps, || {
                let t = empty_table();
                for chunk in records.chunks(4096) {
                    let batch: Vec<sfc_index::BatchOp<2, u64>> = chunk
                        .iter()
                        .map(|&(p, v)| sfc_index::BatchOp::Insert(p, v))
                        .collect();
                    t.apply_batch(batch).unwrap();
                }
                t.len() as u64
            }),
        });
    }

    // Durability tax on the epoch write path: the same Zipf write stream
    // flushed in 512-op epochs through an in-memory engine (baseline)
    // vs a durable one. Same epoch contents on both sides (identical
    // stream, identical auto-flush cadence), so the pair isolates
    // exactly the commit cost. The durable side runs the default
    // pipeline depth: frames encode into a reused buffer and queue; the
    // background sync thread appends and fsyncs a group whenever the
    // backlog nears the window, while the next epochs' admissions and
    // applies proceed, and the final explicit flush runs the last group
    // on its own thread — only it waits for the disk. The "speedup" is
    // the fraction of write throughput that survives turning durability
    // on — honest overhead tracking, expected below 1x (it was 0.19x
    // when every epoch paid a blocking fsync).
    {
        let side = 1u32 << 9;
        let mut rng = StdRng::seed_from_u64(55);
        let data = zipf_points::<2, _>(side, 16_384, 0.8, &mut rng);
        let writes: Vec<Request<2, u64>> = data
            .points
            .into_iter()
            .enumerate()
            .map(|(i, p)| Request::Update(p, i as u64))
            .collect();
        let bench_dir = std::env::temp_dir().join(format!("sfc-bench-wal-{}", std::process::id()));
        let config = EngineConfig::with_epoch_ops(512);
        let fresh_table = || -> ShardedTable<Onion2D, u64, 2> {
            ShardedTable::build(Onion2D::new(side).unwrap(), Vec::new(), DiskModel::ssd(), 4)
                .unwrap()
        };
        let open_durable =
            |dir: &std::path::Path, commit: CommitPolicy| -> Engine<Onion2D, u64, 2> {
                Engine::open(
                    dir,
                    Onion2D::new(side).unwrap(),
                    DiskModel::ssd(),
                    4,
                    EngineConfig { commit, ..config },
                )
                .unwrap()
            };
        let drive = |engine: &Engine<Onion2D, u64, 2>| -> u64 {
            for op in &writes {
                engine.execute(op.clone()).unwrap();
            }
            engine.flush().unwrap();
            engine.epoch()
        };
        // One engine per mode, built *outside* the timed closures, so the
        // pair times exactly the per-epoch cost delta (frame encode +
        // append + sync discipline) and none of the setup (directory
        // churn, WAL header creation, table build). The stream is all
        // updates over a fixed key population, so the table stays the
        // same size across reps; WAL length does not affect append cost.
        let _ = std::fs::remove_dir_all(&bench_dir);
        let mem_engine = Engine::new(fresh_table(), config);
        let dur_engine = open_durable(&bench_dir, CommitPolicy::default());
        comparisons.push(Comparison {
            name: "engine/wal_commit/onion2d/zipf16k/epoch512",
            baseline_ns: Some(time_ns(reps, || drive(&mem_engine))),
            optimized_ns: time_ns(reps, || drive(&dur_engine)),
        });
        drop(dur_engine);

        // Depth 0 vs the default depth of the one commit path,
        // like-for-like on the same durable stream: at depth 0
        // (`CommitPolicy::synchronous()`) every commit waits for its own
        // group sync (append + fsync) before the epoch applies; the
        // default lets up to 16 epochs ride unsynced. This is the pair
        // the wal_commit ratio above moves on.
        let sync_dir = bench_dir.with_extension("sync");
        let _ = std::fs::remove_dir_all(&sync_dir);
        let sync_engine = open_durable(&sync_dir, CommitPolicy::synchronous());
        let pipe_dir = bench_dir.with_extension("pipe");
        let _ = std::fs::remove_dir_all(&pipe_dir);
        let pipe_engine = open_durable(&pipe_dir, CommitPolicy::default());
        comparisons.push(Comparison {
            name: "engine/wal_commit_path/onion2d/sync_vs_pipelined",
            baseline_ns: Some(time_ns(reps, || drive(&sync_engine))),
            optimized_ns: time_ns(reps, || drive(&pipe_engine)),
        });
        drop(sync_engine);
        drop(pipe_engine);
        let _ = std::fs::remove_dir_all(&sync_dir);
        let _ = std::fs::remove_dir_all(&pipe_dir);

        // Group commit under concurrent flushers: N writer threads each
        // admit a run of updates and call `flush` (i.e. demand
        // durability) per round. Baseline: depth 0, where every leader's
        // commit waits for its own sync. Optimized: the default depth,
        // where the leader commits without waiting and each flusher then
        // waits for durability: whoever finds no group running syncs for
        // everyone, and one disk barrier acknowledges every flusher that
        // arrived while it ran. 1writers is the control: with no
        // concurrency to coalesce, both sides pay one fsync per round on
        // the flushing thread itself, so the ratio should read about 1x.
        for writers in [1usize, 4] {
            let rounds = 8usize;
            let per_round = 64u64;
            let run = |commit: CommitPolicy, tag: &str| -> f64 {
                let dir = bench_dir.with_extension(format!("gc-{writers}-{tag}"));
                let _ = std::fs::remove_dir_all(&dir);
                let engine = open_durable(&dir, commit);
                let ns = time_ns(reps, || {
                    let engine = &engine;
                    std::thread::scope(|s| {
                        for w in 0..writers as u64 {
                            s.spawn(move || {
                                for r in 0..rounds as u64 {
                                    for i in 0..per_round {
                                        let p = Point::new([
                                            ((w * 7919 + r * 131 + i * 17) % u64::from(side))
                                                as u32,
                                            ((w * 104729 + i * 29) % u64::from(side)) as u32,
                                        ]);
                                        engine
                                            .execute(Request::Update(
                                                p,
                                                w * 1_000_000 + r * 1000 + i,
                                            ))
                                            .unwrap();
                                    }
                                    engine.flush().unwrap();
                                }
                            });
                        }
                    });
                    engine.epoch()
                });
                drop(engine);
                let _ = std::fs::remove_dir_all(&dir);
                ns
            };
            let name: &'static str = if writers == 1 {
                "engine/group_commit/onion2d/1writers"
            } else {
                "engine/group_commit/onion2d/4writers"
            };
            comparisons.push(Comparison {
                name,
                baseline_ns: Some(run(CommitPolicy::synchronous(), "sync")),
                optimized_ns: run(CommitPolicy::default(), "pipe"),
            });
        }

        // Recovery: replay a fixed 32-epoch WAL back into a fresh
        // 4-shard table. The directory is rebuilt deterministically first
        // (the commit benchmark above left a rep-dependent number of
        // epochs). Timing-only — there is no meaningful scalar twin; the
        // number tracks how fast a restart returns to serving. Since
        // PR 5 the replay coalesces the WAL suffix into one batch and
        // applies it through the parallel per-shard path.
        let _ = std::fs::remove_dir_all(&bench_dir);
        drive(&open_durable(&bench_dir, CommitPolicy::default()));
        comparisons.push(Comparison {
            name: "engine/recovery_replay/onion2d/zipf16k/epoch512",
            baseline_ns: None,
            optimized_ns: time_ns(reps, || {
                let engine = open_durable(&bench_dir, CommitPolicy::default());
                engine.epoch() + engine.table().len() as u64
            }),
        });
        let _ = std::fs::remove_dir_all(&bench_dir);
    }

    // Parallel epoch apply: one large curve-sorted batch cut at shard
    // boundaries, with each shard's slice timed on its own. Reported in
    // the same spirit as `sharded_query_simio`: the baseline is the
    // serial apply (the per-shard costs summed — what one thread pays),
    // the optimized number is the parallel critical path (the slowest
    // shard — what the `thread::scope` apply pays on enough cores).
    // Machine-load independent to first order, since both numbers come
    // from the same single-threaded per-shard measurements. Uniform
    // points keep the shards balanced — this entry measures the apply
    // path's parallelism; skew-bounded scaling is already pinned by the
    // `sharded_query_simio` family. shards1 is the control at 1.0x.
    {
        let side = 1u32 << 9;
        let mut rng = StdRng::seed_from_u64(77);
        let updates: Vec<(Point<2>, u64)> = (0..65_536u64)
            .map(|i| {
                let p = Point::new([rng.random_range(0..side), rng.random_range(0..side)]);
                (p, i)
            })
            .collect();
        for (name, shard_count) in [
            ("engine/apply_parallel/onion2d/uniform64k/shards1", 1usize),
            ("engine/apply_parallel/onion2d/uniform64k/shards4", 4),
            ("engine/apply_parallel/onion2d/uniform64k/shards8", 8),
        ] {
            let curve = Onion2D::new(side).unwrap();
            // Prebuilt dense-ish table; the batch is all updates over the
            // same key population, so repeated applies are size-stable.
            let table: ShardedTable<Onion2D, u64, 2> =
                ShardedTable::build(curve, updates.clone(), DiskModel::ssd(), shard_count).unwrap();
            // Cut the batch at this table's partitions (as apply_batch does
            // internally), so each sub-batch touches exactly one shard and
            // apply_batch applies it on the calling thread: one shard's
            // slice of the epoch.
            let mut per_shard_ops: Vec<Vec<sfc_index::BatchOp<2, u64>>> =
                vec![Vec::new(); shard_count];
            for &(p, v) in &updates {
                let key = curve.index_of(p).unwrap();
                let shard = table
                    .partitions()
                    .iter()
                    .position(|part| part.lo <= key && key <= part.hi)
                    .expect("partitions cover the universe");
                per_shard_ops[shard].push(sfc_index::BatchOp::Update(p, v));
            }
            let mut serial_ns = 0.0f64;
            let mut critical_ns = 0.0f64;
            for ops in per_shard_ops.iter().filter(|o| !o.is_empty()) {
                let shard_ns = time_ns(reps, || {
                    table.apply_batch(ops.clone()).unwrap().len() as u64
                });
                serial_ns += shard_ns;
                critical_ns = critical_ns.max(shard_ns);
            }
            comparisons.push(Comparison {
                name,
                baseline_ns: Some(serial_ns),
                optimized_ns: critical_ns,
            });
        }
    }

    // Buffer-pool eviction: the old `min_by_key`-rescan LRU vs the O(1)
    // intrusive-list pool, on a capacity-exceeding page stream (every
    // access past warm-up evicts).
    {
        struct NaiveLru {
            capacity: usize,
            last_use: std::collections::HashMap<u64, u64>,
            tick: u64,
        }
        impl NaiveLru {
            fn access(&mut self, page: u64) -> bool {
                self.tick += 1;
                let hit = self.last_use.contains_key(&page);
                self.last_use.insert(page, self.tick);
                if !hit && self.last_use.len() > self.capacity {
                    let (&victim, _) = self.last_use.iter().min_by_key(|&(_, &t)| t).unwrap();
                    self.last_use.remove(&victim);
                }
                hit
            }
        }
        let capacity = 4096usize;
        let accesses = 1u64 << 16;
        let stream = |mut f: Box<dyn FnMut(u64) -> bool>| -> u64 {
            let mut state = 0x9E3779B97F4A7C15u64;
            let mut hits = 0u64;
            for _ in 0..accesses {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                hits += u64::from(f(state % (3 * capacity as u64)));
            }
            hits
        };
        comparisons.push(Comparison {
            name: "cache/lru_evict/cap4096/64k_accesses",
            baseline_ns: Some(time_ns(reps, || {
                let mut naive = NaiveLru {
                    capacity,
                    last_use: std::collections::HashMap::new(),
                    tick: 0,
                };
                stream(Box::new(move |p| naive.access(p)))
            })),
            optimized_ns: time_ns(reps, || {
                let mut pool = LruBufferPool::new(capacity);
                stream(Box::new(move |p| pool.access(p)))
            }),
        });
    }

    // Wire protocol serving rate: a 4-client fleet over TCP loopback vs
    // the same 4 request streams driven straight into `Engine::execute`
    // from 4 threads sharing one `&Engine` — the server hands every
    // decoded request to that same dispatcher, so the delta is the framed
    // protocol plus the kernel's loopback stack, nothing else.
    {
        use std::sync::Arc;
        const CLIENTS: usize = 4;
        const OPS_PER_CLIENT: usize = 1500;
        let side = 1u32 << 7;
        let fleet = client_streams::<2>(
            CLIENTS,
            side,
            OPS_PER_CLIENT,
            &OpMix::read_heavy(),
            0.8,
            8,
            0x5FC_0E7,
        );
        let mk_engine = || {
            let curve = Onion2D::new(side).unwrap();
            let table = ShardedTable::build(curve, Vec::new(), DiskModel::ssd(), 4).unwrap();
            Arc::new(Engine::new(table, EngineConfig::default()))
        };
        let drive = |mut clients: Vec<Client<Onion2D, u64, 2>>| -> u64 {
            std::thread::scope(|s| {
                for (client, stream) in clients.iter_mut().zip(&fleet) {
                    s.spawn(move || {
                        for op in stream {
                            client.execute(op.clone().into()).unwrap();
                        }
                    });
                }
            });
            (CLIENTS * OPS_PER_CLIENT) as u64
        };
        let local_ns = time_ns(reps, || {
            let engine = mk_engine();
            let engine = &*engine;
            std::thread::scope(|s| {
                for stream in &fleet {
                    s.spawn(move || {
                        for op in stream {
                            engine.execute(op.clone().into()).unwrap();
                        }
                    });
                }
            });
            (CLIENTS * OPS_PER_CLIENT) as u64
        });
        let remote_ns = time_ns(reps, || {
            let engine = mk_engine();
            let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
            let addr = server.local_addr().to_string();
            let clients = (0..CLIENTS)
                .map(|_| Client::<Onion2D, u64, 2>::connect(&addr).unwrap())
                .collect();
            let ops = drive(clients);
            server.shutdown();
            ops
        });
        comparisons.push(Comparison {
            name: "engine/net_rps/onion2d/loopback/4clients",
            baseline_ns: Some(local_ns),
            optimized_ns: remote_ns,
        });
    }

    // Replica convergence: wall time for a subscribed replica to apply a
    // transactor's full committed history (live feed, epoch batches of
    // 500 writes) and report zero lag. Timing-only — there is no scalar
    // twin for "how fast does a replica drain the epoch stream".
    {
        use std::sync::Arc;
        let side = 1u32 << 7;
        let mut rng = StdRng::seed_from_u64(0x5EED_4E11);
        let writes = mixed_op_stream::<2, _>(side, 5000, &OpMix::write_only(), 0.6, 4, &mut rng);
        let converge_ns = time_ns(reps.min(3), || {
            let curve = Onion2D::new(side).unwrap();
            let table = ShardedTable::build(curve, Vec::new(), DiskModel::ssd(), 4).unwrap();
            let engine = Arc::new(Engine::new(table, EngineConfig::with_epoch_ops(1 << 20)));
            let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
            let follower =
                ShardedTable::build(Onion2D::new(side).unwrap(), Vec::new(), DiskModel::ssd(), 4)
                    .unwrap();
            let replica = Replica::start(
                &server.local_addr().to_string(),
                Engine::<Onion2D, u64, 2>::new(follower, EngineConfig::default()),
            )
            .unwrap();
            for (i, op) in writes.iter().enumerate() {
                engine.execute(op.clone().into()).unwrap();
                if i % 500 == 499 {
                    engine.flush().unwrap();
                }
            }
            let committed = engine.stats().epochs;
            let applied = loop {
                let status = replica.status();
                assert!(
                    status.state != ReplicaState::Failed,
                    "{:?}",
                    status.last_error
                );
                if status.applied >= committed {
                    break status.applied;
                }
                std::hint::spin_loop();
            };
            replica.stop();
            server.shutdown();
            applied
        });
        comparisons.push(Comparison {
            name: "engine/replica_lag/onion2d/5k_writes/converge",
            baseline_ns: None,
            optimized_ns: converge_ns,
        });
    }

    // Replica failover: wall time from a severed subscription back to a
    // fully reconverged replica. A durable transactor (real WAL — the
    // catch-up source) feeds a replica through a chaos proxy; each rep
    // kills every live proxy connection, ships 4 more committed epochs
    // (1k writes), and clocks sever → reconnect → re-subscribe-from-
    // applied → WAL catch-up → zero lag. Timing-only: there is no
    // "non-healing" twin — the alternative to failover is rebuilding
    // the replica from epoch 0.
    {
        use sfc_net::{ReplicaConfig, RetryPolicy};
        use sfc_workloads::{ChaosInjector, ChaosProxy};
        use std::sync::Arc;
        let side = 1u32 << 7;
        let mut rng = StdRng::seed_from_u64(0x5EED_FA11);
        let writes = mixed_op_stream::<2, _>(side, 1000, &OpMix::write_only(), 0.6, 4, &mut rng);
        let dir = std::env::temp_dir().join(format!("sfc-bench-failover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Arc::new(
            Engine::open(
                &dir,
                Onion2D::new(side).unwrap(),
                DiskModel::ssd(),
                4,
                EngineConfig::with_epoch_ops(1 << 20),
            )
            .unwrap(),
        );
        let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let injector = ChaosInjector::new();
        let proxy =
            ChaosProxy::spawn(&server.local_addr().to_string(), Arc::clone(&injector)).unwrap();
        let follower =
            ShardedTable::build(Onion2D::new(side).unwrap(), Vec::new(), DiskModel::ssd(), 4)
                .unwrap();
        let replica = Replica::start_with(
            &proxy.addr(),
            Engine::<Onion2D, u64, 2>::new(follower, EngineConfig::default()),
            ReplicaConfig {
                connect_timeout: Duration::from_secs(2),
                subscribe_deadline: Duration::from_secs(5),
                reconnect: RetryPolicy {
                    max_retries: 1000,
                    base_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(5),
                },
            },
        )
        .unwrap();
        let converge = |target: u64| {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let status = replica.status();
                assert!(
                    status.state != ReplicaState::Failed,
                    "{:?}",
                    status.last_error
                );
                if status.applied >= target {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "failover bench never reconverged"
                );
                std::hint::spin_loop();
            }
        };
        let failover_ns = time_ns(floor_reps, || {
            proxy.kill_all();
            for (i, op) in writes.iter().enumerate() {
                engine.execute(op.clone().into()).unwrap();
                if i % 250 == 249 {
                    engine.flush().unwrap();
                }
            }
            let committed = engine.stats().epochs;
            converge(committed);
            replica.status().reconnects
        });
        comparisons.push(Comparison {
            name: "engine/replica_failover/onion2d/sever_1k_writes/reconverge",
            baseline_ns: None,
            optimized_ns: failover_ns,
        });
        replica.stop();
        proxy.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The page checksum: CRC-32 over 16 MiB of 4 KiB pages (4096 pages,
    // as a leaf miss, a checkpoint or a snapshot would checksum them),
    // slicing-by-8 (`crc32_portable`, the portable tier and pinned
    // reference) vs the dispatched `crc32` — the carry-less-multiply fold
    // on CPUs with `pclmulqdq` and `sse4.1`. Divide either side by 4096
    // for the cost of one page. Under `SFC_PORTABLE_KERNELS` both sides
    // run the table loop and the pair sits at ~1x.
    {
        let mut probe = 0x9E37_79B9_7F4A_7C15u64;
        let pages: Vec<Vec<u8>> = (0..4096)
            .map(|_| {
                (0..4096)
                    .map(|_| {
                        probe = probe
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        (probe >> 56) as u8
                    })
                    .collect()
            })
            .collect();
        let sum_pages = |crc: fn(&[u8]) -> u32| {
            pages.iter().fold(0u64, |acc, page| {
                acc.wrapping_add(u64::from(crc(std::hint::black_box(page))))
            })
        };
        comparisons.push(Comparison {
            name: "index/crc32/page4k",
            baseline_ns: Some(time_ns(reps, || sum_pages(sfc_index::crc32_portable))),
            optimized_ns: time_ns(reps, || sum_pages(sfc_index::crc32)),
        });
    }

    // Real-I/O segment scans: one full curve-order scan of a 65k-entry
    // file-backed SFCSEG01 segment, through a 16-page buffer pool that
    // thrashes (every rep reads, crc-checks and decodes real pages) vs a
    // pool large enough to keep the whole segment resident after the
    // warmup pass. The pair prices the buffer pool itself on genuinely
    // disk-resident data — no simulated `DiskModel` ticks anywhere. The
    // `short_ranges` pair prices one leaf miss against one hit: 2 000
    // ranges of 8 entries, one per 32-entry stride of the key space, in
    // a fixed shuffled order, so through the 16-page pool (~322 leaves)
    // nearly every range misses, while the resident pool hits.
    {
        use rand::seq::SliceRandom;
        use sfc_index::{Backend, FileBackend, StoreConfig};
        let entries: Vec<(u64, u64)> = (0..65_536u64).map(|k| (k * 3, k)).collect();
        let bench_dir = std::env::temp_dir().join(format!("sfc-bench-seg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&bench_dir);
        let mk = |pool: usize| {
            FileBackend::<u64>::create(
                &bench_dir,
                &format!("scan{pool}"),
                StoreConfig {
                    page_size: 4096,
                    pool_pages: pool,
                },
                entries.clone(),
            )
            .unwrap()
        };
        let thrashing = mk(16);
        let resident = mk(4096);
        let scan_all = |b: &FileBackend<u64>| {
            let mut acc = 0u64;
            b.scan(0, u64::MAX, &mut |_, &v| acc = acc.wrapping_add(v))
                .unwrap();
            acc
        };
        // A single resident scan is ~0.2ms, so scheduler jitter dominates
        // a best-of-2 quick run; this pair is cheap enough to always take
        // the min over a full rep count.
        let seg_reps = reps.max(12);
        comparisons.push(Comparison {
            name: "index/segment_scan/65k/pool16_vs_resident",
            baseline_ns: Some(time_ns(seg_reps, || scan_all(&thrashing))),
            optimized_ns: time_ns(seg_reps, || scan_all(&resident)),
        });
        let mut starts: Vec<u64> = (0..2_000u64).map(|i| i * 32 * 3).collect();
        starts.shuffle(&mut StdRng::seed_from_u64(0x5407));
        let scan_short = |b: &FileBackend<u64>| {
            let mut acc = 0u64;
            for &lo in &starts {
                b.scan(lo, lo + 7 * 3, &mut |_, &v| acc = acc.wrapping_add(v))
                    .unwrap();
            }
            acc
        };
        comparisons.push(Comparison {
            name: "index/segment_scan/65k/short_ranges/pool16_vs_resident",
            baseline_ns: Some(time_ns(seg_reps, || scan_short(&thrashing))),
            optimized_ns: time_ns(seg_reps, || scan_short(&resident)),
        });
        drop(thrashing);
        drop(resident);
        let _ = std::fs::remove_dir_all(&bench_dir);
    }

    // Cold-open tax of the disk-resident engine: recover one
    // checkpointed directory (snapshot + empty WAL) into an in-memory
    // engine (baseline) vs into file-backed segments (`open_stored`).
    // The stored side replays the same snapshot *and* bulk-builds a real
    // SFCSEG01 generation per shard, so the ratio is the honest price of
    // putting the dataset on disk at open time — expected below 1x.
    {
        use sfc_index::StoreConfig;
        let side = 1u32 << 9;
        let mut rng = StdRng::seed_from_u64(77);
        let dir = std::env::temp_dir().join(format!("sfc-bench-diskopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig::with_epoch_ops(1 << 20);
        {
            let engine: Engine<Onion2D, u64, 2> = Engine::open(
                &dir,
                Onion2D::new(side).unwrap(),
                DiskModel::ssd(),
                4,
                config,
            )
            .unwrap();
            let data = zipf_points::<2, _>(side, 16_384, 0.8, &mut rng);
            for (i, p) in data.points.into_iter().enumerate() {
                engine.execute(Request::Update(p, i as u64)).unwrap();
            }
            engine.flush().unwrap();
            engine.checkpoint().unwrap();
        }
        comparisons.push(Comparison {
            name: "engine/disk_open/onion2d/zipf16k/checkpointed",
            baseline_ns: Some(time_ns(reps, || {
                let e: Engine<Onion2D, u64, 2> = Engine::open(
                    &dir,
                    Onion2D::new(side).unwrap(),
                    DiskModel::ssd(),
                    4,
                    config,
                )
                .unwrap();
                e.table().len() as u64
            })),
            optimized_ns: time_ns(reps, || {
                let e: Engine<Onion2D, u64, 2, sfc_index::FileBackend<sfc_index::Record<2, u64>>> =
                    Engine::open_stored(
                        &dir,
                        Onion2D::new(side).unwrap(),
                        DiskModel::ssd(),
                        4,
                        StoreConfig {
                            page_size: 4096,
                            pool_pages: 64,
                        },
                        config,
                    )
                    .unwrap();
                e.table().len() as u64
            }),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Report.
    let rows: Vec<Row> = comparisons
        .iter()
        .map(|c| {
            Row::new(
                c.name,
                vec![
                    c.baseline_ns
                        .map_or_else(|| "-".into(), |b| format!("{:.3}", b / 1e6)),
                    format!("{:.3}", c.optimized_ns / 1e6),
                    c.speedup()
                        .map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
                ],
            )
        })
        .collect();
    print_table(
        "Hot-path kernels: per-probe unrank vs. batch/stepper",
        "kernel",
        &["baseline_ms", "optimized_ms", "speedup"],
        &rows,
    );

    let mut json = String::from("[\n");
    for (i, c) in comparisons.iter().enumerate() {
        let baseline = c
            .baseline_ns
            .map_or_else(|| "null".into(), |b| format!("{b:.1}"));
        let speedup = c
            .speedup()
            .map_or_else(|| "null".into(), |s| format!("{s:.3}"));
        json.push_str(&format!(
            "  {{\"name\": \"{}\", \"baseline_ns\": {}, \"optimized_ns\": {:.1}, \"speedup\": {}}}{}\n",
            c.name,
            baseline,
            c.optimized_ns,
            speedup,
            if i + 1 < comparisons.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    match std::fs::write(&out_path, json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
