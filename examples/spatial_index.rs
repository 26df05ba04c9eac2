//! Spatial indexing demo: the same records, the same queries, four
//! different curve orders — and the seek counts that follow.
//!
//! This is the application §I of the paper motivates: records keyed by
//! their curve index live in a B+-tree / on-disk pages; a rectangle query
//! becomes one range scan per cluster. Fewer clusters = fewer seeks.
//!
//! Run with `cargo run --release --example spatial_index`.

use onion_curve::clustering::RectQuery;
use onion_curve::index::{DiskModel, IoStats, QueryOptions, ShardedTable};
use onion_curve::workloads::{clustered_points, uniform_points};
use onion_curve::{Point, SpaceFillingCurve};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_workload(
    curve_name: &str,
    side: u32,
    records: &[(Point<2>, u64)],
    queries: &[RectQuery<2>],
) -> Result<(IoStats, f64), Box<dyn std::error::Error>> {
    let curve = sfc_baselines_curve(curve_name, side)?;
    let model = DiskModel::hdd();
    // One shard: the plain SFC-ordered table, one disk.
    let table = ShardedTable::build(curve, records.to_vec(), model, 1)?;
    let mut total = IoStats::default();
    for q in queries {
        let res = table.query_rect(q, &QueryOptions::default())?;
        total.absorb(res.io);
    }
    let time_ms = total.time_us(&model) / 1000.0;
    Ok((total, time_ms))
}

fn sfc_baselines_curve(
    name: &str,
    side: u32,
) -> Result<Box<dyn SpaceFillingCurve<2>>, Box<dyn std::error::Error>> {
    Ok(onion_curve::baselines::curve_2d(name, side)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let side = 512u32;
    let mut rng = StdRng::seed_from_u64(2024);

    // 200k records: half uniform, half in Gaussian-ish clusters (a realistic
    // mixed spatial table).
    let mut records: Vec<(Point<2>, u64)> = Vec::new();
    for (i, p) in uniform_points::<2, _>(side, 100_000, &mut rng)
        .points
        .into_iter()
        .enumerate()
    {
        records.push((p, i as u64));
    }
    for (i, p) in clustered_points::<2, _>(side, 100_000, 12, 14, &mut rng)
        .points
        .into_iter()
        .enumerate()
    {
        records.push((p, 100_000 + i as u64));
    }

    // A mixed query workload: small, medium, and near-full windows.
    let mut queries = Vec::new();
    for &(l, count) in &[(16u32, 40usize), (64, 25), (192, 10), (side - 20, 5)] {
        queries.extend(onion_curve::clustering::random_translations(
            side,
            [l, l],
            count,
            &mut rng,
        )?);
    }

    println!(
        "{} records, {} rectangle queries, {}x{} universe, HDD cost model\n",
        records.len(),
        queries.len(),
        side,
        side
    );
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12}",
        "curve", "seeks", "pages", "entries", "sim time(ms)"
    );
    let mut seeks_by_curve = Vec::new();
    for name in ["onion", "hilbert", "z-order", "row-major"] {
        let (io, ms) = run_workload(name, side, &records, &queries)?;
        println!(
            "{name:<14} {:>10} {:>10} {:>10} {:>12.1}",
            io.seeks, io.pages, io.entries, ms
        );
        seeks_by_curve.push((name, io.seeks));
    }

    // Every curve returns exactly the same entries; only the seek counts
    // (cluster counts) differ.
    let onion_seeks = seeks_by_curve[0].1;
    let row_major_seeks = seeks_by_curve[3].1;
    assert!(
        onion_seeks < row_major_seeks,
        "onion ordering should out-seek row-major"
    );
    println!(
        "\nonion performs {:.1}x fewer seeks than row-major on this workload.",
        row_major_seeks as f64 / onion_seeks as f64
    );
    Ok(())
}
