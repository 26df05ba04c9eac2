//! Similarity search demo — §I of the paper cites "multi-dimensional
//! similarity searching" as an SFC application. `ShardedTable::knn` answers
//! k-nearest-neighbor queries with expanding window queries, each of which
//! costs one seek per cluster; a curve with better clustering explores the
//! neighborhood with less I/O.
//!
//! Run with `cargo run --release --example similarity_search`.

use onion_curve::index::{DiskModel, IoStats, QueryOptions, ShardedTable};
use onion_curve::workloads::clustered_points;
use onion_curve::{Point, SpaceFillingCurve};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let side = 512u32;
    let mut rng = StdRng::seed_from_u64(99);

    // A clustered point cloud, like a geo dataset of venues.
    let records: Vec<(Point<2>, u64)> = clustered_points::<2, _>(side, 80_000, 20, 18, &mut rng)
        .points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();

    let centers: Vec<Point<2>> = (0..50)
        .map(|_| Point::new([rng.random_range(0..side), rng.random_range(0..side)]))
        .collect();
    let k = 10usize;

    println!(
        "k-NN (k = {k}) over {} clustered records, 50 query points\n",
        records.len()
    );
    println!(
        "{:<14} {:>10} {:>10} {:>14}",
        "curve", "seeks", "pages", "sim time(ms)"
    );

    let mut reference: Option<Vec<Vec<u64>>> = None;
    for name in ["onion", "hilbert", "z-order", "row-major"] {
        let curve = onion_curve::baselines::curve_2d(name, side)?;
        let table = ShardedTable::build(curve, records.clone(), DiskModel::hdd(), 1)?;
        let mut io = IoStats::default();
        let mut answers: Vec<Vec<u64>> = Vec::new();
        for &c in &centers {
            // Account the expanding-window queries by replaying them: knn
            // itself performs rect queries internally; measure one
            // equivalent final-window query for the I/O comparison.
            let hits = table.knn(c, k)?;
            answers.push(hits.iter().map(|&(_, d2)| d2).collect());
            let radius = hits
                .last()
                .map(|&(_, d2)| (d2 as f64).sqrt().ceil() as u32)
                .unwrap_or(1)
                .max(1);
            let lo = [c.0[0].saturating_sub(radius), c.0[1].saturating_sub(radius)];
            let len = [
                (c.0[0] + radius).min(side - 1) - lo[0] + 1,
                (c.0[1] + radius).min(side - 1) - lo[1] + 1,
            ];
            let q = onion_curve::clustering::RectQuery::new(lo, len)?;
            io.absorb(table.query_rect(&q, &QueryOptions::default())?.io);
        }
        println!(
            "{name:<14} {:>10} {:>10} {:>14.1}",
            io.seeks,
            io.pages,
            io.time_us(table.model()) / 1000.0
        );
        // Every curve must return identical k-NN distances.
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(r, &answers, "{name} returned different neighbors"),
        }
        let _ = table.curve().universe();
    }
    println!("\nAll curves agree on the neighbors; they differ only in I/O.");
    Ok(())
}
