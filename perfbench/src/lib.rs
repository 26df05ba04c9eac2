//! End-to-end and per-layer benchmark of the Onion Curve serving stack.
//!
//! Three closed-loop workloads, each one caller thread over public APIs
//! only (see `README.md` beside this crate for why each was chosen):
//!
//! * `cube_mem` — read-only cubes through `Engine::execute` over a 2-shard
//!   in-memory table of 4M records;
//! * `point_tcp` — gets, updates and small cubes through `Client::execute`
//!   against `Server::spawn` over the same table;
//! * `disk_rw` — cubes and updates through `Engine::execute` over
//!   `Engine::open_stored` with 1M records, explicit flushes and
//!   checkpoints.
//!
//! Untraced runs report [`END_TO_END`]; traced runs replay each read
//! through the layers below its outermost call and report [`PER_LAYER`].

pub mod alloc;
pub mod bench;
pub mod cpu;
pub mod inputs;
pub mod oracle;
pub mod report;
pub mod trace;

use bench::{Eng, Layers, Phase, PhaseOut, Remote, Runner, COUNT_WINDOW};
pub use inputs::Workload;
use inputs::{OpGen, SIDE};
use onion_core::{Onion2D, Point, SfcError, SpaceFillingCurve};
use oracle::Oracle;
use report::{dist_line, median_f64, percentile, ratio, Metric, Outcome};
use sfc_engine::{Engine, EngineConfig, Op};
use sfc_index::{Backend, DiskModel, FileBackend, Record, ShardedTable, StoreConfig};
use sfc_net::{Client, Server};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// Shards of every workload's table.
pub const SHARDS: usize = 2;

/// `disk_rw`'s segment pages and per-shard leaf cache: 256 pages of 4 KiB,
/// under a tenth of the 1M-record segments.
pub const STORE: StoreConfig = StoreConfig {
    page_size: 4096,
    pool_pages: 256,
};

/// `disk_rw`'s auto-flush threshold: above the dataset, so set-up loads
/// every record as one epoch (one WAL frame and fsync instead of ~1000)
/// and the measured phase's epochs are exactly its explicit flushes of
/// [`EPOCH_OPS`] writes.
pub const DISK_EPOCH_OPS: usize = 1 << 20;

/// Untimed ops before the measured phase, so caches and the planner's
/// statistics have seen traffic.
pub const WARMUP_OPS: u64 = 2000;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("curves.key_ns_per_point", "ns"),
    ("clustering.decompose_us", "us"),
    ("clustering.clusters_per_query", "count"),
    ("clustering.clusters_per_query_hilbert", "count"),
    ("index.plan_us", "us"),
    ("index.ranges_per_query", "count"),
    ("index.useful_ratio", "ratio"),
    ("index.scan_us", "us"),
    ("index.seeks_per_query", "count"),
    ("index.pages_per_query", "count"),
    ("index.entries_per_query", "count"),
    ("index.cache_hit_ratio", "ratio"),
    ("index.real_reads_per_query", "count"),
    ("index.real_seeks_per_query", "count"),
    ("engine.query_self_us", "us"),
    ("engine.writes_per_epoch", "count"),
    ("engine.wal_bytes_per_write", "B"),
    ("engine.flush_failures", "count"),
];

fn metric(table: &[(&'static str, &'static str)], name: &'static str, value: f64) -> Metric {
    let unit = table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .expect("every reported metric is declared with its unit");
    Metric { name, value, unit }
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::CubeMem, Workload::PointTcp, Workload::DiskRw];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CubeMem => "cube_mem",
            Workload::PointTcp => "point_tcp",
            Workload::DiskRw => "disk_rw",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn engine_config(self) -> EngineConfig {
        match self {
            Workload::CubeMem | Workload::PointTcp => EngineConfig::default(),
            Workload::DiskRw => EngineConfig::with_epoch_ops(DISK_EPOCH_OPS),
        }
    }

    /// Records in the workload's table at full size.
    pub fn full_records(self) -> usize {
        match self {
            Workload::CubeMem | Workload::PointTcp => 4_000_000,
            Workload::DiskRw => 1_000_000,
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds (split between the traced and the untraced phase
    /// in a traced run).
    pub seconds: f64,
    pub trace: bool,
    pub records: usize,
    /// Set-ups per run; `setup_s` is their median and the last one serves.
    pub setups: usize,
    /// Where `disk_rw` keeps its engines and traced runs write spans.
    pub data_dir: PathBuf,
}

impl Config {
    /// Full-size settings.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            records: workload.full_records(),
            setups: 5,
            data_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/run-data")),
        }
    }
}

/// Removes a directory when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn storage_err(context: &str, e: std::io::Error) -> SfcError {
    SfcError::Storage {
        context: format!("{context}: {e}"),
    }
}

/// Runs one workload: generates its inputs, sets up `cfg.setups` times,
/// then measures on the last set-up.
///
/// # Errors
/// If set-up fails. Wrong answers are not errors: they come back as an
/// [`Outcome`] with `correct == false`.
pub fn run(cfg: &Config) -> Result<Outcome, SfcError> {
    let records = inputs::records(cfg.seed, cfg.records);
    let config = cfg.workload.engine_config();
    let oracle = Oracle::new(&records, config.epoch_ops);
    let gen = OpGen::new(cfg.workload, cfg.seed);
    std::fs::create_dir_all(&cfg.data_dir).map_err(|e| storage_err("creating data dir", e))?;
    let mut out = PhaseOut::new();
    let mut setup_s = Vec::new();
    // Peak heap counts from just before the serving set-up is handed its
    // input, so the benchmark's own inputs and oracle stay out of it.
    let mut heap_base = 0;
    let curve = || Onion2D::new(SIDE);
    match cfg.workload {
        Workload::CubeMem => {
            let mut engine = None;
            for _ in 0..cfg.setups {
                drop(engine.take());
                heap_base = alloc::reset_peak();
                let input = records.clone();
                let t = Instant::now();
                let table = ShardedTable::build(curve()?, input, DiskModel::ssd(), SHARDS)?;
                engine = Some(Engine::new(table, config));
                setup_s.push(t.elapsed().as_secs_f64());
            }
            let engine = engine.expect("at least one set-up");
            measure(
                cfg, &engine, None, oracle, gen, &records, &setup_s, heap_base, &mut out,
            )
        }
        Workload::PointTcp => {
            // Before the server exists, so its threads inherit the pin.
            let pinned = cpu::pin_to_one_cpu();
            let mut stack: Option<(Arc<Eng<_>>, Server, Remote)> = None;
            for _ in 0..cfg.setups {
                if let Some((engine, server, client)) = stack.take() {
                    drop(client);
                    server.shutdown();
                    drop(engine);
                }
                heap_base = alloc::reset_peak();
                let input = records.clone();
                let t = Instant::now();
                let table = ShardedTable::build(curve()?, input, DiskModel::ssd(), SHARDS)?;
                let engine = Arc::new(Engine::new(table, config));
                let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0")?;
                let client = Client::connect(&server.local_addr().to_string())?;
                setup_s.push(t.elapsed().as_secs_f64());
                stack = Some((engine, server, client));
            }
            let (engine, server, mut client) = stack.expect("at least one set-up");
            let mut outcome = measure(
                cfg,
                &engine,
                Some(&mut client),
                oracle,
                gen,
                &records,
                &setup_s,
                heap_base,
                &mut out,
            );
            drop(client);
            server.shutdown();
            if let Ok(outcome) = &mut outcome {
                outcome.report.insert(
                    1,
                    match pinned {
                        Some(cpu) => format!("caller and server pinned to cpu {cpu}"),
                        None => "not pinned".to_string(),
                    },
                );
            }
            outcome
        }
        Workload::DiskRw => {
            let mut stack: Option<(Eng<FileBackend<Record<2, u64>>>, TempDir)> = None;
            for i in 0..cfg.setups {
                drop(stack.take());
                let dir = TempDir(
                    cfg.data_dir
                        .join(format!("disk_rw-{}-{i}", std::process::id())),
                );
                let _ = std::fs::remove_dir_all(&dir.0);
                heap_base = alloc::reset_peak();
                let t = Instant::now();
                let engine =
                    Engine::open_stored(&dir.0, curve()?, DiskModel::ssd(), SHARDS, STORE, config)?;
                for &(p, v) in &records {
                    engine.execute(Op::Insert(p, v))?;
                }
                engine.checkpoint()?;
                setup_s.push(t.elapsed().as_secs_f64());
                stack = Some((engine, dir));
            }
            let (engine, dir) = stack.expect("at least one set-up");
            let outcome = measure(
                cfg, &engine, None, oracle, gen, &records, &setup_s, heap_base, &mut out,
            );
            // Close the engine (joining its WAL sync thread) before its
            // directory goes.
            drop(engine);
            drop(dir);
            outcome
        }
    }
}

/// Warm-up, then the measured phase(s), then the metrics.
#[allow(clippy::too_many_arguments)]
fn measure<B>(
    cfg: &Config,
    engine: &Eng<B>,
    client: Option<&mut Remote>,
    oracle: Oracle,
    gen: OpGen,
    records: &[(Point<2>, u64)],
    setup_s: &[f64],
    heap_base: usize,
    out: &mut PhaseOut,
) -> Result<Outcome, SfcError>
where
    B: Backend<Record<2, u64>> + Send + Sync,
{
    let mut runner = Runner::new(engine, client, cfg.workload, oracle, gen)?;
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut report = vec![format!(
        "workload {} seed {} records {} shards {SHARDS} side {SIDE} cpus {cpus} set-ups {:?} s",
        cfg.workload.name(),
        cfg.seed,
        records.len(),
        setup_s
    )];
    let warm_up = Phase {
        seconds: 0.0,
        min_ops: WARMUP_OPS,
    };
    let timed = |seconds: f64, min_ops: u64| Phase { seconds, min_ops };
    let wrong = |report: Vec<String>, what: String| Outcome {
        correct: false,
        report: [report, vec![format!("WRONG ANSWER: {what}")]].concat(),
        ..Outcome::default()
    };
    if let Err(what) = runner.phase(warm_up, None, &mut Layers::default(), out) {
        return Ok(wrong(report, what));
    }
    if !cfg.trace {
        if let Err(what) = runner.phase(timed(cfg.seconds, 0), None, &mut Layers::default(), out) {
            return Ok(wrong(report, what));
        }
        let peak_mb = alloc::peak_bytes().saturating_sub(heap_base) as f64 / (1u64 << 20) as f64;
        let e2e = |name, value| metric(&END_TO_END, name, value);
        let metrics = vec![
            e2e("ops_per_s", out.ops_per_s()),
            e2e("query_p50_us", percentile(&out.query, 0.5) as f64 / 1e3),
            e2e("peak_heap_mb", peak_mb),
            e2e("setup_s", median_f64(setup_s)),
        ];
        report.extend(phase_lines(out));
        return Ok(Outcome {
            correct: true,
            attempted: out.attempted,
            failed: out.failed,
            metrics,
            report,
        });
    }

    let mut tracer = Tracer::default();
    let mut layers = Layers::default();
    let traced = out;
    let mut plain = PhaseOut::new();
    let phases = runner
        .phase(
            timed(cfg.seconds / 2.0, COUNT_WINDOW),
            Some(&mut tracer),
            &mut layers,
            traced,
        )
        .and_then(|()| {
            runner.phase(
                timed(cfg.seconds / 2.0, 0),
                None,
                &mut Layers::default(),
                &mut plain,
            )
        });
    if let Err(what) = phases {
        return Ok(wrong(report, what));
    }
    let key_ns = key_ns_per_point(&mut tracer, engine.table().curve(), records);
    let spans = cfg
        .data_dir
        .join(format!("spans-{}.tsv", cfg.workload.name()));
    tracer
        .write_tsv(&spans)
        .map_err(|e| storage_err("writing spans", e))?;

    let c = &layers.counts;
    let q = c.queries as f64;
    let us = |ns: &[i64]| percentile(ns, 0.5) as f64 / 1e3;
    let layer = |name, value| metric(&PER_LAYER, name, value);
    let metrics = vec![
        layer("curves.key_ns_per_point", key_ns),
        layer("clustering.decompose_us", us(&layers.decompose)),
        layer("clustering.clusters_per_query", ratio(c.clusters as f64, q)),
        layer(
            "clustering.clusters_per_query_hilbert",
            ratio(c.clusters_hilbert as f64, q),
        ),
        layer("index.plan_us", us(&layers.plan)),
        layer("index.ranges_per_query", ratio(c.ranges as f64, q)),
        layer(
            "index.useful_ratio",
            ratio(c.query_cells as f64, c.planned_cells as f64),
        ),
        layer("index.scan_us", us(&layers.scan)),
        layer("index.seeks_per_query", ratio(c.seeks as f64, q)),
        layer("index.pages_per_query", ratio(c.pages as f64, q)),
        layer("index.entries_per_query", ratio(c.entries as f64, q)),
        layer(
            "index.cache_hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.pages) as f64),
        ),
        layer("index.real_reads_per_query", ratio(c.real_reads as f64, q)),
        layer("index.real_seeks_per_query", ratio(c.real_seeks as f64, q)),
        layer("engine.query_self_us", us(&layers.query_self)),
        layer(
            "engine.writes_per_epoch",
            ratio(c.applied_writes as f64, c.epochs as f64),
        ),
        layer(
            "engine.wal_bytes_per_write",
            ratio(c.wal_bytes as f64, c.wal_writes as f64),
        ),
        layer(
            "engine.flush_failures",
            engine.stats().flush_failures as f64,
        ),
    ];
    report.push(format!(
        "tracing overhead: untraced {:.1} ops/s, traced {:.1} ops/s ({:.2}x slower)",
        plain.ops_per_s(),
        traced.ops_per_s(),
        ratio(plain.ops_per_s(), traced.ops_per_s())
    ));
    report.push(format!(
        "paper check over the first {COUNT_WINDOW} ops ({} queries): clusters/query onion {:.3} \
         vs hilbert {:.3}; planned ranges/query {:.3}; seeks/query {:.3}; real seeks/query {:.3}",
        c.queries,
        ratio(c.clusters as f64, q),
        ratio(c.clusters_hilbert as f64, q),
        ratio(c.ranges as f64, q),
        ratio(c.seeks as f64, q),
        ratio(c.real_seeks as f64, q),
    ));
    // Layers only some workloads run: printed where they ran.
    let layer_lines: [(&str, &[i64]); 4] = [
        ("index.get_us", &layers.index_get),
        ("engine.get_self_us", &layers.get_self),
        ("net.self_us", &layers.net_self),
        ("net.ping_us", &layers.ping),
    ];
    for (name, ns) in layer_lines {
        if !ns.is_empty() {
            report.push(format!(
                "{name:<22} p50 {:>10.2} us   n={}",
                us(ns),
                ns.len()
            ));
        }
    }
    // Writes, flushes and checkpoints are never replayed: in process their
    // outermost call is the engine's own.
    if engine.is_durable() {
        let p50 = |ns: &[u64], scale: f64| percentile(ns, 0.5) as f64 / scale;
        for (name, ns, scale) in [
            ("engine.write_us", &traced.write, 1e3),
            ("engine.flush_us", &traced.flush, 1e3),
            ("engine.checkpoint_ms", &traced.checkpoint, 1e6),
        ] {
            if !ns.is_empty() {
                report.push(format!(
                    "{name:<22} p50 {:>10.3}   n={}",
                    p50(ns, scale),
                    ns.len()
                ));
            }
        }
    }
    let (kept, requests) = tracer.kept();
    report.push(format!(
        "spans: {kept} (of {requests} requests) in {}",
        spans.display()
    ));
    report.push("untraced phase:".to_string());
    report.extend(phase_lines(&plain));
    Ok(Outcome {
        correct: true,
        attempted: traced.attempted + plain.attempted,
        failed: traced.failed + plain.failed,
        metrics,
        report,
    })
}

/// Nanoseconds per point of one `fill_indices` pass over the dataset
/// (median of three passes, each a span).
fn key_ns_per_point<C: SpaceFillingCurve<2>>(
    tracer: &mut Tracer,
    curve: &C,
    records: &[(Point<2>, u64)],
) -> f64 {
    let points: Vec<Point<2>> = records.iter().map(|&(p, _)| p).collect();
    let mut keys = Vec::with_capacity(points.len());
    let mut per_point = Vec::new();
    for _ in 0..3 {
        keys.clear();
        tracer.begin("request.keying");
        let ((), ns) = tracer.span("curves.fill_indices", || {
            curve.fill_indices(std::hint::black_box(&points), &mut keys)
        });
        tracer.end();
        std::hint::black_box(&keys);
        per_point.push(ns as f64 / points.len().max(1) as f64);
    }
    median_f64(&per_point)
}

/// The distribution, throughput, error and oracle lines of a phase.
fn phase_lines(out: &PhaseOut) -> Vec<String> {
    let (lo, hi) = out
        .slices
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    let mut lines = vec![format!(
        "ops_per_s {:.1} (median of {} slices ranging {:.0}-{:.0}; whole phase {:.1} over {:.2} s)",
        out.ops_per_s(),
        out.slices.len(),
        lo,
        hi,
        ratio(out.completed as f64, out.active_ns as f64 / 1e9),
        out.active_ns as f64 / 1e9
    )];
    let dists: [(&str, &[u64]); 5] = [
        ("query", &out.query),
        ("get", &out.get),
        ("write", &out.write),
        ("flush", &out.flush),
        ("checkpoint", &out.checkpoint),
    ];
    for (name, ns) in dists {
        if !ns.is_empty() {
            lines.push(dist_line(name, ns));
        }
    }
    lines.push(format!(
        "error_ratio {} ({} failed of {} attempted)",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    ));
    lines.push(format!(
        "oracle: checked {} query answers and {} get answers, all correct",
        out.checked_queries, out.checked_gets
    ));
    lines
}
