//! The closed loop: one caller thread issues the next op only after
//! the previous reply, through the outermost public call of the stack
//! (`Client::execute` on `point_tcp`, `Engine::execute` otherwise).

use crate::inputs::{OpGen, Workload};
use crate::oracle::Oracle;
use crate::trace::Tracer;
use onion_core::{Onion2D, Point, SfcError};
use sfc_baselines::DynCurve;
use sfc_clustering::{ClusterScratch, RectQuery};
use sfc_engine::{Engine, Op, Reply};
use sfc_index::{Backend, QueryOptions, Record};
use sfc_net::Client;
use std::time::Instant;

/// Writes per epoch: the engine's default auto-flush threshold, and the
/// explicit-flush cadence of `disk_rw`.
pub const EPOCH_OPS: usize = 1024;
/// `disk_rw` checkpoints after this many explicit flushes.
pub const FLUSHES_PER_CHECKPOINT: usize = 16;
/// One query and one get in this many is checked against the oracle.
pub const CHECK_EVERY: u64 = 16;
/// The traced phase takes its counts over its first this-many ops, so
/// they repeat exactly for a seed however fast the machine runs.
pub const COUNT_WINDOW: u64 = 8192;
/// `cube_mem` closes a throughput slice every this-many ops.
const CUBE_SLICE_OPS: u64 = 2048;
/// Latency samples kept per op type; later samples are dropped (a 30 s
/// run records under 2M of any type).
const SAMPLE_CAP: usize = 1 << 22;

pub type Eng<B> = Engine<Onion2D, u64, 2, B>;
pub type Remote = Client<Onion2D, u64, 2>;

/// How long a phase runs: until both bounds are met.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Active (non-checking) seconds to run for.
    pub seconds: f64,
    /// Ops to draw at least, whatever the time.
    pub min_ops: u64,
}

/// What one phase measured.
#[derive(Debug)]
pub struct PhaseOut {
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    /// Wall time minus oracle checking, in nanoseconds.
    pub active_ns: u64,
    /// Completed ops per active second, one per closed slice.
    pub slices: Vec<f64>,
    pub query: Vec<u64>,
    pub get: Vec<u64>,
    pub write: Vec<u64>,
    pub flush: Vec<u64>,
    pub checkpoint: Vec<u64>,
    pub checked_queries: u64,
    pub checked_gets: u64,
    excluded_ns: u64,
}

impl PhaseOut {
    /// Empty results with room for every latency sample of a full run,
    /// allocated up front so sample buffers never grow while the serving
    /// stack's heap is being measured.
    pub fn new() -> Self {
        PhaseOut {
            attempted: 0,
            failed: 0,
            completed: 0,
            active_ns: 0,
            slices: Vec::new(),
            query: Vec::with_capacity(SAMPLE_CAP),
            get: Vec::with_capacity(SAMPLE_CAP),
            write: Vec::with_capacity(SAMPLE_CAP),
            flush: Vec::with_capacity(4096),
            checkpoint: Vec::with_capacity(1024),
            checked_queries: 0,
            checked_gets: 0,
            excluded_ns: 0,
        }
    }

    /// Empties the results, keeping the buffers.
    pub fn clear(&mut self) {
        self.attempted = 0;
        self.failed = 0;
        self.completed = 0;
        self.active_ns = 0;
        self.excluded_ns = 0;
        self.checked_queries = 0;
        self.checked_gets = 0;
        self.slices.clear();
        for samples in [
            &mut self.query,
            &mut self.get,
            &mut self.write,
            &mut self.flush,
            &mut self.checkpoint,
        ] {
            samples.clear();
        }
    }

    /// Completed ops per active second: the median over closed slices,
    /// or the whole phase's rate when no full slice closed.
    pub fn ops_per_s(&self) -> f64 {
        if self.slices.is_empty() {
            crate::report::ratio(self.completed as f64, self.active_ns as f64 / 1e9)
        } else {
            crate::report::median_f64(&self.slices)
        }
    }
}

impl Default for PhaseOut {
    fn default() -> Self {
        Self::new()
    }
}

fn record(samples: &mut Vec<u64>, ns: u64) {
    if samples.len() < samples.capacity() {
        samples.push(ns);
    }
}

/// Per-request layer times (nanoseconds; self times may be negative when
/// a later call ran on warmer caches) and the count window's totals.
#[derive(Debug, Default)]
pub struct Layers {
    pub decompose: Vec<i64>,
    pub plan: Vec<i64>,
    pub scan: Vec<i64>,
    pub query_self: Vec<i64>,
    pub index_get: Vec<i64>,
    pub get_self: Vec<i64>,
    pub net_self: Vec<i64>,
    pub ping: Vec<i64>,
    pub counts: Counts,
}

/// Work counted over the traced phase's first [`COUNT_WINDOW`] ops.
#[derive(Debug, Default)]
pub struct Counts {
    pub queries: u64,
    pub clusters: u64,
    pub clusters_hilbert: u64,
    pub ranges: u64,
    pub query_cells: u64,
    pub planned_cells: u64,
    pub seeks: u64,
    pub pages: u64,
    pub entries: u64,
    pub cache_hits: u64,
    pub real_reads: u64,
    pub real_seeks: u64,
    pub wal_bytes: u64,
    pub wal_writes: u64,
    pub applied_writes: u64,
    pub epochs: u64,
}

/// The caller: owns the op stream, the oracle and the stack handles.
pub struct Runner<'a, B> {
    engine: &'a Eng<B>,
    client: Option<&'a mut Remote>,
    workload: Workload,
    curve: Onion2D,
    hilbert: DynCurve<2>,
    scratch: ClusterScratch<2>,
    oracle: Oracle,
    gen: OpGen,
    writes: u64,
    writes_since_flush: usize,
    flushes_since_checkpoint: usize,
    wal_mark: u64,
    queries: u64,
    gets: u64,
}

/// Result of one drawn op: whether it closed a throughput slice.
type Step = Result<bool, String>;

impl<'a, B> Runner<'a, B>
where
    B: Backend<Record<2, u64>> + Send + Sync,
{
    /// A caller driving `engine` (through `client` when given) with
    /// `gen`'s ops, checked against `oracle`.
    ///
    /// # Errors
    /// If the comparison curve cannot be built.
    pub fn new(
        engine: &'a Eng<B>,
        client: Option<&'a mut Remote>,
        workload: Workload,
        oracle: Oracle,
        gen: OpGen,
    ) -> Result<Self, SfcError> {
        let curve = *engine.table().curve();
        let hilbert = sfc_baselines::curve_2d("hilbert", crate::inputs::SIDE)?;
        Ok(Runner {
            engine,
            client,
            workload,
            curve,
            hilbert,
            scratch: ClusterScratch::new(),
            oracle,
            gen,
            writes: 0,
            writes_since_flush: 0,
            flushes_since_checkpoint: 0,
            wal_mark: engine.wal_len().unwrap_or(0),
            queries: 0,
            gets: 0,
        })
    }

    /// Runs ops until the phase's bounds are met, recording into `out`
    /// (cleared first).
    ///
    /// # Errors
    /// On the first answer that differs from the oracle's.
    pub fn phase(
        &mut self,
        plan: Phase,
        mut tracer: Option<&mut Tracer>,
        layers: &mut Layers,
        out: &mut PhaseOut,
    ) -> Result<(), String> {
        out.clear();
        let start = Instant::now();
        let active = |out: &PhaseOut| start.elapsed().as_nanos() as u64 - out.excluded_ns;
        let limit_ns = (plan.seconds * 1e9) as u64;
        // Slices run between boundaries; the lead-in before the first
        // boundary is a partial cycle and is not a slice.
        let mut slice_start: Option<(u64, u64)> = None;
        let window_stats = self.engine.stats();
        let mut drawn = 0u64;
        while drawn < plan.min_ops || active(out) < limit_ns {
            let counting = tracer.is_some() && drawn < COUNT_WINDOW;
            if self.step(out, tracer.as_deref_mut(), layers, counting)? {
                let now = active(out);
                if let Some((ns, ops)) = slice_start {
                    out.slices
                        .push((out.completed - ops) as f64 / ((now - ns) as f64 / 1e9));
                }
                slice_start = Some((now, out.completed));
            }
            drawn += 1;
            if tracer.is_some() && drawn == COUNT_WINDOW {
                let now = self.engine.stats();
                let applied = |s: sfc_engine::EngineStats| s.writes - s.pending;
                layers.counts.applied_writes = applied(now) - applied(window_stats);
                layers.counts.epochs = now.epochs - window_stats.epochs;
            }
        }
        out.active_ns = active(out);
        Ok(())
    }

    /// Draws and runs one op, plus the flush and checkpoint it triggers.
    fn step(
        &mut self,
        out: &mut PhaseOut,
        tracer: Option<&mut Tracer>,
        layers: &mut Layers,
        counting: bool,
    ) -> Step {
        match self.gen.next_op() {
            Op::Query(q) => self.query(out, tracer, layers, counting, q),
            Op::Get(p) => self.get(out, tracer, layers, p),
            Op::Update(p, v) => self.update(out, tracer, layers, counting, p, v),
            other => Err(format!("the generator drew an unsupported op {other:?}")),
        }
    }

    fn top_name(&self) -> &'static str {
        if self.client.is_some() {
            "net.execute"
        } else {
            "engine.execute"
        }
    }

    /// The op through the outermost public call, timed.
    fn top(
        &mut self,
        tracer: Option<&mut Tracer>,
        op: Op<2, u64>,
    ) -> (Result<Reply<2, u64>, SfcError>, u64) {
        let name = self.top_name();
        let engine = self.engine;
        let call = || match self.client.as_deref_mut() {
            Some(client) => client.execute(op),
            None => engine.execute(op),
        };
        match tracer {
            Some(t) => t.span(name, call),
            None => {
                let t0 = Instant::now();
                let reply = call();
                (reply, t0.elapsed().as_nanos() as u64)
            }
        }
    }

    fn query(
        &mut self,
        out: &mut PhaseOut,
        mut tracer: Option<&mut Tracer>,
        layers: &mut Layers,
        counting: bool,
        q: RectQuery<2>,
    ) -> Step {
        let below = match tracer.as_deref_mut() {
            Some(t) => {
                t.begin("request.query");
                Some(self.replay_query(t, layers, counting, q))
            }
            None => None,
        };
        let (reply, ns) = self.top(tracer.as_deref_mut(), Op::Query(q));
        if let Some(t) = tracer {
            t.end();
        }
        if let Some((below_ns, remote)) = below {
            let self_ns = ns as i64 - below_ns;
            if remote {
                layers.net_self.push(self_ns);
            } else {
                layers.query_self.push(self_ns);
            }
        }
        record(&mut out.query, ns);
        out.attempted += 1;
        match reply {
            Ok(Reply::Records(recs)) => {
                out.completed += 1;
                self.queries += 1;
                if self.queries.is_multiple_of(CHECK_EVERY) {
                    let t0 = Instant::now();
                    let got: Vec<(Point<2>, u64)> =
                        recs.iter().map(|r| (r.point, r.value)).collect();
                    self.oracle.check_query(&self.curve, q.lo(), q.hi(), &got)?;
                    out.checked_queries += 1;
                    out.excluded_ns += t0.elapsed().as_nanos() as u64;
                }
            }
            Ok(other) => return Err(format!("query {q:?} answered {other:?}")),
            Err(_) => out.failed += 1,
        }
        Ok(self.workload == Workload::CubeMem && out.completed.is_multiple_of(CUBE_SLICE_OPS))
    }

    /// Calls each layer below the request's outermost call on `q`:
    /// `ranges_of` → `explain` → `query_rect` → `query_rect` again (→
    /// `Engine::execute` when the request itself goes over the wire). The
    /// first `query_rect` meets the caches as the request would, so it
    /// gives the scan time and the work counts. The layers above run on
    /// what it warmed, so each is measured against the warm repeat.
    /// Returns the duration of the last call made, and whether it was the
    /// in-process engine call standing in for the remote one.
    fn replay_query(
        &mut self,
        t: &mut Tracer,
        layers: &mut Layers,
        counting: bool,
        q: RectQuery<2>,
    ) -> (i64, bool) {
        let engine = self.engine;
        let planner = engine.planner();
        let scan_q = || {
            engine
                .table()
                .query_rect(&q, &QueryOptions::planned(planner))
        };
        let (scratch, curve) = (&mut self.scratch, &self.curve);
        let (clusters, dec) = t.span("clustering.ranges_of", || {
            scratch.ranges_of(curve, &q).len()
        });
        let (_, explain) = t.span("engine.explain", || engine.explain(&q));
        let (scanned, scan) = t.span("index.query_rect", scan_q);
        let (_, warm) = t.span("index.query_rect.warm", scan_q);
        layers.decompose.push(dec as i64);
        layers.plan.push(explain as i64 - dec as i64);
        layers.scan.push(scan as i64 - explain as i64);
        if counting {
            let c = &mut layers.counts;
            c.queries += 1;
            c.clusters += clusters as u64;
            c.clusters_hilbert += self.scratch.ranges_of(&self.hilbert, &q).len() as u64;
            c.query_cells += q.volume();
            if let Ok(res) = &scanned {
                let executed = res.plan.as_ref().expect("planned scans carry their plan");
                c.ranges += executed.ranges.len() as u64;
                c.planned_cells += q.volume() + executed.extra_cells;
                c.seeks += res.io.seeks;
                c.pages += res.io.pages;
                c.entries += res.io.entries;
                c.cache_hits += res.io.cache_hits;
                c.real_reads += res.io.real_reads;
                c.real_seeks += res.io.real_seeks;
            }
        }
        if self.client.is_none() {
            return (warm as i64, false);
        }
        let (_, local) = t.span("engine.execute", || engine.execute(Op::Query(q)));
        layers.query_self.push(local as i64 - warm as i64);
        (local as i64, true)
    }

    fn get(
        &mut self,
        out: &mut PhaseOut,
        mut tracer: Option<&mut Tracer>,
        layers: &mut Layers,
        p: Point<2>,
    ) -> Step {
        // Replays `ShardedTable::get` twice, cold then warm (→
        // `Engine::execute` when the request itself goes over the wire),
        // before the request, as `replay_query` does.
        let engine = self.engine;
        let remote = self.client.is_some();
        let mut below = 0i64;
        if let Some(t) = tracer.as_deref_mut() {
            t.begin("request.get");
            let get_p = || engine.table().get(p).map(|g| g.map(|v| v.cloned()));
            let (_, index) = t.span("index.get", get_p);
            let (_, warm) = t.span("index.get.warm", get_p);
            layers.index_get.push(index as i64);
            below = warm as i64;
            if remote {
                let (_, local) = t.span("engine.execute", || engine.execute(Op::Get(p)));
                layers.get_self.push(local as i64 - below);
                below = local as i64;
            }
        }
        let (reply, ns) = self.top(tracer.as_deref_mut(), Op::Get(p));
        if let Some(t) = tracer {
            if let Some(client) = self.client.as_deref_mut() {
                let (_, ping) = t.span("net.ping", || client.ping());
                layers.ping.push(ping as i64);
                layers.net_self.push(ns as i64 - below);
            } else {
                layers.get_self.push(ns as i64 - below);
            }
            t.end();
        }
        record(&mut out.get, ns);
        out.attempted += 1;
        match reply {
            Ok(Reply::Value(v)) => {
                out.completed += 1;
                self.gets += 1;
                if self.gets.is_multiple_of(CHECK_EVERY) {
                    let t0 = Instant::now();
                    self.oracle.check_get(p, v)?;
                    out.checked_gets += 1;
                    out.excluded_ns += t0.elapsed().as_nanos() as u64;
                }
            }
            Ok(other) => return Err(format!("get {p:?} answered {other:?}")),
            Err(_) => out.failed += 1,
        }
        Ok(false)
    }

    fn update(
        &mut self,
        out: &mut PhaseOut,
        mut tracer: Option<&mut Tracer>,
        layers: &mut Layers,
        counting: bool,
        p: Point<2>,
        v: u64,
    ) -> Step {
        if let Some(t) = tracer.as_deref_mut() {
            t.begin("request.write");
        }
        let (reply, ns) = self.top(tracer.as_deref_mut(), Op::Update(p, v));
        if let Some(t) = tracer.as_deref_mut() {
            t.end();
        }
        record(&mut out.write, ns);
        out.attempted += 1;
        match reply {
            Ok(Reply::Admitted(_)) => {
                out.completed += 1;
                // A write that errs was refused before admission, so only
                // admitted writes reach the model.
                self.oracle.update(p, v);
                self.writes += 1;
                self.writes_since_flush += 1;
            }
            Ok(other) => return Err(format!("update {p:?} answered {other:?}")),
            Err(_) => out.failed += 1,
        }
        match self.workload {
            Workload::PointTcp => Ok(self.writes.is_multiple_of(EPOCH_OPS as u64)),
            Workload::DiskRw if self.writes_since_flush >= EPOCH_OPS => {
                self.flush(out, tracer, layers, counting)
            }
            _ => Ok(false),
        }
    }

    /// `disk_rw`'s explicit flush, and every [`FLUSHES_PER_CHECKPOINT`]th
    /// time a checkpoint; both count as ops. Closes a slice after each
    /// checkpoint, so every slice holds one full checkpoint cycle.
    fn flush(
        &mut self,
        out: &mut PhaseOut,
        mut tracer: Option<&mut Tracer>,
        layers: &mut Layers,
        counting: bool,
    ) -> Step {
        let engine = self.engine;
        let (flushed, ns) = timed(tracer.as_deref_mut(), "engine.flush", || engine.flush());
        record(&mut out.flush, ns);
        out.attempted += 1;
        if flushed.is_err() {
            out.failed += 1;
            return Ok(false);
        }
        out.completed += 1;
        self.oracle.flush();
        let wal = engine.wal_len().unwrap_or(0);
        if counting {
            layers.counts.wal_bytes += wal.saturating_sub(self.wal_mark);
            layers.counts.wal_writes += self.writes_since_flush as u64;
        }
        self.wal_mark = wal;
        self.writes_since_flush = 0;
        self.flushes_since_checkpoint += 1;
        if self.flushes_since_checkpoint < FLUSHES_PER_CHECKPOINT {
            return Ok(false);
        }
        self.flushes_since_checkpoint = 0;
        let (done, ns) = timed(tracer, "engine.checkpoint", || engine.checkpoint());
        record(&mut out.checkpoint, ns);
        out.attempted += 1;
        self.wal_mark = engine.wal_len().unwrap_or(0);
        match done {
            Ok(_) => {
                out.completed += 1;
                Ok(true)
            }
            Err(_) => {
                out.failed += 1;
                Ok(false)
            }
        }
    }
}

/// Times `f` as its own request when tracing, plainly otherwise.
fn timed<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    match tracer {
        Some(t) => {
            t.begin("request.maintenance");
            let out = t.span(name, f);
            t.end();
            out
        }
        None => {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed().as_nanos() as u64)
        }
    }
}
