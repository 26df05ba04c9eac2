//! The benchmark's own checks, on every workload at a tiny size: each
//! declared metric is printed with its unit, the traced run's counts
//! repeat for a fixed seed, and the oracle rejects wrong answers.

use onion_core::{Onion2D, Point};
use perfbench::bench::{Layers, Phase, PhaseOut, Runner};
use perfbench::inputs::{self, OpGen, SIDE};
use perfbench::oracle::Oracle;
use perfbench::report::Outcome;
use perfbench::{run, Config, Workload, END_TO_END, PER_LAYER};
use sfc_engine::{Engine, EngineConfig, Op};
use sfc_index::{DiskModel, ShardedTable};
use std::path::PathBuf;

// As in the binary, so `peak_heap_mb` is measured (tests running in
// parallel share the counters, which only the nonzero check relies on).
#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    let mut cfg = Config::new(workload, seed, 0.2, trace);
    cfg.records = 20_000;
    cfg.setups = 1;
    cfg.data_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{}-{seed}-{trace}", workload.name()));
    cfg
}

fn run_tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(&tiny(workload, seed, trace)).expect("tiny set-up succeeds");
    assert!(out.correct, "{workload:?}: {:?}", out.report);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{workload:?}: {:?}", out.report);
    out
}

/// The `"name","unit"` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    let start = compact
        .find(&format!("\"{section}\":["))
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {section}"));
    let body = &compact[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("{\"name\":\"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("quoted name");
            let unit = rest
                .strip_prefix(",\"unit\":\"")
                .and_then(|r| r.split_once('"'))
                .map(|(u, _)| u)
                .expect("unit follows name");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    for workload in Workload::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = run_tiny(workload, 7, trace);
            let printed: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(printed, table, "{workload:?} trace={trace}");
            let json = out.json();
            let last = json.lines().last().expect("one line");
            for (name, unit) in table {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(
                    last.contains(&entry),
                    "{workload:?}: {name} missing from {last}"
                );
                assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
            }
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{workload:?}: {} is {}", m.name, m.value);
                }
            }
        }
    }
}

/// Counts that follow the planner's chosen ranges. On a real page store
/// the planner fits its seek and page costs to measured scan times
/// (`Planner::observe_latency`), so on `disk_rw` these may differ between
/// runs of one seed.
const PLAN_DEPENDENT: [&str; 7] = [
    "index.ranges_per_query",
    "index.useful_ratio",
    "index.seeks_per_query",
    "index.pages_per_query",
    "index.cache_hit_ratio",
    "index.real_reads_per_query",
    "index.real_seeks_per_query",
];

#[test]
fn traced_counts_repeat_for_a_fixed_seed() {
    for workload in Workload::ALL {
        let (a, b) = (run_tiny(workload, 3, true), run_tiny(workload, 3, true));
        let timing_free =
            |name: &str| workload != Workload::DiskRw || !PLAN_DEPENDENT.contains(&name);
        let mut compared = 0;
        for m in a.metrics.iter().filter(|m| !["ns", "us"].contains(&m.unit)) {
            if timing_free(m.name) {
                let again = b.metric(m.name).expect("same metrics");
                assert_eq!(m.value, again.value, "{workload:?}: {} differs", m.name);
                compared += 1;
            }
        }
        let counts = PER_LAYER
            .iter()
            .filter(|(n, u)| !["ns", "us"].contains(u) && timing_free(n));
        assert_eq!(compared, counts.count());
        assert!(a.metric("clustering.clusters_per_query").unwrap().value > 0.0);
        assert!(a.report.iter().any(|l| l.starts_with("tracing overhead")));
    }
}

#[test]
fn the_oracle_rejects_corrupted_answers() {
    let records = inputs::records(5, 5000);
    let mut oracle = Oracle::new(&records, 4);
    let curve = Onion2D::new(SIDE).unwrap();
    let (lo, hi) = ([0, 0], [255, 255]);
    let good = oracle.query(&curve, lo, hi);
    assert!(good.len() > 10, "the corner is dense under Zipf");
    oracle.check_query(&curve, lo, hi, &good).unwrap();

    let mut wrong_value = good.clone();
    wrong_value[3].1 ^= 1;
    let mut missing = good.clone();
    missing.remove(0);
    let mut out_of_order = good.clone();
    out_of_order.swap(0, 1);
    let mut phantom = good.clone();
    phantom.push((Point::new([SIDE - 1, SIDE - 1]), 0));
    for bad in [wrong_value, missing, out_of_order, phantom] {
        assert!(oracle.check_query(&curve, lo, hi, &bad).is_err());
    }

    let (p, v) = good[0];
    oracle.check_get(p, Some(v)).unwrap();
    assert!(oracle.check_get(p, Some(v ^ 1)).is_err());
    assert!(oracle.check_get(p, None).is_err());

    // Gets see an admitted write at once; queries only once its epoch
    // (here four writes) applies.
    oracle.update(p, 42);
    oracle.check_get(p, Some(42)).unwrap();
    oracle.check_query(&curve, lo, hi, &good).unwrap();
    let q = Point::new([SIDE - 2, SIDE - 2]);
    for _ in 0..3 {
        oracle.update(q, 7);
    }
    assert!(oracle.check_query(&curve, lo, hi, &good).is_err());
}

#[test]
fn a_table_changed_behind_the_oracle_fails_the_run() {
    let records = inputs::records(9, 20_000);
    let table = ShardedTable::build(
        Onion2D::new(SIDE).unwrap(),
        records.clone(),
        DiskModel::ssd(),
        2,
    )
    .unwrap();
    let engine = Engine::new(table, EngineConfig::default());
    for &(p, v) in &records {
        engine.execute(Op::Update(p, v ^ 1)).unwrap();
    }
    engine.flush().unwrap();
    let oracle = Oracle::new(&records, EngineConfig::default().epoch_ops);
    let gen = OpGen::new(Workload::CubeMem, 9);
    let mut runner = Runner::new(&engine, None, Workload::CubeMem, oracle, gen).unwrap();
    let phase = Phase {
        seconds: 0.0,
        min_ops: 4000,
    };
    let err = runner
        .phase(phase, None, &mut Layers::default(), &mut PhaseOut::new())
        .unwrap_err();
    assert!(err.starts_with("query"), "{err}");
}
