//! `perfbench --workload <cube_mem|point_tcp|disk_rw> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints a report,
//! then one JSON result line. Exits 1 on a wrong answer or a failed
//! set-up, 2 on bad arguments.

use perfbench::{alloc::CountingAlloc, run, Config, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <cube_mem|point_tcp|disk_rw> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Config::new(
        workload.ok_or_else(|| missing("--workload"))?,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace.ok_or_else(|| missing("--trace"))?,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
