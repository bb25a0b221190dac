//! Run one workload of the benchmark and print its result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload greedy_local --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Traced runs also write their spans, one JSON object per
//! line, under `.bench_out/`.

use perfbench::report::{environment, Report};
use perfbench::trace::Tracer;
use perfbench::{fleet, greedy, pin_environment, queries, Config, Workload};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <greedy_local|greedy_rpc|fleet_wal|cp_queries> \
         --seed <u64> --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    Config {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed must be a u64")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be positive")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        out_dir: PathBuf::from(".bench_out"),
    }
}

fn main() {
    let cfg = parse_args();
    pin_environment();
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8
    );
    println!("environment {}", environment(std::path::Path::new(".")));
    let tracer = Tracer::new(cfg.trace);
    let report: Report = match (cfg.workload, cfg.trace) {
        (Workload::GreedyLocal, false) => greedy::run(&cfg, false),
        (Workload::GreedyRpc, false) => greedy::run(&cfg, true),
        (Workload::FleetWal, false) => fleet::run(&cfg),
        (Workload::CpQueries, false) => queries::run(&cfg),
        (Workload::GreedyLocal, true) => greedy::run_traced(&cfg, false, &tracer),
        (Workload::GreedyRpc, true) => greedy::run_traced(&cfg, true, &tracer),
        (Workload::FleetWal, true) => fleet::run_traced(&cfg, &tracer),
        (Workload::CpQueries, true) => queries::run_traced(&cfg, &tracer),
    };
    if cfg.trace {
        let path = cfg.out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        match tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
}
