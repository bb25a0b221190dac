//! End-to-end and per-layer benchmark of the CPClean stack.
//!
//! Four closed-loop workloads drive the layers only through their public
//! functions and read the `cp-obs` registry the program already keeps:
//!
//! * `greedy_local` — greedy CPClean to convergence in one `CleaningSession`;
//! * `greedy_rpc` — the same problem through an `RpcCoordinator` and two
//!   loopback shard servers;
//! * `fleet_wal` — two coordinators replaying fixed cleaning orders against
//!   one WAL-backed pool server (fsync before every `Step` ack);
//! * `cp_queries` — Q1, Q2 probabilities and exact `BigUint` Q2 counts over
//!   a batch of multiclass test points.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics from the
//! benchmark's own `Instant` samples. A traced run (`--trace 1`) alternates
//! untraced and traced jobs, records spans around every public call, and
//! reports the per-layer metrics.

pub mod fleet;
pub mod gen;
pub mod greedy;
pub mod queries;
pub mod report;
pub mod stats;
pub mod trace;

use cp_clean::RunOptions;
use cp_rpc::ClientConfig;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Worker threads and client connections, whatever the host or the
/// inherited environment says.
pub const THREADS: usize = 2;

/// Pin the process environment every layer reads: the thread count, spill
/// off, and the default log level. Call before any thread is spawned.
pub fn pin_environment() {
    std::env::set_var("CP_THREADS", THREADS.to_string());
    for var in ["RAYON_NUM_THREADS", "CP_SPILL_THRESHOLD", "CP_LOG"] {
        std::env::remove_var(var);
    }
}

/// Run options every engine is opened with.
pub fn run_options() -> RunOptions {
    RunOptions {
        max_cleaned: None,
        n_threads: THREADS,
        record_every: usize::MAX,
    }
}

/// Client configuration: no fault injection, spilling forced off, no
/// retries beyond the coordinator's built-in reconnect.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        chaos: None,
        spill_threshold: Some(usize::MAX),
        ..ClientConfig::default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GreedyLocal,
    GreedyRpc,
    FleetWal,
    CpQueries,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GreedyLocal,
        Workload::GreedyRpc,
        Workload::FleetWal,
        Workload::CpQueries,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GreedyLocal => "greedy_local",
            Workload::GreedyRpc => "greedy_rpc",
            Workload::FleetWal => "fleet_wal",
            Workload::CpQueries => "cp_queries",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation of the benchmark.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where spans and WAL directories go.
    pub out_dir: PathBuf,
}

/// Samples of one untraced run.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub job_s: Vec<f64>,
    /// Operations per second of each job.
    pub job_rate: Vec<f64>,
    pub op_ms: Vec<f64>,
    /// Operations attempted and failed, output checks included.
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    pub fn ops(&self) -> usize {
        self.op_ms.len()
    }

    /// Record one job: its wall time and its operations' latencies.
    pub fn job(&mut self, job_s: f64, op_ms: &[f64]) {
        self.job_s.push(job_s);
        self.job_rate.push(op_ms.len() as f64 / job_s);
        self.op_ms.extend(op_ms);
    }

    /// Count one output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("output check failed: {what}");
        }
    }
}

/// Repeat `job` until `seconds` have passed and at least `min_ops`
/// operations and two jobs are in, or until a job fails.
pub fn repeat(
    seconds: f64,
    min_ops: usize,
    s: &mut Samples,
    mut job: impl FnMut(&mut Samples) -> Result<(), String>,
) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    loop {
        if let Err(e) = job(s) {
            s.attempted += 1;
            s.failed += 1;
            eprintln!("job failed: {e}");
            return;
        }
        if start.elapsed() >= budget && s.ops() >= min_ops && s.job_s.len() >= 2 {
            return;
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn millis(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
