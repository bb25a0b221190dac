//! `greedy_local` and `greedy_rpc`: greedy CPClean to convergence, in one
//! in-process `CleaningSession` or through an `RpcCoordinator` driving two
//! loopback shard servers. Both run the same selection decisions, so their
//! difference is the distribution tax.

use crate::gen::{self, Shape};
use crate::report::{retries, scans_by_server, set_common, span_ms, Report};
use crate::trace::{Ctx, Tracer};
use crate::{client_config, millis, repeat, run_options, secs, Config, Samples};
use cp_clean::{CleaningProblem, CleaningSession};
use cp_core::Pins;
use cp_obs::Snapshot;
use cp_rpc::{
    decode_stream, encode_stream, spawn_server, RpcCoordinator, RunningServer, ServerConfig,
};
use cp_shard::{build_shard_indexes, merged_scan_sources, ShardStream, StreamCursor};
use std::time::Instant;

/// Binary labels, N=1000, M=4, 30% dirty, |val|=16.
pub const SHAPE: Shape = Shape {
    n: 1000,
    m: 4,
    dirty_frac: 0.3,
    n_labels: 2,
    dim: 3,
    n_val: 16,
    k: 3,
    instance: 7,
};

/// Shard servers behind the coordinator.
pub const SHARDS: usize = 2;

/// Opens per job; the median is `setup_s`, the last open runs the job.
const SETUP_REPS: usize = 5;

/// Steps needed for `op_p90_ms` to have ten samples beyond it.
const MIN_STEPS: usize = 100;

/// One greedy run to convergence.
#[derive(Debug, Default)]
pub struct Job {
    pub setup_s: Vec<f64>,
    pub job_s: f64,
    pub step_ms: Vec<f64>,
    pub order: Vec<usize>,
    /// CP status before each step, then the final status.
    pub statuses: Vec<Vec<bool>>,
    /// Registry activity over the measured open and the run.
    pub reg: Snapshot,
    /// Scans served per shard server (RPC only).
    pub scans_per_shard: Vec<u64>,
}

impl Job {
    pub fn final_status(&self) -> &[bool] {
        self.statuses.last().map_or(&[], |s| s.as_slice())
    }
}

/// The two engines behind one stepping loop.
enum Engine {
    Local(Box<CleaningSession>),
    Rpc(Box<RpcCoordinator>),
}

impl Engine {
    fn converged(&self) -> bool {
        match self {
            Engine::Local(s) => s.converged(),
            Engine::Rpc(c) => c.converged(),
        }
    }

    fn remaining(&self) -> Vec<usize> {
        match self {
            Engine::Local(s) => s.remaining(),
            Engine::Rpc(c) => c.remaining(),
        }
    }

    fn status(&self) -> Vec<bool> {
        match self {
            Engine::Local(s) => s.status().to_vec(),
            Engine::Rpc(c) => c.status().to_vec(),
        }
    }

    /// Select the next row and clean it, in two spans.
    fn step(&mut self, tr: &Tracer, ctx: Ctx, remaining: &[usize]) -> Result<usize, String> {
        match self {
            Engine::Local(s) => {
                let row = tr.span(ctx, "select_next", "clean", |_| s.select_next(remaining));
                tr.span(ctx, "clean", "clean", |_| s.clean(row));
                Ok(row)
            }
            Engine::Rpc(c) => {
                let row = tr
                    .span(ctx, "select_next", "rpc", |_| c.try_select_next(remaining))
                    .map_err(|e| format!("select: {e}"))?;
                tr.span(ctx, "clean", "rpc", |_| c.clean(row))
                    .map_err(|e| format!("clean row {row}: {e}"))?;
                Ok(row)
            }
        }
    }
}

fn spawn_shards() -> Result<Vec<RunningServer>, String> {
    (0..SHARDS)
        .map(|_| spawn_server(ServerConfig::default()).map_err(|e| format!("spawn server: {e}")))
        .collect()
}

fn connect(problem: &CleaningProblem, servers: &[RunningServer]) -> Result<RpcCoordinator, String> {
    let addrs: Vec<&str> = servers.iter().map(|s| s.addr()).collect();
    RpcCoordinator::connect_with(problem, &addrs, &run_options(), &client_config())
        .map_err(|e| format!("connect: {e}"))
}

/// Open the engine `SETUP_REPS` times (fresh servers each time) and run
/// greedy CPClean to convergence on the last one.
pub fn job(problem: &CleaningProblem, rpc: bool, tr: &Tracer, run: u64) -> Result<Job, String> {
    let mut out = Job::default();
    for _ in 1..SETUP_REPS {
        if rpc {
            let servers = spawn_shards()?;
            let t = Instant::now();
            let coord = connect(problem, &servers)?;
            out.setup_s.push(secs(t));
            coord.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        } else {
            let t = Instant::now();
            let session = CleaningSession::new(problem, &run_options());
            out.setup_s.push(secs(t));
            drop(session);
        }
    }
    let servers = if rpc { spawn_shards()? } else { Vec::new() };
    let before = cp_obs::snapshot();
    let root = Ctx { parent: 0, run };
    let engine = tr.span(root, "job", "bench", |ctx| -> Result<Engine, String> {
        let t = Instant::now();
        let mut engine = if rpc {
            let coord = tr.span(ctx, "RpcCoordinator::connect", "rpc", |_| {
                connect(problem, &servers)
            })?;
            Engine::Rpc(Box::new(coord))
        } else {
            let session = tr.span(ctx, "CleaningSession::new", "clean", |_| {
                CleaningSession::new(problem, &run_options())
            });
            Engine::Local(Box::new(session))
        };
        out.setup_s.push(secs(t));
        let t0 = Instant::now();
        while !engine.converged() {
            let remaining = engine.remaining();
            if remaining.is_empty() {
                break;
            }
            out.statuses.push(engine.status());
            let t = Instant::now();
            let row = tr.span(ctx, "step", "bench", |ctx| engine.step(tr, ctx, &remaining))?;
            out.step_ms.push(millis(t));
            out.order.push(row);
        }
        out.job_s = secs(t0);
        out.statuses.push(engine.status());
        Ok(engine)
    })?;
    // per-session counters are freed when a session closes: read them first
    out.reg = cp_obs::snapshot().diff(&before);
    out.scans_per_shard = scans_by_server(&out.reg);
    if let Engine::Rpc(coord) = engine {
        coord.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    drop(servers);
    Ok(out)
}

/// The in-process reference run `greedy_rpc` must reproduce.
pub fn reference(problem: &CleaningProblem) -> Job {
    job(problem, false, &Tracer::new(false), 0).expect("the in-process engine cannot fail")
}

/// Output checks: convergence with every point certain, and for the RPC
/// engine the reference's order and final status.
fn check(s: &mut Samples, got: &Job, reference: Option<&Job>) {
    s.check(
        got.final_status().iter().all(|&c| c),
        "greedy run converged with every validation point certain",
    );
    if let Some(r) = reference {
        s.check(
            retries(&got.reg) == 0,
            "no RPC retries on a fault-free workload",
        );
        s.check(
            got.order == r.order,
            "RPC cleaning order equals in-process order",
        );
        s.check(
            got.final_status() == r.final_status(),
            "RPC final status equals in-process status",
        );
    }
}

/// An untraced run: repeat jobs for `cfg.seconds`, checking each.
pub fn run(cfg: &Config, rpc: bool) -> Report {
    let problem = gen::problem(&SHAPE, cfg.seed);
    let reference = rpc.then(|| reference(&problem));
    let tr = Tracer::new(false);
    let mut s = Samples::default();
    let mut counts = String::new();
    repeat(cfg.seconds, MIN_STEPS, &mut s, |s| {
        let j = job(&problem, rpc, &tr, 0)?;
        s.setup_s.extend(&j.setup_s);
        s.job(j.job_s, &j.step_ms);
        check(s, &j, reference.as_ref());
        counts = format!(
            "greedy: {} steps per job, scans per shard {:?}",
            j.order.len(),
            j.scans_per_shard
        );
        Ok(())
    });
    println!("{counts}");
    Report::end_to_end(&s)
}

/// A traced run: alternate untraced and traced jobs, then derive the
/// per-layer metrics from the traced jobs' spans and registry activity and
/// from a replay of the scans at each step's pin state.
pub fn run_traced(cfg: &Config, rpc: bool, tr: &Tracer) -> Report {
    let problem = gen::problem(&SHAPE, cfg.seed);
    let quiet = Tracer::new(false);
    let mut s = Samples::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced: Vec<Job> = Vec::new();
    repeat(cfg.seconds, 0, &mut s, |s| {
        let j = job(&problem, rpc, &quiet, 0)?;
        plain_s.push(j.job_s);
        let t = job(&problem, rpc, tr, traced.len() as u64 + 1)?;
        traced_s.push(t.job_s);
        s.job_s.push(t.job_s);
        traced.push(t);
        Ok(())
    });
    let reference = rpc.then(|| reference(&problem));
    for j in &traced {
        check(&mut s, j, reference.as_ref());
    }
    let mut r = Report::per_layer(s.attempted, s.failed);
    let Some(first) = traced.first() else {
        return r;
    };
    let n = traced.len() as f64;
    let reg = traced
        .iter()
        .fold(Snapshot::default(), |acc, j| acc.merge(&j.reg));
    let steps = traced.iter().map(|j| j.order.len()).sum::<usize>() as f64;
    let job_s: f64 = traced_s.iter().sum();
    let spans = tr.spans();
    r.set_overhead(&plain_s, &traced_s);
    set_common(&mut r, &reg, &spans, n, steps);
    r.set("clean.rows_cleaned", steps / n);
    r.set(
        "clean.select_ms_per_step",
        span_ms(&spans, "select_next") / steps,
    );
    if rpc {
        let step_service_ms = reg.histogram("rpc.server.latency.step_us").sum_us as f64 / 1e3;
        r.set(
            "clean.status_ms_per_step",
            (span_ms(&spans, "clean") - step_service_ms) / steps,
        );
        let scans: u64 = first.scans_per_shard.iter().sum();
        let max = first.scans_per_shard.iter().copied().max().unwrap_or(0);
        r.set("shard.scans", scans as f64);
        r.set(
            "shard.scan_imbalance",
            max as f64 * first.scans_per_shard.len() as f64 / scans.max(1) as f64,
        );
        // every served scan is captured and encoded once on a server, then
        // decoded and merged once on the coordinator (hypothetical scans
        // are merged against the cached base streams), so a per-scan cost
        // times the scan count is that layer's time per job; servers work
        // in parallel with each other and the coordinator, so the shares
        // can sum past one
        let replay = replay_scans(&problem, first);
        let scans_per_s = scans as f64 / (job_s / n);
        r.set("shard.events_per_scan", replay.events / replay.scans);
        r.set(
            "shard.capture_us_per_scan",
            replay.capture_us / replay.scans,
        );
        r.set("shard.merge_us_per_scan", replay.merge_us / replay.merges);
        r.set(
            "rpc.codec.encode_us_per_scan",
            replay.encode_us / replay.scans,
        );
        r.set(
            "rpc.codec.decode_us_per_scan",
            replay.decode_us / replay.scans,
        );
        r.set(
            "shard.capture_share",
            replay.capture_us / replay.scans * scans_per_s / 1e6,
        );
        r.set(
            "shard.merge_share",
            replay.merge_us / replay.merges * scans_per_s / 1e6,
        );
        r.set(
            "rpc.codec.encode_share",
            replay.encode_us / replay.scans * scans_per_s / 1e6,
        );
        r.set(
            "rpc.codec.decode_share",
            replay.decode_us / replay.scans * scans_per_s / 1e6,
        );
    } else {
        r.set("clean.status_ms_per_step", span_ms(&spans, "clean") / steps);
    }
    println!(
        "greedy: {} traced jobs, {} steps each, scans per shard {:?}",
        traced.len(),
        first.order.len(),
        first.scans_per_shard
    );
    r
}

/// Per-scan costs measured by replaying the layers' public calls.
#[derive(Debug, Default)]
struct Replay {
    scans: f64,
    merges: f64,
    events: f64,
    capture_us: f64,
    encode_us: f64,
    decode_us: f64,
    merge_us: f64,
}

/// Replay, at each step's pin state and for each then-uncertain validation
/// point, what a base-stream scan costs: capture on every shard, encode,
/// decode, and the coordinator's merged scan over the decoded streams.
fn replay_scans(problem: &CleaningProblem, job: &Job) -> Replay {
    let shards = problem.dataset.partition(SHARDS);
    let k = problem.config.k_eff(problem.dataset.len());
    let n_labels = problem.dataset.n_labels();
    let indexes: Vec<_> = problem
        .val_x
        .iter()
        .map(|t| build_shard_indexes(&shards, problem.config.kernel, t))
        .collect();
    let mut pins = Pins::none(problem.dataset.len());
    let mut out = Replay::default();
    for (step, &row) in job.order.iter().enumerate() {
        let local: Vec<Pins> = shards.iter().map(|sh| sh.local_pins(&pins)).collect();
        for (v, idx) in indexes.iter().enumerate() {
            if job.statuses[step][v] {
                continue;
            }
            let mut decoded = Vec::with_capacity(shards.len());
            for (s, sh) in shards.iter().enumerate() {
                let t = Instant::now();
                let stream: ShardStream<f64> = ShardStream::capture(sh, &idx[s], &local[s], k);
                out.capture_us += millis(t) * 1e3;
                let t = Instant::now();
                let bytes = std::hint::black_box(encode_stream(&stream));
                out.encode_us += millis(t) * 1e3;
                let t = Instant::now();
                let back: ShardStream<f64> =
                    decode_stream(&bytes).expect("replayed stream decodes");
                out.decode_us += millis(t) * 1e3;
                out.events += stream.events.len() as f64;
                out.scans += 1.0;
                decoded.push(back);
            }
            let mut cursors: Vec<StreamCursor<'_, f64>> =
                decoded.iter().map(|st| st.cursor()).collect();
            let t = Instant::now();
            std::hint::black_box(merged_scan_sources(&mut cursors, n_labels, k, None, |_| {
                false
            }));
            out.merge_us += millis(t) * 1e3;
            out.merges += 1.0;
        }
        pins.pin(
            row,
            problem.truth_choice[row].expect("cleaned rows are dirty"),
        );
    }
    out.scans = out.scans.max(1.0);
    out.merges = out.merges.max(1.0);
    out
}
