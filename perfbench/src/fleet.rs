//! `fleet_wal`: two coordinators, one connection each, against one
//! WAL-backed pool server that fsyncs every pin before acknowledging its
//! `Step`. Each coordinator cleans its own fixed shuffled order of every
//! dirty row, with no greedy selection — the write-heavy use of the server.

use crate::gen::{self, Rng, Shape};
use crate::report::{retries, set_common, span_ms, Report};
use crate::trace::{Ctx, Tracer};
use crate::{client_config, millis, repeat, run_options, secs, Config, Samples, THREADS};
use cp_clean::{CleaningProblem, CleaningSession};
use cp_obs::Snapshot;
use cp_rpc::{spawn_server, RpcCoordinator, RunningServer, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

/// Binary labels, N=4000, M=4, 30% dirty, |val|=16.
pub const SHAPE: Shape = Shape {
    n: 4000,
    m: 4,
    dirty_frac: 0.3,
    n_labels: 2,
    dim: 3,
    n_val: 16,
    k: 3,
    instance: 11,
};

/// Concurrent coordinators (tenants), one connection each.
pub const TENANTS: usize = THREADS;

/// Server starts and tenant opens per job; the median is `setup_s`.
const SETUP_REPS: usize = 3;

/// One fleet run: every tenant cleans its whole order.
#[derive(Debug, Default)]
pub struct Job {
    pub setup_s: Vec<f64>,
    pub job_s: f64,
    pub step_ms: Vec<f64>,
    /// Each tenant's final CP status.
    pub statuses: Vec<Vec<bool>>,
    pub reg: Snapshot,
}

/// Each tenant's fixed shuffled order of every dirty row, drawn from the
/// instance seed like the instance itself.
pub fn orders(problem: &CleaningProblem) -> Vec<Vec<usize>> {
    (0..TENANTS)
        .map(|t| {
            let mut order = problem.dirty_rows();
            Rng::new(SHAPE.instance ^ (0xf1ee7 + t as u64)).shuffle(&mut order);
            order
        })
        .collect()
}

/// A WAL-backed pool server over a fresh data directory; the directory is
/// removed when the guard drops, after the server has stopped.
struct WalServer {
    server: Option<RunningServer>,
    dir: PathBuf,
}

impl WalServer {
    fn start(dir: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig {
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server = spawn_server(cfg).map_err(|e| format!("spawn WAL server: {e}"))?;
        Ok(WalServer {
            server: Some(server),
            dir,
        })
    }

    fn addr(&self) -> &str {
        self.server.as_ref().expect("running until dropped").addr()
    }
}

impl Drop for WalServer {
    fn drop(&mut self) {
        drop(self.server.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Per-tenant outcome: final status and step latencies, or the error.
type Tenant = Result<(Vec<bool>, Vec<f64>), String>;

/// Open every tenant concurrently, then (unless `open_only`) let every
/// tenant clean its order. Returns (setup s, job s, registry activity,
/// tenants). Every thread passes every barrier whatever fails, so an error
/// never strands the others.
fn fleet(
    problem: &CleaningProblem,
    orders: &[Vec<usize>],
    addr: &str,
    open_only: bool,
    tr: &Tracer,
    ctx: Ctx,
) -> (f64, f64, Snapshot, Vec<Tenant>) {
    let opened = Barrier::new(TENANTS + 1);
    let go = Barrier::new(TENANTS + 1);
    let done = Barrier::new(TENANTS + 1);
    let calm = Barrier::new(TENANTS + 1);
    let before = cp_obs::snapshot();
    std::thread::scope(|scope| {
        let t = Instant::now();
        let workers: Vec<_> = orders
            .iter()
            .map(|order| {
                let (opened, go, done, calm) = (&opened, &go, &done, &calm);
                scope.spawn(move || -> Tenant {
                    let coord = tr.span(ctx, "RpcCoordinator::connect", "rpc", |_| {
                        RpcCoordinator::connect_with(
                            problem,
                            &[addr],
                            &run_options(),
                            &client_config(),
                        )
                    });
                    opened.wait();
                    go.wait();
                    let mut step_ms = Vec::with_capacity(order.len());
                    let run = coord
                        .map_err(|e| format!("connect: {e}"))
                        .and_then(|mut c| {
                            if !open_only {
                                for &row in order {
                                    let t = Instant::now();
                                    tr.span(ctx, "clean", "rpc", |_| c.clean(row))
                                        .map_err(|e| format!("clean row {row}: {e}"))?;
                                    step_ms.push(millis(t));
                                }
                            }
                            Ok(c)
                        });
                    done.wait();
                    calm.wait();
                    let c = run?;
                    let status = c.status().to_vec();
                    c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
                    Ok((status, step_ms))
                })
            })
            .collect();
        opened.wait();
        let setup_s = secs(t);
        go.wait();
        let t0 = Instant::now();
        done.wait();
        let job_s = secs(t0);
        let reg = cp_obs::snapshot().diff(&before);
        calm.wait();
        let tenants = workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("tenant thread panicked".into()))
            })
            .collect();
        (setup_s, job_s, reg, tenants)
    })
}

/// Start a WAL server and open the fleet `SETUP_REPS` times; on the last,
/// run every tenant's order.
pub fn job(
    problem: &CleaningProblem,
    orders: &[Vec<usize>],
    root: &Path,
    tr: &Tracer,
    run: u64,
) -> Result<Job, String> {
    let mut out = Job::default();
    for rep in 1..SETUP_REPS {
        let server = WalServer::start(root.join(format!("wal-setup-{rep}")))?;
        let (setup_s, _, _, tenants) = fleet(
            problem,
            orders,
            server.addr(),
            true,
            &Tracer::new(false),
            Ctx::default(),
        );
        out.setup_s.push(setup_s);
        for t in tenants {
            t?;
        }
    }
    let server = WalServer::start(root.join("wal-job"))?;
    let (setup_s, job_s, reg, tenants) = tr.span(Ctx { parent: 0, run }, "job", "bench", |ctx| {
        fleet(problem, orders, server.addr(), false, tr, ctx)
    });
    out.setup_s.push(setup_s);
    out.job_s = job_s;
    out.reg = reg;
    for t in tenants {
        let (status, step_ms) = t?;
        out.statuses.push(status);
        out.step_ms.extend(step_ms);
    }
    Ok(out)
}

/// Each tenant's final status must equal an isolated in-process run of
/// its order.
fn check(
    s: &mut Samples,
    problem: &CleaningProblem,
    orders: &[Vec<usize>],
    statuses: &[Vec<Vec<bool>>],
) {
    let isolated: Vec<Vec<bool>> = orders
        .iter()
        .map(|order| {
            let mut session = CleaningSession::new(problem, &run_options());
            for &row in order {
                session.clean(row);
            }
            session.status().to_vec()
        })
        .collect();
    for got in statuses {
        s.check(
            *got == isolated,
            "every tenant's final status equals its isolated in-process run",
        );
    }
}

fn inputs(cfg: &Config) -> (CleaningProblem, Vec<Vec<usize>>, PathBuf) {
    let problem = gen::problem(&SHAPE, cfg.seed);
    let orders = orders(&problem);
    let root = cfg
        .out_dir
        .join(format!("fleet-{}-{}", std::process::id(), cfg.seed));
    (problem, orders, root)
}

/// An untraced run: repeat fleet jobs for `cfg.seconds`; the isolated
/// reference runs happen after timing.
pub fn run(cfg: &Config) -> Report {
    let (problem, orders, root) = inputs(cfg);
    let tr = Tracer::new(false);
    let mut s = Samples::default();
    let mut statuses = Vec::new();
    repeat(cfg.seconds, 0, &mut s, |s| {
        let j = job(&problem, &orders, &root, &tr, 0)?;
        s.setup_s.extend(&j.setup_s);
        s.job(j.job_s, &j.step_ms);
        s.check(
            retries(&j.reg) == 0,
            "no RPC retries on a fault-free workload",
        );
        statuses.push(j.statuses);
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&root);
    check(&mut s, &problem, &orders, &statuses);
    Report::end_to_end(&s)
}

/// A traced run: alternate untraced and traced fleet jobs.
pub fn run_traced(cfg: &Config, tr: &Tracer) -> Report {
    let (problem, orders, root) = inputs(cfg);
    let quiet = Tracer::new(false);
    let mut s = Samples::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced: Vec<Job> = Vec::new();
    repeat(cfg.seconds, 0, &mut s, |s| {
        plain_s.push(job(&problem, &orders, &root, &quiet, 0)?.job_s);
        let j = job(&problem, &orders, &root, tr, traced.len() as u64 + 1)?;
        traced_s.push(j.job_s);
        s.job_s.push(j.job_s);
        traced.push(j);
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&root);
    let statuses: Vec<_> = traced.iter().map(|j| j.statuses.clone()).collect();
    check(&mut s, &problem, &orders, &statuses);
    let mut r = Report::per_layer(s.attempted, s.failed);
    if traced.is_empty() {
        return r;
    }
    let n = traced.len() as f64;
    let steps = traced.iter().map(|j| j.step_ms.len()).sum::<usize>() as f64;
    let reg = traced
        .iter()
        .fold(Snapshot::default(), |acc, j| acc.merge(&j.reg));
    let spans = tr.spans();
    r.set_overhead(&plain_s, &traced_s);
    set_common(&mut r, &reg, &spans, n, steps);
    r.set("clean.rows_cleaned", steps / n);
    let step_service_ms = reg.histogram("rpc.server.latency.step_us").sum_us as f64 / 1e3;
    r.set(
        "clean.status_ms_per_step",
        (span_ms(&spans, "clean") - step_service_ms) / steps,
    );
    r.set("shard.scan_imbalance", 1.0);
    println!(
        "fleet_wal: {} traced jobs, {TENANTS} tenants x {} steps",
        traced.len(),
        orders[0].len()
    );
    r
}
