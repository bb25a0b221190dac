//! `cp_queries`: the paper's queries over a batch of multiclass test
//! points — Q1 (`certain_labels_batch`), Q2 probabilities
//! (`q2_probabilities_batch`) and exact Q2 counts in `BigUint`
//! (`q2_batch`). 4^600 worlds overflow `u128`, so the exact counts need
//! the arbitrary-precision semiring.
//!
//! A client asks about `CHUNK` points per call; one job asks every query
//! kind about all `SHAPE.n_val` points.

use crate::gen::{self, Shape};
use crate::report::{set_self_times, Report};
use crate::trace::{Ctx, Tracer};
use crate::{millis, repeat, secs, Config, Samples, THREADS};
use cp_core::{
    certain_labels_batch, q2_batch, q2_probabilities_batch, CpConfig, IncompleteDataset,
    IncompleteExample, Label, Pins, Q2Result,
};
use cp_numeric::BigUint;
use std::time::Instant;

/// Multiclass |Y|=4, N=2000, M=4, 30% dirty, T=200 test points.
pub const SHAPE: Shape = Shape {
    n: 2000,
    m: 4,
    dirty_frac: 0.3,
    n_labels: 4,
    dim: 3,
    n_val: 200,
    k: 3,
    instance: 3,
};

/// Test points per call.
pub const CHUNK: usize = 10;

/// Dataset constructions per job; the median is `setup_s`.
const SETUP_REPS: usize = 20;

/// Calls needed for `op_p90_ms` to have ten samples beyond it.
const MIN_CALLS: usize = 100;

/// Tolerance between a probability and its exact count ratio.
const PROB_TOL: f64 = 1e-9;

/// The three query kinds, in the order a job runs them.
const KINDS: [&str; 3] = [
    "certain_labels_batch",
    "q2_probabilities_batch",
    "q2_batch::<BigUint>",
];

/// One job's answers plus its timings.
#[derive(Debug, Default)]
pub struct Job {
    pub setup_s: Vec<f64>,
    pub job_s: f64,
    pub call_ms: Vec<f64>,
    /// Per kind: process CPU time (µs) and index-build time (µs).
    pub cpu_us: [f64; 3],
    pub build_us: [f64; 3],
    pub q1: Vec<Option<Label>>,
    pub probs: Vec<Vec<f64>>,
    pub exact: Vec<Q2Result<BigUint>>,
    pub reg: cp_obs::Snapshot,
}

/// Build the dataset `SETUP_REPS` times, then answer every kind for every
/// point, `CHUNK` points per call.
pub fn job(examples: &[IncompleteExample], points: &[Vec<f64>], tr: &Tracer, run: u64) -> Job {
    let mut out = Job::default();
    let cfg = CpConfig::new(SHAPE.k);
    let before = cp_obs::snapshot();
    let root = Ctx { parent: 0, run };
    tr.span(root, "job", "bench", |ctx| {
        let mut ds = None;
        for _ in 0..SETUP_REPS {
            let copy = examples.to_vec();
            let t = Instant::now();
            ds = Some(tr.span(ctx, "IncompleteDataset::new", "core", |_| {
                IncompleteDataset::new(copy, SHAPE.n_labels).expect("generated rows are valid")
            }));
            out.setup_s.push(secs(t));
        }
        let ds = ds.expect("at least one setup");
        let pins = Pins::none(ds.len());
        let t0 = Instant::now();
        for (kind, name) in KINDS.iter().enumerate() {
            let (cpu0, builds0) = (cpu_us(), build_us_total());
            for chunk in points.chunks(CHUNK) {
                let t = Instant::now();
                tr.span(ctx, name, "core", |_| match kind {
                    0 => out.q1.extend(certain_labels_batch(&ds, &cfg, chunk)),
                    1 => out
                        .probs
                        .extend(q2_probabilities_batch(&ds, &cfg, chunk, &pins)),
                    _ => out.exact.extend(q2_batch::<BigUint>(&ds, &cfg, chunk)),
                });
                out.call_ms.push(millis(t));
            }
            out.cpu_us[kind] = cpu_us() - cpu0;
            out.build_us[kind] = build_us_total() - builds0;
        }
        out.job_s = secs(t0);
    });
    out.reg = cp_obs::snapshot().diff(&before);
    out
}

/// `true` iff every point's exact per-label counts sum to ∏|Cᵢ|.
fn check_world_count(ds: &IncompleteDataset, exact: &[Q2Result<BigUint>]) -> bool {
    let worlds = ds.world_count();
    exact.iter().all(|r| {
        let sum = r.counts.iter().fold(BigUint::zero(), |acc, c| acc.add(c));
        sum == worlds && r.total == worlds
    })
}

/// Output checks: exact counts sum to the world count, Q1 is certain iff
/// exactly one label's count is non-zero, and the probabilities equal the
/// count ratios.
fn check(s: &mut Samples, examples: &[IncompleteExample], j: &Job) {
    let ds = IncompleteDataset::new(examples.to_vec(), SHAPE.n_labels).expect("valid rows");
    s.check(
        j.exact.len() == SHAPE.n_val && check_world_count(&ds, &j.exact),
        "exact per-label counts sum to the world count",
    );
    s.check(
        j.q1.len() == j.exact.len()
            && j.q1
                .iter()
                .zip(&j.exact)
                .all(|(q1, r)| *q1 == r.certain_label()),
        "Q1 certain label iff exactly one label has non-zero count",
    );
    s.check(
        j.probs.len() == j.exact.len()
            && j.probs.iter().zip(&j.exact).all(|(p, r)| {
                p.len() == r.counts.len()
                    && p.iter()
                        .zip(&r.counts)
                        .all(|(&p, c)| (p - c.ratio(&r.total)).abs() <= PROB_TOL)
            }),
        "probabilities equal exact count ratios",
    );
}

fn inputs(seed: u64) -> (Vec<IncompleteExample>, Vec<Vec<f64>>) {
    let (ds, points) = gen::dataset(&SHAPE, seed);
    (ds.examples().to_vec(), points)
}

/// An untraced run: repeat jobs for `cfg.seconds`, checking every job.
pub fn run(cfg: &Config) -> Report {
    let (examples, points) = inputs(cfg.seed);
    let tr = Tracer::new(false);
    let mut s = Samples::default();
    repeat(cfg.seconds, MIN_CALLS, &mut s, |s| {
        let j = job(&examples, &points, &tr, 0);
        s.setup_s.extend(&j.setup_s);
        s.job(j.job_s, &j.call_ms);
        check(s, &examples, &j);
        Ok(())
    });
    Report::end_to_end(&s)
}

/// A traced run: alternate untraced and traced jobs; per-point scan costs
/// are each kind's CPU time minus its index builds, per point.
pub fn run_traced(cfg: &Config, tr: &Tracer) -> Report {
    let (examples, points) = inputs(cfg.seed);
    let quiet = Tracer::new(false);
    let mut s = Samples::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced = Vec::new();
    repeat(cfg.seconds, 0, &mut s, |s| {
        plain_s.push(job(&examples, &points, &quiet, 0).job_s);
        let j = job(&examples, &points, tr, traced.len() as u64 + 1);
        check(s, &examples, &j);
        traced_s.push(j.job_s);
        s.job_s.push(j.job_s);
        traced.push(j);
        Ok(())
    });
    let mut r = Report::per_layer(s.attempted, s.failed);
    if traced.is_empty() {
        return r;
    }
    let n = traced.len() as f64;
    r.set_overhead(&plain_s, &traced_s);
    let mean = |f: &dyn Fn(&Job) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let per_point =
        |kind: usize| mean(&|j: &Job| (j.cpu_us[kind] - j.build_us[kind]) / points.len() as f64);
    let reg = traced
        .iter()
        .fold(cp_obs::Snapshot::default(), |acc, j| acc.merge(&j.reg));
    r.set(
        "core.index_build_ms",
        reg.histogram("core.similarity.build_us").sum_us as f64 / 1e3 / n,
    );
    r.set(
        "core.index_builds",
        reg.counter("core.similarity.index_builds") as f64 / n,
    );
    r.set(
        "core.tree_builds",
        reg.counter("core.poly.tree_builds") as f64 / n,
    );
    let (q1, prob, exact) = (per_point(0), per_point(1), per_point(2));
    r.set("core.scan_us_per_point.q1", q1);
    r.set("core.scan_us_per_point.q2_prob", prob);
    r.set("core.scan_us_per_point.q2_exact", exact);
    r.set("numeric.exact_over_float", exact / prob);
    set_self_times(&mut r, &tr.spans(), n);
    println!(
        "cp_queries: {} traced jobs; {THREADS} worker threads; CPU per point q1 {q1:.0} us, \
         q2_prob {prob:.0} us, q2_exact {exact:.0} us",
        traced.len()
    );
    r
}

/// CPU time of the whole process in µs (user + system, clock-tick
/// resolution), from `/proc/self/stat`.
fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: f64 = fields.get(11..13).map_or(0.0, |f| {
        f.iter().filter_map(|v| v.parse::<f64>().ok()).sum()
    });
    ticks * 1e6 / CLOCK_TICKS_PER_S
}

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Total µs the registry has recorded for similarity-index builds.
fn build_us_total() -> f64 {
    cp_obs::snapshot()
        .histogram("core.similarity.build_us")
        .sum_us as f64
}
