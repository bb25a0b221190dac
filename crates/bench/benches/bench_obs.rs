//! Observability overhead: what the `cp-obs` instrumentation costs, and a
//! hard guard that it stays an ignorable fraction of real work.
//!
//! Criterion rows time the three primitives on their hot paths — cached
//! counter increment, histogram record, span guard create/drop — in
//! whichever mode this binary was compiled (default: live atomics;
//! `--features obs-off`: the zero-sized no-op twins, where the rows should
//! read as loop overhead only).
//!
//! The **overhead guard** can't compare two compilation modes inside one
//! binary, so it bounds the instrumented build directly: run a real greedy
//! cleaning workload (an `RpcCoordinator` over two loopback shard servers,
//! whose client, server and codec layers all record into the one process
//! registry), count every registry operation it performed (counter `add`
//! calls and histogram records, from a snapshot diff), price those ops
//! with the measured per-op primitive costs, and assert the priced total is
//! under 5% of the workload's wall time. A diff holds counter values, not
//! calls, so the count is an upper bound: a byte-valued counter is priced
//! at one call per frame of the workload, every other counter at one call
//! per unit of its value. Under `obs-off` the diff is empty
//! and the guard passes trivially — the compile-out escape hatch exists,
//! but the default build must not need it.

use cp_bench::random_incomplete_dataset;
use cp_clean::{CleaningProblem, RunOptions};
use cp_core::CpConfig;
use cp_rpc::{spawn_server, RpcCoordinator, RunningServer, ServerConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn synthetic_problem(n: usize, m: usize, n_val: usize, seed: u64) -> CleaningProblem {
    let (dataset, _) = random_incomplete_dataset(n, m, 0.3, 2, 3, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbead);
    let choices = |rng: &mut StdRng| -> Vec<Option<usize>> {
        (0..dataset.len())
            .map(|i| {
                let m = dataset.set_size(i);
                (m > 1).then(|| rng.gen_range(0..m))
            })
            .collect()
    };
    let truth_choice = choices(&mut rng);
    let default_choice = choices(&mut rng);
    let val_x: Vec<Vec<f64>> = (0..n_val)
        .map(|_| {
            (0..dataset.dim())
                .map(|_| rng.gen_range(-2.0..2.0))
                .collect()
        })
        .collect();
    CleaningProblem::new(
        dataset,
        CpConfig::new(3),
        val_x,
        truth_choice,
        default_choice,
    )
}

/// Nanoseconds per call of `op`, measured over enough iterations to swamp
/// the timer's resolution.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    const ITERS: u64 = 2_000_000;
    // warm-up also forces the per-site registry lookup out of the timing
    for _ in 0..1_000 {
        op();
    }
    let t0 = Instant::now();
    for _ in 0..ITERS {
        op();
    }
    t0.elapsed().as_nanos() as f64 / ITERS as f64
}

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);

    // --- primitive hot paths (handles cached, as the macros cache them) ---
    let counter = cp_obs::counter("bench.obs.counter");
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    let hist = cp_obs::histogram("bench.obs.histogram");
    let mut v = 0u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_add(997);
            hist.record_us(black_box(v % 100_000));
        })
    });
    let span_hist = cp_obs::histogram("bench.obs.span");
    group.bench_function("span_guard", |b| {
        b.iter(|| drop(cp_obs::SpanGuard::new(span_hist.clone())))
    });
    // the macro path adds one static-OnceLock read over the cached handle
    group.bench_function("counter_macro_site", |b| {
        b.iter(|| cp_obs::counter!("bench.obs.macro_site").inc())
    });
    group.finish();

    // --- overhead guard: priced registry traffic of a real workload -------
    let counter_ns = ns_per_op(|| counter.inc());
    // a span is a histogram record plus two clock reads — price every
    // histogram count increment at the dearer span rate to stay conservative
    let span_ns = ns_per_op(|| drop(cp_obs::SpanGuard::new(span_hist.clone())));

    let problem = synthetic_problem(60, 3, 4, 17);
    let opts = RunOptions {
        record_every: usize::MAX,
        ..RunOptions::default()
    };
    let servers: Vec<RunningServer> = (0..2)
        .map(|_| spawn_server(ServerConfig::default()).expect("spawn loopback server"))
        .collect();
    let addrs: Vec<&str> = servers.iter().map(RunningServer::addr).collect();
    let before = cp_obs::snapshot();
    let t0 = Instant::now();
    let mut session = RpcCoordinator::connect(&problem, &addrs, &opts).expect("connect");
    while session.step().is_some() {}
    session.shutdown().expect("shutdown");
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let diff = cp_obs::snapshot().diff(&before);

    // a counter moves by one `add` call, however large the amount, so it is
    // priced per call: a byte-valued counter (`rpc.server.bytes_*`,
    // `rpc.codec.*_bytes_*`) adds one frame's or one stream's size per call,
    // at most once per frame, so it costs at most one op per frame of the
    // workload — a request and its response for every request a server
    // handled — and never more ops than its value; every other counter is
    // priced at its value, one op per unit, which over-counts its `add`
    // calls and never under-counts them
    let frames: u64 = 2 * diff
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("rpc.server.latency."))
        .map(|(_, h)| h.count())
        .sum::<u64>();
    let counter_ops: u64 = diff
        .counters
        .iter()
        .map(|(name, &v)| {
            if name.contains("bytes") {
                v.min(frames)
            } else {
                v
            }
        })
        .sum();
    let hist_ops: u64 = diff.histograms.values().map(|h| h.count()).sum();
    let priced_ns = counter_ops as f64 * counter_ns + hist_ops as f64 * span_ns;
    let share = priced_ns / wall_ns;
    println!(
        "overhead guard: {counter_ops} counter ops ({frames} frames) @ {counter_ns:.1}ns + \
         {hist_ops} records @ {span_ns:.1}ns = {:.0}ns priced over {:.2e}ns workload — \
         {:.4}% of wall time",
        priced_ns,
        wall_ns,
        share * 100.0
    );
    assert!(
        share < 0.05,
        "instrumentation priced at {:.2}% of a greedy cleaning run — over the 5% budget",
        share * 100.0
    );
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
