//! Cached-session vs seed-style per-iteration rebuild.
//!
//! Two workloads, each with a `cached_*` arm driving the stateful
//! `CleaningSession` engine and a `rebuild_*` arm reproducing the seed
//! implementation's loop (a full `val_cp_status` recompute — one
//! similarity-index build per validation point — after every cleaning
//! step):
//!
//! * **status_updates** — a fixed cleaning order (RandomClean's shape):
//!   the per-iteration cost *is* the status update, so the cached arm's
//!   advantage (indexes built once, already-certain points skipped) is the
//!   whole story. The cached arm does a strict subset of the rebuild arm's
//!   work and must be strictly faster.
//! * **greedy** — full CPClean iterations (selection + status update): the
//!   entropy loop dominates both arms equally, so caching shows up as a
//!   smaller relative margin here.
//!
//! The `status_updates_rpc` group drives the same fixed-order status
//! workload through the sharded engine: an `RpcCoordinator` against
//! persistent loopback shard servers, timing connect + `Open` + per-step
//! `ExtremeSummary` exchanges (the bank bundle is binary, so status checks
//! take the rank-merged MM extreme-summary path).

use cp_bench::{problem_from_prepared, seed_style_status_updates};
use cp_clean::{select_next, val_cp_status, CleaningSession, CleaningState, RunOptions};
use cp_datasets::{bank, make_bundle, prepare, BundleConfig};
use cp_rpc::{spawn_server, RpcCoordinator, RunningServer, ServerConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("session");
    group
        .measurement_time(Duration::from_secs(5))
        .sample_size(10);

    let mut cfg = BundleConfig::laptop(3);
    cfg.n_train = 120;
    cfg.n_val = 40;
    cfg.n_test = 40;
    let bundle = make_bundle(&bank(), &cfg);
    let prep = prepare(&bundle, &cfg.repair);
    let problem = problem_from_prepared(&prep, 3);
    let opts = RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    };
    // a fixed multi-iteration cleaning order for the status-update workload
    let order: Vec<usize> = problem.dirty_rows().into_iter().take(8).collect();

    group.bench_function("status_updates_cached_session", |b| {
        b.iter(|| {
            let mut session = CleaningSession::new(&problem, &opts);
            for &row in &order {
                if session.converged() {
                    break;
                }
                session.clean(row);
            }
            black_box(session.n_certain())
        })
    });

    group.bench_function("status_updates_per_iteration_rebuild", |b| {
        b.iter(|| {
            let (_, cp) = seed_style_status_updates(&problem, &order, opts.n_threads);
            black_box(cp.iter().filter(|&&c| c).count())
        })
    });

    // full greedy CPClean, iteration count bounded so both arms run the
    // same number of steps regardless of convergence noise
    let budget = 4usize;
    let greedy_opts = RunOptions {
        max_cleaned: Some(budget),
        ..opts.clone()
    };

    group.bench_function("greedy_cached_session", |b| {
        b.iter(|| {
            let mut session = CleaningSession::new(&problem, &greedy_opts);
            while session.step().is_some() {}
            black_box((session.n_cleaned(), session.n_certain()))
        })
    });

    group.bench_function("greedy_per_iteration_rebuild", |b| {
        b.iter(|| {
            let mut state = CleaningState::new(&problem);
            let mut cp = val_cp_status(&problem, state.pins(), opts.n_threads);
            loop {
                if cp.iter().all(|&c| c) || state.n_cleaned() >= budget {
                    break;
                }
                let remaining = state.remaining(&problem);
                if remaining.is_empty() {
                    break;
                }
                let row = select_next(&problem, &state, &cp, &remaining, opts.n_threads);
                state.clean_row(&problem, row);
                cp = val_cp_status(&problem, state.pins(), opts.n_threads);
            }
            black_box((state.n_cleaned(), cp.iter().filter(|&&c| c).count()))
        })
    });

    group.finish();

    // the sharded engine: the identical status-update workload driven
    // through an RpcCoordinator against persistent shard servers on
    // loopback TCP, so the serving path's status-check cost (Open +
    // per-step ExtremeSummary exchanges) is tracked alongside the
    // single-process rows
    let mut rpc_group = c.benchmark_group("status_updates_rpc");
    rpc_group
        .measurement_time(Duration::from_secs(5))
        .sample_size(10);
    let n_servers = 2usize;
    let servers: Vec<RunningServer> = (0..n_servers)
        .map(|_| spawn_server(ServerConfig::default()).expect("spawn loopback server"))
        .collect();
    let addrs: Vec<&str> = servers.iter().map(RunningServer::addr).collect();
    rpc_group.bench_function(format!("loopback_{n_servers}"), |b| {
        b.iter(|| {
            let mut remote =
                RpcCoordinator::connect(&problem, &addrs, &opts).expect("connect coordinator");
            for &row in &order {
                if remote.converged() {
                    break;
                }
                remote.clean(row).expect("clean over rpc");
            }
            let n = remote.n_certain();
            remote.shutdown().expect("shutdown");
            black_box(n)
        })
    });
    rpc_group.finish();

    // greedy selection over RPC: the pipelined incremental scorer
    // (`try_select_next` — score cache, entropy-bound pruning, windowed
    // in-flight hypothetical scans, base-stream reuse) against the
    // serialized from-scratch baseline (`try_select_next_serialized` — one
    // blocking round trip per hypothetical scan). Both arms run the same
    // budget of full greedy steps against the same persistent servers and
    // must pick identical rows; only the wall clock differs.
    let mut greedy_rpc = c.benchmark_group("greedy_rpc");
    greedy_rpc
        .measurement_time(Duration::from_secs(5))
        .sample_size(10);
    for (name, serialized) in [("pipelined_incremental", false), ("serialized", true)] {
        greedy_rpc.bench_function(name, |b| {
            b.iter(|| {
                let mut remote = RpcCoordinator::connect(&problem, &addrs, &greedy_opts)
                    .expect("connect coordinator");
                while remote.n_cleaned() < budget && !remote.converged() {
                    let remaining = remote.remaining();
                    if remaining.is_empty() {
                        break;
                    }
                    let row = if serialized {
                        remote
                            .try_select_next_serialized(&remaining)
                            .expect("serialized selection")
                    } else {
                        remote.try_select_next(&remaining).expect("selection")
                    };
                    remote.clean(row).expect("clean over rpc");
                }
                let n = remote.n_cleaned();
                remote.shutdown().expect("shutdown");
                black_box(n)
            })
        });
    }
    greedy_rpc.finish();
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
