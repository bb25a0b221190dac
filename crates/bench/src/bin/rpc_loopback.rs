//! Multi-process serving experiment: a coordinator driving shard servers
//! over loopback TCP, verified against (and timed against) the
//! single-process `CleaningSession`.
//!
//! Two modes:
//!
//! * self-contained (default): spawns its own `--shards N` server accept
//!   loops on ephemeral loopback ports — an in-one-binary rehearsal of the
//!   multi-host deployment;
//! * `--connect ADDR1,ADDR2,…`: drives externally launched `shard-server`
//!   processes (the CI smoke test starts two real processes and points this
//!   binary at them).
//!
//! `--data-dir PATH` adds a third engine row: the same greedy run against
//! WAL-backed servers (one `data-dir` subdirectory per shard), so the table
//! shows what per-pin fsync durability costs next to the volatile RPC path.
//!
//! Every run cross-checks the RPC path: initial CP status, the full greedy
//! cleaning order and the final status must equal the single-process
//! session's exactly, for the same problem. `--smoke` keeps CI runs at
//! seconds scale.

use cp_bench::{synthetic_problem, Reporter};
use cp_clean::{CleaningSession, RunOptions};
use cp_core::{Pins, Q2Algorithm, Q2Result};
use cp_numeric::Possibility;
use cp_rpc::{encode_stream, spawn_server, RpcCoordinator, RunningServer, ServerConfig};
use cp_shard::{build_shard_indexes, ShardStream};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let r = Reporter;
    let mut smoke = false;
    let mut shards = 2usize;
    let mut connect: Option<Vec<String>> = None;
    let mut data_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--data-dir" => {
                data_dir = Some(args.next().expect("--data-dir requires a path").into());
            }
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .expect("--shards requires a positive integer");
            }
            "--connect" => {
                connect = Some(
                    args.next()
                        .expect("--connect requires ADDR1,ADDR2,…")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let (n, m, n_val) = if smoke { (60, 3, 4) } else { (200, 4, 8) };
    let problem = synthetic_problem(n, m, n_val, 7);
    let opts = RunOptions {
        record_every: usize::MAX, // curve points don't matter here
        ..RunOptions::default()
    };
    let test_x: Vec<Vec<f64>> = problem.val_x().to_vec();
    let test_y = vec![0usize; test_x.len()];

    r.section("Multi-process serving: coordinator + shard servers over loopback TCP");
    r.note(&format!(
        "problem: N={n} M={m} |val|={n_val}, {} dirty rows; opts.n_threads={}",
        problem.dirty_rows().len(),
        opts.n_threads
    ));

    // scan streams — the dominant message class — travel delta-compressed;
    // report what this workload's streams cost on the wire
    {
        let shards_1 = problem.dataset.partition(1);
        let pins = Pins::none(problem.dataset.len());
        let k = problem.config.k_eff(problem.dataset.len());
        let mut delta = 0usize;
        for t in problem.val_x.iter() {
            let indexes = build_shard_indexes(&shards_1, problem.config.kernel, t);
            let stream: ShardStream<f64> =
                ShardStream::capture(&shards_1[0], &indexes[0], &pins, k);
            delta += encode_stream(&stream).len();
        }
        r.note(&format!(
            "scan streams on the wire: {delta} B (delta encoding)"
        ));
    }

    // single-process baseline
    let n_shards = connect.as_ref().map(|a| a.len()).unwrap_or(shards);
    let t0 = Instant::now();
    let mut local = CleaningSession::new(&problem, &opts);
    let local_open_s = t0.elapsed().as_secs_f64();
    let initial_status = local.status().to_vec();
    let t0 = Instant::now();
    let local_run = local.run_to_convergence(&test_x, &test_y);
    let local_run_s = t0.elapsed().as_secs_f64();

    // RPC path
    // self-spawned servers stay up until the end of main, after the
    // coordinator has shut down
    let (addrs, _servers): (Vec<String>, Vec<RunningServer>) = match &connect {
        Some(addrs) => {
            r.note(&format!("connecting to external servers: {addrs:?}"));
            (addrs.clone(), Vec::new())
        }
        None => {
            r.note(&format!("self-spawning {n_shards} loopback servers"));
            let servers: Vec<RunningServer> = (0..n_shards)
                .map(|_| spawn_server(ServerConfig::default()).expect("bind loopback server"))
                .collect();
            (
                servers.iter().map(|s| s.addr().to_string()).collect(),
                servers,
            )
        }
    };
    let t0 = Instant::now();
    let mut remote = RpcCoordinator::connect(&problem, &addrs, &opts).expect("connect coordinator");
    let remote_open_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        remote.status(),
        initial_status,
        "initial CP status must match the single-process session"
    );

    // binary-label problems dispatch status checks to the rank-merged
    // extreme-summary path (O(K) entries per shard on the wire instead of
    // the whole boundary-event stream); cross-check it against the full
    // Possibility stream scan at every validation point, and time both
    assert_eq!(problem.dataset.n_labels(), 2, "workload must be binary");
    let n_val_points = problem.val_x().len();
    let t0 = Instant::now();
    let via_summaries: Vec<_> = (0..n_val_points)
        .map(|v| remote.certain_label_at(v).expect("summary status check"))
        .collect();
    let summary_status_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let via_streams: Vec<_> = (0..n_val_points)
        .map(|v| {
            let r: Q2Result<Possibility> = remote
                .q2_at(v, Q2Algorithm::Auto)
                .expect("possibility stream status check");
            r.certain_label()
        })
        .collect();
    let stream_status_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        via_summaries, via_streams,
        "the binary-Q1 summary path must equal the Possibility stream scan"
    );
    r.note(&format!(
        "verified: extreme-summary status sweep == Possibility stream sweep on all {n_val_points} \
         val points ({summary_status_s:.4}s via summaries vs {stream_status_s:.4}s via streams)"
    ));

    // the greedy run over RPC uses the incremental pipelined scorer; in
    // smoke mode (the CI job) every step's pick is additionally
    // cross-checked against the serialized from-scratch scorer — the
    // bit-identical-selection contract, enforced on every CI run
    let t0 = Instant::now();
    let mut remote_order = Vec::new();
    while !remote.converged() {
        let remaining = remote.remaining();
        if remaining.is_empty() {
            break;
        }
        let row = remote
            .try_select_next(&remaining)
            .expect("incremental selection");
        if smoke {
            let reference = remote
                .try_select_next_serialized(&remaining)
                .expect("serialized selection");
            assert_eq!(
                row, reference,
                "incremental selection must match the serialized scorer"
            );
        }
        remote.clean(row).expect("clean over rpc");
        remote_order.push(row);
    }
    let remote_run_s = t0.elapsed().as_secs_f64();

    assert_eq!(
        remote_order, local_run.order,
        "greedy cleaning order must match over RPC"
    );
    assert_eq!(remote.converged(), local_run.converged);
    if smoke {
        r.note("verified: incremental == serialized greedy pick at every step (smoke)");
    }
    assert_eq!(remote.status(), local.status(), "final status must match");
    remote.shutdown().expect("shutdown servers");

    // ---- durable mode: the same run against WAL-backed servers -----------
    // one data-dir subdirectory per server (instances must not share one —
    // their session ids would collide on session-<id>.wal filenames)
    let durable = data_dir.map(|root| {
        r.note(&format!(
            "durable mode: {n_shards} WAL-backed servers under {}",
            root.display()
        ));
        let mut servers = Vec::new();
        let mut wal_addrs = Vec::new();
        for s in 0..n_shards {
            let cfg = ServerConfig {
                data_dir: Some(root.join(format!("shard-{s}"))),
                ..ServerConfig::default()
            };
            let srv = spawn_server(cfg).expect("spawn durable server");
            wal_addrs.push(srv.addr().to_string());
            servers.push(srv);
        }
        let t0 = Instant::now();
        let mut durable_remote =
            RpcCoordinator::connect(&problem, &wal_addrs, &opts).expect("connect durable");
        let open_s = t0.elapsed().as_secs_f64();
        assert_eq!(durable_remote.status(), initial_status);
        let baseline = cp_obs::snapshot();
        let t0 = Instant::now();
        let mut order = Vec::new();
        while !durable_remote.converged() {
            let remaining = durable_remote.remaining();
            if remaining.is_empty() {
                break;
            }
            let row = durable_remote
                .try_select_next(&remaining)
                .expect("durable selection");
            durable_remote.clean(row).expect("clean over durable rpc");
            order.push(row);
        }
        let run_s = t0.elapsed().as_secs_f64();
        assert_eq!(order, local_run.order, "durable greedy order must match");
        assert_eq!(durable_remote.status(), local.status());
        let fsyncs = cp_obs::snapshot()
            .diff(&baseline)
            .histogram("store.wal.fsync_us")
            .count();
        assert!(
            fsyncs as usize >= order.len(),
            "every pin must hit the log (fsyncs={fsyncs}, pins={})",
            order.len()
        );
        durable_remote.shutdown().expect("shutdown durable servers");
        for srv in servers {
            srv.stop();
        }
        r.note(&format!(
            "verified: durable run bit-identical; {fsyncs} WAL appends fsync'd"
        ));
        (open_s, run_s, order.len())
    });

    r.note("verified: order, convergence and status identical to CleaningSession");
    println!();
    println!("| engine | open (s) | greedy run (s) | rows cleaned |");
    println!("|--------|---------:|---------------:|-------------:|");
    println!(
        "| CleaningSession (single process) | {local_open_s:.3} | {local_run_s:.3} | {} |",
        local_run.order.len()
    );
    println!(
        "| RpcCoordinator ({n_shards} servers, loopback TCP) | {remote_open_s:.3} | {remote_run_s:.3} | {} |",
        remote_order.len()
    );
    if let Some((open_s, run_s, cleaned)) = durable {
        println!(
            "| RpcCoordinator ({n_shards} WAL-backed servers, --data-dir) | {open_s:.3} | {run_s:.3} | {cleaned} |"
        );
    }
    println!();
    r.note("the RPC column pays serialization + loopback round trips for the same exact answers");
}
