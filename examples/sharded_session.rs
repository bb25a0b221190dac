//! Sharded cleaning: one dataset, many partition-local workers.
//!
//! Partitions an incomplete training set into row-range shards, serves each
//! shard from its own shard server on a loopback port (`spawn_server`), and
//! drives them with an `RpcCoordinator`. Every global answer — CP status,
//! greedy selection, the whole cleaning trajectory — is identical to the
//! single-process engine's for every shard count, while each shard only
//! ever scans its own candidate sets. Run:
//!
//! ```text
//! cargo run --release --example sharded_session
//! ```

use cpclean::clean::{CleaningProblem, CleaningSession, RunOptions};
use cpclean::core::{CpConfig, IncompleteDataset, IncompleteExample, Pins};
use cpclean::rpc::{spawn_server, RpcCoordinator, RunningServer, ServerConfig};
use cpclean::shard::{build_shard_indexes, capture_streams, local_pins, q2_from_streams};

/// A small two-cluster problem with dirty rows straddling the boundary.
fn example_problem() -> CleaningProblem {
    let mut examples = Vec::new();
    let mut truth_choice = Vec::new();
    let mut default_choice = Vec::new();
    for i in 0..12 {
        let label = i % 2;
        let center = if label == 0 { 0.0 } else { 10.0 };
        examples.push(IncompleteExample::complete(
            vec![center + (i as f64) * 0.1],
            label,
        ));
        truth_choice.push(None);
        default_choice.push(None);
    }
    for i in 0..6 {
        let label = i % 2;
        let a = 2.0 + i as f64;
        let b = 8.0 - i as f64;
        examples.push(IncompleteExample::incomplete(vec![vec![a], vec![b]], label));
        truth_choice.push(Some(0));
        default_choice.push(Some(1));
    }
    let dataset = IncompleteDataset::new(examples, 2).expect("valid dataset");
    CleaningProblem {
        dataset,
        config: CpConfig::new(3),
        val_x: std::sync::Arc::new((0..8).map(|v| vec![1.2 * v as f64]).collect()),
        truth_choice,
        default_choice,
    }
}

fn main() {
    let problem = example_problem();
    let opts = RunOptions::default();
    let n = problem.dataset.len();
    println!(
        "problem: {} rows ({} dirty), {} validation points, 10^{:.1} possible worlds\n",
        n,
        problem.dirty_rows().len(),
        problem.val_x.len(),
        problem.dataset.world_count_log10(),
    );

    // a single Q2 query, partition-parallel: each shard captures its scan
    // as one stream of boundary events and factor summaries, and the
    // coordinator merges the streams — exact counts, any shard count
    let t = vec![5.0];
    let single = cpclean::core::q2::<u128>(&problem.dataset, &problem.config, &t);
    println!("Q2 at t = {t:?} (worlds per label):");
    for n_shards in [1usize, 2, 4] {
        let shards = problem.dataset.partition(n_shards);
        let indexes = build_shard_indexes(&shards, problem.config.kernel, &t);
        let pins = local_pins(&shards, &Pins::none(n));
        let streams = capture_streams(&shards, &indexes, &pins, &problem.config);
        let sharded = q2_from_streams::<u128, _>(&streams);
        println!(
            "  {n_shards} shard(s): {:?} / {}  (single-process: {:?})",
            sharded.counts, sharded.total, single.counts
        );
        assert_eq!(sharded.counts, single.counts, "factor merge must be exact");
    }

    // the sharded cleaning engine: one shard server per partition (here in
    // this process, on loopback ports), same surface, same trajectory
    let test_x: Vec<Vec<f64>> = (0..8).map(|v| vec![0.9 + 1.1 * v as f64]).collect();
    let test_y: Vec<usize> = (0..8).map(|v| usize::from(v >= 4)).collect();
    let single_run = CleaningSession::new(&problem, &opts).run_to_convergence(&test_x, &test_y);
    println!(
        "\ngreedy CPClean, single process: cleaned {:?}",
        single_run.order
    );
    for n_shards in [2usize, 4] {
        let servers: Vec<RunningServer> = (0..n_shards)
            .map(|_| spawn_server(ServerConfig::default()).expect("bind loopback server"))
            .collect();
        let addrs: Vec<&str> = servers.iter().map(RunningServer::addr).collect();
        let mut session =
            RpcCoordinator::connect(&problem, &addrs, &opts).expect("connect coordinator");
        println!(
            "{} shards (rows per shard: {:?}), {}/{} certain before cleaning",
            session.n_shards(),
            session.shards().iter().map(|s| s.len()).collect::<Vec<_>>(),
            session.n_certain(),
            session.status().len(),
        );
        let run = session.run_to_convergence(&test_x, &test_y);
        println!(
            "  cleaned {:?} -> converged={} (identical to single: {})",
            run.order,
            run.converged,
            run.order == single_run.order,
        );
        assert_eq!(
            run.order, single_run.order,
            "sharding must not change cleaning"
        );
        // close the sessions before the servers stop
        session.shutdown().expect("shutdown");
    }
    println!("\nevery shard only ever scanned its own partition; only per-label");
    println!("polynomial factors and CP status bits crossed shard boundaries");
}
