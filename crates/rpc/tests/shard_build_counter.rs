//! Index-build accounting for the sharded engine — the sharded extension of
//! `cp-clean`'s `build_counter` test.
//!
//! Connecting an `RpcCoordinator` gives every shard server's session its own
//! partition-local `ValIndexCache`: each of the `n_shards` servers builds one
//! `SimilarityIndex` per validation point over *its* sub-dataset, and no
//! further builds may happen for the rest of the run — every scan (status
//! refreshes and the greedy selection's pinned evaluations) reuses the
//! cached per-shard indexes.
//!
//! Lives in its own integration-test binary with a single `#[test]` because
//! `cp_core::similarity::build_count` is a process-wide counter, which the
//! in-process loopback servers share with the test.

use cp_clean::{CleaningProblem, RunOptions};
use cp_core::similarity::build_count;
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use cp_rpc::{spawn_server, RpcCoordinator, RunningServer, ServerConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Same synthetic family as the cp-clean build-counter test: two 1-D label
/// clusters plus dirty rows straddling the boundary, so runs take several
/// iterations.
fn synthetic_problem(
    seed: u64,
    n_clean: usize,
    n_dirty: usize,
    n_val: usize,
) -> (CleaningProblem, Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut examples = Vec::new();
    for i in 0..n_clean {
        let label = i % 2;
        let center = if label == 0 { 0.0 } else { 10.0 };
        examples.push(IncompleteExample::complete(
            vec![center + rng.gen_range(-1.5..1.5)],
            label,
        ));
    }
    for _ in 0..n_dirty {
        let label = rng.gen_range(0usize..2);
        let candidates = vec![
            vec![rng.gen_range(0.0..10.0)],
            vec![rng.gen_range(0.0..10.0)],
        ];
        examples.push(IncompleteExample::incomplete(candidates, label));
    }
    let n = examples.len();
    let dataset = IncompleteDataset::new(examples, 2).unwrap();
    let mut truth_choice = vec![None; n];
    let mut default_choice = vec![None; n];
    for i in n_clean..n {
        truth_choice[i] = Some(0);
        default_choice[i] = Some(1);
    }
    let problem = CleaningProblem {
        dataset,
        config: CpConfig::new(3),
        val_x: std::sync::Arc::new((0..n_val).map(|_| vec![rng.gen_range(0.0..10.0)]).collect()),
        truth_choice,
        default_choice,
    };
    let test_x: Vec<Vec<f64>> = (0..n_val).map(|_| vec![rng.gen_range(0.0..10.0)]).collect();
    let test_y: Vec<usize> = (0..n_val).map(|_| rng.gen_range(0usize..2)).collect();
    (problem, test_x, test_y)
}

#[test]
fn each_shard_builds_its_partition_local_indexes_exactly_once_per_run() {
    let (problem, test_x, test_y) = synthetic_problem(42, 16, 10, 8);
    let opts = RunOptions {
        max_cleaned: None,
        n_threads: 2,
        record_every: 1,
    };

    for n_shards in [1usize, 2, 4] {
        // fresh servers: a server shares one index build among identical
        // opens, so the count must not depend on earlier iterations
        let servers: Vec<RunningServer> = (0..n_shards)
            .map(|_| spawn_server(ServerConfig::default()).expect("spawn server"))
            .collect();
        let addrs: Vec<&str> = servers.iter().map(RunningServer::addr).collect();
        // connecting: one partition-local index per shard per validation
        // point, built by each shard's server
        let before = build_count();
        let mut session = RpcCoordinator::connect(&problem, &addrs, &opts).expect("connect");
        let construction_builds = build_count() - before;
        assert_eq!(
            construction_builds,
            (session.n_shards() * problem.val_x.len()) as u64,
            "connecting a {n_shards}-shard coordinator must build exactly \
             n_shards × |val| partition-local indexes"
        );

        // the entire greedy run — selection scans, pinned entropy
        // evaluations, status refreshes — reuses the cached shard indexes
        let before = build_count();
        let run = session.run_to_convergence(&test_x, &test_y);
        let run_builds = build_count() - before;
        assert!(
            run.n_cleaned() >= 2,
            "workload must be multi-iteration (cleaned {})",
            run.n_cleaned()
        );
        assert!(run.converged);
        assert_eq!(
            run_builds,
            0,
            "a {n_shards}-shard run must never rebuild a similarity index \
             ({} iterations reused the cached ones)",
            run.n_cleaned()
        );
        session.shutdown().expect("shutdown");
    }
}
