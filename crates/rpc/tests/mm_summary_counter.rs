//! Dispatch accounting for the binary-Q1 extreme-summary fast path.
//!
//! A status sweep of a **binary** sharded run must never touch the
//! polynomial machinery: the summary path builds extreme-world top-K lists
//! on the shard servers and merges them by rank at the coordinator, so
//! `cp_core::poly::tree_build_count` — the tally-tree twin of the
//! similarity-index build counter — must not move across connecting and a
//! whole fixed-order status-update run. A 3-label problem is the control:
//! its status checks take the merged `Possibility` scan, which *does* build
//! trees, proving the counter (and the dispatch) actually discriminate.
//!
//! Lives in its own integration-test binary with a single `#[test]`
//! because the counter is process-wide, which the in-process loopback
//! servers share with the test.

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::poly::tree_build_count;
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use cp_rpc::{spawn_server, RpcCoordinator, RunningServer, ServerConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Synthetic problem with `n_labels` classes: label clusters on a line plus
/// dirty rows straddling the boundaries, so status updates stay non-trivial
/// for several cleaning steps.
fn synthetic_problem(
    seed: u64,
    n_labels: usize,
    n_clean: usize,
    n_dirty: usize,
) -> CleaningProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut examples = Vec::new();
    for i in 0..n_clean {
        let label = i % n_labels;
        let center = 10.0 * label as f64;
        examples.push(IncompleteExample::complete(
            vec![center + rng.gen_range(-1.5..1.5)],
            label,
        ));
    }
    let span = 10.0 * (n_labels - 1) as f64;
    for _ in 0..n_dirty {
        let label = rng.gen_range(0..n_labels);
        let candidates = vec![
            vec![rng.gen_range(0.0..span.max(1.0))],
            vec![rng.gen_range(0.0..span.max(1.0))],
        ];
        examples.push(IncompleteExample::incomplete(candidates, label));
    }
    let n = examples.len();
    let dataset = IncompleteDataset::new(examples, n_labels).unwrap();
    let mut truth_choice = vec![None; n];
    let mut default_choice = vec![None; n];
    for i in n_clean..n {
        truth_choice[i] = Some(0);
        default_choice[i] = Some(1);
    }
    CleaningProblem {
        dataset,
        config: CpConfig::new(3),
        val_x: std::sync::Arc::new(
            (0..6)
                .map(|_| vec![rng.gen_range(0.0..span.max(1.0))])
                .collect(),
        ),
        truth_choice,
        default_choice,
    }
}

#[test]
fn binary_status_sweeps_build_zero_tally_trees() {
    let problem = synthetic_problem(42, 2, 14, 8);
    let order = problem.dirty_rows();
    let opts = RunOptions {
        max_cleaned: None,
        n_threads: 2,
        record_every: 1,
    };

    let servers: Vec<RunningServer> = (0..4)
        .map(|_| spawn_server(ServerConfig::default()).expect("spawn server"))
        .collect();
    let addrs: Vec<&str> = servers.iter().map(RunningServer::addr).collect();

    for n_shards in [1usize, 2, 4] {
        // a single-process twin cleaned in lockstep keeps the fast path
        // honest: skipping the trees must not change a single status bit
        let mut single = CleaningSession::new(&problem, &opts);

        let before = tree_build_count();
        let mut session =
            RpcCoordinator::connect(&problem, &addrs[..n_shards], &opts).expect("connect");
        assert_eq!(session.status(), single.status(), "fresh status");
        for &row in &order {
            session.clean(row).expect("clean over rpc");
            single.clean(row);
            assert_eq!(session.status(), single.status(), "after row {row}");
        }
        session.shutdown().expect("shutdown");
        let built = tree_build_count() - before;
        assert_eq!(
            built, 0,
            "a binary {n_shards}-shard status sweep must dispatch to the \
             extreme-summary path and build zero tally trees"
        );
    }

    // dispatch control: with |Y| = 3 the same sweep must take the merged
    // Possibility scan, which builds one tree per label per shard scan
    let multiclass = synthetic_problem(43, 3, 15, 6);
    let before = tree_build_count();
    let mut session = RpcCoordinator::connect(&multiclass, &addrs[..2], &opts).expect("connect");
    if let Some(&row) = multiclass.dirty_rows().first() {
        session.clean(row).expect("clean over rpc");
    }
    session.shutdown().expect("shutdown");
    assert!(
        tree_build_count() - before > 0,
        "a 3-label status sweep must still run the tree-backed merged scan"
    );
}
