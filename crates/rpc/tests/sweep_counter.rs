//! Scan accounting of the sharded greedy step: one swept scan per missed
//! (validation point, row) pair.
//!
//! A greedy step over `RpcCoordinator` scores each cache-missed row from
//! one swept scan of the row's owner, merged once against the other
//! shards' cached base streams, and refetches a base stream only from a
//! shard whose mask moved. So the servers' per-session `scans` counters
//! sum to the coordinator's `clean.selection.cache_misses` plus its
//! `rpc.coordinator.base_fetches` — at every step. A selection that fell
//! back to one pinned scan per candidate would add `M - 1` scans per miss.
//!
//! Binary labels keep every status check on extreme summaries, which are
//! not scans. This lives in its own
//! integration-test binary with a single `#[test]` because the registry
//! counters it reads are process-wide.

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use cp_rpc::{spawn_server, RpcCoordinator, RunningServer, ServerConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Candidates per dirty row.
const M: usize = 3;

/// Two 1-D label clusters plus dirty rows of `M` candidates straddling the
/// decision boundary, K = 3.
fn synthetic_problem(seed: u64, n_clean: usize, n_dirty: usize, n_val: usize) -> CleaningProblem {
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
        let candidates = (0..M).map(|_| vec![rng.gen_range(0.0..10.0)]).collect();
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
    CleaningProblem {
        dataset,
        config: CpConfig::new(3),
        val_x: std::sync::Arc::new((0..n_val).map(|_| vec![rng.gen_range(0.0..10.0)]).collect()),
        truth_choice,
        default_choice,
    }
}

/// Registry counters a greedy step moves.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Work {
    server_scans: u64,
    misses: u64,
    base_fetches: u64,
}

fn read() -> Work {
    let snap = cp_obs::snapshot();
    let server_scans = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("rpc.server.s") && name.ends_with(".scans"))
        .map(|(_, v)| v)
        .sum();
    Work {
        server_scans,
        misses: snap.counter("clean.selection.cache_misses"),
        base_fetches: snap.counter("rpc.coordinator.base_fetches"),
    }
}

#[test]
fn a_sharded_greedy_step_makes_one_owner_scan_per_missed_row() {
    let problem = synthetic_problem(42, 16, 10, 8);
    let opts = RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    };
    let servers: Vec<RunningServer> = (0..2)
        .map(|_| spawn_server(ServerConfig::default()).expect("bind loopback server"))
        .collect();
    let addrs: Vec<&str> = servers.iter().map(RunningServer::addr).collect();
    let mut coord = RpcCoordinator::connect(&problem, &addrs, &opts).expect("connect");
    let mut reference = CleaningSession::new(&problem, &opts);
    assert!(!coord.converged(), "workload must need cleaning");

    let (mut steps, mut misses) = (0, 0);
    let mut last = read();
    while !coord.converged() {
        let pick = coord.step().expect("a step while unconverged");
        let now = read();
        let step = Work {
            server_scans: now.server_scans - last.server_scans,
            misses: now.misses - last.misses,
            base_fetches: now.base_fetches - last.base_fetches,
        };
        assert_eq!(
            step.server_scans,
            step.misses + step.base_fetches,
            "step {steps}: {step:?}"
        );
        if steps == 0 {
            assert!(step.misses > 0, "a cold step must sweep rows: {step:?}");
        }
        misses += step.misses;
        // the in-process reference moves the selection counters too, so it
        // steps outside the measured window
        assert_eq!(Some(pick), reference.step(), "step {steps}: same pick");
        last = read();
        steps += 1;
    }
    assert!(steps >= 2, "workload must be multi-step (took {steps})");
    assert!(misses > 0);
    coord.shutdown().expect("shutdown");
}
