//! A `u128` query whose world count reaches `2^128` is refused with a typed
//! error — by the server per shard and by the coordinator globally — and
//! never panics a server thread or hangs the client: the same connection
//! then serves an `f64` scan.
//!
//! The instance is 80 dirty rows × 4 candidates, `4^80 = 2^160` worlds.

use cp_clean::{CleaningProblem, RunOptions};
use cp_core::queries::Q2Algorithm;
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins};
use cp_numeric::BigUint;
use cp_rpc::{
    spawn_server, ClientConfig, OpenShard, RpcCoordinator, RpcError, ServerConfig, ShardClient,
};
use std::time::Duration;

const ROWS: usize = 80;

fn wide_problem() -> CleaningProblem {
    let examples = (0..ROWS)
        .map(|i| {
            let candidates = (0..4)
                .map(|c| vec![(i * 4 + c) as f64 * 0.37 % 11.0])
                .collect();
            IncompleteExample::incomplete(candidates, i % 2)
        })
        .collect();
    let dataset = IncompleteDataset::new(examples, 2).unwrap();
    CleaningProblem::new(
        dataset,
        CpConfig::new(3),
        vec![vec![2.0], vec![7.5]],
        vec![Some(0); ROWS],
        vec![Some(1); ROWS],
    )
}

fn open_whole(problem: &CleaningProblem) -> OpenShard {
    let ds = &problem.dataset;
    let as_u32 = |choices: &[Option<usize>]| -> Vec<Option<u32>> {
        choices.iter().map(|c| c.map(|j| j as u32)).collect()
    };
    OpenShard {
        start: 0,
        n_labels: ds.n_labels(),
        k: problem.config.k,
        kernel: problem.config.kernel,
        n_threads: 1,
        examples: (0..ds.len())
            .map(|i| (ds.example(i).label, ds.example(i).candidates.clone()))
            .collect(),
        val_x: problem.val_x.as_ref().clone(),
        truth_choice: as_u32(&problem.truth_choice),
        default_choice: as_u32(&problem.default_choice),
    }
}

/// A regression must fail the test, not hang it.
fn bounded() -> ClientConfig {
    ClientConfig {
        read_timeout: Some(Duration::from_secs(60)),
        ..ClientConfig::default()
    }
}

/// Pins on the first `n` rows.
fn pinned(n: usize) -> Pins {
    let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, 0)).collect();
    Pins::from_pairs(ROWS, &pairs)
}

#[test]
fn oversized_u128_scan_is_a_typed_error_and_the_connection_lives_on() {
    let problem = wide_problem();
    let k = problem.config.k;
    let server = spawn_server(ServerConfig::default()).unwrap();
    let mut client = ShardClient::connect_with(server.addr(), &bounded()).unwrap();
    client.open(open_whole(&problem)).unwrap();

    match client.scan::<u128>(0, k, None) {
        Err(RpcError::Remote(msg)) => {
            assert!(msg.contains("BigUint") && msg.contains("f64"), "{msg}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // the same connection keeps serving
    let stream = client.scan::<f64>(0, k, None).unwrap();
    assert_eq!(stream.total, 1.0);
    assert!(!stream.events.is_empty());
    // the check is exact: 60 free rows leave 4^60 = 2^120 worlds
    let stream = client.scan::<u128>(0, k, Some(&pinned(20))).unwrap();
    assert_eq!(stream.total, 1 << 120);
    client.close().unwrap();
}

#[test]
fn coordinator_refuses_oversized_u128_before_fetching() {
    let problem = wide_problem();
    let servers: Vec<_> = (0..2)
        .map(|_| spawn_server(ServerConfig::default()).unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let opts = RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    };
    let coord = RpcCoordinator::connect_with(&problem, &addrs, &opts, &bounded()).unwrap();

    // each shard alone (40 rows, 2^80 worlds) fits, the product does not
    match coord.q2_at::<u128>(0, Q2Algorithm::Auto) {
        Err(RpcError::Protocol(msg)) => assert!(msg.contains("BigUint"), "{msg}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    match coord.q2_with_pins::<u128>(0, &Pins::none(ROWS), Q2Algorithm::Auto) {
        Err(RpcError::Protocol(msg)) => assert!(msg.contains("BigUint"), "{msg}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    let p = coord.q2_at::<f64>(0, Q2Algorithm::Auto).unwrap();
    assert!((p.counts.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    // under enough pins the exact counts fit and match BigUint in process
    let pins = pinned(20);
    let remote = coord
        .q2_with_pins::<u128>(0, &pins, Q2Algorithm::Auto)
        .unwrap();
    let idx =
        cp_core::SimilarityIndex::build(&problem.dataset, problem.config.kernel, &problem.val_x[0]);
    let exact = cp_core::ss_tree::q2_sortscan_tree_with_index::<BigUint>(
        &problem.dataset,
        &problem.config,
        &idx,
        &pins,
    );
    let exact: Vec<Option<u128>> = exact.counts.iter().map(BigUint::to_u128).collect();
    let remote: Vec<Option<u128>> = remote.counts.into_iter().map(Some).collect();
    assert_eq!(remote, exact);
    coord.shutdown().unwrap();
}
