//! Coordinator-over-TCP equivalence with the in-process engines, over real
//! loopback sockets.
//!
//! For shard counts `{1, 2, 3, 7}` and random small cleaning problems, an
//! [`RpcCoordinator`] driving [`spawn_server`] accept loops must give the
//! single-process [`CleaningSession`]'s answers:
//!
//! * identical CP status vectors (and the from-scratch [`val_cp_status`]
//!   oracle's), fresh and after every step of arbitrary random cleaning
//!   orders;
//! * identical greedy pin choices in lockstep, and identical full greedy
//!   `run_to_convergence` runs (order, convergence flag, every curve
//!   point);
//! * identical `run_order` results under random budgets;
//! * **exactly** equal Q2 counts in every wire semiring under random global
//!   pin masks, for every `Q2Algorithm` selector, against the same shards'
//!   streams captured in process and merged by
//!   [`q2_from_streams_with_algorithm`] — bit-for-bit, `f64` included (the
//!   servers capture with the same code, and the coordinator merges with
//!   the same loop in the same order).
//!
//! 7 shards exceed the row count of every generated instance, so the
//! partition clamp is exercised throughout; a unit case pins it down when
//! more servers are offered than the dataset has rows.

use cp_clean::{val_cp_status, CleaningProblem, CleaningSession, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins, Q2Algorithm, Q2Result};
use cp_numeric::Possibility;
use cp_rpc::{spawn_server, RpcCoordinator, RunningServer, ServerConfig};
use cp_shard::{build_shard_indexes, capture_streams, local_pins, q2_from_streams_with_algorithm};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

const MAX_SHARDS: usize = 7;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, MAX_SHARDS];

const ALL_ALGORITHMS: [Q2Algorithm; 5] = [
    Q2Algorithm::Auto,
    Q2Algorithm::BruteForce,
    Q2Algorithm::SortScan,
    Q2Algorithm::SortScanTree,
    Q2Algorithm::SortScanMultiClass,
];

/// Start `n` shard servers on ephemeral loopback ports. Drop every
/// coordinator before its servers: a server's drop joins its connections.
fn spawn_servers(n: usize) -> Vec<RunningServer> {
    (0..n)
        .map(|_| spawn_server(ServerConfig::default()).expect("bind loopback server"))
        .collect()
}

fn addrs(servers: &[RunningServer]) -> Vec<&str> {
    servers.iter().map(RunningServer::addr).collect()
}

/// A random small cleaning problem — the same family as the cp-shard
/// equivalence suite, sized so every tested shard count divides real rows.
fn arb_instance() -> impl Strategy<Value = (CleaningProblem, u64)> {
    (2usize..=3, 4usize..=6, 1usize..=3).prop_flat_map(|(n_labels, n, k)| {
        let example =
            (proptest::collection::vec(-9i32..9, 1..=3), 0..n_labels).prop_map(|(grid, label)| {
                let candidates: Vec<Vec<f64>> = grid.into_iter().map(|g| vec![g as f64]).collect();
                if candidates.len() == 1 {
                    IncompleteExample::complete(candidates.into_iter().next().unwrap(), label)
                } else {
                    IncompleteExample::incomplete(candidates, label)
                }
            });
        (
            proptest::collection::vec(example, n..=n),
            proptest::collection::vec(-9i32..9, 1..=2),
            Just(n_labels),
            Just(k),
            0u64..u64::MAX,
        )
            .prop_map(move |(examples, val, n_labels, k, seed)| {
                let dataset = IncompleteDataset::new(examples, n_labels).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
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
                let problem = CleaningProblem::new(
                    dataset,
                    CpConfig::new(k),
                    val.into_iter().map(|v| vec![v as f64]).collect(),
                    truth_choice,
                    default_choice,
                );
                (problem, seed)
            })
    })
}

fn random_pins(problem: &CleaningProblem, rng: &mut StdRng) -> Pins {
    let ds = &problem.dataset;
    let mut pins = Pins::none(ds.len());
    for i in 0..ds.len() {
        if ds.set_size(i) > 1 && rng.gen_bool(0.5) {
            pins.pin(i, rng.gen_range(0..ds.set_size(i)));
        }
    }
    pins
}

fn opts(n_threads: usize) -> RunOptions {
    RunOptions {
        max_cleaned: None,
        n_threads,
        record_every: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Status-vector equivalence along arbitrary cleaning trajectories, and
    /// greedy lockstep, over real sockets: the sharded coordinator answers
    /// exactly what the single-process session (and the from-scratch oracle)
    /// answers, for every shard count.
    #[test]
    fn tcp_coordinator_matches_sharded_session((problem, seed) in arb_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7c7);
        let mut order = problem.dirty_rows();
        order.shuffle(&mut rng);
        let servers = spawn_servers(MAX_SHARDS);
        let addrs = addrs(&servers);
        for n_shards in SHARD_COUNTS {
            // --- arbitrary-order cleaning: status stays identical ---
            let mut remote =
                RpcCoordinator::connect(&problem, &addrs[..n_shards], &opts(1)).expect("connect");
            let mut local = CleaningSession::new(&problem, &opts(1));
            prop_assert_eq!(remote.n_shards(), n_shards.min(problem.dataset.len()));
            prop_assert_eq!(remote.status(), local.status(), "fresh, n_shards={}", n_shards);
            for &row in &order {
                local.clean(row);
                remote.clean(row).expect("clean over rpc");
                prop_assert_eq!(
                    remote.status(),
                    local.status(),
                    "after row {}, n_shards={}",
                    row,
                    n_shards
                );
                prop_assert_eq!(
                    remote.status().to_vec(),
                    val_cp_status(&problem, remote.state().pins(), 1),
                    "oracle disagrees after row {}, n_shards={}",
                    row,
                    n_shards
                );
            }
            prop_assert!(remote.converged(), "single world left ⇒ converged");
            remote.shutdown().expect("shutdown");

            // --- greedy lockstep ---
            let mut remote =
                RpcCoordinator::connect(&problem, &addrs[..n_shards], &opts(1)).expect("connect");
            let mut local = CleaningSession::new(&problem, &opts(1));
            loop {
                let expect = local.step();
                let got = remote.step();
                prop_assert_eq!(got, expect, "greedy step diverged, n_shards={}", n_shards);
                if expect.is_none() {
                    break;
                }
            }
            prop_assert_eq!(remote.converged(), local.converged());
            prop_assert_eq!(remote.status(), local.status());
            remote.shutdown().expect("shutdown");
        }
    }

    /// The pipelined incremental selection (`try_select_next`: score cache,
    /// relevance substitution, entropy-bound pruning, pipelined scans over
    /// cached base streams) picks the identical row the from-scratch
    /// serialized scorer picks — at every step of a randomly perturbed
    /// trajectory, for every shard count, over real sockets.
    #[test]
    fn incremental_selection_matches_serialized_over_tcp((problem, seed) in arb_instance()) {
        let servers = spawn_servers(MAX_SHARDS);
        let addrs = addrs(&servers);
        for n_shards in SHARD_COUNTS {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1bb5);
            let mut remote =
                RpcCoordinator::connect(&problem, &addrs[..n_shards], &opts(1)).expect("connect");
            let mut step = 0usize;
            loop {
                let remaining = remote.remaining();
                if remaining.is_empty() {
                    break;
                }
                let serialized = remote
                    .try_select_next_serialized(&remaining)
                    .expect("serialized selection");
                let incremental = remote.try_select_next(&remaining).expect("incremental selection");
                prop_assert_eq!(
                    incremental, serialized,
                    "step {} diverged, n_shards={}", step, n_shards
                );
                // a warm-cache re-query of the unchanged step is identical
                prop_assert_eq!(
                    remote.try_select_next(&remaining).expect("warm re-query"),
                    serialized,
                    "warm re-query, step {}, n_shards={}", step, n_shards
                );
                // follow the greedy choice half the time, a random row otherwise
                let row = if rng.gen_bool(0.5) {
                    serialized
                } else {
                    remaining[rng.gen_range(0..remaining.len())]
                };
                remote.clean(row).expect("clean over rpc");
                step += 1;
            }
            remote.shutdown().expect("shutdown");
        }
    }

    /// Full greedy `run_to_convergence` and budgeted `run_order` through
    /// real sockets equal the single-process runs curve-point for
    /// curve-point, for every shard count.
    #[test]
    fn tcp_runs_match_sharded_runs((problem, seed) in arb_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2fd);
        let test_x: Vec<Vec<f64>> = problem.val_x().to_vec();
        let test_y = vec![0usize; test_x.len()];
        let mut order = problem.dirty_rows();
        order.shuffle(&mut rng);
        let budget = if order.is_empty() { None } else { Some(rng.gen_range(0..=order.len())) };
        let run_opts = RunOptions { max_cleaned: budget, ..opts(1) };
        let local_greedy = CleaningSession::new(&problem, &opts(1)).run_to_convergence(&test_x, &test_y);
        let local_ordered =
            CleaningSession::new(&problem, &run_opts).run_order(&order, &test_x, &test_y);
        let servers = spawn_servers(MAX_SHARDS);
        let addrs = addrs(&servers);
        for n_shards in SHARD_COUNTS {
            let mut remote =
                RpcCoordinator::connect(&problem, &addrs[..n_shards], &opts(1)).expect("connect");
            let remote_run = remote.run_to_convergence(&test_x, &test_y);
            prop_assert_eq!(&remote_run.order, &local_greedy.order, "n_shards={}", n_shards);
            prop_assert_eq!(remote_run.converged, local_greedy.converged);
            prop_assert_eq!(&remote_run.curve, &local_greedy.curve, "n_shards={}", n_shards);
            remote.shutdown().expect("shutdown");

            let mut remote =
                RpcCoordinator::connect(&problem, &addrs[..n_shards], &run_opts).expect("connect");
            let remote_run = remote.run_order(&order, &test_x, &test_y);
            prop_assert_eq!(&remote_run.order, &local_ordered.order, "n_shards={}", n_shards);
            prop_assert_eq!(remote_run.converged, local_ordered.converged);
            prop_assert_eq!(&remote_run.curve, &local_ordered.curve);
            remote.shutdown().expect("shutdown");
        }
    }

    /// Q2 counts fetched over TCP equal the in-process merged scan in every
    /// wire semiring, for every algorithm selector, under random global pin
    /// masks — exactly (`u128` and `f64` alike).
    #[test]
    fn tcp_q2_counts_match_in_every_semiring((problem, seed) in arb_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x41c3);
        let ds = &problem.dataset;
        let cfg = &problem.config;
        let servers = spawn_servers(MAX_SHARDS);
        let addrs = addrs(&servers);
        for n_shards in SHARD_COUNTS {
            let remote =
                RpcCoordinator::connect(&problem, &addrs[..n_shards], &opts(1)).expect("connect");
            let shards = ds.partition(n_shards);
            // the coordinator's certain-label dispatch (rank-merged extreme
            // summaries on binary problems, Possibility streams otherwise)
            // must agree with the full Possibility stream scan at every
            // validation point
            for v in 0..problem.val_x.len() {
                let dispatched = remote.certain_label_at(v).expect("certain label over rpc");
                let streamed: Q2Result<Possibility> =
                    remote.q2_at(v, Q2Algorithm::Auto).expect("possibility streams");
                prop_assert_eq!(
                    dispatched,
                    streamed.certain_label(),
                    "certain-label dispatch vs stream scan, val {} |Y|={} n_shards={}",
                    v,
                    ds.n_labels(),
                    n_shards
                );
            }
            for round in 0..2 {
                let pins = if round == 0 {
                    Pins::none(ds.len())
                } else {
                    random_pins(&problem, &mut rng)
                };
                let shard_pins = local_pins(&shards, &pins);
                for (v, t) in problem.val_x.iter().enumerate() {
                    let indexes = build_shard_indexes(&shards, cfg.kernel, t);
                    let captured = capture_streams::<u128, _, _>(&shards, &indexes, &shard_pins, cfg);
                    for algo in ALL_ALGORITHMS {
                        let want = q2_from_streams_with_algorithm(&captured, algo);
                        let over_tcp: Q2Result<u128> =
                            remote.q2_with_pins(v, &pins, algo).expect("q2 over rpc");
                        prop_assert_eq!(
                            &over_tcp.counts, &want.counts,
                            "u128 val {} algo {:?} n_shards={}", v, algo, n_shards
                        );
                        prop_assert_eq!(over_tcp.total, want.total);
                    }
                    let want_f: Q2Result<f64> = q2_from_streams_with_algorithm(
                        &capture_streams(&shards, &indexes, &shard_pins, cfg),
                        Q2Algorithm::Auto,
                    );
                    let tcp_f: Q2Result<f64> =
                        remote.q2_with_pins(v, &pins, Q2Algorithm::Auto).expect("q2 f64");
                    prop_assert_eq!(&tcp_f.counts, &want_f.counts, "f64 exact, val {}", v);
                    prop_assert_eq!(tcp_f.total, want_f.total);
                    let want_p: Q2Result<Possibility> = q2_from_streams_with_algorithm(
                        &capture_streams(&shards, &indexes, &shard_pins, cfg),
                        Q2Algorithm::Auto,
                    );
                    let tcp_p: Q2Result<Possibility> =
                        remote.q2_with_pins(v, &pins, Q2Algorithm::Auto).expect("q2 possibility");
                    prop_assert_eq!(&tcp_p.counts, &want_p.counts, "possibility, val {}", v);
                }
            }
            remote.shutdown().expect("shutdown");
        }
    }
}

/// Offering more servers than the dataset has rows clamps the partition —
/// exactly like `IncompleteDataset::partition` — and leaves the surplus
/// servers untouched.
#[test]
fn more_servers_than_rows_clamps_the_partition() {
    let dataset = IncompleteDataset::new(
        vec![
            IncompleteExample::complete(vec![0.0], 0),
            IncompleteExample::incomplete(vec![vec![4.8], vec![7.0]], 0),
            IncompleteExample::complete(vec![5.5], 1),
        ],
        2,
    )
    .unwrap();
    let problem = CleaningProblem::new(
        dataset,
        CpConfig::new(1),
        vec![vec![5.0], vec![0.1]],
        vec![None, Some(0), None],
        vec![None, Some(1), None],
    );
    let servers = spawn_servers(5);
    let mut remote =
        RpcCoordinator::connect(&problem, &addrs(&servers), &opts(1)).expect("connect");
    assert_eq!(remote.n_shards(), 3, "arity clamps to the row count");
    let local = CleaningSession::new(&problem, &opts(1));
    assert_eq!(remote.status(), local.status());
    let row = remote.step().expect("one greedy step");
    assert_eq!(row, 1);
    assert!(remote.converged());
    remote.shutdown().expect("shutdown");
}
