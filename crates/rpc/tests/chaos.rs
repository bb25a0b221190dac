//! Chaos property tests: full cleaning runs driven through seeded fault
//! schedules must produce **bit-identical** results to fault-free runs.
//!
//! The fault layer ([`cp_rpc::FaultPlan`]) misbehaves at frame granularity
//! on the coordinator's outgoing frames: requests are dropped (the read
//! timeout finds out), delayed, bit-flipped (the frame CRC finds out),
//! truncated, duplicated (the request-id pairing skips the echo), connections
//! killed mid-frame, and dials refused. The recovery layer — unified
//! retry policy, circuit breaker, reconnect, journal-replay failover —
//! must absorb *all* of it: the greedy pick sequence, every intermediate
//! status vector and the convergence flag equal the single-process
//! session's exactly, the Q2 counts equal the live merged scan's, and the
//! coordinator's own failover / replayed-pin ledger stays consistent.
//! Every request travels in a `Deadline` envelope, and every profile's
//! schedule must actually fire: a schedule that injects nothing proves
//! nothing.
//!
//! The scripted (non-proptest) test kills a WAL-less server mid-run and
//! restarts it fresh on the same port: the retransmitted `Step` answers
//! `unknown session`, which only a journal replay can cure — the
//! "restart without its WAL" failover class, with an *exact* replayed-pin
//! count assertion.

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins, Q2Algorithm, Q2Result};
use cp_rpc::proto::{decode_request, encode_response};
use cp_rpc::{
    read_frame_opt_tagged, spawn_server, spawn_server_on, write_frame_tagged, ClientConfig,
    FaultPlan, Request, RpcCoordinator, RunningServer, ServerConfig, ShardServer,
};
use cp_shard::{build_shard_indexes, capture_streams, local_pins, q2_from_streams_with_algorithm};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::net::TcpListener;
use std::sync::mpsc::channel;
use std::time::Duration;

/// Six rows (four dirty), three validation points, k=3, binary labels —
/// small enough for seconds-long chaos runs, rich enough that every
/// request type (scans, extreme summaries, steps, status syncs) flows.
fn chaos_problem() -> CleaningProblem {
    let dataset = IncompleteDataset::new(
        vec![
            IncompleteExample::complete(vec![0.0], 0),
            IncompleteExample::incomplete(vec![vec![4.0], vec![7.0]], 0),
            IncompleteExample::complete(vec![10.0], 1),
            IncompleteExample::incomplete(vec![vec![3.0], vec![6.0]], 1),
            IncompleteExample::incomplete(vec![vec![1.0], vec![2.5]], 0),
            IncompleteExample::incomplete(vec![vec![8.0], vec![9.5]], 1),
        ],
        2,
    )
    .unwrap();
    CleaningProblem::new(
        dataset,
        CpConfig::new(3),
        vec![vec![5.0], vec![2.0], vec![8.0]],
        vec![None, Some(0), None, Some(1), Some(0), Some(1)],
        vec![None, Some(1), None, Some(0), Some(1), Some(0)],
    )
}

fn opts() -> RunOptions {
    RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    }
}

/// A retry/timeout config sized for chaos: short read timeouts turn
/// dropped frames into quick typed failures, a deep jittered retry budget
/// outlasts any burst the fault budget can inject, and every request
/// travels in a generous `Deadline` envelope, so the envelope path runs
/// end to end under faults.
fn chaos_client_cfg(plan: FaultPlan) -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(80)),
        write_timeout: Some(Duration::from_millis(500)),
        connect_retries: 16,
        retry_backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        retry_jitter_seed: 0x5eed,
        // a short cooldown keeps the half-open probe inside the retry
        // budget even if a fault burst opens a breaker
        breaker_cooldown: Duration::from_millis(25),
        request_deadline: Some(Duration::from_secs(2)),
        chaos: Some(plan),
        ..ClientConfig::default()
    }
}

type Profile = (&'static str, fn(u64) -> FaultPlan);

const PROFILES: [Profile; 4] = [
    ("mixed", FaultPlan::mixed),
    ("drop_heavy", FaultPlan::drop_heavy),
    ("delay_heavy", FaultPlan::delay_heavy),
    ("corrupt_heavy", FaultPlan::corrupt_heavy),
];

/// Every fault injected in this process so far. Only the property below
/// arms fault plans in this binary, so a difference of two readings is
/// exactly what its schedule injected in between.
fn faults_injected() -> u64 {
    cp_obs::snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("rpc.fault."))
        .map(|(_, &v)| v)
        .sum()
}

/// The fault-free oracle: the single-process session's greedy picks, the
/// status vector before and after every pick, and then a sweep of every
/// dirty row the greedy run left (more traffic, more chances to
/// misbehave) with the status after each.
struct Oracle {
    picks: Vec<usize>,
    statuses: Vec<Vec<bool>>,
    converged: bool,
    sweep: Vec<(usize, Vec<bool>)>,
}

/// A two-shard greedy cleaning run under `plan` (bounded by a fault
/// budget, so the tail is clean and the run converges): the identical
/// rows, the identical status vector after every pick and sweep step,
/// identical convergence and identical Q2 counts, while the coordinator's failover
/// and replayed-pin tallies stay mutually consistent. Returns the faults
/// the schedule injected.
fn chaotic_run(
    problem: &CleaningProblem,
    oracle: &Oracle,
    plan: FaultPlan,
) -> Result<u64, TestCaseError> {
    let n_shards = 2;
    let plan = plan.with_budget(10).with_delay(Duration::from_millis(1));
    plan.pause(); // connect clean: the journal must exist before faults do
    let servers: Vec<_> = (0..n_shards)
        .map(|_| spawn_server(ServerConfig::default()).expect("spawn server"))
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let cfg = chaos_client_cfg(plan.clone());
    let mut remote = RpcCoordinator::connect_with(problem, &addrs, &opts(), &cfg).expect("connect");
    prop_assert_eq!(remote.status(), &oracle.statuses[0][..], "fresh status");

    let before = faults_injected();
    plan.resume();
    let mut picks = Vec::new();
    while let Some(row) = remote.step() {
        picks.push(row);
        prop_assert_eq!(
            remote.status(),
            &oracle.statuses[picks.len()][..],
            "status diverged after pick {}",
            picks.len()
        );
    }
    prop_assert_eq!(&picks, &oracle.picks, "greedy pick sequence diverged");
    prop_assert_eq!(remote.converged(), oracle.converged);
    for (row, status) in &oracle.sweep {
        remote.clean(*row).expect("sweep clean under chaos");
        prop_assert_eq!(
            remote.status(),
            &status[..],
            "status diverged at row {}",
            row
        );
    }

    // Q2 counts stay exact through whatever budget remains armed
    let shards = problem.dataset.partition(n_shards);
    let pins = Pins::none(problem.dataset.len());
    let shard_pins = local_pins(&shards, &pins);
    for (v, t) in problem.val_x.iter().enumerate() {
        let indexes = build_shard_indexes(&shards, problem.config.kernel, t);
        let truth: Q2Result<u128> = q2_from_streams_with_algorithm(
            &capture_streams(&shards, &indexes, &shard_pins, &problem.config),
            Q2Algorithm::Auto,
        );
        let got: Q2Result<u128> = remote
            .q2_with_pins(v, &pins, Q2Algorithm::Auto)
            .expect("q2 under chaos");
        prop_assert_eq!(
            &got.counts,
            &truth.counts,
            "q2 counts diverged at val {}",
            v
        );
        prop_assert_eq!(got.total, truth.total);
    }
    plan.pause(); // teardown clean
    let injected = faults_injected() - before;

    // the recovery ledger is self-consistent: pins replay only through
    // failovers, at most one journal's worth per failover
    let failovers = remote.failover_count();
    let replayed = remote.pins_replayed_count();
    if failovers == 0 {
        prop_assert_eq!(replayed, 0, "pins cannot replay without a failover");
    }
    prop_assert!(
        replayed <= failovers * (oracle.picks.len() + oracle.sweep.len()) as u64,
        "{replayed} pins replayed across {failovers} failovers"
    );

    remote.shutdown().expect("shutdown");
    for s in servers {
        s.stop();
    }
    Ok(injected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// For every fault profile and seed, a chaotic greedy run is
    /// bit-identical to the fault-free one ([`chaotic_run`]). The
    /// coordinator is frame-frugal, so a per-mille schedule can roll
    /// through a whole run without firing: each profile walks derived
    /// sub-seeds, deterministically, until its schedule injures the run —
    /// at most 8 — and every attempt is held bit-identical either way.
    #[test]
    fn chaotic_greedy_runs_are_bit_identical_to_fault_free(seed in 0u64..u64::MAX) {
        let problem = chaos_problem();
        let mut local = CleaningSession::new(&problem, &opts());
        let mut oracle = Oracle {
            picks: Vec::new(),
            statuses: vec![local.status().to_vec()],
            converged: false,
            sweep: Vec::new(),
        };
        while let Some(row) = local.step() {
            oracle.picks.push(row);
            oracle.statuses.push(local.status().to_vec());
        }
        oracle.converged = local.converged();
        for row in local.remaining() {
            local.clean(row);
            oracle.sweep.push((row, local.status().to_vec()));
        }

        for (name, make) in PROFILES {
            let mut attempt = 0u64;
            while chaotic_run(&problem, &oracle, make(seed ^ (attempt << 16)))? == 0 {
                attempt += 1;
                prop_assert!(
                    attempt < 8,
                    "no {name} schedule derived from seed {seed} fired in 8 runs"
                );
            }
        }
    }
}

/// Serve one WAL-less `ShardServer` until `kill_after` steps have applied,
/// then die abruptly — connection, session state and listener all at once —
/// and "restart" fresh on the same port ([`spawn_server_on`], empty session
/// registry). The restarted process answers the coordinator's retransmitted
/// `Step` with `unknown session`: the failover class only a journal replay
/// cures.
fn serve_kill_then_fresh_restart(
    listener: TcpListener,
    kill_after: usize,
) -> std::sync::mpsc::Receiver<RunningServer> {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let addr = listener.local_addr().expect("addr").to_string();
        {
            let server = ShardServer::new();
            let mut steps = 0usize;
            'killed: loop {
                let (mut stream, _) = listener.accept().expect("accept");
                stream.set_nodelay(true).expect("nodelay");
                while let Some((req_id, frame)) =
                    read_frame_opt_tagged(&mut stream).expect("read request")
                {
                    let req = decode_request(&frame).expect("well-formed request");
                    let is_step = matches!(req, Request::Step { .. });
                    let resp = server.handle(req);
                    if is_step {
                        steps += 1;
                        if steps == kill_after {
                            // listener first, so the reconnect can never
                            // park in the dead server's accept backlog
                            drop(listener);
                            break 'killed; // applied but never acknowledged
                        }
                    }
                    write_frame_tagged(&mut stream, req_id, &encode_response(&resp))
                        .expect("write response");
                }
            }
            // session registry dies here — the restart knows nothing
        }
        let running = loop {
            match spawn_server_on(&addr, ServerConfig::default()) {
                Ok(r) => break r,
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        tx.send(running).expect("hand the restarted server back");
    });
    rx
}

/// A server that loses its session registry (restart, no WAL) forces the
/// `unknown session` failover: re-dial the same address, replay the
/// journal, retry the in-flight step — with an **exact** replayed-pin
/// count (every journaled pin, which excludes the killed step whose ack
/// never arrived) and a final state bit-identical to the uninterrupted
/// run.
#[test]
fn unknown_session_failover_replays_the_journal_exactly() {
    let problem = chaos_problem();
    let rows = problem.dirty_rows();
    assert_eq!(rows.len(), 4, "the ledger below assumes four dirty rows");
    let kill_after = 2; // die acknowledging the second pin

    // uninterrupted reference, fully in-process
    let mut reference = CleaningSession::new(&problem, &opts());
    let mut reference_statuses = vec![reference.status().to_vec()];
    for &row in &rows {
        reference.clean(row);
        reference_statuses.push(reference.status().to_vec());
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let restarted = serve_kill_then_fresh_restart(listener, kill_after);

    // deep dial budget (capped backoff) bridges the restart window
    let client_cfg = ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(500)),
        connect_retries: 400,
        retry_backoff: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(10),
        ..ClientConfig::default()
    };
    let mut remote = RpcCoordinator::connect_with(&problem, &[&addr], &opts(), &client_cfg)
        .expect("connect to doomed server");
    assert_eq!(remote.status(), &reference_statuses[0][..], "fresh status");
    for (i, &row) in rows.iter().enumerate() {
        remote
            .clean(row)
            .expect("every clean must survive the restart");
        assert_eq!(
            remote.status(),
            &reference_statuses[i + 1][..],
            "status diverged after row {row}"
        );
    }
    assert!(remote.converged());
    assert_eq!(remote.n_cleaned(), rows.len());

    // exact ledger: one failover; the journal held exactly the
    // acknowledged pins — the killed step's ack never arrived, so its pin
    // was not journaled and was retransmitted live instead of replayed
    assert_eq!(remote.failover_count(), 1, "exactly one failover");
    assert_eq!(
        remote.pins_replayed_count(),
        (kill_after - 1) as u64,
        "replay = every acknowledged pin before the kill"
    );

    remote.shutdown().expect("shutdown coordinator");
    restarted.recv().expect("restarted server handle").stop();
}
