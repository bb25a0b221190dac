//! Multi-tenant serving: many independent cleaning sessions multiplexed
//! over **one** shard-server process.
//!
//! * Concurrent-equivalence property: two coordinators interleaving steps
//!   on independent sessions of a single pool server produce runs
//!   bit-identical to two isolated in-process runs — the sessions share
//!   immutable shard data but never observe each other's pins.
//! * Accept-loop robustness: a client whose very first frame is garbage is
//!   logged and dropped without taking down the server; a healthy
//!   coordinator on the same server then runs to convergence.
//! * Admission control: at the session cap, `Open` is refused with the
//!   retryable `Busy`; the slot frees on `Close` and the retried `Open`
//!   succeeds. Same for the connection cap.
//! * A duplicated `Open` frame mints one session, not two; the same
//!   payload under a new request id mints a new one.

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use cp_rpc::proto::{decode_response, encode_request};
use cp_rpc::{
    read_frame_tagged, spawn_server, write_frame_tagged, OpenShard, Request, Response,
    RpcCoordinator, RpcError, ServerConfig, ShardClient,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

fn opts(n_threads: usize) -> RunOptions {
    RunOptions {
        max_cleaned: None,
        n_threads,
        record_every: 1,
    }
}

/// A random small cleaning problem — the family the rpc_equivalence suite
/// uses, sized so shard counts {1, 2} always have real rows.
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

/// The `Open` payload shipping a whole problem as one shard — what a
/// 1-shard coordinator sends, assembled by hand for the admission tests.
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
            .map(|i| {
                let ex = ds.example(i);
                (ex.label, ex.candidates.clone())
            })
            .collect(),
        val_x: problem.val_x.as_ref().clone(),
        truth_choice: as_u32(&problem.truth_choice),
        default_choice: as_u32(&problem.default_choice),
    }
}

fn tiny_problem() -> CleaningProblem {
    let dataset = IncompleteDataset::new(
        vec![
            IncompleteExample::complete(vec![0.0], 0),
            IncompleteExample::incomplete(vec![vec![4.0], vec![7.0]], 0),
            IncompleteExample::complete(vec![10.0], 1),
            IncompleteExample::incomplete(vec![vec![3.0], vec![6.0]], 1),
        ],
        2,
    )
    .unwrap();
    CleaningProblem::new(
        dataset,
        CpConfig::new(1),
        vec![vec![5.0], vec![2.0]],
        vec![None, Some(0), None, Some(1)],
        vec![None, Some(1), None, Some(0)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two coordinators drive *independent* sessions over one pool server,
    /// interleaving their steps on real threads. Each run — status after
    /// every step included — is bit-identical to an isolated in-process
    /// run of the same cleaning order. Coordinator B opens two shards on
    /// the same server (two sessions of one process), so the test also
    /// pins down that a multi-shard split works session-multiplexed.
    #[test]
    fn concurrent_sessions_match_isolated_runs((problem, seed) in arb_instance()) {
        let server = spawn_server(ServerConfig::default()).expect("spawn pool server");
        let addr = server.addr().to_string();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e55);
        let mut order_a = problem.dirty_rows();
        order_a.shuffle(&mut rng);
        let mut order_b = problem.dirty_rows();
        order_b.shuffle(&mut rng);

        let barrier = Arc::new(Barrier::new(2));
        let run_remote = |addrs: Vec<String>, order: Vec<usize>, gate: Arc<Barrier>| {
            let problem = problem.clone();
            std::thread::spawn(move || -> Vec<Vec<bool>> {
                let mut remote =
                    RpcCoordinator::connect(&problem, &addrs, &opts(1)).expect("connect");
                gate.wait(); // both sessions live before either steps
                let mut trajectory = vec![remote.status().to_vec()];
                for &row in &order {
                    remote.clean(row).expect("clean over rpc");
                    trajectory.push(remote.status().to_vec());
                }
                remote.shutdown().expect("shutdown");
                trajectory
            })
        };
        let a = run_remote(vec![addr.clone()], order_a.clone(), barrier.clone());
        let b = run_remote(vec![addr.clone(), addr], order_b.clone(), barrier);
        let got_a = a.join().expect("coordinator a");
        let got_b = b.join().expect("coordinator b");

        for (n_shards, order, got) in [(1, &order_a, &got_a), (2, &order_b, &got_b)] {
            let mut local = CleaningSession::new(&problem, &opts(1));
            prop_assert_eq!(&got[0], &local.status().to_vec(), "fresh, {} shards", n_shards);
            for (i, &row) in order.iter().enumerate() {
                local.clean(row);
                prop_assert_eq!(
                    &got[i + 1],
                    &local.status().to_vec(),
                    "step {} of the {}-shard session diverged",
                    i,
                    n_shards
                );
            }
        }
        server.stop();
    }
}

/// A first frame of garbage must not take down the accept loop: the hostile
/// connection is dropped (logged server-side), and a healthy coordinator on
/// the *same* server then runs a full greedy cleaning to convergence.
#[test]
fn garbage_client_then_healthy_client() {
    let server = spawn_server(ServerConfig::default()).expect("spawn pool server");

    // hostile client 1: an impossible length prefix (> MAX_FRAME_LEN)
    let mut s = TcpStream::connect(server.addr()).expect("hostile connect");
    s.write_all(&[0xFF; 16]).expect("write garbage");
    let mut buf = [0u8; 16];
    let n = s.read(&mut buf).expect("server must close, not hang");
    assert_eq!(n, 0, "hostile connection ends with EOF, not a reply");
    drop(s);

    // hostile client 2: a well-formed frame (correct CRC trailer) whose
    // payload is junk — the mid-handshake failure shape; answered with a
    // per-request error or just dropped, never a hang
    let mut s = TcpStream::connect(server.addr()).expect("hostile connect");
    let header_and_payload = [0, 0, 0, 4, 0, 0, 0, 1, 0xDE, 0xAD, 0xBE, 0xEF];
    s.write_all(&header_and_payload)
        .expect("write junk payload");
    s.write_all(&cp_store::crc32(&header_and_payload).to_be_bytes())
        .expect("write junk frame crc");
    let _ = s.read(&mut buf);
    drop(s);

    // hostile client 3: a complete frame whose CRC trailer is wrong — the
    // bit-flipped-in-transit shape; the connection is dropped
    let mut s = TcpStream::connect(server.addr()).expect("hostile connect");
    s.write_all(&header_and_payload)
        .expect("write junk payload");
    s.write_all(&[0, 0, 0, 0]).expect("write wrong frame crc");
    let _ = s.read(&mut buf);
    drop(s);

    // the healthy client is unaffected
    let problem = tiny_problem();
    let mut remote =
        RpcCoordinator::connect(&problem, &[server.addr()], &opts(1)).expect("healthy connect");
    let mut local = CleaningSession::new(&problem, &opts(1));
    loop {
        let expect = local.step();
        assert_eq!(remote.step(), expect, "greedy step diverged after garbage");
        if expect.is_none() {
            break;
        }
    }
    assert!(remote.converged());
    remote.shutdown().expect("shutdown");
    server.stop();
}

/// A duplicated `Open` frame — the same request id and the same bytes, as
/// a faulty network delivers a frame twice — mints one session: both copies
/// are answered with session 1, and no session 2 exists to hold an
/// admission slot. The same payload under a new request id is a new
/// request and mints session 2.
#[test]
fn a_duplicated_open_frame_mints_one_session() {
    let server = spawn_server(ServerConfig::default()).expect("spawn server");
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    let mut replies = BufReader::new(s.try_clone().expect("clone socket"));
    let mut call = |s: &mut TcpStream, frame: &[u8]| {
        s.write_all(frame).expect("write frame");
        let (id, payload) = read_frame_tagged(&mut replies).expect("reply frame");
        (id, decode_response(&payload).expect("reply decodes"))
    };
    let open = encode_request(&Request::Open(Box::new(open_whole(&tiny_problem()))));
    let mut frame = Vec::new();
    write_frame_tagged(&mut frame, 0, &open).expect("encode frame");
    for copy in 0..2 {
        match call(&mut s, &frame) {
            (0, Response::Opened { session: 1, .. }) => {}
            other => panic!("copy {copy} of the Open frame: {other:?}"),
        }
    }
    let mut close = Vec::new();
    write_frame_tagged(
        &mut close,
        1,
        &encode_request(&Request::Close { session: 2 }),
    )
    .expect("encode frame");
    match call(&mut s, &close) {
        (1, Response::Error(msg)) => assert!(msg.contains("unknown session"), "{msg}"),
        other => panic!("closing session 2: {other:?}"),
    }
    let mut reopen = Vec::new();
    write_frame_tagged(&mut reopen, 2, &open).expect("encode frame");
    match call(&mut s, &reopen) {
        (2, Response::Opened { session: 2, .. }) => {}
        other => panic!("the Open payload under a new request id: {other:?}"),
    }
    let mut shutdown = Vec::new();
    write_frame_tagged(&mut shutdown, 3, &encode_request(&Request::Shutdown))
        .expect("encode frame");
    assert!(matches!(call(&mut s, &shutdown), (3, Response::Ok)));
    server.stop();
}

/// At the session cap, `Open` answers the retryable `Busy` without
/// disturbing the admitted session; closing that session frees the slot
/// and the retried `Open` succeeds on the *same* connection.
#[test]
fn session_cap_rejects_open_with_retryable_busy() {
    let server = spawn_server(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    })
    .expect("spawn capped server");
    let problem = tiny_problem();
    let open = open_whole(&problem);

    let mut first = ShardClient::connect(server.addr()).expect("first connect");
    assert_eq!(
        first.open(open.clone()).expect("first open"),
        problem.dataset.len()
    );

    let mut second = ShardClient::connect(server.addr()).expect("second connect");
    let err = second.open(open.clone()).expect_err("cap must refuse");
    assert!(
        matches!(err, RpcError::Busy(_)),
        "expected Busy, got {err:?}"
    );
    assert!(err.is_retryable(), "Busy is the retryable refusal");

    // the admitted session is untouched by the refusal
    first.status().expect("admitted session still serves");

    // Close frees the slot; the refused client's retry now succeeds
    first.close().expect("close admitted session");
    assert_eq!(
        second.open(open).expect("retry after close"),
        problem.dataset.len()
    );
    second.close().expect("close second session");
    first.expect_ok(&Request::Shutdown).expect("shutdown first");
    second
        .expect_ok(&Request::Shutdown)
        .expect("shutdown second");
    server.stop();
}

/// At the connection cap, the over-cap dial is answered `Busy` and shut
/// down; once the admitted connection ends, a new dial is admitted.
#[test]
fn connection_cap_rejects_with_busy_then_recovers() {
    let server = spawn_server(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    })
    .expect("spawn capped server");
    let problem = tiny_problem();
    let open = open_whole(&problem);

    let mut admitted = ShardClient::connect(server.addr()).expect("admitted connect");
    assert_eq!(
        admitted.open(open.clone()).expect("admitted open"),
        problem.dataset.len()
    );

    // the over-cap connection's first request is answered Busy
    let mut rejected = ShardClient::connect(server.addr()).expect("over-cap connect");
    let err = rejected
        .open(open.clone())
        .expect_err("over cap must refuse");
    assert!(
        matches!(err, RpcError::Busy(_)),
        "expected Busy, got {err:?}"
    );

    admitted.close().expect("close session");
    admitted
        .expect_ok(&Request::Shutdown)
        .expect("end admitted connection");

    // the slot drained; a fresh dial is admitted and serves
    let mut retry = ShardClient::connect(server.addr()).expect("post-drain connect");
    let mut n_rows = retry.open(open.clone());
    for _ in 0..50 {
        // the server reaps the finished handler asynchronously — bounded retry
        match &n_rows {
            Err(e) if e.is_retryable() => {
                std::thread::sleep(std::time::Duration::from_millis(20));
                retry.reconnect().expect("redial");
                n_rows = retry.open(open.clone());
            }
            _ => break,
        }
    }
    assert_eq!(n_rows.expect("post-drain open"), problem.dataset.len());
    retry.close().expect("close");
    retry.expect_ok(&Request::Shutdown).expect("shutdown");
    server.stop();
}
