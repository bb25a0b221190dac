//! Mid-run server crash → restart on the same `--data-dir` → the resumed
//! run is bit-identical to a never-interrupted run.
//!
//! The crash server here is the worst realistic fault: it applies (and
//! WAL-logs) a pin, then dies **before the acknowledgement ships** —
//! killing the TCP connection, the in-memory `ShardServer` and the
//! listener all at once. A fresh server process (`spawn_server_on`, the
//! public restart surface) rebinds the same port with the same data dir,
//! replays the session log, and the coordinator's reconnect + idempotent
//! `Step` retransmission lands on the recovered state. The coordinator
//! never learns a crash happened: its status vector after every remaining
//! step, its final convergence, and the server-side per-session step
//! counter (replayed + live) all equal the uninterrupted reference run's.

use cp_clean::{CleaningProblem, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use cp_rpc::proto::{decode_request, encode_response};
use cp_rpc::{
    read_frame_opt_tagged, spawn_server, spawn_server_on, write_frame_tagged, ClientConfig,
    Request, Response, RpcCoordinator, RunningServer, ServerConfig, ShardClient, ShardServer,
};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::time::Duration;

fn crash_problem() -> CleaningProblem {
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

/// Serve one WAL-backed `ShardServer` until `crash_after` steps applied,
/// then die abruptly (pin logged, ack never sent, port released). Then
/// "restart": a [`spawn_server_on`] process on the same port and data dir,
/// handed back through the channel so the test can stop it cleanly.
fn serve_crash_then_restart(
    listener: TcpListener,
    data_dir: PathBuf,
    crash_after: usize,
) -> std::sync::mpsc::Receiver<RunningServer> {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let addr = listener.local_addr().expect("addr").to_string();
        {
            let server = ShardServer::with_config(8, Some(data_dir.clone()));
            let mut steps = 0usize;
            'crashed: loop {
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
                        if steps == crash_after {
                            assert_eq!(resp, Response::Ok, "the crash step must have applied");
                            // the listener dies with the "process" *first*,
                            // so the coordinator's reconnect can never park
                            // in the dead server's accept backlog
                            drop(listener);
                            break 'crashed; // logged but never acknowledged
                        }
                    }
                    write_frame_tagged(&mut stream, req_id, &encode_response(&resp))
                        .expect("write response");
                }
            }
            // the rest of the "process" dies: connection and server state
        }
        // the restart: same port (a reconnecting client redials the address
        // it remembers), same data dir (recovery replays the session logs)
        let cfg = ServerConfig {
            data_dir: Some(data_dir),
            ..ServerConfig::default()
        };
        let running = loop {
            // the just-released port can take a moment to become bindable
            match spawn_server_on(&addr, cfg.clone()) {
                Ok(r) => break r,
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        tx.send(running).expect("hand the restarted server back");
    });
    rx
}

#[test]
fn resumed_run_after_crash_is_bit_identical_to_uninterrupted() {
    let problem = crash_problem();
    let rows = problem.dirty_rows();
    assert_eq!(rows.len(), 4, "ledger below assumes four dirty rows");
    let crash_after = 2; // crash while acknowledging the second pin

    // ---- the uninterrupted reference run, completed (and closed) first so
    // its metrics are unregistered before the baseline snapshot ----------
    let server = spawn_server(ServerConfig::default()).expect("bind reference server");
    let mut reference =
        RpcCoordinator::connect(&problem, &[server.addr()], &opts()).expect("connect");
    let mut reference_statuses = vec![reference.status().to_vec()];
    for &row in &rows {
        reference.clean(row).expect("reference clean");
        reference_statuses.push(reference.status().to_vec());
    }
    let reference_converged = reference.converged();
    reference.shutdown().expect("shutdown reference");
    server.stop();

    // ---- the crashing run ------------------------------------------------
    let data_dir = std::env::temp_dir().join(format!("cp-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let restarted = serve_crash_then_restart(listener, data_dir.clone(), crash_after);

    // generous reconnect budget: the retry window must bridge the restart
    let client_cfg = ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        connect_retries: 400,
        retry_backoff: Duration::from_millis(10),
        ..ClientConfig::default()
    };
    let mut remote = RpcCoordinator::connect_with(&problem, &[&addr], &opts(), &client_cfg)
        .expect("connect to crash server");
    assert_eq!(remote.status(), &reference_statuses[0][..], "fresh status");
    let baseline = cp_obs::snapshot();
    for (i, &row) in rows.iter().enumerate() {
        // the clean whose ack the crash swallows reconnects and retransmits
        // inside this call — the coordinator surface never sees the fault
        remote
            .clean(row)
            .expect("every clean must survive the crash");
        assert_eq!(
            remote.status(),
            &reference_statuses[i + 1][..],
            "status diverged after row {row}"
        );
    }
    assert_eq!(remote.converged(), reference_converged);
    assert_eq!(remote.n_cleaned(), rows.len());

    // ---- replayed-vs-live step accounting over the wire ------------------
    // everything since the baseline happened on the restarted server: its
    // recovery replayed the whole log (open record + the logged pins), and
    // its one recovered session must report replayed + live steps exactly
    // as if the crash never happened. (The dead server's leaked counters
    // predate the baseline, so they diff to zero.)
    let mut probe = ShardClient::connect(&addr).expect("probe restarted server");
    let diff = probe.stats(0).expect("stats over the wire").diff(&baseline);
    assert_eq!(
        diff.counter("store.wal.replayed_records") as usize,
        crash_after + 1,
        "open record + every pre-crash pin replay exactly once"
    );
    let mut session_steps: Vec<(u64, u64)> = diff
        .counters
        .iter()
        .filter(|(name, &v)| name.contains(".session.") && name.ends_with(".steps") && v > 0)
        .map(|(name, &v)| {
            let instance: u64 = name
                .strip_prefix("rpc.server.s")
                .and_then(|rest| rest.split('.').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("unparseable session metric {name}"));
            (instance, v)
        })
        .collect();
    session_steps.sort_unstable();
    let steps_per_server: Vec<u64> = session_steps.iter().map(|&(_, v)| v).collect();
    assert_eq!(
        steps_per_server,
        vec![crash_after as u64, rows.len() as u64],
        "the dead server counted its live pins; the restarted one counts \
         replayed + live as if the crash never happened"
    );

    remote.shutdown().expect("shutdown coordinator");
    probe
        .expect_ok(&Request::Shutdown)
        .expect("shutdown probe connection");
    restarted.recv().expect("restarted server handle").stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}
