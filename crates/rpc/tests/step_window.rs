//! One pipelined window per cleaning step, and nothing else on the wire.
//!
//! `RpcCoordinator::clean` sends the owning shard `[Step, one status
//! request per uncertain point]` as one window and every other shard one
//! window of status requests; a connect is one `Open` round trip per shard
//! plus the first status windows. The first test checks that ledger on a
//! 2-shard coordinator (both shards on one server), client side through
//! `rpc.client.windows` and `rpc.client.rtt_us` and server side through
//! the `Stats` endpoint. The second checks the failure semantics: a server
//! that acknowledges the `Step` and then rejects a summary leaves the
//! coordinator one pin further along, exactly like the server, so the
//! next `clean` succeeds.
//!
//! Both tests take one lock: the registry is process-wide, and the ledger
//! counts must not see the other test's traffic.

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use cp_rpc::proto::{decode_request, encode_response};
use cp_rpc::{
    read_frame_opt_tagged, spawn_server, write_frame_tagged, Request, Response, RpcCoordinator,
    RpcError, ServerConfig, ShardClient, ShardServer,
};
use std::net::TcpListener;
use std::sync::Mutex;
use std::thread::JoinHandle;

static LEDGER: Mutex<()> = Mutex::new(());

fn opts() -> RunOptions {
    RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    }
}

/// Two label clusters on a line, with dirty rows whose candidates straddle
/// the boundary, and validation points across it: points turn certain one
/// by one as rows are cleaned.
fn boundary_problem() -> CleaningProblem {
    let mut examples = Vec::new();
    for i in 0..10 {
        examples.push(IncompleteExample::complete(vec![i as f64 * 0.3], 0));
        examples.push(IncompleteExample::complete(vec![10.0 - i as f64 * 0.3], 1));
    }
    let n_clean = examples.len();
    for i in 0..8 {
        let x = 3.0 + i as f64 * 0.5;
        examples.push(IncompleteExample::incomplete(
            vec![vec![x], vec![10.0 - x]],
            i % 2,
        ));
    }
    let n = examples.len();
    let dataset = IncompleteDataset::new(examples, 2).unwrap();
    let truth = (0..n).map(|i| (i >= n_clean).then_some(0)).collect();
    let default = (0..n).map(|i| (i >= n_clean).then_some(1)).collect();
    let val_x = (0..8).map(|i| vec![3.5 + i as f64 * 0.4]).collect();
    CleaningProblem::new(dataset, CpConfig::new(3), val_x, truth, default)
}

fn windows() -> u64 {
    cp_obs::counter!("rpc.client.windows").get()
}

fn round_trips() -> u64 {
    cp_obs::histogram!("rpc.client.rtt_us").count()
}

#[test]
fn one_window_per_shard_per_clean_and_no_other_round_trip() {
    let _ledger = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    let problem = boundary_problem();
    let server = spawn_server(ServerConfig::default()).expect("spawn server");
    let addr = server.addr().to_string();
    let mut probe = ShardClient::connect(&addr).expect("probe connect");
    let baseline = probe.stats(0).expect("baseline stats");

    // connect: one Open round trip per shard, then the first refresh as one
    // window of summaries per shard
    let (w0, rt0) = (windows(), round_trips());
    let mut coord = RpcCoordinator::connect(&problem, &[&addr, &addr], &opts()).expect("connect");
    let n_shards = coord.n_shards() as u64;
    assert_eq!(n_shards, 2);
    assert_eq!(windows() - w0, n_shards, "connect-time refresh");
    assert_eq!(
        round_trips() - rt0,
        n_shards,
        "one Open per shard, nothing else"
    );
    let mut summaries = problem.val_x.len() as u64;

    let mut changes = 0;
    let rows = problem.dirty_rows();
    for &row in &rows {
        let before = coord.status().to_vec();
        summaries += before.iter().filter(|&&c| !c).count() as u64;
        let (w, rt) = (windows(), round_trips());
        coord.clean(row).expect("clean");
        changes += u64::from(coord.status() != before.as_slice());
        assert_eq!(windows() - w, n_shards, "row {row}: one window per shard");
        assert_eq!(
            round_trips() - rt,
            0,
            "row {row}: no round trip outside the windows"
        );
    }
    assert!(
        coord.converged(),
        "every point certain once all rows are clean"
    );
    assert!(
        changes >= 2,
        "the run must flip statuses over several steps"
    );
    let fin = probe.stats(0).expect("final stats");
    let diff = fin.diff(&baseline);
    // every request the server served, by type: the Opens, the Steps, one
    // summary per shard and uncertain point, and the baseline Stats probe
    // (recorded after its own reply)
    let expect = [
        ("rpc.server.latency.open_us", n_shards),
        ("rpc.server.latency.step_us", rows.len() as u64),
        (
            "rpc.server.latency.extreme_summary_us",
            n_shards * summaries,
        ),
        ("rpc.server.latency.stats_us", 1),
    ];
    for (hist, count) in expect {
        assert_eq!(diff.histogram(hist).count(), count, "{hist}");
    }
    let served: u64 = diff
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("rpc.server.latency."))
        .map(|(_, h)| h.count())
        .sum();
    assert_eq!(served, expect.iter().map(|(_, count)| count).sum::<u64>());

    // same answers as the in-process engine
    let mut local = CleaningSession::new(&problem, &opts());
    for &row in &rows {
        local.clean(row);
    }
    assert_eq!(coord.status(), local.status());
    coord.shutdown().expect("shutdown");
}

/// A shard server that answers normally, except that the first
/// `ExtremeSummary` after the first `Step` is rejected.
fn serve_rejecting_summary(listener: TcpListener) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let server = ShardServer::new();
        let (mut stepped, mut rejected) = (false, false);
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        while let Some((req_id, frame)) = read_frame_opt_tagged(&mut stream).expect("read request")
        {
            let req = decode_request(&frame).expect("well-formed request");
            let shutdown = matches!(req, Request::Shutdown);
            let resp = match req {
                Request::ExtremeSummary { .. } if stepped && !rejected => {
                    rejected = true;
                    Response::Error("summary rejected".into())
                }
                req => {
                    stepped |= matches!(req, Request::Step { .. });
                    server.handle(req)
                }
            };
            write_frame_tagged(&mut stream, req_id, &encode_response(&resp))
                .expect("write response");
            if shutdown {
                return;
            }
        }
    })
}

#[test]
fn acked_step_then_rejected_summary_keeps_the_coordinator_consistent() {
    let _ledger = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    let problem = boundary_problem();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = serve_rejecting_summary(listener);
    let mut coord = RpcCoordinator::connect(&problem, &[&addr], &opts()).expect("connect");

    let rows = problem.dirty_rows();
    let err = coord.clean(rows[0]).expect_err("the summary is rejected");
    assert!(
        matches!(&err, RpcError::Remote(msg) if msg == "summary rejected"),
        "got {err:?}"
    );
    // the acknowledged pin is committed on this side too
    assert_eq!(coord.n_cleaned(), 1);
    assert!(coord.state().is_cleaned(rows[0]));

    // the next clean neither trips the server's cleaned-count check nor
    // double-pins, and the status catches up
    let mut local = CleaningSession::new(&problem, &opts());
    local.clean(rows[0]);
    for &row in &rows[1..] {
        coord.clean(row).expect("clean after the rejected summary");
        local.clean(row);
        assert_eq!(coord.status(), local.status(), "after row {row}");
    }
    assert_eq!(coord.n_cleaned(), rows.len());
    coord.shutdown().expect("shutdown");
    server.join().expect("server thread");
}
