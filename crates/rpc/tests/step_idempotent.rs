//! Lost-ack regression for `Step`: a server that **applies** a pin and then
//! fails to deliver the reply must not diverge from its coordinator.
//!
//! Before `Step` carried the expected cleaned-count, this fault was
//! unrecoverable-by-retry: the coordinator could not tell "server never saw
//! the step" from "server applied it and the ack was lost", and a blind
//! retransmission would double-pin. Now the coordinator reconnects and
//! retransmits the idempotent `Step` once; a server whose count already
//! advanced past it acknowledges without re-pinning. The test server here
//! keeps one `ShardServer` alive across connections (the long-lived-process
//! deployment) and drops the connection right after applying the first
//! `Step` — before writing the reply.

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use cp_rpc::proto::{decode_request, encode_response};
use cp_rpc::{
    read_frame_opt_tagged, write_frame_tagged, Request, Response, RpcCoordinator, ShardServer,
};
use std::net::TcpListener;
use std::thread::JoinHandle;

/// One shard server whose state survives reconnects, dropping the
/// connection *after* applying the first `Step` but *before* replying —
/// the lost-ack fault.
fn serve_lossy_step(listener: TcpListener) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let server = ShardServer::new();
        let mut reply_dropped = false;
        for stream in listener.incoming() {
            let mut stream = stream.expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            // an orderly EOF ends the connection: coordinator reconnects or is done
            while let Some((req_id, frame)) =
                read_frame_opt_tagged(&mut stream).expect("read request")
            {
                let req = decode_request(&frame).expect("well-formed request");
                let shutdown = matches!(req, Request::Shutdown);
                let is_step = matches!(req, Request::Step { .. });
                let resp = server.handle(req);
                if is_step && !reply_dropped {
                    assert_eq!(resp, Response::Ok, "the dropped step must have applied");
                    reply_dropped = true;
                    break; // pin applied; ack never sent — connection dies
                }
                write_frame_tagged(&mut stream, req_id, &encode_response(&resp))
                    .expect("write response");
                if shutdown {
                    return;
                }
            }
        }
    })
}

fn boundary_problem() -> CleaningProblem {
    let dataset = IncompleteDataset::new(
        vec![
            IncompleteExample::complete(vec![0.0], 0),
            IncompleteExample::incomplete(vec![vec![4.0], vec![7.0]], 0),
            IncompleteExample::complete(vec![10.0], 1),
            IncompleteExample::incomplete(vec![vec![3.0], vec![6.0]], 1),
            IncompleteExample::complete(vec![1.0], 0),
            IncompleteExample::complete(vec![9.0], 1),
        ],
        2,
    )
    .unwrap();
    CleaningProblem::new(
        dataset,
        CpConfig::new(3),
        vec![vec![5.0], vec![2.0], vec![8.0]],
        vec![None, Some(0), None, Some(1), None, None],
        vec![None, Some(1), None, Some(0), None, None],
    )
}

#[test]
fn lost_step_ack_is_recovered_by_idempotent_retransmission() {
    let problem = boundary_problem();
    let opts = RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = serve_lossy_step(listener);

    let mut remote = RpcCoordinator::connect(&problem, &[&addr], &opts).expect("connect");
    let mut local = CleaningSession::new(&problem, &opts);
    assert_eq!(remote.status(), local.status(), "fresh status");

    // every step survives — including the one whose ack the server drops —
    // and the run stays in lockstep with the in-process engine throughout
    let mut rows = problem.dirty_rows();
    assert!(rows.len() >= 2, "need steps after the dropped ack");
    rows.reverse(); // not the greedy order: exercises clean() directly
    for &row in &rows {
        remote.clean(row).expect("clean must survive the lost ack");
        local.clean(row);
        assert_eq!(remote.status(), local.status(), "after row {row}");
        assert_eq!(remote.n_cleaned(), local.n_cleaned());
    }
    assert!(remote.converged());
    remote.shutdown().expect("shutdown");
    server.join().expect("server thread");
}
