//! Response-poisoning coverage for **every** request type, beyond the
//! `Step` lost-ack suite: a server whose response to `Scan`, `SweptScan`,
//! `ExtremeSummary`, `Status`, `Stats` or `Close` arrives
//! bit-flipped or cut off mid-frame must leave the client *poisoned* with
//! a typed error — never a silently wrong payload — and a plain
//! `reconnect` must fully recover: the session survives on the server, the
//! re-issued request succeeds, and no state was double-applied.
//!
//! Corruption positions are property-tested: any single bit of the
//! response frame (length prefix, request id, payload or CRC trailer) and
//! any truncation point must be detected. Detection is layered — the frame
//! CRC catches payload damage, the length prefix bound and the read
//! timeout catch length damage, the id pairing catches reordering — but
//! the *contract* asserted here is uniform: typed error, poisoned client,
//! clean recovery. (Failover recovery from poisoning mid-run is covered by
//! the chaos suite; this suite isolates the per-request-type wire
//! contract.)

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use cp_rpc::proto::{decode_request, encode_response};
use cp_rpc::{
    read_frame_opt_tagged, spawn_server, write_frame_tagged, ClientConfig, OpenShard, Request,
    RpcCoordinator, RpcError, ServerConfig, ShardClient, ShardServer,
};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::Duration;

fn poison_problem() -> CleaningProblem {
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

/// The 1-shard `Open` payload for the whole problem (the same assembly the
/// admission tests use).
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

#[derive(Clone, Copy, Debug)]
enum Sabotage {
    /// Flip one bit of the encoded response frame (position mod frame bits).
    CorruptBit(u32),
    /// Ship a proper prefix of the frame (cut mod frame length), then drop
    /// the connection.
    Truncate(u32),
}

/// Serve one long-lived `ShardServer` (sessions survive reconnects),
/// sabotaging the response to the **first** request matching `target` and
/// serving everything else — including all later connections — cleanly.
fn serve_sabotaged(
    listener: TcpListener,
    target: fn(&Request) -> bool,
    sabotage: Sabotage,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let server = ShardServer::new();
        let mut fired = false;
        for stream in listener.incoming() {
            let mut stream = stream.expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            // a transport error or mid-frame EOF just ends this connection
            while let Some((req_id, frame)) = read_frame_opt_tagged(&mut stream).ok().flatten() {
                let req = decode_request(&frame).expect("well-formed request");
                let shutdown = matches!(req, Request::Shutdown);
                let hit = !fired && target(&req);
                let resp = server.handle(req);
                if hit {
                    fired = true;
                    let mut buf = Vec::new();
                    write_frame_tagged(&mut buf, req_id, &encode_response(&resp))
                        .expect("encode response frame");
                    match sabotage {
                        Sabotage::CorruptBit(pos) => {
                            let bit = pos as usize % (buf.len() * 8);
                            buf[bit / 8] ^= 1 << (bit % 8);
                            if stream.write_all(&buf).is_err() {
                                break;
                            }
                            // keep serving: the client poisons itself and
                            // reconnects; EOF on this socket follows
                        }
                        Sabotage::Truncate(pos) => {
                            let cut = pos as usize % buf.len().max(1);
                            let _ = stream.write_all(&buf[..cut]);
                            break; // connection dies mid-frame
                        }
                    }
                    continue;
                }
                if write_frame_tagged(&mut stream, req_id, &encode_response(&resp)).is_err() {
                    break;
                }
                if shutdown {
                    return;
                }
            }
        }
    })
}

/// One request of each sabotage-targeted type, as a uniform closure.
fn issue(client: &mut ShardClient, target_idx: usize) -> cp_rpc::RpcResult<()> {
    match target_idx {
        0 => client.scan::<f64>(0, 3, None).map(|_| ()),
        1 => client.extreme_summary(0, 3).map(|_| ()),
        2 => client.status().map(|_| ()),
        3 => client.stats(0).map(|_| ()),
        4 => client.swept_scan::<f64>(0, 3, 3).map(|_| ()),
        _ => client.close(),
    }
}

fn matcher(target_idx: usize) -> fn(&Request) -> bool {
    match target_idx {
        0 => |r: &Request| matches!(r, Request::Scan { .. }),
        1 => |r: &Request| matches!(r, Request::ExtremeSummary { .. }),
        2 => |r: &Request| matches!(r, Request::Status { .. }),
        3 => |r: &Request| matches!(r, Request::Stats { .. }),
        4 => |r: &Request| matches!(r, Request::SweptScan { .. }),
        _ => |r: &Request| matches!(r, Request::Close { .. }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every request type and an arbitrary corrupt-bit / truncation
    /// position: the sabotaged response is a typed error, the client is
    /// poisoned, and reconnect + re-issue recovers with no double-applied
    /// state (the one applied step stays exactly one step).
    #[test]
    fn any_sabotaged_response_poisons_then_recovers_by_reconnect(
        target_idx in 0usize..6,
        pos in 0u32..u32::MAX,
        truncate in 0u8..2,
    ) {
        let truncate = truncate == 1;
        let problem = poison_problem();
        let sabotage = if truncate {
            Sabotage::Truncate(pos)
        } else {
            Sabotage::CorruptBit(pos)
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = serve_sabotaged(listener, matcher(target_idx), sabotage);

        // the read timeout turns length-prefix damage (a frame announcing
        // more bytes than will ever come) into a typed error too
        let cfg = ClientConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ClientConfig::default()
        };
        let mut client = ShardClient::connect_with(&addr, &cfg).expect("connect");
        let n = client.open(open_whole(&problem)).expect("open session");
        prop_assert_eq!(n, problem.dataset.len());
        client.step(1, 0).expect("one clean step before the sabotage");

        let err = issue(&mut client, target_idx)
            .expect_err("a sabotaged response must never decode as success");
        prop_assert!(
            matches!(
                err,
                RpcError::Malformed(_)
                    | RpcError::Truncated { .. }
                    | RpcError::FrameTooLarge { .. }
                    | RpcError::Protocol(_)
                    | RpcError::Io(_)
            ),
            "unexpected error class for target {}: {:?}",
            target_idx,
            err
        );
        prop_assert!(client.is_poisoned(), "transport damage must poison");

        // a poisoned client refuses further work until revived
        let refused = client.status().expect_err("poisoned must refuse");
        prop_assert!(matches!(refused, RpcError::Protocol(_)));

        client.reconnect().expect("reconnect to the same server");
        if target_idx == 5 {
            // Close: the sabotaged ack may or may not have covered an
            // applied close — re-closing is Ok, or the idempotent-shaped
            // "unknown session" rejection; never anything else
            match client.close() {
                Ok(()) => {}
                Err(RpcError::Remote(msg)) if msg.starts_with("unknown session") => {}
                Err(other) => prop_assert!(false, "re-close after recovery: {other:?}"),
            }
        } else {
            issue(&mut client, target_idx).expect("re-issue after reconnect");
            let status = client.status().expect("status after recovery");
            prop_assert_eq!(status.n_cleaned, 1, "exactly the one applied step");
        }

        client.expect_ok(&Request::Shutdown).expect("shutdown");
        server.join().expect("server thread");
    }
}

/// A swept scan the server must refuse once `step(1, 0)` pinned row 1:
/// the typed `Remote` rejection comes back, no handler panicked, and the
/// connection stays usable (a valid swept scan of the same session
/// succeeds right after).
fn assert_swept_scan_rejected(val: usize, row: usize, expect: &str) {
    let problem = poison_problem();
    let server = spawn_server(ServerConfig::default()).expect("bind loopback server");
    let panics = || cp_obs::counter!("rpc.server.handler_panics").get();
    let before = panics();
    let mut client = ShardClient::connect(server.addr()).expect("connect");
    client.open(open_whole(&problem)).expect("open session");
    client.step(1, 0).expect("pin row 1");
    let err = client
        .swept_scan::<f64>(val, 3, row)
        .expect_err("a bad swept scan must be rejected");
    match &err {
        RpcError::Remote(msg) => assert!(msg.contains(expect), "got {msg:?}, want {expect:?}"),
        other => panic!("expected a typed remote rejection, got {other:?}"),
    }
    assert_eq!(panics(), before, "no handler may panic on a bad swept scan");
    assert!(
        !client.is_poisoned(),
        "a rejection leaves the connection usable"
    );
    let ok = client
        .swept_scan::<f64>(0, 3, 3)
        .expect("a valid swept scan after the rejection");
    assert_eq!(ok.row, 3);
    assert_eq!(ok.sims.len(), 2);
    client.close().expect("close");
}

#[test]
fn swept_scan_of_a_row_out_of_range_is_rejected() {
    assert_swept_scan_rejected(0, 6, "out of range");
    assert_swept_scan_rejected(0, u32::MAX as usize, "out of range");
}

#[test]
fn swept_scan_of_a_row_pinned_in_the_session_is_rejected() {
    // the session's step pinned row 1 before the swept scan asks for it
    assert_swept_scan_rejected(0, 1, "already pinned");
}

#[test]
fn swept_scan_of_a_validation_point_out_of_range_is_rejected() {
    assert_swept_scan_rejected(3, 3, "validation point 3 out of range");
}

/// A reply with a stray id arrives in one write together with the first
/// half of the true reply, so the poisoned connection's read buffer still
/// holds that cut frame when the client reconnects. The reconnect dials
/// with a new buffer: over the new socket, open, step and status pair their
/// ids with their replies, and no byte of the cut frame is read as one.
#[test]
fn bytes_buffered_from_a_poisoned_connection_never_reach_the_next_call() {
    let problem = poison_problem();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let server = ShardServer::new();
        let reply = |req_id: u32, frame: &[u8]| {
            let req = decode_request(frame).expect("well-formed request");
            let mut bytes = Vec::new();
            write_frame_tagged(&mut bytes, req_id, &encode_response(&server.handle(req)))
                .expect("encode response frame");
            bytes
        };
        let (mut first, _) = listener.accept().expect("accept the first connection");
        let (req_id, frame) = read_frame_opt_tagged(&mut first)
            .expect("a whole request")
            .expect("one request before EOF");
        let true_reply = reply(req_id, &frame);
        let mut sabotaged = reply(req_id.wrapping_add(7), &frame);
        sabotaged.extend_from_slice(&true_reply[..true_reply.len() / 2]);
        first
            .write_all(&sabotaged)
            .expect("write the sabotaged replies");
        drop(first);
        let (mut second, _) = listener.accept().expect("accept the reconnect");
        while let Some((req_id, frame)) = read_frame_opt_tagged(&mut second).ok().flatten() {
            if second.write_all(&reply(req_id, &frame)).is_err() {
                break;
            }
        }
    });
    let cfg = ClientConfig {
        read_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    };
    let mut client = ShardClient::connect_with(addr, &cfg).expect("connect");
    let err = client
        .ping()
        .expect_err("a stray reply id must not read as Ok");
    assert!(matches!(err, RpcError::Protocol(_)), "{err:?}");
    assert!(client.is_poisoned());
    client.reconnect().expect("reconnect");
    let n = client
        .open(open_whole(&problem))
        .expect("open after reconnect");
    assert_eq!(n, problem.dataset.len());
    client.step(1, 0).expect("step after reconnect");
    assert_eq!(client.status().expect("status").n_cleaned, 1);
    drop(client);
    server.join().expect("server thread");
}

/// Two label clusters, K = 1, and each validation point on a clean row of
/// its cluster: every point is certain before any cleaning, so each
/// cleaning step's window is its `Step` alone.
fn certain_problem() -> CleaningProblem {
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
        vec![vec![0.0], vec![10.0]],
        vec![None, Some(0), None, Some(1)],
        vec![None, Some(1), None, Some(0)],
    )
}

/// Serve one `ShardServer` over sequential connections, writing the reply
/// to every request matching `echo` twice — what a duplicated request
/// frame produces. Returns the number of connections accepted once a
/// `Shutdown` arrives.
fn serve_echoing(
    listener: TcpListener,
    echo: impl Fn(&Request) -> bool + Send + 'static,
) -> JoinHandle<usize> {
    std::thread::spawn(move || {
        let server = ShardServer::new();
        for (accepted, conn) in listener.incoming().enumerate() {
            let mut conn = conn.expect("accept");
            while let Some((req_id, frame)) = read_frame_opt_tagged(&mut conn).ok().flatten() {
                let req = decode_request(&frame).expect("well-formed request");
                let twice = echo(&req);
                let shutdown = matches!(req, Request::Shutdown);
                let mut bytes = Vec::new();
                write_frame_tagged(&mut bytes, req_id, &encode_response(&server.handle(req)))
                    .expect("encode response frame");
                if twice {
                    bytes.extend_from_within(..);
                }
                if conn.write_all(&bytes).is_err() {
                    break;
                }
                if shutdown {
                    return accepted + 1;
                }
            }
        }
        unreachable!("the listener never stops accepting")
    })
}

fn one_thread() -> RunOptions {
    RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    }
}

/// The final `Step` of a run is answered twice and nothing reads the echo
/// before teardown. The echo carries an earlier request id than `Close`,
/// so the client discards it and `shutdown` succeeds.
#[test]
fn a_duplicated_final_step_does_not_fail_shutdown() {
    let problem = certain_problem();
    let dirty = problem.dirty_rows();
    let last = dirty.len() as u32 - 1;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = serve_echoing(
        listener,
        move |req| matches!(req, Request::Step { expect_cleaned, .. } if *expect_cleaned == last),
    );
    let stale = || cp_obs::snapshot().counter("rpc.client.stale_replies");
    let before = stale();
    let mut coord = RpcCoordinator::connect(&problem, &[&addr], &one_thread()).expect("connect");
    assert!(
        coord.status().iter().all(|&c| c),
        "every point starts certain"
    );
    for &row in &dirty {
        coord.clean(row).expect("clean");
    }
    coord
        .shutdown()
        .expect("the echo of the final Step must not fail teardown");
    assert!(stale() > before, "the echo is counted as a stale reply");
    assert_eq!(server.join().expect("server thread"), 1, "no reconnect");
}

/// Every `Step` is answered twice while validation points are uncertain,
/// so each echo arrives inside a pipelined status window, ahead of the
/// summaries' replies. The client skips it: the whole run needs no
/// reconnect, and the status matches the in-process session's.
#[test]
fn echoed_step_replies_inside_a_window_need_no_reconnect() {
    let problem = poison_problem();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = serve_echoing(listener, |req| matches!(req, Request::Step { .. }));
    let mut coord = RpcCoordinator::connect(&problem, &[&addr], &one_thread()).expect("connect");
    let mut local = CleaningSession::new(&problem, &one_thread());
    assert!(
        coord.status().iter().any(|&c| !c),
        "a point starts uncertain"
    );
    for row in problem.dirty_rows() {
        coord.clean(row).expect("clean");
        local.clean(row);
        assert_eq!(coord.status(), local.status(), "after row {row}");
    }
    coord.shutdown().expect("shutdown");
    assert_eq!(server.join().expect("server thread"), 1, "no reconnect");
}
