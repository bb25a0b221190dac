//! The wire-level `Stats` endpoint under a real workload: a coordinator run
//! and a hand-driven session over one loopback shard server, then the
//! registry snapshot fetched **over the wire** and checked against the
//! workload's exact request ledger.
//!
//! One test function on purpose: integration tests share one process (and
//! therefore one `cp-obs` registry), so a single linear ledger is the only
//! way the exact-count assertions stay exact.

use cp_clean::{CleaningProblem, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use cp_rpc::{
    encode_stream, spawn_server, OpenShard, Request, RpcCoordinator, RpcError, ServerConfig,
    ShardClient,
};
use cp_shard::ShardStream;

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

#[test]
fn stats_over_the_wire_match_the_workload_exactly() {
    let problem = tiny_problem();
    let server = spawn_server(ServerConfig::default()).expect("spawn server");
    let addr = server.addr().to_string();

    // a probe connection takes the baseline *over the wire*; its own Stats
    // latency lands in the registry only after the reply ships, so the
    // baseline never counts itself
    let mut probe = ShardClient::connect(&addr).expect("probe connect");
    let baseline = probe.stats(0).expect("baseline stats");

    // ---- workload part 1: a coordinator cleans every dirty row ----------
    // binary label space, so status refreshes ride ExtremeSummary; the only
    // Scan requests in this whole test are the explicit ones below
    let opts = RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    };
    let dirty = problem.dirty_rows();
    assert_eq!(dirty.len(), 2, "ledger below assumes two dirty rows");
    let mut coord =
        RpcCoordinator::connect(&problem, std::slice::from_ref(&addr), &opts).expect("connect");
    for &row in &dirty {
        coord.clean(row).expect("clean over rpc");
    }
    coord.shutdown().expect("shutdown coordinator connection");

    // ---- workload part 2: a hand-driven session with an exact ledger ----
    let mut client = ShardClient::connect(&addr).expect("client connect");
    assert_eq!(
        client.open(open_whole(&problem)).expect("open"),
        problem.dataset.len()
    );
    let session = client.session();
    let k = problem.config.k_eff(problem.dataset.len());
    let mut streams: Vec<ShardStream<f64>> = Vec::new();
    for v in 0..problem.val_x.len() {
        streams.push(client.scan::<f64>(v, k, None).expect("scan"));
    }
    client.step(1, 0).expect("step row 1");
    client
        .step(1, 0)
        .expect("idempotent retransmit of step row 1");
    client.step(3, 1).expect("step row 3");

    // ---- session-scoped stats: exactly this session's counters ---------
    let scoped = client.stats(session).expect("session stats");
    assert_eq!(scoped.counters.len(), 2, "steps and scans only: {scoped:?}");
    assert!(scoped.gauges.is_empty() && scoped.histograms.is_empty());
    for (name, &value) in &scoped.counters {
        assert!(
            name.contains(&format!(".session.{session}.")),
            "foreign metric {name} leaked into the scoped snapshot"
        );
        if name.ends_with(".steps") {
            // three Step requests, but the retransmit only acknowledged —
            // the per-session count stays exact under retries
            assert_eq!(value, 2, "{name}");
        } else if name.ends_with(".scans") {
            assert_eq!(value, 2, "{name}");
        } else {
            panic!("unexpected session metric {name}");
        }
    }
    let err = client.stats(9999).expect_err("unknown session");
    assert!(matches!(err, RpcError::Remote(_)), "got {err:?}");

    // ---- process-wide stats, fetched over the wire BEFORE the local
    // re-encodes below (the server runs in this process, so re-encoding
    // received streams bumps the very codec counters under test) ----------
    let fin = probe.stats(0).expect("final stats");
    let diff = fin.diff(&baseline);

    // request-latency histograms count the exact request ledger:
    // Step: 2 coordinator cleans + 3 hand-driven (retransmit included —
    // error-free requests are all served latency); Scan: only the 2
    // explicit ones; Open: coordinator + client; Stats: the baseline
    // request (recorded after its reply), the session-scoped one, and the
    // unknown-session probe (error responses are served latency too) — the
    // final request can't count itself
    for (hist, expect) in [
        ("rpc.server.latency.step_us", 5),
        ("rpc.server.latency.scan_us", 2),
        ("rpc.server.latency.open_us", 2),
        ("rpc.server.latency.close_us", 1),
        ("rpc.server.latency.shutdown_us", 1),
        ("rpc.server.latency.stats_us", 3),
    ] {
        assert_eq!(diff.histogram(hist).count(), expect, "{hist}");
    }
    assert!(
        diff.histogram("rpc.server.latency.extreme_summary_us")
            .count()
            >= 2
    );
    // and no other request type reached the server
    let served: Vec<&str> = diff
        .histograms
        .iter()
        .filter(|(name, h)| name.starts_with("rpc.server.latency.") && h.count() > 0)
        .map(|(name, _)| name.trim_start_matches("rpc.server.latency."))
        .collect();
    assert_eq!(
        served,
        [
            "close_us",
            "extreme_summary_us",
            "open_us",
            "scan_us",
            "shutdown_us",
            "stats_us",
            "step_us"
        ]
    );

    // per-session step counters count only the *live* session's two pins:
    // the coordinator's Close unregistered its session's counters (closed
    // sessions must not accumulate in the registry forever)
    let all_steps: u64 = fin
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("rpc.server.s") && name.ends_with(".steps"))
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(all_steps, 2);

    // nothing in this workload was rejected or malformed
    for counter in [
        "rpc.server.busy_rejections",
        "rpc.server.malformed_requests",
        "rpc.server.first_frame_drops",
        "rpc.server.connection_errors",
    ] {
        assert_eq!(diff.counter(counter), 0, "{counter}");
    }
    assert!(diff.counter("rpc.server.bytes_in") > 0);
    assert!(diff.counter("rpc.server.bytes_out") > 0);
    // no request is in flight at capture time, so the queue reads drained
    assert_eq!(fin.gauge("rpc.server.queue_depth"), 0.0);

    // the client side of the same registry saw every round trip
    assert!(fin.histogram("rpc.client.rtt_us").count() > 0);
    assert_eq!(diff.counter("rpc.client.reconnects"), 0);

    // ---- stream byte accounting: exact byte-for-byte ---------------------
    // the canonical encoder is deterministic, so re-encoding the decoded
    // streams reproduces the very bytes (and counter bumps) the server made
    let expect_delta: u64 = streams.iter().map(|s| encode_stream(s).len() as u64).sum();
    assert_eq!(diff.counter("rpc.codec.stream_bytes_delta"), expect_delta);

    // ---- legacy counters: old entry points == registry -------------------
    // (the server shares this process, so the live registry holds its work)
    let live = cp_obs::snapshot();
    assert!(cp_core::similarity::build_count() > 0);
    assert_eq!(
        cp_core::similarity::build_count(),
        live.counter("core.similarity.index_builds")
    );
    assert_eq!(
        cp_core::poly::tree_build_count(),
        live.counter("core.poly.tree_builds")
    );
    assert_eq!(
        cp_core::queries::q2_probability_count(),
        live.counter("core.q2.probability_evals")
    );

    client.close().expect("close");
    client.expect_ok(&Request::Shutdown).expect("shutdown");
    probe.expect_ok(&Request::Shutdown).expect("shutdown probe");
    server.stop();
}
