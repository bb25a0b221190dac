//! Mid-run server **replacement**: the home shard server dies (scripted
//! kill after N outgoing frames, listener gone) and the coordinator fails
//! over to a fallback server with a **fresh data dir** — no WAL, no shard
//! data, nothing. The journal replay rebuilds the session from client-side
//! state alone, the run resumes with bit-identical picks and statuses, and
//! every recovery is accounted for: the coordinator's failover and
//! replayed-pin tallies match the process-wide `rpc.client.*` counters
//! exactly, the fault layer logs exactly one kill, and the replacement
//! server's per-session step counter reads replayed + live as if the home
//! server never existed.
//!
//! This is the failure class the server-side WAL (PR 9) cannot cure — a
//! lost disk / lost node — and the reason the journal lives on the
//! coordinator.

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use cp_rpc::{ClientConfig, FaultPlan, RpcCoordinator, ServerConfig};
use std::time::Duration;

fn failover_problem() -> CleaningProblem {
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

#[test]
fn mid_run_replacement_onto_a_fresh_data_dir_is_bit_identical() {
    let problem = failover_problem();
    let rows = problem.dirty_rows();
    assert_eq!(rows.len(), 4, "the ledger below assumes four dirty rows");

    // uninterrupted reference, fully in-process
    let mut reference = CleaningSession::new(&problem, &opts());
    let mut reference_statuses = vec![reference.status().to_vec()];
    for &row in &rows {
        reference.clean(row);
        reference_statuses.push(reference.status().to_vec());
    }
    let reference_converged = reference.converged();

    // home server A: WAL-backed, dies on its 10th outgoing frame — after
    // `Opened`, the 3 connect-time summaries and `Step` + 1 summary for each
    // of the first two cleans, the third clean's `Step` is acknowledged and
    // its summary is the frame the kill swallows — and stops accepting after
    // its first (only) connection, so the re-dial is refused and the
    // coordinator must fail over
    let dir_a = std::env::temp_dir().join(format!("cp-failover-a-{}", std::process::id()));
    let dir_b = std::env::temp_dir().join(format!("cp-failover-b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let server_a = cp_rpc::spawn_server(ServerConfig {
        max_accepts: Some(1),
        data_dir: Some(dir_a.clone()),
        chaos: Some(FaultPlan::kill_after_frames(10)),
        ..ServerConfig::default()
    })
    .expect("spawn doomed home server");
    // replacement server B: a different, freshly-created data dir — A's
    // WAL is unreachable, everything must come from the journal
    let server_b = cp_rpc::spawn_server(ServerConfig {
        data_dir: Some(dir_b.clone()),
        ..ServerConfig::default()
    })
    .expect("spawn replacement server");

    let client_cfg = ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(300)),
        connect_retries: 3,
        retry_backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        fallback_addrs: vec![server_b.addr().to_string()],
        ..ClientConfig::default()
    };
    let mut remote =
        RpcCoordinator::connect_with(&problem, &[server_a.addr()], &opts(), &client_cfg)
            .expect("connect to home server");
    assert_eq!(remote.status(), &reference_statuses[0][..], "fresh status");
    let baseline = cp_obs::snapshot();

    for (i, &row) in rows.iter().enumerate() {
        remote
            .clean(row)
            .expect("every clean must survive the replacement");
        assert_eq!(
            remote.status(),
            &reference_statuses[i + 1][..],
            "status diverged after row {row}"
        );
    }
    assert_eq!(remote.converged(), reference_converged);
    assert_eq!(remote.n_cleaned(), rows.len());

    // ---- the exact recovery ledger ---------------------------------------
    let failovers = remote.failover_count();
    let replayed = remote.pins_replayed_count();
    assert_eq!(failovers, 1, "exactly one failover cures the dead server");
    assert_eq!(
        replayed, 3,
        "the kill lands mid-run: the three acknowledged pins replay"
    );
    let diff = cp_obs::snapshot().diff(&baseline);
    assert_eq!(
        diff.counter("rpc.client.failovers"),
        failovers,
        "the coordinator tally and the registry agree on failovers"
    );
    assert_eq!(
        diff.counter("rpc.client.pins_replayed"),
        replayed,
        "the coordinator tally and the registry agree on replayed pins"
    );
    assert_eq!(
        diff.counter("rpc.fault.kills"),
        1,
        "the scripted kill fired exactly once"
    );

    // the replacement server counts replayed + live steps exactly as if it
    // had served the whole run (retransmitted duplicates dedup silently);
    // the dead home server counts exactly what it acknowledged
    let mut session_steps: Vec<u64> = diff
        .counters
        .iter()
        .filter(|(name, &v)| name.contains(".session.") && name.ends_with(".steps") && v > 0)
        .map(|(_, &v)| v)
        .collect();
    session_steps.sort_unstable();
    assert_eq!(session_steps.len(), 2, "one session on each server");
    assert_eq!(
        session_steps[1],
        rows.len() as u64,
        "replacement = replayed + live = the whole run"
    );
    assert_eq!(
        session_steps[0], replayed,
        "home server applied exactly the journaled pins"
    );

    remote.shutdown().expect("shutdown coordinator");
    server_b.stop();
    server_a.stop();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
