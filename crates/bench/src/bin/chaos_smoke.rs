//! CI chaos smoke: a full loopback cleaning run driven through three
//! seeded fault schedules — drop-heavy, delay-heavy, corrupt-heavy — each
//! asserted **bit-identical** to the fault-free in-process run: the greedy
//! pick sequence, every intermediate status vector, the convergence flag
//! and a Q2 spot check. The recovery ledger is printed per profile and held
//! self-consistent (pins replay only through failovers), and every profile
//! must actually injure the run (a schedule that never fires would make
//! the smoke vacuous).
//!
//! Two modes:
//!
//! * self-contained (default): in-process servers, **client-side** fault
//!   injection — the coordinator's outgoing frames are dropped, delayed,
//!   bit-flipped, truncated, duplicated; dials are refused.
//! * `--connect ADDR[,ADDR]`: drives externally launched `shard-server
//!   --chaos SEED` processes — **server-side** injection on the response
//!   path of a real process, the production `--chaos` flag end to end. The
//!   client stays clean; its read timeout + retry/reconnect stack must
//!   absorb whatever the server's schedule does, including mid-stream
//!   connection kills. Teardown is best-effort (the server's schedule
//!   cannot be paused from here), and the server process itself is the
//!   harness's to stop: a wire-level `Shutdown` only ends one connection —
//!   a multi-tenant pool must not be killable by one tenant — so CI
//!   `kill`s the process after this binary exits.
//!
//! CI runs the self-contained mode under the default and the
//! spill-everything (`CP_SPILL_THRESHOLD=0`) regimes — recovery must not
//! care where the coordinator keeps its status streams.

use cp_bench::{synthetic_problem, Reporter};
use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::{Pins, Q2Algorithm, Q2Result};
use cp_rpc::{spawn_server, ClientConfig, FaultPlan, RpcCoordinator, ServerConfig, ShardClient};
use cp_shard::{build_shard_indexes, capture_streams, local_pins, q2_from_streams_with_algorithm};
use std::time::Duration;

fn opts() -> RunOptions {
    RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    }
}

/// Retry/timeout knobs sized for chaos: short read timeouts turn dropped
/// frames into quick typed failures, a deep jittered retry budget outlasts
/// any burst, a short breaker cooldown keeps the half-open probe inside the
/// retry budget, and every request ships a generous wire deadline so the
/// envelope path runs end to end.
fn chaos_client_cfg(plan: Option<FaultPlan>) -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(100)),
        write_timeout: Some(Duration::from_millis(500)),
        connect_retries: 16,
        retry_backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        retry_jitter_seed: 0x5eed,
        breaker_cooldown: Duration::from_millis(25),
        request_deadline: Some(Duration::from_secs(2)),
        chaos: plan,
        ..ClientConfig::default()
    }
}

struct ProfileOutcome {
    name: &'static str,
    picks: usize,
    swept: usize,
    reconnects: u64,
    failovers: u64,
    pins_replayed: u64,
    faults: Vec<(String, u64)>,
}

/// Run one chaotic cleaning session against `addrs` and assert it
/// bit-identical to the fault-free oracle. `plan` is the client-side
/// schedule (`None` in `--connect` mode, where the server injects).
fn run_profile(
    name: &'static str,
    problem: &CleaningProblem,
    addrs: &[String],
    plan: Option<FaultPlan>,
) -> ProfileOutcome {
    let n_shards = addrs.len();

    // fault-free oracle: the single-process session — a greedy run to
    // convergence, then a sweep of every remaining dirty row (the smoke
    // must outlast one lucky pick; more traffic, more chances to misbehave)
    let mut local = CleaningSession::new(problem, &opts());
    let mut expected_picks = Vec::new();
    let mut expected_statuses = vec![local.status().to_vec()];
    while let Some(row) = local.step() {
        expected_picks.push(row);
        expected_statuses.push(local.status().to_vec());
    }
    let expected_converged = local.converged();
    let sweep: Vec<usize> = problem
        .dirty_rows()
        .into_iter()
        .filter(|row| !expected_picks.contains(row))
        .collect();
    let mut sweep_statuses = Vec::with_capacity(sweep.len());
    for &row in &sweep {
        local.clean(row);
        sweep_statuses.push(local.status().to_vec());
    }

    if let Some(plan) = &plan {
        plan.pause(); // connect clean: the journal must exist before faults do
    }
    let before = cp_obs::snapshot();
    let cfg = chaos_client_cfg(plan.clone());
    let mut remote =
        RpcCoordinator::connect_with(problem, addrs, &opts(), &cfg).expect("connect coordinator");
    assert_eq!(remote.status(), &expected_statuses[0][..], "fresh status");

    if let Some(plan) = &plan {
        plan.resume();
    }
    let mut picks = Vec::new();
    while let Some(row) = remote.step() {
        picks.push(row);
        assert_eq!(
            remote.status(),
            &expected_statuses[picks.len()][..],
            "[{name}] status diverged after pick {}",
            picks.len()
        );
    }
    assert_eq!(picks, expected_picks, "[{name}] greedy pick sequence");
    assert_eq!(remote.converged(), expected_converged, "[{name}] converged");
    for (i, &row) in sweep.iter().enumerate() {
        remote.clean(row).expect("sweep clean under chaos");
        assert_eq!(
            remote.status(),
            &sweep_statuses[i][..],
            "[{name}] status diverged sweeping row {row}"
        );
    }

    // Q2 spot check on the first validation point — the scan path, under
    // whatever schedule budget remains armed
    let shards = problem.dataset.partition(n_shards);
    let pins = Pins::none(problem.dataset.len());
    let shard_pins = local_pins(&shards, &pins);
    let t = &problem.val_x[0];
    let indexes = build_shard_indexes(&shards, problem.config.kernel, t);
    let truth: Q2Result<u128> = q2_from_streams_with_algorithm(
        &capture_streams(&shards, &indexes, &shard_pins, &problem.config),
        Q2Algorithm::Auto,
    );
    let got: Q2Result<u128> = remote
        .q2_with_pins(0, &pins, Q2Algorithm::Auto)
        .expect("q2 under chaos");
    assert_eq!(got.counts, truth.counts, "[{name}] q2 counts");
    assert_eq!(got.total, truth.total, "[{name}] q2 total");

    // recovery ledger: self-consistent, and the schedule actually fired
    let failovers = remote.failover_count();
    let pins_replayed = remote.pins_replayed_count();
    if failovers == 0 {
        assert_eq!(
            pins_replayed, 0,
            "[{name}] pins cannot replay without a failover"
        );
    }
    assert!(
        pins_replayed <= failovers * (expected_picks.len() + sweep.len()) as u64,
        "[{name}] {pins_replayed} pins replayed across {failovers} failovers"
    );
    let diff = cp_obs::snapshot().diff(&before);
    let mut faults: Vec<(String, u64)> = diff
        .counters
        .iter()
        .filter(|(k, &v)| k.starts_with("rpc.fault.") && v > 0)
        .map(|(k, &v)| (k.clone(), v))
        .collect();
    faults.sort();
    let reconnects = diff.counter("rpc.client.reconnects");

    match &plan {
        Some(plan) => {
            plan.pause(); // teardown clean
            remote.shutdown().expect("shutdown coordinator");
        }
        None => {
            // server-side injection: the counters live in the server
            // process — pull each server's injection ledger over the
            // wire-level Stats endpoint (retried: the schedule can
            // sabotage the Stats response too) and prove the schedule
            // actually fired
            let mut merged: std::collections::BTreeMap<String, u64> = Default::default();
            for addr in addrs {
                let snap = (0..5)
                    .find_map(|_| {
                        ShardClient::connect_with(addr, &chaos_client_cfg(None))
                            .ok()
                            .and_then(|mut c| c.stats(0).ok())
                    })
                    .unwrap_or_else(|| panic!("[{name}] fetch server stats from {addr}"));
                for (k, v) in &snap.counters {
                    if k.starts_with("rpc.fault.") && *v > 0 {
                        *merged.entry(k.clone()).or_default() += v;
                    }
                }
            }
            faults = merged.into_iter().collect();
            let injected: u64 = faults.iter().map(|(_, v)| v).sum();
            assert!(
                injected > 0,
                "[{name}] the server's schedule never fired — launch shard-server \
                 --chaos with a seed that injures this workload"
            );
            // teardown is best-effort (the server's schedule cannot be
            // paused from here; the session dies with the process anyway)
            let _ = remote.shutdown();
        }
    }

    ProfileOutcome {
        name,
        picks: picks.len(),
        swept: sweep.len(),
        reconnects,
        failovers,
        pins_replayed,
        faults,
    }
}

fn main() {
    let r = Reporter;
    let mut seed = 7u64;
    let mut connect: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().expect("--seed requires a u64");
                seed = v.parse().expect("--seed requires a u64");
            }
            "--connect" => {
                connect = Some(args.next().expect("--connect requires ADDR[,ADDR]"));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let problem = synthetic_problem(40, 3, 3, 11);
    r.section("Chaos smoke: seeded fault schedules vs the fault-free oracle");
    r.note(&format!(
        "problem: N=40 M=3 |val|=3, {} dirty rows; base seed {seed}",
        problem.dirty_rows().len()
    ));

    let outcomes: Vec<ProfileOutcome> = match &connect {
        // server-side injection against real `shard-server --chaos` processes:
        // one pass (the server owns the schedule; profiles are its concern)
        Some(addrs) => {
            let addrs: Vec<String> = addrs.split(',').map(str::to_string).collect();
            r.note(&format!(
                "external server-side injection: {} shard-server process(es)",
                addrs.len()
            ));
            vec![run_profile("server-chaos", &problem, &addrs, None)]
        }
        // client-side injection, three heavy profiles, two in-process shards
        None => {
            type Profile = (&'static str, fn(u64) -> FaultPlan);
            let profiles: [Profile; 3] = [
                ("drop_heavy", FaultPlan::drop_heavy),
                ("delay_heavy", FaultPlan::delay_heavy),
                ("corrupt_heavy", FaultPlan::corrupt_heavy),
            ];
            profiles
                .iter()
                .enumerate()
                .map(|(i, (name, make))| {
                    // the coordinator is frame-frugal (cached scores, few
                    // messages per pick), so a per-mille schedule can roll
                    // through a whole run without firing — walk derived
                    // sub-seeds (deterministically) until this profile
                    // actually injures the run; every attempt is asserted
                    // bit-identical either way
                    let mut attempt = 0u64;
                    loop {
                        // a bounded budget guarantees a clean tail, so the
                        // run always converges; short delays keep it quick
                        let plan = make(seed ^ ((i as u64) << 32) ^ (attempt << 16))
                            .with_budget(12)
                            .with_delay(Duration::from_millis(1));
                        plan.pause();
                        let servers: Vec<_> = (0..2)
                            .map(|_| spawn_server(ServerConfig::default()).expect("spawn server"))
                            .collect();
                        let addrs: Vec<String> =
                            servers.iter().map(|s| s.addr().to_string()).collect();
                        let out = run_profile(name, &problem, &addrs, Some(plan));
                        for s in servers {
                            s.stop();
                        }
                        if !out.faults.is_empty() {
                            break out;
                        }
                        attempt += 1;
                        assert!(
                            attempt < 8,
                            "[{name}] no sub-seed schedule fired in 8 runs — vacuous smoke"
                        );
                    }
                })
                .collect()
        }
    };

    println!();
    println!(
        "| profile | picks+sweep | injected faults | reconnects | failovers | pins replayed |"
    );
    println!(
        "|---------|------------:|-----------------|-----------:|----------:|--------------:|"
    );
    for o in &outcomes {
        let faults = if o.faults.is_empty() {
            String::from("(in server process)")
        } else {
            o.faults
                .iter()
                .map(|(k, v)| format!("{}={v}", k.trim_start_matches("rpc.fault.")))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "| {} | {}+{} | {} | {} | {} | {} |",
            o.name, o.picks, o.swept, faults, o.reconnects, o.failovers, o.pins_replayed
        );
    }
    println!();
    r.note(
        "every profile finished bit-identical to the fault-free oracle: picks, every \
         intermediate status vector, convergence, and a Q2 spot check",
    );
}
