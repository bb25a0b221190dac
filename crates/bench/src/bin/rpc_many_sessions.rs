//! Multi-tenant serving experiment: {1, 2, 4, 8} concurrent coordinators —
//! each an independent cleaning session — multiplexed over **one** pool
//! shard-server, reporting aggregate steps/sec and per-step p50/p99
//! latency against the single-session serial baseline, on a pool server it
//! spawns on an ephemeral loopback port. (The same pool shape in a real
//! `shard-server` process is the `cp-rpc` integration test
//! `shard_server_process`.)
//!
//! Every coordinator cleans a distinct random order, and its final CP
//! status is cross-checked against an **isolated** in-process
//! [`CleaningSession`] run of the same order — concurrent tenants must be
//! bit-indistinguishable from isolated runs. The run also reports the
//! on-wire size of the workload's scan streams (the dominant message
//! class); the codec's ≥3× compression floor is the unit test
//! `codec::tests::delta_encoding_shrinks_the_dominant_message_class`.
//!
//! Per-fleet step counts and p50/p99 latencies come from the production
//! `cp-obs` registry (snapshot diffs over the coordinator's
//! `rpc.coordinator.clean_us` histogram), not a bench-private stopwatch —
//! the numbers reported here are the numbers operators will see. After the
//! fleets finish, a probe connection fetches the server's registry over
//! the wire-level `Stats` request and fails the run if the served-step
//! ledger does not sum to exactly `(1+2+4+8) × |dirty rows|`.
//!
//! `--chaos SEED` appends a second fleet sweep against a dedicated server
//! with seeded client-side fault injection armed ([`cp_rpc::FaultPlan::light`]:
//! ~1% of outgoing frames dropped/delayed/bit-flipped/duplicated, ~1% of
//! dials refused). Every tenant must still finish bit-identical to its
//! isolated run — the column reports the throughput/p99 cost of riding
//! through the faults, plus the recovery ledger (reconnects, failovers,
//! replayed pins) that paid for it. The chaos sweep uses its own server so
//! the fault-free server's Stats-probe step ledger stays exact
//! (deduplicated retransmits still record serve latency).
//!
//! Results land in `BENCH_rpc_many_sessions.json` (hand-rolled JSON, no
//! dependencies). On a single-CPU host the fleets time-slice one core, so
//! aggregate throughput cannot exceed the serial baseline — the run prints
//! that caveat instead of a hollow speedup number.

use cp_bench::{synthetic_problem, Reporter};
use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::Pins;
use cp_rpc::{
    encode_stream, spawn_server, ClientConfig, FaultPlan, Request, RpcCoordinator, ServerConfig,
    ShardClient,
};
use cp_shard::{build_shard_indexes, ShardStream};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const FLEETS: [usize; 4] = [1, 2, 4, 8];

struct FleetResult {
    coordinators: usize,
    steps: usize,
    wall_s: f64,
    steps_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    busy_retries: u64,
    reconnects: u64,
    failovers: u64,
    pins_replayed: u64,
}

/// Retry/timeout knobs sized for the chaos sweep: short read timeouts turn
/// dropped frames into quick typed failures, a deep jittered retry budget
/// outlasts any fault burst, and a short breaker cooldown keeps the
/// half-open probe inside the retry budget.
fn chaos_client_cfg(seed: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(100)),
        write_timeout: Some(Duration::from_millis(500)),
        connect_retries: 16,
        retry_backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        retry_jitter_seed: seed,
        breaker_cooldown: Duration::from_millis(25),
        chaos: Some(FaultPlan::light(seed)),
        ..ClientConfig::default()
    }
}

/// The barriers a coordinator thread has yet to pass, in order. A thread
/// that fails passes the rest as it unwinds, so the main thread never
/// waits on a dead worker and reports the failure after `join` instead.
struct Rendezvous(Vec<Arc<Barrier>>);

impl Drop for Rendezvous {
    fn drop(&mut self) {
        for barrier in self.0.drain(..) {
            barrier.wait();
        }
    }
}

/// Run `fleet` concurrent coordinators against `addr`, each cleaning its
/// own shuffled order; returns the aggregate result after cross-checking
/// every tenant's final status against an isolated in-process run.
///
/// Step counts and latency quantiles are read from the production registry
/// — a snapshot diff over `rpc.coordinator.clean_us` (every worker records
/// into the one process-wide histogram) — taken right after the workers
/// join, before the in-process cross-check muddies the registry. The wall
/// clock covers the cleaning runs only: it stops at the teardown barrier,
/// before session shutdown.
fn run_fleet(
    problem: &CleaningProblem,
    addr: &str,
    fleet: usize,
    opts: &RunOptions,
    cfg: &ClientConfig,
) -> FleetResult {
    let before = cp_obs::snapshot();
    let barrier = Arc::new(Barrier::new(fleet + 1));
    // teardown rendezvous: the measured run ends at `done`; the main thread
    // then pauses any armed fault plan before `calm` releases the workers
    // into shutdown — session teardown is deliberate, not recovery-wrapped,
    // so it must not race the fault schedule (the chaos suites pause before
    // teardown for the same reason)
    let done = Arc::new(Barrier::new(fleet + 1));
    let calm = Arc::new(Barrier::new(fleet + 1));
    let mut workers = Vec::with_capacity(fleet);
    for c in 0..fleet {
        let problem = problem.clone();
        let addr = addr.to_string();
        let mut meet = Rendezvous(vec![barrier.clone(), done.clone(), calm.clone()]);
        let opts = opts.clone();
        let cfg = cfg.clone();
        workers.push(std::thread::spawn(move || -> (Vec<bool>, Vec<usize>) {
            let mut order = problem.dirty_rows();
            order.shuffle(&mut StdRng::seed_from_u64(0xc0fe ^ c as u64));
            let mut remote = RpcCoordinator::connect_with(&problem, &[addr], &opts, &cfg)
                .expect("connect coordinator");
            meet.0.remove(0).wait(); // all sessions open before any steps
            for &row in &order {
                remote.clean(row).expect("clean over rpc");
            }
            let status = remote.status().to_vec();
            meet.0.remove(0).wait(); // done
            meet.0.remove(0).wait(); // calm
            remote.shutdown().expect("shutdown");
            (status, order)
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    done.wait();
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(plan) = &cfg.chaos {
        plan.pause();
    }
    calm.wait();
    let finished: Vec<_> = workers.into_iter().filter_map(|w| w.join().ok()).collect();
    assert_eq!(finished.len(), fleet, "coordinator threads failed");
    let diff = cp_obs::snapshot().diff(&before);
    let clean_hist = diff.histogram("rpc.coordinator.clean_us");

    // every tenant == the isolated run of its order, bit-for-bit
    for (status, order) in finished {
        let mut local = CleaningSession::new(problem, opts);
        for &row in &order {
            local.clean(row);
        }
        assert_eq!(
            status,
            local.status(),
            "a concurrent tenant diverged from its isolated run"
        );
    }
    let steps = clean_hist.count() as usize;
    assert_eq!(
        steps,
        fleet * problem.dirty_rows().len(),
        "the registry's clean-span count must equal the steps the fleet ran \
         (zero means metrics are compiled out — this bench needs them live)"
    );
    FleetResult {
        coordinators: fleet,
        steps,
        wall_s,
        steps_per_s: steps as f64 / wall_s,
        p50_us: clean_hist.p50(),
        p99_us: clean_hist.p99(),
        busy_retries: diff.counter("rpc.client.busy_retries"),
        reconnects: diff.counter("rpc.client.reconnects"),
        failovers: diff.counter("rpc.client.failovers"),
        pins_replayed: diff.counter("rpc.client.pins_replayed"),
    }
}

/// On-wire size of the workload's scan streams, one per validation point
/// over the whole dataset.
fn wire_bytes(problem: &CleaningProblem) -> usize {
    let shards = problem.dataset.partition(1);
    let pins = Pins::none(problem.dataset.len());
    let k = problem.config.k_eff(problem.dataset.len());
    let mut delta = 0usize;
    for t in problem.val_x.iter() {
        let indexes = build_shard_indexes(&shards, problem.config.kernel, t);
        let stream: ShardStream<f64> = ShardStream::capture(&shards[0], &indexes[0], &pins, k);
        delta += encode_stream(&stream).len();
    }
    delta
}

fn main() {
    let r = Reporter;
    let mut smoke = false;
    let mut chaos_seed: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--chaos" => {
                let seed = args.next().expect("--chaos requires a u64 seed");
                chaos_seed = Some(seed.parse().expect("--chaos requires a u64 seed"));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let (n, m, n_val) = if smoke { (40, 3, 3) } else { (120, 4, 6) };
    let problem = synthetic_problem(n, m, n_val, 11);
    let opts = RunOptions {
        record_every: usize::MAX,
        ..RunOptions::default()
    };
    let n_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    r.section("Multi-tenant serving: concurrent coordinators over one pool shard-server");
    r.note(&format!(
        "problem: N={n} M={m} |val|={n_val}, {} dirty rows per session; host CPUs: {n_cpus}",
        problem.dirty_rows().len()
    ));

    // delta-compressed scan streams on this exact workload
    let delta_bytes = wire_bytes(&problem);
    r.note(&format!(
        "scan streams on the wire: {delta_bytes} B (delta encoding)"
    ));

    let server = spawn_server(ServerConfig::default()).expect("spawn pool server");
    let addr = server.addr().to_string();
    r.note(&format!("self-spawned pool server on {addr}"));

    let results: Vec<FleetResult> = FLEETS
        .iter()
        .map(|&fleet| run_fleet(&problem, &addr, fleet, &opts, &ClientConfig::default()))
        .collect();

    // wire-level Stats probe: pull the server's registry and check the
    // served steps against the exact work the fleets did
    let total_steps: usize = FLEETS.iter().sum::<usize>() * problem.dirty_rows().len();
    let mut probe = ShardClient::connect(&addr).expect("probe connect");
    let server_stats = probe.stats(0).expect("wire-level Stats");
    // per-session counters are unregistered when a session closes (closed
    // sessions must not accumulate in the registry forever), and every
    // fleet session is closed by now — the process-wide step-latency
    // histogram is the ledger that survives
    let served_steps = server_stats.histogram("rpc.server.latency.step_us").count();
    assert_eq!(
        served_steps as usize, total_steps,
        "the server's served-step ledger must sum to the fleets' steps"
    );
    let busy = server_stats.counter("rpc.server.busy_rejections");
    let step_lat = server_stats.histogram("rpc.server.latency.step_us");
    r.note(&format!(
        "wire-level Stats: server counted {served_steps} steps across {} sessions, \
         {busy} busy rejections, step p99 {:.0}µs",
        FLEETS.iter().sum::<usize>(),
        step_lat.p99()
    ));
    probe
        .expect_ok(&Request::Shutdown)
        .expect("shutdown probe connection");
    server.stop();

    // chaos sweep: the same fleets against a dedicated server, with ~1% of
    // every coordinator's outgoing frames sabotaged on a seeded schedule —
    // the cross-check inside run_fleet still demands bit-identical results
    let mut injected_faults: Vec<(String, u64)> = Vec::new();
    let chaos_results: Vec<FleetResult> = match chaos_seed {
        Some(seed) => {
            let chaos_server = spawn_server(ServerConfig::default()).expect("spawn chaos server");
            let chaos_addr = chaos_server.addr().to_string();
            r.note(&format!(
                "chaos sweep (seed {seed}): FaultPlan::light on every client, server {chaos_addr}"
            ));
            let before = cp_obs::snapshot();
            let out = FLEETS
                .iter()
                .map(|&fleet| {
                    // decorrelate the per-fleet schedules, keep each exact
                    let cfg = chaos_client_cfg(seed ^ ((fleet as u64) << 32));
                    run_fleet(&problem, &chaos_addr, fleet, &opts, &cfg)
                })
                .collect();
            // the injection ledger proves the sweep actually hurt: a seed
            // whose schedule never fires would make the column vacuous
            injected_faults = cp_obs::snapshot()
                .diff(&before)
                .counters
                .iter()
                .filter(|(name, &v)| name.starts_with("rpc.fault.") && v > 0)
                .map(|(name, &v)| (name.clone(), v))
                .collect();
            injected_faults.sort();
            let total: u64 = injected_faults.iter().map(|(_, v)| v).sum();
            assert!(
                total > 0,
                "the chaos sweep injected nothing — pick a seed whose schedule fires"
            );
            r.note(&format!(
                "injected faults: {}",
                injected_faults
                    .iter()
                    .map(|(name, v)| format!("{}={v}", name.trim_start_matches("rpc.fault.")))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            chaos_server.stop();
            out
        }
        None => Vec::new(),
    };

    let serial = results[0].steps_per_s;
    println!();
    println!(
        "| coordinators | steps | wall (s) | agg steps/s | p50 (µs) | p99 (µs) | busy/reconn | vs serial |"
    );
    println!(
        "|-------------:|------:|---------:|------------:|---------:|---------:|------------:|----------:|"
    );
    for res in &results {
        println!(
            "| {} | {} | {:.3} | {:.0} | {:.0} | {:.0} | {}/{} | {:.2}x |",
            res.coordinators,
            res.steps,
            res.wall_s,
            res.steps_per_s,
            res.p50_us,
            res.p99_us,
            res.busy_retries,
            res.reconnects,
            res.steps_per_s / serial
        );
    }
    println!();
    if !chaos_results.is_empty() {
        println!(
            "| chaos coordinators | steps | agg steps/s | p99 (µs) | vs fault-free | reconn | failovers | pins replayed |"
        );
        println!(
            "|-------------------:|------:|------------:|---------:|--------------:|-------:|----------:|--------------:|"
        );
        for (res, clean) in chaos_results.iter().zip(&results) {
            println!(
                "| {} | {} | {:.0} | {:.0} | {:.2}x | {} | {} | {} |",
                res.coordinators,
                res.steps,
                res.steps_per_s,
                res.p99_us,
                res.steps_per_s / clean.steps_per_s,
                res.reconnects,
                res.failovers,
                res.pins_replayed,
            );
        }
        println!();
        r.note(
            "chaos sweep: ~1% frame faults on every coordinator — results stayed bit-identical; \
             the columns above are the price of recovery",
        );
    }
    r.note("verified: every concurrent tenant's final status == its isolated in-process run");
    r.note("latency quantiles are the production rpc.coordinator.clean_us histogram (√2 buckets)");
    if n_cpus < 2 {
        r.note(
            "caveat: single-CPU host — the fleets time-slice one core, so aggregate \
             throughput cannot exceed the serial baseline here; on a multi-core host the \
             sessions step in parallel (shared immutable shard data, per-session locks)",
        );
    }

    // hand-rolled JSON (no dependencies) — the benchmark artifact
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"rpc_many_sessions\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"n_cpus\": {n_cpus},\n"));
    json.push_str(&format!(
        "  \"scan_stream_bytes\": {{\"delta\": {delta_bytes}}},\n"
    ));
    json.push_str(&format!(
        "  \"stats_endpoint\": {{\"server_steps\": {served_steps}, \"busy_rejections\": {busy}, \
         \"step_p50_us\": {:.1}, \"step_p99_us\": {:.1}}},\n",
        step_lat.p50(),
        step_lat.p99()
    ));
    json.push_str("  \"fleets\": [\n");
    for (i, res) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"coordinators\": {}, \"steps\": {}, \"wall_s\": {:.4}, \"steps_per_s\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"busy_retries\": {}, \"reconnects\": {}, \
             \"speedup_vs_serial\": {:.3}}}{}\n",
            res.coordinators,
            res.steps,
            res.wall_s,
            res.steps_per_s,
            res.p50_us,
            res.p99_us,
            res.busy_retries,
            res.reconnects,
            res.steps_per_s / serial,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    match chaos_seed {
        Some(seed) if !chaos_results.is_empty() => {
            json.push_str(&format!("  \"chaos\": {{\n    \"seed\": {seed},\n"));
            json.push_str(&format!(
                "    \"injected_faults\": {{{}}},\n",
                injected_faults
                    .iter()
                    .map(|(name, v)| format!("\"{}\": {v}", name.trim_start_matches("rpc.fault.")))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            json.push_str("    \"fleets\": [\n");
            for (i, (res, clean)) in chaos_results.iter().zip(&results).enumerate() {
                json.push_str(&format!(
                    "      {{\"coordinators\": {}, \"steps\": {}, \"wall_s\": {:.4}, \
                     \"steps_per_s\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                     \"vs_fault_free\": {:.3}, \"busy_retries\": {}, \"reconnects\": {}, \
                     \"failovers\": {}, \"pins_replayed\": {}}}{}\n",
                    res.coordinators,
                    res.steps,
                    res.wall_s,
                    res.steps_per_s,
                    res.p50_us,
                    res.p99_us,
                    res.steps_per_s / clean.steps_per_s,
                    res.busy_retries,
                    res.reconnects,
                    res.failovers,
                    res.pins_replayed,
                    if i + 1 < chaos_results.len() { "," } else { "" }
                ));
            }
            json.push_str("    ]\n  }\n");
        }
        _ => json.push_str("  \"chaos\": null\n"),
    }
    json.push_str("}\n");
    std::fs::write("BENCH_rpc_many_sessions.json", &json).expect("write benchmark artifact");
    r.note("wrote BENCH_rpc_many_sessions.json");
}
