//! The `shard-server` binary as a real process: every test here starts the
//! built executable, reads the `shard-server listening on ADDR` line it
//! prints after binding an ephemeral loopback port, and drives it over TCP.
//!
//! * two `--data-dir` server processes serve one coordinator whose greedy
//!   picks, every status vector and convergence equal the in-process
//!   `CleaningSession`'s, with every pin fsync'd to its owner's log;
//! * a session's write-ahead log survives `SIGKILL`: a restart on the same
//!   data dir replays it, acknowledges an idempotent `Step` retransmit,
//!   keeps cleaning, and `Close` deletes the log;
//! * `--chaos 42` injures a clean client's run on the server's response
//!   path, and the run stays bit-identical to the fault-free oracle;
//! * one pooled `--data-dir` process serves four concurrent coordinators,
//!   each equal to its isolated run. Its process-wide registry belongs to
//!   this test alone, so the served-step ledger is exact;
//! * malformed arguments exit non-zero without binding.
//!
//! Every child lives in a [`Proc`] guard that kills and reaps it on drop,
//! and the tests run one at a time, so no more than two servers are ever
//! alive at once.

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins, Q2Algorithm, Q2Result};
use cp_rpc::{ClientConfig, OpenShard, Request, RpcCoordinator, ShardClient};
use cp_shard::{build_shard_indexes, capture_streams, local_pins, q2_from_streams_with_algorithm};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Held for a test's whole run: tests start their servers one test at a
/// time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A `shard-server` child process, killed (`SIGKILL`) and reaped on drop.
struct Proc(Child);

impl Proc {
    /// `shard-server --listen 127.0.0.1:0 ARGS…` with stdout piped.
    fn spawn(args: &[&str], stderr: Stdio) -> Proc {
        let child = Command::new(env!("CARGO_BIN_EXE_shard-server"))
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn shard-server");
        Proc(child)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A serving `shard-server` process and the address it bound.
struct Server {
    addr: String,
    _proc: Proc,
}

impl Server {
    fn start(args: &[&str]) -> Server {
        let mut proc = Proc::spawn(args, Stdio::null());
        let mut line = String::new();
        BufReader::new(proc.0.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read the listening line");
        let addr = line
            .trim()
            .strip_prefix("shard-server listening on ")
            .unwrap_or_else(|| panic!("shard-server {args:?} did not start: {line:?}"))
            .to_string();
        Server { addr, _proc: proc }
    }

    fn stats(&self) -> cp_obs::Snapshot {
        ShardClient::connect(&self.addr)
            .and_then(|mut probe| probe.stats(0))
            .expect("process stats over the wire")
    }
}

/// A fresh data directory, removed on drop.
struct DataDir(PathBuf);

impl DataDir {
    fn new(tag: &str) -> DataDir {
        let dir =
            std::env::temp_dir().join(format!("cp-shard-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create data dir");
        DataDir(dir)
    }

    fn arg(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The session write-ahead logs under `dir`.
fn wal_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("read data dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("session-") && name.ends_with(".wal"))
        .collect()
}

/// Two 1-D label clusters plus dirty rows of three candidates straddling
/// the decision boundary, K = 3, binary labels.
fn problem(seed: u64, n_clean: usize, n_dirty: usize, n_val: usize) -> CleaningProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut examples = Vec::new();
    for i in 0..n_clean {
        let center = if i % 2 == 0 { 0.0 } else { 10.0 };
        examples.push(IncompleteExample::complete(
            vec![center + rng.gen_range(-1.5..1.5)],
            i % 2,
        ));
    }
    for _ in 0..n_dirty {
        let candidates = (0..3).map(|_| vec![rng.gen_range(0.0..10.0)]).collect();
        examples.push(IncompleteExample::incomplete(
            candidates,
            rng.gen_range(0usize..2),
        ));
    }
    let n = examples.len();
    let choices =
        |c| -> Vec<Option<usize>> { (0..n).map(|i| (i >= n_clean).then_some(c)).collect() };
    CleaningProblem::new(
        IncompleteDataset::new(examples, 2).expect("valid dataset"),
        CpConfig::new(3),
        (0..n_val).map(|_| vec![rng.gen_range(0.0..10.0)]).collect(),
        choices(0),
        choices(1),
    )
}

fn opts() -> RunOptions {
    RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    }
}

/// The in-process greedy run: picks, the status vector before and after
/// every pick, and convergence.
fn greedy_oracle(problem: &CleaningProblem) -> (Vec<usize>, Vec<Vec<bool>>, bool) {
    let mut local = CleaningSession::new(problem, &opts());
    let mut picks = Vec::new();
    let mut statuses = vec![local.status().to_vec()];
    while let Some(row) = local.step() {
        picks.push(row);
        statuses.push(local.status().to_vec());
    }
    (picks, statuses, local.converged())
}

#[test]
fn two_server_processes_match_the_in_process_session() {
    let _serial = serial();
    let dirs = [DataDir::new("pair-0"), DataDir::new("pair-1")];
    // one data dir per server: their session ids would collide in one
    let servers: Vec<Server> = dirs
        .iter()
        .map(|dir| Server::start(&["--data-dir", dir.arg()]))
        .collect();
    let addrs: Vec<&str> = servers.iter().map(|s| s.addr.as_str()).collect();
    let problem = problem(7, 10, 30, 8);
    let (picks, statuses, converged) = greedy_oracle(&problem);
    assert!(picks.len() >= 2, "the workload must need cleaning");

    let mut remote = RpcCoordinator::connect(&problem, &addrs, &opts()).expect("connect");
    assert_eq!(remote.status(), &statuses[0][..], "fresh status");
    let mut got = Vec::new();
    while let Some(row) = remote.step() {
        got.push(row);
        assert_eq!(
            remote.status(),
            &statuses[got.len()][..],
            "status diverged after pick {}",
            got.len()
        );
    }
    assert_eq!(got, picks, "greedy picks");
    assert_eq!(remote.converged(), converged);

    // each server logged its session's Open record and every pin it owns,
    // fsync'd before the acknowledgement
    let fsyncs: u64 = servers
        .iter()
        .map(|s| s.stats().histogram("store.wal.fsync_us").count())
        .sum();
    assert_eq!(fsyncs as usize, servers.len() + picks.len());
    remote.shutdown().expect("shutdown");
}

/// The whole problem as one shard's `Open` payload.
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
fn a_killed_server_replays_its_log_on_restart() {
    let _serial = serial();
    let dir = DataDir::new("replay");
    let problem = problem(3, 4, 4, 3);
    let dirty: Vec<u32> = problem.dirty_rows().iter().map(|&r| r as u32).collect();
    let step = |row: u32, expect_cleaned: u32| Request::Step {
        session: 1,
        local_row: row,
        expect_cleaned,
    };

    let first = Server::start(&["--data-dir", dir.arg()]);
    let mut client = ShardClient::connect(&first.addr).expect("connect");
    assert_eq!(client.open(open_whole(&problem)).expect("open"), 8);
    assert_eq!(client.session(), 1, "first session of a fresh process");
    client.step(dirty[0], 0).expect("pin");
    client.step(dirty[1], 1).expect("pin");
    // SIGKILL with the session open: no Close, no orderly exit
    drop(first);
    drop(client);
    assert_eq!(wal_files(&dir.0).len(), 1, "the log outlives the process");

    let second = Server::start(&["--data-dir", dir.arg()]);
    let mut client = ShardClient::connect(&second.addr).expect("reconnect");
    assert_eq!(
        client
            .stats(0)
            .expect("stats")
            .counter("store.wal.replayed_records"),
        3,
        "replay = the Open record + both logged pins, exactly once"
    );
    // the crashed coordinator's retransmit: an applied pin with a stale
    // expected count is acknowledged, not re-applied
    client
        .expect_ok(&step(dirty[1], 1))
        .expect("idempotent retransmit onto recovered state");
    for (i, &row) in dirty.iter().enumerate().skip(2) {
        client
            .expect_ok(&step(row, i as u32))
            .expect("continue cleaning on the recovered session");
    }
    let steps: u64 = client
        .stats(1)
        .expect("session stats")
        .counters
        .iter()
        .filter(|(name, _)| name.ends_with(".steps"))
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(steps, 4, "2 replayed + 2 live pins; the retransmit is free");
    client
        .expect_ok(&Request::Close { session: 1 })
        .expect("close");
    assert_eq!(
        wal_files(&dir.0),
        Vec::<String>::new(),
        "Close deletes the log"
    );
}

/// Short read timeouts turn dropped frames into quick typed failures, a
/// deep jittered retry budget outlasts any burst, a short breaker cooldown
/// keeps the half-open probe inside the retry budget, and every request
/// travels in a `Deadline` envelope.
fn chaos_client_cfg() -> ClientConfig {
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
        ..ClientConfig::default()
    }
}

#[test]
fn a_chaos_server_process_leaves_the_run_bit_identical() {
    let _serial = serial();
    let server = Server::start(&["--chaos", "42"]);
    let problem = problem(11, 12, 24, 6);
    let (picks, statuses, converged) = greedy_oracle(&problem);
    // past convergence, sweep every remaining dirty row: more traffic,
    // more chances to misbehave
    let mut local = CleaningSession::new(&problem, &opts());
    picks.iter().for_each(|&row| local.clean(row));
    let sweep: Vec<usize> = problem
        .dirty_rows()
        .into_iter()
        .filter(|row| !picks.contains(row))
        .collect();
    let sweep_statuses: Vec<Vec<bool>> = sweep
        .iter()
        .map(|&row| {
            local.clean(row);
            local.status().to_vec()
        })
        .collect();

    let mut remote =
        RpcCoordinator::connect_with(&problem, &[&server.addr], &opts(), &chaos_client_cfg())
            .expect("connect through the server's faults");
    assert_eq!(remote.status(), &statuses[0][..], "fresh status");
    let mut got = Vec::new();
    while let Some(row) = remote.step() {
        got.push(row);
        assert_eq!(
            remote.status(),
            &statuses[got.len()][..],
            "status diverged after pick {}",
            got.len()
        );
    }
    assert_eq!(got, picks, "greedy picks");
    assert_eq!(remote.converged(), converged);
    for (&row, status) in sweep.iter().zip(&sweep_statuses) {
        remote.clean(row).expect("sweep clean under chaos");
        assert_eq!(remote.status(), &status[..], "status diverged at row {row}");
    }

    // Q2 counts on the first validation point equal the in-process scan's
    let shards = problem.dataset.partition(1);
    let pins = Pins::none(problem.dataset.len());
    let t = &problem.val_x[0];
    let truth: Q2Result<u128> = q2_from_streams_with_algorithm(
        &capture_streams(
            &shards,
            &build_shard_indexes(&shards, problem.config.kernel, t),
            &local_pins(&shards, &pins),
            &problem.config,
        ),
        Q2Algorithm::Auto,
    );
    let q2: Q2Result<u128> = remote
        .q2_with_pins(0, &pins, Q2Algorithm::Auto)
        .expect("q2 under chaos");
    assert_eq!((q2.counts, q2.total), (truth.counts, truth.total));

    // pins replay only through failovers, at most a journal's worth each
    let (failovers, replayed) = (remote.failover_count(), remote.pins_replayed_count());
    assert!(failovers > 0 || replayed == 0);
    assert!(replayed <= failovers * (picks.len() + sweep.len()) as u64);

    // the injection ledger lives in the server process; its Stats reply
    // runs the same schedule, so the fetch is retried
    let injected: u64 = (0..5)
        .find_map(|_| {
            ShardClient::connect_with(&server.addr, &chaos_client_cfg())
                .and_then(|mut probe| probe.stats(0))
                .ok()
        })
        .expect("server stats under chaos")
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("rpc.fault."))
        .map(|(_, &v)| v)
        .sum();
    assert!(injected > 0, "seed 42 must injure this run");
    // best effort: the schedule can eat the teardown too
    let _ = remote.shutdown();
}

#[test]
fn one_pooled_wal_process_serves_concurrent_coordinators_like_isolated_runs() {
    let _serial = serial();
    let dir = DataDir::new("pool");
    let server = Server::start(&["--data-dir", dir.arg()]);
    let problem = problem(5, 20, 20, 8);
    let dirty = problem.dirty_rows();
    // the tests of this binary run one at a time, so this process's
    // registry sees only the tenants' cleans
    let before = cp_obs::snapshot();
    let all_open = Barrier::new(4);
    let runs: Vec<(Vec<usize>, Vec<bool>)> = std::thread::scope(|scope| {
        let tenants: Vec<_> = (0..4u64)
            .map(|c| {
                let (problem, addr, mut order) = (&problem, &server.addr, dirty.clone());
                let all_open = &all_open;
                scope.spawn(move || {
                    order.shuffle(&mut StdRng::seed_from_u64(0xc0fe ^ c));
                    let remote = RpcCoordinator::connect(problem, &[addr], &opts());
                    // all four sessions are live before any steps; a failed
                    // connect still passes the barrier, so no tenant waits
                    // on a dead one
                    all_open.wait();
                    let mut remote = remote.expect("connect");
                    for &row in &order {
                        remote.clean(row).expect("clean");
                    }
                    let status = remote.status().to_vec();
                    remote.shutdown().expect("shutdown");
                    (order, status)
                })
            })
            .collect();
        tenants
            .into_iter()
            .map(|t| t.join().expect("coordinator thread"))
            .collect()
    });
    for (i, (order, status)) in runs.iter().enumerate() {
        assert!(
            runs[..i].iter().all(|(o, _)| o != order),
            "orders must differ"
        );
        let mut local = CleaningSession::new(&problem, &opts());
        order.iter().for_each(|&row| local.clean(row));
        assert_eq!(
            status,
            local.status(),
            "tenant {i} diverged from its isolated run"
        );
    }
    let steps = runs.len() * dirty.len();
    let cleans = cp_obs::snapshot()
        .diff(&before)
        .histogram("rpc.coordinator.clean_us");
    assert_eq!(cleans.count() as usize, steps, "the tenants' clean spans");
    assert_eq!(
        server
            .stats()
            .histogram("rpc.server.latency.step_us")
            .count() as usize,
        steps,
        "the process served exactly the tenants' steps"
    );
    assert_eq!(
        wal_files(&dir.0),
        Vec::<String>::new(),
        "every Close deletes its log"
    );
}

#[test]
fn malformed_arguments_exit_nonzero_without_binding() {
    let _serial = serial();
    for args in [&["--chaos"][..], &["--data-dir"], &["--no-such-flag"]] {
        let mut proc = Proc::spawn(args, Stdio::piped());
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = proc.0.try_wait().expect("poll shard-server") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "shard-server {args:?} kept running"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let read = |pipe: &mut dyn Read| {
            let mut text = String::new();
            pipe.read_to_string(&mut text).expect("read pipe");
            text
        };
        let stdout = read(proc.0.stdout.as_mut().expect("piped stdout"));
        let stderr = read(proc.0.stderr.as_mut().expect("piped stderr"));
        assert!(!status.success(), "shard-server {args:?} exited {status}");
        assert!(
            !stdout.contains("listening"),
            "shard-server {args:?} bound: {stdout}"
        );
        assert!(
            stderr.contains(args[0]),
            "shard-server {args:?} said {stderr:?}"
        );
    }
}
