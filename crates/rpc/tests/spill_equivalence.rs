//! Out-of-core equivalence: spilled on-disk runs are indistinguishable from
//! the in-RAM streams they were written from.
//!
//! For random small cleaning problems and shard counts `{1, 2, 3, 7}`:
//!
//! * a merged scan over streams spilled as their wire bytes and read back
//!   from the run files ([`CachedStream::load`]) is **bit-identical** —
//!   counts and totals, `f64` included — to the in-RAM scan, in every wire
//!   semiring, under empty and random pin masks, all-disk and mixed with
//!   in-RAM entries alike;
//! * an [`RpcCoordinator`] with `spill_threshold = Some(0)` (every cached
//!   base stream goes to disk) cleans over real sockets bit-identically to
//!   an all-RAM coordinator, and actually spills;
//! * a spilled run damaged on disk between two greedy steps makes the next
//!   selection a typed error.

use cp_clean::{CleaningProblem, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins, Q2Result};
use cp_numeric::Possibility;
use cp_rpc::{
    encode_stream, spawn_server, CachedStream, ClientConfig, RpcCoordinator, RpcError,
    RunningServer, ServerConfig, WireSemiring,
};
use cp_shard::{
    build_shard_indexes, capture_streams, local_pins, merged_scan_sources, q2_from_streams,
    ShardStream,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// A fresh scratch directory per call, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cp-spill-eq-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A random small cleaning problem — the same family as the coordinator
/// equivalence suite: binary and 3-label spaces, 1-D points on an integer
/// grid (so `f64` arithmetic is reproducible exactly), every row holding
/// 1–3 candidates.
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

fn random_pins(problem: &CleaningProblem, rng: &mut StdRng) -> Pins {
    let ds = &problem.dataset;
    let mut pins = Pins::none(ds.len());
    for i in 0..ds.len() {
        if ds.set_size(i) > 1 && rng.gen_bool(0.5) {
            pins.pin(i, rng.gen_range(0..ds.set_size(i)));
        }
    }
    pins
}

/// Spill every stream under `dir` as its wire bytes; `ram` keeps the
/// odd-numbered shards in RAM instead (a mixed scan).
fn cache_all<S: WireSemiring>(
    dir: &TestDir,
    tag: &str,
    streams: &[ShardStream<S>],
    ram: bool,
) -> Vec<CachedStream<S>> {
    streams
        .iter()
        .enumerate()
        .map(|(s, st)| {
            if ram && s % 2 == 1 {
                CachedStream::Ram(st.clone())
            } else {
                let path = dir.0.join(format!("{tag}-s{s}.run"));
                CachedStream::spill(&path, &encode_stream(st), st).expect("spill")
            }
        })
        .collect()
}

/// One semiring's full check: the in-RAM merged scan vs the all-disk and
/// the mixed RAM/disk scans, every spilled stream read back from its file
/// through [`CachedStream::load`], all bit-identical.
fn check_semiring<S>(dir: &TestDir, tag: &str, streams: &[ShardStream<S>])
where
    S: WireSemiring + PartialEq + std::fmt::Debug,
{
    let expect: Q2Result<S> = q2_from_streams(streams);
    let n_labels = streams[0].n_labels();
    let k = streams[0].k();
    for (ram, what) in [(false, "all-disk"), (true, "mixed")] {
        let cached = cache_all(dir, &format!("{tag}-{what}"), streams, ram);
        let loaded = cached
            .iter()
            .map(CachedStream::load)
            .collect::<Result<Vec<_>, _>>()
            .expect("load");
        let mut cursors: Vec<_> = loaded.iter().map(|st| st.cursor()).collect();
        let got = merged_scan_sources(&mut cursors, n_labels, k, None, |_| false);
        assert_eq!(got.counts, expect.counts, "{tag}: {what} counts");
        assert_eq!(got.total, expect.total, "{tag}: {what} total");
    }
}

fn opts(n_threads: usize) -> RunOptions {
    RunOptions {
        max_cleaned: None,
        n_threads,
        record_every: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Merged scans over spilled runs are bit-identical to the in-RAM
    /// scans, in every wire semiring, for shard counts {1, 2, 3, 7}, under
    /// empty and random pin masks — all-disk and mixed alike.
    #[test]
    fn spilled_scans_are_bit_identical_in_every_semiring((problem, seed) in arb_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5b11);
        let dir = TestDir::new();
        let cfg = &problem.config;
        for n_shards in SHARD_COUNTS {
            let shards = problem.dataset.partition(n_shards);
            for round in 0..2 {
                let pins = if round == 0 {
                    Pins::none(problem.dataset.len())
                } else {
                    random_pins(&problem, &mut rng)
                };
                let shard_pins = local_pins(&shards, &pins);
                for (v, t) in problem.val_x.iter().enumerate() {
                    let indexes = build_shard_indexes(&shards, cfg.kernel, t);
                    let tag = format!("n{n_shards}-r{round}-v{v}");
                    let exact: Vec<ShardStream<u128>> =
                        capture_streams(&shards, &indexes, &shard_pins, cfg);
                    check_semiring(&dir, &format!("{tag}-u128"), &exact);
                    let float: Vec<ShardStream<f64>> =
                        capture_streams(&shards, &indexes, &shard_pins, cfg);
                    check_semiring(&dir, &format!("{tag}-f64"), &float);
                    let poss: Vec<ShardStream<Possibility>> =
                        capture_streams(&shards, &indexes, &shard_pins, cfg);
                    check_semiring(&dir, &format!("{tag}-poss"), &poss);
                }
            }
        }
    }

    /// A spill-everything coordinator over real sockets cleans identically
    /// to an all-RAM one: same fresh status, same greedy trajectory, same
    /// convergence — and the run counters prove streams really hit disk.
    #[test]
    fn spilling_coordinator_matches_in_ram_over_tcp((problem, seed) in arb_instance()) {
        let _ = seed;
        let spilled_before = cp_obs::snapshot().counter("store.runs.spilled");
        for n_shards in [1usize, 3] {
            // both coordinators open their own sessions on the same servers
            let servers: Vec<RunningServer> = (0..n_shards)
                .map(|_| spawn_server(ServerConfig::default()).expect("bind server"))
                .collect();
            let addrs: Vec<&str> = servers.iter().map(RunningServer::addr).collect();
            let spill_cfg = ClientConfig {
                spill_threshold: Some(0),
                ..ClientConfig::default()
            };
            let mut spilling =
                RpcCoordinator::connect_with(&problem, &addrs, &opts(1), &spill_cfg)
                    .expect("connect spilling");

            let mut in_ram =
                RpcCoordinator::connect(&problem, &addrs, &opts(1)).expect("connect in-ram");

            prop_assert_eq!(spilling.status(), in_ram.status(), "fresh, n_shards={}", n_shards);
            loop {
                let expect = in_ram.step();
                let got = spilling.step();
                prop_assert_eq!(got, expect, "greedy step diverged, n_shards={}", n_shards);
                if expect.is_none() {
                    break;
                }
                prop_assert_eq!(spilling.status(), in_ram.status(), "n_shards={}", n_shards);
            }
            prop_assert_eq!(spilling.converged(), in_ram.converged());
            spilling.shutdown().expect("shutdown spilling");
            in_ram.shutdown().expect("shutdown in-ram");
        }
        prop_assert!(
            cp_obs::snapshot().counter("store.runs.spilled") > spilled_before,
            "threshold 0 must actually spill"
        );
    }
}

/// Two 1-D label clusters and dirty rows whose candidates straddle the
/// boundary, K = 3: many validation points stay uncertain for several
/// greedy steps.
fn boundary_problem() -> CleaningProblem {
    let mut rng = StdRng::seed_from_u64(17);
    let mut examples = Vec::new();
    for i in 0..12 {
        let label = i % 2;
        let center = if label == 0 { 0.0 } else { 10.0 };
        examples.push(IncompleteExample::complete(
            vec![center + rng.gen_range(-1.5..1.5)],
            label,
        ));
    }
    for _ in 0..8 {
        let candidates = (0..3).map(|_| vec![rng.gen_range(2.0..8.0)]).collect();
        examples.push(IncompleteExample::incomplete(
            candidates,
            rng.gen_range(0..2),
        ));
    }
    let dataset = IncompleteDataset::new(examples, 2).unwrap();
    let choice: Vec<Option<usize>> = (0..dataset.len())
        .map(|i| (dataset.set_size(i) > 1).then_some(0))
        .collect();
    let val = (0..6).map(|i| vec![3.5 + i as f64 * 0.6]).collect();
    CleaningProblem::new(dataset, CpConfig::new(3), val, choice.clone(), choice)
}

/// Every spilled base stream is damaged on disk between two greedy steps;
/// the next selection reads a non-owner shard's damaged run back and must
/// fail with a typed error.
#[test]
fn a_run_damaged_between_steps_is_a_typed_error() {
    let problem = boundary_problem();
    let dir = TestDir::new();
    let servers: Vec<RunningServer> = (0..2)
        .map(|_| spawn_server(ServerConfig::default()).expect("bind server"))
        .collect();
    let addrs: Vec<&str> = servers.iter().map(RunningServer::addr).collect();
    let cfg = ClientConfig {
        spill_threshold: Some(0),
        spill_dir: Some(dir.0.clone()),
        ..ClientConfig::default()
    };
    let mut coord =
        RpcCoordinator::connect_with(&problem, &addrs, &opts(1), &cfg).expect("connect");
    let row = coord
        .try_select_next(&coord.remaining())
        .expect("first selection");
    coord.clean(row).expect("clean");
    assert!(
        coord.n_certain() < problem.val_x.len(),
        "the next step must still select"
    );

    let mut damaged = 0;
    for entry in std::fs::read_dir(&dir.0).expect("spill dir") {
        let path = entry.expect("dir entry").path();
        let bytes: Vec<u8> = std::fs::read(&path)
            .expect("read run")
            .iter()
            .map(|b| !b)
            .collect();
        std::fs::write(&path, bytes).expect("damage run");
        damaged += 1;
    }
    assert!(damaged > 0, "the first selection spilled its base streams");

    let err = coord
        .try_select_next(&coord.remaining())
        .expect_err("a damaged run must not load");
    assert!(
        matches!(&err, RpcError::Malformed(msg) if msg.contains("on-disk run")),
        "{err:?}"
    );
}

/// A refetched base stream replaces its run file, and dropping the
/// coordinator deletes every run it wrote: a caller's `spill_dir` holds at
/// most one run per (validation point, shard), then none.
#[test]
fn spilled_runs_are_deleted_when_replaced_and_on_drop() {
    let problem = boundary_problem();
    let dir = TestDir::new();
    let servers: Vec<RunningServer> = (0..2)
        .map(|_| spawn_server(ServerConfig::default()).expect("bind server"))
        .collect();
    let addrs: Vec<&str> = servers.iter().map(RunningServer::addr).collect();
    let cfg = ClientConfig {
        spill_threshold: Some(0),
        spill_dir: Some(dir.0.clone()),
        ..ClientConfig::default()
    };
    // run files are named `base-v{v}-s{s}-{seq}.run`
    let runs_per_entry = || {
        let mut per_entry = std::collections::BTreeMap::<String, usize>::new();
        for entry in std::fs::read_dir(&dir.0).expect("spill dir") {
            let name = entry.expect("dir entry").file_name().into_string().unwrap();
            let (key, _seq) = name.rsplit_once('-').expect("run file name");
            *per_entry.entry(key.to_string()).or_default() += 1;
        }
        per_entry
    };
    let mut coord =
        RpcCoordinator::connect_with(&problem, &addrs, &opts(1), &cfg).expect("connect");
    let (mut steps, mut spilled) = (0, 0);
    while coord.step().is_some() {
        steps += 1;
        let per_entry = runs_per_entry();
        assert!(per_entry.values().all(|&n| n == 1), "{per_entry:?}");
        spilled = spilled.max(per_entry.len());
    }
    assert!(
        steps > 1 && spilled > 0,
        "several steps over spilled base streams"
    );
    drop(coord);
    assert!(
        runs_per_entry().is_empty(),
        "the dropped coordinator left runs behind"
    );
    assert!(dir.0.exists(), "a caller's spill_dir is kept");
}
