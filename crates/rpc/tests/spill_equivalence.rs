//! Out-of-core equivalence: spilled on-disk runs are indistinguishable from
//! the in-RAM streams they were written from.
//!
//! For random small cleaning problems and shard counts `{1, 2, 3, 7}`:
//!
//! * a merged scan over [`cp_store::RunCursor`]s opened from freshly
//!   re-read run files is **bit-identical** — counts and totals, `f64`
//!   included — to the in-RAM `StreamCursor` scan, in every wire semiring,
//!   under empty and random pin masks;
//! * the same holds for arbitrary *mixes* of RAM cursors and lazy disk
//!   cursors in one scan;
//! * the filter-guided status check ([`cp_rpc::certain_label_over_runs`]:
//!   footer min/max + bloom pre-check, then a lazy early-exit merge) agrees
//!   with the [`cp_shard::certain_label_from_streams`] oracle on every
//!   instance — skipping block I/O must never change an answer;
//! * an [`RpcCoordinator`] with `spill_threshold = Some(0)` (every fetched
//!   stream goes to disk) cleans over real sockets bit-identically to an
//!   all-RAM coordinator, and actually spills.

use cp_clean::{CleaningProblem, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins, Q2Result};
use cp_numeric::Possibility;
use cp_rpc::{
    certain_label_over_runs, open_run_cursor, spawn_server, spill_stream, ClientConfig,
    LazyRunCursor, RpcCoordinator, RunningServer, ServerConfig, SpillSource, WireSemiring,
};
use cp_shard::{
    build_shard_indexes, capture_streams, certain_label_from_sources, certain_label_from_streams,
    local_pins, merged_scan_sources, q2_from_streams, ShardStream,
};
use cp_store::Run;
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

/// Spill every stream under `dir`, then re-open each run **from its file**
/// — the reader must survive a genuine write → close → read round trip,
/// not just reuse the writer's in-memory handle.
fn spill_all<S: WireSemiring>(dir: &TestDir, tag: &str, streams: &[ShardStream<S>]) -> Vec<Run> {
    streams
        .iter()
        .enumerate()
        .map(|(s, st)| {
            let path = dir.0.join(format!("{tag}-s{s}.run"));
            let run = spill_stream(&path, st).expect("spill");
            Run::open(run.path()).expect("reopen from disk")
        })
        .collect()
}

/// Alternate RAM and lazy-disk sources over the same logical streams.
fn mixed_sources<'a, S: WireSemiring>(
    streams: &'a [ShardStream<S>],
    runs: &'a [Run],
) -> Vec<SpillSource<'a, S>> {
    streams
        .iter()
        .zip(runs)
        .enumerate()
        .map(|(i, (st, run))| {
            if i % 2 == 0 {
                SpillSource::Disk(LazyRunCursor::new(run).expect("lazy open"))
            } else {
                SpillSource::Ram(st.cursor())
            }
        })
        .collect()
}

/// One semiring's full check: in-RAM merged scan vs all-disk `RunCursor`
/// scan vs mixed RAM/disk scan, all bit-identical.
fn check_semiring<S>(dir: &TestDir, tag: &str, streams: &[ShardStream<S>])
where
    S: WireSemiring + PartialEq + std::fmt::Debug,
{
    let expect: Q2Result<S> = q2_from_streams(streams);
    let n_labels = streams[0].n_labels();
    let k = streams[0].k();
    let runs = spill_all(dir, tag, streams);

    let mut cursors: Vec<_> = runs
        .iter()
        .map(|r| open_run_cursor::<S>(r).expect("decode block"))
        .collect();
    let on_disk = merged_scan_sources(&mut cursors, n_labels, k, None, |_| false);
    assert_eq!(on_disk.counts, expect.counts, "{tag}: all-disk counts");
    assert_eq!(on_disk.total, expect.total, "{tag}: all-disk total");

    let mut mixed = mixed_sources(streams, &runs);
    let mixed_result = merged_scan_sources(&mut mixed, n_labels, k, None, |_| false);
    assert_eq!(mixed_result.counts, expect.counts, "{tag}: mixed counts");
    assert_eq!(mixed_result.total, expect.total, "{tag}: mixed total");
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

    /// The filter-guided status check over runs (footer pre-check + lazy
    /// early-exit merge) answers exactly what the in-RAM oracle answers —
    /// on every instance, shard count, and pin mask, all-disk and mixed.
    #[test]
    fn filter_skipped_status_checks_match_the_in_ram_oracle((problem, seed) in arb_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77e1);
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
                    let streams: Vec<ShardStream<Possibility>> =
                        capture_streams(&shards, &indexes, &shard_pins, cfg);
                    let oracle = certain_label_from_streams(&streams);
                    let n_labels = streams[0].n_labels();
                    let k = streams[0].k();
                    let runs = spill_all(&dir, &format!("st-n{n_shards}-r{round}-v{v}"), &streams);
                    let over_runs = certain_label_over_runs(&runs, n_labels, k)
                        .expect("status over runs");
                    prop_assert_eq!(
                        over_runs, oracle,
                        "runs vs oracle, val {} n_shards={} round={}", v, n_shards, round
                    );
                    let mut mixed = mixed_sources(&streams, &runs);
                    prop_assert_eq!(
                        certain_label_from_sources(&mut mixed, n_labels, k),
                        oracle,
                        "mixed vs oracle, val {} n_shards={}", v, n_shards
                    );
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
