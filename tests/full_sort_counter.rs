//! Full-sort accounting: the query and cleaning hot paths never sort a
//! whole similarity index.
//!
//! `SimilarityIndex::build` orders each candidate set on its own; the full
//! ascending order is sorted lazily, at most once per index, and only for
//! the algorithms that walk every candidate (Algorithm 1, the K=1 fast
//! path). `core.similarity.full_sorts` counts those sorts: it must stay 0
//! across the batch queries, a greedy cleaning session and a sharded
//! capture, and read exactly 1 for repeated Algorithm 1 scans of one index.
//!
//! Binary status checks on the sharded engine read MM's extreme worlds off
//! a second lazy order, counted by `core.similarity.extreme_sorts`:
//! over a whole cleaning run it moves at most once per index built, and
//! the full sort still never happens.
//!
//! Lives in its own integration-test binary with a single `#[test]`
//! because the counter is process-wide.

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::similarity::{build_count, extreme_sort_count, full_sort_count};
use cp_core::ss::q2_sortscan_with_index;
use cp_core::ss_tree::q2_sortscan_tree_with_index;
use cp_core::{
    certain_labels_batch, q2_batch, q2_probabilities_batch, CpConfig, IncompleteDataset,
    IncompleteExample, Pins, SimilarityIndex,
};
use cp_numeric::BigUint;
use cp_rpc::{spawn_server, RpcCoordinator, RunningServer, ServerConfig};
use cp_shard::{build_shard_indexes, capture_streams, local_pins, q2_from_streams, ShardStream};
use rand::prelude::*;
use rand::rngs::StdRng;

/// `n` rows in two dimensions, a third of them dirty with three
/// candidates, labels drawn from `n_labels`.
fn examples(rng: &mut StdRng, n: usize, n_labels: usize) -> Vec<IncompleteExample> {
    let point = |rng: &mut StdRng| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)];
    (0..n)
        .map(|i| {
            let label = rng.gen_range(0..n_labels);
            if i % 3 == 0 {
                let candidates = (0..3).map(|_| point(rng)).collect();
                IncompleteExample::incomplete(candidates, label)
            } else {
                IncompleteExample::complete(point(rng), label)
            }
        })
        .collect()
}

fn sorts_in(f: impl FnOnce()) -> u64 {
    let before = full_sort_count();
    f();
    full_sort_count() - before
}

#[test]
fn hot_paths_never_sort_the_whole_index() {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = CpConfig::new(3);

    // multiclass batch queries at K = 3
    let ds = IncompleteDataset::new(examples(&mut rng, 60, 4), 4).unwrap();
    let points: Vec<Vec<f64>> = (0..6)
        .map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])
        .collect();
    let pins = Pins::none(ds.len());
    let mut exact = Vec::new();
    assert_eq!(
        sorts_in(|| {
            certain_labels_batch(&ds, &cfg, &points);
            q2_probabilities_batch(&ds, &cfg, &points, &pins);
            exact = q2_batch::<BigUint>(&ds, &cfg, &points);
        }),
        0,
        "multiclass batch queries"
    );
    let worlds = ds.world_count();
    for r in &exact {
        let sum = r.counts.iter().fold(BigUint::zero(), |acc, c| acc.add(c));
        assert_eq!(sum, worlds);
    }

    // a 2-shard capture, merged back to the single-process counts
    let shards = ds.partition(2);
    let indexes = build_shard_indexes(&shards, cfg.kernel, &points[0]);
    let shard_pins = local_pins(&shards, &pins);
    let mut streams: Vec<ShardStream<u128>> = Vec::new();
    assert_eq!(
        sorts_in(|| streams = capture_streams(&shards, &indexes, &shard_pins, &cfg)),
        0,
        "2-shard capture"
    );
    let idx = SimilarityIndex::build(&ds, cfg.kernel, &points[0]);
    let merged = q2_from_streams(&streams);
    let single = q2_sortscan_tree_with_index::<u128>(&ds, &cfg, &idx, &pins);
    assert_eq!(merged.counts, single.counts);

    // Algorithm 1 walks every candidate: one sort, however many scans
    assert_eq!(
        sorts_in(|| {
            for _ in 0..3 {
                let plain = q2_sortscan_with_index::<u128>(&ds, &cfg, &idx, &pins);
                assert_eq!(plain.counts, single.counts);
            }
        }),
        1,
        "repeated Algorithm 1 scans of one index"
    );

    // a binary greedy cleaning session, run to convergence
    let ds = IncompleteDataset::new(examples(&mut rng, 40, 2), 2).unwrap();
    let n = ds.len();
    let dirty = ds.dirty_indices();
    let mut truth_choice = vec![None; n];
    let mut default_choice = vec![None; n];
    for &i in &dirty {
        truth_choice[i] = Some(0);
        default_choice[i] = Some(2);
    }
    let problem = CleaningProblem {
        dataset: ds,
        config: cfg,
        val_x: std::sync::Arc::new(points),
        truth_choice,
        default_choice,
    };
    let opts = RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    };
    let mut steps = 0;
    assert_eq!(
        sorts_in(|| {
            let mut session = CleaningSession::new(&problem, &opts);
            while session.step().is_some() {
                steps += 1;
            }
            assert!(session.converged());
        }),
        0,
        "greedy cleaning session"
    );
    assert!(steps > 0, "the session must clean at least one row");

    // the same problem on the sharded engine over loopback servers, whose
    // binary status checks build extreme summaries: at most one extreme
    // sort per index, no full sort
    let servers: Vec<RunningServer> = (0..2)
        .map(|_| spawn_server(ServerConfig::default()).expect("spawn server"))
        .collect();
    let addrs: Vec<&str> = servers.iter().map(RunningServer::addr).collect();
    let (builds, extreme, full) = (build_count(), extreme_sort_count(), full_sort_count());
    for n_shards in [1, 2] {
        let mut remote =
            RpcCoordinator::connect(&problem, &addrs[..n_shards], &opts).expect("connect");
        while remote.step().is_some() {}
        assert!(remote.converged());
        remote.shutdown().expect("shutdown");
    }
    let (builds, extreme) = (build_count() - builds, extreme_sort_count() - extreme);
    assert_eq!(full_sort_count() - full, 0, "sharded cleaning runs");
    assert!(extreme > 0, "binary status checks read the extreme order");
    assert!(
        extreme <= builds,
        "{extreme} extreme sorts over {builds} index builds"
    );
}
