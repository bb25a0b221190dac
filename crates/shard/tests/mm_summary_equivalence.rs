//! Exact equivalence of the binary-Q1 extreme-summary fast path.
//!
//! For random binary cleaning problems, shard counts `{1, 2, 3, 7}`,
//! random pin masks and random cleaning orders, three answers must be
//! identical at every point:
//!
//! * the rank-merged summary path ([`certain_label_from_summaries`] over
//!   [`extreme_summaries`]);
//! * the merged `Possibility`-semiring streams
//!   ([`certain_label_from_streams`], the route of non-binary label spaces);
//! * single-process MM ([`cp_core::mm::certain_label_minmax`]).
//!
//! A third property pins the summaries themselves: each shard's summary,
//! read off the index's lazily sorted extreme order, must equal the
//! per-set walk it replaced — every set's extreme choice, fully sorted,
//! cut at K — entry for entry.
//!
//! The session-level twin — a sharded engine's incremental status along
//! arbitrary cleaning trajectories — lives in `cp-rpc`'s
//! `tests/rpc_equivalence.rs`, which drives `RpcCoordinator` over loopback
//! shard servers against `cp_clean::CleaningSession`.

use cp_clean::CleaningProblem;
use cp_core::mm::certain_label_minmax;
use cp_core::mm_summary::cmp_entries;
use cp_core::{
    CpConfig, DatasetShard, ExtremeEntry, ExtremeSummary, IncompleteDataset, IncompleteExample,
    Pins, SimilarityIndex,
};
use cp_numeric::Possibility;
use cp_shard::{
    build_shard_indexes, capture_streams, certain_label_from_streams, certain_label_from_summaries,
    extreme_summaries, local_pins, ShardStream,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// A random small **binary** cleaning problem — the same family as the
/// shard-equivalence suite with `|Y|` fixed at 2 (the MM regime).
fn arb_binary_instance() -> impl Strategy<Value = (CleaningProblem, u64)> {
    (4usize..=7, 1usize..=3).prop_flat_map(|(n, k)| {
        let example =
            (proptest::collection::vec(-9i32..9, 1..=3), 0usize..2).prop_map(|(grid, label)| {
                let candidates: Vec<Vec<f64>> = grid.into_iter().map(|g| vec![g as f64]).collect();
                if candidates.len() == 1 {
                    IncompleteExample::complete(candidates.into_iter().next().unwrap(), label)
                } else {
                    IncompleteExample::incomplete(candidates, label)
                }
            });
        (
            proptest::collection::vec(example, n..=n),
            proptest::collection::vec(-9i32..9, 1..=3),
            Just(k),
            0u64..u64::MAX,
        )
            .prop_map(move |(examples, val, k, seed)| {
                let dataset = IncompleteDataset::new(examples, 2).unwrap();
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
                let problem = CleaningProblem {
                    dataset,
                    config: CpConfig::new(k),
                    val_x: std::sync::Arc::new(val.into_iter().map(|v| vec![v as f64]).collect()),
                    truth_choice,
                    default_choice,
                };
                (problem, seed)
            })
    })
}

/// Each dirty row pinned to a random candidate with probability ~1/2.
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

/// The summary by definition: per direction `l`, every set's extreme
/// choice (most similar if labeled `l`, least similar otherwise, pins
/// overriding both), fully sorted by rank, cut at `k`.
fn per_set_walk(
    shard: &DatasetShard,
    idx: &SimilarityIndex,
    pins: &Pins,
    k: usize,
) -> ExtremeSummary {
    let ds = shard.dataset();
    let tops = (0..ds.n_labels())
        .map(|l| {
            let mut entries: Vec<ExtremeEntry> = (0..ds.len())
                .map(|i| {
                    let j = if ds.label(i) == l {
                        idx.most_similar(i, pins)
                    } else {
                        idx.least_similar(i, pins)
                    };
                    ExtremeEntry {
                        sim: idx.sim(i, j),
                        row: shard.global_row(i),
                        cand: j as u32,
                        label: ds.label(i),
                    }
                })
                .collect();
            entries.sort_by(|a, b| cmp_entries(b, a));
            entries.truncate(k);
            entries
        })
        .collect();
    ExtremeSummary::from_parts(k, tops).expect("sorted, distinct, within budget")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Query-level equivalence: summary fold == merged Possibility streams
    /// == single-process MM, for every shard count, under random pin masks,
    /// at every validation point.
    #[test]
    fn summary_path_equals_merged_scan_and_minmax((problem, seed) in arb_binary_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1f);
        let ds = &problem.dataset;
        let cfg = &problem.config;
        for round in 0..3 {
            let pins = if round == 0 {
                Pins::none(ds.len())
            } else {
                random_pins(&problem, &mut rng)
            };
            for t in problem.val_x.iter() {
                let full_idx = SimilarityIndex::build(ds, cfg.kernel, t);
                let mm = certain_label_minmax(ds, cfg, &full_idx, &pins);
                for n_shards in SHARD_COUNTS {
                    let shards = ds.partition(n_shards);
                    let indexes = build_shard_indexes(&shards, cfg.kernel, t);
                    let shard_pins = local_pins(&shards, &pins);
                    let streams: Vec<ShardStream<Possibility>> =
                        capture_streams(&shards, &indexes, &shard_pins, cfg);
                    let scanned = certain_label_from_streams(&streams);
                    let summaries = extreme_summaries(&shards, &indexes, &shard_pins, cfg);
                    let folded = certain_label_from_summaries(&summaries);
                    prop_assert_eq!(
                        folded, mm,
                        "summary fold vs MM, n_shards={}", n_shards
                    );
                    prop_assert_eq!(
                        scanned, mm,
                        "possibility scan vs MM, n_shards={}", n_shards
                    );
                }
            }
        }
    }

    /// Every shard summary equals the per-set walk, and their fold equals
    /// single-process MM, for every shard count, under random pin masks
    /// and at budgets from 1 to past the shard size.
    #[test]
    fn summaries_equal_the_per_set_walk((problem, seed) in arb_binary_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0dd5);
        let ds = &problem.dataset;
        for round in 0..3 {
            let pins = if round == 0 {
                Pins::none(ds.len())
            } else {
                random_pins(&problem, &mut rng)
            };
            for t in problem.val_x.iter() {
                for k in [1usize, 2, 5, 9] {
                    let cfg = CpConfig { kernel: problem.config.kernel, ..CpConfig::new(k) };
                    let full_idx = SimilarityIndex::build(ds, cfg.kernel, t);
                    let mm = certain_label_minmax(ds, &cfg, &full_idx, &pins);
                    for n_shards in SHARD_COUNTS {
                        let shards = ds.partition(n_shards);
                        let indexes = build_shard_indexes(&shards, cfg.kernel, t);
                        let shard_pins = local_pins(&shards, &pins);
                        let summaries = extreme_summaries(&shards, &indexes, &shard_pins, &cfg);
                        for (s, summary) in summaries.iter().enumerate() {
                            let k_eff = cfg.k_eff(ds.len());
                            prop_assert_eq!(
                                summary,
                                &per_set_walk(&shards[s], &indexes[s], &shard_pins[s], k_eff),
                                "shard {} of {}, k={}", s, n_shards, k
                            );
                        }
                        prop_assert_eq!(
                            certain_label_from_summaries(&summaries), mm,
                            "summary fold vs MM, n_shards={} k={}", n_shards, k
                        );
                    }
                }
            }
        }
    }
}
