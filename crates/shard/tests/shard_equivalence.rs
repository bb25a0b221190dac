//! Shard-count invariance of the factor-merge algebra.
//!
//! Partitioning is an implementation detail: for **every** shard count, the
//! merge of the shards' captured streams returns exactly the single-process Q2 counts for
//! every `Q2Algorithm` (graceful fallbacks included) under arbitrary pin
//! masks — bit-for-bit in the exact `u128` semiring, and within float
//! tolerance in probability space.
//!
//! Instances cover 2-label and 3-label problems, all `Q2Algorithm`s, random
//! pin masks, and shard counts `{1, 2, 3, 7}` — 7 exceeds the row count of
//! some instances, exercising the clamp. The engine-level twins (status,
//! greedy selection and `run_order` of a sharded run against
//! `cp_clean::CleaningSession`) live in `cp-rpc`'s
//! `tests/rpc_equivalence.rs`.

use cp_clean::CleaningProblem;
use cp_core::{
    q2_batch_with_algorithm, CpConfig, IncompleteDataset, IncompleteExample, Pins, Q2Algorithm,
    Q2Result,
};
use cp_shard::{
    build_shard_indexes, capture_streams, local_pins, q2_from_streams_with_algorithm, ShardStream,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

const ALL_ALGORITHMS: [Q2Algorithm; 5] = [
    Q2Algorithm::Auto,
    Q2Algorithm::BruteForce,
    Q2Algorithm::SortScan,
    Q2Algorithm::SortScanTree,
    Q2Algorithm::SortScanMultiClass,
];

/// A random small cleaning problem (same family as the cp-clean
/// incrementality suite): 1-D candidate grids with frequent similarity
/// ties, 2–3 labels, K in 1..=3, plus a seed for the derived randomness.
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
            proptest::collection::vec(-9i32..9, 1..=3),
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

/// A pin mask not restricted to pinned-to-truth: each dirty row is pinned to
/// a random candidate with probability ~1/2.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The merged shard streams equal every single-process Q2 algorithm under
    /// arbitrary pin masks — exactly in `u128`, within tolerance in `f64`.
    #[test]
    fn sharded_q2_matches_every_algorithm((problem, seed) in arb_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        let ds = &problem.dataset;
        let cfg = &problem.config;
        for round in 0..2 {
            let pins = if round == 0 { Pins::none(ds.len()) } else { random_pins(&problem, &mut rng) };
            for n_shards in SHARD_COUNTS {
                let shards = ds.partition(n_shards);
                let shard_pins = local_pins(&shards, &pins);
                let pin_refs: Vec<&Pins> = shard_pins.iter().collect();
                for (v, t) in problem.val_x.iter().enumerate() {
                    let indexes = build_shard_indexes(&shards, cfg.kernel, t);
                    let index_refs: Vec<&cp_core::SimilarityIndex> = indexes.iter().collect();
                    let streams: Vec<ShardStream<u128>> =
                        capture_streams(&shards, &index_refs, &pin_refs, cfg);
                    for algo in ALL_ALGORITHMS {
                        let single: Vec<Q2Result<u128>> =
                            q2_batch_with_algorithm(ds, cfg, std::slice::from_ref(t), &pins, algo);
                        let sharded = q2_from_streams_with_algorithm(&streams, algo);
                        prop_assert_eq!(
                            &sharded.counts, &single[0].counts,
                            "val {} algo {:?} n_shards={}", v, algo, n_shards
                        );
                        prop_assert_eq!(sharded.total, single[0].total);
                    }
                    // probability space within tolerance
                    let single_p: Vec<Q2Result<f64>> = q2_batch_with_algorithm(
                        ds, cfg, std::slice::from_ref(t), &pins, Q2Algorithm::SortScanTree,
                    );
                    let sharded_p: Q2Result<f64> = q2_from_streams_with_algorithm(
                        &capture_streams::<f64, _, _>(&shards, &index_refs, &pin_refs, cfg),
                        Q2Algorithm::SortScanTree,
                    );
                    for (a, b) in sharded_p.probabilities().iter().zip(single_p[0].probabilities()) {
                        prop_assert!((a - b).abs() < 1e-9, "val {} n_shards={}", v, n_shards);
                    }
                }
            }
        }
    }
}
