//! Incremental-vs-naive greedy selection lockstep for [`CleaningSession`].
//!
//! `select_next` runs the incremental loop (epoch-keyed score cache,
//! top-K relevance substitution, entropy-bound pruning); `select_next_naive`
//! is the from-scratch reference scorer. The optimization contract is
//! **bit-identical choices**: at every step of every trajectory — greedy or
//! arbitrary, the cache must stay exact off the greedy path too — both
//! scorers pick the same row. Re-scoring an unchanged step off the warm
//! cache must also return the same row (no state leaks out of a query).

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A random small cleaning problem (same family as the session
/// incrementality suite): 1-D candidate grids with frequent similarity
/// ties, 2–5 labels, K in 1..=7 — so K = 1 (the fast path), K ≥ N (4..=6
/// rows) and the label-capped multi-class accumulator (`|Y| = 5`, `K ≥ 4`)
/// all occur — plus a seed for the derived randomness.
fn arb_instance() -> impl Strategy<Value = (CleaningProblem, u64)> {
    (2usize..=5, 4usize..=6, 1usize..=7).prop_flat_map(|(n_labels, n, k)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// At every step of a randomly perturbed cleaning trajectory, the
    /// incremental scorer picks the row the naive scorer picks — including
    /// off the greedy path, where the cache survives pins it did not choose.
    #[test]
    fn incremental_selection_matches_naive((problem, seed) in arb_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1);
        let opts = RunOptions { max_cleaned: None, n_threads: 1, record_every: 1 };
        let mut session = CleaningSession::new(&problem, &opts);
        let mut step = 0usize;
        loop {
            let remaining = session.remaining();
            if remaining.is_empty() {
                break;
            }
            let naive = session.select_next_naive(&remaining);
            let incremental = session.select_next(&remaining);
            prop_assert_eq!(incremental, naive, "step {} diverged", step);
            // a warm-cache re-query of the unchanged step is identical
            prop_assert_eq!(session.select_next(&remaining), naive, "warm re-query, step {}", step);
            // follow the greedy choice half the time, a random row otherwise
            let row = if rng.gen_bool(0.5) {
                naive
            } else {
                remaining[rng.gen_range(0..remaining.len())]
            };
            session.clean(row);
            step += 1;
        }
    }
}
