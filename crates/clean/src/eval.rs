//! Evaluation plumbing: world accuracy and validation CP status, one
//! pool call over the validation set (the rayon shim's process-wide worker
//! pool, which every parallel loop of the cleaning engines shares).

use crate::problem::CleaningProblem;
use crate::state::CleaningState;
use cp_core::{certain_label_with_index, Pins, SimilarityIndex};
use cp_knn::KnnClassifier;
use rayon::prelude::*;

/// Train a KNN on the world selected by `choices` and score it on a test
/// set.
pub fn world_accuracy(
    problem: &CleaningProblem,
    choices: &[usize],
    test_x: &[Vec<f64>],
    test_y: &[usize],
) -> f64 {
    let (train_x, train_y) = problem.dataset.materialize(choices);
    let model = KnnClassifier::with_kernel(problem.config.k, problem.config.kernel).fit(
        train_x,
        train_y,
        problem.dataset.n_labels(),
    );
    model.accuracy(test_x, test_y)
}

/// Convenience: accuracy of the current partially-cleaned world.
pub fn state_accuracy(
    problem: &CleaningProblem,
    state: &CleaningState,
    test_x: &[Vec<f64>],
    test_y: &[usize],
) -> f64 {
    world_accuracy(problem, &state.world_choices(problem), test_x, test_y)
}

/// Q1 status of every validation example under the current pins: `true` iff
/// the example is certainly predicted (its prediction can no longer be
/// changed by any further cleaning).
///
/// This is the **one-shot, from-scratch** recompute: it builds one
/// similarity index per validation example per call. Cleaning loops should
/// not call it per iteration — a [`crate::session::CleaningSession`] caches
/// the indexes and maintains the status incrementally; the property tests
/// use this function as the independent oracle the session must agree with.
///
/// At most `n_threads` threads work the call, the caller counted, so
/// `n_threads <= 1` runs every point on the calling thread. The answer is
/// the same whatever the cap.
pub fn val_cp_status(problem: &CleaningProblem, pins: &Pins, n_threads: usize) -> Vec<bool> {
    problem
        .val_x
        .par_iter()
        .with_max_threads(n_threads)
        .map(|t| {
            let idx = SimilarityIndex::build(&problem.dataset, problem.config.kernel, t);
            certain_label_with_index(&problem.dataset, &problem.config, &idx, pins).is_some()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};

    fn problem() -> CleaningProblem {
        let dataset = IncompleteDataset::new(
            vec![
                IncompleteExample::complete(vec![0.0], 0),
                IncompleteExample::incomplete(vec![vec![1.0], vec![9.0]], 0),
                IncompleteExample::complete(vec![10.0], 1),
            ],
            2,
        )
        .unwrap();
        CleaningProblem {
            dataset,
            config: CpConfig::new(1),
            // val point 0.5 -> nearest is always example 0 or 1 (label 0): CP'ed
            // val point 8.5 -> depends on example 1's candidate: uncertain
            val_x: std::sync::Arc::new(vec![vec![0.5], vec![8.5]]),
            truth_choice: vec![None, Some(0), None],
            default_choice: vec![None, Some(1), None],
        }
    }

    #[test]
    fn cp_status_identifies_certain_examples() {
        let p = problem();
        let status = val_cp_status(&p, &Pins::none(3), 2);
        assert_eq!(status, vec![true, false]);
    }

    #[test]
    fn batch_and_sequential_paths_agree() {
        let p = problem();
        for pins in [Pins::none(3), Pins::single(3, 1, 0), Pins::single(3, 1, 1)] {
            assert_eq!(
                val_cp_status(&p, &pins, 1),
                val_cp_status(&p, &pins, 4),
                "pins={pins:?}"
            );
        }
    }

    #[test]
    fn cleaning_makes_everything_certain() {
        let p = problem();
        let pins = Pins::single(3, 1, 0);
        let status = val_cp_status(&p, &pins, 1);
        assert_eq!(status, vec![true, true]);
    }

    #[test]
    fn world_accuracy_depends_on_choice() {
        let p = problem();
        // test point 8.5 with label 1: correct only if example 1 stays at 1.0
        let acc_good = world_accuracy(&p, &[0, 0, 0], &[vec![8.5]], &[1]);
        let acc_bad = world_accuracy(&p, &[0, 1, 0], &[vec![8.5]], &[1]);
        assert_eq!(acc_good, 1.0);
        assert_eq!(acc_bad, 0.0);
    }
}
