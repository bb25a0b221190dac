//! The CPClean algorithm — §4.1, Algorithm 3.
//!
//! Sequential information maximization: each iteration cleans the training
//! example whose (simulated) cleaning is expected to reduce the conditional
//! entropy of validation predictions the most. The expectation is over a
//! uniform prior on which candidate is the truth (Equation 4), and each
//! conditional entropy is computed from Q2 probabilities under a pin
//! (`c_i = x_{i,j}`) on top of the pins of everything cleaned so far.
//! Termination: every validation example CP'ed (then *any* remaining world —
//! including the unknown ground truth — yields the same validation
//! predictions), a cleaning budget, or nothing dirty left.
//!
//! The engine behind this module is the stateful [`CleaningSession`]:
//! similarity indexes are built once per run and cached across iterations,
//! and the CP status
//! vector is maintained incrementally (certainty is monotone under
//! cleaning). [`run_cpclean`] and [`select_next`] are thin wrappers kept for
//! source compatibility with the seed API.

use crate::problem::CleaningProblem;
use crate::session::{select_next_with, CleaningSession};
use crate::state::CleaningState;
use cp_core::SimilarityIndex;
use std::sync::Arc;

/// Options for a cleaning run (shared by CPClean and RandomClean).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Stop after cleaning this many rows (`None` = run to convergence or
    /// until no dirty rows remain).
    pub max_cleaned: Option<usize>,
    /// Worker threads for the per-validation-example loops.
    pub n_threads: usize,
    /// Record a curve point every `record_every` cleaning steps (the first
    /// and last points are always recorded).
    pub record_every: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_cleaned: None,
            n_threads: rayon::current_num_threads(),
            record_every: 1,
        }
    }
}

/// Run CPClean on a problem, recording the cleaning curve against the given
/// test set.
///
/// Thin wrapper: opens a [`CleaningSession`] (one similarity-index build per
/// validation point for the whole run) and drives it to convergence.
pub fn run_cpclean(
    problem: &CleaningProblem,
    test_x: &[Vec<f64>],
    test_y: &[usize],
    opts: &RunOptions,
) -> crate::metrics::CleaningRun {
    CleaningSession::new(problem, opts).run_to_convergence(test_x, test_y)
}

/// The greedy selection step (Algorithm 3, lines 5–9): the uncleaned row
/// minimizing the expected conditional entropy of validation predictions,
/// the expectation taken uniformly over which candidate is the truth.
///
/// One-shot compatibility wrapper: builds each uncertain validation point's
/// index for this call only. Inside a run, use
/// [`CleaningSession::select_next`], which reuses the session's cached
/// indexes instead.
pub fn select_next(
    problem: &CleaningProblem,
    state: &CleaningState,
    cp: &[bool],
    remaining: &[usize],
    n_threads: usize,
) -> usize {
    select_next_with(problem, state.pins(), cp, remaining, n_threads, |v| {
        Arc::new(SimilarityIndex::build(
            &problem.dataset,
            problem.config.kernel,
            &problem.val_x[v],
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::val_cp_status;
    use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};

    /// Two dirty rows; only row 1 matters for the validation point, so
    /// CPClean must clean it first (RandomClean would pick row 3 half the
    /// time).
    fn targeted_problem() -> CleaningProblem {
        let dataset = IncompleteDataset::new(
            vec![
                IncompleteExample::complete(vec![0.0], 0),
                // near the val point (5.0): candidate 4.8 is the nearest
                // neighbor (label 0), candidate 7.0 cedes to example 2
                // (label 1) — this row decides the prediction
                IncompleteExample::incomplete(vec![vec![4.8], vec![7.0]], 0),
                IncompleteExample::complete(vec![5.5], 1),
                // far away: irrelevant to the val point
                IncompleteExample::incomplete(vec![vec![100.0], vec![101.0]], 1),
            ],
            2,
        )
        .unwrap();
        CleaningProblem {
            dataset,
            config: CpConfig::new(1),
            val_x: std::sync::Arc::new(vec![vec![5.0]]),
            truth_choice: vec![None, Some(0), None, Some(0)],
            default_choice: vec![None, Some(1), None, Some(1)],
        }
    }

    #[test]
    fn selects_the_influential_row_first() {
        let p = targeted_problem();
        let state = CleaningState::new(&p);
        let cp = val_cp_status(&p, state.pins(), 1);
        assert_eq!(cp, vec![false]);
        let row = select_next(&p, &state, &cp, &[1, 3], 1);
        assert_eq!(
            row, 1,
            "CPClean must target the row that affects the val point"
        );
    }

    #[test]
    fn converges_after_one_targeted_cleaning() {
        let p = targeted_problem();
        let run = run_cpclean(&p, &[vec![5.0]], &[0], &RunOptions::default());
        assert!(run.converged);
        assert_eq!(
            run.order,
            vec![1],
            "only the influential row needed cleaning"
        );
        assert_eq!(run.final_point().frac_val_cp, 1.0);
        // curve starts at zero cleaned
        assert_eq!(run.curve[0].cleaned, 0);
        assert!(run.curve[0].frac_val_cp < 1.0);
    }

    #[test]
    fn budget_stops_early() {
        let p = targeted_problem();
        let opts = RunOptions {
            max_cleaned: Some(0),
            ..RunOptions::default()
        };
        let run = run_cpclean(&p, &[vec![5.0]], &[0], &opts);
        assert_eq!(run.n_cleaned(), 0);
        assert!(!run.converged);
    }

    #[test]
    fn already_certain_validation_set_needs_no_cleaning() {
        let mut p = targeted_problem();
        p.val_x = std::sync::Arc::new(vec![vec![0.1]]); // dominated by the complete example 0
        let run = run_cpclean(&p, &[vec![0.1]], &[0], &RunOptions::default());
        assert!(run.converged);
        assert_eq!(run.n_cleaned(), 0);
    }

    #[test]
    fn cp_fraction_is_monotone_along_curve() {
        let p = targeted_problem();
        let run = run_cpclean(&p, &[vec![5.0]], &[0], &RunOptions::default());
        for w in run.curve.windows(2) {
            assert!(w[1].frac_val_cp >= w[0].frac_val_cp - 1e-12);
        }
    }
}
