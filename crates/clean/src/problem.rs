//! The cleaning problem instance: what every cleaning strategy operates on.
//!
//! Mirrors §4's setup: a dirty training set (as an incomplete dataset with
//! candidate repairs), a *complete* validation set (labels not required by
//! CPClean itself — one of its selling points over ActiveClean), and the
//! simulated-human bookkeeping (the ground-truth candidate per dirty row).

use cp_core::{CpConfig, IncompleteDataset};
use std::sync::Arc;

/// A data-cleaning-for-ML problem instance.
///
/// The validation features sit behind an [`Arc`]: cloning a problem (or
/// deriving per-shard sub-problems, as the shard servers do) shares
/// the one `val_x` allocation instead of copying it per clone — an S-shard
/// session used to hold S+1 copies of the validation set. Read access is
/// unchanged (`problem.val_x[v]`, iteration and `.len()` all work through
/// the `Arc`); construct via [`CleaningProblem::new`] to keep call sites free
/// of the wrapping.
#[derive(Clone, Debug)]
pub struct CleaningProblem {
    /// The dirty training set with candidate repairs.
    pub dataset: IncompleteDataset,
    /// Classifier configuration (the paper: 3-NN, Euclidean).
    pub config: CpConfig,
    /// Validation features (complete; drawn from the same distribution),
    /// shared across clones and shard sub-problems.
    pub val_x: Arc<Vec<Vec<f64>>>,
    /// The candidate the simulated human picks when asked to clean each row
    /// (`None` for clean rows). Indices refer to the dataset's candidate
    /// lists.
    pub truth_choice: Vec<Option<usize>>,
    /// The candidate closest to default (mean/mode) imputation per dirty row;
    /// used to materialize a concrete world for rows not yet cleaned.
    pub default_choice: Vec<Option<usize>>,
}

impl CleaningProblem {
    /// Assemble a problem, wrapping the validation features into their
    /// shared handle.
    pub fn new(
        dataset: IncompleteDataset,
        config: CpConfig,
        val_x: Vec<Vec<f64>>,
        truth_choice: Vec<Option<usize>>,
        default_choice: Vec<Option<usize>>,
    ) -> Self {
        CleaningProblem {
            dataset,
            config,
            val_x: Arc::new(val_x),
            truth_choice,
            default_choice,
        }
    }

    /// The validation features as a plain slice (accessor twin of the
    /// `val_x` field for callers that don't care about the sharing).
    pub fn val_x(&self) -> &[Vec<f64>] {
        &self.val_x
    }
    /// Validate cross-field consistency.
    ///
    /// # Panics
    /// Panics on shape mismatches, missing truth/default choices for dirty
    /// rows, or out-of-range candidate indices.
    pub fn validate(&self) {
        let n = self.dataset.len();
        assert_eq!(self.truth_choice.len(), n, "truth_choice length mismatch");
        assert_eq!(
            self.default_choice.len(),
            n,
            "default_choice length mismatch"
        );
        assert!(!self.val_x.is_empty(), "empty validation set");
        for x in self.val_x.iter() {
            assert_eq!(x.len(), self.dataset.dim(), "validation dimension mismatch");
        }
        for i in 0..n {
            let dirty = self.dataset.example(i).is_dirty();
            for (name, choice) in [
                ("truth", &self.truth_choice[i]),
                ("default", &self.default_choice[i]),
            ] {
                match choice {
                    Some(j) => {
                        assert!(dirty, "{name} choice given for clean row {i}");
                        assert!(
                            *j < self.dataset.set_size(i),
                            "{name} choice out of range at row {i}"
                        );
                    }
                    None => assert!(!dirty, "dirty row {i} lacks a {name} choice"),
                }
            }
        }
    }

    /// Indices of rows a human could be asked to clean.
    pub fn dirty_rows(&self) -> Vec<usize> {
        self.dataset.dirty_indices()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::IncompleteExample;

    pub(crate) fn tiny_problem() -> CleaningProblem {
        let dataset = IncompleteDataset::new(
            vec![
                IncompleteExample::complete(vec![0.0], 0),
                IncompleteExample::incomplete(vec![vec![1.0], vec![9.0]], 0),
                IncompleteExample::complete(vec![10.0], 1),
                IncompleteExample::incomplete(vec![vec![2.0], vec![8.0], vec![11.0]], 1),
            ],
            2,
        )
        .unwrap();
        CleaningProblem::new(
            dataset,
            CpConfig::new(1),
            vec![vec![0.5], vec![9.5]],
            vec![None, Some(0), None, Some(2)],
            vec![None, Some(1), None, Some(1)],
        )
    }

    #[test]
    fn valid_problem_passes() {
        tiny_problem().validate();
        assert_eq!(tiny_problem().dirty_rows(), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "lacks a truth choice")]
    fn missing_truth_choice_rejected() {
        let mut p = tiny_problem();
        p.truth_choice[1] = None;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_choice_rejected() {
        let mut p = tiny_problem();
        p.default_choice[3] = Some(9);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn bad_val_dim_rejected() {
        let mut p = tiny_problem();
        Arc::make_mut(&mut p.val_x)[0] = vec![1.0, 2.0];
        p.validate();
    }

    #[test]
    fn clones_share_the_validation_features() {
        let p = tiny_problem();
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.val_x, &q.val_x), "clone must alias val_x");
        assert_eq!(p.val_x(), q.val_x());
    }
}
