//! Shared experiment plumbing: dataset-bundle → cleaning-problem adapter and
//! the end-to-end Table 2 runner.

use cp_clean::{
    gap_closed, holoclean_impute, run_boostclean, CleaningProblem, CleaningRun, CleaningSession,
    HoloCleanOptions, RunOptions,
};
use cp_core::CpConfig;
use cp_datasets::{make_bundle, prepare, BundleConfig, DatasetProfile, PreparedDataset};
use cp_knn::KnnClassifier;
use cp_table::default_clean;

/// Experiment sizing, read from the environment so every regenerator binary
/// honours the same knobs:
///
/// * `CP_SCALE` — multiplies all split sizes (default 1.0),
/// * `CP_SEED` — master seed (default 7),
/// * `CP_THREADS` — worker threads (default: available parallelism).
#[derive(Clone, Debug)]
pub struct ExperimentScale {
    /// Training rows.
    pub n_train: usize,
    /// Validation rows.
    pub n_val: usize,
    /// Test rows.
    pub n_test: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub n_threads: usize,
}

impl ExperimentScale {
    /// Laptop-scale defaults scaled by `CP_SCALE` (the paper's full scale is
    /// roughly `CP_SCALE=3` with 1000-example validation/test sets).
    pub fn from_env() -> Self {
        let scale: f64 = std::env::var("CP_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        let seed: u64 = std::env::var("CP_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(7);
        let n_threads = rayon::current_num_threads();
        ExperimentScale {
            n_train: ((300.0 * scale) as usize).max(60),
            n_val: ((150.0 * scale) as usize).max(20),
            n_test: ((600.0 * scale) as usize).max(40),
            seed,
            n_threads,
        }
    }

    /// Bundle configuration for these sizes.
    pub fn bundle_config(&self) -> BundleConfig {
        let mut cfg = BundleConfig::laptop(self.seed);
        cfg.n_train = self.n_train;
        cfg.n_val = self.n_val;
        cfg.n_test = self.n_test;
        cfg
    }

    /// Run options for the cleaning loops.
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            max_cleaned: None,
            n_threads: self.n_threads,
            record_every: 1,
        }
    }
}

/// The seed implementation's cleaning loop, kept as the **rebuild baseline**
/// the session benchmarks compare against: clean `order`'s rows one at a
/// time with a full `val_cp_status` recompute (one similarity-index build
/// per validation point) after every step, stopping at convergence. Both
/// `bench_session` and `figure4_scaling` time this one definition, so the
/// published speedups measure the same baseline.
///
/// Returns `(rows_cleaned, final_cp_status)`.
pub fn seed_style_status_updates(
    problem: &CleaningProblem,
    order: &[usize],
    n_threads: usize,
) -> (usize, Vec<bool>) {
    let mut state = cp_clean::CleaningState::new(problem);
    let mut cp = cp_clean::val_cp_status(problem, state.pins(), n_threads);
    for &row in order {
        if cp.iter().all(|&c| c) {
            break;
        }
        state.clean_row(problem, row);
        cp = cp_clean::val_cp_status(problem, state.pins(), n_threads);
    }
    (state.n_cleaned(), cp)
}

/// Adapt a prepared dataset into the cleaning framework's problem type
/// (3-NN with Euclidean similarity, the paper's §5.1 model).
pub fn problem_from_prepared(prep: &PreparedDataset, k: usize) -> CleaningProblem {
    CleaningProblem {
        dataset: prep.table_dataset.dataset.clone(),
        config: CpConfig::new(k),
        val_x: std::sync::Arc::new(prep.val_x.clone()),
        truth_choice: prep.truth_choice.clone(),
        default_choice: prep.default_choice.clone(),
    }
}

/// One Table 2 row: every method's accuracy/gap on one dataset.
#[derive(Clone, Debug)]
pub struct EndToEndResult {
    /// Dataset name.
    pub name: String,
    /// Ground-truth test accuracy (upper bound).
    pub acc_ground_truth: f64,
    /// Default-cleaning test accuracy (lower bound).
    pub acc_default: f64,
    /// BoostClean gap closed (boosted ensemble).
    pub gap_boostclean: f64,
    /// HoloClean-style cleaner gap closed.
    pub gap_holoclean: f64,
    /// CPClean gap closed at termination.
    pub gap_cpclean: f64,
    /// Fraction of dirty rows CPClean cleaned before all validation examples
    /// were CP'ed.
    pub cpclean_frac_cleaned: f64,
    /// CPClean gap closed when stopped at the 20% cleaning mark.
    pub gap_cpclean_at20: f64,
    /// The full CPClean run (curves for Figures 9/10).
    pub cpclean_run: CleaningRun,
}

/// Run the Table 2 comparison averaged over `reps` seeds.
///
/// The gap-closed metric is a ratio with a small denominator (a few accuracy
/// points over a few hundred test examples), so single-seed numbers are
/// noisy at laptop scale. Accuracies are averaged across seeds *first* and
/// gaps computed from the averages — the standard stabilization for ratio
/// metrics. The returned `cpclean_run` is the first seed's (for curves).
pub fn run_end_to_end_averaged(
    profile: &DatasetProfile,
    scale: &ExperimentScale,
    reps: usize,
) -> EndToEndResult {
    assert!(reps >= 1);
    let runs: Vec<EndToEndRaw> = (0..reps as u64)
        .map(|i| {
            let mut s = scale.clone();
            s.seed = scale.seed + i * 101;
            run_raw(profile, &s)
        })
        .collect();
    let mean = |f: &dyn Fn(&EndToEndRaw) -> f64| -> f64 {
        runs.iter().map(f).sum::<f64>() / runs.len() as f64
    };
    let acc_ground_truth = mean(&|r| r.acc_ground_truth);
    let acc_default = mean(&|r| r.acc_default);
    let acc_boost = mean(&|r| r.acc_boost);
    let acc_holo = mean(&|r| r.acc_holo);
    let acc_cpclean = mean(&|r| r.acc_cpclean);
    let acc_cpclean20 = mean(&|r| r.acc_cpclean20);
    let cpclean_frac_cleaned = mean(&|r| r.frac_cleaned);
    let first = runs.into_iter().next().unwrap();
    EndToEndResult {
        name: profile.name.clone(),
        acc_ground_truth,
        acc_default,
        gap_boostclean: gap_closed(acc_boost, acc_default, acc_ground_truth),
        gap_holoclean: gap_closed(acc_holo, acc_default, acc_ground_truth),
        gap_cpclean: gap_closed(acc_cpclean, acc_default, acc_ground_truth),
        cpclean_frac_cleaned,
        gap_cpclean_at20: gap_closed(acc_cpclean20, acc_default, acc_ground_truth),
        cpclean_run: first.run,
    }
}

struct EndToEndRaw {
    acc_ground_truth: f64,
    acc_default: f64,
    acc_boost: f64,
    acc_holo: f64,
    acc_cpclean: f64,
    acc_cpclean20: f64,
    frac_cleaned: f64,
    run: CleaningRun,
}

/// Run the full Table 2 comparison on one dataset profile (single seed).
pub fn run_end_to_end(profile: &DatasetProfile, scale: &ExperimentScale) -> EndToEndResult {
    let raw = run_raw(profile, scale);
    EndToEndResult {
        name: profile.name.clone(),
        acc_ground_truth: raw.acc_ground_truth,
        acc_default: raw.acc_default,
        gap_boostclean: gap_closed(raw.acc_boost, raw.acc_default, raw.acc_ground_truth),
        gap_holoclean: gap_closed(raw.acc_holo, raw.acc_default, raw.acc_ground_truth),
        gap_cpclean: gap_closed(raw.acc_cpclean, raw.acc_default, raw.acc_ground_truth),
        cpclean_frac_cleaned: raw.frac_cleaned,
        gap_cpclean_at20: gap_closed(raw.acc_cpclean20, raw.acc_default, raw.acc_ground_truth),
        cpclean_run: raw.run,
    }
}

fn run_raw(profile: &DatasetProfile, scale: &ExperimentScale) -> EndToEndRaw {
    let cfg = scale.bundle_config();
    let bundle = make_bundle(profile, &cfg);
    let prep = prepare(&bundle, &cfg.repair);
    let k = 3;
    let n_labels = prep.n_labels;
    let labels = &prep.table_dataset.labels;

    let fit_score = |train_x: Vec<Vec<f64>>| -> f64 {
        KnnClassifier::new(k)
            .fit(train_x, labels.clone(), n_labels)
            .accuracy(&prep.test_x, &prep.test_y)
    };

    // bounds
    let acc_ground_truth = fit_score(prep.gt_train_x.clone());
    let acc_default = fit_score(
        prep.encoder
            .encode_table(&default_clean(&bundle.dirty_train)),
    );

    // BoostClean (boosted ensemble over the shared repair family)
    let boost = run_boostclean(
        &bundle.dirty_train,
        labels,
        n_labels,
        &prep.encoder,
        k,
        &prep.val_x,
        &prep.val_y,
        &prep.test_x,
        &prep.test_y,
        3,
    );

    // HoloClean-style standalone probabilistic cleaning
    let holo_table = holoclean_impute(
        &bundle.dirty_train,
        &bundle.feature_cols,
        &HoloCleanOptions::default(),
    );
    let acc_holo = fit_score(prep.encoder.encode_table(&holo_table));

    // CPClean to convergence, on the stateful session engine (indexes built
    // once per run, CP status maintained incrementally)
    let problem = problem_from_prepared(&prep, k);
    let run = CleaningSession::new(&problem, &scale.run_options())
        .run_to_convergence(&prep.test_x, &prep.test_y);

    EndToEndRaw {
        acc_ground_truth,
        acc_default,
        // the paper's configuration: "selects, from a predefined set of
        // cleaning methods, the one that has the maximum validation
        // accuracy" — i.e. best-single selection (the boosted ensemble is
        // available via cp_clean::BoostCleanResult::ensemble_test_accuracy)
        acc_boost: boost.best_test_accuracy,
        acc_holo,
        acc_cpclean: run.final_point().test_accuracy,
        acc_cpclean20: run.accuracy_at_budget(0.2),
        frac_cleaned: run.final_point().frac_cleaned,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_datasets::bank;

    #[test]
    fn end_to_end_runs_on_a_small_instance() {
        let scale = ExperimentScale {
            n_train: 60,
            n_val: 20,
            n_test: 40,
            seed: 3,
            n_threads: 2,
        };
        let r = run_end_to_end(&bank(), &scale);
        assert_eq!(r.name, "Bank");
        assert!(r.acc_ground_truth > 0.5);
        assert!((0.0..=1.0).contains(&r.cpclean_frac_cleaned));
        assert!(!r.cpclean_run.curve.is_empty());
        // CPClean converged: every validation example certainly predicted
        assert!(r.cpclean_run.converged);
    }
}
