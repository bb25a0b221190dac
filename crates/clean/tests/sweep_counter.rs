//! Tally-tree accounting for the greedy step's pin sweeps.
//!
//! A greedy step scores every cache-missed row under each of its pins. A
//! validation point's base entropy and all of its hypothetical entropies
//! come from one opened tree scan (`cp_core::PinnedProbabilities`), so a
//! step builds `n_labels` tally trees per validation point it scans — not
//! `n_labels` per base scan plus `n_labels` per (row, pin), which is what
//! the naive scorer still spends.
//!
//! This lives in its own integration-test binary with a single `#[test]`
//! because the registry counters it reads are process-wide: concurrent
//! tests in a shared binary would perturb the arithmetic.

use cp_clean::{CleaningProblem, CleaningSession, RunOptions};
use cp_core::poly::tree_build_count;
use cp_core::q2_probability_count;
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Candidates per dirty row.
const M: usize = 3;

/// Two 1-D label clusters plus dirty rows of `M` candidates straddling the
/// decision boundary, K = 3 (the tree path; binary labels keep the status
/// refresh on the tree-free MM route).
fn synthetic_problem(seed: u64, n_clean: usize, n_dirty: usize, n_val: usize) -> CleaningProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut examples = Vec::new();
    for i in 0..n_clean {
        let label = i % 2;
        let center = if label == 0 { 0.0 } else { 10.0 };
        examples.push(IncompleteExample::complete(
            vec![center + rng.gen_range(-1.5..1.5)],
            label,
        ));
    }
    for _ in 0..n_dirty {
        let label = rng.gen_range(0usize..2);
        let candidates = (0..M).map(|_| vec![rng.gen_range(0.0..10.0)]).collect();
        examples.push(IncompleteExample::incomplete(candidates, label));
    }
    let n = examples.len();
    let dataset = IncompleteDataset::new(examples, 2).unwrap();
    let mut truth_choice = vec![None; n];
    let mut default_choice = vec![None; n];
    for i in n_clean..n {
        truth_choice[i] = Some(0);
        default_choice[i] = Some(1);
    }
    CleaningProblem {
        dataset,
        config: CpConfig::new(3),
        val_x: std::sync::Arc::new((0..n_val).map(|_| vec![rng.gen_range(0.0..10.0)]).collect()),
        truth_choice,
        default_choice,
    }
}

/// Registry counters a selection moves, as deltas.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Work {
    tree_builds: u64,
    evals: u64,
    misses: u64,
    sweeps: u64,
}

fn measure(f: impl FnOnce()) -> Work {
    let read = || Work {
        tree_builds: tree_build_count(),
        evals: q2_probability_count(),
        misses: cp_obs::counter!("clean.selection.cache_misses").get(),
        sweeps: cp_obs::counter!("core.ss.pin_sweeps").get(),
    };
    let before = read();
    f();
    let after = read();
    Work {
        tree_builds: after.tree_builds - before.tree_builds,
        evals: after.evals - before.evals,
        misses: after.misses - before.misses,
        sweeps: after.sweeps - before.sweeps,
    }
}

#[test]
fn a_greedy_step_opens_one_tree_scan_per_scanned_validation_point() {
    let problem = synthetic_problem(42, 16, 10, 8);
    let n_labels = problem.dataset.n_labels() as u64;
    let opts = RunOptions {
        max_cleaned: None,
        n_threads: 1,
        record_every: 1,
    };
    let mut session = CleaningSession::new(&problem, &opts);
    assert!(!session.converged(), "workload must need cleaning");

    let mut steps = 0;
    while !session.converged() {
        let remaining = session.remaining();
        let uncertain = session.status().iter().filter(|&&c| !c).count() as u64;

        // the naive scorer: one full scan per (uncertain point, row, pin)
        let mut naive_pick = 0;
        let naive = measure(|| naive_pick = session.select_next_naive(&remaining));
        assert_eq!(
            naive.tree_builds,
            n_labels * uncertain * (M * remaining.len()) as u64,
            "step {steps}: naive scorer"
        );

        let mut pick = 0;
        let work = measure(|| pick = session.select_next(&remaining));
        assert_eq!(pick, naive_pick, "step {steps}: scorers must agree");
        // every miss sweeps one row and answers its M pins; every other
        // evaluation is a rebuilt state's base distribution
        assert_eq!(work.sweeps, work.misses, "step {steps}");
        let rebuilt = work.evals - M as u64 * work.misses;
        // every step scores every remaining row, so a state kept from an
        // earlier step never misses: the step opens exactly one scan per
        // rebuilt state
        assert_eq!(
            work.tree_builds,
            n_labels * rebuilt,
            "step {steps}: {work:?}, {uncertain} uncertain"
        );
        if steps == 0 {
            // cold: every uncertain point is rebuilt and scanned once
            assert_eq!(rebuilt, uncertain);
            assert!(work.misses > 0, "a cold step must sweep rows");
            assert!(work.tree_builds < naive.tree_builds);
        }
        session.clean(pick);
        steps += 1;
    }
    assert!(steps >= 2, "workload must be multi-step (took {steps})");
}
