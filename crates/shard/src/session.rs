//! Sharded cleaning sessions: the same stateful engine as
//! [`CleaningSession`], scaled across dataset partitions.
//!
//! A [`ShardedSession`] partitions the cleaning problem's incomplete
//! dataset into contiguous row-range shards and owns **one
//! [`CleaningSession`] per shard**, each over its shard-local sub-problem:
//! the shard session builds its partition-local `ValIndexCache` exactly
//! once per run (the build-counter test pins this at
//! `n_shards × |val|` index builds total) and maintains the shard's slice
//! of the global pin mask as rows get cleaned. What crosses shard
//! boundaries is only what the factor-merge algebra needs: per-label
//! [`cp_core::ShardFactors`] summaries during merged scans, global row ids
//! for pin routing, and the coordinator's CP status bitvector.
//!
//! The coordinator (this type) mirrors the single-process session's public
//! surface — [`ShardedSession::step`] / [`ShardedSession::status`] /
//! [`ShardedSession::run_to_convergence`] / [`ShardedSession::run_order`] —
//! and recomputes global certainty by merging shard factors (the
//! [`crate::scan`] protocol). Greedy selection is routed to the owning
//! shard: pinning a candidate of row `r` touches exactly one shard's local
//! pin mask, and every other shard's factor stream is reused as-is. Shard
//! evaluation fans out on the rayon shim's process-wide worker pool, at
//! most [`RunOptions::n_threads`] threads per call.
//!
//! Status answers take the same dispatch as the single-process session:
//! binary label spaces go through the rank-merged MM extreme-summary fast
//! path (no tally trees, no boundary-event stream), everything else through
//! the exact `Possibility`-semiring merged scan — either way the sharded
//! session's status vector is **identically equal** to the single
//! session's for every shard count — the shard-count-invariance property
//! tests assert this, along with greedy-selection and `run_order`
//! equivalence.

use crate::scan::{certain_label_sharded_with_indexes, q2_probabilities_sharded_with_indexes};
use cp_clean::metrics::CleaningRun;
use cp_clean::{
    pick_min_expected_entropy, select_next_incremental, CleaningEngine, CleaningProblem,
    CleaningSession, CleaningState, RunOptions, SelectionBackend, SelectionCache,
};
use cp_core::{DatasetShard, Pins, SimilarityIndex};
use cp_knn::Label;
use cp_numeric::stats::entropy_bits;
use rayon::prelude::*;
use std::convert::Infallible;
use std::sync::{Arc, Mutex};

/// A cleaning run distributed over dataset shards: one shard-local
/// [`CleaningSession`] per partition plus the coordinator's global cleaning
/// state and incrementally maintained CP status.
#[derive(Debug)]
pub struct ShardedSession {
    problem: Arc<CleaningProblem>,
    opts: RunOptions,
    shards: Vec<DatasetShard>,
    sessions: Vec<CleaningSession>,
    /// `owner[row]` = index of the shard owning a global row.
    owner: Vec<usize>,
    state: CleaningState,
    cp: Vec<bool>,
    /// Incremental selection state over *global* row ids
    /// ([`cp_clean::selection`]); a mutex because status refreshes fan
    /// `&self` across pool workers.
    sel: Mutex<SelectionCache>,
}

impl Clone for ShardedSession {
    fn clone(&self) -> Self {
        ShardedSession {
            problem: Arc::clone(&self.problem),
            opts: self.opts.clone(),
            shards: self.shards.clone(),
            sessions: self.sessions.clone(),
            owner: self.owner.clone(),
            state: self.state.clone(),
            cp: self.cp.clone(),
            sel: Mutex::new(self.lock_sel().clone()),
        }
    }
}

impl ShardedSession {
    /// Open a sharded session: partition the dataset into (at most)
    /// `n_shards` row ranges, open one shard-local [`CleaningSession`] per
    /// partition (shards build their partition-local indexes concurrently,
    /// splitting the thread budget), and evaluate the initial global CP
    /// status by factor-merged scans.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero or the problem does not validate.
    pub fn new(problem: &CleaningProblem, n_shards: usize, opts: &RunOptions) -> Self {
        problem.validate();
        let problem = Arc::new(problem.clone());
        let shards = problem.dataset.partition(n_shards);
        let mut owner = vec![0usize; problem.dataset.len()];
        for (s, sh) in shards.iter().enumerate() {
            for row in sh.rows() {
                owner[row] = s;
            }
        }
        // one sub-problem per shard: the shard's rows (locally indexed), the
        // full validation set (shared — `val_x` is one Arc'd allocation
        // across the session and every shard sub-problem), and the matching
        // slices of the simulated human's choices
        let shard_problems: Vec<Arc<CleaningProblem>> = shards
            .iter()
            .map(|sh| {
                Arc::new(CleaningProblem {
                    dataset: sh.dataset().clone(),
                    config: problem.config,
                    val_x: problem.val_x.clone(),
                    truth_choice: problem.truth_choice[sh.rows()].to_vec(),
                    default_choice: problem.default_choice[sh.rows()].to_vec(),
                })
            })
            .collect();
        // fan shard-session construction out across shards, splitting the
        // thread budget between the shard level and each session's own
        // per-validation-point index builds; deferred = no shard-local CP
        // evaluation (global certainty is the coordinator's job)
        let outer = opts.n_threads.min(shards.len()).max(1);
        let inner_opts = RunOptions {
            n_threads: (opts.n_threads / outer).max(1),
            ..opts.clone()
        };
        let sessions = shard_problems
            .par_iter()
            .with_max_threads(outer)
            .map(|sp| CleaningSession::from_arc_deferred(Arc::clone(sp), &inner_opts))
            .collect();
        let state = CleaningState::new(&problem);
        let cp = vec![false; problem.val_x.len()];
        let sel = Mutex::new(SelectionCache::new(
            problem.dataset.len(),
            problem.val_x.len(),
        ));
        let mut session = ShardedSession {
            problem,
            opts: opts.clone(),
            shards,
            sessions,
            owner,
            state,
            cp,
            sel,
        };
        session.refresh_status();
        session
    }

    /// The selection cache, recovering from a poisoned lock (no partial
    /// writes can break it: mutations are append-only or whole-state
    /// replacements).
    fn lock_sel(&self) -> std::sync::MutexGuard<'_, SelectionCache> {
        self.sel.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The (global) problem this session cleans.
    pub fn problem(&self) -> &CleaningProblem {
        &self.problem
    }

    /// Number of shards the dataset was partitioned into.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The dataset partition.
    pub fn shards(&self) -> &[DatasetShard] {
        &self.shards
    }

    /// The shard-local cleaning sessions, aligned with [`Self::shards`].
    ///
    /// These sessions carry each shard's pin mask and partition-local index
    /// cache; their own `status()` is never evaluated (certainty over a
    /// sub-dataset is not meaningful globally — ask [`Self::status`] or
    /// [`Self::certain_label_at`] instead).
    pub fn shard_sessions(&self) -> &[CleaningSession] {
        &self.sessions
    }

    /// The shard owning a global row.
    pub fn owner_of(&self, row: usize) -> usize {
        self.owner[row]
    }

    /// The global cleaning progress so far.
    pub fn state(&self) -> &CleaningState {
        &self.state
    }

    /// Per-validation-point global CP status under the current pins
    /// (`true` = certainly predicted), maintained incrementally by
    /// factor-merged scans.
    pub fn status(&self) -> &[bool] {
        &self.cp
    }

    /// Number of validation points currently certainly predicted.
    pub fn n_certain(&self) -> usize {
        self.cp.iter().filter(|&&c| c).count()
    }

    /// `true` iff every validation point is certainly predicted.
    pub fn converged(&self) -> bool {
        self.cp.iter().all(|&c| c)
    }

    /// Rows cleaned so far.
    pub fn n_cleaned(&self) -> usize {
        self.state.n_cleaned()
    }

    /// Dirty rows not yet cleaned (global row ids).
    pub fn remaining(&self) -> Vec<usize> {
        self.state.remaining(&self.problem)
    }

    /// The certainly-predicted label of validation point `v` (if any) under
    /// the current pins, by a factor-merged scan over the shard sessions'
    /// cached indexes.
    pub fn certain_label_at(&self, v: usize) -> Option<Label> {
        let indexes: Vec<&SimilarityIndex> = self.sessions.iter().map(|s| &*s.cache()[v]).collect();
        let pins: Vec<&Pins> = self.sessions.iter().map(|s| s.state().pins()).collect();
        certain_label_sharded_with_indexes(&self.shards, &indexes, &pins, &self.problem.config)
    }

    /// Re-evaluate the not-yet-certain validation points (certainty is
    /// monotone under cleaning, exactly as in the single-process session),
    /// fanning the merged scans out over the thread budget.
    fn refresh_status(&mut self) {
        let uncertain: Vec<usize> = (0..self.cp.len()).filter(|&v| !self.cp[v]).collect();
        if uncertain.is_empty() {
            return;
        }
        let fresh: Vec<bool> = {
            let this = &*self;
            uncertain
                .par_iter()
                .with_max_threads(this.opts.n_threads)
                .map(|&v| this.certain_label_at(v).is_some())
                .collect()
        };
        for (&v, now_certain) in uncertain.iter().zip(fresh) {
            self.cp[v] = now_certain;
        }
    }

    /// Clean one externally chosen global row: route the pin to the owning
    /// shard's session (pin-only — global certainty is the coordinator's
    /// job, so the shard session skips its own local status refresh), then
    /// refresh the global CP status by factor-merged scans.
    ///
    /// # Panics
    /// Panics if the row is clean or already cleaned.
    pub fn clean(&mut self, row: usize) {
        self.state.clean_row(&self.problem, row);
        let s = self.owner[row];
        let local = self.shards[s].local_row(row).expect("owner map is exact");
        self.sessions[s].clean_pin_only(local);
        self.refresh_status();
    }

    /// The greedy CPClean selection over the given candidate rows —
    /// incremental: scores are cached across steps in an epoch-keyed
    /// [`SelectionCache`] over *global* rows, and rows the cached entropy
    /// bounds exclude are never rescored (see [`cp_clean::selection`]).
    /// Hypothetical scans still route to the owning shard only. Selects the
    /// identical row as [`ShardedSession::select_next_naive`].
    pub fn select_next(&self, remaining: &[usize]) -> usize {
        let mut backend = ShardedBackend { session: self };
        let result = select_next_incremental(
            &self.problem,
            self.state.pins(),
            &self.cp,
            remaining,
            &mut self.lock_sel(),
            &mut backend,
        );
        match result {
            Ok(row) => row,
        }
    }

    /// The from-scratch sharded greedy selection, routed to the owning
    /// shards: evaluating a pin on row `r` modifies only the owner's local
    /// pin mask, and every other shard's factors are merged unchanged.
    /// Scoring is [`pick_min_expected_entropy`] — the *same code*
    /// [`CleaningSession::select_next_naive`] scores with, so the rule
    /// cannot diverge between engines. This is the reference scorer
    /// [`ShardedSession::select_next`] must match row for row; kept callable
    /// for the lockstep equivalence tests and benchmarks.
    pub fn select_next_naive(&self, remaining: &[usize]) -> usize {
        debug_assert!(!remaining.is_empty());
        let uncertain: Vec<usize> = (0..self.cp.len()).filter(|&v| !self.cp[v]).collect();
        if uncertain.is_empty() {
            return remaining[0];
        }

        let per_val: Vec<Vec<Vec<f64>>> = uncertain
            .par_iter()
            .with_max_threads(self.opts.n_threads)
            .map(|&v| {
                let indexes: Vec<&SimilarityIndex> =
                    self.sessions.iter().map(|s| &*s.cache()[v]).collect();
                // one clone of each shard's mask per worker; candidate pins are
                // applied and reverted in place (the `with_pin` discipline,
                // across shard masks)
                let mut masks: Vec<Pins> = self
                    .sessions
                    .iter()
                    .map(|s| s.state().pins().clone())
                    .collect();
                remaining
                    .iter()
                    .map(|&row| {
                        let s = self.owner[row];
                        let local = self.shards[s].local_row(row).expect("owner map is exact");
                        (0..self.problem.dataset.set_size(row))
                            .map(|j| {
                                masks[s].pin(local, j);
                                let probs = q2_probabilities_sharded_with_indexes(
                                    &self.shards,
                                    &indexes,
                                    &masks,
                                    &self.problem.config,
                                );
                                // candidate rows are uncleaned, so restoring
                                // means unpinning
                                masks[s].unpin(local);
                                entropy_bits(&probs)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();

        pick_min_expected_entropy(&self.problem, remaining, &per_val)
    }

    /// One greedy CPClean iteration (sharded) — [`CleaningEngine::step`],
    /// same contract as [`CleaningSession::step`].
    pub fn step(&mut self) -> Option<usize> {
        CleaningEngine::step(self)
    }

    /// Greedy run with curve recording —
    /// [`CleaningEngine::run_to_convergence`]. The run loop (budget,
    /// recording cadence, termination) is the *same code* the single-process
    /// session drives, so sharded and single-process runs record identical
    /// curve schedules by construction.
    pub fn run_to_convergence(&mut self, test_x: &[Vec<f64>], test_y: &[usize]) -> CleaningRun {
        CleaningEngine::run_to_convergence(self, test_x, test_y)
    }

    /// Fixed-order run with curve recording — [`CleaningEngine::run_order`],
    /// the sharded twin of [`CleaningSession::run_order`] (global row ids).
    pub fn run_order(
        &mut self,
        order: &[usize],
        test_x: &[Vec<f64>],
        test_y: &[usize],
    ) -> CleaningRun {
        CleaningEngine::run_order(self, order, test_x, test_y)
    }
}

impl CleaningEngine for ShardedSession {
    fn problem(&self) -> &CleaningProblem {
        &self.problem
    }

    fn run_options(&self) -> &RunOptions {
        &self.opts
    }

    fn cleaning_state(&self) -> &CleaningState {
        &self.state
    }

    fn n_certain(&self) -> usize {
        ShardedSession::n_certain(self)
    }

    fn n_val(&self) -> usize {
        self.cp.len()
    }

    fn clean(&mut self, row: usize) {
        ShardedSession::clean(self, row);
    }

    fn select_next(&self, remaining: &[usize]) -> usize {
        ShardedSession::select_next(self, remaining)
    }
}

/// [`SelectionBackend`] over the shard sessions' cached indexes: the exact
/// same routed `q2_probabilities_sharded_with_indexes` + `entropy_bits`
/// calls [`ShardedSession::select_next_naive`] makes, so the incremental
/// loop scores bit-identically to the sharded naive scorer.
struct ShardedBackend<'a> {
    session: &'a ShardedSession,
}

impl SelectionBackend for ShardedBackend<'_> {
    type Error = Infallible;

    fn base_entropy(&mut self, v: usize) -> Result<f64, Infallible> {
        let sess = self.session;
        let indexes: Vec<&SimilarityIndex> = sess.sessions.iter().map(|s| &*s.cache()[v]).collect();
        let masks: Vec<&Pins> = sess.sessions.iter().map(|s| s.state().pins()).collect();
        Ok(entropy_bits(&q2_probabilities_sharded_with_indexes(
            &sess.shards,
            &indexes,
            &masks,
            &sess.problem.config,
        )))
    }

    fn hypothetical_entropies(&mut self, v: usize, row: usize) -> Result<Vec<f64>, Infallible> {
        let sess = self.session;
        let indexes: Vec<&SimilarityIndex> = sess.sessions.iter().map(|s| &*s.cache()[v]).collect();
        let mut masks: Vec<Pins> = sess
            .sessions
            .iter()
            .map(|s| s.state().pins().clone())
            .collect();
        let s = sess.owner[row];
        let local = sess.shards[s].local_row(row).expect("owner map is exact");
        Ok((0..sess.problem.dataset.set_size(row))
            .map(|j| {
                masks[s].pin(local, j);
                let probs = q2_probabilities_sharded_with_indexes(
                    &sess.shards,
                    &indexes,
                    &masks,
                    &sess.problem.config,
                );
                masks[s].unpin(local);
                entropy_bits(&probs)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};

    /// The targeted instance the single-session unit tests use: two dirty
    /// rows, only row 1 influences the validation point.
    fn targeted_problem() -> CleaningProblem {
        let dataset = IncompleteDataset::new(
            vec![
                IncompleteExample::complete(vec![0.0], 0),
                IncompleteExample::incomplete(vec![vec![4.8], vec![7.0]], 0),
                IncompleteExample::complete(vec![5.5], 1),
                IncompleteExample::incomplete(vec![vec![100.0], vec![101.0]], 1),
            ],
            2,
        )
        .unwrap();
        CleaningProblem {
            dataset,
            config: CpConfig::new(1),
            val_x: std::sync::Arc::new(vec![vec![5.0], vec![0.1]]),
            truth_choice: vec![None, Some(0), None, Some(0)],
            default_choice: vec![None, Some(1), None, Some(1)],
        }
    }

    fn opts(n_threads: usize) -> RunOptions {
        RunOptions {
            max_cleaned: None,
            n_threads,
            record_every: 1,
        }
    }

    #[test]
    fn sharded_status_matches_single_session_for_every_shard_count() {
        let p = targeted_problem();
        for n_shards in [1, 2, 3, 4, 9] {
            let single = CleaningSession::new(&p, &opts(1));
            let sharded = ShardedSession::new(&p, n_shards, &opts(2));
            assert!(sharded.n_shards() <= p.dataset.len());
            assert_eq!(
                sharded.status(),
                single.status(),
                "fresh status, n_shards={n_shards}"
            );
        }
    }

    #[test]
    fn sharded_step_targets_the_influential_row_and_converges() {
        let p = targeted_problem();
        let mut session = ShardedSession::new(&p, 2, &opts(1));
        assert!(!session.converged());
        assert_eq!(session.n_certain(), 1);
        let row = session.step().expect("one step available");
        assert_eq!(row, 1, "greedy step must target the influential row");
        assert!(session.converged());
        assert_eq!(session.step(), None);
        assert_eq!(session.n_cleaned(), 1);
    }

    #[test]
    fn cleaning_routes_pins_to_the_owning_shard() {
        let p = targeted_problem();
        let mut session = ShardedSession::new(&p, 2, &opts(1));
        let s = session.owner_of(3);
        let local = session.shards()[s].local_row(3).unwrap();
        session.clean(3);
        assert_eq!(session.state().pins().pinned(3), Some(0), "global pin set");
        assert_eq!(
            session.shard_sessions()[s].state().pins().pinned(local),
            Some(0),
            "owning shard pinned locally"
        );
        // the other shard's mask is untouched
        let other = 1 - s;
        let other_len = session.shards()[other].len();
        for i in 0..other_len {
            assert_eq!(
                session.shard_sessions()[other].state().pins().pinned(i),
                None
            );
        }
    }

    /// The S+1-copies bug regression: every shard sub-problem (and its
    /// session's index cache) must alias the *same* `val_x` allocation as
    /// the session's global problem — which itself aliases the caller's.
    #[test]
    fn one_val_x_allocation_per_session_regardless_of_shard_count() {
        let p = targeted_problem();
        for n_shards in [1, 2, 3, 9] {
            let session = ShardedSession::new(&p, n_shards, &opts(1));
            assert!(
                Arc::ptr_eq(&p.val_x, &session.problem().val_x),
                "session problem must alias the caller's val_x"
            );
            for (s, shard_session) in session.shard_sessions().iter().enumerate() {
                assert!(
                    Arc::ptr_eq(&p.val_x, &shard_session.problem().val_x),
                    "shard {s} sub-problem must alias val_x (n_shards={n_shards})"
                );
                assert!(
                    Arc::ptr_eq(&p.val_x, shard_session.cache().points_shared()),
                    "shard {s} index cache must alias val_x (n_shards={n_shards})"
                );
            }
        }
    }

    #[test]
    fn budget_stops_stepping() {
        let p = targeted_problem();
        let mut o = opts(1);
        o.max_cleaned = Some(0);
        let mut session = ShardedSession::new(&p, 3, &o);
        assert_eq!(session.step(), None);
        assert_eq!(session.n_cleaned(), 0);
        assert!(!session.converged());
    }

    #[test]
    fn run_order_matches_single_session() {
        let p = targeted_problem();
        for n_shards in [1, 2, 4] {
            let sharded =
                ShardedSession::new(&p, n_shards, &opts(1)).run_order(&[1, 3], &[vec![5.0]], &[0]);
            let single = CleaningSession::new(&p, &opts(1)).run_order(&[1, 3], &[vec![5.0]], &[0]);
            assert_eq!(sharded.order, single.order, "n_shards={n_shards}");
            assert_eq!(sharded.converged, single.converged);
            assert_eq!(sharded.curve.len(), single.curve.len());
        }
    }
}
