//! The stateful cleaning engine: one [`CleaningSession`] per cleaning run.
//!
//! The seed port of CPClean (§4.1, Algorithm 3) re-evaluated every
//! validation point from scratch each iteration: `val_cp_status` and
//! `select_next` rebuilt each point's `SimilarityIndex` (the
//! `O(NM log NM)` sort) every time they were called, and the full CP status
//! vector was recomputed after every cleaning step. Both costs are
//! avoidable, and this module is where they are avoided:
//!
//! * **Index caching.** Pinning never changes candidate similarities — a
//!   [`cp_core::Pins`] mask only selects which candidates participate — so a
//!   validation point's similarity index is invariant across the whole run.
//!   The session builds a [`ValIndexCache`] once (`O(|val| · NM)`) and
//!   every subsequent selection step and status update reuses it, reducing
//!   the per-iteration cost from index builds plus scanning to scanning
//!   alone.
//! * **Incremental CP status.** CP certainty is monotone under cleaning:
//!   pinning a row shrinks the world set, and if every world predicted the
//!   same label before, every remaining world still does. The session
//!   therefore keeps a status vector and, after each cleaning step,
//!   re-evaluates *only* the not-yet-certain validation points.
//!
//! A session owns the problem reference, the [`CleaningState`], the index
//! cache and the status vector; [`CleaningSession::step`] performs one
//! greedy CPClean iteration, [`CleaningSession::run_to_convergence`] drives
//! a full run with curve recording, and [`CleaningSession::clean`] applies
//! an externally chosen row (the RandomClean baseline and the
//! incrementality property tests drive this). The legacy free functions
//! (`run_cpclean`, `select_next`, `val_cp_status`, `run_random_clean`) are
//! thin wrappers over this engine, so existing callers are source
//! compatible.
//!
//! The sharded engine (`cp-rpc`'s `RpcCoordinator`) keeps no session per
//! shard: only the coordinator, which merges every shard's factors, can
//! decide certainty, so a shard server holds just each session's
//! [`CleaningState`] and one [`index_cache`] per shard.

use crate::cpclean::RunOptions;
use crate::eval::state_accuracy;
use crate::metrics::{CleaningRun, CurvePoint};
use crate::problem::CleaningProblem;
use crate::selection::{nan_guard, select_next_incremental, SelectionBackend, SelectionCache};
use crate::state::CleaningState;
use cp_core::{
    certain_label_with_index, q2_probabilities_with_index, PinnedProbabilities, Pins,
    SimilarityIndex, ValIndexCache,
};
use cp_numeric::stats::entropy_bits;
use rayon::prelude::*;
use std::convert::Infallible;
use std::sync::{Arc, Mutex};

/// A cleaning run in progress: problem + cleaning state + cached similarity
/// indexes + incrementally maintained CP status.
///
/// The session *shares* its problem behind an [`Arc`] rather than borrowing
/// it, so sessions are freely movable across threads and owners.
#[derive(Debug)]
pub struct CleaningSession {
    problem: Arc<CleaningProblem>,
    opts: RunOptions,
    state: CleaningState,
    cache: ValIndexCache,
    cp: Vec<bool>,
    /// Incremental selection state ([`crate::selection`]); behind a mutex —
    /// not a `RefCell` — because selection takes `&self` and a session is
    /// shared across threads by `&`.
    sel: Mutex<SelectionCache>,
}

impl Clone for CleaningSession {
    fn clone(&self) -> Self {
        CleaningSession {
            problem: Arc::clone(&self.problem),
            opts: self.opts.clone(),
            state: self.state.clone(),
            cache: self.cache.clone(),
            cp: self.cp.clone(),
            sel: Mutex::new(self.lock_sel().clone()),
        }
    }
}

impl CleaningSession {
    /// Open a session over a clone of the problem. See
    /// [`CleaningSession::from_arc`] for the zero-copy variant.
    pub fn new(problem: &CleaningProblem, opts: &RunOptions) -> Self {
        Self::from_arc(Arc::new(problem.clone()), opts)
    }

    /// Open a session: validate the problem, build every validation point's
    /// similarity index **once** ([`index_cache`], at most
    /// [`RunOptions::n_threads`] threads), and evaluate the initial CP status.
    pub fn from_arc(problem: Arc<CleaningProblem>, opts: &RunOptions) -> Self {
        problem.validate();
        let cache = index_cache(&problem, opts.n_threads);
        let state = CleaningState::new(&problem);
        let cp = vec![false; problem.val_x.len()];
        let sel = Mutex::new(SelectionCache::new(
            problem.dataset.len(),
            problem.val_x.len(),
        ));
        let mut session = CleaningSession {
            problem,
            opts: opts.clone(),
            state,
            cache,
            cp,
            sel,
        };
        session.refresh_status();
        session
    }

    /// The selection cache, recovering from a poisoned lock (the cache holds
    /// no invariants a panicking selection could break mid-write: every
    /// mutation is either append-only or a whole-state replacement).
    fn lock_sel(&self) -> std::sync::MutexGuard<'_, SelectionCache> {
        self.sel.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The problem this session cleans.
    pub fn problem(&self) -> &CleaningProblem {
        &self.problem
    }

    /// The cleaning progress so far.
    pub fn state(&self) -> &CleaningState {
        &self.state
    }

    /// The shared per-validation-point index cache.
    pub fn cache(&self) -> &ValIndexCache {
        &self.cache
    }

    /// Per-validation-point CP status under the current pins (`true` =
    /// certainly predicted), maintained incrementally.
    pub fn status(&self) -> &[bool] {
        &self.cp
    }

    /// Number of validation points currently certainly predicted.
    pub fn n_certain(&self) -> usize {
        self.cp.iter().filter(|&&c| c).count()
    }

    /// `true` iff every validation point is certainly predicted — CPClean's
    /// termination condition.
    pub fn converged(&self) -> bool {
        self.cp.iter().all(|&c| c)
    }

    /// Rows cleaned so far.
    pub fn n_cleaned(&self) -> usize {
        self.state.n_cleaned()
    }

    /// Dirty rows not yet cleaned.
    pub fn remaining(&self) -> Vec<usize> {
        self.state.remaining(&self.problem)
    }

    /// Re-evaluate the not-yet-certain validation points under the current
    /// pins. Already-certain points are skipped — certainty is monotone
    /// under cleaning, so their status cannot change.
    fn refresh_status(&mut self) {
        let uncertain: Vec<usize> = (0..self.cp.len()).filter(|&v| !self.cp[v]).collect();
        if uncertain.is_empty() {
            return;
        }
        let pins = self.state.pins();
        let fresh: Vec<bool> = uncertain
            .par_iter()
            .with_max_threads(self.opts.n_threads)
            .map(|&v| {
                certain_label_with_index(
                    &self.problem.dataset,
                    &self.problem.config,
                    &self.cache[v],
                    pins,
                )
                .is_some()
            })
            .collect();
        for (&v, now_certain) in uncertain.iter().zip(fresh) {
            self.cp[v] = now_certain;
        }
    }

    /// Clean one externally chosen row (the RandomClean path and the
    /// simulated human of §4), then incrementally update the CP status.
    ///
    /// # Panics
    /// Panics if the row is clean or already cleaned.
    pub fn clean(&mut self, row: usize) {
        self.state.clean_row(&self.problem, row);
        self.refresh_status();
    }

    /// The greedy CPClean selection (Algorithm 3, lines 5–9) over the given
    /// candidate rows — incremental: entropy scores are cached across steps
    /// in an epoch-keyed [`SelectionCache`] and rows the cached bounds
    /// already exclude are never rescored (see [`crate::selection`]).
    /// Selects the identical row as [`CleaningSession::select_next_naive`].
    pub fn select_next(&self, remaining: &[usize]) -> usize {
        let mut backend = SessionBackend::new(&self.problem, self.state.pins(), &self.cache);
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

    /// The from-scratch greedy selection over the cached indexes — the
    /// reference scorer [`CleaningSession::select_next`] must match row for
    /// row; kept callable for the lockstep equivalence tests and benchmarks.
    pub fn select_next_naive(&self, remaining: &[usize]) -> usize {
        let cache = &self.cache;
        select_next_with(
            &self.problem,
            self.state.pins(),
            &self.cp,
            remaining,
            self.opts.n_threads,
            |v| Arc::clone(&cache[v]),
        )
    }

    /// One CPClean iteration — [`CleaningEngine::step`].
    pub fn step(&mut self) -> Option<usize> {
        CleaningEngine::step(self)
    }

    /// Greedy run with curve recording —
    /// [`CleaningEngine::run_to_convergence`].
    pub fn run_to_convergence(&mut self, test_x: &[Vec<f64>], test_y: &[usize]) -> CleaningRun {
        CleaningEngine::run_to_convergence(self, test_x, test_y)
    }

    /// Fixed-order run with curve recording — [`CleaningEngine::run_order`].
    /// RandomClean is this with a shuffled order.
    pub fn run_order(
        &mut self,
        order: &[usize],
        test_x: &[Vec<f64>],
        test_y: &[usize],
    ) -> CleaningRun {
        CleaningEngine::run_order(self, order, test_x, test_y)
    }
}

impl CleaningEngine for CleaningSession {
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
        CleaningSession::n_certain(self)
    }

    fn n_val(&self) -> usize {
        self.cp.len()
    }

    fn clean(&mut self, row: usize) {
        CleaningSession::clean(self, row);
    }

    fn select_next(&self, remaining: &[usize]) -> usize {
        CleaningSession::select_next(self, remaining)
    }
}

/// The run-loop surface shared by every cleaning engine — the
/// single-process [`CleaningSession`] and the sharded one (`cp-rpc`'s
/// `RpcCoordinator`) alike.
///
/// An engine supplies problem access, its CP-status counts, cleaning and
/// greedy selection; the trait supplies the *identical* stepping and
/// run-driving loops on top (budget handling, curve-recording cadence,
/// termination), so every engine records the same run schedules by
/// construction rather than by parallel copies of the loop.
pub trait CleaningEngine {
    /// The problem being cleaned.
    fn problem(&self) -> &CleaningProblem;

    /// The run options (budget, thread cap, curve-recording cadence).
    fn run_options(&self) -> &RunOptions;

    /// The cleaning progress so far.
    fn cleaning_state(&self) -> &CleaningState;

    /// Number of validation points currently certainly predicted.
    fn n_certain(&self) -> usize;

    /// Number of validation points tracked.
    fn n_val(&self) -> usize;

    /// Clean one externally chosen row and update the engine's CP status.
    ///
    /// # Panics
    /// Panics if the row is clean or already cleaned.
    fn clean(&mut self, row: usize);

    /// The greedy CPClean selection over the given candidate rows.
    fn select_next(&self, remaining: &[usize]) -> usize;

    /// `true` iff every validation point is certainly predicted — CPClean's
    /// termination condition.
    fn converged(&self) -> bool {
        self.n_certain() == self.n_val()
    }

    /// Rows cleaned so far.
    fn n_cleaned(&self) -> usize {
        self.cleaning_state().n_cleaned()
    }

    /// Dirty rows not yet cleaned.
    fn remaining(&self) -> Vec<usize> {
        self.cleaning_state().remaining(self.problem())
    }

    /// Whether the `max_cleaned` budget is exhausted.
    fn budget_exhausted(&self) -> bool {
        self.run_options()
            .max_cleaned
            .is_some_and(|budget| self.n_cleaned() >= budget)
    }

    /// The row [`CleaningEngine::step`] would clean, without cleaning it.
    fn next_greedy(&self) -> Option<usize>
    where
        Self: Sized,
    {
        if self.converged() || self.budget_exhausted() {
            return None;
        }
        let remaining = self.remaining();
        if remaining.is_empty() {
            return None;
        }
        Some(self.select_next(&remaining))
    }

    /// One CPClean iteration: greedily select the most informative dirty
    /// row, clean it, and update the status. Returns the cleaned row, or
    /// `None` without cleaning when the run is over (converged, nothing
    /// dirty remaining, or the `max_cleaned` budget is exhausted).
    fn step(&mut self) -> Option<usize>
    where
        Self: Sized,
    {
        let row = self.next_greedy()?;
        self.clean(row);
        Some(row)
    }

    /// Run greedy CPClean steps until convergence, budget exhaustion or no
    /// dirty rows remain, recording the cleaning curve against the given
    /// test set.
    fn run_to_convergence(&mut self, test_x: &[Vec<f64>], test_y: &[usize]) -> CleaningRun
    where
        Self: Sized,
    {
        self.drive(test_x, test_y, |engine| engine.next_greedy())
    }

    /// Clean rows in the given order (skipping nothing — the order must
    /// contain each dirty row at most once) until convergence or budget
    /// exhaustion, recording the cleaning curve.
    fn run_order(&mut self, order: &[usize], test_x: &[Vec<f64>], test_y: &[usize]) -> CleaningRun
    where
        Self: Sized,
    {
        let mut queue = order.iter().copied();
        self.drive(test_x, test_y, move |engine| {
            if engine.converged() || engine.budget_exhausted() {
                None
            } else {
                queue.next()
            }
        })
    }

    /// The shared run loop: repeatedly ask `pick` for the next row, clean
    /// it, and record curve points per `record_every` (first and last points
    /// always included).
    fn drive(
        &mut self,
        test_x: &[Vec<f64>],
        test_y: &[usize],
        mut pick: impl FnMut(&Self) -> Option<usize>,
    ) -> CleaningRun
    where
        Self: Sized,
    {
        let n_dirty = self.problem().dirty_rows().len().max(1);
        let mut curve = vec![self.curve_point(n_dirty, test_x, test_y)];
        while let Some(row) = pick(self) {
            self.clean(row);
            let step = self.n_cleaned();
            if step.is_multiple_of(self.run_options().record_every.max(1)) || self.converged() {
                curve.push(self.curve_point(n_dirty, test_x, test_y));
            }
        }
        // make sure the final state is on the curve
        if curve.last().map(|p| p.cleaned) != Some(self.n_cleaned()) {
            curve.push(self.curve_point(n_dirty, test_x, test_y));
        }
        CleaningRun {
            order: self.cleaning_state().order().to_vec(),
            curve,
            converged: self.converged(),
        }
    }

    /// One point of the cleaning curve under the current state.
    fn curve_point(&self, n_dirty: usize, test_x: &[Vec<f64>], test_y: &[usize]) -> CurvePoint
    where
        Self: Sized,
    {
        CurvePoint {
            cleaned: self.n_cleaned(),
            frac_cleaned: self.n_cleaned() as f64 / n_dirty as f64,
            frac_val_cp: self.n_certain() as f64 / self.n_val().max(1) as f64,
            test_accuracy: state_accuracy(self.problem(), self.cleaning_state(), test_x, test_y),
        }
    }
}

/// The greedy selection core shared by the session (cached indexes) and the
/// legacy one-shot [`crate::cpclean::select_next`] (per-call builds): the
/// uncleaned row minimizing the expected conditional entropy of validation
/// predictions, the expectation taken uniformly over which candidate is the
/// truth (Equation 4).
///
/// `index_of` supplies each uncertain validation point's similarity index;
/// it is called at most once per point per invocation.
pub(crate) fn select_next_with<F>(
    problem: &CleaningProblem,
    base_pins: &Pins,
    cp: &[bool],
    remaining: &[usize],
    n_threads: usize,
    index_of: F,
) -> usize
where
    F: Fn(usize) -> Arc<SimilarityIndex> + Sync,
{
    debug_assert!(!remaining.is_empty());
    let uncertain: Vec<usize> = (0..problem.val_x.len()).filter(|&v| !cp[v]).collect();
    if uncertain.is_empty() {
        return remaining[0];
    }

    // per validation example: entropy of Q2 probabilities under every pin;
    // one pins clone per worker item, scoped pin/unpin per candidate
    let per_val: Vec<Vec<Vec<f64>>> = uncertain
        .par_iter()
        .with_max_threads(n_threads)
        .map(|&v| {
            let idx = index_of(v);
            let mut pins = base_pins.clone();
            remaining
                .iter()
                .map(|&row| {
                    (0..problem.dataset.set_size(row))
                        .map(|j| {
                            pins.with_pin(row, j, |conditioned| {
                                let probs = q2_probabilities_with_index(
                                    &problem.dataset,
                                    &problem.config,
                                    &idx,
                                    conditioned,
                                );
                                entropy_bits(&probs)
                            })
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    pick_min_expected_entropy(problem, remaining, &per_val)
}

/// Every validation point's similarity index, built once on the worker
/// pool with at most `n_threads` threads: the cache a [`CleaningSession`]
/// scans through, and the one a shard server shares among the sessions
/// over its shard.
pub fn index_cache(problem: &CleaningProblem, n_threads: usize) -> ValIndexCache {
    let indexes = problem
        .val_x
        .par_iter()
        .with_max_threads(n_threads)
        .map(|t| {
            Arc::new(SimilarityIndex::build(
                &problem.dataset,
                problem.config.kernel,
                t,
            ))
        })
        .collect();
    ValIndexCache::from_indexes(problem.config.kernel, problem.val_x.clone(), indexes)
}

/// Most points whose opened scan a [`SessionBackend`] keeps for the rest
/// of the call: the first this many points asked. Each kept scan holds its
/// tally trees, ~0.8 MB at paper scale (N ≈ 6200); every other point opens
/// a scan per request and drops it at once.
const KEPT_SWEEPS: usize = 64;

/// [`SelectionBackend`] over the session's cached indexes: every entropy is
/// `entropy_bits` of a distribution bit-identical to the
/// `q2_probabilities_with_index` call `select_next_with` makes, so the
/// incremental loop scores bit-identically to the naive one. A request
/// answers the base or every pin of a row from one opened
/// [`PinnedProbabilities`]; the first [`KEPT_SWEEPS`] points asked keep
/// theirs, so their base entropy and all their missed rows share one
/// opener, until the backend is dropped at the end of the call.
struct SessionBackend<'a> {
    problem: &'a CleaningProblem,
    pins: &'a Pins,
    cache: &'a ValIndexCache,
    sweeps: Vec<Option<PinnedProbabilities<'a>>>,
    kept: usize,
}

impl<'a> SessionBackend<'a> {
    fn new(problem: &'a CleaningProblem, pins: &'a Pins, cache: &'a ValIndexCache) -> Self {
        SessionBackend {
            problem,
            pins,
            cache,
            sweeps: (0..problem.val_x.len()).map(|_| None).collect(),
            kept: 0,
        }
    }

    /// `f` over point `v`'s sweep: the kept one, or a newly opened one that
    /// is kept while fewer than [`KEPT_SWEEPS`] are, else dropped after `f`.
    fn with_sweep<T>(&mut self, v: usize, f: impl FnOnce(&mut PinnedProbabilities<'a>) -> T) -> T {
        let (problem, pins, cache) = (self.problem, self.pins, self.cache);
        let open = || PinnedProbabilities::new(&problem.dataset, &problem.config, &cache[v], pins);
        if self.sweeps[v].is_none() && self.kept < KEPT_SWEEPS {
            self.sweeps[v] = Some(open());
            self.kept += 1;
        }
        match &mut self.sweeps[v] {
            Some(sweep) => f(sweep),
            None => f(&mut open()),
        }
    }
}

impl SelectionBackend for SessionBackend<'_> {
    type Error = Infallible;

    fn base_entropy(&mut self, v: usize) -> Result<f64, Infallible> {
        Ok(self.with_sweep(v, |sweep| entropy_bits(&sweep.base())))
    }

    fn hypothetical_entropies(&mut self, v: usize, row: usize) -> Result<Vec<f64>, Infallible> {
        Ok(self.with_sweep(v, |sweep| {
            sweep.pinned(row).iter().map(|p| entropy_bits(p)).collect()
        }))
    }

    fn index(&self, v: usize) -> Option<&SimilarityIndex> {
        Some(&self.cache[v])
    }
}

/// The greedy scoring rule (Equation 4), shared by every selection front-end
/// — the single-process `select_next_with` above and `cp-shard`'s routed
/// selection — so the rule can never silently diverge between engines:
/// expected entropy per candidate row is the mean over its candidates
/// (uniform prior on which is the truth) summed over the evaluated
/// validation examples; the winner must improve strictly by `1e-12`, ties
/// keeping the earliest row in `remaining` order.
///
/// `per_val[u][pos][j]` = conditional entropy for the `u`-th evaluated
/// validation example under `remaining[pos]` pinned to candidate `j`.
///
/// A NaN score (degenerate Q2 probabilities under zero surviving mass) is
/// treated as +∞ — the row *loses* the selection — rather than silently
/// falling through the `<` ladder, which would skip the row with no signal
/// at all. Entropy production sites `debug_assert` against NaN, so a NaN
/// reaching this rule indicates a scoring bug upstream; here it degrades
/// deterministically instead of depending on the incumbent's history.
pub fn pick_min_expected_entropy(
    problem: &CleaningProblem,
    remaining: &[usize],
    per_val: &[Vec<Vec<f64>>],
) -> usize {
    let mut best_row = remaining[0];
    let mut best_score = f64::INFINITY;
    for (pos, &row) in remaining.iter().enumerate() {
        let m = problem.dataset.set_size(row) as f64;
        let mut score = 0.0;
        for ent in per_val {
            score += ent[pos].iter().sum::<f64>() / m;
        }
        let score = nan_guard(score);
        if score < best_score - 1e-12 {
            best_score = score;
            best_row = row;
        }
    }
    best_row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::val_cp_status;
    use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};

    /// Two dirty rows; only row 1 matters for the validation point (same
    /// instance as the cpclean module tests).
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
    fn session_status_matches_from_scratch_recompute() {
        let p = targeted_problem();
        let mut session = CleaningSession::new(&p, &opts(2));
        assert_eq!(
            session.status(),
            val_cp_status(&p, session.state().pins(), 1).as_slice()
        );
        // clean in an arbitrary (non-greedy) order and re-check after each
        for row in [3usize, 1] {
            session.clean(row);
            assert_eq!(
                session.status(),
                val_cp_status(&p, session.state().pins(), 1).as_slice(),
                "after cleaning row {row}"
            );
        }
        assert!(session.converged());
    }

    #[test]
    fn step_selects_cleans_and_converges() {
        let p = targeted_problem();
        let mut session = CleaningSession::new(&p, &opts(1));
        assert!(!session.converged());
        assert_eq!(session.n_certain(), 1); // val point 0.1 is already CP'ed
        let row = session.step().expect("one step available");
        assert_eq!(row, 1, "greedy step must target the influential row");
        assert!(session.converged());
        assert_eq!(session.step(), None, "converged session refuses to step");
        assert_eq!(session.n_cleaned(), 1);
    }

    /// More uncertain validation points than [`KEPT_SWEEPS`]: points past
    /// the kept ones open a scan per request, and every pick still equals
    /// the naive scorer's.
    #[test]
    fn selection_past_the_kept_sweeps_matches_naive() {
        let mut examples = Vec::new();
        let mut truth_choice = Vec::new();
        for i in 0..24 {
            let x = i as f64 * 0.5;
            if i % 2 == 0 {
                examples.push(IncompleteExample::incomplete(
                    vec![vec![x], vec![12.0 - x], vec![6.0]],
                    usize::from(i % 4 == 0),
                ));
                truth_choice.push(Some(0));
            } else {
                examples.push(IncompleteExample::complete(vec![x], usize::from(x > 6.0)));
                truth_choice.push(None);
            }
        }
        let n_val = 2 * KEPT_SWEEPS;
        let p = CleaningProblem {
            dataset: IncompleteDataset::new(examples, 2).unwrap(),
            config: CpConfig::new(3),
            val_x: Arc::new((0..n_val).map(|v| vec![3.0 + v as f64 * 0.05]).collect()),
            default_choice: truth_choice.iter().map(|c| c.map(|_| 1)).collect(),
            truth_choice,
        };
        let mut session = CleaningSession::new(&p, &opts(1));
        let uncertain = session.status().iter().filter(|&&c| !c).count();
        assert!(uncertain > KEPT_SWEEPS, "{uncertain} uncertain points");
        for _ in 0..3 {
            let remaining = session.remaining();
            let row = session.select_next(&remaining);
            assert_eq!(row, session.select_next_naive(&remaining));
            session.clean(row);
        }
    }

    /// A NaN score is mapped to +∞ and loses the selection deterministically
    /// — it must never win by short-circuiting the strict-improvement
    /// ladder (`NaN < best - 1e-12` is false, which without the guard would
    /// just skip the comparison with no signal at all).
    #[test]
    fn nan_scores_lose_the_selection() {
        let p = targeted_problem();
        let remaining = [1usize, 3];
        // one evaluated validation point; row 1's score poisoned by a NaN
        let poisoned = vec![vec![vec![f64::NAN, 0.5], vec![0.3, 0.3]]];
        assert_eq!(pick_min_expected_entropy(&p, &remaining, &poisoned), 3);
        // every score NaN: the first-row default wins, exactly as when no
        // row strictly improves on the infinite incumbent
        let all_nan = vec![vec![vec![f64::NAN, f64::NAN], vec![f64::NAN, f64::NAN]]];
        assert_eq!(pick_min_expected_entropy(&p, &remaining, &all_nan), 1);
    }

    #[test]
    fn budget_stops_stepping() {
        let p = targeted_problem();
        let mut o = opts(1);
        o.max_cleaned = Some(0);
        let mut session = CleaningSession::new(&p, &o);
        assert_eq!(session.step(), None);
        assert_eq!(session.n_cleaned(), 0);
        assert!(!session.converged());
    }

    #[test]
    fn run_order_respects_order_and_convergence() {
        let p = targeted_problem();
        let run = CleaningSession::new(&p, &opts(1)).run_order(&[1, 3], &[vec![5.0]], &[0]);
        assert!(run.converged);
        assert_eq!(run.order, vec![1], "stops as soon as converged");
        let run_far_first =
            CleaningSession::new(&p, &opts(1)).run_order(&[3, 1], &[vec![5.0]], &[0]);
        assert_eq!(run_far_first.order, vec![3, 1]);
    }

    // index-reuse accounting (via cp_core::similarity::build_count) lives in
    // the dedicated single-test binary tests/build_counter.rs — the global
    // counter can't be asserted exactly amid this binary's concurrent tests
}
