//! Incremental greedy selection: score caching across steps.
//!
//! The naive greedy step (Equation 4) re-scores every (uncertain validation
//! point × candidate row × candidate) from scratch on every iteration —
//! `O(|val| · |remaining| · M)` full Q2 scans per step. Almost all of that
//! work is provably redundant, and this module is where the redundancy is
//! eliminated. Two observations carry the design:
//!
//! 1. **Top-K relevance.** For a validation point `t`, call a row `r`
//!    *relevant* iff fewer than K other rows are *certain* to be more
//!    similar to `t` than `r` can ever be: with `minkey(r')` / `maxkey(r)`
//!    the smallest/largest allowed candidate sort keys under the current
//!    pins, `r` is relevant iff `#{r' ≠ r : minkey(r') > maxkey(r)} < K`.
//!    An irrelevant row is outside the top-K in **every** possible world, so
//!    its candidate choice never changes any world's prediction: pinning it
//!    scales every label's world mass by the same factor and the normalized
//!    Q2 distribution — hence its entropy — is unchanged. Its hypothetical
//!    entropies are all equal to the base entropy, no scans required.
//! 2. **Monotone invalidation.** Cleaning only *adds* pins, and adding a pin
//!    only shrinks a row's allowed candidate set — `minkey`s rise, so the
//!    "certainly beaten by" counts rise and an irrelevant row can never
//!    become relevant. A validation point's cached state (relevance sets,
//!    base entropy, per-row hypothetical entropies) therefore stays exactly
//!    valid across steps until a pin lands on one of its *relevant* rows;
//!    the cache keys every state on a pin-log epoch and rebuilds a state iff
//!    a logged pin since its epoch hits its relevant set. Staleness is
//!    impossible by construction: a state is consulted only after its epoch
//!    has been advanced to the head of the log.
//!
//! **Bit-compatibility with the naive scorer.** Every row's score
//! replicates [`crate::session::pick_min_expected_entropy`]'s arithmetic
//! exactly: the same Q2 evaluations, the same per-row `Σ_j H / M` term,
//! accumulated once over validation points in the same order, compared on
//! the same strict `1e-12` ladder in the same `remaining` order. The one
//! caveat: a base-entropy substitution for an irrelevant row is equal to
//! the naive pinned-scan value *mathematically*, not bit-for-bit — the two
//! f64 scans round differently at the last ulp. A selection can therefore
//! only diverge if two rows' scores land within ~1e-15 of each other's
//! exact `1e-12` decision boundary, which the lockstep property tests
//! (all three engines, random instances) empirically rule out.
//!
//! **Per-step cost.** Let `U` be the uncertain validation points, `B ⊆ U`
//! those whose state a pin invalidated, and `R` the (point, row) cache
//! misses the step evaluates. Each rebuilt state costs its relevance set —
//! every row's extreme allowed keys, then `τ`, the K-th largest `minkey` (a
//! row is relevant iff its `maxkey` is at least `τ`): `O(N log K)` on the
//! in-process engine, which reads the keys off the point's cached index,
//! and `O(NM + N log K)` on the sharded engine, which evaluates the kernel
//! — plus its base entropy. On the in-process engine all entropies of one
//! point come from one [`cp_core::PinnedProbabilities`], opened at the
//! point's first request of the step: one SS-DC opening,
//! `O(NM + T log T + L·K² log N)` (see [`cp_core::ss_tree`]), then one pass
//! over the scan's `T`-event tail for the base distribution and one per
//! missed row, which answers all `M` pins of the row at once in
//! `O(T·(K² log N + |Γ|·|Y|))`. Every step scores every remaining row, so a
//! state kept from an earlier step already holds its relevant rows'
//! entropies and only rebuilt states miss: a step opens one scan per
//! rebuilt point, `|B|`, where the naive scorer opens
//! `|U| · M · |remaining|`. Only the first 64 points asked keep their
//! opened scan for the step; past them every request opens its own, so a
//! step opens at most `|B| + |R|` scans, still one per missed row rather
//! than `M`. With `K = 1` each pin takes
//! the `O(NM)` K = 1 fast path instead, as the naive scorer does. The
//! sharded engine (`cp-rpc`'s `RpcCoordinator`) answers a miss the same
//! way: one swept scan of the row's owner shard, merged once with the other
//! shards' cached base streams, gives all `M` pins of the row.

use crate::problem::CleaningProblem;
use cp_core::similarity::largest_keys;
use cp_core::{CandKey, Pins, SimilarityIndex};
use std::collections::{BinaryHeap, HashMap};

/// Per-validation-point cached selection state (see the module docs).
#[derive(Clone, Debug)]
struct ValState {
    /// Length of the cache's pin log when this state was built or last
    /// revalidated. Pins logged beyond this epoch have not been checked
    /// against `relevant` yet.
    epoch: usize,
    /// `relevant[row]` — conservative top-K relevance under the pins at
    /// `epoch` (stale `true`s are possible and harmless; stale `false`s are
    /// impossible: irrelevance is monotone under pinning).
    relevant: Vec<bool>,
    /// Entropy of the base Q2 distribution under the pins at `epoch` — the
    /// exact hypothetical entropy of every irrelevant row's every candidate.
    base_entropy: f64,
    /// Cached per-candidate hypothetical entropies for *relevant* rows,
    /// filled lazily as the selection loop evaluates them.
    ent: HashMap<usize, Vec<f64>>,
}

/// The incremental selection cache shared by every engine: a global pin log
/// (the epoch clock) plus one lazily maintained `ValState` per validation
/// point. Owns no engine resources — engines feed it pins via the `Pins`
/// mask they already maintain and supply entropies through a
/// [`SelectionBackend`].
#[derive(Clone, Debug)]
pub struct SelectionCache {
    /// Rows pinned so far, in discovery order; `pin_log.len()` is the epoch.
    pin_log: Vec<usize>,
    /// `logged[row]` — whether `row` is already in `pin_log`.
    logged: Vec<bool>,
    /// One state per validation point (`None` = never built / invalidated).
    states: Vec<Option<ValState>>,
}

impl SelectionCache {
    /// An empty cache for `n_rows` training rows and `n_val` validation
    /// points.
    pub fn new(n_rows: usize, n_val: usize) -> Self {
        SelectionCache {
            pin_log: Vec::new(),
            logged: vec![false; n_rows],
            states: vec![None; n_val],
        }
    }

    /// Append any pins present in `pins` but not yet logged. Pins are never
    /// removed, so the log — and with it every state's epoch distance — only
    /// grows.
    fn sync(&mut self, pins: &Pins) {
        for row in 0..self.logged.len() {
            if !self.logged[row] && pins.pinned(row).is_some() {
                self.logged[row] = true;
                self.pin_log.push(row);
            }
        }
    }
}

/// Engine-specific entropy evaluation behind the shared incremental
/// selection loop. Implementations must reproduce *their engine's* naive
/// scoring arithmetic exactly — the same Q2 machinery the engine's
/// from-scratch scorer would run — so the incremental loop inherits the
/// engine's bit-level behavior.
pub trait SelectionBackend {
    /// Evaluation failure (e.g. a transport error for the RPC engine);
    /// [`std::convert::Infallible`] for in-process engines.
    type Error;

    /// Entropy (bits) of validation point `v`'s Q2 distribution under the
    /// current base pins.
    fn base_entropy(&mut self, v: usize) -> Result<f64, Self::Error>;

    /// Per-candidate entropies (bits) for `v` under base pins plus
    /// `pin(row, j)`, for `j` in `0..set_size(row)`.
    fn hypothetical_entropies(&mut self, v: usize, row: usize) -> Result<Vec<f64>, Self::Error>;

    /// Validation point `v`'s similarity index over the whole dataset, if
    /// the engine holds one: relevance then reads every row's extreme
    /// allowed keys off the index's sorted set keys instead of evaluating
    /// the kernel. `None` (the kernel path) by default.
    fn index(&self, _v: usize) -> Option<&SimilarityIndex> {
        None
    }
}

/// Map a NaN score to +∞ so a poisoned row *loses* the selection instead of
/// silently short-circuiting the strict-improvement ladder (`score <
/// best - 1e-12` is false for NaN, which would otherwise skip the row
/// without any signal). Shared by the naive
/// [`crate::session::pick_min_expected_entropy`] and the incremental loop so
/// the two front-ends degrade identically.
pub(crate) fn nan_guard(score: f64) -> f64 {
    if score.is_nan() {
        f64::INFINITY
    } else {
        score
    }
}

/// Conservative top-K relevance of every row for validation point `v` under
/// `pins` (see the module docs): `relevant[r]` is `false` only if `r` is
/// outside the top-K in every possible world.
///
/// Keys are [`CandKey`]s — similarity by `total_cmp`, then `(row, cand)` —
/// the order every engine's scan walks, so "more similar" here means "later
/// in every scan" bit for bit. Fewer than K rows have a least similar
/// allowed key above row `r`'s most similar one iff that key is at least
/// `τ`, the K-th largest least similar key (the SS-DC zero-prefix bound,
/// [`cp_core::ss_tree`]); a row never beats itself, since its least
/// similar key is at most its most similar one.
///
/// Each row's extreme allowed keys come from `index`, `v`'s similarity
/// index, when the engine supplies it — the two ends of the row's sorted
/// set keys, or its pinned key: `O(N log K)` — and otherwise from the
/// kernel, `O(NM + N log K)`. Both give the same keys bit for bit.
fn relevant_rows(
    problem: &CleaningProblem,
    pins: &Pins,
    v: usize,
    index: Option<&SimilarityIndex>,
) -> Vec<bool> {
    let ds = &problem.dataset;
    let n = ds.len();
    let k = problem.config.k_eff(n);
    let (min_key, max_key): (Vec<CandKey>, Vec<CandKey>) = match index {
        Some(idx) => (0..n)
            .map(|row| match pins.pinned(row) {
                Some(cand) => (idx.key(row, cand), idx.key(row, cand)),
                None => {
                    let keys = idx.set_keys(row);
                    (keys[0], keys[keys.len() - 1])
                }
            })
            .unzip(),
        None => {
            let (t, kernel) = (&problem.val_x[v], problem.config.kernel);
            (0..n)
                .map(|row| {
                    let mut keys = (0..ds.set_size(row))
                        .filter(|&cand| pins.allows(row, cand))
                        .map(|cand| {
                            let sim = kernel.similarity(ds.candidate(row, cand), t);
                            CandKey::new(sim, row as u32, cand as u32)
                        });
                    let first = keys
                        .next()
                        .expect("every row has at least one allowed candidate");
                    keys.fold((first, first), |(lo, hi), key| (lo.min(key), hi.max(key)))
                })
                .unzip()
        }
    };
    let mut top = BinaryHeap::with_capacity(k);
    largest_keys(min_key, k, &mut top);
    let tau = top.peek().expect("k_eff is at least 1").0;
    max_key.into_iter().map(|hi| hi >= tau).collect()
}

/// The incremental greedy selection (Equation 4) over `remaining`, reusing
/// `cache` across steps and pulling fresh entropies from `backend` only for
/// relevant entries a pin invalidated.
/// Selects the **identical** row the engine's from-scratch scorer would
/// (see the module docs for the bit-compatibility argument).
pub fn select_next_incremental<B: SelectionBackend>(
    problem: &CleaningProblem,
    base_pins: &Pins,
    cp: &[bool],
    remaining: &[usize],
    cache: &mut SelectionCache,
    backend: &mut B,
) -> Result<usize, B::Error> {
    debug_assert!(!remaining.is_empty());
    let uncertain: Vec<usize> = (0..problem.val_x.len()).filter(|&v| !cp[v]).collect();
    if uncertain.is_empty() {
        return Ok(remaining[0]);
    }

    cache.sync(base_pins);
    let epoch = cache.pin_log.len();
    for &v in &uncertain {
        if let Some(st) = &cache.states[v] {
            if cache.pin_log[st.epoch..].iter().any(|&p| st.relevant[p]) {
                cache.states[v] = None; // a relevant pin landed: rebuild
            } else {
                cache.states[v].as_mut().expect("just checked").epoch = epoch;
            }
        }
        if cache.states[v].is_none() {
            let base_entropy = backend.base_entropy(v)?;
            debug_assert!(!base_entropy.is_nan(), "NaN base entropy for val {v}");
            cache.states[v] = Some(ValState {
                epoch,
                relevant: relevant_rows(problem, base_pins, v, backend.index(v)),
                base_entropy,
                ent: HashMap::new(),
            });
        }
    }

    // the same running-best ladder as `pick_min_expected_entropy`, with one
    // shortcut that cannot change its outcome: irrelevant (row, val) terms
    // substitute the base entropy
    let mut best_row = remaining[0];
    let mut best_score = f64::INFINITY;
    for &row in remaining {
        let m_count = problem.dataset.set_size(row);
        let m = m_count as f64;
        let mut score = 0.0;
        for &v in &uncertain {
            let st = cache.states[v].as_mut().expect("state built above");
            score += if !st.relevant[row] {
                // naive would scan M times and sum M (mathematically equal)
                // entropies — replicate the summation shape exactly
                (0..m_count).map(|_| st.base_entropy).sum::<f64>() / m
            } else if let Some(ents) = st.ent.get(&row) {
                cp_obs::counter!("clean.selection.cache_hits").inc();
                ents.iter().sum::<f64>() / m
            } else {
                cp_obs::counter!("clean.selection.cache_misses").inc();
                let ents = backend.hypothetical_entropies(v, row)?;
                debug_assert!(
                    ents.iter().all(|h| !h.is_nan()),
                    "NaN hypothetical entropy for val {v}, row {row}"
                );
                let term = ents.iter().sum::<f64>() / m;
                st.ent.insert(row, ents);
                term
            };
        }
        let score = nan_guard(score);
        if score < best_score - 1e-12 {
            best_score = score;
            best_row = row;
        }
    }
    Ok(best_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn two_row_problem() -> CleaningProblem {
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
            val_x: Arc::new(vec![vec![5.0], vec![0.1]]),
            truth_choice: vec![None, Some(0), None, Some(0)],
            default_choice: vec![None, Some(1), None, Some(1)],
        }
    }

    #[test]
    fn far_rows_are_irrelevant_near_rows_are_relevant() {
        let p = two_row_problem();
        let pins = Pins::none(p.dataset.len());
        // val point 5.0 with K=1: row 3 (≥100 away) can never beat rows 0–2
        let rel = relevant_rows(&p, &pins, 0, None);
        assert!(rel[1], "row 1 straddles the decision boundary");
        assert!(!rel[3], "row 3 is certainly outside the top-1");
    }

    #[test]
    fn pinning_keeps_irrelevant_rows_irrelevant() {
        let p = two_row_problem();
        let mut pins = Pins::none(p.dataset.len());
        pins.pin(1, 0);
        let rel = relevant_rows(&p, &pins, 0, None);
        assert!(!rel[3], "irrelevance is monotone under pinning");
    }

    #[test]
    fn nan_guard_maps_nan_to_infinity() {
        assert_eq!(nan_guard(f64::NAN), f64::INFINITY);
        assert_eq!(nan_guard(1.5), 1.5);
        assert_eq!(nan_guard(f64::INFINITY), f64::INFINITY);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // relevance by `τ` is the definition: fewer than K rows whose least
        // similar allowed candidate outranks the row's most similar one,
        // whether the keys come from the kernel or from the point's index
        #[test]
        fn relevance_is_fewer_than_k_rows_certainly_ahead(
            grids in proptest::collection::vec(proptest::collection::vec(-6i32..6, 1..=3), 1..=8),
            t in -6i32..6,
            k in 1usize..=5,
            pin_choices in proptest::collection::vec(0usize..6, 8..=8),
        ) {
            let n = grids.len();
            let examples = grids
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    IncompleteExample::incomplete(g.iter().map(|&x| vec![x as f64]).collect(), i % 2)
                })
                .collect();
            let problem = CleaningProblem {
                dataset: IncompleteDataset::new(examples, 2).unwrap(),
                config: CpConfig::new(k),
                val_x: Arc::new(vec![vec![t as f64]]),
                truth_choice: vec![None; n],
                default_choice: vec![None; n],
            };
            let mut pins = Pins::none(n);
            for (row, g) in grids.iter().enumerate() {
                if pin_choices[row] < g.len() {
                    pins.pin(row, pin_choices[row]);
                }
            }
            let allowed_keys = |row: usize| -> Vec<CandKey> {
                (0..grids[row].len())
                    .filter(|&c| pins.allows(row, c))
                    .map(|c| CandKey::new(-((grids[row][c] - t) as f64).abs(), row as u32, c as u32))
                    .collect()
            };
            let lo: Vec<CandKey> = (0..n).map(|r| *allowed_keys(r).iter().min().unwrap()).collect();
            let hi: Vec<CandKey> = (0..n).map(|r| *allowed_keys(r).iter().max().unwrap()).collect();
            let k_eff = problem.config.k_eff(n);
            let want: Vec<bool> = (0..n)
                .map(|r| lo.iter().filter(|&&other| other > hi[r]).count() < k_eff)
                .collect();
            prop_assert_eq!(relevant_rows(&problem, &pins, 0, None), want.clone());
            let idx = SimilarityIndex::build(&problem.dataset, problem.config.kernel, &problem.val_x[0]);
            prop_assert_eq!(relevant_rows(&problem, &pins, 0, Some(&idx)), want);
        }
    }

    #[test]
    fn sim_key_orders_by_similarity_then_ids() {
        // relevance compares `CandKey`s: similarity by `total_cmp`, then
        // (row, cand)
        let a = CandKey::new(1.0, 5, 0);
        let b = CandKey::new(2.0, 0, 0);
        let c = CandKey::new(1.0, 5, 1);
        assert!(a < b);
        assert!(a < c);
        assert!(CandKey::new(-0.0, 0, 0) < CandKey::new(0.0, 0, 0));
    }
}
