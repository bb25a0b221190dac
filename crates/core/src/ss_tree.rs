//! SS-DC: the divide-and-conquer SortScan — Algorithm A.1 of the appendix.
//!
//! Identical counting semantics to [`crate::ss`], but the label-support DP is
//! maintained incrementally in per-label [`TallyTree`]s: a scan step updates
//! exactly one similarity-tally entry (Equation 1), hence exactly one tree
//! leaf, so each boundary candidate costs `O(K² log N)` instead of `O(N·K)`.
//!
//! ## The provably-zero prefix
//!
//! The scan walks candidates in ascending similarity. At the boundary
//! position `p`, any *other* set whose allowed candidates all sit above `p`
//! has out-mass exactly zero, so its slot polynomial `0 + in·z` has no
//! constant term. If `K` or more such sets exist, every tally would put at
//! least `K + 1` sets in the top-K, and every support is exactly zero — in
//! every semiring, since the polynomial products and the accumulators skip
//! zero factors instead of multiplying through them. With `f_i` the key
//! ([`CandKey`]) of set `i`'s lowest allowed candidate under the pins and
//! `τ` the K-th largest `f_i`, every boundary keyed below `τ` therefore
//! contributes nothing.
//!
//! The scan thus needs, per set, only its allowed mass below `τ` and its
//! allowed candidates at or above `τ`. The opener selects `τ` from the
//! `f_i` in `O(N log K)`; advances each set's allowed candidates below `τ`
//! into the masses in ascending key order (the same per-set `advance`
//! sequence as the full walk, so every mass is bit-identical); gathers the
//! rest — a set whose largest key is below `τ` is passed over with one
//! comparison — and sorts only them. It then loads the tree leaves that
//! differ from the identity `1 + 0·z` and builds each tree bottom-up once
//! over their ancestors ([`TallyTree::load_leaf`] + [`TallyTree::rebuild`]),
//! and runs the per-event loop over the sorted tail. Every tree node is a
//! pure function of the current leaves, an untouched node is the identity
//! a full rebuild would compute there, and the skipped supports are exact
//! zeros the accumulators never add, so the counts are bit-identical to the
//! full walk.
//!
//! ## Frozen sets fold into one scalar per label
//!
//! A frozen set — no allowed candidate at or above `τ` — has the leaf
//! `seen + 0·z` for the whole scan. Under uniform `f64` and `Possibility`
//! masses that is the identity for every frozen set; in `u128`, `BigUint`
//! and `ScaledF64` (whose `from_count` ignores the set size) only frozen
//! clean and pinned rows are, and a frozen dirty row is `M_i + 0·z`. In an
//! exact semiring ([`CountSemiring::EXACT`]) the opener multiplies such a
//! leaf into its label's scalar ([`TreeScan::frozen`]) instead of loading
//! it: a frozen set is never the boundary set, so every support term
//! carries each label's scalar exactly once, and the scan multiplies the
//! product of the scalars into the final counts once. The tree keeps its
//! shape — folded leaves stay at the identity rather than being compacted
//! away — so the grouping of every product is unchanged. `ScaledF64` is
//! not exact (its products round), so its frozen dirty rows stay leaves,
//! and `f64` takes exactly the unfolded path.
//!
//! The opener decides a frozen set on its size alone when the mass model
//! reports one ([`MassModel::settled_count`]: a frozen set under
//! [`UniformMass`] has the leaf `from_count(M_i, M_i) + 0·z`). Whether that
//! leaf is the identity is asked once per distinct size, and a folded set
//! multiplies `M_i` into its label's `u32` product ([`CountProduct`]),
//! which is lifted into the semiring only when it would overflow — the
//! count law of [`CountSemiring::EXACT`] makes that the same scalar as one
//! semiring multiply per set. A frozen set still advances its mass one
//! candidate at a time, so non-uniform masses keep their per-candidate
//! sums, and the world total `∏ M_i` batches the same way.
//!
//! Overall: the index costs `O(NM + N·M log M)` per build
//! ([`SimilarityIndex::build`], no global sort; sets of 4 candidates are
//! ordered by a branch-free network) and a scan
//! `O(NM + T log T + L·K² log N + T·(K² log N + |Γ|·|Y|))`,
//! where `T` is the number of allowed candidates at or above `τ` and `L`
//! the number of loaded leaves (non-identity and not folded) — against the
//! full walk's `O(NM·(log NM + K² log N + |Γ|·|Y|))`, the headline
//! complexity of Figure 4's third row. Its `O(NM)` term is integer work: a
//! tally bump per candidate below `τ` and a size test per set, with no
//! semiring value built for a frozen set. The trees allocate storage only
//! for the `≤ L·(log₂ N + 1)` nodes above loaded leaves, `K + 1`
//! coefficients each, and the exact semirings lift one batch per 32 bits
//! of folded sizes (`N·log₂ M / 32` values) instead of one value per set.
//! The paper's `O(NM log NM)` sorting term becomes `O(NM + N·M log M)` per
//! build plus `O(NM + T log T)` per scan.
//!
//! The opening — masses below `τ`, the sorted tail, trees built at `τ` — is
//! [`TreeScan::open`], shared with the sharded engine's per-shard scans,
//! which open at their shard-local `τ_s` under the global `K`. Each scan,
//! in-process or per shard, adds its event counts to the
//! `core.ss.events_scanned` and `core.ss.events_skipped` registry counters,
//! and its leaf counts to `core.ss.sets_folded` and `core.ss.leaves_loaded`.
//!
//! ## Every pin of a row from one opener
//!
//! CPClean's greedy step (§4.1, Equation 4) needs, for each unpinned row
//! `r`, the scan under every extra pin `(r, j)`. Opening each of those `M`
//! scans costs `O(NM)` for a tail of a few events. A [`PinSweep`] opens once,
//! at the `τ` of the base pins, and answers every pin of every row, and the
//! base pins themselves, from that opener, each bit-identical to its
//! standalone scan:
//!
//! * **One opener covers every pin.** With `r` unpinned its `f_r` is its
//!   lowest key; pinning raises `f_r` to `key(r, j)`, which can only raise
//!   the K-th largest `f`, so the base `τ` is at most every pinned `τ_j`,
//!   and the base opener's tail holds every event of every pinned scan.
//! * **Events between `τ` and `τ_j` add nothing to pin `j`.** Under pin
//!   `j`, at least `K` sets other than the boundary set are fully inside
//!   the top-K there, so every support is an exact zero (the argument of
//!   the provably-zero prefix above), which the accumulators skip.
//! * **`r`'s leaf has two states.** The sweep holds `r`'s leaf at the
//!   identity. At an event of another set, pin `j` has `r` *in* (its leaf
//!   `0 + 1·z`) iff `key(r, j)` lies above the event, and *out* (the
//!   identity, `1 + 0·z`) otherwise. "Out" is the tree as it stands; "in"
//!   is label(r)'s polynomial shifted up one degree. The polynomial
//!   products skip zero coefficients and `1·x = x` exactly, so a `z`
//!   factor is an exact shift under every grouping: each event costs at
//!   most two support evaluations, whose terms are replayed into the pins
//!   on each side.
//! * **`r`'s own event is the boundary of its own pin only.** Event
//!   `(r, j)` counts for pin `j` alone, with boundary mass `one` (a pinned
//!   set carries its whole mass on its candidate) and label(r)'s
//!   polynomial `excluding(leaf(r))`, as in the standalone scan — not
//!   `root()`, which is the same product grouped differently.
//! * **Each pin sees the same additions in the same order** as its
//!   standalone scan: other sets' masses advance in the same per-set order,
//!   tree nodes are pure functions of their leaves, and the events run in
//!   the one key order.
//! * **Restoring the opener is exact.** After every row the masses are
//!   copied back and every changed leaf reloaded, with one rebuild of its
//!   ancestors, which recomputes the opener's nodes.
//!
//! The sweep opens unfolded even in the exact semirings: the swept row may
//! be frozen at `τ`, and its leaf must stay separable. The per-event loop
//! is written once (`run_tail`): the plain scan is that loop with no
//! swept row. Each swept row adds one to the `core.ss.pin_sweeps` registry
//! counter.
//!
//! The sharded engine applies the same rule to *merged* polynomials: the
//! owner shard opens at its base `τ_s` with the swept row's leaf held at
//! the identity ([`TreeScan::open_swept`]), and the coordinator replays
//! each merged event into the row's pins with [`Supports::add_swept`] (see
//! `cp-shard`'s `merged_sweep_sources`). A `z` factor shifts a product
//! exactly under any grouping, so it shifts the product of shard factors
//! too.
//!
//! The scan is generic over the [`MassModel`], which is how the probabilistic
//! extension ([`crate::prior`]) reuses it with non-uniform candidate priors.

use crate::config::CpConfig;
use crate::dataset::IncompleteDataset;
use crate::mass::{MassModel, UniformMass};
use crate::pins::Pins;
use crate::poly::TallyTree;
use crate::result::Q2Result;
use crate::similarity::{largest_keys, CandKey, SimilarityIndex};
use crate::ss_mc::for_each_support_mc;
use crate::tally::{composition_count, compositions, for_each_support};
use cp_knn::Label;
use cp_numeric::{CountProduct, CountSemiring};
use std::collections::BinaryHeap;

/// Above this many tally vectors the scan switches from enumerating `Γ`
/// (Algorithm A.1) to the label-capped DP of Algorithm A.2, which is
/// polynomial in `|Y|`.
const MC_TALLY_THRESHOLD: u64 = 64;

/// Whether a scan over `n_labels` labels with slot budget `k` should use the
/// label-capped multi-class accumulator instead of tally enumeration.
///
/// Exported so every scan front-end — this module, the batch engine, and
/// the sharded engine (`cp-shard`) — takes the same accumulation path on
/// the same instance; the choice never changes answers, only constants.
pub fn use_multiclass_accumulator(n_labels: usize, k: usize) -> bool {
    composition_count(n_labels, k) > MC_TALLY_THRESHOLD
}

/// Q2 via the divide-and-conquer SortScan (the production algorithm).
pub fn q2_sortscan_tree<S: CountSemiring>(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    t: &[f64],
    pins: &Pins,
) -> Q2Result<S> {
    let idx = SimilarityIndex::build(ds, cfg.kernel, t);
    q2_sortscan_tree_with_index(ds, cfg, &idx, pins)
}

/// Q2 via the divide-and-conquer SortScan, reusing a prebuilt similarity
/// index (the CPClean hot path: one index per validation example, many
/// pinned scans).
pub fn q2_sortscan_tree_with_index<S: CountSemiring>(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
) -> Q2Result<S> {
    let mass = UniformMass::new(ds, pins);
    let use_mc = use_multiclass_accumulator(ds.n_labels(), cfg.k_eff(ds.len()));
    scan_tree(ds, cfg, idx, pins, mass, use_mc)
}

/// Force the multi-class (Algorithm A.2) accumulation regardless of `|Y|`.
pub fn q2_sortscan_multiclass_with_index<S: CountSemiring>(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
) -> Q2Result<S> {
    let mass = UniformMass::new(ds, pins);
    scan_tree(ds, cfg, idx, pins, mass, true)
}

/// The key at which a support can first be non-zero: `τ`, the K-th largest
/// key of a set's lowest allowed candidate (see the module docs);
/// [`CandKey::MIN`], which bounds nothing, when fewer than `k` sets exist.
/// `O(N log K)`.
fn zero_prefix_key(idx: &SimilarityIndex, pins: &Pins, n: usize, k: usize) -> CandKey {
    if k == 0 || k > n {
        return CandKey::MIN;
    }
    let first = (0..n).map(|i| match pins.pinned(i) {
        Some(j) => idx.key(i, j),
        None => idx.set_keys(i)[0],
    });
    let mut top = BinaryHeap::with_capacity(k);
    largest_keys(first, k, &mut top);
    top.peek().expect("k > 0 sets").0
}

/// Whether `from_count(c, c)` is the identity in `S`, memoized per count
/// in `memo`: a frozen set of that size then leaves its tree as it is.
fn is_unit_count<S: CountSemiring>(memo: &mut Vec<Option<bool>>, c: u32) -> bool {
    let c = c as usize;
    if c >= memo.len() {
        memo.resize(c + 1, None);
    }
    *memo[c].get_or_insert_with(|| S::from_count(c as u32, c as u32) == S::one())
}

/// A tree scan opened where a support can first be non-zero: the masses
/// advanced over the provably-zero prefix (every allowed candidate keyed
/// below `τ`), one tally tree per label built once there, and the allowed
/// candidates at or above `τ` — the only events the scan runs — sorted.
///
/// In an exact semiring the frozen sets whose leaf is not the identity are
/// folded into `frozen` instead of loaded (see the module docs): label
/// `l`'s polynomial over all of its sets is `frozen[l]` times its tree's.
///
/// The opener shared by [`q2_sortscan_tree`], [`PinSweep`] and the sharded
/// engine's per-shard scans (`cp-shard`'s `ShardScan`). A shard opens over its own
/// sets with the **global** `k`: below the shard-local `τ_s` at least `k`
/// of the shard's sets have zero out-mass, so every merged support is an
/// exact zero whether the shard presents its true factors there or its
/// factors at `τ_s`.
#[derive(Clone, Debug)]
pub struct TreeScan<S, M> {
    /// The mass model, advanced over every allowed candidate below `τ`.
    pub mass: M,
    /// One tally tree per label, loaded from `mass` at `τ` with every set
    /// that is not folded into `frozen`.
    pub trees: Vec<TallyTree<S>>,
    /// Per label, the product of its folded sets' leaves (`one` when none
    /// is folded, always under an inexact semiring).
    pub frozen: Vec<S>,
    /// Each candidate set's leaf in its label's tree.
    pub leaf_pos: Vec<usize>,
    /// The allowed candidates at or above `τ` in ascending key order:
    /// `idx.order()[τ..]` filtered by the pins.
    pub tail: Vec<CandKey>,
}

impl<S: CountSemiring, M: MassModel<S>> TreeScan<S, M> {
    /// Open a scan over `ds` at `τ` for slot budget `k` (which may exceed
    /// `ds.len()`: nothing is then skipped). Adds the allowed candidates
    /// walked mass-only to `core.ss.events_skipped`, the non-identity
    /// frozen leaves folded into `frozen` to `core.ss.sets_folded`, and the
    /// leaves loaded into the trees to `core.ss.leaves_loaded`.
    ///
    /// Cost `O(NM + T log T + L·K² log N)` for `T` tail events and `L`
    /// loaded leaves: each set advances its allowed candidates below `τ` in
    /// ascending key order (the per-set `advance` sequence of the full
    /// walk, so every mass is bit-identical), only the candidates at or
    /// above `τ` are sorted, and only leaves other than the identity
    /// `1 + 0·z` that are not folded are loaded into the trees, which give
    /// storage only to the nodes above them. A frozen set with a settled
    /// count is decided by integer work alone (see the module docs).
    ///
    /// # Panics
    /// Panics if the pin mask does not validate against `ds`.
    pub fn open(
        ds: &IncompleteDataset,
        idx: &SimilarityIndex,
        pins: &Pins,
        k: usize,
        mass: M,
    ) -> Self {
        Self::open_with(ds, idx, pins, k, mass, S::EXACT)
    }

    /// The opener of a pin sweep over the unpinned set `row`: [`TreeScan::open`]
    /// at the `τ` of `pins`, unfolded as [`PinSweep::open`] opens, with
    /// `row`'s leaf held at the identity. The tail still holds `row`'s
    /// candidates at or above `τ`; a caller running it must leave that leaf
    /// alone (see the module docs). What a shard serves for the sharded
    /// coordinator's merged pin sweep.
    ///
    /// # Panics
    /// Panics if the pin mask does not validate against `ds`, or if `row`
    /// is out of range or pinned.
    pub fn open_swept(
        ds: &IncompleteDataset,
        idx: &SimilarityIndex,
        pins: &Pins,
        k: usize,
        mass: M,
        row: usize,
    ) -> Self {
        assert!(
            row < ds.len() && pins.pinned(row).is_none(),
            "a swept row must be an unpinned row of the dataset (row {row})"
        );
        let mut scan = Self::open_with(ds, idx, pins, k, mass, false);
        let tree = &mut scan.trees[ds.label(row)];
        tree.reload_leaf(scan.leaf_pos[row], None);
        tree.rebuild();
        scan
    }

    /// [`TreeScan::open`], folding frozen sets only if `fold` (which needs
    /// an exact semiring). A pin sweep opens unfolded: the swept row may be
    /// frozen at `τ`, and its leaf must stay separable.
    fn open_with(
        ds: &IncompleteDataset,
        idx: &SimilarityIndex,
        pins: &Pins,
        k: usize,
        mut mass: M,
        fold: bool,
    ) -> Self {
        debug_assert!(!fold || S::EXACT, "folding needs an exact semiring");
        pins.validate(ds);
        let n = ds.len();
        let tau = zero_prefix_key(idx, pins, n, k);

        // map each candidate set to a leaf of its label's tree
        let mut leaf_pos = vec![0usize; n];
        let mut label_counts = vec![0usize; ds.n_labels()];
        for (i, pos) in leaf_pos.iter_mut().enumerate() {
            let l = ds.label(i);
            *pos = label_counts[l];
            label_counts[l] += 1;
        }
        let mut trees: Vec<TallyTree<S>> =
            label_counts.iter().map(|&c| TallyTree::new(c, k)).collect();

        // per set: below τ only the mass moves, at or above it are the
        // events; the set's leaf at τ is then final: left out if it is the
        // identity, folded if it is frozen and the semiring exact, loaded
        // otherwise. A frozen set whose mass model reports its settled
        // count `c` is decided on `c` alone: its leaf `from_count(c, c)` is
        // the identity for a memoized set of counts, and folding multiplies
        // `c` into its label's integer product
        let (one, zero) = (S::one(), S::zero());
        let mut folds: Vec<CountProduct<S>> = (0..ds.n_labels())
            .map(|_| CountProduct::default())
            .collect();
        let mut unit_counts = Vec::new();
        let (mut skipped, mut folded, mut loaded) = (0u64, 0u64, 0u64);
        let mut tail = Vec::new();
        for i in 0..n {
            let pinned;
            let keys = match pins.pinned(i) {
                Some(j) => {
                    pinned = [idx.key(i, j)];
                    &pinned[..]
                }
                None => idx.set_keys(i),
            };
            // the allowed keys ascend, so a frozen set — all of its
            // candidates below τ — is told by one comparison
            if keys[keys.len() - 1] < tau {
                for key in keys {
                    mass.advance(i, key.cand());
                }
                skipped += keys.len() as u64;
                if let Some(c) = mass.settled_count(i) {
                    if is_unit_count::<S>(&mut unit_counts, c) {
                        continue;
                    }
                    if fold {
                        folds[ds.label(i)].push(c);
                        folded += 1;
                        continue;
                    }
                }
            } else {
                let below = keys.partition_point(|key| *key < tau);
                for key in &keys[..below] {
                    mass.advance(i, key.cand());
                }
                skipped += below as u64;
                tail.extend_from_slice(&keys[below..]);
            }
            let (seen, unseen) = (mass.seen(i), mass.unseen(i));
            if seen == one && unseen == zero {
                continue;
            }
            trees[ds.label(i)].load_leaf(leaf_pos[i], seen, unseen);
            loaded += 1;
        }
        let frozen = folds.into_iter().map(CountProduct::finish).collect();
        tail.sort_unstable();
        cp_obs::counter!("core.ss.events_skipped").add(skipped);
        cp_obs::counter!("core.ss.sets_folded").add(folded);
        cp_obs::counter!("core.ss.leaves_loaded").add(loaded);
        // build the trees once, at τ
        trees.iter_mut().for_each(TallyTree::rebuild);

        TreeScan {
            mass,
            trees,
            frozen,
            leaf_pos,
            tail,
        }
    }
}

/// Add one scan's event count to `core.ss.events_scanned` — the events run
/// through the tally trees after [`TreeScan::open`]. Called once per scan.
pub fn note_events_scanned(n: u64) {
    cp_obs::counter!("core.ss.events_scanned").add(n);
}

/// How a scan turns one event's polynomials into support terms: by
/// enumerating the tally vectors `Γ` (Algorithm A.1) or by the label-capped
/// DP over slot budget `k` (Algorithm A.2, for many labels).
///
/// Public so that the sharded coordinator's merged pin sweep
/// (`cp-shard`'s `merged_sweep_sources`) replays one merged event into a
/// swept row's pins with the same code as [`PinSweep`].
#[derive(Debug)]
pub enum Supports {
    /// Enumerate the tally vectors `Γ`.
    Tally(Vec<Vec<u32>>),
    /// The label-capped DP over slot budget `k`.
    Capped {
        /// The slot budget.
        k: usize,
    },
}

impl Supports {
    /// The accumulator for `n_labels` labels and slot budget `k`: the
    /// label-capped DP if `use_mc`, tally enumeration otherwise.
    pub fn new(n_labels: usize, k: usize, use_mc: bool) -> Self {
        if use_mc {
            Supports::Capped { k }
        } else {
            Supports::Tally(compositions(n_labels, k))
        }
    }

    /// Hand each non-zero support term of one event to `sink`, in the
    /// order the accumulators add them.
    pub fn each<S: CountSemiring>(
        &self,
        yi: Label,
        boundary: &S,
        polys: &[&[S]],
        sink: impl FnMut(Label, &S),
    ) {
        match self {
            Supports::Tally(comps) => for_each_support(comps, yi, boundary, polys, sink),
            Supports::Capped { k } => for_each_support_mc(*k, yi, boundary, polys, sink),
        }
    }

    /// One event's supports added to `counts[p.cand()]` for every pin key
    /// `p` in `pins`: computed once, then replayed, so each pin's counts
    /// receive the same additions in the same order as if the accumulator
    /// had run on them alone.
    fn add_to_pins<S: CountSemiring>(
        &self,
        yi: Label,
        boundary: &S,
        polys: &[&[S]],
        pins: &[CandKey],
        counts: &mut [Vec<S>],
        terms: &mut Vec<(Label, S)>,
    ) {
        if let [pin] = pins {
            let counts = &mut counts[pin.cand()];
            return self.each(yi, boundary, polys, |w, v| counts[w].add_assign(v));
        }
        terms.clear();
        self.each(yi, boundary, polys, |w, v| terms.push((w, v.clone())));
        for pin in pins {
            for (w, v) in terms.iter() {
                counts[pin.cand()][*w].add_assign(v);
            }
        }
    }

    /// One event at `key` of a set other than the swept row, added to the
    /// counts of every pin of that row (see the module docs): a pin keyed
    /// below the event has the row *out*, and reads `polys` as they are; a
    /// pin keyed above it has the row *in*, and reads label
    /// `swept_label`'s polynomial shifted up one degree (built in
    /// `shifted`). `pins` are the row's keys, ascending; pin `p`'s counts
    /// are `counts[p.cand()]`, and `terms` is scratch space.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn add_swept<'p, S: CountSemiring>(
        &self,
        yi: Label,
        boundary: &S,
        polys: &mut [&'p [S]],
        swept_label: Label,
        pins: &[CandKey],
        key: &CandKey,
        counts: &mut [Vec<S>],
        terms: &mut Vec<(Label, S)>,
        shifted: &'p mut Vec<S>,
    ) {
        let (out, in_) = pins.split_at(pins.partition_point(|p| p < key));
        if !out.is_empty() {
            self.add_to_pins(yi, boundary, polys, out, counts, terms);
        }
        if !in_.is_empty() {
            let poly = polys[swept_label];
            shifted.clear();
            shifted.push(S::zero());
            shifted.extend_from_slice(&poly[..poly.len() - 1]);
            polys[swept_label] = shifted;
            self.add_to_pins(yi, boundary, polys, in_, counts, terms);
        }
    }
}

/// Leaf states a run changed, as `(set, state before the change)` in change
/// order ([`TallyTree::leaf_state`]): what restores a pin sweep's opener.
type UndoLog<S> = Vec<(usize, Option<(S, S)>)>;

/// The row a pin sweep answers every pin of (see the module docs).
struct Swept<'k> {
    row: usize,
    label: Label,
    leaf: usize,
    /// The row's candidate keys, ascending; pin `j`'s counts are
    /// `counts[j]`, with `j = key.cand()`.
    keys: &'k [CandKey],
}

/// The per-label polynomials one event's supports read: label `yi`'s with
/// the boundary set excluded, every other label's whole tree.
fn event_polys<'p, S: CountSemiring>(
    trees: &'p [TallyTree<S>],
    yi: Label,
    ex: &'p [S],
) -> Vec<&'p [S]> {
    (0..trees.len())
        .map(|l| if l == yi { ex } else { trees[l].root() })
        .collect()
}

/// The per-event loop over an opened scan's tail — the one loop every
/// in-process tree scan runs.
///
/// With no swept row every event's supports go to `counts[0]`: the plain
/// scan. With a swept row `r`, whose leaf the caller holds at the
/// identity, `counts[j]` receives exactly the additions the standalone
/// scan under the extra pin `(r, j)` makes (see the module docs). Each set
/// whose leaf an event changes is logged to `undo` with its state before
/// the change, so the caller can restore the opener.
fn run_tail<S: CountSemiring, M: MassModel<S>>(
    ds: &IncompleteDataset,
    supports: &Supports,
    scan: &mut TreeScan<S, M>,
    swept: Option<&Swept>,
    counts: &mut [Vec<S>],
    mut undo: Option<&mut UndoLog<S>>,
) {
    let TreeScan {
        mass,
        trees,
        frozen,
        leaf_pos,
        tail,
    } = scan;
    let one = S::one();
    let mut terms = Vec::new();
    let mut shifted = Vec::new();

    for key in tail.iter() {
        let (i, j) = (key.set(), key.cand());
        if let Some(r) = swept.filter(|r| r.row == i) {
            // the swept row's own candidate is the boundary of pin j alone;
            // a pinned set carries its whole mass, `one`, on it
            let ex = trees[r.label].excluding(r.leaf);
            let polys = event_polys(trees, r.label, &ex);
            let counts = &mut counts[j];
            supports.each(r.label, &one, &polys, |w, v| counts[w].add_assign(v));
            continue;
        }
        mass.advance(i, j);
        let yi = ds.label(i);
        if let Some(undo) = undo.as_deref_mut() {
            undo.push((i, trees[yi].leaf_state(leaf_pos[i])));
        }
        // one leaf changed -> O(K² log N) tree refresh
        trees[yi].set_leaf(leaf_pos[i], mass.seen(i), mass.unseen(i));
        // slot polynomial of yi's sets with the boundary set excluded
        let ex = trees[yi].excluding(leaf_pos[i]);
        let boundary = mass.boundary(i, j);
        let mut polys = event_polys(trees, yi, &ex);
        let Some(r) = swept else {
            let counts = &mut counts[0];
            supports.each(yi, &boundary, &polys, |w, v| counts[w].add_assign(v));
            continue;
        };
        // a pin below this event has already passed: r is out of the top-K
        // there, its leaf the identity; a pin above it keeps r in, its leaf
        // `0 + 1·z`, which shifts r's label polynomial by one degree
        supports.add_swept(
            yi,
            &boundary,
            &mut polys,
            r.label,
            r.keys,
            key,
            counts,
            &mut terms,
            &mut shifted,
        );
    }
    note_events_scanned(tail.len() as u64);
    // a frozen set is never the boundary set, so every support term carries
    // each label's folded scalar exactly once: multiply them in at the end
    let scale = cp_numeric::semiring::product(frozen.iter().cloned());
    if scale != one {
        for c in counts.iter_mut().flatten() {
            c.mul_assign(&scale);
        }
    }
}

/// The shared tree-based scan over a mass model: open, then run the tail
/// with no swept row.
pub(crate) fn scan_tree<S: CountSemiring, M: MassModel<S>>(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
    mass: M,
    use_mc: bool,
) -> Q2Result<S> {
    let k = cfg.k_eff(ds.len());
    let mut scan = TreeScan::open(ds, idx, pins, k, mass);
    let supports = Supports::new(ds.n_labels(), k, use_mc);
    let mut counts = [vec![S::zero(); ds.n_labels()]];
    run_tail(ds, &supports, &mut scan, None, &mut counts, None);
    let [counts] = counts;
    Q2Result {
        counts,
        total: scan.mass.total(),
    }
}

/// Every single-row pin extension of one (point, base pins) scan, answered
/// from one opener (see the module docs): [`PinSweep::pinned`] returns, for
/// an unpinned row `r`, the Q2 result under the base pins plus `(r, j)` for
/// every candidate `j` — each equal to the standalone scan under those pins
/// (bit for bit in `f64`) — and [`PinSweep::base`] the result under the
/// base pins alone. The opener is restored after every call, so calls can
/// come in any order.
#[derive(Debug)]
pub struct PinSweep<'a, S, M> {
    ds: &'a IncompleteDataset,
    idx: &'a SimilarityIndex,
    pins: Pins,
    supports: Supports,
    /// Opened at the base pins' `τ`, frozen sets left unfolded.
    scan: TreeScan<S, M>,
    /// The opener's masses, copied back after every run.
    opened_mass: M,
    undo: UndoLog<S>,
}

impl<'a, S: CountSemiring, M: MassModel<S> + Clone> PinSweep<'a, S, M> {
    /// Open the sweep at `τ` of `pins` with slot budget `k`, accumulating
    /// by the label-capped DP if `use_mc`. `mass` is the mass model under
    /// `pins`.
    pub fn open(
        ds: &'a IncompleteDataset,
        idx: &'a SimilarityIndex,
        pins: &Pins,
        k: usize,
        mass: M,
        use_mc: bool,
    ) -> Self {
        let scan = TreeScan::open_with(ds, idx, pins, k, mass, false);
        PinSweep {
            ds,
            idx,
            pins: pins.clone(),
            supports: Supports::new(ds.n_labels(), k, use_mc),
            opened_mass: scan.mass.clone(),
            scan,
            undo: Vec::new(),
        }
    }

    /// Q2 under the base pins: the scan [`q2_sortscan_tree_with_index`]
    /// runs, from this opener.
    pub fn base(&mut self) -> Q2Result<S> {
        let mut counts = [vec![S::zero(); self.ds.n_labels()]];
        self.run(None, &mut counts);
        let [counts] = counts;
        Q2Result {
            counts,
            total: self.scan.mass.total(),
        }
    }

    /// Q2 under the base pins plus `(row, j)`, for every candidate `j` of
    /// `row` in index order. `total` is the world mass under those pins —
    /// the same for every `j`: [`MassModel::total`] of the mass model a
    /// standalone scan under them opens with. Adds one to `core.ss.pin_sweeps`.
    ///
    /// # Panics
    /// Panics if `row` is pinned in the base pins.
    pub fn pinned(&mut self, row: usize, total: &S) -> Vec<Q2Result<S>> {
        assert!(
            self.pins.pinned(row).is_none(),
            "a pin sweep answers unpinned rows only (row {row} is pinned)"
        );
        cp_obs::counter!("core.ss.pin_sweeps").inc();
        let (ds, idx) = (self.ds, self.idx);
        let swept = Swept {
            row,
            label: ds.label(row),
            leaf: self.scan.leaf_pos[row],
            keys: idx.set_keys(row),
        };
        // hold the swept row's leaf at the identity for the whole run
        let tree = &mut self.scan.trees[swept.label];
        self.undo.push((row, tree.leaf_state(swept.leaf)));
        tree.reload_leaf(swept.leaf, None);
        tree.rebuild();
        let mut counts = vec![vec![S::zero(); ds.n_labels()]; ds.set_size(row)];
        self.run(Some(&swept), &mut counts);
        counts
            .into_iter()
            .map(|counts| Q2Result {
                counts,
                total: total.clone(),
            })
            .collect()
    }

    /// Run the tail, then restore the opener: the masses from their copy,
    /// the changed leaves from the undo log (latest change first, so each
    /// ends at its state before the run) with one rebuild of their
    /// ancestors. Tree nodes are pure functions of their leaves, so the
    /// restored trees equal the opener's.
    fn run(&mut self, swept: Option<&Swept>, counts: &mut [Vec<S>]) {
        run_tail(
            self.ds,
            &self.supports,
            &mut self.scan,
            swept,
            counts,
            Some(&mut self.undo),
        );
        self.scan.mass = self.opened_mass.clone();
        let TreeScan {
            trees, leaf_pos, ..
        } = &mut self.scan;
        for (i, state) in self.undo.drain(..).rev() {
            trees[self.ds.label(i)].reload_leaf(leaf_pos[i], state);
        }
        trees.iter_mut().for_each(TallyTree::rebuild);
    }
}

/// The full walk the zero-prefix scan replaces: trees built at `α = 0` and
/// refreshed at every allowed candidate. Kept as the bit-identity oracle.
#[cfg(test)]
fn scan_tree_full_walk<S: CountSemiring, M: MassModel<S>>(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
    mut mass: M,
    use_mc: bool,
) -> Q2Result<S> {
    use crate::ss_mc::accumulate_supports_mc;
    use crate::tally::accumulate_supports;
    pins.validate(ds);
    let n = ds.len();
    let n_labels = ds.n_labels();
    let k = cfg.k_eff(n);

    let mut leaf_pos = vec![0usize; n];
    let mut label_counts = vec![0usize; n_labels];
    for (i, pos) in leaf_pos.iter_mut().enumerate() {
        let l = ds.label(i);
        *pos = label_counts[l];
        label_counts[l] += 1;
    }
    let mut trees: Vec<TallyTree<S>> = label_counts.iter().map(|&c| TallyTree::new(c, k)).collect();
    // initialize leaves at α = 0: everything is still "more similar than the
    // boundary", i.e. out-mass 0, in-mass = the whole set
    for i in 0..n {
        trees[ds.label(i)].set_leaf(leaf_pos[i], mass.seen(i), mass.unseen(i));
    }

    let comps = if use_mc {
        Vec::new()
    } else {
        compositions(n_labels, k)
    };
    let mut counts = vec![S::zero(); n_labels];

    for &(iu, ju) in idx.order() {
        let (i, j) = (iu as usize, ju as usize);
        if !pins.allows(i, j) {
            continue;
        }
        mass.advance(i, j);
        let yi = ds.label(i);
        trees[yi].set_leaf(leaf_pos[i], mass.seen(i), mass.unseen(i));
        let ex = trees[yi].excluding(leaf_pos[i]);
        let boundary = mass.boundary(i, j);

        let poly_refs: Vec<&[S]> = (0..n_labels)
            .map(|l| {
                if l == yi {
                    ex.as_slice()
                } else {
                    trees[l].root()
                }
            })
            .collect();
        if use_mc {
            accumulate_supports_mc(k, yi, &boundary, &poly_refs, &mut counts);
        } else {
            accumulate_supports(&comps, yi, &boundary, &poly_refs, &mut counts);
        }
    }

    Q2Result {
        counts,
        total: mass.total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::IncompleteExample;
    use crate::mass::WeightedMass;
    use crate::ss::q2_sortscan_with_index;
    use cp_knn::Kernel;
    use cp_numeric::{BigUint, Possibility, ScaledF64};
    use proptest::prelude::*;

    fn arb_instance() -> impl Strategy<Value = (IncompleteDataset, Vec<f64>, usize)> {
        (2usize..=4, 1usize..=7, 1usize..=5).prop_flat_map(|(n_labels, n, k)| {
            let example = (proptest::collection::vec(-9i32..9, 1..=3), 0..n_labels).prop_map(
                |(grid, label)| {
                    let candidates: Vec<Vec<f64>> =
                        grid.into_iter().map(|g| vec![g as f64]).collect();
                    IncompleteExample::incomplete(candidates, label)
                },
            );
            (
                proptest::collection::vec(example, n..=n),
                -9i32..9,
                Just(n_labels),
                Just(k),
            )
                .prop_map(move |(examples, t, n_labels, k)| {
                    let ds = IncompleteDataset::new(examples, n_labels).unwrap();
                    (ds, vec![t as f64], k)
                })
        })
    }

    /// A bit-identity case: a dataset on a small 1-d grid (exact similarity
    /// ties are common, `grid = 1` makes them dominant), a test point, K in
    /// 1..=5 (often ≥ N), random pins and normalized per-candidate priors
    /// whose rows sum to 1 only within rounding. A set's candidates are
    /// listed as drawn, most similar first, or least similar first, so its
    /// key order often differs from its candidate-index order.
    type ScanCase = (IncompleteDataset, Vec<f64>, usize, Pins, Vec<Vec<f64>>);

    fn arb_scan_case() -> impl Strategy<Value = ScanCase> {
        (2usize..=4, 1usize..=8, 1usize..=5, 1i32..=6).prop_flat_map(|(n_labels, n, k, grid)| {
            // (candidate grid points, label, pin choice, prior weights)
            let example = (
                proptest::collection::vec(-grid..=grid, 1..=4),
                0..n_labels,
                0usize..8,
                proptest::collection::vec(1u32..=1_000_000, 4..=4),
                0u8..3,
            );
            (
                proptest::collection::vec(example, n..=n),
                -grid..=grid,
                Just(n_labels),
                Just(k),
            )
                .prop_map(move |(rows, t, n_labels, k)| {
                    let mut examples = Vec::new();
                    let mut pins = Vec::new();
                    let mut weights = Vec::new();
                    for (i, (mut points, label, pin, w, listing)) in rows.into_iter().enumerate() {
                        let m = points.len();
                        let dist = |g: &i32| (g - t).abs();
                        match listing {
                            0 => points.sort_by_key(dist),
                            1 => points.sort_by_key(|g| std::cmp::Reverse(dist(g))),
                            _ => {}
                        }
                        // pin roughly a third of the sets to a random candidate
                        if pin < 3 && pin < m {
                            pins.push((i, pin));
                        }
                        let w = &w[..m];
                        let sum: u32 = w.iter().sum();
                        weights.push(w.iter().map(|&x| x as f64 / sum as f64).collect());
                        let candidates = points.into_iter().map(|g| vec![g as f64]).collect();
                        examples.push(IncompleteExample::incomplete(candidates, label));
                    }
                    let ds = IncompleteDataset::new(examples, n_labels).unwrap();
                    let pins = Pins::from_pairs(ds.len(), &pins);
                    (ds, vec![t as f64], k, pins, weights)
                })
        })
    }

    /// Both scans under a uniform mass in semiring `S`, through both
    /// accumulators.
    fn both_scans<S: CountSemiring>(
        ds: &IncompleteDataset,
        cfg: &CpConfig,
        idx: &SimilarityIndex,
        pins: &Pins,
        use_mc: bool,
    ) -> (Q2Result<S>, Q2Result<S>) {
        let mass = UniformMass::new(ds, pins);
        (
            scan_tree(ds, cfg, idx, pins, mass.clone(), use_mc),
            scan_tree_full_walk(ds, cfg, idx, pins, mass, use_mc),
        )
    }

    /// `τ` as a position in the full order, from ranks: the opener's
    /// reference.
    fn zero_prefix_len_by_rank(
        ds: &IncompleteDataset,
        idx: &SimilarityIndex,
        pins: &Pins,
        k: usize,
    ) -> usize {
        let n = ds.len();
        if k == 0 || k > n {
            return 0;
        }
        let mut first: Vec<u32> = (0..n)
            .map(|i| idx.rank(i, idx.least_similar(i, pins)))
            .collect();
        *first.select_nth_unstable(n - k).1 as usize
    }

    /// A deterministic instance with more than 2^128 possible worlds: 200
    /// dirty 4-candidate sets and 20 clean rows on a 2-d grid, |Y| = 4, a
    /// test point, and pins on about a fifth of the dirty sets.
    fn large_world_case(seed: u64) -> (IncompleteDataset, Vec<f64>, Pins) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        fn point(next: &mut impl FnMut(u64) -> u64) -> Vec<f64> {
            vec![next(40) as f64, next(40) as f64]
        }
        let mut examples = Vec::new();
        let mut pins = Vec::new();
        for i in 0..200 {
            let candidates = (0..4).map(|_| point(&mut next)).collect();
            examples.push(IncompleteExample::incomplete(candidates, next(4) as usize));
            if next(5) == 0 {
                pins.push((i, next(4) as usize));
            }
        }
        for _ in 0..20 {
            examples.push(IncompleteExample::complete(
                point(&mut next),
                next(4) as usize,
            ));
        }
        let ds = IncompleteDataset::new(examples, 4).unwrap();
        let pins = Pins::from_pairs(ds.len(), &pins);
        (ds, point(&mut next), pins)
    }

    #[test]
    fn folded_biguint_scan_beyond_2_pow_128_is_the_full_walk() {
        let cfg = CpConfig::new(3);
        for seed in 1..=4 {
            let (ds, t, pinned) = large_world_case(seed);
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            let unpinned = Pins::none(ds.len());
            assert!(ds.world_count().bit_len() > 128, "seed {seed}");
            for (pins, all_worlds) in [(&unpinned, true), (&pinned, false)] {
                // many sets are frozen at K = 3, and their folded product
                // alone exceeds 2^128
                let opened =
                    TreeScan::<BigUint, _>::open(&ds, &idx, pins, 3, UniformMass::new(&ds, pins));
                let fold = cp_numeric::semiring::product(opened.frozen);
                assert!(fold.bit_len() > 128, "seed {seed}: fold {fold}");
                for use_mc in [false, true] {
                    let (fast, full) = both_scans::<BigUint>(&ds, &cfg, &idx, pins, use_mc);
                    assert_eq!(fast.counts, full.counts, "seed {seed} mc {use_mc}");
                    assert_eq!(fast.total, full.total);
                    let sum = fast
                        .counts
                        .iter()
                        .fold(BigUint::zero(), |acc, c| acc.add(c));
                    assert_eq!(sum, fast.total, "seed {seed} mc {use_mc}");
                    if all_worlds {
                        assert_eq!(sum, ds.world_count());
                    }
                }
            }
        }
    }

    /// `n_far` sets far from the test point at 0, of every size 1..=9 in
    /// turn and alternating between two labels, plus four two-candidate
    /// sets near it that hold `τ` (K ≤ 4) and the whole tail: every far
    /// set is frozen, and per label the far sizes multiply past 2^32, so
    /// the opener's integer batches flush. With `pinned`, every seventh
    /// far set and the nearest set are pinned.
    fn frozen_sizes_case(n_far: usize, pinned: bool) -> (IncompleteDataset, Vec<f64>, Pins) {
        let mut examples = Vec::new();
        let mut pins = Vec::new();
        for i in 0..n_far {
            let side = if i % 3 == 0 { -1.0 } else { 1.0 };
            let candidates = (0..i % 9 + 1)
                .map(|j| vec![side * (10 + (i * 13 + j * 7) % 50) as f64])
                .collect();
            examples.push(IncompleteExample::incomplete(candidates, i % 2));
            if pinned && i % 7 == 3 {
                pins.push((i, i % (i % 9 + 1)));
            }
        }
        for q in 0..4 {
            let x = q as f64 + 1.0;
            examples.push(IncompleteExample::incomplete(
                vec![vec![x], vec![-x - 0.5]],
                q % 2,
            ));
        }
        if pinned {
            pins.push((n_far, 1));
        }
        let ds = IncompleteDataset::new(examples, 2).unwrap();
        let pins = Pins::from_pairs(ds.len(), &pins);
        (ds, vec![0.0], pins)
    }

    #[test]
    fn batched_frozen_sizes_scan_is_the_full_walk() {
        // 48 far sets: ∏ sizes < 2^128, within u128; 200: past 2^128
        for (n_far, pinned) in [(48, false), (48, true), (200, false), (200, true)] {
            let (ds, t, pins) = frozen_sizes_case(n_far, pinned);
            let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &t);
            for k in [2, 3] {
                let cfg = CpConfig::new(k);
                let mass = UniformMass::new(&ds, &pins);
                let opened = TreeScan::<BigUint, _>::open(&ds, &idx, &pins, k, mass.clone());
                assert!(opened.tail.iter().all(|key| key.set() >= n_far));
                for f in &opened.frozen {
                    assert!(f.bit_len() > 32, "n_far {n_far} k {k}: fold {f}");
                }
                if n_far == 48 {
                    let opened = TreeScan::<u128, _>::open(&ds, &idx, &pins, k, mass.clone());
                    assert!(opened.frozen.iter().all(|&f| f > 1 << 32));
                }
                // ScaledF64 is inexact: it folds nothing and loads every
                // frozen leaf whose size is not 1
                let scaled = TreeScan::<ScaledF64, _>::open(&ds, &idx, &pins, k, mass);
                assert!(scaled.frozen.iter().all(|f| *f == ScaledF64::one()));
                let in_tail = |i| scaled.tail.iter().any(|key| key.set() == i);
                let expected = (0..ds.len())
                    .filter(|&i| pins.eff_size(&ds, i) > 1 || in_tail(i))
                    .count();
                let loaded: usize = (0..ds.len())
                    .filter(|&i| {
                        scaled.trees[ds.label(i)]
                            .leaf_state(scaled.leaf_pos[i])
                            .is_some()
                    })
                    .count();
                assert_eq!(loaded, expected, "n_far {n_far} k {k}");
                for use_mc in [false, true] {
                    let what = format!("n_far {n_far} pinned {pinned} k {k} mc {use_mc}");
                    if n_far == 48 {
                        let (fast, full) = both_scans::<u128>(&ds, &cfg, &idx, &pins, use_mc);
                        assert_eq!(fast.counts, full.counts, "{what}");
                        assert_eq!(fast.total, full.total, "{what}");
                    }
                    let (fast, full) = both_scans::<BigUint>(&ds, &cfg, &idx, &pins, use_mc);
                    assert_eq!(fast.counts, full.counts, "{what}");
                    assert_eq!(fast.total, full.total, "{what}");
                    let (fast, full) = both_scans::<Possibility>(&ds, &cfg, &idx, &pins, use_mc);
                    assert_eq!(fast.counts, full.counts, "{what}");
                    let (fast, full) = both_scans::<ScaledF64>(&ds, &cfg, &idx, &pins, use_mc);
                    assert!(
                        fast.counts == full.counts && fast.total == full.total,
                        "{what}"
                    );
                }
            }
        }
    }

    /// `(loaded leaves, materialized nodes, depth)` of each tree.
    fn tree_storage<S: CountSemiring>(trees: &[TallyTree<S>]) -> Vec<(usize, usize, usize)> {
        trees
            .iter()
            .map(|tree| {
                let loaded = (0..tree.n_leaves())
                    .filter(|&leaf| tree.leaf_state(leaf).is_some())
                    .count();
                let depth = tree.capacity().trailing_zeros() as usize;
                (loaded, tree.materialized_nodes(), depth)
            })
            .collect()
    }

    #[test]
    fn trees_materialize_only_the_paths_of_loaded_leaves() {
        let k = 3;
        for seed in 1..=3 {
            let (ds, t, pins) = large_world_case(seed);
            let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &t);
            let mass = UniformMass::new(&ds, &pins);
            let f64_scan = TreeScan::<f64, _>::open(&ds, &idx, &pins, k, mass.clone());
            let big_scan = TreeScan::<BigUint, _>::open(&ds, &idx, &pins, k, mass.clone());
            let storage = tree_storage(&f64_scan.trees)
                .into_iter()
                .chain(tree_storage(&big_scan.trees));
            for (loaded, nodes, depth) in storage {
                assert!(nodes <= loaded * (depth + 1), "seed {seed}: {nodes} nodes");
            }
            // a sweep over every unpinned row writes each node at most once
            let mut sweep = PinSweep::<f64, _>::open(&ds, &idx, &pins, k, mass, false);
            for row in (0..ds.len()).filter(|&r| pins.pinned(r).is_none()) {
                sweep.pinned(row, &1.0);
            }
            sweep.base();
            for tree in &sweep.scan.trees {
                assert!(tree.materialized_nodes() <= 2 * tree.capacity());
            }
        }
    }

    /// Every unpinned row of `pins` swept on one opener, forward and then
    /// in reverse, each pin's answer next to the standalone scan under
    /// `pins + (row, j)`, and the base answer next to the plain scan.
    /// `seen` reduces a result to what must match: its bits in `f64`, the
    /// result itself in the exact semirings. Returns the rows swept.
    fn check_sweep<S, M, T>(
        ds: &IncompleteDataset,
        idx: &SimilarityIndex,
        pins: &Pins,
        k: usize,
        use_mc: bool,
        mass_under: impl Fn(&Pins) -> M,
        seen: impl Fn(&Q2Result<S>) -> T,
    ) -> Vec<usize>
    where
        S: CountSemiring,
        M: MassModel<S> + Clone,
        T: PartialEq + std::fmt::Debug,
    {
        let cfg = CpConfig::new(k);
        let mut sweep =
            PinSweep::open(ds, idx, pins, cfg.k_eff(ds.len()), mass_under(pins), use_mc);
        let rows: Vec<usize> = (0..ds.len())
            .filter(|&r| pins.pinned(r).is_none())
            .collect();
        let mut scratch = pins.clone();
        let mut forward = Vec::new();
        for &r in &rows {
            let total = scratch.with_pin(r, 0, |p| mass_under(p).total());
            let swept = sweep.pinned(r, &total);
            assert_eq!(swept.len(), ds.set_size(r));
            for (j, got) in swept.iter().enumerate() {
                let want =
                    scratch.with_pin(r, j, |p| scan_tree(ds, &cfg, idx, p, mass_under(p), use_mc));
                assert_eq!(seen(got), seen(&want), "row {r} pin {j} mc {use_mc}");
            }
            forward.push(swept.iter().map(&seen).collect::<Vec<T>>());
        }
        let plain = scan_tree(ds, &cfg, idx, pins, mass_under(pins), use_mc);
        assert_eq!(seen(&sweep.base()), seen(&plain), "base mc {use_mc}");
        // the restore is exact: the same opener answers again, in reverse
        for (&r, want) in rows.iter().zip(&forward).rev() {
            let total = scratch.with_pin(r, 0, |p| mass_under(p).total());
            let again: Vec<T> = sweep.pinned(r, &total).iter().map(&seen).collect();
            assert_eq!(&again, want, "row {r} swept again mc {use_mc}");
        }
        rows
    }

    fn f64_bits(r: &Q2Result<f64>) -> Vec<u64> {
        r.counts
            .iter()
            .chain([&r.total])
            .map(|c| c.to_bits())
            .collect()
    }

    #[test]
    fn sweep_of_rows_straddling_tau_is_every_standalone_scan() {
        let k = 3;
        let (ds, t, pins) = large_world_case(1);
        let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &t);
        // rows with candidates both below τ and in the tail
        let opened = TreeScan::<f64, _>::open(&ds, &idx, &pins, k, UniformMass::new(&ds, &pins));
        let straddling = (0..ds.len())
            .filter(|&r| {
                let in_tail = opened.tail.iter().filter(|key| key.set() == r).count();
                pins.pinned(r).is_none() && in_tail > 0 && in_tail < ds.set_size(r)
            })
            .count();
        assert!(straddling > 0, "no row straddles τ");
        let uniform = |p: &Pins| UniformMass::new(&ds, p);
        // uniform masses over 4 candidates are dyadic, so f64 products are
        // exact there; non-dyadic priors make any change of grouping show
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let weights: Vec<Vec<f64>> = (0..ds.len())
            .map(|i| {
                let w: Vec<f64> = (0..ds.set_size(i))
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % 1000 + 1) as f64
                    })
                    .collect();
                let sum: f64 = w.iter().sum();
                w.iter().map(|x| x / sum).collect()
            })
            .collect();
        let weighted = |p: &Pins| WeightedMass::new(&ds, p, weights.clone());
        for use_mc in [false, true] {
            check_sweep(&ds, &idx, &pins, k, use_mc, uniform, f64_bits);
            check_sweep(&ds, &idx, &pins, k, use_mc, weighted, f64_bits);
        }
        check_sweep(
            &ds,
            &idx,
            &pins,
            k,
            false,
            uniform,
            |r: &Q2Result<BigUint>| r.clone(),
        );
    }

    /// Every set has one candidate near the test point and two anywhere, so
    /// near the top of the order — where the supports that decide the
    /// answer sit — nearly every set straddles the boundary and the label
    /// polynomials are dense: a product grouped differently from the
    /// standalone scan's (say, `root()` for the swept row's own event)
    /// shows in the `f64` bits. 48 sets of 3 candidates in 1-d, |Y| = 2,
    /// uniform and non-dyadic prior masses.
    #[test]
    fn sweep_of_wide_rows_is_every_standalone_scan() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut examples = Vec::new();
        let mut weights = Vec::new();
        for _ in 0..48 {
            let near = 450 + next(100);
            let candidates = [near, next(1000), next(1000)]
                .into_iter()
                .map(|x| vec![x as f64])
                .collect();
            examples.push(IncompleteExample::incomplete(candidates, next(2) as usize));
            let w: Vec<f64> = (0..3).map(|_| (next(1000) + 1) as f64).collect();
            let sum: f64 = w.iter().sum();
            weights.push(w.iter().map(|x| x / sum).collect::<Vec<f64>>());
        }
        let ds = IncompleteDataset::new(examples, 2).unwrap();
        let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &[500.0]);
        let pins = Pins::from_pairs(ds.len(), &[(3, 1), (17, 0)]);
        let uniform = |p: &Pins| UniformMass::new(&ds, p);
        let weighted = |p: &Pins| WeightedMass::new(&ds, p, weights.clone());
        for k in [3, 5] {
            for use_mc in [false, true] {
                check_sweep(&ds, &idx, &pins, k, use_mc, uniform, f64_bits);
                check_sweep(&ds, &idx, &pins, k, use_mc, weighted, f64_bits);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn pin_sweep_is_every_standalone_pinned_scan(
            (ds, t, k, pins, weights) in arb_scan_case()
        ) {
            let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &t);
            for use_mc in [false, true] {
                let uniform = |p: &Pins| UniformMass::new(&ds, p);
                check_sweep(&ds, &idx, &pins, k, use_mc, uniform, f64_bits);
                check_sweep(&ds, &idx, &pins, k, use_mc, uniform, |r: &Q2Result<u128>| r.clone());
                check_sweep(&ds, &idx, &pins, k, use_mc, uniform, |r: &Q2Result<BigUint>| r.clone());
                check_sweep(&ds, &idx, &pins, k, use_mc, uniform, |r: &Q2Result<Possibility>| r.clone());
                let weighted = |p: &Pins| WeightedMass::new(&ds, p, weights.clone());
                check_sweep(&ds, &idx, &pins, k, use_mc, weighted, f64_bits);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn opener_tail_is_the_full_order_from_tau(
            (ds, t, k, pins, weights) in arb_scan_case()
        ) {
            let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &t);
            let start = zero_prefix_len_by_rank(&ds, &idx, &pins, k);
            let allowed = |&(i, j): &(u32, u32)| pins.allows(i as usize, j as usize);
            let expected: Vec<(usize, usize)> = idx.order()[start..]
                .iter()
                .copied()
                .filter(allowed)
                .map(|(i, j)| (i as usize, j as usize))
                .collect();
            let mut mass = WeightedMass::new(&ds, &pins, weights);
            let opened = TreeScan::<f64, _>::open(&ds, &idx, &pins, k, mass.clone());
            for (loaded, nodes, depth) in tree_storage(&opened.trees) {
                prop_assert!(nodes <= loaded * (depth + 1));
            }
            let tail: Vec<(usize, usize)> =
                opened.tail.iter().map(|key| (key.set(), key.cand())).collect();
            prop_assert_eq!(tail, expected);
            for key in &opened.tail {
                prop_assert_eq!(key.sim().to_bits(), idx.sim(key.set(), key.cand()).to_bits());
            }
            // below τ the masses advance exactly as the full walk's do
            for (i, j) in idx.order()[..start].iter().copied().filter(allowed) {
                mass.advance(i as usize, j as usize);
            }
            for i in 0..ds.len() {
                prop_assert_eq!(opened.mass.seen(i).to_bits(), mass.seen(i).to_bits());
                prop_assert_eq!(opened.mass.unseen(i).to_bits(), mass.unseen(i).to_bits());
            }
        }

        #[test]
        fn zero_prefix_scan_is_bit_identical_to_the_full_walk(
            (ds, t, k, pins, weights) in arb_scan_case()
        ) {
            let cfg = CpConfig::new(k);
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            for use_mc in [false, true] {
                let (fast, full) = both_scans::<u128>(&ds, &cfg, &idx, &pins, use_mc);
                prop_assert_eq!(&fast.counts, &full.counts);
                prop_assert_eq!(fast.total, full.total);
                let (fast, full) = both_scans::<BigUint>(&ds, &cfg, &idx, &pins, use_mc);
                prop_assert_eq!(&fast.counts, &full.counts);
                let (fast, full) = both_scans::<Possibility>(&ds, &cfg, &idx, &pins, use_mc);
                prop_assert_eq!(&fast.counts, &full.counts);
                let (fast, full) = both_scans::<ScaledF64>(&ds, &cfg, &idx, &pins, use_mc);
                prop_assert!(fast.counts == full.counts);
                let bits = |r: &Q2Result<f64>| r.counts.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                let (fast, full) = both_scans::<f64>(&ds, &cfg, &idx, &pins, use_mc);
                prop_assert_eq!(bits(&fast), bits(&full));
                // non-uniform priors: the mass model behind `q2_weighted`
                let mass = WeightedMass::new(&ds, &pins, weights.clone());
                let fast = scan_tree(&ds, &cfg, &idx, &pins, mass.clone(), use_mc);
                let full = scan_tree_full_walk(&ds, &cfg, &idx, &pins, mass, use_mc);
                prop_assert_eq!(bits(&fast), bits(&full));
            }
        }

        #[test]
        fn tree_matches_naive_ss_exact((ds, t, k) in arb_instance()) {
            let cfg = CpConfig::new(k);
            let pins = Pins::none(ds.len());
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            let naive = q2_sortscan_with_index::<u128>(&ds, &cfg, &idx, &pins);
            let tree = q2_sortscan_tree_with_index::<u128>(&ds, &cfg, &idx, &pins);
            prop_assert_eq!(&tree.counts, &naive.counts);
            prop_assert_eq!(tree.total, naive.total);
        }

        #[test]
        fn tree_matches_naive_under_pins((ds, t, k) in arb_instance()) {
            let cfg = CpConfig::new(k);
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            if let Some(&i) = ds.dirty_indices().first() {
                for j in 0..ds.set_size(i) {
                    let pins = Pins::single(ds.len(), i, j);
                    let naive = q2_sortscan_with_index::<u128>(&ds, &cfg, &idx, &pins);
                    let tree = q2_sortscan_tree_with_index::<u128>(&ds, &cfg, &idx, &pins);
                    prop_assert_eq!(&tree.counts, &naive.counts);
                }
            }
        }

        #[test]
        fn multiclass_accumulator_matches_tally_enumeration((ds, t, k) in arb_instance()) {
            let cfg = CpConfig::new(k);
            let pins = Pins::none(ds.len());
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            let gamma = q2_sortscan_tree_with_index::<u128>(&ds, &cfg, &idx, &pins);
            let mc = q2_sortscan_multiclass_with_index::<u128>(&ds, &cfg, &idx, &pins);
            prop_assert_eq!(&mc.counts, &gamma.counts);
            prop_assert_eq!(mc.total, gamma.total);
        }

        #[test]
        fn semirings_agree((ds, t, k) in arb_instance()) {
            let cfg = CpConfig::new(k);
            let pins = Pins::none(ds.len());
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            let exact = q2_sortscan_tree_with_index::<u128>(&ds, &cfg, &idx, &pins);
            let big = q2_sortscan_tree_with_index::<BigUint>(&ds, &cfg, &idx, &pins);
            let scaled = q2_sortscan_tree_with_index::<ScaledF64>(&ds, &cfg, &idx, &pins);
            let prob = q2_sortscan_tree_with_index::<f64>(&ds, &cfg, &idx, &pins);
            let poss = q2_sortscan_tree_with_index::<Possibility>(&ds, &cfg, &idx, &pins);
            for l in 0..ds.n_labels() {
                prop_assert_eq!(Some(exact.counts[l]), big.counts[l].to_u128());
                let rel = (scaled.counts[l].to_f64() - exact.counts[l] as f64).abs()
                    / (exact.counts[l] as f64).max(1.0);
                prop_assert!(rel < 1e-9);
                let p = exact.counts[l] as f64 / exact.total as f64;
                prop_assert!((prob.counts[l] - p).abs() < 1e-9);
                prop_assert_eq!(poss.counts[l].0, exact.counts[l] > 0);
            }
        }
    }
}
