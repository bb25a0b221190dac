//! The partition-parallel SortScan: per-shard scan capture plus the
//! coordinator's merge of the captured streams.
//!
//! One `ShardScan` owns everything local to a shard: the shard's
//! similarity index for the test point, its pin mask, its [`UniformMass`]
//! tallies and its per-label [`TallyTree`]s. A shard runs it to exhaustion
//! and records every event in one [`ShardStream`]
//! ([`ShardStream::capture`]); the coordinator ([`merged_scan_sources`])
//! never sees candidates or similarities in bulk — it merges the recorded
//! streams one boundary event at a time and combines the shards' compact
//! [`ShardFactors`] summaries:
//!
//! 1. each stream exposes its next not-yet-merged event (similarity +
//!    global row id); the coordinator picks the global minimum under the
//!    same `(similarity, set, candidate)` total order the single-process
//!    scan sorts by, so the merged stream *is* the global scan order;
//! 2. at capture, the owning shard advanced past that event: one mass tally
//!    bump, one tree-leaf update (`O(K² log N_s)`), exactly as in the
//!    single-process SS-DC scan;
//! 3. the event carries the owner's factors with the boundary set excluded
//!    from its own label; the coordinator merges all shards' factors
//!    (associative per-label polynomial products, `O(S · |Y| · K²)`) and
//!    feeds the merged polynomials to the ordinary support accumulator.
//!
//! Because the label-support polynomial of the full dataset factorizes over
//! any partition of its candidate sets, the merged counts are *exactly* the
//! single-process counts — in every semiring (the property tests pin this
//! down in `u128`, where equality is bit-for-bit).
//!
//! ## Each shard starts at its own zero-prefix bound
//!
//! A shard opens its scan at `τ_s`, the K-th largest key of a set's lowest
//! allowed candidate over the shard's **own** sets under the **global** K
//! (`cp_core::ss_tree::TreeScan::open`, the in-process scan's opener; `0`
//! when the shard holds fewer than K sets). No coordinator round trip is
//! needed: at any merged boundary keyed before shard `s`'s `τ_s`, at least
//! K of shard `s`'s sets have zero out-mass, so the merged support is an
//! exact zero — with the shard's true factors there and with its factors at
//! `τ_s` alike, since the same K sets are still unseen at `τ_s`. From
//! `τ_s` on the shard's factors are exact. So a shard advances its masses
//! over its allowed candidates below `τ_s`, builds its trees there once,
//! and records only the events at or after `τ_s` — sorted on their own,
//! never the shard's whole index; its opening factors are its state at
//! `τ_s`.
//! The merged counts stay bit-identical to a walk from the first candidate
//! in every semiring (the full-walk proptests below pin this down).
//!
//! In the exact semirings the opener folds a shard's frozen sets into one
//! scalar per label ([`TreeScan::frozen`]) instead of loading them as tree
//! leaves; the scan multiplies that scalar into every polynomial it records,
//! so its factors and events are exactly those of the unfolded trees.

use cp_core::mass::{merge_totals, MassModel, UniformMass};
use cp_core::poly::TallyTree;
use cp_core::queries::Q2Algorithm;
use cp_core::ss_mc::accumulate_supports_mc;
use cp_core::ss_tree::{note_events_scanned, use_multiclass_accumulator, Supports, TreeScan};
use cp_core::tally::{accumulate_supports, compositions};
use cp_core::{
    CandKey, CpConfig, DatasetShard, ExtremeSummary, Pins, Q2Result, ShardFactors, SimilarityIndex,
};
use cp_knn::{Kernel, Label};
use cp_numeric::{CountSemiring, Possibility};
use std::borrow::Borrow;
use std::cmp::Ordering;

/// One shard's scan state for one test point: local similarity order, local
/// mass tallies, per-label tally trees over the shard's candidate sets.
///
/// Dropping a scan adds the events it processed to
/// `core.ss.events_scanned` (opening adds its zero prefix to
/// `core.ss.events_skipped`), once per scan.
#[derive(Debug)]
pub(crate) struct ShardScan<'a, S> {
    shard: &'a DatasetShard,
    mass: UniformMass,
    trees: Vec<TallyTree<S>>,
    /// Per label, the product of the sets folded out of its tree.
    frozen: Vec<S>,
    leaf_pos: Vec<usize>,
    /// The events at or after `τ_s`, ascending (see [`TreeScan::tail`]).
    tail: Vec<CandKey>,
    cursor: usize,
    /// The local set a swept scan ([`ShardScan::swept`]) holds at the
    /// identity.
    held: Option<usize>,
}

impl<'a, S: CountSemiring> ShardScan<'a, S> {
    /// Open a scan at the shard-local zero-prefix bound `τ_s`: masses
    /// advanced over every allowed candidate below `τ_s`, trees built
    /// there, and the cursor on the first allowed candidate at or after
    /// `τ_s` (see [`TreeScan::open`]). Below `τ_s` every merged support is
    /// an exact zero, so the merged counts equal those of a walk from the
    /// first candidate, bit for bit.
    ///
    /// `idx` must be the similarity index of the *shard's* dataset for the
    /// test point, and `pins` the shard-local restriction of the global pin
    /// mask (see [`DatasetShard::local_pins`]); `k` is the **global**
    /// effective K.
    ///
    /// # Panics
    /// Panics if the pin mask does not validate against the shard dataset.
    fn new(shard: &'a DatasetShard, idx: &'a SimilarityIndex, pins: &'a Pins, k: usize) -> Self {
        let ds = shard.dataset();
        // the mass model indexes the mask by set before `open` validates it
        assert_eq!(pins.len(), ds.len(), "pin mask length mismatch");
        let opened = TreeScan::open(ds, idx, pins, k, UniformMass::new(ds, pins));
        Self::at(shard, opened)
    }

    /// The shard's half of a merged pin sweep over the unpinned local row
    /// `local_row`: [`ShardScan::new`]'s opening at the base `τ_s`,
    /// unfolded, with the row's leaf held at the identity for the whole
    /// scan ([`TreeScan::open_swept`]). The row's own candidates at or
    /// after `τ_s` stay events, but advancing over one leaves the row's
    /// mass and leaf alone: its payload is the row's label polynomial with
    /// the row excluded and boundary mass `one` (a pinned set carries its
    /// whole mass on its candidate), which is what the standalone scan
    /// under that pin presents at its own event. See
    /// [`merged_sweep_sources`] for why one such scan answers every pin.
    ///
    /// # Panics
    /// Panics if the pin mask does not validate against the shard dataset,
    /// or if `local_row` is out of range or pinned.
    fn swept(
        shard: &'a DatasetShard,
        idx: &'a SimilarityIndex,
        pins: &'a Pins,
        k: usize,
        local_row: usize,
    ) -> Self {
        let ds = shard.dataset();
        assert_eq!(pins.len(), ds.len(), "pin mask length mismatch");
        let mass = UniformMass::new(ds, pins);
        let opened = TreeScan::open_swept(ds, idx, pins, k, mass, local_row);
        let mut scan = Self::at(shard, opened);
        scan.held = Some(local_row);
        scan
    }

    /// The walk the `τ_s` opening replaces: trees at `α = 0`, cursor on the
    /// first candidate — the bit-identity oracle of [`ShardScan::new`].
    #[cfg(test)]
    pub(crate) fn full_walk(
        shard: &'a DatasetShard,
        idx: &'a SimilarityIndex,
        pins: &'a Pins,
        k: usize,
    ) -> Self {
        let ds = shard.dataset();
        pins.validate(ds);
        let mass = UniformMass::new(ds, pins);
        let mut leaf_pos = vec![0usize; ds.len()];
        let mut label_counts = vec![0usize; ds.n_labels()];
        for (i, pos) in leaf_pos.iter_mut().enumerate() {
            let l = ds.label(i);
            *pos = label_counts[l];
            label_counts[l] += 1;
        }
        let mut trees: Vec<TallyTree<S>> =
            label_counts.iter().map(|&c| TallyTree::new(c, k)).collect();
        for (i, &pos) in leaf_pos.iter().enumerate() {
            trees[ds.label(i)].set_leaf(pos, mass.seen(i), mass.unseen(i));
        }
        let tail = idx
            .order()
            .iter()
            .map(|&(i, j)| (i as usize, j as usize))
            .filter(|&(i, j)| pins.allows(i, j))
            .map(|(i, j)| idx.key(i, j))
            .collect();
        let opened = TreeScan {
            mass,
            trees,
            frozen: vec![S::one(); ds.n_labels()],
            leaf_pos,
            tail,
        };
        Self::at(shard, opened)
    }

    fn at(shard: &'a DatasetShard, opened: TreeScan<S, UniformMass>) -> Self {
        let TreeScan {
            mass,
            trees,
            frozen,
            leaf_pos,
            tail,
        } = opened;
        ShardScan {
            shard,
            mass,
            trees,
            frozen,
            leaf_pos,
            tail,
            cursor: 0,
            held: None,
        }
    }

    /// The next boundary event, if any: `(similarity, global row, candidate)`
    /// — the key the coordinator merges shard streams by.
    fn peek(&self) -> Option<(f64, usize, u32)> {
        self.tail.get(self.cursor).map(|key| {
            (
                key.sim(),
                self.shard.global_row(key.set()),
                key.cand() as u32,
            )
        })
    }

    /// Process the next boundary event: bump the owning set's tally, refresh
    /// its tree leaf, move on. Returns `(local set, candidate)`.
    ///
    /// # Panics
    /// Panics if the shard stream is exhausted.
    fn advance(&mut self) -> (usize, u32) {
        let key = self.tail[self.cursor];
        let (i, j) = (key.set(), key.cand());
        if self.held != Some(i) {
            MassModel::<S>::advance(&mut self.mass, i, j);
            let label = self.shard.dataset().label(i);
            self.trees[label].set_leaf(self.leaf_pos[i], self.mass.seen(i), self.mass.unseen(i));
        }
        self.cursor += 1;
        (i, j as u32)
    }

    /// `poly`, a polynomial of `label`'s tree, times the label's folded
    /// scalar: the polynomial over all of the label's sets.
    fn unfold(&self, label: usize, mut poly: Vec<S>) -> Vec<S> {
        let scale = &self.frozen[label];
        if *scale != S::one() {
            poly.iter_mut().for_each(|c| c.mul_assign(scale));
        }
        poly
    }

    /// This shard's current per-label partial factors (tree roots) — the
    /// compact summary it exchanges with the coordinator.
    fn factors(&self) -> ShardFactors<S> {
        ShardFactors::from_polys(
            (0..self.trees.len()).map(|l| self.label_poly(l)).collect(),
            self.trees[0].k(),
        )
    }

    /// The current partial polynomial of one label.
    fn label_poly(&self, label: usize) -> Vec<S> {
        self.unfold(label, self.trees[label].root().to_vec())
    }

    /// The boundary label's partial polynomial with `local_set` excluded —
    /// how the boundary set is removed from its own label's support.
    fn excluding_poly(&self, label: Label, local_set: usize) -> Vec<S> {
        self.unfold(label, self.trees[label].excluding(self.leaf_pos[local_set]))
    }

    /// Mass of the boundary set choosing exactly candidate `cand`.
    /// (Uniform mass ignores the candidate, but threading the real one
    /// keeps this correct for any future non-uniform [`MassModel`].)
    fn boundary_mass(&self, local_set: usize, cand: u32) -> S {
        if self.held == Some(local_set) {
            return S::one();
        }
        self.mass.boundary(local_set, cand as usize)
    }

    /// This shard's total world mass (`∏ M_i` over its own sets).
    fn total(&self) -> S {
        self.mass.total()
    }
}

impl<S> Drop for ShardScan<'_, S> {
    fn drop(&mut self) {
        note_events_scanned(self.cursor as u64);
    }
}

/// The factor payload of one boundary event, as the coordinator's merge
/// loop consumes it: which label the boundary set belongs to, the owning
/// shard's refreshed partial polynomial for that label, the same polynomial
/// with the boundary set excluded, and the boundary candidate's own mass.
///
/// This is everything that crosses the shard boundary per event — `O(K)`
/// semiring values; a shard's whole event stream travels as one
/// [`ShardStream`] message.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundaryEvent<S> {
    /// Label of the boundary candidate's set.
    pub label: Label,
    /// The owning shard's partial polynomial for `label` *after* this event.
    pub updated_poly: Vec<S>,
    /// The `label` polynomial with the boundary set excluded.
    pub excluding_poly: Vec<S>,
    /// Mass of the boundary set choosing exactly the boundary candidate.
    pub boundary_mass: S,
}

/// One entry of a batched shard stream: the global merge key plus the factor
/// payload of the event.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardStreamEvent<S> {
    /// Boundary similarity (the primary merge key).
    pub sim: f64,
    /// Global row id of the boundary set.
    pub row: usize,
    /// Boundary candidate index within its set.
    pub cand: u32,
    /// The factor payload.
    pub event: BoundaryEvent<S>,
}

/// A shard's **whole** locally-sorted boundary-event stream with factor
/// deltas, in one value — the batched exchange unit of the RPC layer: one
/// scan request yields one `ShardStream` message instead of one round-trip
/// per boundary event.
///
/// Captured by running the shard's scan to exhaustion
/// ([`ShardStream::capture`]); replayed through [`StreamCursor`]s, which
/// [`merged_scan_sources`] merges. A stream can be replayed any number of
/// times (the coordinator reuses every non-owner shard's stream across all
/// of a selection step's candidate pins).
///
/// The events start at the shard's zero-prefix bound `τ_s` (see the module
/// docs), so `initial` is the shard's state at `τ_s`, not at the first
/// candidate: sets whose candidates all sit below `τ_s` enter it with
/// out-mass only.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardStream<S> {
    /// Per-label factors before the first recorded event: the shard's state
    /// at its zero-prefix bound `τ_s`.
    pub initial: ShardFactors<S>,
    /// The shard's total world mass.
    pub total: S,
    /// The locally-sorted boundary events.
    pub events: Vec<ShardStreamEvent<S>>,
}

impl<S: CountSemiring> ShardStream<S> {
    /// Open a scan of `shard` at its zero-prefix bound `τ_s` and drain it into
    /// its batched stream (the shard-server side of a scan request). The
    /// recorded events are those at or after `τ_s`; every earlier event
    /// would contribute an exact zero.
    ///
    /// `idx` must be the similarity index of the *shard's* dataset for the
    /// test point, and `pins` the shard-local restriction of the global pin
    /// mask (see [`DatasetShard::local_pins`]); `k` is the **global**
    /// effective K.
    ///
    /// # Panics
    /// Panics if the pin mask does not validate against the shard dataset.
    pub fn capture(shard: &DatasetShard, idx: &SimilarityIndex, pins: &Pins, k: usize) -> Self {
        Self::drain(ShardScan::new(shard, idx, pins, k))
    }

    /// Record an opened scan's factors and every remaining event.
    fn drain(mut scan: ShardScan<'_, S>) -> Self {
        let initial = scan.factors();
        let total = scan.total();
        let mut events = Vec::new();
        while let Some((sim, row, cand)) = scan.peek() {
            let (local_set, _) = scan.advance();
            let label = scan.shard.dataset().label(local_set);
            events.push(ShardStreamEvent {
                sim,
                row,
                cand,
                event: BoundaryEvent {
                    label,
                    updated_poly: scan.label_poly(label),
                    excluding_poly: scan.excluding_poly(label, local_set),
                    boundary_mass: scan.boundary_mass(local_set, cand),
                },
            });
        }
        ShardStream {
            initial,
            total,
            events,
        }
    }

    /// A replay cursor positioned before the first event.
    pub fn cursor(&self) -> StreamCursor<'_, S> {
        StreamCursor {
            stream: self,
            pos: 0,
        }
    }

    /// Slot budget K of the recorded factors.
    pub fn k(&self) -> usize {
        self.initial.k()
    }

    /// Number of labels covered.
    pub fn n_labels(&self) -> usize {
        self.initial.n_labels()
    }
}

/// The owner shard's answer for one row of a merged pin sweep: its swept
/// stream plus what the coordinator needs to give
/// every pin of the row its counts — the row's candidate similarities and
/// the shard's world total under the row's pin.
#[derive(Clone, Debug, PartialEq)]
pub struct SweptStream<S> {
    /// The shard's stream at its base `τ_s` with the swept row held at the
    /// identity; the row's own candidates are events with boundary mass
    /// `one` that leave the factors unchanged.
    pub stream: ShardStream<S>,
    /// Global id of the swept row.
    pub row: usize,
    /// Similarity of each of the row's candidates, in candidate order.
    pub sims: Vec<f64>,
    /// The shard's total world mass with the row pinned: the same for
    /// every candidate, since a pinned set's mass is `one`.
    pub pinned_total: S,
}

impl<S: CountSemiring> SweptStream<S> {
    /// Drain the shard's swept scan over the unpinned `local_row` (the
    /// shard-server side of a swept scan request): [`ShardStream::capture`]'s
    /// opening at the base `τ_s`, unfolded, with the row's leaf held at the
    /// identity for the whole scan (`cp_core::ss_tree::TreeScan::open_swept`).
    /// The other arguments are [`ShardStream::capture`]'s.
    ///
    /// # Panics
    /// Panics if the pin mask does not validate against the shard dataset,
    /// or if `local_row` is out of range or pinned.
    pub fn capture(
        shard: &DatasetShard,
        idx: &SimilarityIndex,
        pins: &Pins,
        k: usize,
        local_row: usize,
    ) -> Self {
        let stream = ShardStream::drain(ShardScan::swept(shard, idx, pins, k, local_row));
        let ds = shard.dataset();
        let mut pinned = pins.clone();
        pinned.pin(local_row, 0);
        SweptStream {
            stream,
            row: shard.global_row(local_row),
            sims: (0..ds.set_size(local_row))
                .map(|j| idx.key(local_row, j).sim())
                .collect(),
            pinned_total: MassModel::<S>::total(&UniformMass::new(ds, &pinned)),
        }
    }

    /// The swept row's merge keys, ascending: pin `j` is the key whose
    /// [`CandKey::cand`] is `j`.
    fn keys(&self) -> Vec<CandKey> {
        let mut keys: Vec<CandKey> = self
            .sims
            .iter()
            .enumerate()
            .map(|(j, &sim)| CandKey::new(sim, self.row as u32, j as u32))
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// A replay position inside a [`ShardStream`] — what the merge loops
/// ([`merged_scan_sources`], [`merged_sweep_sources`]) advance.
#[derive(Clone, Debug)]
pub struct StreamCursor<'a, S> {
    stream: &'a ShardStream<S>,
    pos: usize,
}

impl<'a, S> StreamCursor<'a, S> {
    /// The next recorded event, if any.
    fn peek(&self) -> Option<&'a ShardStreamEvent<S>> {
        self.stream.events.get(self.pos)
    }

    /// Consume the next recorded event.
    ///
    /// # Panics
    /// Panics if the stream is exhausted.
    fn advance(&mut self) -> &'a ShardStreamEvent<S> {
        let stream: &'a ShardStream<S> = self.stream;
        self.pos += 1;
        &stream.events[self.pos - 1]
    }
}

/// Check that `shards` is a contiguous partition starting at row zero and
/// that the per-shard slices line up; returns the total row count.
fn check_shards<I, P>(shards: &[DatasetShard], indexes: &[I], pins: &[P]) -> usize {
    assert!(!shards.is_empty(), "need at least one shard");
    assert_eq!(shards.len(), indexes.len(), "one index per shard");
    assert_eq!(shards.len(), pins.len(), "one pin mask per shard");
    let mut next = 0;
    for sh in shards {
        assert_eq!(sh.start(), next, "shards must be a contiguous partition");
        next = sh.end();
    }
    next
}

/// Build one similarity index per shard for a test point — the per-shard
/// `O(N_s M)` build, independent across shards.
pub fn build_shard_indexes(
    shards: &[DatasetShard],
    kernel: Kernel,
    t: &[f64],
) -> Vec<SimilarityIndex> {
    shards
        .iter()
        .map(|sh| SimilarityIndex::build(sh.dataset(), kernel, t))
        .collect()
}

/// Restrict a global pin mask to every shard (local indexing).
pub fn local_pins(shards: &[DatasetShard], global: &Pins) -> Vec<Pins> {
    shards.iter().map(|sh| sh.local_pins(global)).collect()
}

/// The merge loop over shard stream cursors — the coordinator's side of a
/// scan: pick the globally next boundary event under the
/// `(similarity, row, candidate)` total order, refresh the owner's cached
/// factor summary, merge all shards' factors with the boundary set excluded
/// from its own label, and accumulate supports. `force_mc` overrides the
/// tally-enumeration/multi-class accumulator auto-dispatch; `stop` is polled
/// after each boundary event and may cut the scan short once the caller's
/// question is already answered (the counts are then partial, the total is
/// still exact).
pub fn merged_scan_sources<S: CountSemiring>(
    sources: &mut [StreamCursor<'_, S>],
    n_labels: usize,
    k: usize,
    force_mc: Option<bool>,
    stop: impl Fn(&[S]) -> bool,
) -> Q2Result<S> {
    assert!(!sources.is_empty(), "need at least one shard stream");
    let use_mc = force_mc.unwrap_or_else(|| use_multiclass_accumulator(n_labels, k));
    let comps = if use_mc {
        Vec::new()
    } else {
        compositions(n_labels, k)
    };

    // cached per-shard factor summaries; only the owner's entry changes per
    // boundary event
    let mut factors = opening_factors(sources);
    let mut counts = vec![S::zero(); n_labels];

    while let Some(s) = next_source(sources) {
        let ev = &sources[s].advance().event;
        let merged = merge_event(&mut factors, s, ev);
        let polys = merged.poly_refs();
        if use_mc {
            accumulate_supports_mc(k, ev.label, &ev.boundary_mass, &polys, &mut counts);
        } else {
            accumulate_supports(&comps, ev.label, &ev.boundary_mass, &polys, &mut counts);
        }
        if stop(&counts) {
            break;
        }
    }

    Q2Result {
        counts,
        total: merge_totals(sources.iter().map(|c| c.stream.total.clone())),
    }
}

/// Every source's factors before its first event.
fn opening_factors<S: CountSemiring>(sources: &[StreamCursor<'_, S>]) -> Vec<ShardFactors<S>> {
    sources.iter().map(|c| c.stream.initial.clone()).collect()
}

/// The source owning the globally next boundary candidate under the exact
/// `(similarity, row, candidate)` order the single scan sorts by; `None`
/// once every source is exhausted.
#[inline]
fn next_source<S>(sources: &[StreamCursor<'_, S>]) -> Option<usize> {
    let mut owner: Option<(usize, &ShardStreamEvent<S>)> = None;
    for (s, src) in sources.iter().enumerate() {
        if let Some(ev) = src.peek() {
            let better = match owner {
                None => true,
                Some((_, best)) => match ev.sim.total_cmp(&best.sim) {
                    Ordering::Less => true,
                    Ordering::Equal => (ev.row, ev.cand) < (best.row, best.cand),
                    Ordering::Greater => false,
                },
            };
            if better {
                owner = Some((s, ev));
            }
        }
    }
    owner.map(|(s, _)| s)
}

/// Record source `s`'s refreshed polynomial for the event's label in the
/// cached `factors`, and return the merged factors one boundary event of
/// `s` reads: `s`'s factors with the boundary set excluded from its own
/// label, times every other source's, in source order.
#[inline]
fn merge_event<S: CountSemiring>(
    factors: &mut [ShardFactors<S>],
    s: usize,
    ev: &BoundaryEvent<S>,
) -> ShardFactors<S> {
    factors[s].set_poly(ev.label, ev.updated_poly.clone());
    let mut merged = factors[s].with_poly(ev.label, ev.excluding_poly.clone());
    for (u, f) in factors.iter().enumerate() {
        if u != s {
            merged.merge_assign(f);
        }
    }
    merged
}

/// **Every pin of one row from one merged scan** — the sharded twin of
/// [`cp_core::ss_tree::PinSweep::pinned`]. `sources[owner]` replays the
/// stream of `swept`, the owner shard's [`SweptStream`] for a row of label
/// `label`; every other source replays its shard's stream under the base
/// pins. Returns, for each candidate `j` of the row, the Q2 result under
/// the base pins plus `(row, j)`: the merged scan with the owner's stream
/// under that pin ([`merged_scan_sources`]), equal bit for bit in `f64`
/// and by value in the exact semirings.
///
/// Why one merged scan answers every pin:
///
/// * **One opening covers every pin.** Pinning the row can only raise the
///   owner's `τ_s`, so the swept stream, opened at the base `τ_s`, holds
///   every event of every pinned stream. Where a pinned stream has not
///   started yet, at least `K` of the owner's sets are inside the top-K in
///   that pin's worlds, so every support is an exact zero there, from
///   either stream.
/// * **The row's leaf has two states** ([`cp_core::ss_tree`] module docs).
///   The swept stream holds it at the identity. At an event of any other
///   set, pin `j` has the row *out* iff `key(row, j)` lies below the
///   event, and reads the merged polynomials as they are; otherwise the
///   row is *in*, its leaf `0 + 1·z`, and label(row)'s merged polynomial
///   is read shifted up one degree. The merged polynomial is the product
///   of per-shard factors, and a truncated product skips zero coefficients
///   and adds its terms in the same order, so shifting one factor — under
///   any grouping, in the owner's tree or in the merge — shifts the
///   product exactly. Each merged event costs at most two support
///   evaluations, replayed into the pins on each side
///   ([`Supports::add_swept`], the code [`cp_core::ss_tree::PinSweep`]
///   runs).
/// * **The row's own event `(row, j)` counts for pin `j` only**, with
///   boundary mass `one` and label(row)'s polynomial with the row excluded,
///   as in the pinned stream.
///
/// # Panics
/// Panics if `owner` is out of range, on factor shape mismatches, or if
/// an event of the swept row names a candidate it does not have.
pub fn merged_sweep_sources<S: CountSemiring>(
    sources: &mut [StreamCursor<'_, S>],
    owner: usize,
    swept: &SweptStream<S>,
    label: Label,
    n_labels: usize,
    k: usize,
    force_mc: Option<bool>,
) -> Vec<Q2Result<S>> {
    assert!(owner < sources.len(), "owner {owner} out of range");
    let use_mc = force_mc.unwrap_or_else(|| use_multiclass_accumulator(n_labels, k));
    let supports = Supports::new(n_labels, k, use_mc);
    let keys = swept.keys();
    let mut factors = opening_factors(sources);
    let mut counts = vec![vec![S::zero(); n_labels]; keys.len()];
    let (mut terms, mut shifted) = (Vec::new(), Vec::new());

    while let Some(s) = next_source(sources) {
        let e = sources[s].advance();
        let ev = &e.event;
        let merged = merge_event(&mut factors, s, ev);
        let mut polys = merged.poly_refs();
        if s == owner && e.row == swept.row {
            // the row's own candidate is the boundary of its own pin alone
            let counts = &mut counts[e.cand as usize];
            supports.each(ev.label, &ev.boundary_mass, &polys, |w, v| {
                counts[w].add_assign(v)
            });
            continue;
        }
        supports.add_swept(
            ev.label,
            &ev.boundary_mass,
            &mut polys,
            label,
            &keys,
            &CandKey::new(e.sim, e.row as u32, e.cand),
            &mut counts,
            &mut terms,
            &mut shifted,
        );
    }

    let total = merge_totals(sources.iter().enumerate().map(|(s, src)| {
        if s == owner {
            swept.pinned_total.clone()
        } else {
            src.stream.total.clone()
        }
    }));
    counts
        .into_iter()
        .map(|counts| Q2Result {
            counts,
            total: total.clone(),
        })
        .collect()
}

/// Check that a set of shard streams agree on slot budget and label count;
/// returns `(n_labels, k)`.
fn check_streams<S: CountSemiring, T: Borrow<ShardStream<S>>>(streams: &[T]) -> (usize, usize) {
    assert!(!streams.is_empty(), "need at least one shard stream");
    let (n_labels, k) = (streams[0].borrow().n_labels(), streams[0].borrow().k());
    for st in streams {
        assert_eq!(st.borrow().n_labels(), n_labels, "label count mismatch");
        assert_eq!(st.borrow().k(), k, "slot budget mismatch");
    }
    (n_labels, k)
}

/// [`merged_scan_sources`] over a cursor on each of `streams`.
fn merged_streams_until<S, T>(
    streams: &[T],
    force_mc: Option<bool>,
    stop: impl Fn(&[S]) -> bool,
) -> Q2Result<S>
where
    S: CountSemiring,
    T: Borrow<ShardStream<S>>,
{
    let (n_labels, k) = check_streams(streams);
    let mut cursors: Vec<StreamCursor<'_, S>> =
        streams.iter().map(|st| st.borrow().cursor()).collect();
    merged_scan_sources(&mut cursors, n_labels, k, force_mc, stop)
}

/// Capture every shard's batched event stream for one test point — what a
/// fleet of shard servers computes (one stream each) in response to a scan
/// request.
pub fn capture_streams<S, I, P>(
    shards: &[DatasetShard],
    indexes: &[I],
    pins: &[P],
    cfg: &CpConfig,
) -> Vec<ShardStream<S>>
where
    S: CountSemiring,
    I: Borrow<SimilarityIndex>,
    P: Borrow<Pins>,
{
    let n_total = check_shards(shards, indexes, pins);
    let k = cfg.k_eff(n_total);
    shards
        .iter()
        .zip(indexes)
        .zip(pins)
        .map(|((sh, idx), p)| ShardStream::capture(sh, idx.borrow(), p.borrow(), k))
        .collect()
}

/// **Q2 from batched shard streams** — the coordinator's side of the RPC
/// exchange: merge pre-captured (or decoded) per-shard event streams into
/// the exact global counts, equal to the single-process scan's
/// bit-for-bit in exact semirings.
pub fn q2_from_streams<S, T>(streams: &[T]) -> Q2Result<S>
where
    S: CountSemiring,
    T: Borrow<ShardStream<S>>,
{
    merged_streams_until(streams, None, |_| false)
}

/// [`q2_from_streams`] with an explicit algorithm choice.
///
/// Only the SortScan family decomposes over partitions; the selectors
/// without a sharded counterpart **fall back gracefully** to the merged
/// tree scan, which returns the identical exact counts:
///
/// * `Auto` / `SortScanTree` — the merged divide-and-conquer scan;
/// * `SortScanMultiClass` — the merged scan with the label-capped
///   accumulator forced on;
/// * `SortScan` / `BruteForce` — no partition-parallel decomposition exists
///   (brute force enumerates cross-shard worlds; the naive DP rebuilds
///   global state per boundary), so both fall back to the merged tree scan.
pub fn q2_from_streams_with_algorithm<S, T>(streams: &[T], algo: Q2Algorithm) -> Q2Result<S>
where
    S: CountSemiring,
    T: Borrow<ShardStream<S>>,
{
    let force_mc = match algo {
        Q2Algorithm::SortScanMultiClass => Some(true),
        Q2Algorithm::Auto
        | Q2Algorithm::SortScanTree
        | Q2Algorithm::SortScan
        | Q2Algorithm::BruteForce => None,
    };
    merged_streams_until(streams, force_mc, |_| false)
}

/// The certainly-predicted label (if any) from batched `Possibility`-semiring
/// shard streams — exact and overflow-free for any `|Y|`. The merge stops
/// early: once two labels are possible the point is uncertain and
/// possibility bits can only turn on, so the rest of the scan cannot change
/// the answer.
pub fn certain_label_from_streams<T>(streams: &[T]) -> Option<Label>
where
    T: Borrow<ShardStream<Possibility>>,
{
    let uncertain = |counts: &[Possibility]| counts.iter().filter(|c| c.0).count() >= 2;
    merged_streams_until(streams, None, uncertain).certain_label()
}

/// Build one [`ExtremeSummary`] per shard for one test point — the MM twin
/// of [`capture_streams`]: `O(|Y| · K)` entries per shard, independent of
/// shard size, merged by rank at the coordinator.
pub fn extreme_summaries<I, P>(
    shards: &[DatasetShard],
    indexes: &[I],
    pins: &[P],
    cfg: &CpConfig,
) -> Vec<ExtremeSummary>
where
    I: Borrow<SimilarityIndex>,
    P: Borrow<Pins>,
{
    let n_total = check_shards(shards, indexes, pins);
    let k = cfg.k_eff(n_total);
    shards
        .iter()
        .zip(indexes)
        .zip(pins)
        .map(|((sh, idx), p)| ExtremeSummary::build(sh, idx.borrow(), p.borrow(), k))
        .collect()
}

/// **Binary Q1 from per-shard extreme summaries** — the coordinator's side
/// of the MM fast path: fold the summaries with the associative rank merge,
/// then run the cheap two-extreme-worlds check on the merged result. Equal
/// to [`cp_core::mm::certain_label_minmax`] on the unsharded dataset and to
/// the merged `Possibility` scan, bit-for-bit.
///
/// # Panics
/// Panics if `summaries` is empty, on shape mismatches, or when the
/// summaries are not binary (`|Y| = 2` is the proven MM regime).
pub fn certain_label_from_summaries<T>(summaries: &[T]) -> Option<Label>
where
    T: Borrow<ExtremeSummary>,
{
    assert!(!summaries.is_empty(), "need at least one extreme summary");
    let mut merged = summaries[0].borrow().clone();
    for s in &summaries[1..] {
        merged.merge_assign(s.borrow());
    }
    merged.certain_label()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::queries::q2_with_algorithm;
    use cp_core::{IncompleteDataset, IncompleteExample};
    use cp_numeric::{BigUint, ScaledF64};
    use proptest::prelude::*;

    fn figure6() -> (IncompleteDataset, Vec<f64>) {
        let ds = IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![0.0], vec![8.0]], 1),
                IncompleteExample::incomplete(vec![vec![2.0], vec![4.0]], 1),
                IncompleteExample::incomplete(vec![vec![6.0], vec![9.0]], 0),
            ],
            2,
        )
        .unwrap();
        (ds, vec![10.0])
    }

    /// Every shard's captured stream for test point `t` under the global
    /// pin mask `pins`.
    fn streams_for<S: CountSemiring>(
        shards: &[DatasetShard],
        cfg: &CpConfig,
        t: &[f64],
        pins: &Pins,
    ) -> Vec<ShardStream<S>> {
        let indexes = build_shard_indexes(shards, cfg.kernel, t);
        capture_streams(shards, &indexes, &local_pins(shards, pins), cfg)
    }

    #[test]
    fn sharded_counts_match_single_process_for_every_shard_count() {
        let (ds, t) = figure6();
        for k in 1..=3 {
            let cfg = CpConfig::new(k);
            let single = cp_core::q2::<u128>(&ds, &cfg, &t);
            for n_shards in 1..=3 {
                let shards = ds.partition(n_shards);
                let streams = streams_for(&shards, &cfg, &t, &Pins::none(ds.len()));
                let sharded: Q2Result<u128> = q2_from_streams(&streams);
                assert_eq!(sharded.counts, single.counts, "k={k} n_shards={n_shards}");
                assert_eq!(sharded.total, single.total);
                // replays are repeatable: a second pass over the same
                // streams gives the same counts (the coordinator reuses
                // non-owner streams across candidate pins)
                assert_eq!(q2_from_streams(&streams).counts, single.counts);
            }
        }
    }

    #[test]
    fn sharded_scan_respects_global_pins() {
        let (ds, t) = figure6();
        let cfg = CpConfig::new(1);
        for (set, cand) in [(0, 1), (1, 0), (2, 1)] {
            let pins = Pins::single(ds.len(), set, cand);
            let single = cp_core::ss_tree::q2_sortscan_tree::<u128>(&ds, &cfg, &t, &pins);
            for n_shards in [2, 3] {
                let shards = ds.partition(n_shards);
                let sharded: Q2Result<u128> =
                    q2_from_streams(&streams_for(&shards, &cfg, &t, &pins));
                assert_eq!(
                    sharded.counts, single.counts,
                    "pin ({set},{cand}) n_shards={n_shards}"
                );
            }
        }
    }

    #[test]
    fn algorithm_selectors_fall_back_to_identical_counts() {
        let (ds, t) = figure6();
        let cfg = CpConfig::new(2);
        let shards = ds.partition(2);
        let streams: Vec<ShardStream<u128>> = streams_for(&shards, &cfg, &t, &Pins::none(ds.len()));
        let reference = q2_with_algorithm::<u128>(&ds, &cfg, &t, Q2Algorithm::BruteForce);
        for algo in [
            Q2Algorithm::Auto,
            Q2Algorithm::BruteForce,
            Q2Algorithm::SortScan,
            Q2Algorithm::SortScanTree,
            Q2Algorithm::SortScanMultiClass,
        ] {
            let r = q2_from_streams_with_algorithm(&streams, algo);
            assert_eq!(r.counts, reference.counts, "algo={algo:?}");
            assert_eq!(r.total, reference.total);
        }
    }

    #[test]
    fn certain_label_and_probabilities_match_single_process() {
        let (ds, t) = figure6();
        for k in [1, 3] {
            let cfg = CpConfig::new(k);
            let shards = ds.partition(3);
            let none = Pins::none(ds.len());
            assert_eq!(
                certain_label_from_streams(&streams_for(&shards, &cfg, &t, &none)),
                cp_core::certain_label(&ds, &cfg, &t),
                "k={k}"
            );
            let sharded =
                q2_from_streams::<f64, _>(&streams_for(&shards, &cfg, &t, &none)).probabilities();
            let single = cp_core::q2_probabilities(&ds, &cfg, &t);
            for (a, b) in sharded.iter().zip(&single) {
                assert!((a - b).abs() < 1e-12, "k={k}: {sharded:?} vs {single:?}");
            }
        }
    }

    #[test]
    fn summary_path_matches_merged_scan_and_single_process_mm() {
        let (ds, t) = figure6();
        for k in 1..=3 {
            let cfg = CpConfig::new(k);
            let idx = cp_core::SimilarityIndex::build(&ds, cfg.kernel, &t);
            for pins in [
                Pins::none(ds.len()),
                Pins::single(ds.len(), 2, 1),
                Pins::from_pairs(ds.len(), &[(0, 0), (1, 1)]),
            ] {
                let single = cp_core::mm::certain_label_minmax(&ds, &cfg, &idx, &pins);
                for n_shards in 1..=3 {
                    let shards = ds.partition(n_shards);
                    let indexes = build_shard_indexes(&shards, cfg.kernel, &t);
                    let local = local_pins(&shards, &pins);
                    let summaries = extreme_summaries(&shards, &indexes, &local, &cfg);
                    let summarized = certain_label_from_summaries(&summaries);
                    let streams = capture_streams(&shards, &indexes, &local, &cfg);
                    let scanned = certain_label_from_streams(&streams);
                    assert_eq!(summarized, single, "k={k} n_shards={n_shards}");
                    assert_eq!(summarized, scanned, "k={k} n_shards={n_shards}");
                }
            }
        }
    }

    /// Every label-1 set of shard 0 sits below that shard's `τ_s`, and
    /// shard 1 holds no label-1 set: label 1 is in neither stream, and
    /// label 0 is certain.
    #[test]
    fn certain_label_holds_when_a_label_sits_wholly_below_tau_s() {
        // test point 0; shard 0 (rows 0..3) walks farthest-first:
        //   rank 0: (0,0) at -10   rank 2: (1,1) at 2   rank 4: (2,0) at 0.5
        //   rank 1: (0,1) at -9    rank 3: (1,0) at 1
        // f = [0, 2, 4], so K = 2 gives τ_0 = 2: row 0 (label 1) lies wholly
        // in the skipped prefix, and rows 1 and 2 (label 0) always outrank it
        let ds = IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![-10.0], vec![-9.0]], 1),
                IncompleteExample::incomplete(vec![vec![1.0], vec![2.0]], 0),
                IncompleteExample::complete(vec![0.5], 0),
                IncompleteExample::incomplete(vec![vec![3.0], vec![-4.0]], 0),
                IncompleteExample::complete(vec![-0.2], 0),
                IncompleteExample::complete(vec![5.0], 0),
            ],
            2,
        )
        .unwrap();
        let t = [0.0];
        let cfg = CpConfig::new(2);
        let shards = ds.partition(2);
        let indexes = build_shard_indexes(&shards, cfg.kernel, &t);
        let pins = local_pins(&shards, &Pins::none(ds.len()));
        let streams: Vec<ShardStream<Possibility>> =
            capture_streams(&shards, &indexes, &pins, &cfg);
        // shard 0's stream starts at τ_0: row 0's two candidates are gone
        assert_eq!(streams[0].events.len(), 3);
        assert!(streams
            .iter()
            .flat_map(|st| &st.events)
            .all(|e| e.event.label == 0));
        let certain = certain_label_from_streams(&streams);
        assert_eq!(certain, Some(0));
        assert_eq!(certain, cp_core::certain_label(&ds, &cfg, &t));
    }

    /// A merge cut short by its stop predicate leaves partial counts but
    /// the exact world total.
    #[test]
    fn a_stopped_merge_keeps_the_exact_total() {
        let (ds, t) = figure6();
        let cfg = CpConfig::new(1);
        let shards = ds.partition(3);
        let streams: Vec<ShardStream<u128>> = streams_for(&shards, &cfg, &t, &Pins::none(ds.len()));
        let full = q2_from_streams(&streams);
        let stopped = merged_streams_until(&streams, None, |counts: &[u128]| {
            counts.iter().any(|&c| c > 0)
        });
        assert_eq!(stopped.total, full.total);
        assert_eq!(stopped.total, 8);
        assert!(stopped.counts.iter().sum::<u128>() < full.counts.iter().sum::<u128>());
    }

    #[test]
    #[should_panic(expected = "slot budget mismatch")]
    fn mismatched_streams_are_rejected() {
        let (ds, t) = figure6();
        let shards = ds.partition(2);
        let indexes = build_shard_indexes(&shards, Kernel::default(), &t);
        let pins = local_pins(&shards, &Pins::none(ds.len()));
        let a: ShardStream<u128> = ShardStream::capture(&shards[0], &indexes[0], &pins[0], 1);
        let b: ShardStream<u128> = ShardStream::capture(&shards[1], &indexes[1], &pins[1], 2);
        q2_from_streams(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "contiguous partition")]
    fn rejects_non_contiguous_shards() {
        let (ds, t) = figure6();
        let cfg = CpConfig::new(1);
        let shards = ds.partition(2);
        let reversed: Vec<DatasetShard> = shards.into_iter().rev().collect();
        streams_for::<u128>(&reversed, &cfg, &t, &Pins::none(ds.len()));
    }

    /// A `τ_s` bit-identity case: a dataset on a small 1-d grid (exact
    /// similarity ties are common, `grid = 1` makes them dominant), a test
    /// point, K in 1..=5 (often above a shard's row count), random pins,
    /// and a shard count from {1, 2, 3, 7}.
    type ShardCase = (IncompleteDataset, Vec<f64>, usize, Pins, usize);

    fn arb_shard_case() -> impl Strategy<Value = ShardCase> {
        (2usize..=4, 1usize..=14, 1usize..=5, 1i32..=6, 0usize..4).prop_flat_map(
            |(n_labels, n, k, grid, shards)| {
                // (candidate grid points, label, pin choice)
                let example = (
                    proptest::collection::vec(-grid..=grid, 1..=4),
                    0..n_labels,
                    0usize..8,
                );
                (
                    proptest::collection::vec(example, n..=n),
                    -grid..=grid,
                    Just((n_labels, k, [1, 2, 3, 7][shards])),
                )
                    .prop_map(|(rows, t, (n_labels, k, n_shards))| {
                        let mut examples = Vec::new();
                        let mut pins = Vec::new();
                        for (i, (points, label, pin)) in rows.into_iter().enumerate() {
                            // pin roughly a third of the sets to a random candidate
                            if pin < 3 && pin < points.len() {
                                pins.push((i, pin));
                            }
                            let candidates = points.into_iter().map(|g| vec![g as f64]).collect();
                            examples.push(IncompleteExample::incomplete(candidates, label));
                        }
                        let ds = IncompleteDataset::new(examples, n_labels).unwrap();
                        let pins = Pins::from_pairs(ds.len(), &pins);
                        (ds, vec![t as f64], k, pins, n_shards)
                    })
            },
        )
    }

    /// One case's shards, per-shard indexes and local pins, plus the
    /// global K.
    struct Sharded {
        shards: Vec<DatasetShard>,
        indexes: Vec<SimilarityIndex>,
        pins: Vec<Pins>,
        k: usize,
        n_labels: usize,
    }

    impl Sharded {
        fn new(ds: &IncompleteDataset, t: &[f64], k: usize, pins: &Pins, n_shards: usize) -> Self {
            let cfg = CpConfig::new(k);
            let shards = ds.partition(n_shards);
            Sharded {
                indexes: build_shard_indexes(&shards, cfg.kernel, t),
                pins: local_pins(&shards, pins),
                shards,
                k: cfg.k_eff(ds.len()),
                n_labels: ds.n_labels(),
            }
        }

        /// Every shard's scan, opened at `τ_s` or (`full`) at the first
        /// candidate.
        fn scans<S: CountSemiring>(&self, full: bool) -> Vec<ShardScan<'_, S>> {
            (0..self.shards.len())
                .map(|s| {
                    let (sh, idx, p) = (&self.shards[s], &self.indexes[s], &self.pins[s]);
                    if full {
                        ShardScan::full_walk(sh, idx, p, self.k)
                    } else {
                        ShardScan::new(sh, idx, p, self.k)
                    }
                })
                .collect()
        }

        /// Every shard's captured stream.
        fn streams<S: CountSemiring>(&self, full: bool) -> Vec<ShardStream<S>> {
            self.scans::<S>(full)
                .into_iter()
                .map(ShardStream::drain)
                .collect()
        }

        /// Capture, then merge the streams.
        fn replayed<S: CountSemiring>(&self, full: bool, use_mc: bool) -> Q2Result<S> {
            merged_streams_until(&self.streams::<S>(full), Some(use_mc), |_| false)
        }
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
    fn folded_biguint_shard_scans_beyond_2_pow_128_equal_the_in_process_scan() {
        let k = 3;
        for seed in 1..=3 {
            let (ds, t, pinned) = large_world_case(seed);
            assert!(ds.world_count().bit_len() > 128, "seed {seed}");
            let idx = SimilarityIndex::build(&ds, Kernel::default(), &t);
            for pins in [Pins::none(ds.len()), pinned] {
                let sh = Sharded::new(&ds, &t, k, &pins, 3);
                // every shard folds some of its frozen sets
                for s in 0..3 {
                    let (shard, p) = (&sh.shards[s], &sh.pins[s]);
                    let opened = TreeScan::<BigUint, _>::open(
                        shard.dataset(),
                        &sh.indexes[s],
                        p,
                        k,
                        UniformMass::new(shard.dataset(), p),
                    );
                    assert!(opened.frozen.iter().any(|f| *f != BigUint::one()));
                }
                for use_mc in [false, true] {
                    let single = if use_mc {
                        cp_core::ss_tree::q2_sortscan_multiclass_with_index::<BigUint>(
                            &ds,
                            &CpConfig::new(k),
                            &idx,
                            &pins,
                        )
                    } else {
                        cp_core::ss_tree::q2_sortscan_tree_with_index::<BigUint>(
                            &ds,
                            &CpConfig::new(k),
                            &idx,
                            &pins,
                        )
                    };
                    let replayed = sh.replayed::<BigUint>(false, use_mc);
                    assert_eq!(replayed.counts, single.counts, "seed {seed} mc {use_mc}");
                    assert_eq!(replayed.total, single.total);
                }
            }
        }
    }

    /// `n_far` frozen sets far from the test point at 0, of every size
    /// 1..=9 in turn and alternating between two labels, plus four
    /// two-candidate sets near it that hold `τ` and the tail (the in-process
    /// suite's instance): per label the far sizes multiply past 2^32. With
    /// `pinned`, every seventh far set and the nearest set are pinned.
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
    fn batched_frozen_sizes_shard_scans_are_the_full_walk() {
        let k = 3;
        // 48 far sets: ∏ sizes < 2^128, within u128; 200: past 2^128
        for (n_far, pinned) in [(48, false), (48, true), (200, false), (200, true)] {
            let (ds, t, pins) = frozen_sizes_case(n_far, pinned);
            let idx = SimilarityIndex::build(&ds, Kernel::default(), &t);
            let cfg = CpConfig::new(k);
            for n_shards in [1, 2, 3] {
                let sh = Sharded::new(&ds, &t, k, &pins, n_shards);
                for use_mc in [false, true] {
                    let what =
                        format!("n_far {n_far} pinned {pinned} shards {n_shards} mc {use_mc}");
                    let run = Sharded::replayed::<BigUint>;
                    let (fast, full) = (run(&sh, false, use_mc), run(&sh, true, use_mc));
                    assert_eq!(fast.counts, full.counts, "{what}");
                    assert_eq!(fast.total, full.total, "{what}");
                    if n_far == 48 {
                        let run = Sharded::replayed::<u128>;
                        let (fast, full) = (run(&sh, false, use_mc), run(&sh, true, use_mc));
                        assert_eq!(fast.counts, full.counts, "{what}");
                        assert_eq!(fast.total, full.total, "{what}");
                    }
                    let run = Sharded::replayed::<Possibility>;
                    let (fast, full) = (run(&sh, false, use_mc), run(&sh, true, use_mc));
                    assert_eq!(fast.counts, full.counts, "{what}");
                    let run = Sharded::replayed::<ScaledF64>;
                    let (fast, full) = (run(&sh, false, use_mc), run(&sh, true, use_mc));
                    assert!(
                        fast.counts == full.counts && fast.total == full.total,
                        "{what}"
                    );
                    // and the merged counts are the in-process scan's
                    let single = if use_mc {
                        cp_core::ss_tree::q2_sortscan_multiclass_with_index::<BigUint>(
                            &ds, &cfg, &idx, &pins,
                        )
                    } else {
                        cp_core::ss_tree::q2_sortscan_tree_with_index::<BigUint>(
                            &ds, &cfg, &idx, &pins,
                        )
                    };
                    assert_eq!(
                        sh.replayed::<BigUint>(false, use_mc).counts,
                        single.counts,
                        "{what}"
                    );
                }
            }
        }
    }

    fn bits(r: &Q2Result<f64>) -> Vec<u64> {
        r.counts.iter().map(|c| c.to_bits()).collect()
    }

    impl Sharded {
        /// For every unpinned row: each pin's merged scan with the owner's
        /// stream captured under that pin (the oracle), and the merged pin
        /// sweep over the owner's swept stream, both against the other
        /// shards' base streams.
        #[allow(clippy::type_complexity)]
        fn sweeps<S: CountSemiring>(
            &self,
            ds: &IncompleteDataset,
            use_mc: bool,
        ) -> Vec<(usize, Vec<Q2Result<S>>, Vec<Q2Result<S>>)> {
            let base = self.streams::<S>(false);
            let mut out = Vec::new();
            for (s, sh) in self.shards.iter().enumerate() {
                let (idx, pins) = (&self.indexes[s], &self.pins[s]);
                for local in (0..sh.len()).filter(|&i| pins.pinned(i).is_none()) {
                    let merged_with = |owner: &ShardStream<S>| {
                        let mut cursors: Vec<StreamCursor<'_, S>> = base
                            .iter()
                            .enumerate()
                            .map(|(u, st)| if u == s { owner.cursor() } else { st.cursor() })
                            .collect();
                        merged_scan_sources(
                            &mut cursors,
                            self.n_labels,
                            self.k,
                            Some(use_mc),
                            |_| false,
                        )
                    };
                    let per_pin = (0..sh.dataset().set_size(local))
                        .map(|j| {
                            let mut pinned = pins.clone();
                            pinned.pin(local, j);
                            merged_with(&ShardStream::capture(sh, idx, &pinned, self.k))
                        })
                        .collect();
                    let swept = SweptStream::<S>::capture(sh, idx, pins, self.k, local);
                    let mut cursors: Vec<StreamCursor<'_, S>> = base
                        .iter()
                        .enumerate()
                        .map(|(u, st)| {
                            if u == s {
                                swept.stream.cursor()
                            } else {
                                st.cursor()
                            }
                        })
                        .collect();
                    let merged = merged_sweep_sources(
                        &mut cursors,
                        s,
                        &swept,
                        ds.label(swept.row),
                        self.n_labels,
                        self.k,
                        Some(use_mc),
                    );
                    out.push((swept.row, per_pin, merged));
                }
            }
            out
        }
    }

    /// Each pin's counts and total from the merged pin sweep, against the
    /// per-pin merged scans, compared by `seen` (bits in `f64`, equality in
    /// the exact semirings).
    fn check_sweeps<S: CountSemiring, T: PartialEq + std::fmt::Debug>(
        sh: &Sharded,
        ds: &IncompleteDataset,
        seen: impl Fn(&Q2Result<S>) -> T,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        for use_mc in [false, true] {
            for (row, per_pin, merged) in sh.sweeps::<S>(ds, use_mc) {
                prop_assert_eq!(per_pin.len(), merged.len());
                for (j, (want, got)) in per_pin.iter().zip(&merged).enumerate() {
                    prop_assert_eq!(seen(got), seen(want), "row {} pin {} mc {}", row, j, use_mc);
                    prop_assert!(got.total == want.total, "row {} pin {} total", row, j);
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn tau_s_opening_is_bit_identical_to_the_full_walk(
            (ds, t, k, pins, n_shards) in arb_shard_case()
        ) {
            let sh = Sharded::new(&ds, &t, k, &pins, n_shards);
            for use_mc in [false, true] {
                let run = Sharded::replayed::<u128>;
                let (fast, full) = (run(&sh, false, use_mc), run(&sh, true, use_mc));
                prop_assert_eq!(&fast.counts, &full.counts);
                prop_assert_eq!(fast.total, full.total);
                let run = Sharded::replayed::<BigUint>;
                prop_assert_eq!(&run(&sh, false, use_mc).counts, &run(&sh, true, use_mc).counts);
                let run = Sharded::replayed::<Possibility>;
                prop_assert_eq!(&run(&sh, false, use_mc).counts, &run(&sh, true, use_mc).counts);
                let run = Sharded::replayed::<f64>;
                prop_assert_eq!(bits(&run(&sh, false, use_mc)), bits(&run(&sh, true, use_mc)));
            }
            // the merged scans agree with the single-process scan too
            let single = cp_core::ss_tree::q2_sortscan_tree_with_index::<u128>(
                &ds,
                &CpConfig::new(k),
                &SimilarityIndex::build(&ds, Kernel::default(), &t),
                &pins,
            );
            prop_assert_eq!(&sh.replayed::<u128>(false, use_multiclass_accumulator(sh.n_labels, sh.k)).counts, &single.counts);
            // the early-exit certain-label merge
            prop_assert_eq!(
                certain_label_from_streams(&sh.streams(false)),
                certain_label_from_streams(&sh.streams(true))
            );
        }

        /// The merged pin sweep is every pin's merged scan: `f64` bit for
        /// bit, the exact semirings by value, over 1, 2, 3 and 7 shards,
        /// grid-tied similarities and K up to and beyond N.
        #[test]
        fn merged_pin_sweep_is_every_per_pin_merged_scan(
            (ds, t, k, pins, n_shards) in arb_shard_case()
        ) {
            let sh = Sharded::new(&ds, &t, k, &pins, n_shards);
            check_sweeps::<f64, _>(&sh, &ds, bits)?;
            check_sweeps::<u128, _>(&sh, &ds, |r| r.counts.clone())?;
            check_sweeps::<BigUint, _>(&sh, &ds, |r| r.counts.clone())?;
            check_sweeps::<Possibility, _>(&sh, &ds, |r| r.counts.clone())?;
        }

        #[test]
        fn tau_s_stream_is_the_full_walk_stream_from_tau_s(
            (ds, t, k, pins, n_shards) in arb_shard_case()
        ) {
            let sh = Sharded::new(&ds, &t, k, &pins, n_shards);
            for (fast, full) in sh.streams::<u128>(false).into_iter().zip(sh.streams::<u128>(true)) {
                // the trimmed stream is a suffix of the full walk's events ...
                let cut = full.events.len() - fast.events.len();
                prop_assert_eq!(&fast.events[..], &full.events[cut..]);
                prop_assert_eq!(fast.total, full.total);
                // ... and its opening factors are the full walk's state there
                let mut state = full.initial.clone();
                for e in &full.events[..cut] {
                    state.set_poly(e.event.label, e.event.updated_poly.clone());
                }
                prop_assert_eq!(&fast.initial, &state);
            }
        }
    }
}
