//! Rank-merged extreme summaries: the sharded decomposition of the MM
//! algorithm (§3.2) for binary Q1.
//!
//! MM answers binary Q1 by materializing only the two *extreme worlds*: for
//! each label `l`, every set with label `l` picks its most similar candidate
//! and every other set its least similar one, and `E_l` predicts `l` iff
//! some possible world does (Lemma B.2). That check does not factorize the
//! way the SS counting polynomials do — per-set extremes are not products —
//! which is why the sharded engine historically fell back to the merged
//! `Possibility`-semiring scan for every status query.
//!
//! It *does* decompose by **rank**. Two observations:
//!
//! 1. a set's extreme candidate is a purely local choice — the most/least
//!    similar candidate of set `i` is the same whether ranks are taken in a
//!    shard-local or the global similarity index (within one set, the order
//!    is `(similarity, candidate)` in both);
//! 2. the extreme world's *prediction* only needs the labels of its top-K
//!    chosen candidates under the global `(similarity, row, candidate)`
//!    total order — and the global top-K of a union is the top-K of the
//!    per-shard top-Ks.
//!
//! So each shard summarizes `E_l` restricted to its own sets as a
//! rank-ordered list of its top-K chosen candidates ([`ExtremeSummary`]),
//! `O(|Y| · K)` entries independent of shard size. Building one does not
//! walk the shard either: its top-K is read off the head of the index's
//! lazily sorted extreme order, skipping pinned sets, and merged with the
//! top-K pinned choices ([`ExtremeSummary::build`]). A coordinator merges
//! summaries **by rank** — an associative merge with an identity, the MM
//! twin of the polynomial factor algebra ([`crate::poly::ShardFactors`]).
//! The fully merged summary holds exactly the global extreme worlds' top-K
//! votes, so [`ExtremeSummary::certain_label`] reproduces
//! [`crate::mm::certain_label_minmax`] bit-for-bit: no boundary-event
//! stream, no tally trees, no semiring scan.

use crate::dataset::DatasetShard;
use crate::pins::Pins;
use crate::similarity::{largest_keys, CandKey, SimilarityIndex};
use cp_knn::vote::majority_label;
use cp_knn::Label;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One chosen extreme candidate: its global merge key
/// `(similarity, global row, candidate)` plus the owning set's label — the
/// vote it casts if it survives into the merged top-K.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExtremeEntry {
    /// Similarity of the chosen candidate to the test point.
    pub sim: f64,
    /// Global row id of the owning set.
    pub row: usize,
    /// Candidate index within the set.
    pub cand: u32,
    /// Label of the owning set (its vote).
    pub label: Label,
}

/// The global strict total order on entries: `Greater` = more similar,
/// with the exact `(similarity, row, candidate)` tie-breaking every scan
/// and the brute-force key order use.
pub fn cmp_entries(a: &ExtremeEntry, b: &ExtremeEntry) -> Ordering {
    match a.sim.total_cmp(&b.sim) {
        Ordering::Equal => (a.row, a.cand).cmp(&(b.row, b.cand)),
        ord => ord,
    }
}

/// Per-shard extreme summary: for each label direction `l`, the top-K most
/// similar candidates of the `l`-extreme world restricted to the
/// summarized sets, in strictly descending rank order.
///
/// [`ExtremeSummary::merge`] is **associative** with
/// [`ExtremeSummary::identity`] as the unit: merging keeps the top-K of the
/// union of the inputs' entries, and with all keys distinct (each set
/// contributes exactly one entry per direction, and a set lives in exactly
/// one shard) `top-K` is a homomorphism — `topK(A ∪ B) = topK(topK(A) ∪
/// topK(B))` — so summaries combine in any grouping, exactly like the
/// polynomial factors.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtremeSummary {
    k: usize,
    /// `tops[l]` = descending top-K entries of `E_l` over the summarized
    /// sets; at most `k` entries each.
    tops: Vec<Vec<ExtremeEntry>>,
}

impl ExtremeSummary {
    /// The merge identity: no sets summarized (every direction empty).
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn identity(n_labels: usize, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        ExtremeSummary {
            k,
            tops: vec![Vec::new(); n_labels],
        }
    }

    /// Summarize one shard for one test point: per direction `l`, choose
    /// each set's extreme candidate (most similar when the set's label is
    /// `l`, least similar otherwise — pins override both, exactly as in
    /// [`crate::mm::extreme_world`]), then keep the shard's top-`k` choices
    /// under the global rank order.
    ///
    /// `idx` must be the similarity index of the *shard's* dataset for the
    /// test point, `pins` the shard-local pin mask, and `k` the **global**
    /// effective K.
    ///
    /// Cost: per direction, a walk down the index's lazily sorted
    /// `SimilarityIndex::extreme_order` until `k` unpinned sets are found
    /// — `O(K + pinned sets skipped)` — merged with the top-`k` pinned
    /// choices (a pinned set's choice is its pinned candidate in every
    /// direction, so one pass over the pin mask serves them all). The
    /// first summary of an index pays the `O(|Y|·N log N)` order sort.
    /// Keys order exactly like [`cmp_entries`] because
    /// `global row = shard start + local row` is monotone, so the entries
    /// are those of the per-set walk, bit for bit.
    ///
    /// # Panics
    /// Panics if `k` is zero or the pin mask does not validate against the
    /// shard dataset.
    pub fn build(shard: &DatasetShard, idx: &SimilarityIndex, pins: &Pins, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        let ds = shard.dataset();
        pins.validate(ds);
        let mut pinned = BinaryHeap::new();
        largest_keys(
            pins.iter_pinned().map(|(i, j)| idx.key(i, j)),
            k,
            &mut pinned,
        );
        let tops = idx
            .extreme_order(ds)
            .iter()
            .map(|order| {
                let mut keys: Vec<CandKey> = order
                    .iter()
                    .copied()
                    .filter(|key| pins.pinned(key.set()).is_none())
                    .take(k)
                    .collect();
                keys.extend(pinned.iter().map(|Reverse(key)| *key));
                keys.sort_unstable_by(|a, b| b.cmp(a));
                keys.truncate(k);
                keys.into_iter()
                    .map(|key| ExtremeEntry {
                        sim: key.sim(),
                        row: shard.global_row(key.set()),
                        cand: key.cand() as u32,
                        label: ds.label(key.set()),
                    })
                    .collect()
            })
            .collect();
        ExtremeSummary { k, tops }
    }

    /// The per-set walk [`ExtremeSummary::build`] replaced, kept as its
    /// test oracle: every set's extreme entry per direction, then a partial
    /// selection of the top `k` — `O(N + K log K)` per direction.
    #[cfg(test)]
    fn build_oracle(shard: &DatasetShard, idx: &SimilarityIndex, pins: &Pins, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        let ds = shard.dataset();
        pins.validate(ds);
        let tops = (0..ds.n_labels())
            .map(|l| {
                let mut entries: Vec<ExtremeEntry> = (0..ds.len())
                    .map(|i| {
                        let j = if ds.label(i) == l {
                            idx.most_similar(i, pins)
                        } else {
                            idx.least_similar(i, pins)
                        };
                        ExtremeEntry {
                            sim: idx.sim(i, j),
                            row: shard.global_row(i),
                            cand: j as u32,
                            label: ds.label(i),
                        }
                    })
                    .collect();
                if entries.len() > k {
                    entries.select_nth_unstable_by(k, |a, b| cmp_entries(b, a));
                    entries.truncate(k);
                }
                entries.sort_unstable_by(|a, b| cmp_entries(b, a));
                entries
            })
            .collect();
        ExtremeSummary { k, tops }
    }

    /// Reassemble a summary from raw parts — the decoder-side constructor
    /// (the `cp-rpc` wire codec). Every invariant the merge relies on is
    /// checked: at most `k` entries per direction, labels within range, and
    /// strictly descending rank order.
    pub fn from_parts(k: usize, tops: Vec<Vec<ExtremeEntry>>) -> Result<Self, String> {
        if k == 0 {
            return Err("k must be positive".into());
        }
        let n_labels = tops.len();
        for (l, top) in tops.iter().enumerate() {
            if top.len() > k {
                return Err(format!(
                    "direction {l}: {} entries exceed the K={k} budget",
                    top.len()
                ));
            }
            for e in top {
                if e.label >= n_labels {
                    return Err(format!(
                        "direction {l}: entry label {} out of range for {n_labels} labels",
                        e.label
                    ));
                }
            }
            for w in top.windows(2) {
                if cmp_entries(&w[0], &w[1]) != Ordering::Greater {
                    return Err(format!(
                        "direction {l}: entries not in strictly descending rank order"
                    ));
                }
            }
        }
        Ok(ExtremeSummary { k, tops })
    }

    /// Slot budget K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of label directions covered.
    pub fn n_labels(&self) -> usize {
        self.tops.len()
    }

    /// The descending top-K entries of one direction.
    pub fn top(&self, label: Label) -> &[ExtremeEntry] {
        &self.tops[label]
    }

    /// All directions' top-K entries, in label order — the shape the wire
    /// codec walks.
    pub fn tops(&self) -> &[Vec<ExtremeEntry>] {
        &self.tops
    }

    /// Merge another shard's summary into this one: per direction, the
    /// top-K of the merged rank-ordered entries. Associative;
    /// [`ExtremeSummary::identity`] is the unit.
    ///
    /// # Panics
    /// Panics on a direction-count or K mismatch.
    pub fn merge_assign(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "slot budget mismatch");
        assert_eq!(self.tops.len(), other.tops.len(), "label count mismatch");
        for (mine, theirs) in self.tops.iter_mut().zip(&other.tops) {
            *mine = merge_ranked(mine, theirs, self.k);
        }
    }

    /// [`ExtremeSummary::merge_assign`] returning a new value.
    pub fn merge(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.merge_assign(other);
        out
    }

    /// Whether direction `l`'s extreme world predicts `l`: the majority
    /// vote of its top-K entries' labels (ties toward the smaller label,
    /// the workspace-wide rule). On a fully merged summary this equals
    /// [`crate::mm::extreme_world_predicts`], because the merged top-K *is*
    /// the global extreme world's top-K.
    pub fn direction_predicts(&self, l: Label) -> bool {
        majority_label(self.tops[l].iter().map(|e| e.label), self.n_labels()) == l
    }

    /// The certainly-predicted label (if any) of the summarized dataset —
    /// the MM decision over the merged extreme worlds, equal to
    /// [`crate::mm::certain_label_minmax`] when the summary covers the
    /// whole dataset.
    ///
    /// # Panics
    /// Panics unless the summary is binary (`|Y| = 2`), the regime in which
    /// the extreme-world equivalence is proven.
    pub fn certain_label(&self) -> Option<Label> {
        assert_eq!(
            self.n_labels(),
            2,
            "MM answers Q1 only for binary classification; use the Possibility-semiring scan for |Y| > 2"
        );
        let exists0 = self.direction_predicts(0);
        let exists1 = self.direction_predicts(1);
        match (exists0, exists1) {
            (true, false) => Some(0),
            (false, true) => Some(1),
            (true, true) => None,
            // impossible for genuinely built summaries (some possible world
            // always predicts some label); decoded remote summaries are
            // untrusted, so the safe answer is "uncertain", never a panic
            (false, false) => None,
        }
    }
}

/// Merge two descending rank-ordered entry lists, keeping the top `k`.
fn merge_ranked(a: &[ExtremeEntry], b: &[ExtremeEntry], k: usize) -> Vec<ExtremeEntry> {
    let mut out = Vec::with_capacity((a.len() + b.len()).min(k));
    let (mut i, mut j) = (0, 0);
    while out.len() < k {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => cmp_entries(x, y) != Ordering::Less,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_a {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpConfig;
    use crate::dataset::{IncompleteDataset, IncompleteExample};
    use crate::mm::certain_label_minmax;
    use cp_knn::Kernel;
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

    /// Build one summary per shard of an `n_shards` partition and fold them.
    fn merged_summary(
        ds: &IncompleteDataset,
        cfg: &CpConfig,
        t: &[f64],
        pins: &Pins,
        n_shards: usize,
    ) -> ExtremeSummary {
        let k = cfg.k_eff(ds.len());
        let shards = ds.partition(n_shards);
        let mut acc = ExtremeSummary::identity(ds.n_labels(), k);
        for sh in &shards {
            let idx = SimilarityIndex::build(sh.dataset(), cfg.kernel, t);
            let local = sh.local_pins(pins);
            acc.merge_assign(&ExtremeSummary::build(sh, &idx, &local, k));
        }
        acc
    }

    #[test]
    fn whole_dataset_summary_reproduces_minmax() {
        let (ds, t) = figure6();
        for k in 1..=4 {
            let cfg = CpConfig::new(k);
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            let pins = Pins::none(ds.len());
            let summary = merged_summary(&ds, &cfg, &t, &pins, 1);
            assert_eq!(
                summary.certain_label(),
                certain_label_minmax(&ds, &cfg, &idx, &pins),
                "k={k}"
            );
        }
    }

    #[test]
    fn shard_merge_equals_the_single_shard_summary() {
        let (ds, t) = figure6();
        for k in 1..=4 {
            let cfg = CpConfig::new(k);
            let pins = Pins::none(ds.len());
            let whole = merged_summary(&ds, &cfg, &t, &pins, 1);
            for n_shards in 2..=3 {
                let merged = merged_summary(&ds, &cfg, &t, &pins, n_shards);
                assert_eq!(merged, whole, "k={k} n_shards={n_shards}");
            }
        }
    }

    #[test]
    fn pins_override_the_extreme_choices() {
        let (ds, t) = figure6();
        let cfg = CpConfig::new(1);
        // pinning set 2 to its most similar candidate (label 0) makes
        // label 0 certain — the same conclusion brute force reaches
        let pins = Pins::single(ds.len(), 2, 1);
        for n_shards in 1..=3 {
            let merged = merged_summary(&ds, &cfg, &t, &pins, n_shards);
            assert_eq!(merged.certain_label(), Some(0), "n_shards={n_shards}");
        }
    }

    #[test]
    #[should_panic(expected = "binary classification")]
    fn certain_label_rejects_multiclass_summaries() {
        ExtremeSummary::identity(3, 2).certain_label();
    }

    #[test]
    fn from_parts_enforces_the_merge_invariants() {
        let e = |sim: f64, row: usize| ExtremeEntry {
            sim,
            row,
            cand: 0,
            label: 0,
        };
        // valid: strictly descending, within budget
        assert!(ExtremeSummary::from_parts(2, vec![vec![e(2.0, 0), e(1.0, 1)], vec![]]).is_ok());
        // zero k
        assert!(ExtremeSummary::from_parts(0, vec![vec![]]).is_err());
        // over budget
        assert!(ExtremeSummary::from_parts(1, vec![vec![e(2.0, 0), e(1.0, 1)]]).is_err());
        // not strictly descending (duplicate key)
        assert!(ExtremeSummary::from_parts(2, vec![vec![e(1.0, 0), e(1.0, 0)]]).is_err());
        // ascending
        assert!(ExtremeSummary::from_parts(2, vec![vec![e(1.0, 1), e(2.0, 0)]]).is_err());
        // label out of range
        let bad = ExtremeEntry {
            sim: 1.0,
            row: 0,
            cand: 0,
            label: 5,
        };
        assert!(ExtremeSummary::from_parts(2, vec![vec![bad]]).is_err());
    }

    /// Random binary instance for the MM-equivalence property (same family
    /// as the `mm` module tests).
    fn arb_binary_instance() -> impl Strategy<Value = (IncompleteDataset, Vec<f64>, usize)> {
        (1usize..=7, 1usize..=5).prop_flat_map(|(n, k)| {
            let example = (proptest::collection::vec(-9i32..9, 1..=3), 0usize..2).prop_map(
                |(grid, label)| {
                    IncompleteExample::incomplete(
                        grid.into_iter().map(|g| vec![g as f64]).collect(),
                        label,
                    )
                },
            );
            (proptest::collection::vec(example, n..=n), -9i32..9, Just(k)).prop_map(
                move |(examples, t, k)| {
                    (
                        IncompleteDataset::new(examples, 2).unwrap(),
                        vec![t as f64],
                        k,
                    )
                },
            )
        })
    }

    /// `(k, three disjoint summaries)` with globally distinct entry keys —
    /// the precondition under which summaries arise in practice (a set
    /// lives in exactly one shard).
    fn arb_disjoint_summaries(
    ) -> impl Strategy<Value = (usize, ExtremeSummary, ExtremeSummary, ExtremeSummary)> {
        (
            1usize..=4,
            proptest::collection::vec((0u64..1_000, 0usize..3, 0usize..2), 0..=12),
        )
            .prop_map(|(k, raw)| {
                // distinct keys by construction: row = pool index
                let pool: Vec<(usize, ExtremeEntry)> = raw
                    .into_iter()
                    .enumerate()
                    .map(|(row, (sim, part, label))| {
                        (
                            part,
                            ExtremeEntry {
                                sim: sim as f64 / 7.0,
                                row,
                                cand: 0,
                                label,
                            },
                        )
                    })
                    .collect();
                let mut parts: [Vec<Vec<ExtremeEntry>>; 3] =
                    std::array::from_fn(|_| vec![Vec::new(), Vec::new()]);
                for (part, e) in pool {
                    // each direction gets the entry (a set contributes one
                    // entry per direction; sharing one here is fine — laws
                    // only need per-direction sorted, distinct-key lists)
                    parts[part][0].push(e);
                    parts[part][1].push(e);
                }
                let mut out = parts.into_iter().map(|mut tops| {
                    for top in &mut tops {
                        top.sort_unstable_by(|a, b| cmp_entries(b, a));
                        top.truncate(k);
                    }
                    ExtremeSummary::from_parts(k, tops).expect("constructed sorted")
                });
                let (a, b, c) = (
                    out.next().unwrap(),
                    out.next().unwrap(),
                    out.next().unwrap(),
                );
                (k, a, b, c)
            })
    }

    /// A random instance whose similarities tie exactly and hit both
    /// signed zeros: integer grid values under the linear kernel (a lone
    /// `-0.0` product stays negative) or the negated squared distance (a
    /// candidate on the test point scores `-0.0`), `|Y|` of 2 or 3.
    fn arb_tied_instance() -> impl Strategy<Value = (IncompleteDataset, Kernel, Vec<f64>)> {
        (1usize..=12, 2usize..=3).prop_flat_map(|(n, n_labels)| {
            let example = (proptest::collection::vec(-2i32..=2, 1..=3), 0..n_labels).prop_map(
                |(grid, label)| {
                    let cands = grid
                        .into_iter()
                        .map(|g| vec![if g == 0 { -0.0 } else { g as f64 }])
                        .collect();
                    IncompleteExample::incomplete(cands, label)
                },
            );
            (
                proptest::collection::vec(example, n..=n),
                (0usize..2).prop_map(|b| [Kernel::Linear, Kernel::NegEuclidean][b]),
                -2i32..=2,
            )
                .prop_map(move |(examples, kernel, t)| {
                    let ds = IncompleteDataset::new(examples, n_labels).unwrap();
                    (ds, kernel, vec![t as f64])
                })
        })
    }

    /// Each set pinned to a seeded random candidate with probability ~1/2.
    fn seeded_pins(ds: &IncompleteDataset, seed: u64) -> Pins {
        let mut pins = Pins::none(ds.len());
        let mut x = seed | 1;
        for i in 0..ds.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                pins.pin(i, (x >> 8) as usize % ds.set_size(i));
            }
        }
        pins
    }

    #[test]
    fn extreme_order_build_matches_the_oracle_on_signed_zeros_and_ties() {
        // every similarity is ±0.0 or an exact tie: the order must fall
        // back to (set, candidate) exactly like the per-set walk
        let ds = IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![0.0], vec![-0.0]], 0),
                IncompleteExample::incomplete(vec![vec![-0.0], vec![0.0]], 1),
                IncompleteExample::incomplete(vec![vec![1.0], vec![-1.0]], 1),
                IncompleteExample::complete(vec![-0.0], 0),
                IncompleteExample::complete(vec![1.0], 0),
            ],
            2,
        )
        .unwrap();
        let idx = SimilarityIndex::build(&ds, Kernel::Linear, &[1.0]);
        assert!(idx.sim(0, 1).is_sign_negative() && idx.sim(0, 0).is_sign_positive());
        for n_shards in [1usize, 2, 3] {
            for sh in &ds.partition(n_shards) {
                let idx = SimilarityIndex::build(sh.dataset(), Kernel::Linear, &[1.0]);
                for k in 1..=7 {
                    let last = sh.dataset().set_size(0) - 1;
                    for pins in [Pins::none(sh.len()), Pins::single(sh.len(), 0, last)] {
                        assert_eq!(
                            ExtremeSummary::build(sh, &idx, &pins, k),
                            ExtremeSummary::build_oracle(sh, &idx, &pins, k),
                            "n_shards={n_shards} start={} k={k}",
                            sh.start()
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tentpole equivalence at the algebra level: for every shard
        /// count, folding per-shard summaries reproduces the single-process
        /// MM answer exactly — pins included.
        #[test]
        fn merged_summaries_match_minmax((ds, t, k) in arb_binary_instance()) {
            let cfg = CpConfig::new(k);
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            for pins in [
                Pins::none(ds.len()),
                Pins::single(ds.len(), 0, 0),
            ] {
                let mm = certain_label_minmax(&ds, &cfg, &idx, &pins);
                for n_shards in [1usize, 2, 3, 7] {
                    let merged = merged_summary(&ds, &cfg, &t, &pins, n_shards);
                    prop_assert_eq!(
                        merged.certain_label(), mm,
                        "k={} n_shards={}", k, n_shards
                    );
                }
            }
        }

        /// The order-based build is the per-set walk, entry for entry: every
        /// shard of every partition, random pins, K up to past the shard
        /// size, exact ties and signed zeros — and for binary instances the
        /// folded summaries answer like single-process MM.
        #[test]
        fn extreme_order_build_equals_the_per_set_walk(
            (ds, kernel, t) in arb_tied_instance(),
            seed in 0u64..u64::MAX,
        ) {
            let full = SimilarityIndex::build(&ds, kernel, &t);
            for pins in [Pins::none(ds.len()), seeded_pins(&ds, seed)] {
                for n_shards in [1usize, 2, 3, 7] {
                    for k in [1usize, 2, 3, 5, 13] {
                        let mut acc = ExtremeSummary::identity(ds.n_labels(), k);
                        for sh in &ds.partition(n_shards) {
                            let idx = SimilarityIndex::build(sh.dataset(), kernel, &t);
                            let local = sh.local_pins(&pins);
                            let fast = ExtremeSummary::build(sh, &idx, &local, k);
                            prop_assert_eq!(
                                &fast,
                                &ExtremeSummary::build_oracle(sh, &idx, &local, k),
                                "n_shards={} k={}", n_shards, k
                            );
                            acc.merge_assign(&fast);
                        }
                        if ds.n_labels() == 2 {
                            // a budget past N keeps every set, as MM's
                            // clamped K does
                            let cfg = CpConfig { kernel, ..CpConfig::new(k) };
                            prop_assert_eq!(
                                acc.certain_label(),
                                certain_label_minmax(&ds, &cfg, &full, &pins),
                                "n_shards={} k={}", n_shards, k
                            );
                        }
                    }
                }
            }
        }

        /// Merge laws, mirroring the `poly::ShardFactors` laws: associative,
        /// with `identity` as a two-sided unit.
        #[test]
        fn merge_is_associative_with_identity((k, a, b, c) in arb_disjoint_summaries()) {
            prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
            let one = ExtremeSummary::identity(a.n_labels(), k);
            prop_assert_eq!(&a.merge(&one), &a);
            prop_assert_eq!(&one.merge(&a), &a);
        }

        /// Merge order does not matter either (commutative on distinct
        /// keys), so coordinators may fold summaries in arrival order.
        #[test]
        fn merge_is_commutative_on_distinct_keys((_k, a, b, _c) in arb_disjoint_summaries()) {
            prop_assert_eq!(a.merge(&b), b.merge(&a));
        }
    }

    #[test]
    #[should_panic(expected = "slot budget mismatch")]
    fn merge_rejects_k_mismatch() {
        let a = ExtremeSummary::identity(2, 1);
        let b = ExtremeSummary::identity(2, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn merge_rejects_label_mismatch() {
        let a = ExtremeSummary::identity(2, 1);
        let b = ExtremeSummary::identity(3, 1);
        a.merge(&b);
    }
}
