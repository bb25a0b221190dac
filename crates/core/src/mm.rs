//! The MM (MinMax) algorithm — §3.2, Algorithm 2, proven in Appendix B.
//!
//! For binary classification, Q1 does not need counting at all: for each
//! label `l`, greedily build the *l-extreme world* `E_l` — every set with
//! label `l` picks its **most** similar candidate, every other set its
//! **least** similar one — and check whether `E_l` predicts `l`. Lemma B.2:
//! `E_l` predicts `l` **iff** some possible world predicts `l`. A label `y`
//! is then certainly predicted iff `y` is the *only* label whose extreme
//! world predicts it. Cost `O(NM + |Y|(N log K + K))` — the second row of
//! Figure 4.
//!
//! The equivalence is only proven for `|Y| = 2` (Appendix B.1 case 3 shows
//! where a third label breaks the argument), so [`q1_minmax`] rejects
//! multi-class datasets; use the Possibility-semiring SortScan
//! ([`crate::queries::q1`]) there instead. [`extreme_world`] and
//! [`extreme_world_predicts`] remain available for any `|Y|` because
//! `E_l` predicts `l` ⟹ ∃ world predicting `l` holds unconditionally.

use crate::bruteforce::{predict_world, predict_world_with_keys};
use crate::config::CpConfig;
use crate::dataset::IncompleteDataset;
use crate::pins::Pins;
use crate::similarity::{CandKey, SimilarityIndex};
use cp_knn::Label;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable MM work buffers: the extreme world's candidate-choice vector
/// and the top-K keys its prediction is voted from.
///
/// A status sweep calls [`certain_label_minmax`] once per not-yet-certain
/// validation point per cleaning step; without scratch reuse every call
/// pays two `O(N)` choice-vector allocations plus two key buffers. One
/// `MmScratch` (the default entry points keep a thread-local one) makes
/// the whole sweep allocation-free on this path.
#[derive(Debug, Default)]
pub struct MmScratch {
    choice: Vec<usize>,
    top: BinaryHeap<Reverse<CandKey>>,
}

impl MmScratch {
    /// Empty buffers; they grow to the dataset size on first use.
    pub fn new() -> Self {
        MmScratch::default()
    }
}

thread_local! {
    /// Per-thread scratch behind the allocation-free default entry points.
    static SCRATCH: RefCell<MmScratch> = RefCell::new(MmScratch::new());
}

/// Candidate choice vector of the `l`-extreme world `E_l` (Equation B.1).
pub fn extreme_world(
    ds: &IncompleteDataset,
    idx: &SimilarityIndex,
    pins: &Pins,
    l: Label,
) -> Vec<usize> {
    let mut out = Vec::new();
    extreme_world_into(ds, idx, pins, l, &mut out);
    out
}

/// [`extreme_world`] writing into a caller-owned buffer (cleared first) —
/// the allocation-free shape the scratch-reusing entry points drive.
pub fn extreme_world_into(
    ds: &IncompleteDataset,
    idx: &SimilarityIndex,
    pins: &Pins,
    l: Label,
    out: &mut Vec<usize>,
) {
    out.clear();
    out.extend((0..ds.len()).map(|i| {
        if ds.label(i) == l {
            idx.most_similar(i, pins)
        } else {
            idx.least_similar(i, pins)
        }
    }));
}

/// Whether the `l`-extreme world's classifier predicts `l`.
///
/// `true` ⟹ some possible world predicts `l` (any `|Y|`).
/// For `|Y| = 2` the converse also holds (Lemma B.2).
pub fn extreme_world_predicts(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
    l: Label,
) -> bool {
    let choice = extreme_world(ds, idx, pins, l);
    predict_world(ds, idx, cfg, &choice) == l
}

/// [`extreme_world_predicts`] against caller-owned scratch buffers.
pub fn extreme_world_predicts_with_scratch(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
    l: Label,
    scratch: &mut MmScratch,
) -> bool {
    let MmScratch { choice, top } = scratch;
    extreme_world_into(ds, idx, pins, l, choice);
    predict_world_with_keys(ds, idx, cfg, choice, top) == l
}

/// Q1 via MM: is `y` predicted in **every** possible world?
///
/// # Panics
/// Panics unless the dataset is binary (`|Y| = 2`), the regime in which the
/// extreme-world equivalence is proven.
pub fn q1_minmax(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
    y: Label,
) -> bool {
    assert!(y < ds.n_labels(), "label out of range");
    certain_label_minmax(ds, cfg, idx, pins) == Some(y)
}

/// The certainly-predicted label, if any, via MM. Reuses a thread-local
/// [`MmScratch`], so repeated calls (a status sweep) allocate nothing on
/// this path.
///
/// # Panics
/// Panics unless the dataset is binary (`|Y| = 2`).
pub fn certain_label_minmax(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
) -> Option<Label> {
    SCRATCH.with(|s| certain_label_minmax_with_scratch(ds, cfg, idx, pins, &mut s.borrow_mut()))
}

/// [`certain_label_minmax`] against caller-owned scratch buffers.
///
/// # Panics
/// Panics unless the dataset is binary (`|Y| = 2`).
pub fn certain_label_minmax_with_scratch(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
    scratch: &mut MmScratch,
) -> Option<Label> {
    assert_eq!(
        ds.n_labels(),
        2,
        "MM answers Q1 only for binary classification; use the Possibility-semiring SortScan for |Y| > 2"
    );
    pins.validate(ds);
    let exists0 = extreme_world_predicts_with_scratch(ds, cfg, idx, pins, 0, scratch);
    let exists1 = extreme_world_predicts_with_scratch(ds, cfg, idx, pins, 1, scratch);
    match (exists0, exists1) {
        (true, false) => Some(0),
        (false, true) => Some(1),
        (true, true) => None,
        // impossible: the prediction of any concrete world witnesses one label
        (false, false) => unreachable!("some possible world always predicts some label"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::certain_label_brute;
    use crate::dataset::IncompleteExample;
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

    #[test]
    fn figure7_uncertain_case() {
        // Figure 7 illustrates MM with K=1 on the Figure 6 data: both extreme
        // worlds predict their own label, so nothing is certain.
        let (ds, t) = figure6();
        let cfg = CpConfig::new(1);
        let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
        let pins = Pins::none(ds.len());
        assert!(extreme_world_predicts(&ds, &cfg, &idx, &pins, 0));
        assert!(extreme_world_predicts(&ds, &cfg, &idx, &pins, 1));
        assert_eq!(certain_label_minmax(&ds, &cfg, &idx, &pins), None);
        assert!(!q1_minmax(&ds, &cfg, &idx, &pins, 0));
        assert!(!q1_minmax(&ds, &cfg, &idx, &pins, 1));
    }

    #[test]
    fn figure_b1_certain_case() {
        // Figure B.1 illustrates MM with K=3 on the same data: with all three
        // examples always in the top-3 and labels {1,1,0}, label 1 is certain.
        let (ds, t) = figure6();
        let cfg = CpConfig::new(3);
        let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
        let pins = Pins::none(ds.len());
        assert_eq!(certain_label_minmax(&ds, &cfg, &idx, &pins), Some(1));
        assert!(q1_minmax(&ds, &cfg, &idx, &pins, 1));
        assert!(!q1_minmax(&ds, &cfg, &idx, &pins, 0));
    }

    #[test]
    fn extreme_world_picks_extremes() {
        let (ds, t) = figure6();
        let cfg = CpConfig::new(1);
        let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
        let pins = Pins::none(ds.len());
        // E_0: sets with label 0 (set 2) pick most similar (cand 1 = 9.0);
        // sets with label 1 pick least similar (cands 0)
        assert_eq!(extreme_world(&ds, &idx, &pins, 0), vec![0, 0, 1]);
        // E_1: sets 0,1 pick most similar (cand 1), set 2 least similar (cand 0)
        assert_eq!(extreme_world(&ds, &idx, &pins, 1), vec![1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "binary classification")]
    fn rejects_multiclass() {
        let ds = IncompleteDataset::new(
            vec![
                IncompleteExample::complete(vec![0.0], 0),
                IncompleteExample::complete(vec![1.0], 1),
                IncompleteExample::complete(vec![2.0], 2),
            ],
            3,
        )
        .unwrap();
        let cfg = CpConfig::new(1);
        let idx = SimilarityIndex::build(&ds, cfg.kernel, &[0.0]);
        certain_label_minmax(&ds, &cfg, &idx, &Pins::none(ds.len()));
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]
        #[test]
        fn mm_matches_brute_force((ds, t, k) in arb_binary_instance()) {
            let cfg = CpConfig::new(k);
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            let pins = Pins::none(ds.len());
            let mm = certain_label_minmax(&ds, &cfg, &idx, &pins);
            let brute = certain_label_brute(&ds, &cfg, &t);
            prop_assert_eq!(mm, brute);
        }

        #[test]
        fn mm_matches_brute_force_under_pins((ds, t, k) in arb_binary_instance()) {
            let cfg = CpConfig::new(k);
            let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
            if let Some(&i) = ds.dirty_indices().first() {
                let pins = Pins::single(ds.len(), i, 0);
                // brute force on the physically-pinned dataset must agree
                let mut pinned_ds = ds.clone();
                pinned_ds.clean_to(i, 0);
                let brute = certain_label_brute(&pinned_ds, &cfg, &t);
                let mm = certain_label_minmax(&ds, &cfg, &idx, &pins);
                prop_assert_eq!(mm, brute);
            }
        }
    }
}
