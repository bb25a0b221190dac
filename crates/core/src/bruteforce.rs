//! Brute-force reference implementation of Q1/Q2.
//!
//! Enumerates every possible world (`O(M^N)` — §2.1 "Computational
//! Challenge"), trains/evaluates the KNN classifier in each and aggregates.
//! This is the semantics oracle the efficient algorithms are verified
//! against; it refuses to run past a world-count guard so a mistyped test
//! cannot hang the suite.

use crate::config::CpConfig;
use crate::dataset::IncompleteDataset;
use crate::pins::Pins;
use crate::result::Q2Result;
use crate::similarity::{largest_keys, CandKey, SimilarityIndex};
use cp_knn::vote::majority_label;
use cp_knn::Label;
use cp_numeric::CountSemiring;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum number of worlds brute force will enumerate before panicking.
pub const BRUTE_FORCE_WORLD_LIMIT: f64 = 5e6;

/// Predict the label of the world selected by `choice`, using the shared
/// scan-order key (so brute force and SortScan agree bit-for-bit).
pub fn predict_world(
    ds: &IncompleteDataset,
    idx: &SimilarityIndex,
    cfg: &CpConfig,
    choice: &[usize],
) -> Label {
    predict_world_with_keys(ds, idx, cfg, choice, &mut BinaryHeap::new())
}

/// [`predict_world`] keeping the world's top-K keys in a caller-owned
/// scratch heap — the allocation-free shape MM's status sweeps drive (one
/// heap reused across every extreme-world check of a run).
pub fn predict_world_with_keys(
    ds: &IncompleteDataset,
    idx: &SimilarityIndex,
    cfg: &CpConfig,
    choice: &[usize],
    top: &mut BinaryHeap<Reverse<CandKey>>,
) -> Label {
    debug_assert_eq!(choice.len(), ds.len());
    // keys are distinct, so the top-K needs no tie-breaking; `O(N log K)`,
    // the paper's cost model for MM's `argmax_k` step
    let keys = choice.iter().enumerate().map(|(i, &j)| idx.key(i, j));
    largest_keys(keys, cfg.k_eff(ds.len()), top);
    majority_label(
        top.iter().map(|Reverse(key)| ds.label(key.set())),
        ds.n_labels(),
    )
}

fn world_weight<S: CountSemiring>(ds: &IncompleteDataset, pins: &Pins) -> S {
    let mut w = S::one();
    for i in 0..ds.len() {
        w.mul_assign(&S::from_count(1, pins.eff_size(ds, i) as u32));
    }
    w
}

fn pinned_world_count(ds: &IncompleteDataset, pins: &Pins) -> f64 {
    (0..ds.len()).map(|i| pins.eff_size(ds, i) as f64).product()
}

/// Iterate all worlds compatible with `pins`, invoking `f(choice)`.
fn for_each_world(ds: &IncompleteDataset, pins: &Pins, mut f: impl FnMut(&[usize])) {
    let n = ds.len();
    let mut choice: Vec<usize> = (0..n).map(|i| pins.pinned(i).unwrap_or(0)).collect();
    loop {
        f(&choice);
        // advance odometer, skipping pinned positions
        let mut pos = n;
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            if pins.pinned(pos).is_some() {
                continue;
            }
            choice[pos] += 1;
            if choice[pos] < ds.set_size(pos) {
                break;
            }
            choice[pos] = 0;
        }
    }
}

/// Q2 by exhaustive enumeration.
///
/// # Panics
/// Panics if the (pinned) world count exceeds
/// [`BRUTE_FORCE_WORLD_LIMIT`].
pub fn q2_brute<S: CountSemiring>(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    t: &[f64],
    pins: &Pins,
) -> Q2Result<S> {
    pins.validate(ds);
    let idx = SimilarityIndex::build(ds, cfg.kernel, t);
    q2_brute_with_index(ds, cfg, &idx, pins)
}

/// Q2 by exhaustive enumeration, reusing a prebuilt similarity index.
pub fn q2_brute_with_index<S: CountSemiring>(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    idx: &SimilarityIndex,
    pins: &Pins,
) -> Q2Result<S> {
    assert!(
        pinned_world_count(ds, pins) <= BRUTE_FORCE_WORLD_LIMIT,
        "brute force refused: too many possible worlds"
    );
    let weight: S = world_weight(ds, pins);
    let mut counts = vec![S::zero(); ds.n_labels()];
    let mut total = S::zero();
    for_each_world(ds, pins, |choice| {
        let y = predict_world(ds, idx, cfg, choice);
        counts[y].add_assign(&weight);
        total.add_assign(&weight);
    });
    Q2Result { counts, total }
}

/// Q1 by exhaustive enumeration (with early exit on a counterexample).
pub fn q1_brute(ds: &IncompleteDataset, cfg: &CpConfig, t: &[f64], y: Label) -> bool {
    certain_label_brute(ds, cfg, t) == Some(y)
}

/// The certainly-predicted label, if any, by exhaustive enumeration.
pub fn certain_label_brute(ds: &IncompleteDataset, cfg: &CpConfig, t: &[f64]) -> Option<Label> {
    let pins = Pins::none(ds.len());
    assert!(
        pinned_world_count(ds, &pins) <= BRUTE_FORCE_WORLD_LIMIT,
        "brute force refused: too many possible worlds"
    );
    let idx = SimilarityIndex::build(ds, cfg.kernel, t);
    let mut label: Option<Label> = None;
    let mut certain = true;
    for_each_world(ds, &pins, |choice| {
        if !certain {
            return;
        }
        let y = predict_world(ds, &idx, cfg, choice);
        match label {
            None => label = Some(y),
            Some(prev) if prev != y => certain = false,
            _ => {}
        }
    });
    if certain {
        label
    } else {
        None
    }
}

/// Q2 under non-uniform candidate priors by exhaustive enumeration:
/// each world's weight is the product of its chosen candidates' priors.
/// Returns per-label probabilities.
pub fn q2_brute_weighted(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    t: &[f64],
    pins: &Pins,
    weights: &[Vec<f64>],
) -> Vec<f64> {
    pins.validate(ds);
    assert!(
        pinned_world_count(ds, pins) <= BRUTE_FORCE_WORLD_LIMIT,
        "brute force refused: too many possible worlds"
    );
    let idx = SimilarityIndex::build(ds, cfg.kernel, t);
    let mut probs = vec![0.0f64; ds.n_labels()];
    let mut total = 0.0f64;
    for_each_world(ds, pins, |choice| {
        let mut w = 1.0;
        for (i, &j) in choice.iter().enumerate() {
            // a pinned set contributes probability 1 (it is conditioned on)
            if pins.pinned(i).is_none() {
                w *= weights[i][j];
            }
        }
        let y = predict_world(ds, &idx, cfg, choice);
        probs[y] += w;
        total += w;
    });
    if total > 0.0 {
        for p in &mut probs {
            *p /= total;
        }
    }
    probs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::IncompleteExample;
    use cp_numeric::BigUint;

    /// The worked example of Figure 6 (§3.1.2): three candidate sets, K=1.
    ///
    /// Labels: x1 -> 1, x2 -> 1, x3 -> 0. Expected Q2: label 0 supported by
    /// 6 worlds, label 1 by 2 (the figure's "Result: 6 / 2").
    pub(crate) fn figure6_dataset() -> (IncompleteDataset, Vec<f64>) {
        // 1-d layout realizing the figure's similarity order:
        // s(1,1) < s(2,1) < s(2,2) < s(3,1) < s(1,2) < s(3,2)
        // with test point at 10, NegEuclidean => farther = less similar.
        let ds = IncompleteDataset::new(
            vec![
                // C1 = {x11 (least similar), x12 (2nd most similar)}, label 1
                IncompleteExample::incomplete(vec![vec![0.0], vec![8.0]], 1),
                // C2 = {x21, x22}, label 1
                IncompleteExample::incomplete(vec![vec![2.0], vec![4.0]], 1),
                // C3 = {x31, x32 (most similar)}, label 0
                IncompleteExample::incomplete(vec![vec![6.0], vec![9.0]], 0),
            ],
            2,
        )
        .unwrap();
        (ds, vec![10.0])
    }

    #[test]
    fn figure6_counts_reproduced() {
        let (ds, t) = figure6_dataset();
        let cfg = CpConfig::new(1);
        let r = q2_brute::<u128>(&ds, &cfg, &t, &Pins::none(ds.len()));
        assert_eq!(r.total, 8);
        assert_eq!(r.counts, vec![6, 2]);
        assert!(!r.is_certain());
    }

    #[test]
    fn figure6_certain_label_is_none() {
        let (ds, t) = figure6_dataset();
        let cfg = CpConfig::new(1);
        assert_eq!(certain_label_brute(&ds, &cfg, &t), None);
        assert!(!q1_brute(&ds, &cfg, &t, 0));
        assert!(!q1_brute(&ds, &cfg, &t, 1));
    }

    #[test]
    fn certain_when_all_candidates_agree() {
        // all candidates of the nearest example share one label and dominate
        let ds = IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![0.0], vec![0.1]], 1),
                IncompleteExample::complete(vec![100.0], 0),
            ],
            2,
        )
        .unwrap();
        let cfg = CpConfig::new(1);
        assert_eq!(certain_label_brute(&ds, &cfg, &[0.0]), Some(1));
        assert!(q1_brute(&ds, &cfg, &[0.0], 1));
        assert!(!q1_brute(&ds, &cfg, &[0.0], 0));
    }

    #[test]
    fn counts_conserve_total() {
        let (ds, t) = figure6_dataset();
        for k in 1..=3 {
            let cfg = CpConfig::new(k);
            let r = q2_brute::<BigUint>(&ds, &cfg, &t, &Pins::none(ds.len()));
            let sum = r.counts.iter().fold(BigUint::zero(), |acc, c| acc.add(c));
            assert_eq!(sum, r.total, "k={k}");
            assert_eq!(r.total, ds.world_count());
        }
    }

    #[test]
    fn pinned_enumeration_restricts_worlds() {
        let (ds, t) = figure6_dataset();
        let cfg = CpConfig::new(1);
        // pin C3 = x31: on the figure, label 0 then wins in 2 of 4 remaining worlds
        let pins = Pins::single(ds.len(), 2, 0);
        let r = q2_brute::<u128>(&ds, &cfg, &t, &pins);
        assert_eq!(r.total, 4);
        assert_eq!(r.counts.iter().sum::<u128>(), 4);
        // pinning to x32 (most similar overall, label 0) makes label 0 certain
        let pins2 = Pins::single(ds.len(), 2, 1);
        let r2 = q2_brute::<u128>(&ds, &cfg, &t, &pins2);
        assert_eq!(r2.counts, vec![4, 0]);
        assert!(r2.is_certain());
    }

    #[test]
    fn probability_semiring_matches_counting() {
        let (ds, t) = figure6_dataset();
        let cfg = CpConfig::new(3);
        let exact = q2_brute::<u128>(&ds, &cfg, &t, &Pins::none(ds.len()));
        let prob = q2_brute::<f64>(&ds, &cfg, &t, &Pins::none(ds.len()));
        let p_exact = exact.probabilities();
        let p = prob.probabilities();
        for (a, b) in p_exact.iter().zip(&p) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((prob.total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_uniform_matches_unweighted() {
        let (ds, t) = figure6_dataset();
        let cfg = CpConfig::new(1);
        let uniform: Vec<Vec<f64>> = (0..ds.len())
            .map(|i| vec![1.0 / ds.set_size(i) as f64; ds.set_size(i)])
            .collect();
        let w = q2_brute_weighted(&ds, &cfg, &t, &Pins::none(ds.len()), &uniform);
        let u = q2_brute::<u128>(&ds, &cfg, &t, &Pins::none(ds.len())).probabilities();
        for (a, b) in w.iter().zip(&u) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn k_exceeding_n_votes_over_everything() {
        let (ds, t) = figure6_dataset();
        let cfg = CpConfig::new(50);
        // all 3 examples always vote: labels 1,1,0 -> always predicts 1
        let r = q2_brute::<u128>(&ds, &cfg, &t, &Pins::none(ds.len()));
        assert_eq!(r.counts, vec![0, 8]);
        assert!(q1_brute(&ds, &cfg, &t, 1));
    }

    #[test]
    #[should_panic(expected = "too many possible worlds")]
    fn refuses_oversized_enumeration() {
        let examples: Vec<IncompleteExample> = (0..40)
            .map(|i| {
                IncompleteExample::incomplete(
                    vec![vec![i as f64], vec![i as f64 + 0.5]],
                    (i % 2) as usize,
                )
            })
            .collect();
        let ds = IncompleteDataset::new(examples, 2).unwrap();
        q2_brute::<f64>(&ds, &CpConfig::new(3), &[0.0], &Pins::none(ds.len()));
    }
}
