//! Mass models: how much "world mass" lies on each side of the scan boundary.
//!
//! Every SortScan variant walks candidates in ascending similarity order and,
//! at each boundary candidate, needs three quantities per candidate set:
//!
//! * the mass of candidates **at or below** the boundary (the paper's
//!   similarity tally `α_{i,j}[n]`, §3.1.1),
//! * the mass of candidates **strictly above** it (`M_n − α_{i,j}[n]`),
//! * the mass of the boundary candidate itself.
//!
//! [`UniformMass`] counts candidates (the paper's setting — every candidate
//! equally likely), lifted into the chosen semiring via
//! [`CountSemiring::from_count`]. [`WeightedMass`] carries a per-candidate
//! probability, realizing the paper's observation (§2.1) that Q2 is KNN
//! evaluation over a *block tuple-independent probabilistic database*; with
//! non-uniform priors the result is a proper posterior over predictions.

use crate::dataset::IncompleteDataset;
use crate::pins::Pins;
use cp_numeric::{CountProduct, CountSemiring};
use std::sync::Arc;

/// Per-set boundary masses driving the SortScan dynamic programs.
pub trait MassModel<S: CountSemiring> {
    /// Record that candidate `(set, cand)` has passed the boundary.
    fn advance(&mut self, set: usize, cand: usize);
    /// Mass of `set`'s candidates at or below the current boundary
    /// (the "out of top-K" factor).
    fn seen(&self, set: usize) -> S;
    /// Mass of `set`'s candidates strictly above the current boundary
    /// (the "inside top-K" factor).
    fn unseen(&self, set: usize) -> S;
    /// Mass contributed by the boundary set choosing exactly `(set, cand)`.
    fn boundary(&self, set: usize, cand: usize) -> S;
    /// Total mass over all possible worlds (`∏ M_i` for counting semirings,
    /// `1` in probability space).
    fn total(&self) -> S;

    /// `Some(c)` when `set`'s whole mass has passed the boundary and its
    /// masses are exactly `seen = from_count(c, c)` and `unseen = zero`:
    /// what lets a scan opener treat a frozen set as a count, without
    /// building its semiring values. `None` (the default) says nothing.
    fn settled_count(&self, _set: usize) -> Option<u32> {
        None
    }
}

/// Merge the total world masses of disjoint dataset partitions.
///
/// The world set of a partitioned dataset is the Cartesian product of the
/// shards' world sets, so totals combine by semiring multiplication:
/// `∏ M_i` factors over shards in counting semirings, and stays `1` in
/// probability space. This is the [`MassModel::total`] leg of the sharded
/// engine's merge algebra (the per-label polynomial leg lives in
/// [`crate::poly::ShardFactors`]).
pub fn merge_totals<S: CountSemiring>(totals: impl IntoIterator<Item = S>) -> S {
    let mut acc = S::one();
    for t in totals {
        acc.mul_assign(&t);
    }
    acc
}

/// Uniform candidate mass: the paper's counting setting.
#[derive(Clone, Debug)]
pub struct UniformMass {
    alpha: Vec<u32>,
    sizes: Vec<u32>,
}

impl UniformMass {
    /// Build for a dataset under a pin mask (pinned sets have effective
    /// size 1).
    pub fn new(ds: &IncompleteDataset, pins: &Pins) -> Self {
        let sizes: Vec<u32> = (0..ds.len()).map(|i| pins.eff_size(ds, i) as u32).collect();
        UniformMass {
            alpha: vec![0; ds.len()],
            sizes,
        }
    }

    /// Current similarity tally `α[set]`.
    pub fn alpha(&self, set: usize) -> u32 {
        self.alpha[set]
    }

    /// Increment the similarity tally of `set` (Equation 1 of the paper:
    /// scanning past a candidate bumps exactly one tally entry).
    pub fn bump(&mut self, set: usize) {
        self.alpha[set] += 1;
        debug_assert!(
            self.alpha[set] <= self.sizes[set],
            "tally exceeded set size"
        );
    }

    /// Effective set size `M_set`.
    pub fn size(&self, set: usize) -> u32 {
        self.sizes[set]
    }
}

impl<S: CountSemiring> MassModel<S> for UniformMass {
    fn advance(&mut self, set: usize, _cand: usize) {
        self.bump(set);
    }

    fn seen(&self, set: usize) -> S {
        S::from_count(self.alpha[set], self.sizes[set])
    }

    fn unseen(&self, set: usize) -> S {
        S::from_count(self.sizes[set] - self.alpha[set], self.sizes[set])
    }

    fn boundary(&self, set: usize, _cand: usize) -> S {
        S::from_count(1, self.sizes[set])
    }

    fn total(&self) -> S {
        let mut acc = CountProduct::default();
        self.sizes.iter().for_each(|&m| acc.push(m));
        acc.finish()
    }

    fn settled_count(&self, set: usize) -> Option<u32> {
        let m = self.sizes[set];
        (self.alpha[set] == m).then_some(m)
    }
}

/// Non-uniform candidate priors: each candidate of each set carries a
/// probability; the per-set probabilities must sum to 1.
///
/// Only meaningful in probability space, hence implemented for `S = f64`.
/// Cloning is cheap: the (validated, pin-renormalized) weight matrix is
/// shared behind an [`Arc`]; only the per-scan `seen_mass` state is copied —
/// the property the batch engine relies on to evaluate many test points
/// against one prior without re-copying the matrix.
#[derive(Clone, Debug)]
pub struct WeightedMass {
    weights: Arc<Vec<Vec<f64>>>,
    seen_mass: Vec<f64>,
}

impl WeightedMass {
    /// Build from per-candidate priors.
    ///
    /// # Panics
    /// Panics if the shape does not match the dataset, any weight is negative
    /// or non-finite, any *unpinned* set's weights do not sum to ~1, or a
    /// pinned set is passed (pin handling renormalizes implicitly by treating
    /// the pinned candidate as probability 1).
    pub fn new(ds: &IncompleteDataset, pins: &Pins, mut weights: Vec<Vec<f64>>) -> Self {
        assert_eq!(weights.len(), ds.len(), "weight rows must match dataset");
        for (i, row) in weights.iter_mut().enumerate() {
            assert_eq!(row.len(), ds.set_size(i), "weight row {i} length mismatch");
            assert!(
                row.iter().all(|w| w.is_finite() && *w >= 0.0),
                "weights must be finite and non-negative (set {i})"
            );
            match pins.pinned(i) {
                None => {
                    let sum: f64 = row.iter().sum();
                    assert!(
                        (sum - 1.0).abs() < 1e-6,
                        "weights of set {i} sum to {sum}, expected 1"
                    );
                }
                Some(j) => {
                    // conditioning: the pinned candidate is taken with
                    // probability 1, its siblings never
                    row.iter_mut().for_each(|w| *w = 0.0);
                    row[j] = 1.0;
                }
            }
        }
        let n = ds.len();
        WeightedMass {
            weights: Arc::new(weights),
            seen_mass: vec![0.0; n],
        }
    }
}

impl MassModel<f64> for WeightedMass {
    fn advance(&mut self, set: usize, cand: usize) {
        self.seen_mass[set] += self.weights[set][cand];
    }

    fn seen(&self, set: usize) -> f64 {
        self.seen_mass[set].min(1.0)
    }

    fn unseen(&self, set: usize) -> f64 {
        (1.0 - self.seen_mass[set]).max(0.0)
    }

    fn boundary(&self, set: usize, cand: usize) -> f64 {
        self.weights[set][cand]
    }

    fn total(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::IncompleteExample;
    use cp_numeric::Possibility;

    fn ds() -> IncompleteDataset {
        IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![0.0], vec![1.0]], 0),
                IncompleteExample::incomplete(vec![vec![2.0], vec![3.0], vec![4.0]], 1),
            ],
            2,
        )
        .unwrap()
    }

    #[test]
    fn merged_totals_multiply_per_shard_masses() {
        let ds = ds();
        let pins = Pins::none(ds.len());
        // shard totals are the per-shard set-size products; their merge is
        // the global world count
        for n_shards in 1..=2 {
            let shards = ds.partition(n_shards);
            let totals = shards.iter().map(|sh| {
                let m = UniformMass::new(sh.dataset(), &Pins::none(sh.len()));
                MassModel::<u128>::total(&m)
            });
            let global = UniformMass::new(&ds, &pins);
            assert_eq!(
                merge_totals::<u128>(totals),
                MassModel::<u128>::total(&global),
                "n_shards={n_shards}"
            );
        }
        // probability space: every shard total is 1, so the merge is 1
        let shards = ds.partition(2);
        let totals = shards.iter().map(|sh| {
            let m = UniformMass::new(sh.dataset(), &Pins::none(sh.len()));
            MassModel::<f64>::total(&m)
        });
        assert_eq!(merge_totals::<f64>(totals), 1.0);
        // empty merge is the semiring one
        assert_eq!(merge_totals::<u128>(std::iter::empty()), 1);
    }

    #[test]
    fn uniform_counting_factors() {
        let ds = ds();
        let pins = Pins::none(ds.len());
        let mut m = UniformMass::new(&ds, &pins);
        assert_eq!(<UniformMass as MassModel<u128>>::total(&m), 6);
        assert_eq!(<UniformMass as MassModel<u128>>::seen(&m, 1), 0);
        assert_eq!(<UniformMass as MassModel<u128>>::unseen(&m, 1), 3);
        MassModel::<u128>::advance(&mut m, 1, 0);
        assert_eq!(<UniformMass as MassModel<u128>>::seen(&m, 1), 1);
        assert_eq!(<UniformMass as MassModel<u128>>::unseen(&m, 1), 2);
        assert_eq!(<UniformMass as MassModel<u128>>::boundary(&m, 1, 0), 1);
    }

    #[test]
    fn uniform_probability_factors() {
        let ds = ds();
        let pins = Pins::none(ds.len());
        let mut m = UniformMass::new(&ds, &pins);
        assert_eq!(<UniformMass as MassModel<f64>>::total(&m), 1.0);
        MassModel::<f64>::advance(&mut m, 1, 2);
        assert!((<UniformMass as MassModel<f64>>::seen(&m, 1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((<UniformMass as MassModel<f64>>::unseen(&m, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((<UniformMass as MassModel<f64>>::boundary(&m, 1, 0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_respects_pins() {
        let ds = ds();
        let pins = Pins::single(ds.len(), 1, 2);
        let m = UniformMass::new(&ds, &pins);
        assert_eq!(m.size(1), 1);
        assert_eq!(m.size(0), 2);
        assert_eq!(<UniformMass as MassModel<u128>>::total(&m), 2);
    }

    #[test]
    fn possibility_factors() {
        let ds = ds();
        let pins = Pins::none(ds.len());
        let mut m = UniformMass::new(&ds, &pins);
        assert_eq!(
            <UniformMass as MassModel<Possibility>>::seen(&m, 0),
            Possibility(false)
        );
        assert_eq!(
            <UniformMass as MassModel<Possibility>>::unseen(&m, 0),
            Possibility(true)
        );
        MassModel::<Possibility>::advance(&mut m, 0, 0);
        MassModel::<Possibility>::advance(&mut m, 0, 1);
        assert_eq!(
            <UniformMass as MassModel<Possibility>>::seen(&m, 0),
            Possibility(true)
        );
        assert_eq!(
            <UniformMass as MassModel<Possibility>>::unseen(&m, 0),
            Possibility(false)
        );
    }

    #[test]
    fn weighted_mass_tracks_cumulative_probability() {
        let ds = ds();
        let pins = Pins::none(ds.len());
        let mut m = WeightedMass::new(&ds, &pins, vec![vec![0.3, 0.7], vec![0.2, 0.5, 0.3]]);
        assert_eq!(m.total(), 1.0);
        m.advance(1, 1);
        assert!((MassModel::<f64>::seen(&m, 1) - 0.5).abs() < 1e-12);
        assert!((MassModel::<f64>::unseen(&m, 1) - 0.5).abs() < 1e-12);
        assert!((MassModel::<f64>::boundary(&m, 0, 1) - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn weighted_rejects_unnormalized() {
        let ds = ds();
        let pins = Pins::none(ds.len());
        WeightedMass::new(&ds, &pins, vec![vec![0.3, 0.3], vec![0.2, 0.5, 0.3]]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_rejects_bad_shape() {
        let ds = ds();
        let pins = Pins::none(ds.len());
        WeightedMass::new(&ds, &pins, vec![vec![1.0], vec![0.2, 0.5, 0.3]]);
    }
}
