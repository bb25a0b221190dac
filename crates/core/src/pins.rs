//! Candidate pinning — conditioning on `c_i = x_{i,j}`.
//!
//! CPClean's selection step (§4.1, Eq. 4) evaluates the entropy of
//! predictions *conditioned on* a candidate set taking one specific value:
//! `H(A_D(D_val) | …, c_i = x_{i,j})`. Rather than materializing a modified
//! dataset for every such evaluation, the SortScan implementations accept a
//! [`Pins`] mask: a pinned set behaves as a singleton candidate set
//! containing only the pinned candidate (its effective `M_i` is 1 and every
//! other candidate is skipped during the scan).

use crate::dataset::IncompleteDataset;

/// A per-set pin mask: `pinned(i) = Some(j)` forces `c_i = x_{i,j}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pins {
    pinned: Vec<Option<u32>>,
}

impl Pins {
    /// No pins for a dataset of `n` examples.
    pub fn none(n: usize) -> Self {
        Pins {
            pinned: vec![None; n],
        }
    }

    /// Pin exactly one set.
    pub fn single(n: usize, set: usize, cand: usize) -> Self {
        let mut p = Self::none(n);
        p.pin(set, cand);
        p
    }

    /// Build from a list of `(set, candidate)` pins.
    pub fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> Self {
        let mut p = Self::none(n);
        for &(set, cand) in pairs {
            p.pin(set, cand);
        }
        p
    }

    /// Add or replace a pin.
    pub fn pin(&mut self, set: usize, cand: usize) {
        self.pinned[set] = Some(cand as u32);
    }

    /// Remove a pin.
    pub fn unpin(&mut self, set: usize) {
        self.pinned[set] = None;
    }

    /// Run `f` with `(set, cand)` pinned, then restore the set's previous
    /// pin state.
    ///
    /// The scoped alternative to cloning the whole mask for one conditioned
    /// evaluation: CPClean's selection step issues `O(N·M)` single-pin
    /// evaluations per iteration, and each used to pay an `O(N)` clone.
    pub fn with_pin<R>(&mut self, set: usize, cand: usize, f: impl FnOnce(&Pins) -> R) -> R {
        let prev = self.pinned[set];
        self.pinned[set] = Some(cand as u32);
        let out = f(self);
        self.pinned[set] = prev;
        out
    }

    /// The pinned candidate of a set, if any.
    pub fn pinned(&self, set: usize) -> Option<usize> {
        self.pinned[set].map(|j| j as usize)
    }

    /// Every pin as `(set, candidate)`, in ascending set order.
    pub(crate) fn iter_pinned(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pinned
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|j| (i, j as usize)))
    }

    /// Whether candidate `(set, cand)` participates in the scan.
    #[inline]
    pub fn allows(&self, set: usize, cand: usize) -> bool {
        match self.pinned[set] {
            None => true,
            Some(p) => p as usize == cand,
        }
    }

    /// Effective candidate-set size under this mask.
    #[inline]
    pub fn eff_size(&self, ds: &IncompleteDataset, set: usize) -> usize {
        if self.pinned[set].is_some() {
            1
        } else {
            ds.set_size(set)
        }
    }

    /// The number of possible worlds under this mask, `∏ eff_size`, or
    /// `None` once it reaches `2^128`: past that point `u128` counts
    /// overflow, and exact counting needs `BigUint` (or `f64` probabilities).
    pub fn world_count_u128(&self, ds: &IncompleteDataset) -> Option<u128> {
        (0..ds.len()).try_fold(1u128, |acc, i| {
            acc.checked_mul(self.eff_size(ds, i) as u128)
        })
    }

    /// Number of examples covered by the mask.
    pub fn len(&self) -> usize {
        self.pinned.len()
    }

    /// `true` iff the mask covers zero examples.
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty()
    }

    /// Validate that every pin is within range for the dataset.
    ///
    /// # Panics
    /// Panics if the mask length or any pinned candidate is out of range.
    pub fn validate(&self, ds: &IncompleteDataset) {
        assert_eq!(self.pinned.len(), ds.len(), "pin mask length mismatch");
        for (i, p) in self.pinned.iter().enumerate() {
            if let Some(j) = p {
                assert!(
                    (*j as usize) < ds.set_size(i),
                    "pin ({i}, {j}) out of range (set size {})",
                    ds.set_size(i)
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::IncompleteExample;

    fn ds() -> IncompleteDataset {
        IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![0.0], vec![1.0], vec![2.0]], 0),
                IncompleteExample::complete(vec![3.0], 1),
            ],
            2,
        )
        .unwrap()
    }

    #[test]
    fn no_pins_allows_everything() {
        let ds = ds();
        let p = Pins::none(ds.len());
        assert!(p.allows(0, 0) && p.allows(0, 2) && p.allows(1, 0));
        assert_eq!(p.eff_size(&ds, 0), 3);
        assert_eq!(p.eff_size(&ds, 1), 1);
    }

    #[test]
    fn single_pin_masks_other_candidates() {
        let ds = ds();
        let p = Pins::single(ds.len(), 0, 1);
        assert!(!p.allows(0, 0));
        assert!(p.allows(0, 1));
        assert!(!p.allows(0, 2));
        assert!(p.allows(1, 0));
        assert_eq!(p.eff_size(&ds, 0), 1);
        assert_eq!(p.pinned(0), Some(1));
        assert_eq!(p.pinned(1), None);
    }

    #[test]
    fn pin_unpin_roundtrip() {
        let ds = ds();
        let mut p = Pins::none(ds.len());
        p.pin(0, 2);
        assert_eq!(p.pinned(0), Some(2));
        p.unpin(0);
        assert_eq!(p.pinned(0), None);
        p.validate(&ds);
    }

    #[test]
    fn with_pin_is_scoped() {
        let ds = ds();
        let mut p = Pins::none(ds.len());
        // pin applies inside the closure only
        let eff = p.with_pin(0, 1, |q| {
            assert_eq!(q.pinned(0), Some(1));
            q.eff_size(&ds, 0)
        });
        assert_eq!(eff, 1);
        assert_eq!(p.pinned(0), None);
        // a pre-existing pin on the same set is restored, not erased
        p.pin(0, 2);
        p.with_pin(0, 0, |q| assert_eq!(q.pinned(0), Some(0)));
        assert_eq!(p.pinned(0), Some(2));
        // matches the clone-and-pin it replaces
        let mut cloned = p.clone();
        cloned.pin(1, 0);
        p.with_pin(1, 0, |q| assert_eq!(q, &cloned));
    }

    #[test]
    fn from_pairs_pins_all() {
        let p = Pins::from_pairs(3, &[(0, 1), (2, 0)]);
        assert_eq!(p.pinned(0), Some(1));
        assert_eq!(p.pinned(1), None);
        assert_eq!(p.pinned(2), Some(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn validate_rejects_out_of_range_pin() {
        let ds = ds();
        let p = Pins::single(ds.len(), 0, 9);
        p.validate(&ds);
    }

    #[test]
    fn world_count_u128_stops_at_two_to_the_128() {
        // 64 sets of 4 candidates: 4^64 = 2^128 worlds, one too many
        let wide = |n: usize| {
            let ex = IncompleteExample::incomplete((0..4).map(|c| vec![c as f64]).collect(), 0);
            IncompleteDataset::new(vec![ex; n], 2).unwrap()
        };
        let ds = wide(64);
        assert_eq!(Pins::none(ds.len()).world_count_u128(&ds), None);
        // pinning one set leaves 4^63 = 2^126
        assert_eq!(
            Pins::single(ds.len(), 0, 3).world_count_u128(&ds),
            Some(1 << 126)
        );
        let ds = wide(63);
        assert_eq!(Pins::none(ds.len()).world_count_u128(&ds), Some(1 << 126));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn validate_rejects_wrong_length() {
        let ds = ds();
        let p = Pins::none(5);
        p.validate(&ds);
    }
}
