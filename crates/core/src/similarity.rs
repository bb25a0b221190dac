//! Similarity index: the candidate order every SortScan variant and the MM
//! algorithm consume.
//!
//! For a test point `t`, every candidate `(i, j)` of the incomplete dataset
//! has a **key** `(similarity, set, candidate)`, similarities compared by
//! [`f64::total_cmp`] — the paper's "sort all x_{i,j} pairs by their
//! similarity to t" (§3.1.2) with its no-ties assumption made concrete as a
//! strict total order. All possible-world reasoning (including brute force)
//! compares keys, never raw floats, so every algorithm in the workspace
//! agrees on neighbor ordering bit-for-bit.
//!
//! [`SimilarityIndex::build`] costs `O(NM + N·M log M)`: it computes the `NM`
//! similarities into one flat per-set array and orders each set's few
//! candidates by key (a fixed compare-exchange network for 4), with
//! no global sort. That is all MM needs (a set's least and most similar
//! candidates are the two ends of its order) and all the tree scans need:
//! their opener ([`crate::ss_tree::TreeScan::open`])
//! sorts only the candidates at or above its zero-prefix bound. The full
//! ascending order — [`SimilarityIndex::order`], [`SimilarityIndex::rank`],
//! [`SimilarityIndex::sim_at`], an `O(NM log NM)` sort — is built lazily,
//! once per index, on first use, for the algorithms that walk every
//! candidate (Algorithm 1 and the K=1 fast path). The
//! `core.similarity.full_sorts` counter and `core.similarity.full_sort_us`
//! span record those sorts apart from `core.similarity.build_us`.
//!
//! MM's extreme worlds get an order of their own:
//! `SimilarityIndex::extreme_order` holds, per label `l`, every set's
//! unpinned `l`-extreme key (its most similar candidate if the set's label
//! is `l`, its least similar otherwise) in descending key order — `|Y|`
//! sorts of `N` keys, done lazily, once per index, on first use and
//! counted by `core.similarity.extreme_sorts` /
//! `core.similarity.extreme_sort_us`. A per-shard extreme summary then
//! reads its top-K off the head of that order instead of walking every set
//! ([`crate::mm_summary::ExtremeSummary::build`]).

use crate::dataset::IncompleteDataset;
use crate::pins::Pins;
use cp_knn::{Kernel, Label};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Process-wide number of [`SimilarityIndex::build`] calls so far.
///
/// Monotone; snapshot before and after a region and subtract to count the
/// builds it performed. The session/caching layers use this to *prove* index
/// reuse (e.g. at most one build per validation point per cleaning run).
///
/// Backed by the `core.similarity.index_builds` counter in the `cp-obs`
/// registry (so `Stats` snapshots report the same value); reads 0 when
/// metrics are compiled out via `cp-obs`'s `off` feature.
pub fn build_count() -> u64 {
    cp_obs::counter!("core.similarity.index_builds").get()
}

/// Process-wide number of lazy full-order sorts so far (at most one per
/// index: the first [`SimilarityIndex::order`], [`SimilarityIndex::rank`] or
/// [`SimilarityIndex::sim_at`] call). Backed by the
/// `core.similarity.full_sorts` counter; reads 0 when metrics are compiled
/// out.
pub fn full_sort_count() -> u64 {
    cp_obs::counter!("core.similarity.full_sorts").get()
}

/// Process-wide number of lazy extreme-order sorts so far (at most one per
/// index: on the first [`crate::ExtremeSummary::build`] over it). Backed by the
/// `core.similarity.extreme_sorts` counter; reads 0 when metrics are
/// compiled out.
pub fn extreme_sort_count() -> u64 {
    cp_obs::counter!("core.similarity.extreme_sorts").get()
}

/// A candidate's position in the scan order: `(similarity, set, candidate)`
/// packed into one integer whose unsigned order is exactly
/// `sim.total_cmp`, then `set`, then `candidate` — so `-0.0` sorts before
/// `+0.0`, and exact similarity ties fall back to `(set, candidate)`
/// ascending. The packing is a bijection: [`CandKey::sim`] returns the
/// similarity bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CandKey(u128);

impl CandKey {
    /// Below every key: a scan bounded by it skips nothing.
    pub const MIN: CandKey = CandKey(0);

    /// The key of candidate `cand` of set `set` at similarity `sim`.
    #[inline]
    pub fn new(sim: f64, set: u32, cand: u32) -> Self {
        let bits = sim.to_bits();
        // `total_cmp` as an unsigned order: negatives reversed below every
        // non-negative value
        let ord = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        CandKey((ord as u128) << 64 | (set as u128) << 32 | cand as u128)
    }

    /// The candidate's similarity.
    #[inline]
    pub fn sim(self) -> f64 {
        let ord = (self.0 >> 64) as u64;
        f64::from_bits(if ord >> 63 == 1 { ord ^ 1 << 63 } else { !ord })
    }

    /// The candidate's set.
    #[inline]
    pub fn set(self) -> usize {
        (self.0 >> 32) as u32 as usize
    }

    /// The candidate's index within its set.
    #[inline]
    pub fn cand(self) -> usize {
        self.0 as u32 as usize
    }
}

/// The `k` largest of `keys`, kept in `top` (cleared first) as a min-heap,
/// so that afterwards `top.peek()` is the `k`-th largest. Once `top` is
/// full a key costs one comparison unless it displaces the least kept one:
/// `O(N log k)` at worst. Selects the scan's zero-prefix bound and the
/// extreme worlds' top-K.
pub fn largest_keys(
    keys: impl IntoIterator<Item = CandKey>,
    k: usize,
    top: &mut BinaryHeap<Reverse<CandKey>>,
) {
    top.clear();
    for key in keys {
        if top.len() < k {
            top.push(Reverse(key));
        } else if let Some(mut least) = top.peek_mut().filter(|least| key > least.0) {
            *least = Reverse(key);
        }
    }
}

/// Sort a candidate set's values ascending: a set of 4 — the `M` of every
/// benchmark workload — by a fixed compare-exchange network, whose
/// exchanges are selects rather than branches, any other by
/// `sort_unstable`. The keys of one set are distinct, so every correct
/// sort leaves the same order.
pub(crate) fn sort_small<T: Copy + Ord>(v: &mut [T]) {
    let Ok(v) = <&mut [T; 4]>::try_from(&mut *v) else {
        v.sort_unstable();
        return;
    };
    // each (i, j), i < j, puts the smaller of v[i], v[j] at i
    for (i, j) in [(0, 2), (1, 3), (0, 1), (2, 3), (1, 2)] {
        let (a, b) = (v[i], v[j]);
        let swap = b < a;
        v[i] = if swap { b } else { a };
        v[j] = if swap { a } else { b };
    }
}

/// Per-set similarity structure for one test point, plus the lazily built
/// full ascending order.
#[derive(Clone, Debug)]
pub struct SimilarityIndex {
    /// Set `i`'s candidates occupy `offsets[i]..offsets[i + 1]` of `sims`
    /// and `keys`.
    offsets: Vec<u32>,
    /// `sims[offsets[i] + j]` = similarity of candidate `(i, j)`.
    sims: Vec<f64>,
    /// Set `i`'s candidate keys in ascending order.
    keys: Vec<CandKey>,
    /// The full ascending order, sorted on first use.
    full: OnceLock<FullOrder>,
    /// Per label, every set's unpinned extreme key in descending order,
    /// sorted on first use.
    extreme: OnceLock<Vec<Vec<CandKey>>>,
}

/// The whole index in ascending key order.
#[derive(Clone, Debug)]
struct FullOrder {
    /// `(set, candidate)` pairs in ascending key order.
    order: Vec<(u32, u32)>,
    /// `rank[offsets[i] + j]` = position of `(i, j)` in `order`.
    rank: Vec<u32>,
    /// Similarities aligned with `order`.
    sims: Vec<f64>,
}

impl SimilarityIndex {
    /// Compute all candidate similarities to `t` and order each set's
    /// candidates by key.
    ///
    /// Cost: `O(NM + N·M log M)` — no global sort (see the module docs). A
    /// set of 4 candidates is ordered by a fixed compare-exchange network
    /// (5 selects, no data-dependent branches), any other by
    /// `sort_unstable`; the `NM` kernel evaluations dominate either way.
    ///
    /// # Panics
    /// Panics if `t`'s dimension does not match the dataset.
    pub fn build(ds: &IncompleteDataset, kernel: Kernel, t: &[f64]) -> Self {
        assert_eq!(t.len(), ds.dim(), "test point dimension mismatch");
        cp_obs::counter!("core.similarity.index_builds").inc();
        let _span = cp_obs::span!("core.similarity.build_us");
        let total = ds.total_candidates();
        let mut offsets = Vec::with_capacity(ds.len() + 1);
        let mut sims = Vec::with_capacity(total);
        let mut keys = Vec::with_capacity(total);
        offsets.push(0);
        for i in 0..ds.len() {
            let base = sims.len();
            for j in 0..ds.set_size(i) {
                let s = kernel.similarity(ds.candidate(i, j), t);
                sims.push(s);
                keys.push(CandKey::new(s, i as u32, j as u32));
            }
            sort_small(&mut keys[base..]);
            offsets.push(sims.len() as u32);
        }
        SimilarityIndex {
            offsets,
            sims,
            keys,
            full: OnceLock::new(),
            extreme: OnceLock::new(),
        }
    }

    /// Number of candidates in the index.
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// `true` iff the index is empty (never true for a validated dataset).
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// Similarity of candidate `(i, j)` to the test point.
    #[inline]
    pub fn sim(&self, i: usize, j: usize) -> f64 {
        self.sims[self.offsets[i] as usize + j]
    }

    /// Scan-order key of candidate `(i, j)`.
    #[inline]
    pub fn key(&self, i: usize, j: usize) -> CandKey {
        CandKey::new(self.sim(i, j), i as u32, j as u32)
    }

    /// Set `i`'s candidate keys in ascending order.
    #[inline]
    pub fn set_keys(&self, i: usize) -> &[CandKey] {
        &self.keys[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Candidates in ascending similarity order. Sorts the whole index on
    /// the first call (`O(NM log NM)`, once per index).
    pub fn order(&self) -> &[(u32, u32)] {
        &self.full().order
    }

    /// Rank (ascending-similarity position) of candidate `(i, j)`. Sorts
    /// the whole index on the first call, like [`SimilarityIndex::order`].
    pub fn rank(&self, i: usize, j: usize) -> u32 {
        self.full().rank[self.offsets[i] as usize + j]
    }

    /// Similarity of the candidate at a given rank. Sorts the whole index
    /// on the first call, like [`SimilarityIndex::order`].
    pub fn sim_at(&self, pos: usize) -> f64 {
        self.full().sims[pos]
    }

    fn full(&self) -> &FullOrder {
        self.full.get_or_init(|| {
            cp_obs::counter!("core.similarity.full_sorts").inc();
            let _span = cp_obs::span!("core.similarity.full_sort_us");
            let mut keys = self.keys.clone();
            keys.sort_unstable();
            let mut rank = vec![0u32; keys.len()];
            for (pos, key) in keys.iter().enumerate() {
                rank[self.offsets[key.set()] as usize + key.cand()] = pos as u32;
            }
            FullOrder {
                order: keys
                    .iter()
                    .map(|k| (k.set() as u32, k.cand() as u32))
                    .collect(),
                sims: keys.iter().map(|k| k.sim()).collect(),
                rank,
            }
        })
    }

    /// Per label `l`, the `l`-extreme world's unpinned choices in
    /// descending key order: one key per set — the set's most similar
    /// candidate if its label is `l`, its least similar otherwise (the two
    /// ends of [`SimilarityIndex::set_keys`]). `ds` must be the dataset the
    /// index was built from; it supplies the labels. Sorts `|Y|` orders of
    /// `N` keys on the first call (`O(|Y|·N log N)`, once per index).
    ///
    /// # Panics
    /// Panics if `ds` has a different number of sets than the index.
    pub(crate) fn extreme_order(&self, ds: &IncompleteDataset) -> &[Vec<CandKey>] {
        let n = self.offsets.len() - 1;
        assert_eq!(ds.len(), n, "dataset does not match the index");
        self.extreme.get_or_init(|| {
            cp_obs::counter!("core.similarity.extreme_sorts").inc();
            let _span = cp_obs::span!("core.similarity.extreme_sort_us");
            (0..ds.n_labels())
                .map(|l: Label| {
                    let mut order: Vec<CandKey> = (0..n)
                        .map(|i| {
                            let keys = self.set_keys(i);
                            if ds.label(i) == l {
                                keys[keys.len() - 1]
                            } else {
                                keys[0]
                            }
                        })
                        .collect();
                    order.sort_unstable_by(|a, b| b.cmp(a));
                    order
                })
                .collect()
        })
    }

    /// Candidate of set `i` with the **lowest** similarity among candidates
    /// permitted by `pins` (the `arg min_j κ(x_{i,j}, t)` of MM).
    pub fn least_similar(&self, i: usize, pins: &Pins) -> usize {
        match pins.pinned(i) {
            Some(j) => j,
            None => self.set_keys(i)[0].cand(),
        }
    }

    /// Candidate of set `i` with the **highest** similarity among candidates
    /// permitted by `pins` (the `arg max_j κ(x_{i,j}, t)` of MM).
    pub fn most_similar(&self, i: usize, pins: &Pins) -> usize {
        match pins.pinned(i) {
            Some(j) => j,
            None => self.set_keys(i)[self.set_keys(i).len() - 1].cand(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::IncompleteExample;
    use proptest::prelude::*;

    fn ds() -> IncompleteDataset {
        IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![0.0], vec![10.0]], 0),
                IncompleteExample::incomplete(vec![vec![3.0], vec![4.0]], 1),
                IncompleteExample::complete(vec![5.0], 1),
            ],
            2,
        )
        .unwrap()
    }

    #[test]
    fn ascending_similarity_order() {
        // test point at 5.0; NegEuclidean similarity = -(x-5)^2
        let ds = ds();
        let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &[5.0]);
        // distances: (0,0)=25, (0,1)=25, (1,0)=4, (1,1)=1, (2,0)=0
        // ascending similarity = descending distance; tie (0,0)/(0,1) broken by candidate index
        assert_eq!(idx.order(), &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]);
        assert_eq!(idx.rank(2, 0), 4);
        assert_eq!(idx.rank(0, 0), 0);
        assert!(idx.sim_at(0) <= idx.sim_at(4));
    }

    #[test]
    fn extremes_per_set() {
        let ds = ds();
        let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &[5.0]);
        let pins = Pins::none(ds.len());
        assert_eq!(idx.most_similar(0, &pins), 1); // 10.0 closer to 5 than 0.0? dist 25 both; tie -> higher rank = cand 1
        assert_eq!(idx.least_similar(0, &pins), 0);
        assert_eq!(idx.most_similar(1, &pins), 1); // 4.0 closer than 3.0
        assert_eq!(idx.least_similar(1, &pins), 0);
    }

    #[test]
    fn pins_override_extremes() {
        let ds = ds();
        let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &[5.0]);
        let pins = Pins::single(ds.len(), 1, 0);
        assert_eq!(idx.most_similar(1, &pins), 0);
        assert_eq!(idx.least_similar(1, &pins), 0);
        // unpinned sets unaffected
        assert_eq!(idx.most_similar(0, &pins), 1);
    }

    #[test]
    fn extreme_order_holds_each_sets_extreme_key_descending() {
        let ds = ds();
        let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &[5.0]);
        let pins = Pins::none(ds.len());
        let orders = idx.extreme_order(&ds);
        assert_eq!(orders.len(), ds.n_labels());
        for (l, order) in orders.iter().enumerate() {
            assert!(
                order.windows(2).all(|w| w[0] > w[1]),
                "descending, label {l}"
            );
            let mut expected: Vec<CandKey> = (0..ds.len())
                .map(|i| {
                    let j = if ds.label(i) == l {
                        idx.most_similar(i, &pins)
                    } else {
                        idx.least_similar(i, &pins)
                    };
                    idx.key(i, j)
                })
                .collect();
            expected.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(order, &expected);
        }
        // sorted once: later calls hand back the same order
        assert!(std::ptr::eq(orders, idx.extreme_order(&ds)));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_test_dimension() {
        let ds = ds();
        SimilarityIndex::build(&ds, Kernel::NegEuclidean, &[1.0, 2.0]);
    }

    /// The global sort the index replaced: every candidate by
    /// `(similarity by total_cmp, set, candidate)`.
    fn reference_order(ds: &IncompleteDataset, kernel: Kernel, t: &[f64]) -> Vec<(u32, u32)> {
        let mut entries: Vec<(f64, u32, u32)> = (0..ds.len())
            .flat_map(|i| {
                (0..ds.set_size(i))
                    .map(move |j| (kernel.similarity(ds.candidate(i, j), t), i as u32, j as u32))
            })
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        entries.into_iter().map(|(_, i, j)| (i, j)).collect()
    }

    #[test]
    fn signed_zeros_and_exact_ties_decide_the_key_order() {
        // linear kernel against t = 1: each candidate's similarity is its
        // own coordinate, so -0.0 and +0.0 both occur (f64 `Sum` starts at
        // -0.0, keeping a lone -0.0 product negative)
        let ds = IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![0.0], vec![-0.0], vec![-1.0]], 0),
                IncompleteExample::incomplete(vec![vec![-0.0], vec![0.0]], 1),
                IncompleteExample::complete(vec![0.0], 1),
            ],
            2,
        )
        .unwrap();
        let idx = SimilarityIndex::build(&ds, Kernel::Linear, &[1.0]);
        assert!(idx.sim(0, 1).is_sign_negative() && idx.sim(0, 0).is_sign_positive());
        // -0.0 sorts below +0.0; equal similarities by (set, candidate)
        let expected = [(0, 2), (0, 1), (1, 0), (0, 0), (1, 1), (2, 0)];
        assert_eq!(idx.order(), &expected);
        assert_eq!(
            idx.order(),
            &reference_order(&ds, Kernel::Linear, &[1.0])[..]
        );
        assert!(idx.key(0, 1) < idx.key(1, 0) && idx.key(1, 0) < idx.key(0, 0));
        assert!(idx.key(0, 0) < idx.key(1, 1) && idx.key(1, 1) < idx.key(2, 0));
        let pins = Pins::none(ds.len());
        assert_eq!(
            (idx.least_similar(0, &pins), idx.most_similar(0, &pins)),
            (2, 0)
        );
        assert_eq!(
            (idx.least_similar(1, &pins), idx.most_similar(1, &pins)),
            (0, 1)
        );
        for (pos, &(i, j)) in expected.iter().enumerate() {
            let key = idx.key(i as usize, j as usize);
            assert_eq!((key.set(), key.cand()), (i as usize, j as usize));
            assert_eq!(key.sim().to_bits(), idx.sim_at(pos).to_bits());
            assert_eq!(idx.rank(i as usize, j as usize), pos as u32);
        }
    }

    #[test]
    fn keys_order_like_total_cmp_and_round_trip() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for &a in &values {
            let ka = CandKey::new(a, 3, 1);
            assert_eq!(ka.sim().to_bits(), a.to_bits());
            for &b in &values {
                let kb = CandKey::new(b, 3, 1);
                assert_eq!(ka.cmp(&kb), a.total_cmp(&b), "{a} vs {b}");
            }
            assert!(CandKey::new(a, 3, 1) < CandKey::new(a, 3, 2));
            assert!(CandKey::new(a, 3, 9) < CandKey::new(a, 4, 0));
            assert!(CandKey::MIN <= ka);
        }
    }

    proptest! {
        #[test]
        fn index_orders_exactly_as_the_global_sort(
            rows in proptest::collection::vec(proptest::collection::vec(-3i32..=3, 1..=4), 1..=8),
            t in -3i32..=3,
            pin_row in 0usize..8,
        ) {
            let examples = rows
                .iter()
                .map(|r| IncompleteExample::incomplete(r.iter().map(|&g| vec![g as f64]).collect(), 0))
                .collect();
            let ds = IncompleteDataset::new(examples, 2).unwrap();
            let t = [t as f64];
            let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &t);
            let reference = reference_order(&ds, Kernel::NegEuclidean, &t);
            prop_assert_eq!(idx.order(), &reference[..]);
            let pins = if pin_row < ds.len() {
                Pins::single(ds.len(), pin_row, ds.set_size(pin_row) - 1)
            } else {
                Pins::none(ds.len())
            };
            for i in 0..ds.len() {
                // the extremes are the lowest- and highest-ranked allowed candidates
                let allowed = (0..ds.set_size(i)).filter(|&j| pins.allows(i, j));
                let lo = allowed.clone().min_by_key(|&j| idx.rank(i, j)).unwrap();
                let hi = allowed.max_by_key(|&j| idx.rank(i, j)).unwrap();
                prop_assert_eq!(idx.least_similar(i, &pins), lo);
                prop_assert_eq!(idx.most_similar(i, &pins), hi);
                let keys = idx.set_keys(i);
                prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(keys.iter().all(|k| k.set() == i));
            }
        }
    }

    /// The 0-1 principle: a comparator network sorts every input iff it
    /// sorts every 0-1 input, so the 4-network is checked on all 16 of them.
    #[test]
    fn the_four_network_sorts_every_zero_one_input() {
        for bits in 0u32..16 {
            let mut v: Vec<u8> = (0..4).map(|b| (bits >> b & 1) as u8).collect();
            sort_small(&mut v);
            let ones = bits.count_ones() as usize;
            let expected: Vec<u8> = (0..4).map(|b| u8::from(b >= 4 - ones)).collect();
            assert_eq!(v, expected, "input {bits:04b}");
        }
    }

    proptest! {
        #[test]
        fn small_set_sort_is_sort_unstable_under_tied_similarities(
            sims in proptest::collection::vec(-2i32..=2, 0..=12),
            set in 0u32..1000,
            listing in 0u32..1000,
        ) {
            // few distinct similarities, so most keys tie on them and are
            // ordered by candidate; candidates listed in a scrambled order
            let mut keys: Vec<CandKey> = sims
                .iter()
                .enumerate()
                // 7 is coprime to 13: distinct candidates
                .map(|(j, &g)| CandKey::new(g as f64 * 0.5, set, (j as u32 * 7 + listing) % 13))
                .collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            sort_small(&mut keys);
            prop_assert_eq!(keys, expected);
        }
    }

    #[test]
    fn ranks_are_a_permutation() {
        let ds = ds();
        let idx = SimilarityIndex::build(&ds, Kernel::NegEuclidean, &[0.0]);
        let mut seen = vec![false; idx.len()];
        for i in 0..ds.len() {
            for j in 0..ds.set_size(i) {
                let r = idx.rank(i, j) as usize;
                assert!(!seen[r]);
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
