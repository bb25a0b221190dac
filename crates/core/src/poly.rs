//! Slot polynomials and the divide-and-conquer tally tree (Appendix A.2).
//!
//! The label-support dynamic program `C_l^{i,j}(c, n)` of §3.1.1 counts, per
//! label, the ways to place exactly `c` of that label's candidate sets inside
//! the top-K. We represent each candidate set's contribution as a degree-1
//! *slot polynomial* `out + in·z` (coefficient of `z^c` = mass of placing `c`
//! members in the top-K), so the label support is the product of its sets'
//! polynomials truncated at degree K.
//!
//! [`TallyTree`] maintains that product in a segment tree: each leaf holds one
//! set's polynomial, each internal node the truncated product of its
//! children. One scan step changes a single leaf, so an update costs
//! `O(K² log N)` — exactly the optimization the paper's Appendix A.2
//! describes ("we can see that this enables us to maintain a binary tree
//! structure of DP results"). The tree additionally answers
//! *product-excluding-one-leaf* queries by recombining the siblings on the
//! leaf-to-root path, which is how the boundary set is removed from its own
//! label's support.

use cp_numeric::CountSemiring;

/// Process-wide number of [`TallyTree::new`] calls so far.
///
/// Monotone; snapshot before and after a region and subtract to count the
/// tree constructions it performed — the twin of
/// [`crate::similarity::build_count`]. The MM extreme-summary fast path
/// uses this to *prove* it never touches the polynomial machinery (a
/// binary status sweep must build zero tally trees).
///
/// Backed by the `core.poly.tree_builds` counter in the `cp-obs` registry
/// (so `Stats` snapshots report the same value); reads 0 when metrics are
/// compiled out via `cp-obs`'s `off` feature.
pub fn tree_build_count() -> u64 {
    cp_obs::counter!("core.poly.tree_builds").get()
}

/// Multiply two slot polynomials, truncating at degree `k` (inclusive).
///
/// `a` and `b` are coefficient vectors (index = number of occupied top-K
/// slots). The result has exactly `k + 1` coefficients.
pub fn poly_mul<S: CountSemiring>(a: &[S], b: &[S], k: usize) -> Vec<S> {
    let mut out = vec![S::zero(); k + 1];
    poly_mul_into(a, b, k, &mut out);
    out
}

/// [`poly_mul`] writing into `out` (exactly `k + 1` coefficients, which are
/// overwritten). Zero coefficients are skipped, so a product coefficient
/// every term of which has a zero factor stays exactly `S::zero()`.
fn poly_mul_into<S: CountSemiring>(a: &[S], b: &[S], k: usize, out: &mut [S]) {
    out.fill(S::zero());
    for (i, ai) in a.iter().enumerate().take(k + 1) {
        if ai.is_zero() {
            continue;
        }
        for (j, bj) in b.iter().enumerate().take(k + 1 - i) {
            if bj.is_zero() {
                continue;
            }
            let prod = ai.mul(bj);
            out[i + j].add_assign(&prod);
        }
    }
}

/// The multiplicative-identity polynomial (`1 + 0·z + …`).
pub fn poly_one<S: CountSemiring>(k: usize) -> Vec<S> {
    let mut p = vec![S::zero(); k + 1];
    p[0] = S::one();
    p
}

/// Segment tree over per-set slot polynomials with truncated products.
///
/// Node storage is made on first write: a fresh tree holds no semiring
/// values, a node gets its `K + 1` coefficients when a leaf below it is
/// first written, and a node that has only ever been the identity never
/// gets any. A scan that loads `L` leaves therefore materializes at most
/// `L·(log₂ cap + 1)` nodes, whatever the number of leaves.
#[derive(Clone, Debug)]
pub struct TallyTree<S> {
    /// Slot budget K: polynomials keep K+1 coefficients.
    k: usize,
    /// Number of real leaves (candidate sets of one label).
    n_leaves: usize,
    /// Leaf capacity (next power of two, at least 1).
    cap: usize,
    /// Materialized node polynomials, `k + 1` coefficients each, in the
    /// order the nodes were first written. Nodes are 1-indexed (root = 1),
    /// leaves at `cap + leaf`.
    nodes: Vec<S>,
    /// `slot[v]`: node `v`'s polynomial is `nodes[slot[v]·(k+1) ..]`,
    /// unless the [`IDENTITY`] bit is set: then `v` is the identity
    /// polynomial `one`, which its storage (if any, [`UNWRITTEN`] if none)
    /// does not hold — untouched subtrees cost nothing.
    slot: Vec<u32>,
    /// The identity polynomial `1 + 0·z + …`.
    one: Vec<S>,
    /// Leaves written by [`TallyTree::load_leaf`] whose ancestors the next
    /// [`TallyTree::rebuild`] refreshes.
    loaded: Vec<usize>,
}

/// The bit of [`TallyTree::slot`] marking an identity node.
const IDENTITY: u32 = 1 << 31;

/// [`TallyTree::slot`] of an identity node with no storage yet.
const UNWRITTEN: u32 = u32::MAX;

impl<S: CountSemiring> TallyTree<S> {
    /// Build a tree of `n_leaves` identity polynomials. Allocates no
    /// semiring values beyond the identity polynomial itself.
    pub fn new(n_leaves: usize, k: usize) -> Self {
        cp_obs::counter!("core.poly.tree_builds").inc();
        let _span = cp_obs::span!("core.poly.tree_build_us");
        let cap = n_leaves.max(1).next_power_of_two();
        // a slot index must leave the identity bit free
        assert!(
            2 * cap <= IDENTITY as usize,
            "too many leaves for a tally tree"
        );
        TallyTree {
            k,
            n_leaves,
            cap,
            nodes: Vec::new(),
            // every node starts as the identity polynomial
            slot: vec![UNWRITTEN; 2 * cap],
            one: poly_one(k),
            loaded: Vec::new(),
        }
    }

    /// Number of nodes that have storage: the nodes ever written with a
    /// polynomial other than the identity. At most `2·cap − 1`.
    #[cfg(test)]
    pub(crate) fn materialized_nodes(&self) -> usize {
        self.nodes.len() / (self.k + 1)
    }

    /// Leaf capacity: the number of leaf slots, a power of two.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    #[inline]
    fn is_identity(&self, v: usize) -> bool {
        self.slot[v] & IDENTITY != 0
    }

    /// Mark node `v` as not the identity and return the start of its
    /// coefficients in `nodes`, giving it storage first if it has none;
    /// the caller writes them. The first node reserves room for two
    /// leaf-to-root paths.
    fn materialize(&mut self, v: usize) -> usize {
        let stride = self.k + 1;
        if self.slot[v] == UNWRITTEN {
            if self.nodes.is_empty() {
                let depth = self.cap.trailing_zeros() as usize;
                self.nodes.reserve(2 * (depth + 1) * stride);
            }
            self.slot[v] = (self.nodes.len() / stride) as u32;
            self.nodes.resize(self.nodes.len() + stride, S::zero());
        }
        self.slot[v] &= !IDENTITY;
        self.slot[v] as usize * stride
    }

    /// Slot budget K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of real leaves.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    #[inline]
    fn poly(&self, v: usize) -> &[S] {
        if self.is_identity(v) {
            return &self.one;
        }
        let stride = self.k + 1;
        let base = self.slot[v] as usize * stride;
        &self.nodes[base..base + stride]
    }

    /// Set leaf `leaf`'s polynomial to `out + in·z` and refresh its
    /// ancestors. Cost `O(K² log N)`.
    ///
    /// # Panics
    /// Panics if `leaf >= n_leaves`.
    pub fn set_leaf(&mut self, leaf: usize, out: S, in_: S) {
        self.write_leaf(leaf, out, in_);
        // refresh ancestors bottom-up
        let mut node = (self.cap + leaf) / 2;
        while node >= 1 {
            self.refresh(node);
            node /= 2;
        }
    }

    /// Set leaf `leaf`'s polynomial to `out + in·z` **without** refreshing
    /// its ancestors: the bulk-initialization half of [`TallyTree::set_leaf`].
    /// Load any number of leaves, then call [`TallyTree::rebuild`] once
    /// before reading the tree. A leaf left at the identity (`1 + 0·z`) need
    /// not be loaded at all.
    ///
    /// # Panics
    /// Panics if `leaf >= n_leaves`.
    pub fn load_leaf(&mut self, leaf: usize, out: S, in_: S) {
        self.write_leaf(leaf, out, in_);
        self.loaded.push(leaf);
    }

    /// Leaf `leaf`'s polynomial as `(out, in)`, or `None` while it is the
    /// implicit identity — the state [`TallyTree::reload_leaf`] puts back.
    ///
    /// # Panics
    /// Panics if `leaf >= n_leaves`.
    pub fn leaf_state(&self, leaf: usize) -> Option<(S, S)> {
        assert!(leaf < self.n_leaves, "leaf index out of range");
        if self.is_identity(self.cap + leaf) {
            return None;
        }
        let poly = self.poly(self.cap + leaf);
        Some((
            poly[0].clone(),
            poly.get(1).cloned().unwrap_or_else(S::zero),
        ))
    }

    /// Put back a state read by [`TallyTree::leaf_state`] without
    /// refreshing its ancestors — [`TallyTree::load_leaf`] that can also
    /// restore the implicit identity. Call [`TallyTree::rebuild`] before
    /// reading the tree.
    ///
    /// # Panics
    /// Panics if `leaf >= n_leaves`.
    pub fn reload_leaf(&mut self, leaf: usize, state: Option<(S, S)>) {
        match state {
            Some((out, in_)) => self.load_leaf(leaf, out, in_),
            None => {
                assert!(leaf < self.n_leaves, "leaf index out of range");
                self.slot[self.cap + leaf] |= IDENTITY;
                self.loaded.push(leaf);
            }
        }
    }

    fn write_leaf(&mut self, leaf: usize, out: S, in_: S) {
        assert!(leaf < self.n_leaves, "leaf index out of range");
        let base = self.materialize(self.cap + leaf);
        self.nodes[base] = out;
        if self.k >= 1 {
            self.nodes[base + 1] = in_;
            for c in 2..=self.k {
                self.nodes[base + c] = S::zero();
            }
        }
    }

    /// Recompute, bottom-up, every ancestor of the leaves loaded since the
    /// last rebuild, in `O(L·K² log N)` for `L` loaded leaves. After
    /// [`TallyTree::load_leaf`] calls this leaves the node array exactly as
    /// the same leaves written through [`TallyTree::set_leaf`] would: every
    /// refreshed node is the same product of its final children. On a fresh
    /// tree every other node stays the identity, which is also what its
    /// refresh would compute (identity × identity = identity in every
    /// semiring), so leaves left at the identity need not be loaded.
    pub fn rebuild(&mut self) {
        let mut level = std::mem::take(&mut self.loaded);
        level.iter_mut().for_each(|leaf| *leaf += self.cap);
        level.sort_unstable();
        level.dedup();
        while level.first().is_some_and(|&v| v > 1) {
            // the distinct parents of this level, still ascending
            let mut parents = 0;
            for r in 0..level.len() {
                let p = level[r] / 2;
                if parents == 0 || level[parents - 1] != p {
                    level[parents] = p;
                    parents += 1;
                }
            }
            level.truncate(parents);
            for &node in &level {
                self.refresh(node);
            }
        }
        level.clear();
        self.loaded = level;
    }

    /// Overwrite internal node `node` with the truncated product of its two
    /// children. The product of two identities is the identity in every
    /// semiring, so such a node is marked rather than multiplied.
    fn refresh(&mut self, node: usize) {
        let (l, r) = (2 * node, 2 * node + 1);
        if self.is_identity(l) && self.is_identity(r) {
            self.slot[node] |= IDENTITY;
            return;
        }
        let stride = self.k + 1;
        let at = self.materialize(node);
        // each child's storage lies before or after the node's
        let (before, rest) = self.nodes.split_at_mut(at);
        let (out, after) = rest.split_at_mut(stride);
        let child = |v: usize| -> &[S] {
            let slot = self.slot[v];
            if slot & IDENTITY != 0 {
                return &self.one;
            }
            let c = slot as usize * stride;
            if c < at {
                &before[c..c + stride]
            } else {
                &after[c - at - stride..][..stride]
            }
        };
        poly_mul_into(child(l), child(r), self.k, out);
    }

    /// Every node's polynomial, root first — the whole tree as a reader
    /// sees it.
    #[cfg(test)]
    fn node_polys(&self) -> Vec<S> {
        (1..2 * self.cap)
            .flat_map(|v| self.poly(v).to_vec())
            .collect()
    }

    /// The product polynomial over **all** leaves: coefficient `c` is the
    /// mass of placing exactly `c` of this label's sets inside the top-K.
    pub fn root(&self) -> &[S] {
        self.poly(1)
    }

    /// The product polynomial over all leaves **except** `leaf`, obtained by
    /// recombining the siblings along the leaf-to-root path in
    /// `O(K² log N)`.
    ///
    /// # Panics
    /// Panics if `leaf >= n_leaves`.
    pub fn excluding(&self, leaf: usize) -> Vec<S> {
        assert!(leaf < self.n_leaves, "leaf index out of range");
        let mut acc = poly_one::<S>(self.k);
        let mut node = self.cap + leaf;
        while node > 1 {
            let sibling = node ^ 1;
            acc = poly_mul(&acc, self.poly(sibling), self.k);
            node /= 2;
        }
        acc
    }
}

/// Per-label partial slot polynomials of one dataset shard — the compact
/// summary a shard's SortScan exchanges with the coordinator.
///
/// The label-support polynomial of the full dataset is a product over that
/// label's candidate sets, so it factorizes over any partition of the sets:
/// a shard contributes the product over *its* sets, and the coordinator
/// recovers the global polynomial by multiplying shard factors per label.
/// The payload is `|Y| · (K + 1)` semiring values, independent of the shard
/// size — this is what makes the sharded engine's per-boundary exchange
/// cheap.
///
/// [`ShardFactors::merge`] is **associative** with [`ShardFactors::identity`]
/// as the unit (truncated polynomial multiplication per label — truncation
/// at degree `K` is compositional because a product coefficient of degree
/// `≤ K` only ever consumes factor coefficients of degree `≤ K`), so shard
/// summaries can be combined in any grouping: pairwise at a coordinator,
/// tree-wise across racks, or incrementally as shard results stream in.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardFactors<S> {
    k: usize,
    /// `polys[l]` has exactly `k + 1` coefficients.
    polys: Vec<Vec<S>>,
}

impl<S: CountSemiring> ShardFactors<S> {
    /// The merge identity: one identity polynomial per label (the factors of
    /// a shard owning no candidate sets).
    pub fn identity(n_labels: usize, k: usize) -> Self {
        ShardFactors {
            k,
            polys: (0..n_labels).map(|_| poly_one::<S>(k)).collect(),
        }
    }

    /// Build from per-label polynomials.
    ///
    /// # Panics
    /// Panics if any polynomial does not have exactly `k + 1` coefficients.
    pub fn from_polys(polys: Vec<Vec<S>>, k: usize) -> Self {
        for (l, p) in polys.iter().enumerate() {
            assert_eq!(p.len(), k + 1, "label {l}: expected {} coefficients", k + 1);
        }
        ShardFactors { k, polys }
    }

    /// Slot budget K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of labels covered.
    pub fn n_labels(&self) -> usize {
        self.polys.len()
    }

    /// The partial slot polynomial of one label.
    pub fn poly(&self, label: usize) -> &[S] {
        &self.polys[label]
    }

    /// All per-label polynomials, in label order — the shape serializers
    /// (the `cp-rpc` wire codec) walk when putting factors on the wire.
    pub fn polys(&self) -> &[Vec<S>] {
        &self.polys
    }

    /// Replace one label's polynomial (the owning shard's update after a
    /// boundary step touches exactly one label).
    ///
    /// # Panics
    /// Panics if the polynomial does not have exactly `k + 1` coefficients.
    pub fn set_poly(&mut self, label: usize, poly: Vec<S>) {
        assert_eq!(
            poly.len(),
            self.k + 1,
            "expected {} coefficients",
            self.k + 1
        );
        self.polys[label] = poly;
    }

    /// A copy with one label's polynomial replaced — how the owning shard
    /// presents its factors with the boundary set excluded from its own
    /// label.
    ///
    /// # Panics
    /// Panics if the polynomial does not have exactly `k + 1` coefficients.
    pub fn with_poly(&self, label: usize, poly: Vec<S>) -> Self {
        let mut out = self.clone();
        out.set_poly(label, poly);
        out
    }

    /// Merge another shard's factors into this one (per-label truncated
    /// polynomial product). Associative; [`ShardFactors::identity`] is the
    /// unit.
    ///
    /// # Panics
    /// Panics on a label-count or K mismatch.
    pub fn merge_assign(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "slot budget mismatch");
        assert_eq!(self.polys.len(), other.polys.len(), "label count mismatch");
        for (mine, theirs) in self.polys.iter_mut().zip(&other.polys) {
            *mine = poly_mul(mine, theirs, self.k);
        }
    }

    /// [`ShardFactors::merge_assign`] returning a new value.
    pub fn merge(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.merge_assign(other);
        out
    }

    /// Borrowed per-label polynomials in the shape the support accumulators
    /// consume.
    pub fn poly_refs(&self) -> Vec<&[S]> {
        self.polys.iter().map(|p| p.as_slice()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_numeric::{BigUint, ScaledF64};
    use proptest::prelude::*;

    fn u(v: u64) -> u128 {
        v as u128
    }

    #[test]
    fn poly_mul_truncates() {
        // (1 + 2z)(3 + 4z) = 3 + 10z + 8z²; truncated at k=1 -> [3, 10]
        let a = vec![u(1), u(2)];
        let b = vec![u(3), u(4)];
        assert_eq!(poly_mul(&a, &b, 2), vec![3, 10, 8]);
        assert_eq!(poly_mul(&a, &b, 1), vec![3, 10]);
    }

    #[test]
    fn poly_one_is_identity() {
        let a = vec![u(5), u(7), u(9)];
        assert_eq!(poly_mul(&a, &poly_one::<u128>(2), 2), a);
    }

    /// Reference: direct product of degree-1 polys, truncated.
    fn direct_product(factors: &[(u128, u128)], k: usize) -> Vec<u128> {
        let mut acc = poly_one::<u128>(k);
        for &(out, in_) in factors {
            acc = poly_mul(&acc, &[out, in_], k);
        }
        acc
    }

    #[test]
    fn tree_matches_direct_product() {
        let factors = [(2u128, 3u128), (1, 4), (5, 0), (2, 2), (0, 7)];
        for k in 1..=4 {
            let mut tree = TallyTree::<u128>::new(factors.len(), k);
            for (i, &(o, n)) in factors.iter().enumerate() {
                tree.set_leaf(i, o, n);
            }
            assert_eq!(tree.root(), &direct_product(&factors, k)[..], "k={k}");
        }
    }

    #[test]
    fn tree_excluding_matches_direct_product_without_leaf() {
        let factors = [(2u128, 3u128), (1, 4), (5, 6), (2, 2)];
        let k = 3;
        let mut tree = TallyTree::<u128>::new(factors.len(), k);
        for (i, &(o, n)) in factors.iter().enumerate() {
            tree.set_leaf(i, o, n);
        }
        for skip in 0..factors.len() {
            let rest: Vec<(u128, u128)> = factors
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, &f)| f)
                .collect();
            assert_eq!(
                tree.excluding(skip),
                direct_product(&rest, k),
                "skip={skip}"
            );
        }
    }

    #[test]
    fn incremental_updates_keep_tree_consistent() {
        let k = 2;
        let mut tree = TallyTree::<u128>::new(3, k);
        let mut factors = [(1u128, 1u128); 3];
        for (i, &(o, n)) in factors.iter().enumerate() {
            tree.set_leaf(i, o, n);
        }
        // mutate leaves repeatedly, checking the root each time
        let updates = [(0, (3, 1)), (2, (0, 5)), (1, (2, 2)), (0, (1, 0))];
        for &(leaf, f) in &updates {
            factors[leaf] = f;
            tree.set_leaf(leaf, f.0, f.1);
            assert_eq!(tree.root(), &direct_product(&factors, k)[..]);
        }
    }

    #[test]
    fn bulk_load_and_rebuild_equals_incremental_set_leaf() {
        // every leaf count up to two full levels past a power of two, so
        // padded subtrees of every shape occur
        for n in 0..=9usize {
            for k in 0..=4 {
                let leaf = |i: usize| (i as f64 * 0.37 % 1.0, 1.0 / (i as f64 + 3.0));
                let mut incremental = TallyTree::<f64>::new(n, k);
                let mut bulk = TallyTree::<f64>::new(n, k);
                for i in 0..n {
                    let (o, v) = leaf(i);
                    incremental.set_leaf(i, o, v);
                    bulk.load_leaf(i, o, v);
                }
                bulk.rebuild();
                let bits = |t: &TallyTree<f64>| {
                    t.node_polys()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&bulk), bits(&incremental), "n={n} k={k}");

                let mut incremental = TallyTree::<u128>::new(n, k);
                let mut bulk = TallyTree::<u128>::new(n, k);
                for i in 0..n {
                    let (o, v) = (i as u128 % 3, i as u128 + 1);
                    incremental.set_leaf(i, o, v);
                    bulk.load_leaf(i, o, v);
                }
                bulk.rebuild();
                assert_eq!(bulk.node_polys(), incremental.node_polys(), "n={n} k={k}");
            }
        }
    }

    /// One tree loaded with every leaf, one with only the non-identity
    /// leaves (`None` is the identity `1 + 0·z`), both rebuilt: their node
    /// polynomials, root first.
    fn full_and_sparse<S: CountSemiring>(leaves: &[Option<(S, S)>], k: usize) -> [Vec<S>; 2] {
        let n = leaves.len();
        let (mut full, mut sparse) = (TallyTree::new(n, k), TallyTree::new(n, k));
        for (i, leaf) in leaves.iter().enumerate() {
            let (out, in_) = leaf.clone().unwrap_or((S::one(), S::zero()));
            full.load_leaf(i, out.clone(), in_.clone());
            if leaf.is_some() {
                sparse.load_leaf(i, out, in_);
            }
        }
        full.rebuild();
        sparse.rebuild();
        [full.node_polys(), sparse.node_polys()]
    }

    proptest! {
        #[test]
        fn sparse_rebuild_equals_full_rebuild_node_for_node(
            drawn in proptest::collection::vec((0u8..6, 0u8..4), 0..=40),
            k in 0usize..=4,
        ) {
            // out-masses 4 and 5 stand for the identity: about a third of
            // the leaves are left unloaded
            let leaves: Vec<Option<(u8, u8)>> =
                drawn.into_iter().map(|(o, i)| (o < 4).then_some((o, i))).collect();
            let as_f64 = |x: u8| x as f64 / 3.0;
            let f64_leaves: Vec<_> =
                leaves.iter().map(|l| l.map(|(o, i)| (as_f64(o), as_f64(i)))).collect();
            let [full, sparse] = full_and_sparse(&f64_leaves, k);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&full), bits(&sparse));

            let scaled: Vec<_> = f64_leaves
                .iter()
                .map(|l| l.map(|(o, i)| (ScaledF64::from_f64(o), ScaledF64::from_f64(i))))
                .collect();
            let [full, sparse] = full_and_sparse(&scaled, k);
            prop_assert!(full == sparse);

            let big: Vec<_> = leaves
                .iter()
                .map(|l| l.map(|(o, i)| (BigUint::from_u64(o as u64), BigUint::from_u64(i as u64))))
                .collect();
            let [full, sparse] = full_and_sparse(&big, k);
            prop_assert_eq!(full, sparse);
        }
    }

    #[test]
    fn empty_tree_root_is_identity() {
        let tree = TallyTree::<u128>::new(0, 3);
        assert_eq!(tree.root(), &poly_one::<u128>(3)[..]);
    }

    #[test]
    fn single_leaf_excluding_gives_identity() {
        let mut tree = TallyTree::<u128>::new(1, 2);
        tree.set_leaf(0, 7, 9);
        assert_eq!(tree.excluding(0), poly_one::<u128>(2));
        assert_eq!(tree.root(), &[7u128, 9, 0][..]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_leaf_rejects_out_of_range() {
        let mut tree = TallyTree::<u128>::new(2, 1);
        tree.set_leaf(5, 1, 1);
    }

    fn factors(polys: &[&[u128]], k: usize) -> ShardFactors<u128> {
        ShardFactors::from_polys(polys.iter().map(|p| p.to_vec()).collect(), k)
    }

    #[test]
    fn shard_factors_merge_is_associative_with_identity() {
        let k = 2;
        let a = factors(&[&[1, 2, 3], &[2, 0, 1]], k);
        let b = factors(&[&[4, 1, 0], &[1, 5, 2]], k);
        let c = factors(&[&[0, 3, 1], &[2, 2, 2]], k);
        // associativity: (a·b)·c == a·(b·c)
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        // identity laws
        let one = ShardFactors::<u128>::identity(2, k);
        assert_eq!(a.merge(&one), a);
        assert_eq!(one.merge(&a), a);
        assert_eq!(one.n_labels(), 2);
        assert_eq!(one.k(), k);
    }

    #[test]
    fn shard_factors_merge_matches_per_label_poly_mul() {
        let k = 3;
        let a = factors(&[&[1, 2, 0, 1], &[3, 1, 1, 0]], k);
        let b = factors(&[&[2, 1, 1, 0], &[1, 0, 4, 2]], k);
        let merged = a.merge(&b);
        for l in 0..2 {
            assert_eq!(merged.poly(l), &poly_mul(a.poly(l), b.poly(l), k)[..]);
        }
        assert_eq!(merged.poly_refs().len(), 2);
    }

    #[test]
    fn shard_factors_with_poly_replaces_one_label() {
        let k = 1;
        let a = factors(&[&[1, 2], &[3, 4]], k);
        let b = a.with_poly(0, vec![7, 8]);
        assert_eq!(b.poly(0), &[7u128, 8][..]);
        assert_eq!(b.poly(1), a.poly(1));
        assert_eq!(a.poly(0), &[1u128, 2][..], "original untouched");
    }

    #[test]
    #[should_panic(expected = "coefficients")]
    fn shard_factors_reject_wrong_degree() {
        ShardFactors::<u128>::from_polys(vec![vec![1, 2, 3]], 1);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn shard_factors_reject_label_mismatch() {
        let a = ShardFactors::<u128>::identity(2, 1);
        let b = ShardFactors::<u128>::identity(3, 1);
        a.merge(&b);
    }

    #[test]
    fn works_with_f64_probability_space() {
        let mut tree = TallyTree::<f64>::new(2, 2);
        tree.set_leaf(0, 0.25, 0.75);
        tree.set_leaf(1, 0.5, 0.5);
        let root = tree.root();
        assert!((root[0] - 0.125).abs() < 1e-12);
        assert!((root[1] - (0.25 * 0.5 + 0.75 * 0.5)).abs() < 1e-12);
        assert!((root[2] - 0.375).abs() < 1e-12);
        // probabilities conserve mass
        assert!((root.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
