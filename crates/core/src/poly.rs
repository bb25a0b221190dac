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
#[derive(Clone, Debug)]
pub struct TallyTree<S> {
    /// Slot budget K: polynomials keep K+1 coefficients.
    k: usize,
    /// Number of real leaves (candidate sets of one label).
    n_leaves: usize,
    /// Leaf capacity (next power of two, at least 1).
    cap: usize,
    /// Flattened node polynomials; node `v` occupies
    /// `nodes[v*(k+1) .. (v+1)*(k+1)]`. Nodes are 1-indexed (root = 1),
    /// leaves at `cap + leaf`.
    nodes: Vec<S>,
}

impl<S: CountSemiring> TallyTree<S> {
    /// Build a tree of `n_leaves` identity polynomials.
    pub fn new(n_leaves: usize, k: usize) -> Self {
        cp_obs::counter!("core.poly.tree_builds").inc();
        let _span = cp_obs::span!("core.poly.tree_build_us");
        let cap = n_leaves.max(1).next_power_of_two();
        let stride = k + 1;
        let mut nodes = vec![S::zero(); 2 * cap * stride];
        // every node starts as the identity polynomial
        for v in 1..2 * cap {
            nodes[v * stride] = S::one();
        }
        TallyTree {
            k,
            n_leaves,
            cap,
            nodes,
        }
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
        let stride = self.k + 1;
        &self.nodes[v * stride..(v + 1) * stride]
    }

    /// Set leaf `leaf`'s polynomial to `out + in·z` and refresh its
    /// ancestors. Cost `O(K² log N)`.
    ///
    /// # Panics
    /// Panics if `leaf >= n_leaves`.
    pub fn set_leaf(&mut self, leaf: usize, out: S, in_: S) {
        self.load_leaf(leaf, out, in_);
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
    /// before reading the tree.
    ///
    /// # Panics
    /// Panics if `leaf >= n_leaves`.
    pub fn load_leaf(&mut self, leaf: usize, out: S, in_: S) {
        assert!(leaf < self.n_leaves, "leaf index out of range");
        let stride = self.k + 1;
        let base = (self.cap + leaf) * stride;
        self.nodes[base] = out;
        if self.k >= 1 {
            self.nodes[base + 1] = in_;
            for c in 2..=self.k {
                self.nodes[base + c] = S::zero();
            }
        }
    }

    /// Recompute every internal node above a real leaf from its children,
    /// bottom-up, in `O(N·K²)`. After [`TallyTree::load_leaf`] calls this
    /// leaves the node array exactly as the same leaves written through
    /// [`TallyTree::set_leaf`] would: every such node is the same product of
    /// its final children, and nodes above only padding stay the identity.
    pub fn rebuild(&mut self) {
        let (mut first, mut live) = (self.cap, self.n_leaves);
        while first > 1 {
            first /= 2;
            live = live.div_ceil(2);
            for node in first..first + live {
                self.refresh(node);
            }
        }
    }

    /// Overwrite internal node `node` with the truncated product of its two
    /// children, in place.
    fn refresh(&mut self, node: usize) {
        let stride = self.k + 1;
        // children live at 2·node and 2·node + 1, strictly after the parent
        let (head, children) = self.nodes.split_at_mut(2 * node * stride);
        let (left, right) = children[..2 * stride].split_at(stride);
        poly_mul_into(
            left,
            right,
            self.k,
            &mut head[node * stride..(node + 1) * stride],
        );
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
                let bits =
                    |t: &TallyTree<f64>| t.nodes.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&bulk), bits(&incremental), "n={n} k={k}");

                let mut incremental = TallyTree::<u128>::new(n, k);
                let mut bulk = TallyTree::<u128>::new(n, k);
                for i in 0..n {
                    let (o, v) = (i as u128 % 3, i as u128 + 1);
                    incremental.set_leaf(i, o, v);
                    bulk.load_leaf(i, o, v);
                }
                bulk.rebuild();
                assert_eq!(bulk.nodes, incremental.nodes, "n={n} k={k}");
            }
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
