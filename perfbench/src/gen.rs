//! The benchmark's own seeded input generator.
//!
//! Each workload has one base instance (Gaussian features, uniform labels,
//! random true and default candidates), drawn from the workload's instance
//! seed. A run's seed draws a rotation plus shift of the feature space and
//! applies it to every candidate and query point. Every feature value
//! changes with the seed, but distances, and so the similarity order that
//! every query and every greedy step depends on, do not: the work a run
//! does is the same for every seed, up to rounding of near-ties.
//! Independent random instances differ several-fold in how many steps
//! greedy cleaning needs, which would swamp any change a run is meant to
//! detect. (Permuting rows, candidates or labels as well would keep the
//! geometry but reorder floating-point sums, which flips near-tied greedy
//! picks and with them the step count.)
//!
//! Dirty rows are scattered over the row range rather than placed first:
//! the RPC coordinator partitions rows contiguously, so dirty rows packed
//! at the front would all land on shard 0 and leave the other servers
//! idle.

use cp_clean::CleaningProblem;
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};

/// SplitMix64: a small, fast, fully deterministic generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn gauss(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Shape of one generated instance.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Training rows.
    pub n: usize,
    /// Candidates per dirty row.
    pub m: usize,
    /// Share of rows that are dirty.
    pub dirty_frac: f64,
    pub n_labels: usize,
    pub dim: usize,
    /// Validation (or test) points.
    pub n_val: usize,
    /// K of the KNN classifier.
    pub k: usize,
    /// Seed of the base instance every run transforms.
    pub instance: u64,
}

impl Shape {
    pub fn n_dirty(&self) -> usize {
        ((self.n as f64) * self.dirty_frac).round() as usize
    }
}

/// A random rotation (Gram–Schmidt over Gaussian vectors) plus a shift.
struct Isometry {
    rows: Vec<Vec<f64>>,
    shift: Vec<f64>,
}

impl Isometry {
    fn random(dim: usize, rng: &mut Rng) -> Self {
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(dim);
        while rows.len() < dim {
            let mut v: Vec<f64> = (0..dim).map(|_| rng.gauss()).collect();
            for r in &rows {
                let dot: f64 = v.iter().zip(r).map(|(a, b)| a * b).sum();
                v.iter_mut().zip(r).for_each(|(a, b)| *a -= dot * b);
            }
            let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
            if norm > 1e-6 {
                rows.push(v.into_iter().map(|a| a / norm).collect());
            }
        }
        let shift = (0..dim).map(|_| rng.gauss()).collect();
        Isometry { rows, shift }
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        self.rows
            .iter()
            .zip(&self.shift)
            .map(|(r, s)| r.iter().zip(x).map(|(a, b)| a * b).sum::<f64>() + s)
            .collect()
    }
}

/// An incomplete dataset of `shape` plus `shape.n_val` query points.
pub fn dataset(shape: &Shape, seed: u64) -> (IncompleteDataset, Vec<Vec<f64>>) {
    let p = problem(shape, seed);
    (p.dataset, p.val_x.to_vec())
}

/// A cleaning problem over `shape`'s base instance, its features rotated
/// and shifted by an isometry drawn from `seed`.
pub fn problem(shape: &Shape, seed: u64) -> CleaningProblem {
    let mut rng = Rng::new(shape.instance);
    let mut rows: Vec<usize> = (0..shape.n).collect();
    rng.shuffle(&mut rows);
    let mut dirty = vec![false; shape.n];
    for &row in &rows[..shape.n_dirty()] {
        dirty[row] = true;
    }
    let gauss_vec = |rng: &mut Rng| -> Vec<f64> { (0..shape.dim).map(|_| rng.gauss()).collect() };
    let mut examples = Vec::with_capacity(shape.n);
    for &is_dirty in &dirty {
        let label = rng.below(shape.n_labels);
        let n_cands = if is_dirty { shape.m } else { 1 };
        let candidates = (0..n_cands).map(|_| gauss_vec(&mut rng)).collect();
        examples.push((candidates, label));
    }
    let points: Vec<Vec<f64>> = (0..shape.n_val).map(|_| gauss_vec(&mut rng)).collect();
    let mut choices = || -> Vec<Option<usize>> {
        dirty
            .iter()
            .map(|&d| d.then(|| rng.below(shape.m)))
            .collect()
    };
    let truth = choices();
    let default = choices();

    let iso = Isometry::random(shape.dim, &mut Rng::new(seed));
    let examples = examples
        .into_iter()
        .map(|(cands, label): (Vec<Vec<f64>>, usize)| {
            IncompleteExample::incomplete(cands.iter().map(|c| iso.apply(c)).collect(), label)
        })
        .collect();
    let ds = IncompleteDataset::new(examples, shape.n_labels).expect("generator invariants");
    let points = points.iter().map(|p| iso.apply(p)).collect();
    CleaningProblem::new(ds, CpConfig::new(shape.k), points, truth, default)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        n: 200,
        m: 3,
        dirty_frac: 0.3,
        n_labels: 2,
        dim: 3,
        n_val: 4,
        k: 3,
        instance: 1,
    };

    #[test]
    fn same_seed_same_problem() {
        let a = problem(&SHAPE, 5);
        let b = problem(&SHAPE, 5);
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.val_x, b.val_x);
        assert_eq!(a.truth_choice, b.truth_choice);
        assert_ne!(a.dataset, problem(&SHAPE, 6).dataset);
    }

    #[test]
    fn seeds_move_every_feature_but_keep_the_similarity_order() {
        let a = problem(&SHAPE, 5);
        let b = problem(&SHAPE, 6);
        assert_ne!(a.val_x[0], b.val_x[0]);
        assert_eq!(a.truth_choice, b.truth_choice);
        for (ta, tb) in a.val_x.iter().zip(b.val_x.iter()) {
            let ia = cp_core::SimilarityIndex::build(&a.dataset, a.config.kernel, ta);
            let ib = cp_core::SimilarityIndex::build(&b.dataset, b.config.kernel, tb);
            assert_eq!(ia.order(), ib.order());
        }
    }

    #[test]
    fn dirty_rows_are_scattered_over_both_halves() {
        let p = problem(&SHAPE, 1);
        let dirty = p.dataset.dirty_indices();
        assert_eq!(dirty.len(), SHAPE.n_dirty());
        let low = dirty.iter().filter(|&&r| r < SHAPE.n / 2).count();
        assert!(low > dirty.len() / 4 && low < dirty.len() * 3 / 4);
    }
}
