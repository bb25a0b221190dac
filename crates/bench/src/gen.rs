//! Random incomplete-dataset instances for micro-benchmarks and scaling
//! studies (Figure 4): parameterized directly by the complexity knobs
//! `N`, `M`, `|Y|` and feature dimension.

use cp_clean::CleaningProblem;
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Generate an incomplete dataset with `n` examples, `m` candidates per
/// dirty example (`dirty_frac` of them), `n_labels` classes and `dim`
/// standard-normal features. Returns the dataset and a matching test point.
pub fn random_incomplete_dataset(
    n: usize,
    m: usize,
    dirty_frac: f64,
    n_labels: usize,
    dim: usize,
    seed: u64,
) -> (IncompleteDataset, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gauss = |rng: &mut StdRng| {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let n_dirty = ((n as f64) * dirty_frac).round() as usize;
    let examples: Vec<IncompleteExample> = (0..n)
        .map(|i| {
            let label = rng.gen_range(0..n_labels);
            let n_cands = if i < n_dirty { m } else { 1 };
            let candidates: Vec<Vec<f64>> = (0..n_cands)
                .map(|_| (0..dim).map(|_| gauss(&mut rng)).collect())
                .collect();
            IncompleteExample::incomplete(candidates, label)
        })
        .collect();
    let ds = IncompleteDataset::new(examples, n_labels).expect("generator invariants");
    let t: Vec<f64> = (0..dim).map(|_| gauss(&mut rng)).collect();
    (ds, t)
}

/// A binary cleaning problem over [`random_incomplete_dataset`] (30%
/// dirty, 3 features, K = 3): seeded truth and default choices and `n_val`
/// standard-normal validation points — the instance the RPC smoke binaries
/// share.
pub fn synthetic_problem(n: usize, m: usize, n_val: usize, seed: u64) -> CleaningProblem {
    let (dataset, _) = random_incomplete_dataset(n, m, 0.3, 2, 3, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbead);
    let choices = |rng: &mut StdRng| -> Vec<Option<usize>> {
        (0..dataset.len())
            .map(|i| {
                let m = dataset.set_size(i);
                (m > 1).then(|| rng.gen_range(0..m))
            })
            .collect()
    };
    let truth_choice = choices(&mut rng);
    let default_choice = choices(&mut rng);
    let gauss = |rng: &mut StdRng| {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let val_x: Vec<Vec<f64>> = (0..n_val)
        .map(|_| (0..dataset.dim()).map(|_| gauss(&mut rng)).collect())
        .collect();
    CleaningProblem::new(
        dataset,
        CpConfig::new(3),
        val_x,
        truth_choice,
        default_choice,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_parameters() {
        let (ds, t) = random_incomplete_dataset(20, 4, 0.25, 3, 5, 1);
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.n_labels(), 3);
        assert_eq!(ds.dim(), 5);
        assert_eq!(t.len(), 5);
        assert_eq!(ds.dirty_indices().len(), 5);
        for &i in &ds.dirty_indices() {
            assert_eq!(ds.set_size(i), 4);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, ta) = random_incomplete_dataset(10, 3, 0.5, 2, 2, 9);
        let (b, tb) = random_incomplete_dataset(10, 3, 0.5, 2, 2, 9);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }
}
