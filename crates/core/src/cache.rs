//! Per-validation-point similarity-index cache.
//!
//! Pinning never changes candidate similarities — a [`Pins`] mask only
//! decides which candidates *participate* in a scan — so the sorted
//! similarity structure of a fixed query point is invariant across an entire
//! cleaning run. [`ValIndexCache`] exploits that: it builds every query
//! point's [`SimilarityIndex`] exactly once (in parallel) and hands out
//! `Arc`-shared references, turning a repeated per-iteration index cost
//! into a one-time `O(|val| × NM)` build.
//!
//! The `*_with_cache` entry points mirror the [`crate::batch`] API but
//! evaluate against the cached indexes; `cp_clean`'s `CleaningSession` owns
//! one cache per run and drives every per-iteration query through it.

use crate::batch::{certain_labels_batch_with_indexes, evaluate_batch_with_indexes, BatchSummary};
use crate::config::CpConfig;
use crate::dataset::IncompleteDataset;
use crate::pins::Pins;
use crate::queries::q2_probabilities_with_index;
use crate::similarity::SimilarityIndex;
use cp_knn::{Kernel, Label};
use rayon::prelude::*;
use std::sync::Arc;

/// Similarity indexes for a fixed set of query points, built once and
/// `Arc`-shared thereafter.
///
/// The query points themselves are also held behind an `Arc`: a cleaning
/// session hands its problem's (already `Arc`-shared) validation features
/// straight to its cache, so opening any number of sessions or caches over
/// one problem keeps exactly one `val_x` allocation alive.
#[derive(Clone, Debug)]
pub struct ValIndexCache {
    kernel: Kernel,
    points: Arc<Vec<Vec<f64>>>,
    indexes: Vec<Arc<SimilarityIndex>>,
}

impl ValIndexCache {
    /// Build the index of every point (one parallel pass; `O(NM)` each —
    /// the only time this cost is paid for these points).
    pub fn build(ds: &IncompleteDataset, kernel: Kernel, points: &[Vec<f64>]) -> Self {
        let indexes: Vec<Arc<SimilarityIndex>> = points
            .par_iter()
            .map(|t| Arc::new(SimilarityIndex::build(ds, kernel, t)))
            .collect();
        ValIndexCache {
            kernel,
            points: Arc::new(points.to_vec()),
            indexes,
        }
    }

    /// [`ValIndexCache::build`] with the kernel taken from a [`CpConfig`].
    pub fn for_config(ds: &IncompleteDataset, cfg: &CpConfig, points: &[Vec<f64>]) -> Self {
        Self::build(ds, cfg.kernel, points)
    }

    /// Assemble a cache from indexes built elsewhere — the hook for callers
    /// that must control the build parallelism themselves (e.g. a cleaning
    /// session capping how many pool threads build its indexes).
    /// `points` is taken as a shared handle so a session's cache aliases the
    /// problem's validation features instead of copying them.
    ///
    /// # Panics
    /// Panics if `points` and `indexes` lengths differ.
    pub fn from_indexes(
        kernel: Kernel,
        points: Arc<Vec<Vec<f64>>>,
        indexes: Vec<Arc<SimilarityIndex>>,
    ) -> Self {
        assert_eq!(
            points.len(),
            indexes.len(),
            "points/indexes length mismatch"
        );
        ValIndexCache {
            kernel,
            points,
            indexes,
        }
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// `true` iff the cache holds no points.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// The kernel the indexes were built with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The cached query points, in cache order.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// The shared handle to the cached query points — lets callers check
    /// (or keep) the aliasing with the problem's own validation features.
    pub fn points_shared(&self) -> &Arc<Vec<Vec<f64>>> {
        &self.points
    }

    /// Query point `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i]
    }

    /// All shared indexes, in cache order — the shape the
    /// `*_batch_with_indexes` entry points consume.
    pub fn indexes(&self) -> &[Arc<SimilarityIndex>] {
        &self.indexes
    }
}

/// `cache[i]` is the shared index of point `i` (clone the `Arc` to hold it
/// across threads).
impl std::ops::Index<usize> for ValIndexCache {
    type Output = Arc<SimilarityIndex>;

    fn index(&self, i: usize) -> &Arc<SimilarityIndex> {
        &self.indexes[i]
    }
}

/// Debug-check that a cache is being queried against the configuration and
/// dataset it was built for: a kernel mismatch silently reorders neighbors,
/// and a dataset mismatch indexes a stale candidate layout.
fn debug_check_cache(ds: &IncompleteDataset, cfg: &CpConfig, cache: &ValIndexCache) {
    debug_assert_eq!(
        cfg.kernel,
        cache.kernel(),
        "cache built under a different kernel"
    );
    if let Some(idx) = cache.indexes().first() {
        debug_assert_eq!(
            idx.len(),
            ds.total_candidates(),
            "cache built over a different dataset (candidate count mismatch)"
        );
    }
}

/// The certainly-predicted label per cached point under a pin mask —
/// [`crate::batch::certain_labels_batch_pinned`] minus the per-call index
/// builds.
pub fn certain_labels_with_cache(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    cache: &ValIndexCache,
    pins: &Pins,
) -> Vec<Option<Label>> {
    debug_check_cache(ds, cfg, cache);
    certain_labels_batch_with_indexes(ds, cfg, cache.indexes(), pins)
}

/// Full certainty summary per cached point under a pin mask —
/// [`crate::batch::evaluate_batch`] minus the per-call index builds.
pub fn evaluate_with_cache(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    cache: &ValIndexCache,
    pins: &Pins,
) -> BatchSummary {
    debug_check_cache(ds, cfg, cache);
    evaluate_batch_with_indexes(ds, cfg, cache.indexes(), pins)
}

/// Q2 prediction probabilities per cached point under a pin mask —
/// [`crate::batch::q2_probabilities_batch`] minus the per-call index builds.
pub fn q2_probabilities_with_cache(
    ds: &IncompleteDataset,
    cfg: &CpConfig,
    cache: &ValIndexCache,
    pins: &Pins,
) -> Vec<Vec<f64>> {
    debug_check_cache(ds, cfg, cache);
    cache
        .indexes()
        .par_iter()
        .map(|idx| q2_probabilities_with_index(ds, cfg, idx, pins))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::evaluate_batch;
    use crate::dataset::IncompleteExample;
    use crate::queries::{certain_label, q2_probabilities};
    use crate::similarity;

    fn figure6() -> (IncompleteDataset, Vec<Vec<f64>>) {
        let ds = IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![0.0], vec![8.0]], 1),
                IncompleteExample::incomplete(vec![vec![2.0], vec![4.0]], 1),
                IncompleteExample::incomplete(vec![vec![6.0], vec![9.0]], 0),
            ],
            2,
        )
        .unwrap();
        let points = vec![vec![10.0], vec![-1.0], vec![4.5], vec![7.0]];
        (ds, points)
    }

    #[test]
    fn cache_matches_per_call_builds() {
        let (ds, points) = figure6();
        for k in [1, 3] {
            let cfg = CpConfig::new(k);
            let cache = ValIndexCache::for_config(&ds, &cfg, &points);
            assert_eq!(cache.len(), points.len());
            let pins = Pins::none(ds.len());
            let labels = certain_labels_with_cache(&ds, &cfg, &cache, &pins);
            let probs = q2_probabilities_with_cache(&ds, &cfg, &cache, &pins);
            for (i, t) in points.iter().enumerate() {
                assert_eq!(cache.point(i), t.as_slice());
                assert_eq!(labels[i], certain_label(&ds, &cfg, t));
                assert_eq!(probs[i], q2_probabilities(&ds, &cfg, t));
            }
        }
    }

    #[test]
    fn cached_summary_matches_batch_under_pins() {
        let (ds, points) = figure6();
        let cfg = CpConfig::new(1);
        let cache = ValIndexCache::for_config(&ds, &cfg, &points);
        for pins in [
            Pins::none(ds.len()),
            Pins::single(ds.len(), 1, 0),
            Pins::from_pairs(ds.len(), &[(0, 0), (2, 1)]),
        ] {
            let cached = evaluate_with_cache(&ds, &cfg, &cache, &pins);
            let rebuilt = evaluate_batch(&ds, &cfg, &points, &pins);
            assert_eq!(cached, rebuilt, "pins={pins:?}");
        }
    }

    #[test]
    fn cache_shares_indexes_by_arc_identity() {
        let (ds, points) = figure6();
        let cfg = CpConfig::new(3);
        let cache = ValIndexCache::for_config(&ds, &cfg, &points);
        // the global build counter moves (concurrent tests also build), so
        // assert the cache-local reuse property: clones share the same
        // underlying indexes rather than rebuilding
        assert!(similarity::build_count() >= points.len() as u64);
        let again = cache.clone();
        for i in 0..cache.len() {
            assert!(Arc::ptr_eq(&cache[i], &again[i]));
        }
    }

    #[test]
    fn empty_cache_is_fine() {
        let (ds, _) = figure6();
        let cfg = CpConfig::new(1);
        let cache = ValIndexCache::for_config(&ds, &cfg, &[]);
        assert!(cache.is_empty());
        assert!(certain_labels_with_cache(&ds, &cfg, &cache, &Pins::none(ds.len())).is_empty());
    }
}
