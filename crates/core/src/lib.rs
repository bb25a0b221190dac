//! # cp-core — Certain Predictions over incomplete data
//!
//! Implementation of the certain-prediction (CP) framework of *"Nearest
//! Neighbor Classifiers over Incomplete Information: From Certain Answers to
//! Certain Predictions"* (Karlaš et al., VLDB 2020).
//!
//! An [`IncompleteDataset`] assigns each training example a *candidate set*
//! of feature vectors; choosing one candidate per example yields a *possible
//! world* — exponentially many of them. Two queries reason across all of
//! them at once for a K-nearest-neighbor classifier:
//!
//! * **Q1 (checking)** — [`queries::q1`]: is a label predicted in *every*
//!   possible world (is the test point *certainly predicted*)?
//! * **Q2 (counting)** — [`queries::q2`]: how many worlds support each label?
//!
//! Despite the `∏ M_i` world count, both run in (low-order) polynomial time:
//!
//! | algorithm | paper | complexity | module |
//! |-----------|-------|------------|--------|
//! | similarity index (per test point) | §3.1.2 | `O(NM + N·M log M)`, no global sort | [`similarity`] |
//! | SS, K=1 fast path | §3.1.2 | `O(NM log NM)` | [`ss_k1`] |
//! | SS general (naive DP) | §3.1.3 Alg. 1 | `O(NM·NK)` | [`ss`] |
//! | SS-DC (divide & conquer) | App. A.2 | paper `O(NM(log NM + K² log N))`; here `O(NM + T log T + (L + T)·K² log N)` per scan, `T` events past `τ` | [`ss_tree`] |
//! | SS-DC-MC (many classes) | App. A.3 | `+ O(NM·\|Y\|²K³)` | [`ss_mc`] |
//! | MM (MinMax), Q1 binary | §3.2 / App. B | `O(NM + N log K)` | [`mm`] |
//! | MM per-shard extreme summary | §3.2 | one `O(N)` pin-mask pass, then `O(K + P)` per direction for `P` pinned sets skipped; the first per index sorts the extreme order, `O(\|Y\|·N log N)` | [`mm_summary`] |
//! | brute force (reference) | §2.1 | `O(M^N)` | [`bruteforce`] |
//!
//! [`batch`] scales the same queries out over whole test sets: one rayon
//! task per test point, one [`SimilarityIndex`] built and reused per point,
//! and the per-query dispatch above applied automatically — plus aggregate
//! certainty statistics ([`BatchSummary`]) for the evaluation loops built on
//! top. For *repeated* evaluation of the same points under changing pins —
//! CPClean's iteration structure — [`cache::ValIndexCache`] builds each
//! point's index exactly once and the `*_with_indexes` / `*_with_cache`
//! entry points evaluate against it with zero per-call sorting.
//!
//! For scale-out beyond one process's batch parallelism, the data model and
//! counting algebra are *shardable*: [`IncompleteDataset::partition`] splits
//! a dataset into contiguous row-range [`DatasetShard`]s, and the label
//! supports every SortScan maintains factorize over any such partition into
//! mergeable per-label [`poly::ShardFactors`] (with [`mass::merge_totals`]
//! combining world masses) — the algebra the `cp-shard` crate's
//! partition-parallel query engine is built on. MM decomposes too, by a
//! different algebra: per-shard rank-ordered [`mm_summary::ExtremeSummary`]
//! values merge associatively into the global extreme worlds' top-K, so
//! binary Q1 keeps its fast path across shards.
//!
//! All counting code is generic over a [`cp_numeric::CountSemiring`], so the
//! same scan produces exact big-integer counts, underflow-free scaled counts,
//! label probabilities, or exact boolean certainty. [`prior`] extends Q2 to
//! non-uniform candidate priors (the block tuple-independent probabilistic
//! database view of §2.1), and [`pins::Pins`] provides the conditioning
//! primitive (`c_i = x_{i,j}`) CPClean's entropy objective is built on.

pub mod batch;
pub mod bruteforce;
pub mod cache;
pub mod config;
pub mod dataset;
pub mod mass;
pub mod mm;
pub mod mm_summary;
pub mod pins;
pub mod poly;
pub mod prior;
pub mod queries;
pub mod result;
pub mod similarity;
pub mod ss;
pub mod ss_k1;
pub mod ss_mc;
pub mod ss_tree;
pub mod tally;

pub use batch::{
    certain_labels_batch, certain_labels_batch_pinned, certain_labels_batch_with_indexes,
    evaluate_batch, evaluate_batch_with_indexes, q1_batch, q1_batch_pinned, q2_batch,
    q2_batch_pinned, q2_batch_with_algorithm, q2_probabilities_batch, q2_weighted_batch,
    BatchSummary,
};
pub use cache::{
    certain_labels_with_cache, evaluate_with_cache, q2_probabilities_with_cache, ValIndexCache,
};
pub use config::CpConfig;
pub use dataset::{DatasetError, DatasetShard, IncompleteDataset, IncompleteExample};
pub use mass::merge_totals;
pub use mm_summary::{ExtremeEntry, ExtremeSummary};
pub use pins::Pins;
pub use poly::ShardFactors;
pub use queries::{
    certain_label, certain_label_with_index, note_q2_probability_query, prediction_entropy_bits,
    q1, q1_with_index, q2, q2_probabilities, q2_probabilities_with_index, q2_probability_count,
    q2_with_algorithm, PinnedProbabilities, Q2Algorithm,
};
pub use result::Q2Result;
pub use similarity::{CandKey, SimilarityIndex};

/// A class label (re-exported from `cp-knn`).
pub use cp_knn::Label;
