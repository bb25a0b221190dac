//! # cp-shard — partition-parallel certain predictions
//!
//! The factor-merge algebra behind the sharded CP engine: one incomplete
//! dataset is partitioned into contiguous row-range [`DatasetShard`]s, each
//! shard scans **only its own candidate sets**, and a coordinator
//! reassembles exact global answers from compact per-shard summaries. The
//! engine that drives it is `cp-rpc`'s `RpcCoordinator`: each shard server
//! scans its own shard and records the scan as one [`ShardStream`]
//! ([`ShardStream::capture`]); only the recorded streams and the extreme
//! summaries cross the boundary, and the coordinator merges recorded
//! streams only ([`merged_scan_sources`] over [`StreamCursor`]s).
//!
//! ## The factor-merge algebra
//!
//! The SS counting algorithm's per-label support is a product of per-set
//! slot polynomials (`out + in·z`, truncated at degree K). Products
//! factorize over any partition of the candidate sets, so for shards
//! `D = D₁ ∪ … ∪ D_S` and every label `l`:
//!
//! ```text
//! poly_l(D) = poly_l(D₁) · poly_l(D₂) · … · poly_l(D_S)   (mod z^{K+1})
//! ```
//!
//! Each shard maintains its partial `poly_l` incrementally in per-label
//! tally trees (exactly the single-process SS-DC machinery, over fewer
//! leaves) and records it as a [`cp_core::ShardFactors`] value: `|Y|·(K+1)`
//! semiring coefficients, independent of shard size. `ShardFactors::merge`
//! is associative with an identity, so the coordinator may combine shard
//! summaries pairwise, tree-wise, or in streaming order; world-mass totals
//! merge by semiring multiplication ([`cp_core::merge_totals`]). Truncation
//! at degree K commutes with merging because a product coefficient of
//! degree ≤ K never consumes factor coefficients of degree > K.
//!
//! The only global sequencing the scan needs is the boundary order: the
//! coordinator merges the shards' (locally sorted) recorded streams by the
//! same `(similarity, row, candidate)` total order the single-process scan
//! sorts by, takes the owning shard's recorded factors at each event, and
//! accumulates supports from the merged factors. Counts are therefore
//! **exactly** — bit-for-bit in exact semirings — the single-process counts,
//! for every shard count; the property tests in `tests/shard_equivalence.rs`
//! assert this for every `Q2Algorithm` selector
//! ([`q2_from_streams_with_algorithm`]).
//!
//! ## The rank-merge algebra (binary Q1)
//!
//! MinMax does not factor into polynomial products (per-set extremes are
//! not products), but it decomposes by **rank**: each shard's extreme-world
//! choices are purely local, and the global extreme worlds' top-K is the
//! top-K of the per-shard top-Ks. [`scan::extreme_summaries`] builds one
//! rank-ordered [`cp_core::ExtremeSummary`] per shard (`O(|Y|·K)` entries,
//! independent of shard size; associative merge with identity, law-tested
//! like `ShardFactors`), and
//! [`scan::certain_label_from_summaries`] folds them and runs the cheap
//! two-extreme-worlds check — so sharded status checks on binary label
//! spaces skip the boundary-event stream and the tally trees entirely,
//! recovering the single-process MM fast path (the coordinator dispatches
//! binary status checks to it; other label spaces merge `Possibility`
//! streams with [`certain_label_from_streams`]).
//!
//! What still does *not* decompose: brute force (worlds couple across
//! shards) and the non-tree SortScan selectors. Those selectors fall back
//! gracefully to the merged tree scan — same exact answers, different
//! constant factors (see [`q2_from_streams_with_algorithm`]).
//!
//! ## Layers
//!
//! * [`scan`] — the batched [`ShardStream`]s and [`SweptStream`]s a shard
//!   server captures, the merge loops over their [`StreamCursor`]s, and the
//!   query functions over recorded streams (`*_from_streams`) and extreme
//!   summaries.

pub mod scan;

pub use scan::{
    build_shard_indexes, capture_streams, certain_label_from_streams, certain_label_from_summaries,
    extreme_summaries, local_pins, merged_scan_sources, merged_sweep_sources, q2_from_streams,
    q2_from_streams_with_algorithm, BoundaryEvent, ShardStream, ShardStreamEvent, StreamCursor,
    SweptStream,
};

/// Re-export: the partition type the whole crate operates on.
pub use cp_core::DatasetShard;

/// Re-export: the mergeable per-label factor summary.
pub use cp_core::ShardFactors;

/// Re-export: the mergeable rank-ordered MM summary (binary Q1 fast path).
pub use cp_core::ExtremeSummary;
