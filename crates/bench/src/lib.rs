//! # cp-bench — benchmark and experiment harness
//!
//! One regenerator binary per table/figure of the paper's evaluation
//! (DESIGN.md §4 maps each):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — dataset characteristics |
//! | `table2` | Table 2 — end-to-end gap closed per cleaning method |
//! | `figure4_scaling` | Figure 4 — complexity summary, as empirical log-log scaling fits |
//! | `figure9` | Figure 9 — CPClean vs RandomClean cleaning curves |
//! | `figure10` | Figure 10 — varying the validation-set size |
//! | `run_all` | everything above in sequence |
//!
//! plus Criterion micro-benchmarks (`cargo bench -p cp-bench`) covering the
//! SS/MM ablations. The library half hosts shared plumbing: random-instance
//! generators, the `PreparedDataset → CleaningProblem` adapter, the
//! end-to-end Table 2 runner and a tiny markdown reporter.

pub mod experiments;
pub mod gen;
pub mod report;

pub use experiments::{
    problem_from_prepared, run_end_to_end, run_end_to_end_averaged, seed_style_status_updates,
    EndToEndResult, ExperimentScale,
};
pub use gen::{random_incomplete_dataset, synthetic_problem};
pub use report::Reporter;
