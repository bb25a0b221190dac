//! # cp-clean — data cleaning for machine learning
//!
//! The paper's application layer (§4–§5): given a dirty training set with
//! candidate repairs, a complete validation set, and a (simulated) human who
//! can reveal one row's true value at a time, decide *what to clean* so the
//! downstream KNN classifier behaves as if trained on the ground truth.
//!
//! * [`cpclean`] — **CPClean** (Algorithm 3): sequential information
//!   maximization over the Q2-based conditional entropy of validation
//!   predictions; terminates when every validation example is certainly
//!   predicted, at which point any remaining possible world — including the
//!   unknown ground truth — has identical validation accuracy.
//! * [`session`] — the **stateful cleaning engine**: a [`CleaningSession`]
//!   owns the run's cached similarity indexes and incrementally maintained
//!   CP status; `run_cpclean` and the baselines are thin wrappers over it.
//! * [`selection`] — **incremental greedy selection**: the epoch-keyed
//!   score cache, top-K relevance analysis and entropy-bound pruning shared
//!   by every engine's `select_next` (this crate's session and `cp-rpc`'s
//!   sharded coordinator).
//! * [`random_clean`] — the RandomClean baseline (same machinery, random
//!   order).
//! * [`boostclean`] — BoostClean: validation-driven selection (plus
//!   boosting) over the predefined repair-method family.
//! * [`holoclean_sim`] — a HoloClean-style standalone probabilistic cleaner:
//!   correlation-driven most-likely-value imputation, oblivious to the
//!   downstream task (see the module docs for the substitution rationale).
//! * [`metrics`] — the "gap closed" score and cleaning curves (Figures 9/10).

pub mod boostclean;
pub mod cpclean;
pub mod eval;
pub mod holoclean_sim;
pub mod metrics;
pub mod problem;
pub mod random_clean;
pub mod selection;
pub mod session;
pub mod state;

pub use boostclean::{run_boostclean, BoostCleanResult};
pub use cpclean::{run_cpclean, select_next, RunOptions};
pub use eval::{state_accuracy, val_cp_status, world_accuracy};
pub use holoclean_sim::{holoclean_impute, HoloCleanOptions};
pub use metrics::{gap_closed, CleaningRun, CurvePoint};
pub use problem::CleaningProblem;
pub use random_clean::{average_random_runs, run_random_clean, run_random_clean_arc};
pub use selection::{select_next_incremental, SelectionBackend, SelectionCache};
pub use session::{index_cache, pick_min_expected_entropy, CleaningEngine, CleaningSession};
pub use state::CleaningState;
