//! Numeric substrates for certain-prediction counting.
//!
//! The counting query **Q2** of the certain-prediction (CP) framework counts
//! *possible worlds*. An incomplete dataset with candidate sets of sizes
//! `M_1, …, M_N` induces `∏ M_i` possible worlds — a number that overflows any
//! machine integer almost immediately (a dataset with 200 dirty rows and 5
//! candidate repairs each already has `5^200` worlds). This crate provides the
//! arithmetic substrates the CP algorithms are generic over:
//!
//! * [`BigUint`] — a minimal arbitrary-precision unsigned integer for *exact*
//!   world counting (used by tests and small demos),
//! * [`ScaledF64`] — an extended-range float (`mantissa × 2^exp`) that cannot
//!   under- or overflow for any realistic world count,
//! * [`CountSemiring`] — the abstraction every SortScan variant is generic
//!   over, with implementations for `u128`, `f64` (probability space),
//!   [`BigUint`], [`ScaledF64`] and [`Possibility`] (exact boolean
//!   reachability, used for exact Q1 answers),
//! * [`stats`] — small statistics helpers (percentiles, entropy, correlation)
//!   used by the repair generator and the dataset substrate.

pub mod biguint;
pub mod scaled;
pub mod semiring;
pub mod stats;

pub use biguint::BigUint;
pub use scaled::ScaledF64;
pub use semiring::{CountProduct, CountSemiring, DivSemiring, Possibility};
