//! # cp-store — durable shard storage
//!
//! The persistence layer under the RPC shard engine, in two halves:
//!
//! * **Write-ahead pin logs** ([`wal`]): a shard server running with
//!   `--data-dir` appends one checksummed, length-prefixed record per
//!   session event (the `Open` payload, then every applied pin) and fsyncs
//!   before acknowledging. On restart the server replays the logs to
//!   rebuild every in-flight `CleaningSession`, so a reconnecting
//!   coordinator's idempotent `Step` retransmission lands on recovered
//!   state and a multi-hour cleaning run resumes mid-order. Replay is
//!   hostile-input safe: a torn tail (the crash happened mid-append) is
//!   ignored, a complete record with a bad CRC is a [`StoreError::Corrupt`]
//!   — never a panic.
//!
//! * **Sorted on-disk runs** ([`run`]): a `ShardStream` is already a
//!   locally-sorted boundary-event stream, which makes it an LSM-style
//!   immutable run by construction. [`run::Run::spill`] writes one to disk
//!   with the stream's wire encoding as the opaque block format (the RPC
//!   layer supplies the bytes — this crate stays codec-agnostic), plus a
//!   footer carrying min/max `(sim, row, cand)` keys, a [`bloom::Bloom`]
//!   filter over the rows and labels appearing in the events, and the
//!   encoded opening factors. [`run::RunCursor`] replays a decoded run
//!   through the ordinary `FactorSource` trait, so the k-way merged scan
//!   works unchanged over any mix of in-RAM and on-disk sources, and the
//!   footer filters let status checks skip runs that provably cannot
//!   change the answer.
//!
//! Like the rest of the workspace this crate is dependency-free: the CRC
//! ([`mod@crc32`]) and the bloom filter ([`bloom`]) are hand-rolled.
//!
//! Metrics (see the README catalog): `store.wal.fsync_us`,
//! `store.wal.replayed_records`, `store.runs.spilled`,
//! `store.runs.skipped_by_filter`.

pub mod bloom;
pub mod crc32;
pub mod run;
pub mod wal;

pub use bloom::Bloom;
pub use crc32::{crc32, crc32_extend};
pub use run::{Run, RunCursor, RunMeta};
pub use wal::{WalWriter, MAX_WAL_RECORD};

/// Failures of the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk bytes fail validation (bad magic, CRC mismatch, impossible
    /// lengths) — the file is damaged or is not ours.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store file: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
