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
//! * **On-disk runs** ([`run`]): the RPC coordinator spills a large
//!   cached shard stream by writing the stream's wire bytes, exactly as
//!   they arrived, to a file ([`run::Run::create`]). The in-memory handle
//!   keeps the block's length, CRC and event count, and
//!   [`run::Run::read_block`] checks the first two when the bytes are read
//!   back. What the bytes mean stays with the RPC layer's codec.
//!
//! Like the rest of the workspace this crate is dependency-free: the CRC
//! ([`mod@crc32`]) is hand-rolled.
//!
//! Metrics (see the README catalog): `store.wal.fsync_us`,
//! `store.wal.replayed_records`, `store.runs.spilled`.

pub mod crc32;
pub mod run;
pub mod wal;

pub use crc32::{crc32, crc32_extend};
pub use run::Run;
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
