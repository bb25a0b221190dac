//! Out-of-core base streams: a cached shard stream held in RAM, or spilled
//! to an on-disk run (`cp-store`) as its wire bytes.
//!
//! A spilled stream is the scan reply's payload exactly as it arrived —
//! the [`crate::codec::encode_stream`] bytes the server sent — so spilling
//! writes no second format and encodes nothing. [`CachedStream::load`]
//! reads the run back (length and CRC checked), decodes it and checks the
//! decoded stream against the shape and event count it had when it was
//! spilled; the merged scan then drives an ordinary
//! [`cp_shard::StreamCursor`] over it. A run damaged on disk is a typed
//! [`RpcError`], never a panic.

use crate::codec::{decode_stream, WireSemiring};
use crate::error::{RpcError, RpcResult};
use cp_shard::ShardStream;
use cp_store::{Run, StoreError};
use std::borrow::Cow;
use std::path::Path;

/// Lift a storage-layer failure into the RPC error taxonomy: I/O faults
/// stay I/O faults, corruption is a malformed-payload error.
fn store_err(e: StoreError) -> RpcError {
    match e {
        StoreError::Io(io) => RpcError::Io(io),
        StoreError::Corrupt(msg) => RpcError::Malformed(format!("on-disk run: {msg}")),
    }
}

/// A stream's wire bytes on disk, with the shape its decode must have. The
/// run file is deleted when this is dropped.
#[derive(Debug)]
pub struct SpilledRun {
    run: Run,
    k: usize,
    n_labels: usize,
}

impl Drop for SpilledRun {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.run.path());
    }
}

/// One cached per-shard stream: decoded in RAM, or spilled as its wire
/// bytes.
#[derive(Debug)]
pub enum CachedStream<S> {
    /// The decoded stream.
    Ram(ShardStream<S>),
    /// The stream's wire bytes in a run file.
    Spilled(SpilledRun),
}

impl<S: WireSemiring> CachedStream<S> {
    /// Spill `payload` — the wire bytes that decoded to `stream` — to a
    /// run at `path`, keeping `stream`'s shape and event count to check
    /// the later [`CachedStream::load`] against.
    pub fn spill(path: &Path, payload: &[u8], stream: &ShardStream<S>) -> RpcResult<Self> {
        let run = Run::create(path, payload, stream.events.len() as u64).map_err(store_err)?;
        Ok(CachedStream::Spilled(SpilledRun {
            run,
            k: stream.k(),
            n_labels: stream.n_labels(),
        }))
    }

    /// The stream: borrowed from RAM, or read from its run and decoded. A
    /// run whose bytes fail their length or CRC check, do not decode, or
    /// decode to another shape or event count is a typed error.
    pub fn load(&self) -> RpcResult<Cow<'_, ShardStream<S>>> {
        let spilled = match self {
            CachedStream::Ram(stream) => return Ok(Cow::Borrowed(stream)),
            CachedStream::Spilled(spilled) => spilled,
        };
        let stream = decode_stream::<S>(&spilled.run.read_block().map_err(store_err)?)?;
        let shape = (stream.k(), stream.n_labels(), stream.events.len() as u64);
        let expect = (spilled.k, spilled.n_labels, spilled.run.n_events());
        if shape != expect {
            return Err(RpcError::Malformed(format!(
                "on-disk run {}: decoded (k, |Y|, events) {shape:?}, spilled {expect:?}",
                spilled.run.path().display()
            )));
        }
        Ok(Cow::Owned(stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_stream;
    use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins};
    use cp_shard::{build_shard_indexes, capture_streams, local_pins};

    /// The one-shard `f64` stream of a small binary problem, K = 2.
    fn stream() -> ShardStream<f64> {
        let ds = IncompleteDataset::new(
            vec![
                IncompleteExample::complete(vec![0.0], 0),
                IncompleteExample::incomplete(vec![vec![4.0], vec![7.0]], 0),
                IncompleteExample::complete(vec![10.0], 1),
                IncompleteExample::incomplete(vec![vec![3.0], vec![6.0]], 1),
            ],
            2,
        )
        .unwrap();
        let cfg = CpConfig::new(2);
        let shards = ds.partition(1);
        let indexes = build_shard_indexes(&shards, cfg.kernel, &[5.0]);
        let pins = local_pins(&shards, &Pins::none(ds.len()));
        capture_streams(&shards, &indexes, &pins, &cfg).remove(0)
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cp-rpc-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn ram_entries_load_borrowed_and_spilled_ones_decode_from_disk() {
        let stream = stream();
        let ram = CachedStream::Ram(stream.clone());
        assert!(matches!(ram.load().unwrap(), Cow::Borrowed(st) if *st == stream));
        let path = scratch("decode.run");
        let spilled = CachedStream::spill(&path, &encode_stream(&stream), &stream).unwrap();
        assert!(matches!(spilled.load().unwrap(), Cow::Owned(st) if st == stream));
        drop(spilled);
        assert!(!path.exists(), "a dropped entry deletes its run");
    }

    /// Bytes that pass their CRC but decode to another stream than the one
    /// spilled — another event count, or another shape — are rejected.
    #[test]
    fn a_run_that_decodes_to_another_stream_is_malformed() {
        let stream = stream();
        let mut fewer = stream.clone();
        fewer.events.pop().expect("the stream has events");
        let path = scratch("fewer.run");
        let shorter = CachedStream::spill(&path, &encode_stream(&fewer), &stream).unwrap();
        let err = shorter.load().expect_err("another event count");
        assert!(
            matches!(&err, RpcError::Malformed(m) if m.contains("spilled")),
            "{err:?}"
        );

        let mut wider = stream.clone();
        wider.initial = cp_core::ShardFactors::identity(2, 3);
        for e in &mut wider.events {
            e.event.updated_poly.push(0.0);
            e.event.excluding_poly.push(0.0);
        }
        let path = scratch("wider.run");
        let reshaped = CachedStream::spill(&path, &encode_stream(&wider), &stream).unwrap();
        let err = reshaped.load().expect_err("another slot budget");
        assert!(
            matches!(&err, RpcError::Malformed(m) if m.contains("spilled")),
            "{err:?}"
        );
    }
}
