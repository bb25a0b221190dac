//! Immutable on-disk runs: a block of bytes written once, checked by
//! length and CRC when read back.
//!
//! The file holds exactly the block — for a spilled shard stream, the
//! stream's wire bytes as they arrived. The block's length and CRC stay
//! in the in-memory [`Run`] handle, so damage to the file between write and
//! read is a typed [`StoreError::Corrupt`], never a silently different
//! block. The caller keeps what the bytes mean (this crate stays
//! codec-agnostic) and, as a cross-check, how many events they encode.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::StoreError;

/// A written run file: the path, plus what a reader checks the block
/// against.
#[derive(Debug)]
pub struct Run {
    path: PathBuf,
    block_len: u64,
    block_crc: u32,
    n_events: u64,
}

impl Run {
    /// Write `block` to `path` and `sync_data` it; `n_events` is the
    /// number of events the block encodes, recorded for readers to check
    /// their decode against. Bumps `store.runs.spilled`.
    pub fn create(path: &Path, block: &[u8], n_events: u64) -> Result<Run, StoreError> {
        let mut file = File::create(path)?;
        file.write_all(block)?;
        file.sync_data()?;
        cp_obs::counter!("store.runs.spilled").inc();
        Ok(Run {
            path: path.to_path_buf(),
            block_len: block.len() as u64,
            block_crc: crc32(block),
            n_events,
        })
    }

    /// The file this run lives in.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The number of events the block encodes, as given to
    /// [`Run::create`].
    pub fn n_events(&self) -> u64 {
        self.n_events
    }

    /// Read the block back, checking its length and CRC against what was
    /// written.
    pub fn read_block(&self) -> Result<Vec<u8>, StoreError> {
        let corrupt =
            |what: String| StoreError::Corrupt(format!("{}: {what}", self.path.display()));
        let mut file = File::open(&self.path)?;
        let len = file.metadata()?.len();
        if len != self.block_len {
            return Err(corrupt(format!("{len} bytes, expected {}", self.block_len)));
        }
        let mut block = vec![0u8; self.block_len as usize];
        file.read_exact(&mut block)?;
        if crc32(&block) != self.block_crc {
            return Err(corrupt("block fails its CRC".into()));
        }
        Ok(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cp-store-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn create_read_round_trip_preserves_the_block() {
        let path = tmp("round-trip.run");
        let block: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        let run = Run::create(&path, &block, 7).unwrap();
        assert_eq!(run.n_events(), 7);
        assert_eq!(
            std::fs::read(run.path()).unwrap(),
            block,
            "the file is the block"
        );
        assert_eq!(run.read_block().unwrap(), block);
    }

    #[test]
    fn damage_anywhere_is_detected_never_a_panic() {
        let path = tmp("damage.run");
        let good = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let run = Run::create(&path, &good, 3).unwrap();
        // every truncation and every extension fails cleanly
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(run.read_block().is_err(), "cut at {cut}");
        }
        std::fs::write(&path, [&good[..], &[0]].concat()).unwrap();
        assert!(run.read_block().is_err(), "one byte appended");
        // every single-byte corruption fails the CRC
        for i in 0..good.len() {
            let mut bytes = good;
            bytes[i] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
            assert!(
                matches!(run.read_block(), Err(StoreError::Corrupt(_))),
                "flip at {i} undetected"
            );
        }
        // a deleted file is an I/O error
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(run.read_block(), Err(StoreError::Io(_))));
    }
}
