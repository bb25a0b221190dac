//! Immutable sorted on-disk runs: a spilled `ShardStream` plus the footer
//! metadata that lets readers filter and validate it without decoding the
//! block.
//!
//! ## File layout
//!
//! ```text
//! +--------------------+  offset 0
//! | header (16 bytes)  |  magic "CPRUN001", u32 version, u32 reserved
//! +--------------------+  offset 16
//! | block              |  opaque bytes: the stream's wire encoding
//! |  (block_len bytes) |  (zigzag-varint deltas + scalar dictionary —
//! +--------------------+   written by the RPC codec, not this crate)
//! | footer             |  counts, min/max (sim,row,cand) keys, bloom
//! |                    |  filter over rows+labels, opening bytes,
//! +--------------------+  block_len + block CRC
//! | trailer (16 bytes) |  u64 footer_off, u32 footer_len, u32 footer_crc
//! +--------------------+  EOF
//! ```
//!
//! [`Run::open`] reads header + trailer + footer only — `O(footer)` I/O —
//! so a scan can consult [`RunMeta`]'s key range and bloom filter (and the
//! stream's *opening* factors, stored verbatim in the footer) and skip the
//! block entirely when the run provably cannot change the answer; the
//! `store.runs.skipped_by_filter` counter tracks those wins. A stream's
//! events start at its shard's zero-prefix bound `τ_s`, so the opening
//! factors are the shard's state at `τ_s`, and the key range and bloom
//! filter cover only the events from `τ_s` on.
//! [`Run::read_block`] pays the block I/O and CRC check only when the
//! events are actually needed.
//!
//! [`RunCursor`] wraps a decoded stream as an owning
//! [`cp_shard::FactorSource`], so the k-way merged scan accepts any mix of
//! borrowed in-RAM `StreamCursor`s and on-disk runs.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use cp_numeric::CountSemiring;
use cp_shard::{BoundaryEvent, FactorSource, ShardFactors, ShardStream};

use crate::bloom::Bloom;
use crate::crc32::crc32;
use crate::StoreError;

/// File magic (8 bytes) + format version.
const MAGIC: [u8; 8] = *b"CPRUN001";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 16;
const TRAILER_LEN: u64 = 16;

/// Everything a reader can know about a run without touching its block.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// Slot budget K of the recorded factors.
    pub k: usize,
    /// Number of labels covered.
    pub n_labels: usize,
    /// Number of boundary events in the block.
    pub n_events: u64,
    /// Smallest `(sim, row, cand)` merge key among the events (`None` for
    /// an empty run). Streams are locally sorted, so this is also the key
    /// the merged scan would see first from this run.
    pub min_key: Option<(f64, usize, u32)>,
    /// Largest merge key among the events.
    pub max_key: Option<(f64, usize, u32)>,
    /// Membership filter over the global rows and labels appearing in the
    /// events (not the opening factors).
    pub bloom: Bloom,
}

/// Total order on merge keys: `sim` (total order over all floats), then
/// `(row, cand)` — exactly the merged scan's owner pick.
fn key_cmp(a: (f64, usize, u32), b: (f64, usize, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

impl RunMeta {
    /// Compute a stream's footer metadata: counts, key range, and the
    /// bloom filter over its events' rows and labels.
    pub fn from_stream<S: CountSemiring>(stream: &ShardStream<S>) -> Self {
        let mut bloom = Bloom::with_capacity(stream.events.len() * 2);
        let mut min_key: Option<(f64, usize, u32)> = None;
        let mut max_key: Option<(f64, usize, u32)> = None;
        for e in &stream.events {
            bloom.insert(Bloom::row_key(e.row));
            bloom.insert(Bloom::label_key(e.event.label));
            let key = (e.sim, e.row, e.cand);
            if min_key.is_none_or(|m| key_cmp(key, m).is_lt()) {
                min_key = Some(key);
            }
            if max_key.is_none_or(|m| key_cmp(key, m).is_gt()) {
                max_key = Some(key);
            }
        }
        RunMeta {
            k: stream.k(),
            n_labels: stream.n_labels(),
            n_events: stream.events.len() as u64,
            min_key,
            max_key,
            bloom,
        }
    }

    /// `false` means no boundary event of this run touches global row
    /// `row`; `true` means one might.
    pub fn might_contain_row(&self, row: usize) -> bool {
        self.n_events > 0 && self.bloom.might_contain(Bloom::row_key(row))
    }

    /// `false` means no boundary event of this run carries label `label`.
    pub fn might_contain_label(&self, label: usize) -> bool {
        self.n_events > 0 && self.bloom.might_contain(Bloom::label_key(label))
    }
}

/// An opened (or just-written) run file: footer metadata in memory, block
/// on disk.
#[derive(Debug)]
pub struct Run {
    path: PathBuf,
    meta: RunMeta,
    opening: Vec<u8>,
    block_len: u64,
    block_crc: u32,
}

impl Run {
    /// Write `stream`'s run file: `block` is the stream's wire encoding
    /// (produced by the RPC codec) and `opening` an encoding of just its
    /// opening factors + total (readable without the block). Computes the
    /// footer metadata from the stream, bumps `store.runs.spilled`, and
    /// returns the written run ready for reading.
    pub fn spill<S: CountSemiring>(
        path: &Path,
        stream: &ShardStream<S>,
        opening: &[u8],
        block: &[u8],
    ) -> Result<Run, StoreError> {
        let meta = RunMeta::from_stream(stream);
        let run = Self::create(path, meta, opening, block)?;
        cp_obs::counter!("store.runs.spilled").inc();
        Ok(run)
    }

    /// Write a run file from already-computed metadata.
    pub fn create(
        path: &Path,
        meta: RunMeta,
        opening: &[u8],
        block: &[u8],
    ) -> Result<Run, StoreError> {
        let mut footer = Vec::new();
        footer.extend_from_slice(&(meta.k as u32).to_le_bytes());
        footer.extend_from_slice(&(meta.n_labels as u32).to_le_bytes());
        footer.extend_from_slice(&meta.n_events.to_le_bytes());
        match (meta.min_key, meta.max_key) {
            (Some(min), Some(max)) => {
                footer.push(1);
                for (sim, row, cand) in [min, max] {
                    footer.extend_from_slice(&sim.to_bits().to_le_bytes());
                    footer.extend_from_slice(&(row as u64).to_le_bytes());
                    footer.extend_from_slice(&cand.to_le_bytes());
                }
            }
            _ => footer.push(0),
        }
        meta.bloom.encode_into(&mut footer);
        footer.extend_from_slice(&(opening.len() as u32).to_le_bytes());
        footer.extend_from_slice(opening);
        footer.extend_from_slice(&(block.len() as u64).to_le_bytes());
        footer.extend_from_slice(&crc32(block).to_le_bytes());

        let mut out = Vec::with_capacity(16 + block.len() + footer.len() + 16);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(block);
        let footer_off = out.len() as u64;
        out.extend_from_slice(&footer);
        out.extend_from_slice(&footer_off.to_le_bytes());
        out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&footer).to_le_bytes());

        let mut file = File::create(path)?;
        file.write_all(&out)?;
        file.sync_data()?;
        Ok(Run {
            path: path.to_path_buf(),
            meta,
            opening: opening.to_vec(),
            block_len: block.len() as u64,
            block_crc: crc32(block),
        })
    }

    /// Open a run, reading and validating only header, trailer and footer
    /// (`O(footer)` I/O; the block stays on disk until
    /// [`Run::read_block`]). Any malformed byte is `Corrupt`, never a
    /// panic.
    pub fn open(path: &Path) -> Result<Run, StoreError> {
        let corrupt = |what: String| StoreError::Corrupt(format!("{}: {what}", path.display()));
        let mut file = BufReader::new(File::open(path)?);
        let file_len = file.get_ref().metadata()?.len();
        if file_len < HEADER_LEN + TRAILER_LEN {
            return Err(corrupt(format!("{file_len} bytes is too short for a run")));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        if header[..8] != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        if header[12..16] != [0; 4] {
            return Err(corrupt("nonzero reserved header bytes".into()));
        }
        file.seek(SeekFrom::Start(file_len - TRAILER_LEN))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact(&mut trailer)?;
        let footer_off = u64::from_le_bytes(trailer[..8].try_into().unwrap());
        let footer_len = u32::from_le_bytes(trailer[8..12].try_into().unwrap()) as u64;
        let footer_crc = u32::from_le_bytes(trailer[12..16].try_into().unwrap());
        if footer_off < HEADER_LEN
            || footer_off
                .checked_add(footer_len)
                .and_then(|e| e.checked_add(TRAILER_LEN))
                != Some(file_len)
        {
            return Err(corrupt("trailer offsets do not fit the file".into()));
        }
        file.seek(SeekFrom::Start(footer_off))?;
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact(&mut footer)?;
        if crc32(&footer) != footer_crc {
            return Err(corrupt("footer fails its CRC".into()));
        }

        // parse the footer
        let mut off = 0usize;
        let take = |off: &mut usize, n: usize| -> Result<&[u8], StoreError> {
            if footer.len() - *off < n {
                return Err(StoreError::Corrupt(format!(
                    "{}: footer truncated at byte {off}",
                    path.display()
                )));
            }
            let s = &footer[*off..*off + n];
            *off += n;
            Ok(s)
        };
        let k = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap()) as usize;
        let n_labels = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap()) as usize;
        let n_events = u64::from_le_bytes(take(&mut off, 8)?.try_into().unwrap());
        let has_keys = take(&mut off, 1)?[0];
        let (min_key, max_key) = match has_keys {
            0 => (None, None),
            1 => {
                let read_key = |off: &mut usize| -> Result<(f64, usize, u32), StoreError> {
                    let sim = f64::from_bits(u64::from_le_bytes(take(off, 8)?.try_into().unwrap()));
                    let row = u64::from_le_bytes(take(off, 8)?.try_into().unwrap()) as usize;
                    let cand = u32::from_le_bytes(take(off, 4)?.try_into().unwrap());
                    Ok((sim, row, cand))
                };
                let min = read_key(&mut off)?;
                let max = read_key(&mut off)?;
                (Some(min), Some(max))
            }
            other => return Err(corrupt(format!("bad key-presence byte {other}"))),
        };
        let (bloom, used) = Bloom::decode(&footer[off..])?;
        off += used;
        let opening_len = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap()) as usize;
        let opening = take(&mut off, opening_len)?.to_vec();
        let block_len = u64::from_le_bytes(take(&mut off, 8)?.try_into().unwrap());
        let block_crc = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap());
        if off != footer.len() {
            return Err(corrupt(format!(
                "{} trailing footer bytes",
                footer.len() - off
            )));
        }
        if HEADER_LEN + block_len != footer_off {
            return Err(corrupt("block length does not fit the file".into()));
        }
        Ok(Run {
            path: path.to_path_buf(),
            meta: RunMeta {
                k,
                n_labels,
                n_events,
                min_key,
                max_key,
                bloom,
            },
            opening,
            block_len,
            block_crc,
        })
    }

    /// The footer metadata.
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// The encoded opening factors + total stored in the footer (opaque to
    /// this crate; the RPC codec decodes them) — the shard's state at its
    /// zero-prefix bound `τ_s`, before the block's first event.
    pub fn opening(&self) -> &[u8] {
        &self.opening
    }

    /// The file this run lives in.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read and CRC-check the block — the only call that pays `O(block)`
    /// I/O.
    pub fn read_block(&self) -> Result<Vec<u8>, StoreError> {
        let mut file = BufReader::new(File::open(&self.path)?);
        file.seek(SeekFrom::Start(HEADER_LEN))?;
        let mut block = vec![0u8; self.block_len as usize];
        file.read_exact(&mut block)?;
        if crc32(&block) != self.block_crc {
            return Err(StoreError::Corrupt(format!(
                "{}: block fails its CRC",
                self.path.display()
            )));
        }
        Ok(block)
    }
}

/// An owning replay cursor over a decoded run — the on-disk twin of
/// `cp_shard::StreamCursor`, which borrows. The merged scan drives both
/// through [`FactorSource`].
#[derive(Clone, Debug)]
pub struct RunCursor<S> {
    stream: ShardStream<S>,
    pos: usize,
}

impl<S: CountSemiring> RunCursor<S> {
    /// A cursor positioned before the first event of `stream`.
    pub fn new(stream: ShardStream<S>) -> Self {
        RunCursor { stream, pos: 0 }
    }

    /// The decoded stream.
    pub fn stream(&self) -> &ShardStream<S> {
        &self.stream
    }
}

impl<S: CountSemiring> FactorSource<S> for RunCursor<S> {
    fn peek_key(&self) -> Option<(f64, usize, u32)> {
        self.stream
            .events
            .get(self.pos)
            .map(|e| (e.sim, e.row, e.cand))
    }

    fn next_event(&mut self) -> BoundaryEvent<S> {
        let e = &self.stream.events[self.pos];
        self.pos += 1;
        e.event.clone()
    }

    fn opening_factors(&self) -> ShardFactors<S> {
        self.stream.initial.clone()
    }

    fn total_mass(&self) -> S {
        self.stream.total.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_shard::ShardStreamEvent;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cp-store-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A hand-built stream (no dataset needed): k=2, 2 labels, u128 counts.
    fn sample_stream(n_events: usize) -> ShardStream<u128> {
        let initial = ShardFactors::identity(2, 2);
        let events = (0..n_events)
            .map(|i| ShardStreamEvent {
                sim: 1.0 + i as f64 * 0.5,
                row: 10 + i,
                cand: (i % 3) as u32,
                event: BoundaryEvent {
                    label: i % 2,
                    updated_poly: vec![1u128, i as u128, 0],
                    excluding_poly: vec![1, 0, 0],
                    boundary_mass: 1 + i as u128,
                },
            })
            .collect();
        ShardStream {
            initial,
            total: 42,
            events,
        }
    }

    #[test]
    fn meta_captures_counts_keys_and_membership() {
        let stream = sample_stream(5);
        let meta = RunMeta::from_stream(&stream);
        assert_eq!((meta.k, meta.n_labels, meta.n_events), (2, 2, 5));
        assert_eq!(meta.min_key, Some((1.0, 10, 0)));
        assert_eq!(meta.max_key, Some((3.0, 14, 1)));
        for i in 0..5 {
            assert!(meta.might_contain_row(10 + i));
        }
        assert!(meta.might_contain_label(0));
        assert!(meta.might_contain_label(1));
        assert!(!meta.might_contain_row(99_999));
        // empty runs contain nothing at all
        let empty = RunMeta::from_stream(&sample_stream(0));
        assert_eq!(empty.min_key, None);
        assert!(!empty.might_contain_row(10));
        assert!(!empty.might_contain_label(0));
    }

    #[test]
    fn spill_open_round_trip_preserves_meta_opening_and_block() {
        let stream = sample_stream(7);
        let path = tmp("round-trip.run");
        let block = vec![0xAB; 4096];
        let opening = b"opening bytes".to_vec();
        let written = Run::spill(&path, &stream, &opening, &block).unwrap();
        let read = Run::open(&path).unwrap();
        for run in [&written, &read] {
            assert_eq!(run.meta().n_events, 7);
            assert_eq!(run.meta().min_key, Some((1.0, 10, 0)));
            assert_eq!(run.meta().max_key, Some((4.0, 16, 0)));
            assert_eq!(run.opening(), opening.as_slice());
            assert_eq!(run.read_block().unwrap(), block);
        }
        assert_eq!(read.meta().bloom, written.meta().bloom);
    }

    #[test]
    fn cursor_replays_the_stream_through_factor_source() {
        let stream = sample_stream(4);
        let mut cursor = RunCursor::new(stream.clone());
        assert_eq!(cursor.opening_factors(), stream.initial);
        assert_eq!(cursor.total_mass(), 42);
        for e in &stream.events {
            assert_eq!(cursor.peek_key(), Some((e.sim, e.row, e.cand)));
            assert_eq!(cursor.next_event(), e.event);
        }
        assert_eq!(cursor.peek_key(), None);
    }

    #[test]
    fn damage_anywhere_is_detected_never_a_panic() {
        let stream = sample_stream(3);
        let path = tmp("damage.run");
        Run::spill(&path, &stream, b"open", &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let good = std::fs::read(&path).unwrap();

        // every truncation fails cleanly
        let broken = tmp("broken.run");
        for cut in 0..good.len() {
            std::fs::write(&broken, &good[..cut]).unwrap();
            assert!(Run::open(&broken).is_err(), "cut at {cut}");
        }
        // every single-byte corruption either fails at open, fails at
        // read_block, or leaves both CRCs intact (impossible for 1 flip)
        for i in 0..good.len() {
            let mut bytes = good.clone();
            bytes[i] ^= 0xFF;
            std::fs::write(&broken, &bytes).unwrap();
            match Run::open(&broken) {
                Err(_) => {}
                Ok(run) => assert!(run.read_block().is_err(), "flip at {i} undetected"),
            }
        }
    }
}
