//! Out-of-core shard streams: spilling a decoded [`ShardStream`] to an
//! immutable sorted on-disk run (`cp-store`) and scanning any mix of in-RAM
//! and on-disk streams through the one merged-scan loop.
//!
//! The block format of a run *is* the RPC stream codec
//! ([`crate::codec::encode_stream`]) — a spilled stream is byte-identical
//! to the scan response it arrived in, so spilling adds no second
//! serialization format. The footer's opening bytes are the same codec over
//! a zero-event copy of the stream (initial factors + total mass), which is
//! what lets a reader answer "what does this shard contribute before its
//! first boundary?" without touching the block. Streams start at their
//! shard's zero-prefix bound `τ_s` (see `cp_shard::ShardStream`), so the
//! opening factors are the shard's state at `τ_s`: a set whose candidates
//! all sit below `τ_s` enters them with out-mass only.
//!
//! ## Lazy cursors and filter skips
//!
//! [`LazyRunCursor`] implements [`cp_shard::FactorSource`] over a run
//! *without* decoding its block up front: `peek_key` answers from the
//! footer's min key, and only the first `next_event` pays the block I/O +
//! decode. Combined with the merged scan's early exits (a binary status
//! check stops as soon as two labels are possible), a run whose key range
//! is never reached contributes exactly its opening factors and its block
//! is never read — counted by `store.runs.skipped_by_filter`.
//!
//! [`certain_label_over_runs`] adds the footer-only fast path for binary
//! Q1: when one label provably never appears in any run (its opening
//! factors carry no possibility of a nonzero tally and the bloom filter
//! rules it out of every event), the other label is certain and **no**
//! block is decoded at all.

use crate::codec::{decode_stream, encode_stream, WireSemiring};
use crate::error::{RpcError, RpcResult};
use cp_core::ShardFactors;
use cp_knn::Label;
use cp_numeric::Possibility;
use cp_shard::{
    certain_label_from_sources, BoundaryEvent, FactorSource, ShardStream, StreamCursor,
};
use cp_store::{Run, RunCursor, StoreError};
use std::path::Path;

/// Lift a storage-layer failure into the RPC error taxonomy: I/O faults
/// stay I/O faults, corruption is a malformed-payload error.
pub fn store_err(e: StoreError) -> RpcError {
    match e {
        StoreError::Io(io) => RpcError::Io(io),
        StoreError::Corrupt(msg) => RpcError::Malformed(format!("on-disk run: {msg}")),
    }
}

/// Spill one decoded stream to `path` as an immutable on-disk run. The
/// block is the stream's ordinary wire encoding; the footer's opening
/// bytes are the encoding of its zero-event head.
pub fn spill_stream<S: WireSemiring>(path: &Path, stream: &ShardStream<S>) -> RpcResult<Run> {
    let block = encode_stream(stream);
    let opening = encode_stream(&ShardStream {
        initial: stream.initial.clone(),
        total: stream.total.clone(),
        events: Vec::new(),
    });
    Run::spill(path, stream, &opening, &block).map_err(store_err)
}

/// Decode a run's block into an owning [`RunCursor`], cross-checking the
/// decoded shape against the footer (a mismatch means the file was damaged
/// in a way both CRCs happened to miss, or reassembled from two runs).
pub fn open_run_cursor<S: WireSemiring>(run: &Run) -> RpcResult<RunCursor<S>> {
    let bytes = run.read_block().map_err(store_err)?;
    let stream = decode_stream::<S>(&bytes)?;
    let meta = run.meta();
    if stream.events.len() as u64 != meta.n_events
        || stream.k() != meta.k
        || stream.n_labels() != meta.n_labels
    {
        return Err(RpcError::Malformed(format!(
            "run block shape ({} events, k={}, |Y|={}) does not match its footer \
             ({} events, k={}, |Y|={})",
            stream.events.len(),
            stream.k(),
            stream.n_labels(),
            meta.n_events,
            meta.k,
            meta.n_labels
        )));
    }
    Ok(RunCursor::new(stream))
}

/// A [`FactorSource`] over an on-disk run that defers the block decode
/// until the merged scan actually consumes one of its events. Construction
/// decodes only the footer's opening bytes (factors + total mass, a few
/// hundred bytes); `peek_key` answers from the footer's min key.
///
/// # Panics
/// `next_event` panics if the run file was damaged between [`Run::open`]
/// and the scan — the merge loop is infallible, and a run this process
/// wrote moments ago going bad mid-scan is a local-disk invariant
/// violation, not hostile input (hostile bytes are rejected with typed
/// errors at [`Run::open`] / [`open_run_cursor`] time).
pub struct LazyRunCursor<'a, S: WireSemiring> {
    run: &'a Run,
    opening: ShardFactors<S>,
    total: S,
    cursor: Option<RunCursor<S>>,
}

impl<'a, S: WireSemiring> LazyRunCursor<'a, S> {
    /// Wrap an opened run, decoding its opening factors only.
    pub fn new(run: &'a Run) -> RpcResult<Self> {
        let head = decode_stream::<S>(run.opening())?;
        if !head.events.is_empty() {
            return Err(RpcError::Malformed(
                "run opening bytes carry boundary events".into(),
            ));
        }
        if head.k() != run.meta().k || head.n_labels() != run.meta().n_labels {
            return Err(RpcError::Malformed(
                "run opening shape does not match its footer".into(),
            ));
        }
        Ok(LazyRunCursor {
            run,
            opening: head.initial,
            total: head.total,
            cursor: None,
        })
    }

    /// Whether the block has been decoded (i.e. the scan reached this run).
    pub fn block_decoded(&self) -> bool {
        self.cursor.is_some()
    }

    /// The run this cursor reads.
    pub fn run(&self) -> &Run {
        self.run
    }

    fn force(&mut self) -> &mut RunCursor<S> {
        if self.cursor.is_none() {
            let cursor = open_run_cursor::<S>(self.run)
                .unwrap_or_else(|e| panic!("on-disk run damaged mid-scan: {e}"));
            self.cursor = Some(cursor);
        }
        self.cursor.as_mut().expect("just filled")
    }
}

impl<S: WireSemiring> FactorSource<S> for LazyRunCursor<'_, S> {
    fn peek_key(&self) -> Option<(f64, usize, u32)> {
        match &self.cursor {
            Some(c) => c.peek_key(),
            // streams are locally sorted, so the footer's min key is
            // exactly the first event the block would yield
            None => self.run.meta().min_key,
        }
    }

    fn next_event(&mut self) -> BoundaryEvent<S> {
        self.force().next_event()
    }

    fn opening_factors(&self) -> ShardFactors<S> {
        self.opening.clone()
    }

    fn total_mass(&self) -> S {
        self.total.clone()
    }
}

/// One source of a mixed merged scan: a borrowed in-RAM stream cursor or a
/// lazy on-disk run. [`cp_shard::merged_scan_sources`] is monomorphic over
/// its source type, so mixing RAM and disk in one scan goes through this
/// enum.
pub enum SpillSource<'a, S: WireSemiring> {
    /// A borrowed cursor over an in-RAM [`ShardStream`].
    Ram(StreamCursor<'a, S>),
    /// A lazy cursor over an on-disk run.
    Disk(LazyRunCursor<'a, S>),
}

impl<S: WireSemiring> FactorSource<S> for SpillSource<'_, S> {
    fn peek_key(&self) -> Option<(f64, usize, u32)> {
        match self {
            SpillSource::Ram(c) => c.peek_key(),
            SpillSource::Disk(c) => c.peek_key(),
        }
    }

    fn next_event(&mut self) -> BoundaryEvent<S> {
        match self {
            SpillSource::Ram(c) => c.next_event(),
            SpillSource::Disk(c) => c.next_event(),
        }
    }

    fn opening_factors(&self) -> ShardFactors<S> {
        match self {
            SpillSource::Ram(c) => c.opening_factors(),
            SpillSource::Disk(c) => c.opening_factors(),
        }
    }

    fn total_mass(&self) -> S {
        match self {
            SpillSource::Ram(c) => c.total_mass(),
            SpillSource::Disk(c) => c.total_mass(),
        }
    }
}

/// `true` iff the run provably contributes no `label`-labelled neighbor in
/// any world: its opening factors carry no possibility of a tally ≥ 1 for
/// `label`, and the bloom filter rules `label` out of every boundary event
/// (events replace exactly their own label's polynomial, so no event can
/// introduce what the bloom filter excludes). Footer + opening only — no
/// block I/O.
///
/// The opening factors are the shard's state at its zero-prefix bound
/// `τ_s`, so a label whose sets on this shard all sit below `τ_s` reads as
/// absent here. That is sound: at least K of the shard's sets have every
/// candidate at or above `τ_s`, so they outrank each of that label's
/// candidates in every world and the label never reaches the top K.
fn label_provably_absent(run: &Run, opening: &ShardFactors<Possibility>, label: usize) -> bool {
    !run.meta().might_contain_label(label) && opening.poly(label).iter().skip(1).all(|p| !p.0)
}

/// The certainly-predicted label (if any) from `Possibility` runs — the
/// status check of a coordinator whose shard streams were spilled to disk.
///
/// Answers are bit-identical to [`cp_shard::certain_label_from_streams`]
/// over the same streams, but blocks are decoded only when needed:
///
/// 1. **Footer pre-check (binary only)**: if exactly one label is
///    provably absent from every run (bloom filter plus opening-factor
///    tail, see `label_provably_absent`), the other
///    label wins in every world (all `k ≥ 1` neighbors carry it) — answer
///    immediately, zero blocks decoded.
/// 2. **Lazy early-exit scan**: otherwise merge [`LazyRunCursor`]s; the
///    two-labels-possible early exit often fires before the merge reaches
///    high-`sim` runs, whose blocks are then never read.
///
/// Every run with events whose block was never decoded increments
/// `store.runs.skipped_by_filter`.
pub fn certain_label_over_runs(
    runs: &[Run],
    n_labels: usize,
    k: usize,
) -> RpcResult<Option<Label>> {
    assert!(!runs.is_empty(), "need at least one run");
    let mut sources = Vec::with_capacity(runs.len());
    for run in runs {
        sources.push(LazyRunCursor::<Possibility>::new(run)?);
    }
    let count_skipped = |decoded: &dyn Fn(usize) -> bool| {
        let skipped = runs
            .iter()
            .enumerate()
            .filter(|(i, r)| r.meta().n_events > 0 && !decoded(*i))
            .count() as u64;
        cp_obs::counter!("store.runs.skipped_by_filter").add(skipped);
    };
    if n_labels == 2 {
        let absent: Vec<usize> = (0..2)
            .filter(|&l| {
                runs.iter()
                    .zip(&sources)
                    .all(|(run, src)| label_provably_absent(run, &src.opening, l))
            })
            .collect();
        // exactly one label impossible everywhere: the other holds all k
        // neighbors in every world, so it is certain without any block I/O
        // (both absent would mean no neighbors at all — degenerate data;
        // fall through to the real scan rather than guess)
        if let [impossible] = absent[..] {
            count_skipped(&|_| false);
            return Ok(Some(1 - impossible));
        }
    }
    let label = certain_label_from_sources(&mut sources, n_labels, k);
    count_skipped(&|i| sources[i].block_decoded());
    Ok(label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins};
    use cp_shard::{build_shard_indexes, capture_streams, certain_label_from_streams, local_pins};

    /// Every label-1 set of shard 0 sits below that shard's `τ_s`, and
    /// shard 1 holds no label-1 set: label 1 is then absent from both runs'
    /// opening tails and bloom filters, and the footer pre-check answers.
    #[test]
    fn footer_precheck_answers_when_a_label_sits_below_tau_s() {
        // test point 0; shard 0 (rows 0..3) walks farthest-first:
        //   rank 0: (0,0) at -10   rank 2: (1,1) at 2   rank 4: (2,0) at 0.5
        //   rank 1: (0,1) at -9    rank 3: (1,0) at 1
        // f = [0, 2, 4], so K = 2 gives τ_0 = 2: row 0 (label 1) lies wholly
        // in the skipped prefix, and rows 1 and 2 (label 0) always outrank it
        let ds = IncompleteDataset::new(
            vec![
                IncompleteExample::incomplete(vec![vec![-10.0], vec![-9.0]], 1),
                IncompleteExample::incomplete(vec![vec![1.0], vec![2.0]], 0),
                IncompleteExample::complete(vec![0.5], 0),
                IncompleteExample::incomplete(vec![vec![3.0], vec![-4.0]], 0),
                IncompleteExample::complete(vec![-0.2], 0),
                IncompleteExample::complete(vec![5.0], 0),
            ],
            2,
        )
        .unwrap();
        let t = [0.0];
        let cfg = CpConfig::new(2);
        let shards = ds.partition(2);
        let indexes = build_shard_indexes(&shards, cfg.kernel, &t);
        let pins = local_pins(&shards, &Pins::none(ds.len()));
        let streams: Vec<ShardStream<Possibility>> =
            capture_streams(&shards, &indexes, &pins, &cfg);
        // shard 0's stream starts at τ_0: row 0's two candidates are gone
        assert_eq!(streams[0].events.len(), 3);

        let dir = std::env::temp_dir().join(format!("cp-rpc-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let runs: Vec<Run> = streams
            .iter()
            .enumerate()
            .map(|(s, st)| spill_stream(&dir.join(format!("s{s}.run")), st).unwrap())
            .collect();
        for run in &runs {
            let opening = LazyRunCursor::<Possibility>::new(run).unwrap().opening;
            assert!(label_provably_absent(run, &opening, 1));
            assert!(!label_provably_absent(run, &opening, 0));
        }
        let k = cfg.k_eff(ds.len());
        let over_runs = certain_label_over_runs(&runs, 2, k).unwrap();
        assert_eq!(over_runs, Some(0));
        assert_eq!(over_runs, certain_label_from_streams(&streams));
        assert_eq!(over_runs, cp_core::certain_label(&ds, &cfg, &t));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
