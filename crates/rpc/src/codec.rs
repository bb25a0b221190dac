//! The hand-rolled frame codec: length-prefixed frames over any
//! `Read`/`Write` transport, plus the binary encodings of every value the
//! shard protocol ships — [`Pins`], extreme summaries, and whole batched
//! [`ShardStream`]s and [`SweptStream`]s. Each message has exactly one
//! layout.
//!
//! ## Frame format
//!
//! ```text
//! ┌──────────────┬─────────────────┬──────────────────────┬──────────────┐
//! │ u32 BE: len  │ u32 BE: req id  │ payload (len bytes)  │ u32 BE: crc  │
//! └──────────────┴─────────────────┴──────────────────────┴──────────────┘
//! ```
//!
//! The length counts the payload only and is bounded by [`MAX_FRAME_LEN`];
//! a larger announcement is rejected before any allocation. The request id
//! pairs responses with requests: a server echoes each request's id on its
//! response, which is what lets a client keep several requests in flight on
//! one connection (a coordinator's pipelined status windows) and still
//! detect any pairing violation instead of silently mis-attributing a
//! response. The trailing CRC32 covers the whole frame (length, id, and
//! payload), so a flipped bit anywhere — header or body — surfaces as a typed
//! [`RpcError::Malformed`] at the frame boundary rather than a decoder
//! error deep in a payload, or worse, a silently wrong value. That
//! detection is what lets the failover layer treat *any* corrupted frame
//! as a recoverable transport fault.
//!
//! ## Frame I/O
//!
//! [`write_frame_tagged`] assembles the whole frame in one buffer and hands
//! it to the transport as one `write_all` plus one `flush`: on a socket one
//! `write` syscall, and under `TCP_NODELAY` one segment when the frame fits
//! in one. The fault injector ([`crate::fault::FaultyTransport`]) relies on
//! that flush to make exactly one decision per frame. The readers take a
//! frame in four small reads (length, id, payload, checksum), so the client
//! and the server read each connection through a `BufReader` it owns: one
//! `read` syscall then usually returns a whole frame, or several replies of
//! a pipelined window. A reconnect starts a new buffer with the new socket,
//! so bytes left from a poisoned connection are never read as a reply.
//! The wire bytes are the same however a frame is split into syscalls.
//!
//! ## Payloads
//!
//! Payloads are self-describing: the first byte is a message tag (see
//! [`crate::proto`]), and semiring-carrying values lead with a semiring tag
//! so a decoder instantiated at the wrong type fails with a typed error
//! instead of misreading bytes.
//!
//! All decoders take untrusted input: truncations, unknown tags, hostile
//! length prefixes and trailing bytes all surface as [`crate::RpcError`]s —
//! property-tested in `tests/codec_roundtrip.rs`.

use crate::error::{RpcError, RpcResult};
use crate::wire::{
    put_bool, put_f64, put_opt_u32, put_u128, put_u32, put_u8, put_usize, put_varint_u64,
    put_zigzag_i64, Reader,
};
use cp_core::{ExtremeEntry, ExtremeSummary, Pins, ShardFactors};
use cp_knn::Kernel;
use cp_numeric::{CountSemiring, Possibility};
use cp_shard::{BoundaryEvent, ShardStream, ShardStreamEvent, SweptStream};
use std::io::{Read, Write};

/// Sanity bound on a frame's announced length (64 MiB) — far above any real
/// message in this protocol, far below an allocation that could hurt.
pub const MAX_FRAME_LEN: u64 = 64 << 20;

/// Capacity of the read buffer each client and server connection reads its
/// frames through: large enough that one `read` drains a pipelined window's
/// replies, or a whole stream reply, at once.
pub const READ_BUFFER_BYTES: usize = 64 << 10;

/// Bytes a frame adds around its payload: the `len` + `req id` header and
/// the trailing CRC32.
pub const FRAME_OVERHEAD: u64 = 12;

/// Write one length-prefixed, CRC-trailed frame carrying a request id (see
/// the module docs for the layout) as **one** `write_all` plus `flush`: the
/// frame is assembled in one buffer and its CRC taken over that buffer's
/// header and payload.
pub fn write_frame_tagged<W: Write>(w: &mut W, req_id: u32, payload: &[u8]) -> RpcResult<()> {
    let len = payload.len() as u64;
    if len > MAX_FRAME_LEN {
        return Err(RpcError::FrameTooLarge {
            length: len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD as usize + payload.len());
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.extend_from_slice(&req_id.to_be_bytes());
    frame.extend_from_slice(payload);
    let crc = cp_store::crc32(&frame);
    frame.extend_from_slice(&crc.to_be_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame, returning its request id and payload. Truncated input
/// (including EOF midway through the header) and oversized announcements
/// are typed errors.
///
/// A frame is taken in four small reads of `r` (length, id, payload,
/// checksum); over a socket, hand it a [`std::io::BufReader`] owned by the
/// connection, as `ShardClient` and the server's connection readers do, so
/// one `read` syscall usually brings in a whole frame or several.
pub fn read_frame_tagged<R: Read>(r: &mut R) -> RpcResult<(u32, Vec<u8>)> {
    read_frame_opt_tagged(r)?.ok_or(RpcError::Truncated {
        context: "frame length prefix",
    })
}

/// [`read_frame_tagged`], distinguishing an **orderly EOF** — the transport
/// ending exactly at a frame boundary, i.e. zero bytes before the next
/// header — as `Ok(None)`. This is how a server tells a coordinator's clean
/// disconnect apart from a frame cut off mid-flight (still a typed error).
pub fn read_frame_opt_tagged<R: Read>(r: &mut R) -> RpcResult<Option<(u32, Vec<u8>)>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(RpcError::Truncated {
                    context: "frame length prefix",
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RpcError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix) as u64;
    if len > MAX_FRAME_LEN {
        return Err(RpcError::FrameTooLarge {
            length: len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut id_bytes = [0u8; 4];
    read_exact_or_truncated(r, &mut id_bytes, "frame request id")?;
    let mut payload = vec![0u8; len as usize];
    read_exact_or_truncated(r, &mut payload, "frame payload")?;
    let mut crc_bytes = [0u8; 4];
    read_exact_or_truncated(r, &mut crc_bytes, "frame checksum")?;
    let req_id = u32::from_be_bytes(id_bytes);
    let header_crc = cp_store::crc32_extend(cp_store::crc32(&prefix), &id_bytes);
    if u32::from_be_bytes(crc_bytes) != cp_store::crc32_extend(header_crc, &payload) {
        return Err(RpcError::Malformed(format!(
            "frame checksum mismatch (req id {req_id}, {len} payload bytes)"
        )));
    }
    Ok(Some((req_id, payload)))
}

fn read_exact_or_truncated<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> RpcResult<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            RpcError::Truncated { context }
        } else {
            RpcError::Io(e)
        }
    })
}

/// A counting semiring with a wire encoding — the scalar layer every
/// factor/stream message is generic over.
///
/// Only the semirings the serving path actually ships implement this:
/// exact `u128` counts, probability-space `f64`, and the boolean
/// [`Possibility`] semiring the status scans run in. (`BigUint` /
/// `ScaledF64` are reporting-side types and stay process-local.)
pub trait WireSemiring: CountSemiring {
    /// This semiring's wire tag (leads every encoded factor/stream value).
    const TAG: u8;
    /// Human-readable name for error messages.
    const NAME: &'static str;
    /// Minimum encoded size of one scalar, for pre-allocation bounds checks.
    const MIN_SCALAR_BYTES: usize;

    /// Append one scalar.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one scalar.
    fn get(r: &mut Reader<'_>) -> RpcResult<Self>;
}

impl WireSemiring for u128 {
    const TAG: u8 = 1;
    const NAME: &'static str = "u128";
    const MIN_SCALAR_BYTES: usize = 16;

    fn put(&self, out: &mut Vec<u8>) {
        put_u128(out, *self);
    }

    fn get(r: &mut Reader<'_>) -> RpcResult<Self> {
        r.u128("u128 scalar")
    }
}

impl WireSemiring for f64 {
    const TAG: u8 = 2;
    const NAME: &'static str = "f64";
    const MIN_SCALAR_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }

    fn get(r: &mut Reader<'_>) -> RpcResult<Self> {
        r.f64("f64 scalar")
    }
}

impl WireSemiring for Possibility {
    const TAG: u8 = 3;
    const NAME: &'static str = "possibility";
    const MIN_SCALAR_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        put_bool(out, self.0);
    }

    fn get(r: &mut Reader<'_>) -> RpcResult<Self> {
        Ok(Possibility(r.bool("possibility scalar")?))
    }
}

fn check_semiring_tag<S: WireSemiring>(r: &mut Reader<'_>) -> RpcResult<()> {
    let tag = r.u8("semiring tag")?;
    if tag != S::TAG {
        return Err(RpcError::Protocol(format!(
            "semiring mismatch: expected {} (tag {}), found tag {tag}",
            S::NAME,
            S::TAG
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

/// Append a [`Kernel`].
pub fn put_kernel(out: &mut Vec<u8>, kernel: Kernel) {
    match kernel {
        Kernel::NegEuclidean => put_u8(out, 1),
        Kernel::NegManhattan => put_u8(out, 2),
        Kernel::Linear => put_u8(out, 3),
        Kernel::Rbf { gamma } => {
            put_u8(out, 4);
            put_f64(out, gamma);
        }
        Kernel::Cosine => put_u8(out, 5),
    }
}

/// Read a [`Kernel`].
pub fn get_kernel(r: &mut Reader<'_>) -> RpcResult<Kernel> {
    match r.u8("kernel tag")? {
        1 => Ok(Kernel::NegEuclidean),
        2 => Ok(Kernel::NegManhattan),
        3 => Ok(Kernel::Linear),
        4 => Ok(Kernel::Rbf {
            gamma: r.f64("rbf gamma")?,
        }),
        5 => Ok(Kernel::Cosine),
        tag => Err(RpcError::BadTag {
            what: "kernel",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Pins
// ---------------------------------------------------------------------------

/// Append a [`Pins`] mask (length + one `Option<u32>` per set).
pub fn put_pins(out: &mut Vec<u8>, pins: &Pins) {
    put_u32(out, pins.len() as u32);
    for i in 0..pins.len() {
        put_opt_u32(out, pins.pinned(i).map(|j| j as u32));
    }
}

/// Read a [`Pins`] mask.
pub fn get_pins(r: &mut Reader<'_>) -> RpcResult<Pins> {
    let n = r.count(1, "pins")?;
    let mut pins = Pins::none(n);
    for i in 0..n {
        if let Some(j) = r.opt_u32("pin entry")? {
            pins.pin(i, j as usize);
        }
    }
    Ok(pins)
}

// ---------------------------------------------------------------------------
// ShardStream — the per-scan batched event stream
// ---------------------------------------------------------------------------

/// Stream encoding version byte: the delta+varint+dictionary layout —
/// zigzag-varint deltas for the (near-sorted) sim/row keys, varints for
/// candidates and labels, and every semiring scalar replaced by a varint
/// index into a per-stream dictionary of distinct scalars (boundary events
/// repeat polynomial coefficients heavily — a row's events share its
/// excluding polynomial, and tally counts recur across boundaries).
/// Version 1, a retired fixed-width layout, decodes as a bad tag.
const STREAM_V_DELTA: u8 = 2;
/// Stream encoding version byte: a swept stream ([`encode_swept`]) — the
/// swept row's global id, its candidate similarities and the owner's
/// pinned world total, then the version-2 stream the merged pin sweep
/// replays. [`decode_stream`] rejects it, and [`decode_swept`] accepts
/// nothing else.
const STREAM_V_SWEPT: u8 = 3;

/// Interns semiring scalars by their encoded bytes (bit patterns, so `f64`
/// stays bit-exact), assigning dictionary ids in first-appearance order.
struct ScalarInterner {
    ids: std::collections::HashMap<Vec<u8>, u64>,
    /// The dictionary body: every distinct scalar's raw encoding, in id order.
    dict: Vec<u8>,
}

impl ScalarInterner {
    fn new() -> Self {
        ScalarInterner {
            ids: std::collections::HashMap::new(),
            dict: Vec::new(),
        }
    }

    fn intern<S: WireSemiring>(&mut self, s: &S) -> u64 {
        let mut key = Vec::with_capacity(S::MIN_SCALAR_BYTES);
        s.put(&mut key);
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.ids.len() as u64;
        self.dict.extend_from_slice(&key);
        self.ids.insert(key, id);
        id
    }
}

/// Encode a whole batched [`ShardStream`] — one scan's worth of
/// locally-sorted boundary events with factor deltas, the message that
/// replaces one round-trip per boundary event, in the delta encoding
/// (version 2). Every byte it produces adds to the
/// `rpc.codec.stream_bytes_delta` counter.
pub fn encode_stream<S: WireSemiring>(stream: &ShardStream<S>) -> Vec<u8> {
    let k = stream.initial.k();
    let mut interner = ScalarInterner::new();
    // body = everything after the dictionary, interning scalars in one
    // canonical traversal order (the same order the decoder replays)
    let mut body = Vec::new();
    for poly in stream.initial.polys() {
        for c in poly {
            put_varint_u64(&mut body, interner.intern(c));
        }
    }
    put_varint_u64(&mut body, interner.intern(&stream.total));
    let mut prev_sim_bits = 0u64;
    let mut prev_row = 0u64;
    for ev in &stream.events {
        debug_assert_eq!(ev.event.updated_poly.len(), k + 1);
        debug_assert_eq!(ev.event.excluding_poly.len(), k + 1);
        let sim_bits = ev.sim.to_bits();
        put_zigzag_i64(&mut body, sim_bits.wrapping_sub(prev_sim_bits) as i64);
        prev_sim_bits = sim_bits;
        let row = ev.row as u64;
        put_zigzag_i64(&mut body, row.wrapping_sub(prev_row) as i64);
        prev_row = row;
        put_varint_u64(&mut body, u64::from(ev.cand));
        put_varint_u64(&mut body, ev.event.label as u64);
        for c in &ev.event.updated_poly {
            put_varint_u64(&mut body, interner.intern(c));
        }
        for c in &ev.event.excluding_poly {
            put_varint_u64(&mut body, interner.intern(c));
        }
        put_varint_u64(&mut body, interner.intern(&ev.event.boundary_mass));
    }
    let mut out = Vec::with_capacity(16 + interner.dict.len() + body.len());
    put_u8(&mut out, S::TAG);
    put_u8(&mut out, STREAM_V_DELTA);
    put_u32(&mut out, k as u32);
    put_u32(&mut out, stream.initial.n_labels() as u32);
    put_varint_u64(&mut out, stream.events.len() as u64);
    put_varint_u64(&mut out, interner.ids.len() as u64);
    out.extend_from_slice(&interner.dict);
    out.extend_from_slice(&body);
    cp_obs::counter!("rpc.codec.stream_bytes_delta").add(out.len() as u64);
    out
}

/// Decode a batched [`ShardStream`], checking the semiring tag, the
/// version byte (any but version 2 is a [`RpcError::BadTag`]), label
/// ranges, dictionary indexes and polynomial shapes.
pub fn decode_stream<S: WireSemiring>(buf: &[u8]) -> RpcResult<ShardStream<S>> {
    let mut r = Reader::new(buf);
    check_semiring_tag::<S>(&mut r)?;
    match r.u8("stream version")? {
        STREAM_V_DELTA => {}
        tag => {
            return Err(RpcError::BadTag {
                what: "stream version",
                tag,
            })
        }
    }
    let k = r.u32("stream slot budget")? as usize;
    let n_labels = r.u32("stream label count")? as usize;
    let n_events = usize::try_from(r.varint_u64("stream events")?)
        .map_err(|_| RpcError::Malformed("stream events: count exceeds usize".into()))?;
    // every delta-coded event costs ≥ 4 key bytes + 2(k+1)+1 index bytes
    let min_event = 4usize.saturating_add((2 * (k + 1) + 1).saturating_mul(1));
    if n_events.saturating_mul(min_event) > r.remaining() {
        return Err(RpcError::Truncated {
            context: "stream events",
        });
    }
    let n_dict = usize::try_from(r.varint_u64("stream dictionary")?)
        .map_err(|_| RpcError::Malformed("stream dictionary: count exceeds usize".into()))?;
    if n_dict.saturating_mul(S::MIN_SCALAR_BYTES) > r.remaining() {
        return Err(RpcError::Truncated {
            context: "stream dictionary",
        });
    }
    let mut dict = Vec::with_capacity(n_dict);
    for _ in 0..n_dict {
        dict.push(S::get(&mut r)?);
    }
    let scalar = |r: &mut Reader<'_>, dict: &[S]| -> RpcResult<S> {
        let i = r.varint_u64("scalar dictionary index")? as usize;
        dict.get(i).cloned().ok_or_else(|| {
            RpcError::Malformed(format!(
                "scalar dictionary index {i} out of range for {} entries",
                dict.len()
            ))
        })
    };
    let scalars = n_labels.saturating_mul(k + 1);
    if scalars > r.remaining() {
        return Err(RpcError::Truncated {
            context: "factor polynomials",
        });
    }
    let mut polys = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        let mut poly = Vec::with_capacity(k + 1);
        for _ in 0..=k {
            poly.push(scalar(&mut r, &dict)?);
        }
        polys.push(poly);
    }
    let initial = ShardFactors::from_polys(polys, k);
    let total = scalar(&mut r, &dict)?;
    let mut events = Vec::with_capacity(n_events);
    let mut prev_sim_bits = 0u64;
    let mut prev_row = 0u64;
    for _ in 0..n_events {
        let sim_delta = r.zigzag_i64("event similarity delta")?;
        prev_sim_bits = prev_sim_bits.wrapping_add(sim_delta as u64);
        let sim = f64::from_bits(prev_sim_bits);
        let row_delta = r.zigzag_i64("event row delta")?;
        prev_row = prev_row.wrapping_add(row_delta as u64);
        let row = usize::try_from(prev_row)
            .map_err(|_| RpcError::Malformed("event row: value exceeds usize".into()))?;
        let cand = u32::try_from(r.varint_u64("event candidate")?)
            .map_err(|_| RpcError::Malformed("event candidate: value exceeds u32".into()))?;
        let label = r.varint_u64("event label")? as usize;
        if label >= n_labels {
            return Err(RpcError::Malformed(format!(
                "event label {label} out of range for {n_labels} labels"
            )));
        }
        let mut updated_poly = Vec::with_capacity(k + 1);
        for _ in 0..=k {
            updated_poly.push(scalar(&mut r, &dict)?);
        }
        let mut excluding_poly = Vec::with_capacity(k + 1);
        for _ in 0..=k {
            excluding_poly.push(scalar(&mut r, &dict)?);
        }
        let boundary_mass = scalar(&mut r, &dict)?;
        events.push(ShardStreamEvent {
            sim,
            row,
            cand,
            event: BoundaryEvent {
                label,
                updated_poly,
                excluding_poly,
                boundary_mass,
            },
        });
    }
    r.finish("shard stream")?;
    Ok(ShardStream {
        initial,
        total,
        events,
    })
}

/// Encode the owner's answer to a swept scan (self-tagged with its
/// semiring, stream version 3): the row's global id, its candidate
/// similarities and the pinned world total, followed by the stream in the
/// delta encoding of [`encode_stream`], whose byte counters it moves.
pub fn encode_swept<S: WireSemiring>(swept: &SweptStream<S>) -> Vec<u8> {
    let stream = encode_stream(&swept.stream);
    let mut out = Vec::with_capacity(16 + 8 * swept.sims.len() + stream.len());
    put_u8(&mut out, S::TAG);
    put_u8(&mut out, STREAM_V_SWEPT);
    put_varint_u64(&mut out, swept.row as u64);
    put_varint_u64(&mut out, swept.sims.len() as u64);
    for &sim in &swept.sims {
        put_f64(&mut out, sim);
    }
    swept.pinned_total.put(&mut out);
    out.extend_from_slice(&stream);
    out
}

/// Decode a swept stream, checking the semiring tag and version, bounding
/// the similarity count by the bytes left, and decoding the embedded
/// stream with [`decode_stream`].
pub fn decode_swept<S: WireSemiring>(buf: &[u8]) -> RpcResult<SweptStream<S>> {
    let mut r = Reader::new(buf);
    check_semiring_tag::<S>(&mut r)?;
    match r.u8("swept stream version")? {
        STREAM_V_SWEPT => {}
        tag => {
            return Err(RpcError::BadTag {
                what: "swept stream version",
                tag,
            })
        }
    }
    let row = usize::try_from(r.varint_u64("swept row")?)
        .map_err(|_| RpcError::Malformed("swept row: value exceeds usize".into()))?;
    let n_sims = usize::try_from(r.varint_u64("swept candidates")?)
        .map_err(|_| RpcError::Malformed("swept candidates: count exceeds usize".into()))?;
    if n_sims.saturating_mul(8) > r.remaining() {
        return Err(RpcError::Truncated {
            context: "swept candidates",
        });
    }
    let mut sims = Vec::with_capacity(n_sims);
    for _ in 0..n_sims {
        sims.push(r.f64("swept candidate similarity")?);
    }
    let pinned_total = S::get(&mut r)?;
    let stream = decode_stream(r.take(r.remaining(), "swept stream body")?)?;
    Ok(SweptStream {
        stream,
        row,
        sims,
        pinned_total,
    })
}

// ---------------------------------------------------------------------------
// ExtremeSummary — the rank-merged binary-Q1 status message
// ---------------------------------------------------------------------------

/// Minimum encoded size of one summary entry (`sim` + `row` + `cand` +
/// `label`), for pre-allocation bounds checks.
const SUMMARY_ENTRY_BYTES: usize = 8 + 8 + 4 + 4;

/// Encode an [`ExtremeSummary`] — the `O(|Y|·K)` message a shard ships per
/// binary status check instead of its whole boundary-event stream.
/// Summaries are semiring-free (their entries are rank keys and label
/// votes), so there is no semiring tag.
pub fn encode_summary(summary: &ExtremeSummary) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, summary.k() as u32);
    put_u32(&mut out, summary.n_labels() as u32);
    for top in summary.tops() {
        put_u32(&mut out, top.len() as u32);
        for e in top {
            put_f64(&mut out, e.sim);
            put_usize(&mut out, e.row);
            put_u32(&mut out, e.cand);
            put_u32(&mut out, e.label as u32);
        }
    }
    out
}

/// Decode an [`ExtremeSummary`], enforcing every invariant the rank merge
/// relies on: per-direction entry counts within the K budget, labels in
/// range, strictly descending rank order (all re-checked by
/// [`ExtremeSummary::from_parts`], so hostile input surfaces as a typed
/// error, never a panic in the merge).
pub fn decode_summary(buf: &[u8]) -> RpcResult<ExtremeSummary> {
    let mut r = Reader::new(buf);
    let k = r.u32("summary slot budget")? as usize;
    let n_labels = r.count(4, "summary directions")?;
    let mut tops = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        let n = r.count(SUMMARY_ENTRY_BYTES, "summary entries")?;
        if n > k {
            return Err(RpcError::Malformed(format!(
                "summary direction holds {n} entries, exceeding the K={k} budget"
            )));
        }
        let mut top = Vec::with_capacity(n);
        for _ in 0..n {
            let sim = r.f64("entry similarity")?;
            let row = r.usize("entry row")?;
            let cand = r.u32("entry candidate")?;
            let label = r.u32("entry label")? as usize;
            top.push(ExtremeEntry {
                sim,
                row,
                cand,
                label,
            });
        }
        tops.push(top);
    }
    r.finish("extreme summary")?;
    ExtremeSummary::from_parts(k, tops)
        .map_err(|e| RpcError::Malformed(format!("extreme summary: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut transport = Vec::new();
        write_frame_tagged(&mut transport, 1, b"hello").unwrap();
        write_frame_tagged(&mut transport, 2, b"").unwrap();
        let mut r = Cursor::new(transport);
        assert_eq!(read_frame_tagged(&mut r).unwrap(), (1, b"hello".to_vec()));
        assert_eq!(read_frame_tagged(&mut r).unwrap(), (2, Vec::new()));
        assert!(matches!(
            read_frame_tagged(&mut r),
            Err(RpcError::Truncated { .. })
        ));
    }

    #[test]
    fn orderly_eof_is_distinguished_from_truncation() {
        // zero bytes at a frame boundary: orderly disconnect
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame_opt_tagged(&mut empty), Ok(None)));
        // a partial length prefix is a real truncation
        let mut partial = Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame_opt_tagged(&mut partial),
            Err(RpcError::Truncated { .. })
        ));
        // a full prefix with a cut-off payload too
        let mut transport = Vec::new();
        write_frame_tagged(&mut transport, 0, b"abcdef").unwrap();
        transport.truncate(7);
        let mut r = Cursor::new(transport);
        assert!(matches!(
            read_frame_opt_tagged(&mut r),
            Err(RpcError::Truncated { .. })
        ));
    }

    #[test]
    fn any_single_bit_flip_in_a_frame_is_detected() {
        let mut transport = Vec::new();
        write_frame_tagged(&mut transport, 7, b"payload bytes").unwrap();
        for at in 0..transport.len() {
            for bit in 0..8 {
                let mut damaged = transport.clone();
                damaged[at] ^= 1 << bit;
                let mut r = Cursor::new(&damaged);
                assert!(
                    read_frame_tagged(&mut r).is_err(),
                    "flipping bit {bit} of byte {at} must not read back cleanly"
                );
            }
        }
    }

    #[test]
    fn oversized_frame_announcement_is_rejected() {
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut r = Cursor::new(bytes);
        assert!(matches!(
            read_frame_tagged(&mut r),
            Err(RpcError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn factors_reject_wrong_semiring() {
        // a stream's opening factors carry its semiring tag
        let stream = ShardStream {
            initial: ShardFactors::<u128>::identity(2, 1),
            total: 1,
            events: Vec::new(),
        };
        let bytes = encode_stream(&stream);
        assert!(matches!(
            decode_stream::<f64>(&bytes),
            Err(RpcError::Protocol(_))
        ));
        assert_eq!(decode_stream::<u128>(&bytes).unwrap(), stream);
    }

    #[test]
    fn summaries_round_trip_and_reject_malformed_bytes() {
        let e = |sim: f64, row: usize, label: usize| ExtremeEntry {
            sim,
            row,
            cand: 1,
            label,
        };
        let summary = ExtremeSummary::from_parts(
            2,
            vec![vec![e(2.0, 0, 1), e(1.0, 3, 0)], vec![e(5.0, 2, 1)]],
        )
        .unwrap();
        let bytes = encode_summary(&summary);
        assert_eq!(decode_summary(&bytes).unwrap(), summary);
        // trailing garbage is malformed
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_summary(&extended),
            Err(RpcError::Malformed(_))
        ));
        // every strict prefix errors cleanly
        for cut in 0..bytes.len() {
            assert!(decode_summary(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// A stream shaped like real scans: descending similarities with small
    /// bit-pattern steps, clustered rows, and heavily repeated polynomial
    /// coefficients (each row's events share its excluding polynomial, and
    /// tally counts recur across boundaries).
    fn representative_stream(n_events: usize) -> ShardStream<f64> {
        let k = 3;
        let initial =
            ShardFactors::from_polys(vec![vec![1.0, 2.0, 0.0, 0.0], vec![1.0, 1.0, 1.0, 0.0]], k);
        let mut events = Vec::with_capacity(n_events);
        let mut sim = 9.75f64;
        for i in 0..n_events {
            sim -= 0.25;
            let row = 40 + (i / 4); // 4 candidate events per row
            let coeff = ((i / 8) % 3) as f64; // coefficients recur
            events.push(ShardStreamEvent {
                sim,
                row,
                cand: (i % 4) as u32,
                event: BoundaryEvent {
                    label: i % 2,
                    updated_poly: vec![1.0, coeff, 2.0, 0.0],
                    excluding_poly: vec![1.0, coeff, 0.0, 0.0],
                    boundary_mass: 1.0,
                },
            });
        }
        ShardStream {
            initial,
            total: 16.0,
            events,
        }
    }

    /// The byte size of the retired fixed-width stream layout: every key at
    /// its natural size and every scalar inline (every [`WireSemiring`] is
    /// fixed-width, `MIN_SCALAR_BYTES` its exact scalar size) — the baseline
    /// the delta encoding's compression floor is measured against.
    fn raw_stream_size<S: WireSemiring>(stream: &ShardStream<S>) -> usize {
        let k = stream.initial.k();
        let n_labels = stream.initial.n_labels();
        let sb = S::MIN_SCALAR_BYTES;
        // tag + version, factors (k + n_labels + polys), total, event count
        2 + (8 + n_labels * (k + 1) * sb)
            + sb
            + 4
            + stream.events.len() * (8 + 8 + 4 + 4 + (2 * (k + 1) + 1) * sb)
    }

    /// Both stream encodings — a plain stream and a swept stream around
    /// it — round-trip exactly.
    #[test]
    fn stream_round_trips_in_both_encodings() {
        for n in [0usize, 1, 7, 64] {
            let stream = representative_stream(n);
            let bytes = encode_stream(&stream);
            assert_eq!(
                decode_stream::<f64>(&bytes).unwrap(),
                stream,
                "stream n={n}"
            );
            let swept = SweptStream {
                stream,
                row: 40,
                sims: vec![0.5, -1.25, 3.0],
                pinned_total: 4.0,
            };
            let bytes = encode_swept(&swept);
            assert_eq!(decode_swept::<f64>(&bytes).unwrap(), swept, "swept n={n}");
        }
    }

    #[test]
    fn delta_encoding_shrinks_the_dominant_message_class() {
        let stream = representative_stream(256);
        let delta = encode_stream(&stream).len();
        let raw = raw_stream_size(&stream);
        assert!(
            delta * 3 <= raw,
            "delta encoding {delta}B should be ≤ 1/3 of the fixed-width {raw}B"
        );
    }

    #[test]
    fn unknown_stream_version_is_a_bad_tag() {
        // version 1 is the retired fixed-width layout
        for version in [1, 9] {
            let mut bytes = encode_stream(&representative_stream(2));
            bytes[1] = version; // byte 0 is the semiring tag, byte 1 the version
            assert!(
                matches!(
                    decode_stream::<f64>(&bytes),
                    Err(RpcError::BadTag {
                        what: "stream version",
                        tag,
                    }) if tag == version
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn hostile_delta_dictionary_indexes_are_malformed() {
        let stream = representative_stream(4);
        let bytes = encode_stream(&stream);
        // every strict prefix errors cleanly
        for cut in 0..bytes.len() {
            assert!(decode_stream::<f64>(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // trailing garbage is malformed
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_stream::<f64>(&extended),
            Err(RpcError::Malformed(_))
        ));
    }

    #[test]
    fn kernel_round_trips() {
        for kernel in [
            Kernel::NegEuclidean,
            Kernel::NegManhattan,
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.25 },
            Kernel::Cosine,
        ] {
            let mut out = Vec::new();
            put_kernel(&mut out, kernel);
            let mut r = Reader::new(&out);
            assert_eq!(get_kernel(&mut r).unwrap(), kernel);
            r.finish("kernel").unwrap();
        }
        let mut r = Reader::new(&[9]);
        assert!(matches!(get_kernel(&mut r), Err(RpcError::BadTag { .. })));
    }
}
