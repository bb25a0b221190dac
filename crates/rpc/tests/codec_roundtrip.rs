//! Codec round-trip and robustness properties.
//!
//! * `decode(encode(x)) == x` for a stream's opening [`ShardFactors`] in
//!   every wire semiring (binary and multiclass label spaces), [`Pins`], CP
//!   status vectors, whole batched [`ShardStream`]s and swept streams;
//! * a decoded swept stream gives every pin of its row the single-process
//!   counts under that pin;
//! * shard streams captured from real scans (each starting at its shard's
//!   zero-prefix bound) merge, after the codec round trip, to the full-walk
//!   counts;
//! * every decoder survives arbitrary garbage bytes and every strict prefix
//!   of a valid encoding with a typed [`RpcError`] — no panics, no
//!   unbounded allocations.

use cp_core::mm_summary::cmp_entries;
use cp_core::ss::q2_sortscan_with_index;
use cp_core::{
    certain_label_with_index, CpConfig, DatasetShard, ExtremeEntry, ExtremeSummary,
    IncompleteDataset, IncompleteExample, Pins, Q2Result, ShardFactors, SimilarityIndex,
};
use cp_knn::Kernel;
use cp_numeric::Possibility;
use cp_rpc::codec::{
    decode_stream, decode_summary, decode_swept, encode_stream, encode_summary, encode_swept,
    get_pins, put_pins, read_frame_opt_tagged, read_frame_tagged, write_frame_tagged,
    FRAME_OVERHEAD, MAX_FRAME_LEN, READ_BUFFER_BYTES,
};
use cp_rpc::proto::{decode_request, decode_response, encode_request, OpenShard, Request};
use cp_rpc::wire::Reader;
use cp_rpc::RpcError;
use cp_rpc::WireSemiring;
use cp_shard::{
    build_shard_indexes, capture_streams, certain_label_from_streams, local_pins,
    merged_sweep_sources, q2_from_streams, BoundaryEvent, ShardStream, ShardStreamEvent,
    SweptStream,
};
use proptest::prelude::*;
use std::io::{BufReader, Cursor, Read, Write};

/// `(n_labels, k, flat scalars)` — enough to assemble factors in any
/// semiring; label counts cover binary (2) and multiclass (3..=5) spaces.
fn arb_factor_shape() -> impl Strategy<Value = (usize, usize, Vec<u64>)> {
    (2usize..=5, 0usize..=4).prop_flat_map(|(n_labels, k)| {
        let n = n_labels * (k + 1);
        (
            Just(n_labels),
            Just(k),
            proptest::collection::vec(0u64..1_000_000_000, n..=n),
        )
    })
}

fn factors_from<S, F>(n_labels: usize, k: usize, scalars: &[u64], lift: F) -> ShardFactors<S>
where
    S: cp_numeric::CountSemiring,
    F: Fn(u64) -> S,
{
    let polys: Vec<Vec<S>> = (0..n_labels)
        .map(|l| (0..=k).map(|c| lift(scalars[l * (k + 1) + c])).collect())
        .collect();
    ShardFactors::from_polys(polys, k)
}

/// The encoding of an event-free stream opening at `initial` — how a
/// shard's factors travel.
fn encode_factors<S: WireSemiring>(initial: &ShardFactors<S>) -> Vec<u8> {
    encode_stream(&ShardStream {
        initial: initial.clone(),
        total: S::one(),
        events: Vec::new(),
    })
}

/// The opening factors of a decoded stream.
fn decode_factors<S: WireSemiring>(bytes: &[u8]) -> Result<ShardFactors<S>, RpcError> {
    decode_stream::<S>(bytes).map(|stream| stream.initial)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn factors_round_trip_u128((n_labels, k, scalars) in arb_factor_shape()) {
        let f = factors_from(n_labels, k, &scalars, |v| v as u128);
        prop_assert_eq!(decode_factors::<u128>(&encode_factors(&f)).unwrap(), f);
    }

    #[test]
    fn factors_round_trip_f64((n_labels, k, scalars) in arb_factor_shape()) {
        let f = factors_from(n_labels, k, &scalars, |v| v as f64 / 7.0);
        prop_assert_eq!(decode_factors::<f64>(&encode_factors(&f)).unwrap(), f);
    }

    #[test]
    fn factors_round_trip_possibility((n_labels, k, scalars) in arb_factor_shape()) {
        let f = factors_from(n_labels, k, &scalars, |v| Possibility(v % 2 == 0));
        prop_assert_eq!(decode_factors::<Possibility>(&encode_factors(&f)).unwrap(), f);
    }

    #[test]
    fn factors_reject_every_other_semiring((n_labels, k, scalars) in arb_factor_shape()) {
        let f = factors_from(n_labels, k, &scalars, |v| v as u128);
        let bytes = encode_factors(&f);
        prop_assert!(decode_factors::<f64>(&bytes).is_err());
        prop_assert!(decode_factors::<Possibility>(&bytes).is_err());
    }

    #[test]
    fn pins_round_trip(entries in proptest::collection::vec(0u32..8, 0..=12)) {
        let mut pins = Pins::none(entries.len());
        for (i, &e) in entries.iter().enumerate() {
            if e > 0 {
                pins.pin(i, (e - 1) as usize);
            }
        }
        let mut buf = Vec::new();
        put_pins(&mut buf, &pins);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(get_pins(&mut r).unwrap(), pins);
        r.finish("pins").unwrap();
    }

    #[test]
    fn streams_round_trip(
        (n_labels, k, scalars) in arb_factor_shape(),
        raw_events in proptest::collection::vec(
            (0u64..1_000, 0usize..50, 0u32..6, 0u64..1_000_000),
            0..=10,
        ),
    ) {
        let initial = factors_from(n_labels, k, &scalars, |v| v as f64 / 3.0);
        let events: Vec<ShardStreamEvent<f64>> = raw_events
            .into_iter()
            .map(|(sim, row, cand, seed)| ShardStreamEvent {
                sim: sim as f64 / 13.0,
                row,
                cand,
                event: BoundaryEvent {
                    label: (seed % n_labels as u64) as usize,
                    updated_poly: (0..=k).map(|c| (seed + c as u64) as f64).collect(),
                    excluding_poly: (0..=k).map(|c| (seed * 2 + c as u64) as f64).collect(),
                    boundary_mass: seed as f64 / 11.0,
                },
            })
            .collect();
        let stream = ShardStream { initial, total: 0.5, events };
        // the delta encoding round-trips bit-exactly
        prop_assert_eq!(decode_stream::<f64>(&encode_stream(&stream)).unwrap(), stream);
    }

    /// Extreme summaries round-trip exactly, and every strict prefix of a
    /// valid encoding is a typed error.
    #[test]
    fn summaries_round_trip(
        k in 1usize..=4,
        raw in proptest::collection::vec((0u64..1_000, 0u32..4, 0usize..2), 0..=10),
        cut_seed in 0usize..10_000,
    ) {
        // distinct keys by construction (row = pool index), split across
        // the two directions, sorted descending and clipped to the budget
        let mut tops: Vec<Vec<ExtremeEntry>> = vec![Vec::new(), Vec::new()];
        for (row, (sim, cand, label)) in raw.into_iter().enumerate() {
            let e = ExtremeEntry { sim: sim as f64 / 9.0, row, cand, label };
            tops[label].push(e);
        }
        for top in &mut tops {
            top.sort_unstable_by(|a, b| cmp_entries(b, a));
            top.truncate(k);
        }
        let summary = ExtremeSummary::from_parts(k, tops).expect("sorted by construction");
        let bytes = encode_summary(&summary);
        prop_assert_eq!(decode_summary(&bytes).unwrap(), summary);
        let cut = cut_seed % bytes.len();
        prop_assert!(
            decode_summary(&bytes[..cut]).is_err(),
            "strict summary prefix must not decode (cut {})", cut
        );
    }

    /// Delta-compressed `Open` payloads round-trip exactly for arbitrary
    /// shards, every strict prefix errors, and any single-byte corruption
    /// is handled without a panic.
    #[test]
    fn open_payloads_round_trip_and_survive_damage(
        (start, n_labels, k) in (0usize..1_000, 2usize..=4, 0usize..=3),
        (gamma_num, dim, n_val) in (0u32..100, 1usize..=3, 0usize..=4),
        raw_examples in proptest::collection::vec(
            (0u64..4, proptest::collection::vec(0i64..2_000, 1..=3)),
            0..=6,
        ),
        choice_seeds in proptest::collection::vec(0u32..5, 0..=6),
        (cut_seed, flip_seed) in (0usize..10_000, 0usize..10_000),
    ) {
        // candidate points per example are built from integer seeds so the
        // f64 coordinates are exact and the round-trip can be `==`-checked
        let examples: Vec<(usize, Vec<Vec<f64>>)> = raw_examples
            .iter()
            .map(|(label, cands)| {
                let pts = cands
                    .iter()
                    .map(|&c| (0..dim).map(|j| (c + j as i64) as f64 / 4.0).collect())
                    .collect();
                ((*label % n_labels as u64) as usize, pts)
            })
            .collect();
        let n_examples = examples.len();
        let choices: Vec<Option<u32>> = (0..n_examples)
            .map(|i| {
                let s = choice_seeds.get(i).copied().unwrap_or(0);
                if s == 0 { None } else { Some(s - 1) }
            })
            .collect();
        let open = OpenShard {
            start,
            n_labels,
            k,
            kernel: if gamma_num == 0 {
                Kernel::default()
            } else {
                Kernel::Rbf { gamma: gamma_num as f64 / 16.0 }
            },
            n_threads: 2,
            examples,
            val_x: (0..n_val).map(|i| vec![i as f64; dim]).collect(),
            truth_choice: choices.clone(),
            default_choice: choices,
        };
        let req = Request::Open(Box::new(open));
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes).unwrap(), req);
        let cut = cut_seed % bytes.len();
        prop_assert!(
            decode_request(&bytes[..cut]).is_err(),
            "strict open prefix must not decode (cut {})", cut
        );
        // a single flipped byte decodes to something, errors, or trips a
        // plausibility check — whatever happens, it must not panic
        let mut damaged = bytes.clone();
        let at = flip_seed % damaged.len();
        damaged[at] ^= 1 << (flip_seed % 8);
        let _ = decode_request(&damaged);
    }

    /// Garbage never panics any decoder; it returns Ok or a typed error.
    #[test]
    fn garbage_is_handled_gracefully(bytes in proptest::collection::vec(0u8..=255, 0..=96)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = decode_stream::<u128>(&bytes);
        let _ = decode_stream::<f64>(&bytes);
        let _ = decode_stream::<Possibility>(&bytes);
        let _ = decode_swept::<u128>(&bytes);
        let _ = decode_swept::<f64>(&bytes);
        let _ = decode_swept::<Possibility>(&bytes);
        let _ = decode_summary(&bytes);
        let mut r = Reader::new(&bytes);
        let _ = get_pins(&mut r);
        let mut cursor = Cursor::new(bytes);
        let _ = read_frame_tagged(&mut cursor);
    }

    /// Every strict prefix of a valid encoding is a typed error, not a
    /// panic — the two `.unwrap()`-shaped failure modes (truncation and
    /// shape mismatch) both cross this boundary.
    #[test]
    fn truncated_valid_encodings_error_cleanly(
        (n_labels, k, scalars) in arb_factor_shape(),
        cut_seed in 0usize..10_000,
    ) {
        let f = factors_from(n_labels, k, &scalars, |v| v as u128);
        let stream = ShardStream {
            initial: f.clone(),
            total: 3u128,
            events: vec![ShardStreamEvent {
                sim: 0.25,
                row: 1,
                cand: 0,
                event: BoundaryEvent {
                    label: 0,
                    updated_poly: vec![1u128; k + 1],
                    excluding_poly: vec![2u128; k + 1],
                    boundary_mass: 1,
                },
            }],
        };
        let factor_bytes = encode_factors(&f);
        let cut = cut_seed % factor_bytes.len();
        prop_assert!(
            decode_factors::<u128>(&factor_bytes[..cut]).is_err(),
            "strict factor prefix must not decode (cut {})", cut
        );
        let stream_bytes = encode_stream(&stream);
        let cut = cut_seed % stream_bytes.len();
        prop_assert!(
            decode_stream::<u128>(&stream_bytes[..cut]).is_err(),
            "strict stream prefix must not decode (cut {})", cut
        );
        let req = encode_request(&Request::Step {
            session: 3,
            local_row: 1,
            expect_cleaned: 2,
        });
        let cut = cut_seed % req.len();
        prop_assert!(decode_request(&req[..cut]).is_err());
    }
}

#[test]
fn frames_round_trip_over_a_byte_transport() {
    let payloads: Vec<Vec<u8>> = vec![vec![], vec![1], vec![0xAB; 1000]];
    let mut transport = Vec::new();
    for (id, p) in payloads.iter().enumerate() {
        write_frame_tagged(&mut transport, id as u32, p).unwrap();
    }
    let mut r = Cursor::new(&transport);
    for (id, p) in payloads.iter().enumerate() {
        assert_eq!(read_frame_tagged(&mut r).unwrap(), (id as u32, p.clone()));
    }
    // EOF at a frame boundary is the orderly-disconnect signal
    assert!(matches!(
        read_frame_tagged(&mut r),
        Err(RpcError::Truncated {
            context: "frame length prefix"
        })
    ));
}

#[test]
fn truncated_frames_error_at_every_cut() {
    let mut transport = Vec::new();
    write_frame_tagged(&mut transport, 0, b"twelve bytes").unwrap();
    for cut in 0..transport.len() {
        let mut r = Cursor::new(&transport[..cut]);
        assert!(
            matches!(read_frame_tagged(&mut r), Err(RpcError::Truncated { .. })),
            "cut at {cut} must be a truncation error"
        );
        // the same through a connection's read buffer, however the bytes
        // arrive; only a cut at the frame boundary is an orderly EOF
        for chunk in [1, usize::MAX] {
            let mut r = buffered(&transport[..cut], chunk);
            match read_frame_opt_tagged(&mut r) {
                Ok(None) => assert_eq!(cut, 0, "chunk {chunk}: EOF mid-frame at {cut}"),
                Err(RpcError::Truncated { .. }) => assert!(cut > 0, "chunk {chunk}"),
                other => panic!("cut at {cut}, chunk {chunk}: {other:?}"),
            }
        }
    }
}

/// A `Write` that counts the calls a frame writer makes on it.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    writes: usize,
    flushes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

/// A transport that yields at most `chunk` bytes per `read` and counts
/// its reads.
struct Chunked<'a> {
    data: &'a [u8],
    chunk: usize,
    reads: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        let n = buf.len().min(self.chunk).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// `data` behind a connection-sized read buffer, delivered `chunk` bytes
/// per underlying `read`.
fn buffered(data: &[u8], chunk: usize) -> BufReader<Chunked<'_>> {
    BufReader::with_capacity(
        READ_BUFFER_BYTES,
        Chunked {
            data,
            chunk,
            reads: 0,
        },
    )
}

/// Read frames until the orderly EOF at a frame boundary.
fn read_all_frames<R: Read>(r: &mut R) -> Vec<(u32, Vec<u8>)> {
    let mut frames = Vec::new();
    while let Some(frame) = read_frame_opt_tagged(r).expect("a whole frame") {
        frames.push(frame);
    }
    frames
}

#[test]
fn a_frame_is_one_write_and_one_flush() {
    for len in [0, 1, 12, 1000, 3 * READ_BUFFER_BYTES] {
        let payload = vec![0x5A; len];
        let mut w = CountingWriter::default();
        write_frame_tagged(&mut w, 7, &payload).unwrap();
        assert_eq!((w.writes, w.flushes), (1, 1), "payload of {len} bytes");
        assert_eq!(w.bytes.len() as u64, FRAME_OVERHEAD + len as u64);
        let mut r = Cursor::new(&w.bytes);
        assert_eq!(read_frame_opt_tagged(&mut r).unwrap(), Some((7, payload)));
    }
}

#[test]
fn frame_bytes_are_pinned() {
    assert_eq!(FRAME_OVERHEAD, 12);
    assert_eq!(MAX_FRAME_LEN, 64 << 20);
    let mut bytes = Vec::new();
    write_frame_tagged(&mut bytes, 0x0102_0304, b"cp").unwrap();
    write_frame_tagged(&mut bytes, 0, b"").unwrap();
    #[rustfmt::skip]
    let golden: [u8; 26] = [
        0, 0, 0, 2, 1, 2, 3, 4, b'c', b'p', 0xCE, 0xE0, 0xB7, 0xF0,
        0, 0, 0, 0, 0, 0, 0, 0, 0x65, 0x22, 0xDF, 0x69,
    ];
    assert_eq!(bytes, golden);
}

#[test]
fn buffered_reads_give_the_same_frames_however_the_bytes_arrive() {
    let sizes = [
        0,
        1,
        12,
        1000,
        READ_BUFFER_BYTES - 5,
        2 * READ_BUFFER_BYTES + 3,
    ];
    let sent: Vec<(u32, Vec<u8>)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let payload = (0..len).map(|b| (b * 31 + i) as u8).collect();
            (i as u32 * 3 + 1, payload)
        })
        .collect();
    let mut transport = Vec::new();
    for (id, payload) in &sent {
        write_frame_tagged(&mut transport, *id, payload).unwrap();
    }
    for chunk in [1, 7, 4096, usize::MAX] {
        let mut r = buffered(&transport, chunk);
        assert_eq!(read_all_frames(&mut r), sent, "chunk {chunk}");
    }
}

#[test]
fn one_read_brings_in_several_frames() {
    let sent: Vec<(u32, Vec<u8>)> = (0..8)
        .map(|i| (i, vec![i as u8; 40 * i as usize]))
        .collect();
    let mut transport = Vec::new();
    for (id, payload) in &sent {
        write_frame_tagged(&mut transport, *id, payload).unwrap();
    }
    let mut r = buffered(&transport, usize::MAX);
    assert_eq!(read_all_frames(&mut r), sent);
    // one read for all eight frames, one more for the orderly EOF
    assert_eq!(r.get_ref().reads, 2);
}

/// A captured-stream case: a dataset on a small 1-d grid (exact similarity
/// ties are common, `grid = 1` makes them dominant), a test point, K in
/// 1..=5 (often above a shard's row count), random pins, and a shard count
/// from {1, 2, 3, 7}.
fn arb_captured_case() -> impl Strategy<Value = (IncompleteDataset, Vec<f64>, usize, Pins, usize)> {
    (2usize..=4, 1usize..=14, 1usize..=5, 1i32..=6, 0usize..4).prop_flat_map(
        |(n_labels, n, k, grid, shards)| {
            // (candidate grid points, label, pin choice)
            let example = (
                proptest::collection::vec(-grid..=grid, 1..=4),
                0..n_labels,
                0usize..8,
            );
            (
                proptest::collection::vec(example, n..=n),
                -grid..=grid,
                Just((n_labels, k, [1, 2, 3, 7][shards])),
            )
                .prop_map(|(rows, t, (n_labels, k, n_shards))| {
                    let mut examples = Vec::new();
                    let mut pins = Vec::new();
                    for (i, (points, label, pin)) in rows.into_iter().enumerate() {
                        if pin < 3 && pin < points.len() {
                            pins.push((i, pin));
                        }
                        let candidates = points.into_iter().map(|g| vec![g as f64]).collect();
                        examples.push(IncompleteExample::incomplete(candidates, label));
                    }
                    let ds = IncompleteDataset::new(examples, n_labels).unwrap();
                    let pins = Pins::from_pairs(ds.len(), &pins);
                    (ds, vec![t as f64], k, pins, n_shards)
                })
        },
    )
}

/// Capture every shard's stream (opened at its zero-prefix bound), push it
/// through the wire codec, and decode it back.
fn wire_streams<S: WireSemiring>(
    shards: &[DatasetShard],
    indexes: &[SimilarityIndex],
    pins: &[Pins],
    cfg: &CpConfig,
) -> Vec<ShardStream<S>> {
    capture_streams::<S, _, _>(shards, indexes, pins, cfg)
        .iter()
        .map(|st| decode_stream::<S>(&encode_stream(st)).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Streams that start at each shard's `τ_s`, captured → encoded →
    /// decoded → merged, equal the plain SortScan (which walks every
    /// candidate) exactly, and the merge of the same streams without the
    /// codec bit for bit in `f64`. `cp-shard`'s proptests hold the same
    /// streams to its full-walk scan in every semiring.
    #[test]
    fn decoded_tau_s_streams_merge_to_the_full_walk(
        (ds, t, k, pins, n_shards) in arb_captured_case()
    ) {
        let cfg = CpConfig::new(k);
        let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
        let shards = ds.partition(n_shards);
        let indexes = build_shard_indexes(&shards, cfg.kernel, &t);
        let local = local_pins(&shards, &pins);

        let exact = q2_from_streams::<u128, _>(&wire_streams(&shards, &indexes, &local, &cfg));
        let walk = q2_sortscan_with_index::<u128>(&ds, &cfg, &idx, &pins);
        prop_assert_eq!(&exact.counts, &walk.counts);
        prop_assert_eq!(exact.total, walk.total);

        let poss = wire_streams::<Possibility>(&shards, &indexes, &local, &cfg);
        let walk = q2_sortscan_with_index::<Possibility>(&ds, &cfg, &idx, &pins);
        prop_assert_eq!(&q2_from_streams::<Possibility, _>(&poss).counts, &walk.counts);
        prop_assert_eq!(
            certain_label_from_streams(&poss),
            certain_label_with_index(&ds, &cfg, &idx, &pins)
        );

        let bits = |r: Q2Result<f64>| r.counts.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let wire = q2_from_streams::<f64, _>(&wire_streams(&shards, &indexes, &local, &cfg));
        let captured = q2_from_streams::<f64, _>(&capture_streams(&shards, &indexes, &local, &cfg));
        prop_assert_eq!(bits(wire), bits(captured));
    }

    /// A swept stream survives the codec (and only its own decoder takes
    /// it; every strict prefix is a typed error), and the decoded sweep,
    /// merged with the other shards' decoded streams, gives every pin of
    /// the row the exact counts of the single-process scan under it.
    #[test]
    fn decoded_swept_streams_answer_every_pin_of_their_row(
        (ds, t, k, pins, n_shards) in arb_captured_case(),
        cut_seed in 0usize..10_000,
    ) {
        let cfg = CpConfig::new(k);
        let k_eff = cfg.k_eff(ds.len());
        let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
        let shards = ds.partition(n_shards);
        let indexes = build_shard_indexes(&shards, cfg.kernel, &t);
        let local = local_pins(&shards, &pins);
        let base = wire_streams::<u128>(&shards, &indexes, &local, &cfg);
        for (s, sh) in shards.iter().enumerate() {
            for row in (0..sh.len()).filter(|&i| local[s].pinned(i).is_none()) {
                let swept = SweptStream::<u128>::capture(sh, &indexes[s], &local[s], k_eff, row);
                let bytes = encode_swept(&swept);
                let back = decode_swept::<u128>(&bytes).unwrap();
                prop_assert_eq!(&back, &swept);
                prop_assert!(decode_stream::<u128>(&bytes).is_err());
                prop_assert!(decode_swept::<f64>(&bytes).is_err());
                let cut = cut_seed % bytes.len();
                prop_assert!(decode_swept::<u128>(&bytes[..cut]).is_err(), "cut {}", cut);

                let mut cursors: Vec<_> = base
                    .iter()
                    .enumerate()
                    .map(|(u, st)| if u == s { back.stream.cursor() } else { st.cursor() })
                    .collect();
                let label = ds.label(back.row);
                let got =
                    merged_sweep_sources(&mut cursors, s, &back, label, ds.n_labels(), k_eff, None);
                prop_assert_eq!(got.len(), ds.set_size(back.row));
                for (j, got) in got.iter().enumerate() {
                    let mut pinned = pins.clone();
                    pinned.pin(back.row, j);
                    let want = q2_sortscan_with_index::<u128>(&ds, &cfg, &idx, &pinned);
                    prop_assert_eq!(&got.counts, &want.counts, "row {} pin {}", back.row, j);
                    prop_assert_eq!(got.total, want.total);
                }
            }
        }
    }
}
