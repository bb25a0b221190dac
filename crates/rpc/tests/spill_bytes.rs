//! Spilling a cached stream writes the wire bytes it arrived in, so it
//! encodes nothing: the codec's wire-byte counter
//! (`rpc.codec.stream_bytes_delta`) counts what crossed the wire, never disk
//! writes.
//!
//! Lives in its own integration-test binary with a single `#[test]`: the
//! counters are process-wide, and nothing else in this binary encodes.

use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins};
use cp_rpc::{encode_stream, CachedStream};
use cp_shard::{build_shard_indexes, capture_streams, local_pins, ShardStream};

#[test]
fn caching_a_spilled_stream_moves_no_wire_byte_counter() {
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
    let streams: Vec<ShardStream<f64>> = capture_streams(&shards, &indexes, &pins, &cfg);
    let stream = &streams[0];
    let counters = || cp_obs::snapshot().counter("rpc.codec.stream_bytes_delta");

    let before_encode = counters();
    let payload = encode_stream(stream);
    let before = counters();
    assert!(before > before_encode, "the counter is live");

    let dir = std::env::temp_dir().join(format!("cp-spill-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cached = CachedStream::spill(&dir.join("s0.run"), &payload, stream).expect("spill");
    assert_eq!(*cached.load().expect("load"), *stream);
    assert_eq!(
        counters(),
        before,
        "spilling and loading count no wire bytes"
    );
    drop(cached);
    std::fs::remove_dir_all(&dir).unwrap();
}
