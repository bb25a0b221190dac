//! Event accounting of per-shard scans opened at their zero-prefix bound.
//!
//! Each shard opens at `τ_s`, the K-th largest rank of a set's lowest
//! allowed candidate over its own sets (global K). Opening adds the allowed
//! candidates below `τ_s` to `core.ss.events_skipped`; dropping the scan
//! adds the events it processed to `core.ss.events_scanned`. Both are
//! pinned exactly for a 2-shard capture whose scan orders are worked out
//! below, and the captured streams are checked against the single-process
//! scan.
//!
//! Lives in its own integration-test binary with a single `#[test]`
//! because the counters are process-wide.

use cp_core::ss_tree::q2_sortscan_tree_with_index;
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins, SimilarityIndex};
use cp_shard::{build_shard_indexes, capture_streams, local_pins, q2_from_streams, ShardStream};

fn events() -> (u64, u64) {
    (
        cp_obs::counter!("core.ss.events_scanned").get(),
        cp_obs::counter!("core.ss.events_skipped").get(),
    )
}

#[test]
fn shard_capture_event_counts_are_exact() {
    // test point 0 on a line; each shard walks its own sets farthest-first:
    //   shard 0 (rows 0..3)           shard 1 (rows 3..6)
    //   rank 0: (0,0) at -10          rank 0: (4,0) at 9.5
    //   rank 1: (1,0) at -9           rank 1: (3,0) at -8
    //   rank 2: (2,0) at 3            rank 2: (5,0) at -7
    //   rank 3: (1,1) at 2            rank 3: (5,1) at 6
    //   rank 4: (0,1) at 1            rank 4: (5,2) at 4
    //                                 rank 5: (3,1) at 0.5
    // so the lowest allowed ranks are f = [0, 1, 2] on shard 0 and
    // f = [1, 0, 2] on shard 1 without pins
    let ds = IncompleteDataset::new(
        vec![
            IncompleteExample::incomplete(vec![vec![-10.0], vec![1.0]], 0),
            IncompleteExample::incomplete(vec![vec![-9.0], vec![2.0]], 1),
            IncompleteExample::complete(vec![3.0], 0),
            IncompleteExample::incomplete(vec![vec![-8.0], vec![0.5]], 1),
            IncompleteExample::complete(vec![9.5], 1),
            IncompleteExample::incomplete(vec![vec![-7.0], vec![6.0], vec![4.0]], 0),
        ],
        2,
    )
    .unwrap();
    let t = [0.0];
    let shards = ds.partition(2);
    let unpinned = Pins::none(ds.len());
    // pinning row 5 to its rank-4 candidate moves shard 1's f to [1, 0, 4]
    // and removes ranks 2 and 3 from its scan
    let pinned = Pins::single(ds.len(), 5, 2);
    // (K, pins, expected scanned per shard, expected skipped per shard)
    let cases = [
        (1, &unpinned, [3, 4], [2, 2]), // τ_s = 2 on both shards
        (2, &unpinned, [4, 5], [1, 1]), // τ_s = 1
        (3, &unpinned, [5, 6], [0, 0]), // K = N_s: τ_s = min f = 0
        (4, &unpinned, [5, 6], [0, 0]), // K > N_s: nothing is skipped
        (1, &pinned, [3, 2], [2, 2]),   // shard 1: τ_s = 4 skips ranks 0 and 1
        (2, &pinned, [4, 3], [1, 1]),   // shard 1: τ_s = 1
    ];
    for (k, pins, scanned, skipped) in cases {
        let cfg = CpConfig::new(k);
        let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
        let single = q2_sortscan_tree_with_index::<u128>(&ds, &cfg, &idx, pins);
        let indexes = build_shard_indexes(&shards, cfg.kernel, &t);
        let local = local_pins(&shards, pins);

        let before = events();
        let streams: Vec<ShardStream<u128>> = capture_streams(&shards, &indexes, &local, &cfg);
        let after = events();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (scanned.iter().sum(), skipped.iter().sum()),
            "K={k} pins={pins:?}: (scanned, skipped)"
        );
        let per_shard: Vec<u64> = streams.iter().map(|s| s.events.len() as u64).collect();
        assert_eq!(per_shard, scanned, "K={k} pins={pins:?}: events per stream");

        let merged = q2_from_streams(&streams);
        assert_eq!(merged.counts, single.counts, "K={k} pins={pins:?}");
        assert_eq!(merged.total, single.total);
    }
}
