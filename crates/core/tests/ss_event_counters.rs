//! Event and leaf accounting of the SS-DC scan's provably-zero prefix.
//!
//! `core.ss.events_skipped` counts the allowed candidates below `τ` (the
//! K-th largest rank of a set's lowest allowed candidate), where the scan
//! only advances masses; `core.ss.events_scanned` counts the rest. Of the
//! sets' leaves at `τ`, `core.ss.sets_folded` counts the non-identity
//! frozen ones folded into a per-label scalar (exact semirings only) and
//! `core.ss.leaves_loaded` the ones loaded into the tally trees; identity
//! leaves count in neither. All four are pinned exactly on a hand-built
//! instance whose scan order is worked out below, and the counts are
//! checked against the plain SortScan.
//!
//! Lives in its own integration-test binary with a single `#[test]`
//! because the counters are process-wide.

use cp_core::ss::q2_sortscan_with_index;
use cp_core::ss_tree::q2_sortscan_tree_with_index;
use cp_core::{CpConfig, IncompleteDataset, IncompleteExample, Pins, SimilarityIndex};
use cp_numeric::BigUint;

fn events() -> (u64, u64) {
    (
        cp_obs::counter!("core.ss.events_scanned").get(),
        cp_obs::counter!("core.ss.events_skipped").get(),
    )
}

fn leaves() -> (u64, u64) {
    (
        cp_obs::counter!("core.ss.sets_folded").get(),
        cp_obs::counter!("core.ss.leaves_loaded").get(),
    )
}

#[test]
fn zero_prefix_event_counts_are_exact() {
    // test point 0 on a line; the scan walks farthest-first:
    //   rank 0: (0,0) at -10    rank 3: (2,0) at 3
    //   rank 1: (1,0) at -9     rank 4: (1,1) at 2
    //   rank 2: (3,0) at 8      rank 5: (0,1) at 1
    // so the lowest allowed ranks are f = [0, 1, 3, 2] without pins
    let ds = IncompleteDataset::new(
        vec![
            IncompleteExample::incomplete(vec![vec![-10.0], vec![1.0]], 0),
            IncompleteExample::incomplete(vec![vec![-9.0], vec![2.0]], 1),
            IncompleteExample::complete(vec![3.0], 0),
            IncompleteExample::complete(vec![8.0], 1),
        ],
        2,
    )
    .unwrap();
    let t = [0.0];
    let unpinned = Pins::none(ds.len());
    // pinning set 0 to its rank-5 candidate moves f_0 to 5 and removes the
    // rank-0 candidate from the scan
    let pinned = Pins::single(ds.len(), 0, 1);
    // (K, pins, expected scanned, expected skipped, expected u128 folded,
    // expected loaded). A frozen clean row is the identity `1 + 0·z` in
    // every semiring; a frozen dirty row is `2 + 0·z` in u128 and
    // `1 + 0·z` in probability-space f64. Only at K = 1 under the pin is a
    // dirty row frozen: set 1, both candidates below τ = 5.
    let cases = [
        (1, &unpinned, 3, 3, 0, 3), // τ = 3: ranks 0..3 skipped; set 3 frozen
        (2, &unpinned, 4, 2, 0, 4), // τ = 2
        (3, &unpinned, 5, 1, 0, 4), // τ = 1
        (4, &unpinned, 6, 0, 0, 4), // K = N: τ = min f = 0
        (9, &unpinned, 6, 0, 0, 4), // K > N caps at N
        (1, &pinned, 1, 4, 1, 1),   // τ = 5: only rank 5 is scanned
        (2, &pinned, 3, 2, 0, 3),   // τ = 3; set 3 frozen
    ];
    for (k, pins, scanned, skipped, folded, loaded) in cases {
        let cfg = CpConfig::new(k);
        let idx = SimilarityIndex::build(&ds, cfg.kernel, &t);
        let before = (events(), leaves());
        let fast = q2_sortscan_tree_with_index::<u128>(&ds, &cfg, &idx, pins);
        let after = (events(), leaves());
        assert_eq!(
            (after.0 .0 - before.0 .0, after.0 .1 - before.0 .1),
            (scanned, skipped),
            "K={k} pins={pins:?}: (scanned, skipped)"
        );
        assert_eq!(
            (after.1 .0 - before.1 .0, after.1 .1 - before.1 .1),
            (folded, loaded),
            "K={k} pins={pins:?}: u128 (folded, loaded)"
        );
        // BigUint folds the same sets; f64 is not exact and folds none, and
        // its frozen dirty row is the identity
        for (exact, expected) in [(true, (folded, loaded)), (false, (0, loaded))] {
            let before = leaves();
            if exact {
                let big = q2_sortscan_tree_with_index::<BigUint>(&ds, &cfg, &idx, pins);
                let as_u128: Vec<_> = big.counts.iter().map(|c| c.to_u128().unwrap()).collect();
                assert_eq!(as_u128, fast.counts, "K={k} pins={pins:?}");
            } else {
                q2_sortscan_tree_with_index::<f64>(&ds, &cfg, &idx, pins);
            }
            let after = leaves();
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                expected,
                "K={k} pins={pins:?} exact={exact}: (folded, loaded)"
            );
        }
        let plain = q2_sortscan_with_index::<u128>(&ds, &cfg, &idx, pins);
        assert_eq!(fast.counts, plain.counts, "K={k} pins={pins:?}");
        assert_eq!(fast.total, plain.total);
    }
}
