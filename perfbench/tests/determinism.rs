//! For a fixed seed the work a job does must repeat exactly: rows cleaned,
//! scans per shard server, delta-encoded stream bytes and similarity-index
//! builds. These counts are what a later change can cite as evidence.
//!
//! One test per file: the `cp-obs` registry is process-wide, so a second
//! test running concurrently would leak into the counts.

use perfbench::gen::{self, Shape};
use perfbench::greedy;
use perfbench::trace::Tracer;

const SHAPE: Shape = Shape {
    n: 240,
    m: 3,
    dirty_frac: 0.3,
    n_labels: 2,
    dim: 3,
    n_val: 6,
    k: 3,
    instance: 42,
};

#[test]
fn counts_repeat_exactly_for_a_fixed_seed() {
    perfbench::pin_environment();
    let problem = gen::problem(&SHAPE, 42);
    let tr = Tracer::new(false);
    let counts = |job: &greedy::Job| {
        (
            job.order.clone(),
            job.scans_per_shard.clone(),
            job.reg.counter("rpc.codec.stream_bytes_delta"),
            job.reg.counter("core.similarity.index_builds"),
        )
    };
    let first = greedy::job(&problem, true, &tr, 0).expect("rpc job");
    let second = greedy::job(&problem, true, &tr, 0).expect("rpc job");
    assert!(!first.order.is_empty());
    assert_eq!(first.scans_per_shard.len(), greedy::SHARDS);
    assert!(
        first.scans_per_shard.iter().all(|&s| s > 0),
        "both shards scan"
    );
    assert!(first.reg.counter("rpc.codec.stream_bytes_delta") > 0);
    assert_eq!(counts(&first), counts(&second));

    let local = greedy::job(&problem, false, &tr, 0).expect("local job");
    assert_eq!(local.order, first.order, "RPC picks equal in-process picks");
    assert_eq!(local.final_status(), first.final_status());
    let again = greedy::job(&problem, false, &tr, 0).expect("local job");
    assert_eq!(
        local.reg.counter("core.similarity.index_builds"),
        again.reg.counter("core.similarity.index_builds")
    );
}
