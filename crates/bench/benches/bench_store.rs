//! Durable-store micro-benchmarks: what the `cp-store` layer costs.
//!
//! Four questions, one criterion row each plus a summary artifact:
//!
//! * **WAL append+fsync** — the per-pin durability tax a `--data-dir`
//!   server pays before acknowledging a `Step` (one 12-byte framed record,
//!   one `fdatasync`); this row is storage-device-bound by design.
//! * **WAL replay** — restart-time cost of re-reading a checksummed log.
//! * **Run spill** — writing a stream's wire bytes as an on-disk run (one
//!   write, one `fdatasync`), what the coordinator pays to spill a cached
//!   base stream.
//! * **Merged scan, disk vs RAM** — the k-way merged Q2 scan over streams
//!   read back from their runs and decoded ([`CachedStream::load`]) vs the
//!   same streams in RAM, asserted bit-identical before timing.
//!
//! The summary lands in `BENCH_store.json` at the workspace root (the same
//! hand-rolled-JSON idiom as `rpc_many_sessions`).

use cp_bench::random_incomplete_dataset;
use cp_core::{CpConfig, Pins};
use cp_rpc::{encode_stream, CachedStream};
use cp_shard::{
    build_shard_indexes, capture_streams, local_pins, merged_scan_sources, q2_from_streams,
    ShardStream,
};
use cp_store::{wal, Run, WalWriter};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const N_SHARDS: usize = 3;
const WAL_RECORDS: usize = 1_000;

/// Scratch directory for this process's run/WAL files, removed at the end.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("cp-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-shard probability-space streams for one synthetic test point, whose
/// wire encodings are what the RPC spill layer writes as runs.
fn shard_streams() -> (Vec<ShardStream<f64>>, usize, usize) {
    let (ds, t) = random_incomplete_dataset(400, 4, 0.3, 2, 3, 23);
    let cfg = CpConfig::new(3);
    let shards = ds.partition(N_SHARDS);
    let indexes = build_shard_indexes(&shards, cfg.kernel, &t);
    let pins = local_pins(&shards, &Pins::none(ds.len()));
    let streams = capture_streams(&shards, &indexes, &pins, &cfg);
    (streams, ds.n_labels(), cfg.k_eff(ds.len()))
}

/// Median wall time of `op` in microseconds over `iters` runs.
fn median_us(iters: usize, mut op: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            op();
            t0.elapsed().as_nanos() as f64 / 1_000.0
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn spill_all(dir: &Scratch, streams: &[ShardStream<f64>]) -> Vec<CachedStream<f64>> {
    streams
        .iter()
        .enumerate()
        .map(|(s, st)| {
            let path = dir.path(&format!("scan-s{s}.run"));
            CachedStream::spill(&path, &encode_stream(st), st).expect("spill")
        })
        .collect()
}

fn scan_runs(runs: &[CachedStream<f64>], n_labels: usize, k: usize) -> Vec<f64> {
    let loaded: Vec<_> = runs.iter().map(|r| r.load().expect("load run")).collect();
    let mut cursors: Vec<_> = loaded.iter().map(|st| st.cursor()).collect();
    merged_scan_sources(&mut cursors, n_labels, k, None, |_| false).counts
}

fn bench_store(c: &mut Criterion) {
    let scratch = Scratch::new();
    let (streams, n_labels, k) = shard_streams();
    let n_events: usize = streams.iter().map(|s| s.events.len()).sum();

    // ---- the on-disk fixtures every row below shares ---------------------
    let runs = spill_all(&scratch, &streams);
    let payloads: Vec<Vec<u8>> = streams.iter().map(encode_stream).collect();
    let run_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    let wal_path = scratch.path("bench.wal");
    {
        let mut w = WalWriter::open(&wal_path).expect("open wal");
        for i in 0..WAL_RECORDS {
            w.append(&(i as u32).to_le_bytes()).expect("seed wal");
        }
    }

    // the whole point of spilling: the scans must agree before we time them
    let in_ram = q2_from_streams::<f64, _>(&streams).counts;
    assert_eq!(
        scan_runs(&runs, n_labels, k),
        in_ram,
        "on-disk merged scan must be bit-identical to the in-RAM scan"
    );

    let mut group = c.benchmark_group("store");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);

    // device-bound: one framed record + fdatasync per iteration
    let append_wal = scratch.path("append.wal");
    let mut appender = WalWriter::open(&append_wal).expect("open append wal");
    let mut pin = 0u32;
    group.bench_function("wal_append_fsync", |b| {
        b.iter(|| {
            pin = pin.wrapping_add(1);
            appender.append(&pin.to_le_bytes()).expect("append");
        })
    });
    group.bench_function("wal_replay_1k", |b| {
        b.iter(|| black_box(wal::replay(&wal_path).expect("replay")))
    });
    let spill_path = scratch.path("respill.run");
    let spill = || Run::create(&spill_path, &payloads[0], streams[0].events.len() as u64);
    group.bench_function("run_spill", |b| {
        b.iter(|| black_box(spill().expect("spill")))
    });
    group.bench_function("scan_in_ram", |b| {
        b.iter(|| black_box(q2_from_streams::<f64, _>(&streams).counts))
    });
    // read + CRC + decode + merge from the run files — what a scan over
    // spilled base streams pays
    group.bench_function("scan_on_disk", |b| {
        b.iter(|| black_box(scan_runs(&runs, n_labels, k)))
    });
    group.finish();

    // ---- summary artifact ------------------------------------------------
    let append_us = median_us(50, || {
        pin = pin.wrapping_add(1);
        appender.append(&pin.to_le_bytes()).expect("append");
    });
    let replay_us = median_us(20, || {
        black_box(wal::replay(&wal_path).expect("replay"));
    });
    let spill_us = median_us(20, || {
        black_box(spill().expect("spill"));
    });
    let ram_us = median_us(20, || {
        black_box(q2_from_streams::<f64, _>(&streams).counts);
    });
    let disk_us = median_us(20, || {
        black_box(scan_runs(&runs, n_labels, k));
    });

    let json = format!(
        "{{\n  \"bench\": \"store\",\n  \
         \"workload\": {{\"n\": 400, \"shards\": {N_SHARDS}, \"events\": {n_events}, \
         \"run_bytes\": {run_bytes}}},\n  \
         \"wal\": {{\"append_fsync_us\": {append_us:.1}, \
         \"replay_1k_records_us\": {replay_us:.1}}},\n  \
         \"run\": {{\"spill_us\": {spill_us:.1}}},\n  \
         \"scan\": {{\"in_ram_us\": {ram_us:.1}, \"on_disk_us\": {disk_us:.1}, \
         \"disk_over_ram\": {:.2}}}\n}}\n",
        disk_us / ram_us
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_store.json");
    std::fs::write(&out, json).expect("write benchmark artifact");
    println!(
        "wrote BENCH_store.json (scan disk/ram = {:.2}x)",
        disk_us / ram_us
    );
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
