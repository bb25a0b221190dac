//! Metric names, units and the result line.

use crate::stats::{median, quantile};
use crate::trace::{self_time_by_layer, Span};
use crate::Samples;
use cp_obs::Snapshot;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run (zero where the
/// workload does not exercise the layer).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("core.index_build_ms", "ms"),
    ("core.index_builds", "count"),
    ("core.tree_builds", "count"),
    ("core.scan_us_per_point.q1", "us"),
    ("core.scan_us_per_point.q2_prob", "us"),
    ("core.scan_us_per_point.q2_exact", "us"),
    ("core.self_ms", "ms"),
    ("numeric.exact_over_float", "ratio"),
    ("clean.rows_cleaned", "count"),
    ("clean.select_ms_per_step", "ms"),
    ("clean.status_ms_per_step", "ms"),
    ("clean.selection.cache_hit_ratio", "ratio"),
    ("clean.selection.pruned", "count"),
    ("clean.self_ms", "ms"),
    ("shard.scans", "count"),
    ("shard.scan_imbalance", "ratio"),
    ("shard.events_per_scan", "count"),
    ("shard.capture_us_per_scan", "us"),
    ("shard.merge_us_per_scan", "us"),
    ("shard.capture_share", "ratio"),
    ("shard.merge_share", "ratio"),
    ("rpc.codec.encode_us_per_scan", "us"),
    ("rpc.codec.decode_us_per_scan", "us"),
    ("rpc.codec.encode_share", "ratio"),
    ("rpc.codec.decode_share", "ratio"),
    ("rpc.codec.stream_bytes_delta", "bytes"),
    ("rpc.stream_bytes_per_step", "bytes"),
    ("rpc.round_trips_per_step", "count"),
    ("rpc.client.rtt_mean_us", "us"),
    ("rpc.server.scan_service_mean_us", "us"),
    ("rpc.server.step_service_mean_us", "us"),
    ("rpc.server.summary_service_mean_us", "us"),
    ("rpc.open_ms", "ms"),
    ("rpc.client.retries", "count"),
    ("rpc.self_ms", "ms"),
    ("store.wal.fsync_mean_us", "us"),
    ("store.wal.fsyncs_per_step", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.traced_jobs", "count"),
    ("obs.untraced_job_s", "s"),
    ("obs.traced_job_s", "s"),
];

/// The result of one run: the output checks and the metrics by name.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(s: &Samples) -> Self {
        let or_zero = |v: &[f64], f: &dyn Fn(&[f64]) -> f64| if v.is_empty() { 0.0 } else { f(v) };
        let busy: f64 = s.job_s.iter().sum();
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", or_zero(&s.setup_s, &median));
        metrics.insert("job_s", or_zero(&s.job_s, &median));
        metrics.insert(
            "ops_per_s",
            if busy > 0.0 {
                s.ops() as f64 / busy
            } else {
                0.0
            },
        );
        metrics.insert("op_p50_ms", or_zero(&s.op_ms, &median));
        metrics.insert("op_p90_ms", or_zero(&s.op_ms, &|v| quantile(v, 0.9)));
        println!(
            "samples: {} setups, {} jobs, {} ops",
            s.setup_s.len(),
            s.job_s.len(),
            s.ops()
        );
        println!("job_s samples: {:.4?}", s.job_s);
        Report {
            attempted: s.attempted + s.ops() as u64,
            failed: s.failed,
            metrics,
        }
    }

    /// A traced run's report: every per-layer metric, zero unless set.
    pub fn per_layer(attempted: u64, failed: u64) -> Self {
        Report {
            attempted,
            failed,
            metrics: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.metrics.contains_key(name),
            "unknown per-layer metric {name}"
        );
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Tracing overhead: median traced job time over median untraced job
    /// time, minus one.
    pub fn set_overhead(&mut self, plain_s: &[f64], traced_s: &[f64]) {
        if plain_s.is_empty() || traced_s.is_empty() {
            return;
        }
        let (plain, traced) = (median(plain_s), median(traced_s));
        self.set("obs.traced_jobs", traced_s.len() as f64);
        self.set("obs.untraced_job_s", plain);
        self.set("obs.traced_job_s", traced);
        self.set("obs.trace_overhead_frac", traced / plain - 1.0);
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn json(&self) -> String {
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u)
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    unit(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-layer metrics every cleaning workload shares; `n` traced jobs of
/// `steps` steps in total.
pub fn set_common(r: &mut Report, reg: &Snapshot, spans: &[Span], n: f64, steps: f64) {
    let builds = reg.histogram("core.similarity.build_us");
    r.set("core.index_build_ms", builds.sum_us as f64 / 1e3 / n);
    r.set(
        "core.index_builds",
        reg.counter("core.similarity.index_builds") as f64 / n,
    );
    r.set(
        "core.tree_builds",
        reg.counter("core.poly.tree_builds") as f64 / n,
    );
    let hits = reg.counter("clean.selection.cache_hits") as f64;
    let misses = reg.counter("clean.selection.cache_misses") as f64;
    r.set("clean.selection.cache_hit_ratio", hits / (hits + misses));
    r.set(
        "clean.selection.pruned",
        reg.counter("clean.selection.pruned") as f64 / n,
    );
    let bytes = reg.counter("rpc.codec.stream_bytes_delta") as f64;
    r.set("rpc.codec.stream_bytes_delta", bytes / n);
    r.set("rpc.stream_bytes_per_step", bytes / steps);
    let round_trips = reg.histogram("rpc.client.rtt_us").count()
        + reg.histogram("rpc.client.scan_window").count();
    r.set("rpc.round_trips_per_step", round_trips as f64 / steps);
    r.set(
        "rpc.client.rtt_mean_us",
        hist_mean_us(reg, "rpc.client.rtt_us"),
    );
    r.set(
        "rpc.server.scan_service_mean_us",
        hist_mean_us(reg, "rpc.server.latency.scan_us"),
    );
    r.set(
        "rpc.server.step_service_mean_us",
        hist_mean_us(reg, "rpc.server.latency.step_us"),
    );
    r.set(
        "rpc.server.summary_service_mean_us",
        hist_mean_us(reg, "rpc.server.latency.extreme_summary_us"),
    );
    r.set(
        "rpc.open_ms",
        reg.histogram("rpc.server.latency.open_us").sum_us as f64 / 1e3 / n,
    );
    r.set("rpc.client.retries", retries(reg) as f64);
    let fsyncs = reg.histogram("store.wal.fsync_us");
    r.set(
        "store.wal.fsync_mean_us",
        hist_mean_us(reg, "store.wal.fsync_us"),
    );
    r.set("store.wal.fsyncs_per_step", fsyncs.count() as f64 / steps);
    set_self_times(r, spans, n);
}

/// Self time per layer per traced job.
pub fn set_self_times(r: &mut Report, spans: &[Span], n: f64) {
    let by_layer = self_time_by_layer(spans);
    for (layer, metric) in [
        ("core", "core.self_ms"),
        ("clean", "clean.self_ms"),
        ("rpc", "rpc.self_ms"),
    ] {
        r.set(
            metric,
            by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6 / n,
        );
    }
}

/// Total duration of the spans named `name`, in ms.
pub fn span_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

/// Per-server totals of the per-session `scans` counters
/// (`rpc.server.s<instance>.session.<id>.scans`), in order of server
/// instance, which is the order the servers were started in.
pub fn scans_by_server(snap: &Snapshot) -> Vec<u64> {
    let mut by: BTreeMap<u64, u64> = BTreeMap::new();
    for (name, v) in &snap.counters {
        let Some((instance, tail)) = name
            .strip_prefix("rpc.server.s")
            .and_then(|rest| rest.split_once('.'))
        else {
            continue;
        };
        if let (Ok(instance), true) = (
            instance.parse::<u64>(),
            tail.starts_with("session.") && tail.ends_with(".scans"),
        ) {
            *by.entry(instance).or_insert(0) += v;
        }
    }
    by.into_values().collect()
}

/// Mean of a registry histogram in µs (its exact sum over its count).
fn hist_mean_us(snap: &Snapshot, name: &str) -> f64 {
    let h = snap.histogram(name);
    if h.count() == 0 {
        0.0
    } else {
        h.sum_us as f64 / h.count() as f64
    }
}

/// The retries the coordinator made: busy, expired, reconnects, failovers.
pub fn retries(snap: &Snapshot) -> u64 {
    [
        "rpc.client.busy_retries",
        "rpc.client.expired_retries",
        "rpc.client.reconnects",
        "rpc.client.failovers",
    ]
    .iter()
    .map(|name| snap.counter(name))
    .sum()
}

/// The environment a result was measured in, as one JSON object.
pub fn environment(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"threads\": {}, \"git_rev\": \"{}\", \"profile\": \"{profile}\", \
         \"spill\": \"off\", \"chaos\": \"off\", \"wal_flush\": \"fsync before Step ack\"}}",
        crate::THREADS,
        git_revision(root)
    )
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git work tree.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut r = Report::per_layer(3, 0);
        r.set("rpc.client.rtt_mean_us", 12.5);
        r.set("shard.scans", f64::NAN);
        let line = r.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"rpc.client.rtt_mean_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert!(line.contains("\"shard.scans\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    fn scans_group_by_server_instance() {
        let mut snap = Snapshot::default();
        for (name, v) in [
            ("rpc.server.s3.session.1.scans", 5),
            ("rpc.server.s3.session.1.steps", 9),
            ("rpc.server.s3.session.2.scans", 1),
            ("rpc.server.s4.session.1.scans", 4),
            ("rpc.server.s10.session.1.scans", 2),
        ] {
            snap.counters.insert(name.into(), v);
        }
        assert_eq!(scans_by_server(&snap), vec![6, 4, 2]);
    }
}
