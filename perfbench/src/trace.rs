//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, the layer (crate) whose public function it wraps, a
//! start and end relative to the tracer's epoch, its parent span and the id
//! of the job it belongs to. Spans stay in memory until [`Tracer::write`].
//! A disabled tracer records nothing and adds one branch per call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub run: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a span sits: its parent span (0 = a root) and its job.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ctx {
    pub parent: u64,
    pub run: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span; `f` receives the context its own child spans
    /// should use.
    pub fn span<R>(
        &self,
        ctx: Ctx,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(Ctx) -> R,
    ) -> R {
        if !self.enabled {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(Ctx {
            parent: id,
            run: ctx.run,
        });
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent: ctx.parent,
            run: ctx.run,
            name,
            layer,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.run, s.name, s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer over `spans`: each span's duration minus the part of
/// its interval its children cover, summed by layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map(|kids| covered_ns(kids, s.start_ns, s.end_ns))
            .unwrap_or(0);
        *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cur), b.min(hi));
        if b > a {
            total += b - a;
            cur = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: "s",
            layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span(1, 0, "bench", 0, 100),
            span(2, 1, "clean", 10, 40),
            span(3, 1, "clean", 30, 50),
            span(4, 1, "rpc", 60, 70),
            span(5, 4, "core", 62, 65),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 100 - 40 - 10);
        assert_eq!(t["clean"], 30 + 20);
        assert_eq!(t["rpc"], 10 - 3);
        assert_eq!(t["core"], 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(Ctx::default(), "x", "core", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
