//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into each crate's public functions. A disabled recorder costs
//! one branch per call and records nothing, which is what the untraced
//! (end-to-end) runs use.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `0` is the root (no parent).
pub type SpanId = u32;

/// One finished span: host nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so nested calls (on any thread) can hang off it.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a span owner panicked")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("a span owner panicked").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// For each span called `parent`, the summed milliseconds of its
/// children called `name` (e.g. the graph builds of each set-up).
pub fn child_sums_ms(spans: &[Span], parent: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|p| p.name == parent)
        .map(|p| {
            spans
                .iter()
                .filter(|s| s.parent == p.id && s.name == name)
                .map(Span::ms)
                .sum()
        })
        .collect()
}

/// Self time of each span in nanoseconds: its duration minus the part
/// of its interval covered by its children (children may run in
/// parallel on several threads, so the covered part is their union).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Total self time in milliseconds per span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += selfs[&s.id] as f64 / 1e6;
    }
    out
}

/// The spans as a JSON array: `{"name","start_us","end_us","id","parent","workload"}`.
pub fn spans_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"id\": {}, \
             \"parent\": {}, \"workload\": \"{}\"}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.id,
            s.parent,
            workload
        );
    }
    out.push_str("\n  ]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        let selfs = self_times_ns(&spans);
        // Children cover [10, 60) and [90, 100) of the parent: 60 ns.
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 30);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.span("x", 0, |id| id), 0);
        assert!(rec.spans().is_empty());
    }
}
