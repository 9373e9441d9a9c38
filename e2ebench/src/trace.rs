//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and the repeat it belongs
//! to; spans of one repeat share that repeat id. Timing always happens
//! (the end-to-end numbers need it); recording spans is what the traced
//! run adds, so the difference between a traced and an untraced repeat is
//! the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub repeat: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    recording: bool,
    t0: Instant,
    repeat: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            recording: false,
            t0: Instant::now(),
            repeat: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Start a repeat: its spans share `repeat` as their id, and are kept
    /// only when `recording` is set.
    pub fn begin_repeat(&mut self, repeat: u32, recording: bool) {
        self.repeat = repeat;
        self.recording = recording;
        self.open.clear();
    }

    /// The number of spans recorded so far, for [`truncate`](Tracer::truncate).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Drop the spans recorded after `mark` (a repeat that panicked leaves
    /// spans that never ended).
    pub fn truncate(&mut self, mark: usize) {
        self.spans.truncate(mark);
        self.open.clear();
    }

    /// Time `f`, recording it as a span (child of the innermost open span)
    /// when this repeat is traced.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        if !self.recording {
            let start = Instant::now();
            let r = f(self);
            return (r, start.elapsed());
        }
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            repeat: self.repeat,
            name,
            start_ns: nanos(start - self.t0),
            end_ns: 0,
        });
        self.open.push(id);
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id].end_ns = nanos(end - self.t0);
        (r, end - start)
    }

    /// Mean self time per traced repeat, in seconds, keyed by span name: a
    /// span's duration minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let repeats = self
            .spans
            .iter()
            .map(|s| s.repeat)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            .max(1);
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = s.duration_ns().saturating_sub(child_ns[s.id]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        for v in out.values_mut() {
            *v /= repeats as f64;
        }
        out
    }

    /// The recorded spans and per-layer self times as one JSON document,
    /// after the `header` fields (values already JSON-formatted).
    pub fn to_json(&self, header: &[(&str, String)], self_times: &BTreeMap<&str, f64>) -> String {
        let mut out = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(out, "  \"{k}\": {v},");
        }
        out.push_str("  \"self_time_s\": {");
        for (i, (name, s)) in self_times.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {s}");
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n    {{\"id\": {}, \"parent\": {parent}, \"repeat\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.repeat, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
