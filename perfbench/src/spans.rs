//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. Nothing here reaches into the program: a span times one
//! call of a crate's public function, as seen from the caller.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use evcap_obs::jsonl::JsonObject;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.clustering`.
    pub name: &'static str,
    /// The operation or request this span belongs to; every span of one
    /// operation shares it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Self time and call count aggregated under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Total self time: each span's duration minus what its children cover.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per span, in milliseconds (0.0 with no spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// A span recorder. When off it records nothing and reads no clock, so
/// untraced runs pay only a branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder timing against `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`. Spans opened
    /// inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span that was timed elsewhere, as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                op,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name self time: each span's duration minus the time its direct
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut obj = JsonObject::with_type("span");
            obj.field_usize("id", i);
            obj.field_str("name", s.name);
            obj.field_u64("op", s.op);
            if let Some(p) = s.parent {
                obj.field_usize("parent", p);
            }
            obj.field_u64("start_ns", s.start_ns);
            obj.field_u64("end_ns", s.end_ns);
            writeln!(out, "{}", obj.finish())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_records_nothing_but_still_runs() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("a", 1, |_| 7), 7);
        t.record("b", 1, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        t.span("op", 3, |t| {
            t.span("child", 3, |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
            let s = Instant::now();
            t.record("leaf", 3, s, s + Duration::from_millis(10));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
        let st = t.self_times();
        let total = spans[0].end_ns - spans[0].start_ns;
        let children = (spans[1].end_ns - spans[1].start_ns) + 10_000_000;
        assert_eq!(st["op"].self_ns, total.saturating_sub(children));
        assert_eq!(st["leaf"].self_ns, 10_000_000);
        assert!(st["child"].self_ns >= 20_000_000);
    }
}
