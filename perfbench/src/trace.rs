//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans nest: each records the span that was open when it began. A
//! span's *self time* is its duration minus the durations of its direct
//! children, so the self times of all spans add up to the root's
//! duration exactly and a layer's share of the wall time is the sum of
//! its spans' self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `graph.generate`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Σ self time, in seconds.
    pub self_s: f64,
    /// Number of spans with this name.
    pub calls: u64,
}

/// Records spans in memory; write them out with [`Tracer::to_jsonl`]
/// once the measured work is over.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace longer than 584 years")
    }

    /// Opens a span inside the innermost open one; returns its handle.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans, in begin order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and call count per span name.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        assert!(self.open.is_empty(), "self times of an open trace");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.self_s += (span.duration_ns() - children) as f64 * 1e-9;
            entry.calls += 1;
        }
        out
    }

    /// The spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new();
        let root = t.begin("root");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let b = t.begin("b");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.end(b);
        t.end(root);
        let times = t.self_times();
        assert_eq!(times["a"].calls, 2);
        let total: f64 = times.values().map(|l| l.self_s).sum();
        let root_s = t.spans()[0].duration_ns() as f64 * 1e-9;
        assert!((total - root_s).abs() < 1e-9, "{total} vs {root_s}");
        assert!(times["a"].self_s >= 0.003);
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }
}
