//! In-memory span recording for the traced run.
//!
//! A span is one call from the benchmark into a layer: a name, start and
//! end on the process clock, the span that caused it, and the request it
//! belongs to. Spans stay in memory until the run ends, then
//! [`Tracer::write_csv`] writes them out; per-layer self time is the
//! span's duration minus the part of it its children cover.
//!
//! A disabled tracer records nothing and costs one branch per call, so
//! the timed run and the traced run share every code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (index + 1; 0 means "no parent").
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers.
    pub name: &'static str,
    /// Span that caused this one (0 for a root).
    pub parent: SpanId,
    /// Request the span belongs to: every span of one request shares it.
    pub request: u32,
    /// Start, in ns since the tracer was created.
    pub start: u64,
    /// End, in ns since the tracer was created.
    pub end: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans an enabled tracer holds before its buffer grows.
const PREALLOCATED: usize = 400_000;

/// Span recorder. Spans nest through an explicit stack: [`Tracer::open`]
/// makes the new span the parent of everything opened until its
/// [`Tracer::close`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    request: u32,
}

impl Tracer {
    /// A tracer that records when `enabled` and does nothing otherwise.
    /// An enabled tracer writes its span buffer once up front, so page
    /// faults on fresh memory are not charged to the spans recorded
    /// later.
    pub fn new(enabled: bool) -> Self {
        let mut spans = Vec::new();
        if enabled {
            let blank = Span {
                name: "",
                parent: 0,
                request: 0,
                start: 0,
                end: 0,
            };
            spans.resize(PREALLOCATED, blank);
            spans.clear();
        }
        Self {
            enabled,
            epoch: Instant::now(),
            spans,
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request: spans opened from now on carry a fresh id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            parent: self.stack.last().copied().unwrap_or(0),
            request: self.request,
            start: self.now(),
            end: 0,
        };
        self.spans.push(span);
        self.stack.push(self.spans.len() as SpanId);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let id = self.stack.pop().expect("close without a matching open");
        self.spans[id as usize - 1].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one CSV line: id, parent, request, name,
    /// start and end in ns.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                i + 1,
                s.parent,
                s.request,
                s.name,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Self time summed over those spans, in ns, after subtracting
    /// `overhead_ns` once per span.
    pub self_ns: f64,
}

/// Self time of every span: its duration minus the union of the
/// intervals its direct children cover (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize - 1].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

/// Self time and call count per span name. `overhead_ns` — the measured
/// cost of recording one empty span — is taken off every span's self
/// time (floored at zero), so fine-grained layer calls are not charged
/// for the clock reads around them.
pub fn totals_by_name(spans: &[Span], overhead_ns: f64) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += (own as f64 - overhead_ns).max(0.0);
    }
    out
}

/// The median cost of recording one empty span, in ns, measured on a
/// scratch tracer.
pub fn span_overhead_ns() -> f64 {
    let mut t = Tracer::new(true);
    for _ in 0..20_000 {
        t.open("empty");
        t.close();
    }
    let d: Vec<f64> = t.spans.iter().map(|s| s.duration() as f64).collect();
    crate::stats::median(&d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            request: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("root", 0, 0, 100),
            span("a", 1, 10, 30),
            span("b", 1, 40, 70),
            span("leaf", 3, 45, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 0, 0, 100),
            span("a", 1, 10, 60),
            span("b", 1, 50, 80),
            span("late", 1, 90, 130),
        ];
        // covered: [10, 80) + [90, 100) = 80
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn totals_group_by_name_and_take_off_overhead() {
        let spans = [
            span("root", 0, 0, 100),
            span("op", 1, 0, 10),
            span("op", 1, 10, 30),
        ];
        let t = totals_by_name(&spans, 4.0);
        assert_eq!(t["op"].calls, 2);
        assert_eq!(t["op"].self_ns, 6.0 + 16.0);
        assert_eq!(t["root"].self_ns, 66.0);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::new(true);
        t.next_request();
        t.span("outer", || ());
        t.open("parent");
        t.span("child", || ());
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 0, 2));
        assert!(s.iter().all(|s| s.request == 1 && s.end >= s.start));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("x");
        t.close();
        assert!(t.spans().is_empty());
    }
}
