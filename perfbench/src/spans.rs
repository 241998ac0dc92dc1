//! Host-time spans around the calls the benchmark makes into each
//! layer's public functions.
//!
//! A span records its name, start, end, parent and statement id. Spans
//! are kept in memory and written out when the run ends. A layer's self
//! time is its span's duration minus the part its child spans cover
//! (children never overlap: every call here is sequential).
//!
//! When disabled, [`Tracer::enter`] and [`Tracer::exit`] record nothing;
//! the untraced path does not call them at all.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `query.exec`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Statement (or unit of work) the span belongs to.
    pub stmt: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (only between spans).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, stmt: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            stmt,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in seconds (0 when disabled).
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let Some(id) = id.0 else {
            return 0.0;
        };
        assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns() as f64 * 1e-9
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, stmt: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, stmt);
        let out = f();
        self.exit(id);
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds each span's children cover.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Per span name: calls and summed self time.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(self.child_ns()) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_s += s.dur_ns().saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// For the top-level spans named `root`: the time their child spans
    /// cover and their summed duration, in seconds. The difference is
    /// the roots' own self time: code between the layer calls, outside
    /// every layer span.
    pub fn root_coverage(&self, root: &str) -> (f64, f64) {
        let child = self.child_ns();
        let (mut covered, mut total) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(child) {
            if s.parent.is_none() && s.name == root {
                covered += c;
                total += s.dur_ns();
            }
        }
        (covered as f64 * 1e-9, total as f64 * 1e-9)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let line = Json::obj([
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("stmt", Json::from(s.stmt)),
            ]);
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

/// Aggregated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

impl LayerTime {
    /// Mean self time per call, seconds (0 when never called).
    pub fn mean_self_s(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_s / self.calls as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_excludes_the_root() {
        let ms = |n| std::thread::sleep(std::time::Duration::from_millis(n));
        let mut t = Tracer::new(true);
        let root = t.enter("stmt", 0);
        t.span("parse", 0, || ms(2));
        ms(4); // between layer calls: the root's own time
        t.span("exec", 0, || ms(3));
        t.exit(root);
        let aside = t.enter("aside", 0);
        ms(2);
        t.exit(aside);
        let by = t.by_name();
        assert_eq!(by["stmt"].calls, 1);
        assert!(by["parse"].self_s >= 0.002 && by["exec"].self_s >= 0.003);
        assert!(by["stmt"].self_s >= 0.004, "the root keeps its own time");
        let (covered, total) = t.root_coverage("stmt");
        let layers = by["parse"].self_s + by["exec"].self_s;
        assert!((covered - layers).abs() < 1e-9);
        assert!((total - covered - by["stmt"].self_s).abs() < 1e-9);
        assert!(
            covered / total < 0.75,
            "uncovered root time lowers coverage"
        );
        assert!(t.spans()[1].parent == Some(0));
        assert!(t.spans()[3].parent.is_none());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("stmt", 0);
        assert_eq!(t.exit(id), 0.0);
        assert!(t.spans().is_empty());
    }
}
