//! The in-memory span recorder behind the traced run.
//!
//! A span is one call into a layer: its name, start, end, the span that
//! caused it, and the op it belongs to (the design index, fleet op index,
//! or request number). The benchmark records spans around the public calls
//! it makes; nothing inside the program is instrumented. Spans stay in
//! memory while the run measures and are written out once it ends. A
//! layer's self time is its spans' durations minus the part their child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Call count and busy time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed span durations, children included.
    pub total_ns: u64,
    /// Summed durations minus the time child spans cover.
    pub self_ns: u64,
}

/// Records spans while enabled; every call is a no-op while disabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An open span, closed by [`Tracer::end`]. Empty while tracing is off.
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A disabled tracer with no spans.
    pub fn new() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(index) = id.0 {
            let now = self.ns(Instant::now());
            self.spans[index].end_ns = now;
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(index), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already finished span under the innermost open one, from
    /// instants measured elsewhere (the synthesis pipeline's stage reports).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Call count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let duration = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += duration(span);
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += duration(span);
            layer.self_ns += duration(span).saturating_sub(covered);
        }
        layers
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.set_enabled(true);
        let root = tracer.begin("root", 0);
        std::thread::sleep(Duration::from_millis(2));
        tracer.span("child", 0, || std::thread::sleep(Duration::from_millis(4)));
        tracer.end(root);
        let layers = tracer.layers();
        let (root, child) = (layers["root"], layers["child"]);
        assert_eq!((root.calls, child.calls), (1, 1));
        assert_eq!(root.total_ns, root.self_ns + child.total_ns);
        assert!(child.self_ns >= 4_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new();
        let id = tracer.begin("root", 0);
        tracer.end(id);
        tracer.record("child", 0, Instant::now(), Instant::now());
        assert_eq!(tracer.len(), 0);
    }
}
