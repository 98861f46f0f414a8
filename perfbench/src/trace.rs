//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span is a name (`<layer>.<call>`), a start and an end on the run's
//! monotonic clock, the span that caused it and a job or request id. With
//! tracing off every call is a branch and nothing is stored, so the
//! untraced runs that give the end-to-end metrics pay nothing for it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Handle of an open or recorded span; `NONE` when tracing is off.
pub type SpanId = u32;
/// The absent span: no parent, or tracing off.
pub const NONE: SpanId = u32::MAX;
/// Spans kept for writing out; later spans still count toward self time.
const KEEP: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    id: u64,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        let h = self.push(name, parent, id, Instant::now(), None);
        self.open.push(h);
        h
    }

    /// Closes the span `h` (and any left open inside it).
    pub fn end(&mut self, h: SpanId) {
        if h == NONE {
            return;
        }
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == h {
                break;
            }
        }
    }

    /// Records a finished span with an explicit parent — for work that
    /// starts on one thread and ends on another (wire requests).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        self.push(name, parent, id, start, Some(end))
    }

    /// The innermost open span.
    pub fn current(&self) -> SpanId {
        self.open.last().copied().unwrap_or(NONE)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        start: Instant,
        end: Option<Instant>,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let end_ns = end.map_or(start_ns, |e| self.ns(e));
        let h = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        h
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer (the span name up to its first `.`): each
    /// span's duration minus the part its children cover, summed.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) +=
                s.end_ns.saturating_sub(s.start_ns).saturating_sub(*c);
        }
        out
    }

    /// Writes the first spans as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(KEEP).enumerate() {
            let parent = if s.parent == NONE {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}
