//! In-memory spans for the traced run.
//!
//! Every span is taken by the benchmark's own code around one call into a
//! layer's public function (outside-in); nothing inside the program is
//! instrumented. Spans live in per-thread [`SpanLog`]s, are merged when a
//! phase ends, written out as JSON lines, and the per-layer table is derived
//! from them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed region.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `serde.decode_response`.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The request (call) the span belongs to; 0 for probes outside the
    /// closed loop.
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// An append-only span log sharing one epoch with its siblings.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log measuring from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Records an already-timed region and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn end(&mut self, idx: usize) {
        let now = self.now_ns();
        self.spans[idx].end_ns = now;
    }

    /// Renames span `idx` (a span classified only after it closed, such as
    /// an engine call that turned out to be a hit).
    pub fn rename(&mut self, idx: usize, name: &'static str) {
        self.spans[idx].name = name;
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.begin(name, parent, request);
        let out = f();
        self.end(idx);
        out
    }

    /// Appends `other` (same epoch), re-basing its parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of the spans named `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Per-request residual of `outer` minus every sibling span named in
    /// `minus` (µs): the time a request spent in `outer` that no measured
    /// inner layer accounts for.
    pub fn residual_micros(&self, outer: &str, minus: &[&str]) -> Vec<f64> {
        let mut by_parent: std::collections::HashMap<usize, (f64, f64)> = Default::default();
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            let entry = by_parent.entry(p).or_insert((f64::NAN, 0.0));
            if s.name == outer {
                entry.0 = s.micros();
            } else if minus.contains(&s.name) {
                entry.1 += s.micros();
            }
        }
        by_parent
            .into_values()
            .filter(|(o, _)| !o.is_nan())
            .map(|(o, inner)| o - inner)
            .collect()
    }

    /// Writes the log as JSON lines (one span per line).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
