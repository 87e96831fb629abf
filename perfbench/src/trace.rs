//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions; the program itself carries no new
//! instrumentation. A span holds its name, start and end (nanoseconds since
//! the recorder was created), the index of its parent span, and an op id
//! shared by every span of one field×target, one request or one snapshot.
//!
//! With recording off (`--trace 0`) the recorder still times the call, so
//! the untraced and traced runs share one code path, but it keeps nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses other spans; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Time `f`, recording it as a leaf span when enabled. Returns the
    /// result and the elapsed seconds either way.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: end_ns.saturating_sub(dt.as_nanos() as u64),
                end_ns,
                parent,
                op,
            });
        }
        (r, dt.as_secs_f64())
    }

    /// Record a leaf span measured elsewhere (e.g. on a client thread).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        dur: std::time::Duration,
        parent: Option<usize>,
        op: u64,
    ) {
        if self.enabled {
            let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + dur.as_nanos() as u64,
                parent,
                op,
            });
        }
    }

    /// Drop everything recorded so far (used after warm-up).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Total seconds over every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time of every span with this name: its duration minus the part
    /// its direct children cover.
    pub fn self_total(&self, name: &str) -> f64 {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.secs() - child[i])
            .sum()
    }

    /// Span names in first-recorded order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }

    /// Per-name count, total and self time, one line each.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "span                                                  count    total_s     self_s\n",
        );
        for name in self.names() {
            let count = self.spans.iter().filter(|s| s.name == name).count();
            let _ = writeln!(
                out,
                "{name:<52} {count:>7} {:>10.4} {:>10.4}",
                self.total(name),
                self.self_total(name)
            );
        }
        out
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96 * self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}
