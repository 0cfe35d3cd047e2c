//! The benchmark's own spans: recorded around calls into the library's
//! public functions, kept in memory, and written out when the run ends.
//! Nothing inside the program is instrumented by this module.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request id: every span of one request shares it.
    pub req: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Span sink.  When off, every call is a no-op returning `None`.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Time spent inside the tracer itself.
    cost: Duration,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            cost: Duration::ZERO,
        }
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let t = Instant::now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end,
        });
        self.cost += t.elapsed();
        Some(self.spans.len() - 1)
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, req, parent, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end = Instant::now();
        }
    }

    pub fn cost_seconds(&self) -> f64 {
        self.cost.as_secs_f64()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover (children of one span never overlap here).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += secs(s);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (secs(s) - c).max(0.0);
        }
        out
    }

    /// The spans as a JSON document: one object per span, times in
    /// microseconds since the tracer started, plus the self-time table.
    pub fn to_json(&self) -> String {
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut s = String::from("{\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \"start_us\": {:.3}, \"end_us\": {:.3}}}{}",
                sp.name,
                sp.req,
                us(sp.start),
                us(sp.end),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("],\n\"self_seconds\": {");
        let table = self.self_seconds();
        let rows: Vec<String> = table.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        s.push_str(&rows.join(", "));
        s.push_str("}}\n");
        s
    }
}

fn secs(s: &Span) -> f64 {
    s.end.duration_since(s.start).as_secs_f64()
}
