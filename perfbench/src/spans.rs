//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start and end (nanoseconds since the tracer was
//! created), the span that was open when it started and, for grid points,
//! the job it belongs to. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<usize>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; returns `f`'s value.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.job_span(name, None, f)
    }

    /// [`Tracer::span`] tagged with a job index.
    pub fn job_span<T>(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Renames the most recently closed span named `from` (a run call is
    /// only known to be a replay or a splice once it returns).
    pub fn rename_last(&mut self, from: &'static str, to: &'static str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            s.name = to;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the spans as JSON lines to `out`, tagged with `pass`.
    pub fn write_jsonl(&self, pass: usize, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"pass\":{pass},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"job\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job.map_or("null".to_string(), |j| j.to_string()),
            );
        }
    }
}

/// Summed duration of every span named `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.nanos() as f64 / 1e6)
}

/// Durations of every span named `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64 / 1e6)
        .collect()
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Spans are opened and closed in stack order, so the
/// children of one span never overlap.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.nanos());
        }
    }
    own
}

/// Summed self time of every span named `name`, in milliseconds.
pub fn self_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .zip(self_nanos(spans))
        .filter(|(s, _)| s.name == name)
        .fold(0.0, |acc, (_, ns)| acc + ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("leaf", 15, 35, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_nanos(&spans), vec![30, 10, 20, 40]);
        assert_eq!(self_ms(&spans, "root"), 30e-6);
        assert_eq!(total_ms(&spans, "a"), 30e-6);
    }

    #[test]
    fn tracer_nests_and_tags() {
        let mut t = Tracer::new();
        let v = t.span("outer", |t| t.job_span("inner", Some(3), |_| 7));
        assert_eq!(v, 7);
        t.rename_last("inner", "renamed");
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[1].name, s[1].parent, s[1].job),
            ("renamed", Some(0), Some(3))
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = String::new();
        t.write_jsonl(0, &mut out);
        assert_eq!(out.lines().count(), 2);
    }
}
