//! In-memory spans around the benchmark's own calls into each layer, kept
//! only in the traced run and written out as JSON lines when it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: host nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or replay, such as `workload.run_experiment`.
    pub name: &'static str,
    /// Start, ns since the recorder started.
    pub start_ns: u64,
    /// End, ns since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records nested spans; a disabled recorder only runs the closures.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines: `{"id", "name", "parent", "start_ns",
    /// "end_ns", "self_ns"}`, where self time is the span's duration minus
    /// its children's.
    pub fn jsonl(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[id])
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_report_self_time() {
        let mut spans = Spans::new(true);
        let v = spans.span("outer", |s| s.span("inner", |_| 7));
        assert_eq!(v, 7);
        let all = spans.spans();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        let lines = spans.jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\": \"inner\", \"parent\": 0"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.span("x", |_| 1), 1);
        assert!(spans.spans().is_empty());
        assert!(spans.jsonl().is_empty());
    }
}
