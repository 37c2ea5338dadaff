//! In-memory spans for the traced replay: name, start, end, parent and
//! op id, kept in a `Vec` and written out as JSON lines when the run
//! ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// Checks that every span lies inside its parent and belongs to its
/// parent's op; returns the first offending span.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (id, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {id} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < id)
                .ok_or_else(|| format!("span {id} ({}) has no earlier parent {p}", s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {id} ({}) outlives its parent {p} ({})",
                    s.name, parent.name
                ));
            }
            if s.op != parent.op {
                return Err(format!("span {id} ({}) is not in its parent's op", s.name));
            }
        }
    }
    Ok(())
}

/// Self time per span: its duration minus the part its children cover
/// (children of one parent run one after another, never overlapping).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        assert!(validate(&spans).is_ok());
        assert_eq!(self_times(&spans), vec![60, 25, 10, 5]);
    }

    #[test]
    fn child_outliving_parent_is_rejected() {
        let spans = vec![span("op", 0, 100, None), span("late", 90, 110, Some(0))];
        let err = validate(&spans).unwrap_err();
        assert!(err.contains("outlives"), "{err}");
    }

    #[test]
    fn tracer_nests_and_closes() {
        let mut t = Tracer::new();
        let op = t.begin("op", 7);
        let x = t.span("inner", 7, || 41 + 1);
        t.end(op);
        assert_eq!(x, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(validate(&t.spans).is_ok());
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
