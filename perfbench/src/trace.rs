//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; the program under test is not instrumented
//! and runs its ordinary code path. Spans stay in memory and are written
//! once, after measurement ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (cell execution or request) the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.now_ns();
        self.record(name, parent, req, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a span whose interval was measured elsewhere (a server-side
    /// duration echoed in a response).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Total self time per span name: each span's duration minus the part
    /// its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Writes one JSON object per span: name, start, end (ns since the
    /// tracer was created), parent index, request id.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let root = t.record("root", None, 1, 0, 100);
        let a = t.record("a", Some(root), 1, 10, 40);
        t.record("a.inner", Some(a), 1, 15, 25);
        t.record("b", Some(root), 1, 50, 90);
        let st = t.self_times();
        assert_eq!(st["root"], 100 - 30 - 40);
        assert_eq!(st["a"], 30 - 10);
        assert_eq!(st["a.inner"], 10);
        assert_eq!(st["b"], 40);
        // Self times partition the root's interval.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn same_names_accumulate_and_overfull_children_saturate() {
        let mut t = Tracer::new();
        let r = t.record("r", None, 0, 0, 10);
        t.record("c", Some(r), 0, 0, 8);
        t.record("c", Some(r), 0, 5, 12);
        let st = t.self_times();
        assert_eq!(st["c"], 15);
        assert_eq!(st["r"], 0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::new();
        assert_eq!(t.time("root", None, 7, || 3), 3);
        t.record("child", Some(0), 7, 1, 2);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"root\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"req\":7"));
    }
}
