//! In-memory spans recorded by the benchmark around its calls into the tree,
//! in both virtual and host time, written out as JSON when the run ends.

use crate::clock::host_ns;
use crate::json::Object;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// What the interval covers (`setup.bulkload`, `run_pipelined`, `op.insert`, …).
    pub name: &'static str,
    /// Operation id (`thread << 40 | index`) for per-op spans.
    pub op: Option<u64>,
    /// Virtual start, ns.
    pub v_start: u64,
    /// Virtual end, ns.
    pub v_end: u64,
    /// Host start, ns since the process's first host-clock read.
    pub h_start: u64,
    /// Host end, ns.
    pub h_end: u64,
}

/// A span recorder; a disabled one records nothing and costs nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids start at `id_base` (one base per thread keeps
    /// ids unique without sharing a counter).
    pub fn new(enabled: bool, id_base: u64) -> Self {
        Tracer {
            enabled,
            id_base,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span at virtual time `v_start`; `None` when disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, v_start: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.id_base + self.spans.len() as u64;
        let now = host_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            op: None,
            v_start,
            v_end: v_start,
            h_start: now,
            h_end: now,
        });
        Some(id)
    }

    /// Close span `id` (from [`Tracer::open`]) at virtual time `v_end`.
    pub fn close(&mut self, id: Option<u64>, v_end: u64) {
        if let Some(id) = id {
            let now = host_ns();
            let span = &mut self.spans[(id - self.id_base) as usize];
            span.v_end = v_end;
            span.h_end = now;
        }
    }

    /// Record an already-finished per-operation span.
    pub fn record_op(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        v: (u64, u64),
        h: (u64, u64),
    ) {
        if self.enabled {
            let id = self.id_base + self.spans.len() as u64;
            self.spans.push(Span {
                id,
                parent,
                name,
                op: Some(op),
                v_start: v.0,
                v_end: v.1,
                h_start: h.0,
                h_end: h.1,
            });
        }
    }

    /// Move every span of `other` into this recorder.
    pub fn absorb(&mut self, mut other: Tracer) {
        self.spans.append(&mut other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON document to `path`.
    pub fn write_json(&self, path: &Path, meta: Object) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"meta\": {},\n\"spans\": [", meta.finish())?;
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = Object::new().int("id", s.id).str("name", s.name);
            o = match s.parent {
                Some(p) => o.int("parent", p),
                None => o.raw("parent", "null"),
            };
            o = match s.op {
                Some(op) => o.int("op", op),
                None => o.raw("op", "null"),
            };
            let o = o
                .int("v_start_ns", s.v_start)
                .int("v_end_ns", s.v_end)
                .int("h_start_ns", s.h_start)
                .int("h_end_ns", s.h_end);
            let sep = if i == 0 { "\n" } else { ",\n" };
            write!(out, "{sep}{}", o.finish())?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0);
        let id = t.open("x", None, 5);
        t.close(id, 9);
        t.record_op("op.lookup", id, 1, (1, 2), (3, 4));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(true, 100);
        let outer = t.open("outer", None, 10);
        t.record_op("op.lookup", outer, 7, (11, 12), (0, 1));
        t.close(outer, 20);
        assert_eq!(t.spans()[0].id, 100);
        assert_eq!(t.spans()[0].v_end, 20);
        assert_eq!(t.spans()[1].parent, Some(100));
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test-spans.json");
        t.write_json(&path, Object::new().str("workload", "w"))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""name": "op.lookup", "parent": 100, "op": 7"#));
        std::fs::remove_file(path).unwrap();
    }
}
