//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, in the benchmark's own process, around the calls
//! it makes into the program: each client request, and each layer call of the
//! ledger. They stay in memory until the run ends and are then written as one JSON
//! object per line. With tracing off `begin`/`end` do nothing, so the end-to-end
//! run pays one branch per request.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Handle of a recorded span (index into the recorder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const DISABLED: SpanId = SpanId(u32::MAX);

/// One span: a named interval, the span that caused it, and the request it
/// belongs to (spans of one request share the identifier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request_id: u64) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.filter(|p| *p != DISABLED).map(|p| p.0),
            request_id,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Record a span another thread timed (it cannot share the recorder).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request_id: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.begin(name, parent, request_id);
        if id != DISABLED {
            let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            let span = &mut self.spans[id.0 as usize];
            (span.start_ns, span.end_ns) = (since(start), since(end));
        }
    }

    pub fn end(&mut self, id: SpanId) {
        if id != DISABLED {
            self.spans[id.0 as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *totals.entry(span.name).or_insert(0) += own;
        }
        totals
    }

    /// Write every span as a JSON line `{name,start_ns,end_ns,parent,request_id}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"request_id":{}}}"#,
                span.name, span.start_ns, span.end_ns, parent, span.request_id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval that its
/// direct children cover (overlapping children are counted once, and a child
/// reaching outside its parent is clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let owner = &spans[parent as usize];
            let start = span.start_ns.max(owner.start_ns);
            let end = span.end_ns.min(owner.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut busy = 0;
            let mut cursor = span.start_ns;
            for (start, end) in covered {
                let start = start.max(cursor);
                if end > start {
                    busy += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns) - busy
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("request", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("apply", 30, 90, Some(0)),
            span("match", 40, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 180, Some(0)), // overlaps a by 10
            span("c", 190, 260, Some(0)), // overhangs the parent by 60
            span("d", 120, 130, Some(0)), // nested inside a's interval
        ];
        // covered: [110,180) and [190,200) = 80
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("x", None, 1);
        tracer.end(id);
        assert_eq!(tracer.len(), 0);
        tracer.set_enabled(true);
        let outer = tracer.begin("outer", Some(id), 2);
        let inner = tracer.begin("inner", Some(outer), 2);
        tracer.end(inner);
        tracer.end(outer);
        assert_eq!(tracer.len(), 2);
        assert_eq!(
            tracer.spans[0].parent, None,
            "a disabled parent is no parent"
        );
        assert_eq!(tracer.spans[1].parent, Some(0));
    }
}
