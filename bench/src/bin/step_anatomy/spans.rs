//! In-memory spans around every call the harness makes into a layer,
//! written out once, at exit, in Chrome-trace form.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer. `parent` is 0 for a root span.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub step: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The harness clock plus the span buffer of a traced run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the harness clock started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (ids start at 1).
    pub fn push(
        &mut self,
        parent: u32,
        step: u64,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, step, name, start_ns: start, end_ns: end });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, microsecond timestamps, the span's
    /// id, parent and step under `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut s = String::with_capacity(self.spans.len() * 120 + 64);
        s.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"");
        s.push_str(workload);
        s.push_str("\"},\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"step\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.id,
                sp.parent,
                sp.step
            );
        }
        s.push_str("\n]}\n");
        s
    }
}
