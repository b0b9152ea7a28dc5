//! In-memory spans for the traced run.
//!
//! A span is `(name, start, end, parent, id, ops)`: `id` groups the spans
//! of one request (a chip's PPIN for a mapped instance, a sequence number
//! for a serve request) and `ops` is the machine-operation delta a
//! measurement stage issued. Spans stay in memory while the workload runs
//! and are written out as JSON lines when it ends; a layer's self time is
//! its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
    pub ops: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over a trace.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    /// Sum of full durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child spans).
    pub self_ns: u64,
    pub ops: u64,
    /// Every full duration, for percentiles.
    pub durations_ns: Vec<u64>,
}

/// The span store of one traced run.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A recorder for the nested spans of one request.
    pub fn request(&self, id: u64) -> Request<'_> {
        Request {
            trace: self,
            id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Times `f` as one root span.
    pub fn time<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let mut req = self.request(id);
        let out = req.time(name, f);
        req.commit();
        out
    }

    fn append(&self, spans: Vec<Span>) {
        let mut all = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let base = all.len();
        all.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Aggregates by span name, computing self times from the parent links.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.dur_ns();
            a.self_ns += s.dur_ns().saturating_sub(child);
            a.ops += s.ops;
            a.durations_ns.push(s.dur_ns());
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"ops\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.ops
            );
        }
        out
    }
}

/// Times `f` as a root span when a trace is given, else just runs it.
pub fn time_if<T>(trace: Option<&Trace>, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.time(name, id, f),
        None => f(),
    }
}

/// Nested spans of one request, appended to the trace on [`commit`](Self::commit).
pub struct Request<'a> {
    trace: &'a Trace,
    id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Request<'_> {
    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.trace.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id: self.id,
            ops: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` (the innermost open one), recording `ops`.
    pub fn exit(&mut self, idx: usize, ops: u64) {
        debug_assert_eq!(self.open.last(), Some(&idx));
        self.open.pop();
        let now = self.trace.now();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        span.ops = ops;
    }

    /// Times `f` as a span with no op count.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx, 0);
        out
    }

    pub fn commit(self) {
        self.trace.append(self.spans);
    }
}
