//! Timing of every call into the program, and in traced runs the spans.
//!
//! Each call is timed from outside with one `Instant` pair and its
//! allocation count is read off the counting allocator. In a traced run the
//! same pair also becomes a span (name, start, end, parent span, op id),
//! kept in memory and written out when the run ends.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

pub struct Span {
    pub op: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

/// What one call cost.
#[derive(Clone, Copy)]
pub struct Cost {
    pub secs: f64,
    pub allocs: u64,
}

pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    op: u64,
    op_span: Option<usize>,
    /// The layer of the call most recently started, for failure attribution.
    pub current: &'static str,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            op: 0,
            op_span: None,
            current: "bench",
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a new op: the following calls are its children.
    pub fn begin_op(&mut self, name: &'static str) {
        self.op += 1;
        self.current = name;
        if self.enabled {
            let t = self.now();
            self.spans.push(Span { op: self.op, parent: None, name, start: t, end: t });
            self.op_span = Some(self.spans.len() - 1);
        }
    }

    pub fn end_op(&mut self) {
        if let Some(i) = self.op_span.take() {
            self.spans[i].end = self.now();
        }
    }

    /// Runs one call into the program, timing it from outside.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Cost) {
        self.current = name;
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let t1 = Instant::now();
        let allocs = alloc::allocs() - a0;
        if self.enabled {
            let start = (t0 - self.origin).as_secs_f64();
            let end = (t1 - self.origin).as_secs_f64();
            self.spans.push(Span { op: self.op, parent: self.op_span, name, start, end });
        }
        (out, Cost { secs: (t1 - t0).as_secs_f64(), allocs })
    }

    /// Self time of every span (its duration minus what its children
    /// cover), grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            out.entry(s.name).or_default().push((s.end - s.start - c).max(0.0));
        }
        out
    }

    /// The spans as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.op, s.name, s.start, s.end
            )
            .unwrap();
        }
        out
    }
}
