//! The benchmark's own spans around calls into each layer.
//!
//! Spans are kept in memory while a traced run measures and written
//! as one Chrome trace per workload when it ends. Each span carries a
//! name, start, end, the span that caused it, and the workload's
//! index; the program's own timelines (`ExecTrace`, `ServeTrace`) are
//! appended as further processes of the same capture.

use std::time::Instant;
use streamk_core::tev::{ArgValue, TraceWriter};

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records nested spans on the benchmark's main thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the span open at
    /// the time of the call, and returns `f`'s result with the span's
    /// duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the recorded spans into `w` as process `pid`. Span ids
    /// are their recording order; a root span's parent is its own id.
    pub fn write_chrome_trace(
        &self,
        w: &mut TraceWriter,
        pid: usize,
        workload: &str,
        workload_idx: usize,
    ) {
        w.process_name(pid, &format!("benchmark probes: {workload}"));
        w.thread_name(pid, 0, "main");
        for (id, s) in self.spans.iter().enumerate() {
            w.complete(
                pid,
                0,
                &s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                &[
                    ("id", ArgValue::U64(id as u64)),
                    ("parent", ArgValue::U64(s.parent.unwrap_or(id) as u64)),
                    ("workload", ArgValue::U64(workload_idx as u64)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_core::validate_json;

    #[test]
    fn nested_spans_record_their_parent_and_write_valid_json() {
        let mut rec = Recorder::new();
        let (inner_secs, outer_secs) = rec.span("outer", |r| {
            r.span("inner \"quoted\"", |_| std::hint::black_box(7)).1
        });
        assert!(inner_secs <= outer_secs);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[0].parent, None);
        assert!(
            rec.spans[0].start_ns <= rec.spans[1].start_ns
                && rec.spans[1].end_ns <= rec.spans[0].end_ns
        );
        let mut w = TraceWriter::new();
        rec.write_chrome_trace(&mut w, 1, "direct-square", 0);
        validate_json(&w.finish()).expect("trace is well-formed JSON");
    }
}
