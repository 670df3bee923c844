//! In-memory spans recorded by the benchmark around its calls into each
//! layer, kept until a pass ends and then written as one Chrome trace.

use resource_discovery::obs::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One timed interval: what ran, when, inside which span, in which pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The pass that recorded the span (see [`SpanLog::begin_pass`]).
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one benchmark process.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    rep: u32,
    pass_names: Vec<String>,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            rep: 0,
            pass_names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts a new pass: spans recorded from here on carry its number,
    /// and the trace shows them on a track of their own called `name`.
    pub fn begin_pass(&mut self, name: String) -> u32 {
        self.pass_names.push(name);
        self.rep = self.pass_names.len() as u32 - 1;
        self.rep
    }

    /// Nanoseconds from the log's epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that [`close`](Self::close) ends.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns_at(Instant::now());
        self.push(name, now, now, parent)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns_at(Instant::now());
    }

    /// Records a span around `f`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span measured elsewhere (the engines' own phase spans).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: self.rep,
        });
        self.spans.len() - 1
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Durations of pass `rep`'s spans called `name`.
    pub fn durations_ns(&self, rep: u32, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.rep == rep && s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total time pass `rep` spent in spans called `name`.
    pub fn total_ns(&self, rep: u32, name: &str) -> u64 {
        self.durations_ns(rep, name).iter().sum()
    }

    /// Total self time of pass `rep`'s spans called `name`.
    pub fn total_self_ns(&self, rep: u32, name: &str) -> u64 {
        // One sweep groups children by parent, so a pass with thousands
        // of rounds is not quadratic.
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in self.spans.iter().filter(|s| s.rep == rep) {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.rep == rep && s.name == name)
            .map(|(id, s)| self_ns(s, &mut children[id]))
            .sum()
    }

    /// The log as Chrome trace-event JSON (open in Perfetto): one track
    /// per pass, one slice per span, parent and pass in the arguments.
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            escape(process)
        );
        for (tid, name) in self.pass_names.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                escape(name)
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"rep\":{}}}}}",
                s.rep,
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.rep,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap one another (worker threads
/// run side by side) and may stick out of the parent (clocks read on
/// other threads); the union clipped to the parent is what counts.
fn self_ns(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(reach);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> SpanLog {
        let mut log = SpanLog::new();
        log.begin_pass("test".into());
        for &(name, start, end, parent) in spans {
            log.push(name, start, end, parent);
        }
        log
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let log = log_with(&[
            ("root", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 50, 90, Some(0)),
        ]);
        assert_eq!(log.total_self_ns(0, "root"), 40);
        assert_eq!(log.total_self_ns(0, "a"), 20);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let log = log_with(&[
            ("step", 100, 200, None),
            // Two workers side by side, then one that starts before the
            // parent and one that ends after it.
            ("on_round", 110, 150, Some(0)),
            ("on_round", 120, 160, Some(0)),
            ("begin", 90, 105, Some(0)),
            ("finish", 190, 230, Some(0)),
        ]);
        // Covered: [100,105) + [110,160) + [190,200) = 65 of 100.
        assert_eq!(log.total_self_ns(0, "step"), 35);
    }

    #[test]
    fn grandchildren_do_not_reduce_a_spans_self_time() {
        let log = log_with(&[
            ("root", 0, 100, None),
            ("child", 0, 60, Some(0)),
            ("grandchild", 10, 50, Some(1)),
        ]);
        assert_eq!(log.total_self_ns(0, "root"), 40);
        assert_eq!(log.total_self_ns(0, "child"), 20);
    }

    #[test]
    fn totals_are_per_pass() {
        let mut log = SpanLog::new();
        let first = log.begin_pass("first".into());
        log.push("step", 0, 10, None);
        let second = log.begin_pass("second".into());
        log.push("step", 20, 50, None);
        log.push("step", 50, 60, None);
        assert_eq!(log.durations_ns(first, "step"), vec![10]);
        assert_eq!(log.total_ns(second, "step"), 40);
    }

    #[test]
    fn the_chrome_trace_is_valid_json_with_one_slice_per_span() {
        use resource_discovery::obs::json::Json;
        let log = log_with(&[("root", 0, 2_000, None), ("child", 500, 1_500, Some(0))]);
        let trace = Json::parse(&log.chrome_trace("w")).expect("valid JSON");
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        let slices: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[1].get("dur").and_then(Json::as_f64), Some(1.0));
        let args = slices[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
    }
}
