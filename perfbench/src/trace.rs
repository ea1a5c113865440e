//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records a layer name, a start and end (microseconds after the
//! tracer's epoch), the span that caused it, and the bench or request it
//! belongs to. Spans stay in memory while the workload runs and are
//! written out once, as Chrome trace-event JSON, when it ends. A
//! disabled tracer records nothing, so the untraced runs that produce
//! the end-to-end metrics pay one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

use amnesiac_telemetry::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer the span times (`profile`, `compiler`, `serve`, ...).
    pub layer: &'static str,
    /// Start, microseconds after the tracer's epoch.
    pub start_us: f64,
    /// End, microseconds after the tracer's epoch.
    pub end_us: f64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// The bench or request the span belongs to.
    pub id: String,
}

impl Span {
    fn duration_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Microseconds from the epoch to `at`.
    pub fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, id: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.offset_us(Instant::now());
        let index = self.push(layer, now, now, self.stack.last().copied(), id);
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        self.spans[index].end_us = self.offset_us(Instant::now());
        if let Some(at) = self.stack.iter().rposition(|&i| i == index) {
            self.stack.truncate(at);
        }
    }

    /// Runs `f` inside a span of `layer` and returns its result with its
    /// wall time in milliseconds (timed whether or not spans are kept).
    pub fn time<T>(&mut self, layer: &'static str, id: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(layer, id);
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.end(open);
        (out, ms)
    }

    /// Records a finished span with explicit bounds (used for spans the
    /// benchmark reconstructs from what a server reports).
    pub fn record(
        &mut self,
        layer: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        id: &str,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        Some(self.push(layer, start_us, end_us, parent, id))
    }

    fn push(
        &mut self,
        layer: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        id: &str,
    ) -> usize {
        self.spans.push(Span {
            layer,
            start_us,
            end_us,
            parent,
            id: id.to_string(),
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per layer, in milliseconds.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (layer, us) in self_times_us(&self.spans)
            .into_iter()
            .zip(&self.spans)
            .map(|(us, span)| (span.layer, us))
        {
            *out.entry(layer).or_insert(0.0) += us / 1000.0;
        }
        out
    }

    /// The spans as a Chrome trace-event document.
    pub fn to_chrome_json(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                let mut args = Json::obj().with("id", span.id.as_str()).with("span", index);
                if let Some(parent) = span.parent {
                    args.set("parent", parent);
                }
                Json::obj()
                    .with("name", span.layer)
                    .with("ph", "X")
                    .with("ts", span.start_us)
                    .with("dur", span.duration_us())
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with("args", args)
            })
            .collect();
        Json::obj().with("traceEvents", events)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_us, span.end_us));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let (lo, hi) = (span.start_us, span.end_us);
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = lo;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(hi));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.duration_us() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            layer: "x",
            start_us: start,
            end_us: end,
            parent,
            id: String::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0.0, 100.0, None),
            // two overlapping children covering [10, 50] once
            span(10.0, 40.0, Some(0)),
            span(30.0, 50.0, Some(0)),
            // a child sticking out of its parent counts only inside it
            span(90.0, 120.0, Some(0)),
            // a grandchild does not reduce the root's self time
            span(12.0, 20.0, Some(1)),
        ];
        let self_us = self_times_us(&spans);
        assert_eq!(self_us[0], 100.0 - 40.0 - 10.0);
        assert_eq!(self_us[1], 30.0 - 8.0);
        assert_eq!(self_us[2], 20.0);
        assert_eq!(self_us[3], 30.0);
        assert_eq!(self_us[4], 8.0);
    }

    #[test]
    fn nested_begin_end_links_parents_and_sums_by_layer() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("bench", "b");
        let ((), ms) = tracer.time("profile", "b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(ms >= 2.0);
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let by_layer = tracer.self_ms_by_layer();
        let total = spans[0].duration_us() / 1000.0;
        assert!((by_layer["bench"] + by_layer["profile"] - total).abs() < 1e-6);
        assert!(by_layer["profile"] >= 2.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let open = tracer.begin("bench", "b");
        tracer.end(open);
        assert!(tracer.record("serve", 0.0, 1.0, None, "r").is_none());
        assert!(tracer.spans().is_empty());
    }
}
