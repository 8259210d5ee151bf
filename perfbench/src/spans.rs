//! In-memory spans for the traced run.
//!
//! A span records its name, start, end, parent and request ID. Spans stay
//! in memory while the run measures and are written out once it ends, so
//! recording costs one clock read and one `Vec` push per boundary.

use rmdp_observe::write_json_string;
use rmdp_observe::{Clock, MonotonicClock};
use std::fmt::Write as _;

/// One finished span. Times are nanoseconds on the recorder's clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time (`≥ start`).
    pub end: u64,
    /// Index of the parent span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// The part of `span`'s duration not covered by any of `children`.
///
/// Children are clipped to the span and their union is subtracted, so a
/// grandchild nested inside a child, or two children that overlap (for
/// instance concurrent calls), are counted once.
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    span.duration() - covered
}

/// Records spans for one thread of the traced run.
pub struct SpanRecorder {
    clock: MonotonicClock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        SpanRecorder {
            clock: MonotonicClock::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open span and returns its index.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let now = self.clock.now_nanos();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end = self.clock.now_nanos();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, request);
        let out = f();
        self.exit(span);
        out
    }

    /// The span at `index` (as returned by [`SpanRecorder::enter`]).
    pub fn span(&self, index: usize) -> &Span {
        &self.spans[index]
    }

    /// Every recorded span, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Renders spans as JSON lines: one object per span with its name,
/// request, parent, start and end (ns).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        out.push_str("{\"id\":");
        let _ = write!(out, "{i}");
        out.push_str(",\"name\":");
        write_json_string(&mut out, s.name);
        let _ = write!(
            out,
            ",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.request,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.start,
            s.end
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent: None,
            request: 0,
        }
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let parent = span(0, 100);
        let a = span(10, 30);
        let b = span(50, 60);
        assert_eq!(self_time(&parent, &[&a, &b]), 70);
    }

    #[test]
    fn nested_children_count_once() {
        let parent = span(0, 100);
        let child = span(10, 60);
        let grandchild = span(20, 40);
        assert_eq!(self_time(&parent, &[&child, &grandchild]), 50);
        assert_eq!(self_time(&child, &[&grandchild]), 30);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let parent = span(0, 100);
        let a = span(10, 50);
        let b = span(40, 70);
        let c = span(65, 80);
        assert_eq!(self_time(&parent, &[&c, &a, &b]), 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let parent = span(10, 50);
        let early = span(0, 20);
        let late = span(45, 90);
        let outside = span(60, 70);
        assert_eq!(self_time(&parent, &[&early, &late, &outside]), 25);
        assert_eq!(self_time(&parent, &[]), 40);
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        let mut rec = SpanRecorder::new();
        let root = rec.enter("request", 7);
        rec.time("sql.parse", 7, || ());
        rec.exit(root);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let lines = to_json_lines(&spans);
        assert_eq!(lines.lines().count(), 2);
        let first = rmdp_observe::parse_json(lines.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("request"));
    }
}
