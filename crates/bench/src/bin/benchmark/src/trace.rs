//! In-memory span recorder for the traced pass: one span per call into a
//! layer — name, start, end, the span that caused it, and the federation
//! round it belongs to — written out as JSONL only after the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer-qualified call name (`nn.local_step`, `fl.algo.round`, …).
    pub name: &'static str,
    /// 1-based federation round the call served (0 before the first round).
    pub round: u32,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records strictly nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str, round: u32) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            round,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, optionally renaming it (an interval between two
    /// evaluations only learns at its end whether it was a round or a
    /// window boundary).
    ///
    /// # Panics
    ///
    /// Panics unless `id` is the innermost open span: spans nest strictly.
    pub fn exit(&mut self, id: usize, rename: Option<&'static str>) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
        if let Some(name) = rename {
            self.spans[id].name = name;
        }
    }

    /// Ends the recording.
    ///
    /// # Panics
    ///
    /// Panics when a span is still open.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans: {:?}", self.open);
        self.spans
    }
}

/// Self time per span, indexed by span id: its duration minus the time its
/// direct children cover (children of one parent never overlap on a single
/// thread, so their durations add).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration_ns();
        }
    }
    own
}

/// Total wall seconds and call count of every span called `name`.
pub fn total_by_name(spans: &[Span], name: &str) -> (f64, usize) {
    let matching = spans.iter().filter(|s| s.name == name);
    let (ns, calls) = matching.fold((0u64, 0usize), |(ns, calls), s| {
        (ns + s.duration_ns(), calls + 1)
    });
    (ns as f64 / 1e9, calls)
}

/// Writes one JSON object per span, in start order. The caller owns (and
/// flushes) the sink.
///
/// # Errors
///
/// Returns the sink's write error.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    let own = self_ns(spans);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.id, span.name, span.round, span.start_ns, span.end_ns, own[span.id]
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            round: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_and_nested_children_once() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        // root loses both siblings but not the grandchild a second time.
        assert_eq!(self_ns(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_links_parents_and_renames_on_exit() {
        let mut tracer = Tracer::new();
        let outer = tracer.enter("gap", 3);
        let inner = tracer.enter("nn.eval", 3);
        tracer.exit(inner, None);
        tracer.exit(outer, Some("fl.algo.round"));
        let spans = tracer.finish();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[outer].name, "fl.algo.round");
        assert_eq!(spans[outer].round, 3);
        assert!(spans[outer].start_ns <= spans[inner].start_ns);
        assert!(spans[inner].end_ns <= spans[outer].end_ns);
        assert_eq!(total_by_name(&spans, "nn.eval").1, 1);
        assert_eq!(total_by_name(&spans, "nope"), (0.0, 0));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tracer = Tracer::new();
        let outer = tracer.enter("a", 0);
        let _inner = tracer.enter("b", 0);
        tracer.exit(outer, None);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_self_time() {
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 10, 40)];
        let mut sink = Vec::new();
        write_jsonl(&spans, &mut sink).expect("a Vec sink never fails");
        let text = String::from_utf8(sink).expect("JSONL is UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_ns\":70"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"self_ns\":30"));
    }
}
