//! In-memory spans recorded by the harness around calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`: spans of one
//! operation share its `op_id`, and `parent` names the span that caused
//! this one. Page reads are not spans of their own — an operation's reads
//! are aggregated on its span as a count plus busy nanoseconds, which
//! keeps one round of `embedded_t2` at a few thousand spans instead of
//! several hundred thousand.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the tracer's list.
    pub parent: Option<usize>,
    pub op_id: u64,
    /// Page reads issued under this span, and the time spent in them.
    pub reads: u64,
    pub read_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one clock origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the tracer was created.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op_id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
            reads: 0,
            read_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Records a span measured elsewhere (for instance inside a callback
    /// that cannot borrow the tracer).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        start_ns: u64,
        duration_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent,
            op_id,
            reads: 0,
            read_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Attaches the page reads an operation issued to its span.
    pub fn add_reads(&mut self, span: usize, reads: u64, read_ns: u64) {
        self.spans[span].reads += reads;
        self.spans[span].read_ns += read_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children are
    /// counted once; a child reaching outside its parent is clipped).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (lo, hi) in kids {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Total duration and total self time per span name, in nanoseconds,
    /// with the span count.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// The trace as a JSON document: every span, plus per-name totals.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id", Json::Num(s.op_id as f64)),
                ];
                if s.reads > 0 {
                    fields.push(("reads", Json::Num(s.reads as f64)));
                    fields.push(("read_ns", Json::Num(s.read_ns as f64)));
                }
                Json::obj(fields)
            })
            .collect();
        let totals = self.totals().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("totals", Json::obj(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start, end, parent) in spans {
            t.record(name, parent, 1, start, end - start);
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let t = tracer_with(&[
            ("op", 0, 100, None),
            ("fetch", 10, 30, Some(0)),
            ("refine", 30, 70, Some(0)),
            ("decode", 15, 20, Some(1)),
        ]);
        assert_eq!(t.self_times_ns(), vec![40, 15, 40, 5]);
        let totals = t.totals();
        assert_eq!(totals["op"].self_ns, 40);
        assert_eq!(totals["fetch"].total_ns, 20);
        // Self times of one operation's spans add up to its duration.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = tracer_with(&[
            ("op", 100, 200, None),
            ("a", 110, 150, Some(0)),
            ("b", 140, 160, Some(0)), // overlaps a by 10
            ("c", 190, 250, Some(0)), // hangs 50 past the parent
            ("d", 120, 130, Some(0)), // inside a
            ("e", 300, 400, Some(0)), // entirely outside: ignored
        ]);
        // Cover = [110,160) ∪ [190,200) = 60.
        assert_eq!(t.self_times_ns()[0], 40);
    }

    #[test]
    fn begin_end_and_reads_round_trip_through_json() {
        let mut t = Tracer::new();
        let op = t.begin("op", None, 7);
        let child = t.begin("child", Some(op), 7);
        t.end(child);
        t.end(op);
        t.add_reads(op, 3, 900);
        let spans = t.spans();
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = Json::parse(&t.to_json("w").render()).unwrap();
        let first = &doc.get("spans").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("op_id").unwrap().as_f64(), Some(7.0));
        assert_eq!(first.get("reads").unwrap().as_f64(), Some(3.0));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        assert_eq!(
            doc.get("totals")
                .unwrap()
                .get("child")
                .unwrap()
                .get("count"),
            Some(&Json::Num(1.0))
        );
    }
}
