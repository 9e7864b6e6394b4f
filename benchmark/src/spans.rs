//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written at exit as JSON Lines
//! (`id,name,start_ns,end_ns,parent,episode,tid`). A layer's self time
//! is its span's duration minus the part of that interval its child
//! spans cover; the self times of a trace must add up to the time its
//! root spans cover, and a run checks that against wall time it
//! measured separately.

use std::collections::BTreeMap;
use std::io::Write;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<SpanId>,
    /// Spans of one episode share this number.
    pub episode: u64,
    /// The participant (thread, session or task) the span belongs to.
    pub tid: u32,
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(
        &mut self,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<SpanId>,
        episode: u64,
        tid: u32,
    ) -> SpanId {
        debug_assert!(end_ns >= start_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            episode,
            tid,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Moves a span's start: for a parent opened before its extent is known.
    pub fn set_start(&mut self, id: SpanId, start_ns: u64) {
        self.spans[id as usize].start_ns = start_ns;
    }

    /// Closes a span that was opened before its end was known.
    pub fn set_end(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let own = (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"episode\":{},\"tid\":{}}}",
                s.name, s.start_ns, s.end_ns, s.episode, s.tid
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Sorts
/// `intervals` in place.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// workload [0,1000] → episode [100,900] → {work [100,400],
    /// wait [400,900] → {arrive_phase [600,700], notify_phase [700,880]}}.
    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::default();
        let root = log.push("workload", (0, 1000), None, 0, 0);
        let ep = log.push("episode", (100, 900), Some(root), 7, 0);
        log.push("work", (100, 400), Some(ep), 7, 0);
        let wait = log.push("wait", (400, 900), Some(ep), 7, 0);
        log.push("arrive_phase", (600, 700), Some(wait), 7, 0);
        log.push("notify_phase", (700, 880), Some(wait), 7, 0);
        let st = log.self_times();
        assert_eq!(st["workload"], 200);
        assert_eq!(st["episode"], 0);
        assert_eq!(st["work"], 300);
        assert_eq!(st["wait"], 500 - 100 - 180);
        assert_eq!(st["arrive_phase"], 100);
        assert_eq!(st["notify_phase"], 180);
        // Nested, non-overlapping children: self times add up to the root.
        assert_eq!(st.values().sum::<u64>(), 1000);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let mut log = SpanLog::default();
        let p = log.push("poll_release", (100, 200), None, 0, 3);
        log.push("wire_wait", (110, 150), Some(p), 0, 3);
        log.push("wire_wait", (140, 170), Some(p), 0, 3); // overlaps the first
        log.push("wire_wait", (190, 260), Some(p), 0, 3); // overhangs the parent
        let st = log.self_times();
        // Covered: [110,170] ∪ [190,200] = 70 of the parent's 100.
        assert_eq!(st["poll_release"], 30);
    }

    #[test]
    fn same_name_spans_pool_across_threads() {
        let mut log = SpanLog::default();
        for tid in 0..2 {
            let root = log.push("workload", (0, 100), None, 0, tid);
            log.push("wait", (10, 60), Some(root), 0, tid);
        }
        let st = log.self_times();
        assert_eq!(st["workload"], 100);
        assert_eq!(st["wait"], 100);
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let mut log = SpanLog::default();
        let root = log.push("pass", (5, 50), None, 2, 0);
        log.push("topo", (5, 9), Some(root), 2, 0);
        let mut bytes = Vec::new();
        log.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let rows: Vec<_> = text
            .lines()
            .map(|l| crate::json::Json::parse(l).unwrap())
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(rows[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(rows[1].get("name"), Some(&crate::json::Json::str("topo")));
        assert_eq!(rows[1].get("episode").unwrap().as_f64(), Some(2.0));
    }
}
