//! The traced run's span log. Spans are recorded at the harness's own
//! boundaries — workload, rep, process or request, then manifest
//! sections or connect/ttff/stream — kept in memory, and written to
//! `benchmark/out/trace.json` when the run ends. Spans inside the
//! product are a later change.

use std::time::Instant;

use crate::json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one rep share this id.
    pub rep: u32,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct SpanLog {
    origin: Instant,
    /// Reps run with recording off give the untraced side of
    /// `harness.trace_overhead_pct`.
    pub recording: bool,
    spans: Vec<Span>,
}

/// Handle to an open span; `None` while recording is off.
pub type SpanId = Option<usize>;

impl SpanLog {
    pub fn new(recording: bool) -> Self {
        Self {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &str, parent: SpanId, rep: u32) -> SpanId {
        if !self.recording {
            return None;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            rep,
            start_us: now,
            end_us: now,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_us = self.now_us();
        }
    }

    /// Adds an already-finished child covering `[offset, offset+len)`
    /// seconds of its parent — how a child's own report of where its
    /// time went (the run manifest's sections) becomes spans.
    pub fn child_at(&mut self, name: &str, parent: SpanId, offset_s: f64, len_s: f64) {
        let Some(p) = parent else { return };
        let start_us = self.spans[p].start_us + offset_s * 1e6;
        let rep = self.spans[p].rep;
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            rep,
            start_us,
            end_us: start_us + len_s * 1e6,
        });
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        own
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self, workload: &str) -> String {
        let own = self.self_times_us();
        let mut out = format!(
            "{{\"schema\":\"piton-benchmark-trace/v1\",\"workload\":{},\"spans\":[\n",
            json::quote(workload)
        );
        for (i, (s, own)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"parent\":{parent},\"rep\":{},\"name\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}{}\n",
                s.rep,
                json::quote(&s.name),
                s.start_us,
                s.end_us,
                own,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new(true);
        let root = log.open("workload", None, 0);
        let rep = log.open("rep", root, 1);
        log.close(rep);
        log.close(root);
        // Pin the clock-derived fields so the arithmetic is exact.
        log.spans[0].start_us = 0.0;
        log.spans[0].end_us = 10_000_000.0;
        log.spans[1].start_us = 1_000_000.0;
        log.spans[1].end_us = 9_000_000.0;
        log.child_at("section a", rep, 0.5, 2.0);
        log.child_at("section b", rep, 2.5, 3.0);
        let own = log.self_times_us();
        assert_eq!(
            own,
            vec![2_000_000.0, 3_000_000.0, 2_000_000.0, 3_000_000.0]
        );
        assert_eq!(log.spans[2].start_us, 1_500_000.0);
        assert_eq!(log.spans[3].rep, 1);

        let v = json::parse(&log.to_json("w")).expect("trace.json parses");
        let spans = v.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[2].get("parent").and_then(Value::as_u64), Some(1));
        assert_eq!(
            spans[1].get("self_us").and_then(Value::as_f64),
            Some(3_000_000.0)
        );
    }

    #[test]
    fn nothing_is_recorded_while_recording_is_off() {
        let mut log = SpanLog::new(false);
        let id = log.open("rep", None, 0);
        log.child_at("x", id, 0.0, 1.0);
        log.close(id);
        assert_eq!((id, log.len()), (None, 0));
    }
}
