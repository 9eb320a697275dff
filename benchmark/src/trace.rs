//! Spans recorded by the benchmark around its calls into the program.
//!
//! Nothing inside `crates/` is instrumented: a span is opened and closed by
//! the benchmark at a boundary it can see from outside (a call into a
//! public function, or the probe callback the driver hands the manager).
//! Spans are kept in memory and written as JSON lines when the run ends.
//! Every span carries the quantum index — the identifier all spans of one
//! decision quantum share — and the span that caused it.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One closed (or still open, `end_ns == 0`) interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary name: `quantum`, `plan`, `probe`, `observe`,
    /// `fleet_quantum`, `service_quantum`, `command`, `drain_events`,
    /// `snapshot`, `scrape`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The decision quantum this span belongs to.
    pub quantum: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A count recorded at a span boundary (work done, not time).
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    /// What was counted, e.g. `search_evaluations`.
    pub name: &'static str,
    /// The decision quantum it was counted in.
    pub quantum: u32,
    /// The count.
    pub value: f64,
}

/// In-memory span and count store for one traced pass.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            counts: Vec::with_capacity(1 << 14),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds between the tracer's creation and `at` (0 if earlier).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, quantum: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.push(name, start_ns, 0, parent, quantum)
    }

    /// Closes an open span now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Records a span whose interval was measured elsewhere (another
    /// thread's clock readings, converted with [`Tracer::ns_at`]).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        quantum: u32,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            quantum,
        });
        id
    }

    /// Records a count at a boundary.
    pub fn count(&mut self, name: &'static str, quantum: u32, value: f64) {
        self.counts.push(Count {
            name,
            quantum,
            value,
        });
    }

    /// Every span recorded so far, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, index-aligned with
    /// [`Tracer::spans`]: the span's duration minus the part of its
    /// interval that its child spans cover (overlapping children are
    /// counted once, children are clipped to the parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(SpanId(p)) = span.parent {
                let parent = &self.spans[p as usize];
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                if end > start {
                    children[p as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of every span named `name`.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Values of every count named `name`, in recording order.
    pub fn count_values(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// Writes one JSON object per span, then one per count. The caller
    /// flushes `out`.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(SpanId(p)) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"quantum\":{}}}",
                s.name, s.start_ns, s.end_ns, s.quantum
            )?;
        }
        for c in &self.counts {
            writeln!(
                out,
                "{{\"count\":\"{}\",\"quantum\":{},\"value\":{}}}",
                c.name, c.quantum, c.value
            )?;
        }
        Ok(())
    }
}

/// Times one call into the program from outside and, when a tracer is
/// given, records the interval as a root span of `quantum`.
pub fn timed_call<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    quantum: u32,
    call: impl FnOnce() -> T,
) -> (T, Duration) {
    let t0 = Instant::now();
    let out = call();
    let t1 = Instant::now();
    if let Some(tr) = tracer {
        tr.push(name, tr.ns_at(t0), tr.ns_at(t1), None, quantum);
    }
    (out, t1 - t0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<u32>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start, end, parent) in spans {
            t.push(name, start, end, parent.map(SpanId), 0);
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // quantum [0,100): plan [10,60) with probes [20,30) and [30,40)
        // (adjacent), observe [60,65).
        let t = tracer_with(&[
            ("quantum", 0, 100, None),
            ("plan", 10, 60, Some(0)),
            ("probe", 20, 30, Some(1)),
            ("probe", 30, 40, Some(1)),
            ("observe", 60, 65, Some(0)),
        ]);
        let selfs = t.self_times_ns();
        // quantum: 100 - (50 + 5); grandchildren are not subtracted twice.
        assert_eq!(selfs[0], 45);
        // plan: 50 - (10 + 10).
        assert_eq!(selfs[1], 30);
        assert_eq!(selfs[2], 10);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 5);
        // Self times of a tree sum to the root's duration.
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let t = tracer_with(&[
            ("parent", 100, 200, None),
            ("a", 110, 150, Some(0)),
            ("b", 140, 160, Some(0)), // overlaps a by 10
            ("c", 190, 250, Some(0)), // overhangs the parent's end by 50
            ("d", 50, 90, Some(0)),   // wholly outside: ignored
        ]);
        // covered = [110,160) + [190,200) = 50 + 10.
        assert_eq!(t.self_times_ns()[0], 40);
    }

    #[test]
    fn open_close_nest_and_export() {
        let mut t = Tracer::new();
        let q = t.open("quantum", None, 7);
        let p = t.open("plan", Some(q), 7);
        t.close(p);
        t.close(q);
        t.count("probes", 7, 2.0);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(q));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.count_values("probes"), vec![2.0]);

        let mut bytes = Vec::new();
        t.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            util::json::parse(line).unwrap();
        }
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"quantum\":7"));
    }
}
