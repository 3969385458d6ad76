//! Spans recorded from outside the program: the benchmark wraps each call
//! into a layer's public functions in a span (name, start, end, parent),
//! keeps them in memory, and writes them out when the run ends.
//!
//! A disabled recorder never reads the clock: untraced runs pay nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are ns since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// The span that caused this one, or 0.
    pub parent: u64,
    /// Layer-qualified name, e.g. `io.read_chunk`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// In-memory span recorder shared by every thread of one run.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id for its children (0 when disabled).
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder thread")
            .push(Span {
                id,
                parent,
                name,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A copy of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder thread")
            .clone()
    }

    /// Total and count of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> (f64, usize) {
        let spans = self.spans();
        let hits: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
        let ns: u64 = hits.iter().map(|s| s.end_ns - s.start_ns).sum();
        (ns as f64 / 1e9, hits.len())
    }

    /// Durations of the spans named `name`, seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// The spans as a JSON document: the run's identity, the per-name
    /// totals with self time (duration minus the part covered by child
    /// spans), and every span.
    pub fn to_json(&self, workload: &str, seed: u64, overhead_pct: f64) -> String {
        let spans = self.spans();
        let mut by_parent: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &spans {
            by_parent.entry(s.parent).or_default().push(s);
        }
        // name -> (count, total ns, self ns)
        let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            let covered = by_parent
                .get(&s.id)
                .map(|kids| covered_ns(s, kids))
                .unwrap_or(0);
            let t = totals.entry(s.name).or_default();
            t.0 += 1;
            t.1 += dur;
            t.2 += dur - covered;
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace_overhead_pct\":{overhead_pct:.3},\"totals\":{{"
        );
        for (i, (name, (count, total, self_ns))) in totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{self_ns}}}"
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// The part of `parent`'s interval covered by the union of `kids`
/// (children may run concurrently on several threads and overlap).
fn covered_ns(parent: &Span, kids: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| (k.start_ns.max(parent.start_ns), k.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let p = span(1, 0, 100, 200);
        // overlapping children [110,150) ∪ [140,160) = 50 ns, plus one
        // clipped at the parent's end [190,200) = 10 ns
        let kids = [
            span(2, 1, 110, 150),
            span(3, 1, 140, 160),
            span(4, 1, 190, 250),
        ];
        let refs: Vec<&Span> = kids.iter().collect();
        assert_eq!(covered_ns(&p, &refs), 60);
        assert_eq!(covered_ns(&p, &[]), 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        assert_eq!(r.span("x", 0, |id| id + 7), 7);
        assert!(r.spans().is_empty());
        let r = Recorder::new(true);
        let child = r.span("outer", 0, |id| r.span("inner", id, |_| id));
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, child);
        assert_eq!(r.total_s("outer").1, 1);
        assert!(r.to_json("w", 1, 0.0).contains("\"outer\":{\"count\":1"));
    }
}
