//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans stay in memory until the run ends, then are written out
//! as one JSON document; per-layer metrics are aggregated from them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call or client request the span covers, e.g. `ingest.offer`.
    pub name: &'static str,
    /// Unique span id (ids start at 1).
    pub id: u64,
    /// Shared by every span of one request or one replay.
    pub trace_id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; close it with [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    id: u64,
    trace_id: u64,
    parent: Option<u64>,
    start_ns: u64,
}

impl Open {
    /// The span id, for children to name as parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Span recorder. When disabled, opening and closing cost one branch and
/// nothing is stored.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh id for a new request or replay (the trace id its spans share).
    pub fn new_trace(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span under `trace_id`, caused by `parent`.
    pub fn open(&self, name: &'static str, trace_id: u64, parent: Option<u64>) -> Open {
        if !self.enabled {
            return Open {
                name,
                id: 0,
                trace_id,
                parent,
                start_ns: 0,
            };
        }
        Open {
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            trace_id,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
        }
    }

    /// Closes a span, storing it. Returns its duration in nanoseconds
    /// (0 when disabled).
    pub fn close(&self, open: Open) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let span = Span {
            name: open.name,
            id: open.id,
            trace_id: open.trace_id,
            parent: open.parent,
            start_ns: open.start_ns,
            end_ns,
        };
        let duration = span.duration_ns();
        self.spans.lock().expect("span store poisoned").push(span);
        duration
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map(|c| covered_ns(c, s.start_ns, s.end_ns))
                .unwrap_or(0);
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl NameStats {
    /// Mean wall duration in microseconds (0 when no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Aggregates spans by name, with self times.
pub fn by_name(spans: &[Span]) -> HashMap<&'static str, NameStats> {
    let selfs = self_times_ns(spans);
    let mut out: HashMap<&'static str, NameStats> = HashMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += selfs[&s.id];
    }
    out
}

/// Writes spans (with self times) as one JSON document.
pub fn write_json(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut out = String::with_capacity(spans.len() * 120 + 16);
    out.push_str("{\"spans\":[\n");
    for (k, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"trace_id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{}",
            s.name,
            s.id,
            s.trace_id,
            parent,
            s.start_ns,
            s.end_ns,
            selfs[&s.id],
            if k + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            id,
            trace_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),  // overlaps span 2: counted once
            span(4, Some(1), 90, 120), // clipped to the parent's end
            span(5, Some(2), 12, 14),  // a grandchild leaves span 1 alone
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 2);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 30);
        assert_eq!(selfs[&5], 2);
    }

    #[test]
    fn tracer_records_parents_and_aggregates_by_name() {
        let tracer = Tracer::new(true);
        let trace = tracer.new_trace();
        let parent = tracer.open("outer", trace, None);
        let child = tracer.open("inner", trace, Some(parent.id()));
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.close(child);
        tracer.close(parent);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.trace_id == trace));
        let stats = by_name(&spans);
        assert_eq!(stats["outer"].count, 1);
        assert!(stats["outer"].self_ns < stats["outer"].total_ns);
        assert_eq!(stats["inner"].self_ns, stats["inner"].total_ns);
    }

    #[test]
    fn disabled_tracer_stores_nothing() {
        let tracer = Tracer::new(false);
        let open = tracer.open("x", tracer.new_trace(), None);
        assert_eq!(tracer.close(open), 0);
        assert!(tracer.spans().is_empty());
    }
}
