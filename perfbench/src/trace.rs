//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! library's public API; nothing inside the program is instrumented. Each
//! span keeps its name, start, end, parent and run id. Spans live in memory
//! until the run ends and are then written out as TSV.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer (starts at 1).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Run the span belongs to (one traced pass of a workload).
    pub run: u64,
    /// Layer-qualified name, e.g. `core.feed`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Thread-safe span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    run: u64,
    name: &'static str,
    start: u64,
}

impl Guard<'_> {
    /// This span's id, to pass as the parent of nested spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            run: self.run,
            name: self.name,
            start: self.start,
            end,
        };
        // A poisoned store only means another recording thread panicked;
        // the spans already in it are complete, so keep recording.
        self.tracer
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under `parent` in run `run`.
    pub fn span(&self, name: &'static str, parent: Option<u64>, run: u64) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Guard {
            tracer: self,
            id,
            parent,
            run,
            name,
            start: self.now(),
        }
    }

    /// All finished spans, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Writes every span as TSV: `run id parent name start_ns end_ns
    /// self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "run\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (s, own) in spans.iter().zip(self_times(&spans)) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{own}",
                s.run, s.id, parent, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e6)
        .collect()
}

/// Nanoseconds of `parent`'s interval covered by the union of
/// `children` (children on parallel threads may overlap; each instant
/// counts once, clipped to the parent).
fn covered(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Nanoseconds of `parent`'s interval covered by its direct children.
pub fn child_coverage(spans: &[Span], parent: &Span) -> u64 {
    let children: Vec<&Span> = spans
        .iter()
        .filter(|s| s.parent == Some(parent.id))
        .collect();
    covered(parent, &children)
}

/// Self time of every span, in order: its duration minus the part its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| s.duration() - children.get(&s.id).map_or(0, |c| covered(s, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,30) ⊃ a1 [12,20); root ⊃ b [50,90)
        let spans = vec![
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 30),
            sp(3, Some(2), 12, 20),
            sp(4, Some(1), 50, 90),
        ];
        assert_eq!(child_coverage(&spans, &spans[0]), 60);
        // Grandchildren count against their own parent only.
        assert_eq!(self_times(&spans), vec![40, 12, 8, 40]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Parallel children [10,60) and [40,80) overlap on [40,60); a child
        // that outlives its parent is clipped at the parent's end.
        let spans = vec![
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 60),
            sp(3, Some(1), 40, 80),
            sp(4, Some(1), 95, 120),
        ];
        assert_eq!(child_coverage(&spans, &spans[0]), 70 + 5);
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn guards_record_parent_and_run() {
        let t = Tracer::new();
        {
            let outer = t.span("outer", None, 7);
            let _inner = t.span("inner", Some(outer.id()), 7);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer recorded");
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.run, 7);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!(durations_ms(&spans, "inner").len(), 1);
    }
}
