//! In-memory span recorder for the traced pass, and the self-time
//! reduction over the recorded spans.
//!
//! Spans are opened and closed around the benchmark's own calls into the
//! simulator, so they measure each layer from the outside. A span holds a
//! name, start, end, parent span and launch id; every span of one launch
//! shares that id. Spans live in memory until the run ends, when they
//! are written out as [`Recorder::to_jsonl`] lines.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the recorder; ids start at 1.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Launch this span belongs to (0 for spans outside any launch).
    pub launch: u64,
    /// Layer-qualified name, e.g. `sim.launch`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// An open span; [`Recorder::close`] turns it into a [`Span`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    launch: u64,
    name: &'static str,
    start: u64,
}

impl Open {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Start time, ns since the recorder's epoch.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// The launch this span belongs to.
    pub fn launch(&self) -> u64 {
        self.launch
    }
}

/// Thread-safe span sink. When disabled it still hands back durations, so
/// the untraced pass can time its calls, but it stores nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_launch: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_launch: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh launch id.
    pub fn new_launch(&self) -> u64 {
        self.next_launch.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span now.
    pub fn open(&self, name: &'static str, parent: Option<&Open>, launch: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(Open::id),
            launch,
            name,
            start: self.now(),
        }
    }

    /// Close `open` now; returns its duration in ns. The handle stays
    /// usable as a parent for spans recorded afterwards.
    pub fn close(&self, open: &Open) -> u64 {
        let end = self.now();
        let dur = end - open.start;
        self.push(Span {
            id: open.id,
            parent: open.parent,
            launch: open.launch,
            name: open.name,
            start: open.start,
            end,
        });
        dur
    }

    /// Record a span measured elsewhere (e.g. a phase total reported by the
    /// simulator's own profiler, laid out inside its parent).
    pub fn record(&self, name: &'static str, parent: &Open, start: u64, end: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: Some(parent.id),
            launch: parent.launch,
            name,
            start,
            end,
        });
    }

    fn push(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span sink poisoned").push(span);
        }
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Every span as one JSON object per line, tagged with `pass`.
    pub fn to_jsonl(&self, pass: usize) -> String {
        self.spans()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"pass\":{pass},\"id\":{},\"parent\":{parent},\"launch\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                    s.id, s.launch, s.name, s.start, s.end
                )
            })
            .collect()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, (s.end - s.start) - covered(kids, s.start, s.end))
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            launch: 1,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // Parent 0..100 with children 10..30 and 50..60 → self 70.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children 10..40 and 30..60 overlap; their union is 10..60.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
        ];
        assert_eq!(self_times(&spans)[&1], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child poking out of its parent only covers the overlap.
        let spans = [
            span(1, None, 20, 80),
            span(2, Some(1), 0, 30),
            span(3, Some(1), 70, 120),
        ];
        assert_eq!(self_times(&spans)[&1], 40);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 60),
            span(3, Some(2), 0, 50),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 40);
        assert_eq!(st[&2], 10);
        assert_eq!(st[&3], 50);
    }

    #[test]
    fn recorder_links_parents_and_sums_by_name() {
        let rec = Recorder::new(true);
        let launch = rec.new_launch();
        let cell = rec.open("bench.cell", None, launch);
        let inner = rec.open("sim.launch", Some(&cell), launch);
        rec.close(&inner);
        let (s, e) = (inner.start(), inner.start() + 1);
        rec.record("sm.issue", &inner, s, e);
        rec.close(&cell);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.launch == launch));
        let by_name = self_by_name(&spans);
        let total: u64 = by_name.values().sum();
        let root = spans.iter().find(|s| s.name == "bench.cell").unwrap();
        assert_eq!(
            total,
            root.end - root.start,
            "self times partition the root"
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_times() {
        let rec = Recorder::new(false);
        let open = rec.open("x", None, 0);
        let _ = rec.close(&open);
        assert!(rec.spans().is_empty());
    }
}
