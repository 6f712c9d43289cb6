//! The event bus: the [`Tracer`] trait and its implementations.
//!
//! Design rules:
//!
//! * **Pay for what you use.** Emission sites first ask
//!   [`Tracer::wants`] for the event's class; a disabled tracer answers
//!   with a single predictable virtual call and the event is never even
//!   constructed. [`NoopTracer`] allocates nothing, counts nothing, and
//!   emits nothing.
//! * **Allocation-conscious.** [`RingTracer`] reserves its whole buffer up
//!   front and overwrites the oldest record when full — emitting into it
//!   never allocates, so tracing does not perturb the allocator behaviour
//!   of the simulation under test.
//! * **Streaming.** [`JsonlTracer`] writes one self-describing JSON object
//!   per line to any `io::Write`, suitable for multi-million-event traces
//!   that must not be held in memory.

use crate::event::{ClassSet, Event, EventClass, Record, StallReason};
use std::fmt::Write as _;
use std::io::Write;

/// A subscriber on the simulator's event bus.
pub trait Tracer {
    /// Global gate: false means no event of any class is wanted. Emission
    /// sites may cache this per cycle.
    fn enabled(&self) -> bool {
        true
    }

    /// Class-granular gate; hot paths check this before building events.
    fn wants(&self, class: EventClass) -> bool {
        let _ = class;
        self.enabled()
    }

    /// Deliver one event. Implementations must not assume they only
    /// receive classes they asked for (a `Tee` partner may differ).
    fn emit(&mut self, cycle: u64, ev: &Event);

    /// A kernel launch began (carries the kernel name, which events —
    /// being `Copy` — cannot).
    fn on_kernel_begin(&mut self, name: &str, cycle: u64) {
        let _ = (name, cycle);
    }

    /// A kernel launch finished after `cycles` simulated cycles.
    fn on_kernel_end(&mut self, name: &str, cycle: u64, cycles: u64) {
        let _ = (name, cycle, cycles);
    }
}

/// The disabled tracer: `enabled()` is false, so instrumented code skips
/// event construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn wants(&self, _class: EventClass) -> bool {
        false
    }

    #[inline]
    fn emit(&mut self, _cycle: u64, _ev: &Event) {}
}

/// Bounded in-memory tracer: keeps the most recent `capacity` records.
/// The buffer is allocated once at construction; emission never allocates.
#[derive(Debug, Clone)]
pub struct RingTracer {
    buf: Vec<Record>,
    capacity: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    /// Total events offered (including overwritten ones).
    total: u64,
    classes: ClassSet,
}

impl RingTracer {
    /// Ring keeping the latest `capacity` events of every class.
    pub fn new(capacity: usize) -> Self {
        Self::with_classes(capacity, ClassSet::ALL)
    }

    /// Ring subscribed only to `classes`.
    pub fn with_classes(capacity: usize, classes: ClassSet) -> Self {
        RingTracer {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            total: 0,
            classes,
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events offered over the tracer's lifetime (≥ `len`).
    pub fn total_emitted(&self) -> u64 {
        self.total
    }

    /// Records oldest → newest.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        let (wrapped, fresh) = self.buf.split_at(self.head);
        fresh.iter().chain(wrapped.iter())
    }

    /// Drop everything recorded so far (capacity is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
    }
}

impl Tracer for RingTracer {
    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn wants(&self, class: EventClass) -> bool {
        self.capacity > 0 && self.classes.contains(class)
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        if self.capacity == 0 || !self.classes.contains(ev.class()) {
            return;
        }
        self.total += 1;
        let rec = Record { cycle, event: *ev };
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }
}

/// Snapshot which classes `t` currently wants, as a [`ClassSet`].
///
/// Lets an intermediary (like the simulator's per-SM event buffers) answer
/// `wants` without a per-event virtual call into the downstream tracer.
pub fn mask_of(t: &dyn Tracer) -> ClassSet {
    const ALL: [EventClass; 7] = [
        EventClass::Tb,
        EventClass::Issue,
        EventClass::Stall,
        EventClass::Barrier,
        EventClass::Scoreboard,
        EventClass::Simt,
        EventClass::Mem,
    ];
    let mut wanted = [EventClass::Tb; 7];
    let mut n = 0;
    for c in ALL {
        if t.wants(c) {
            wanted[n] = c;
            n += 1;
        }
    }
    ClassSet::of(&wanted[..n])
}

/// An ordered, unbounded-capacity event buffer for deferred replay.
///
/// The simulator gives each SM one of these per cycle: the memory and issue
/// phases append to it, and the merge phase replays the buffers into the
/// real tracer in SM-index order. That replay order is part of the trace's
/// byte-level contract (`DESIGN.md` §11).
///
/// The buffer is preallocated at construction with the same capacity whether
/// or not any class is subscribed, and one cycle's events per SM fit well
/// within [`BufferTracer::DEFAULT_CAPACITY`], so in steady state emission
/// never allocates — traced and untraced runs have identical allocator
/// behaviour (pinned by the `trace_overhead` tier-1 test).
#[derive(Debug)]
pub struct BufferTracer {
    buf: Vec<Record>,
    mask: ClassSet,
}

impl BufferTracer {
    /// Preallocation size: comfortably above the per-SM events-per-cycle
    /// bound (≤ 2 units × (max_warps stall attributions + issue + memory
    /// lifecycle) ≈ 300 on the GTX 480 model).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Buffer subscribed to `mask`, preallocated to
    /// [`BufferTracer::DEFAULT_CAPACITY`] records.
    pub fn new(mask: ClassSet) -> Self {
        BufferTracer {
            buf: Vec::with_capacity(Self::DEFAULT_CAPACITY),
            mask,
        }
    }

    /// Replace the subscription mask (e.g. between kernels when the
    /// downstream tracer changed).
    pub fn set_mask(&mut self, mask: ClassSet) {
        self.mask = mask;
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Emit every buffered record into `t` in emission order, then clear
    /// the buffer (capacity is kept).
    pub fn replay_into(&mut self, t: &mut dyn Tracer) {
        for r in &self.buf {
            t.emit(r.cycle, &r.event);
        }
        self.buf.clear();
    }
}

impl Tracer for BufferTracer {
    fn enabled(&self) -> bool {
        self.mask != ClassSet::NONE
    }

    fn wants(&self, class: EventClass) -> bool {
        self.mask.contains(class)
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        if self.mask.contains(ev.class()) {
            self.buf.push(Record { cycle, event: *ev });
        }
    }
}

/// Append one event as a JSONL line (no trailing newline) onto `out`.
///
/// The format is flat and self-describing:
/// `{"c":CYCLE,"ev":"KIND",...fields}`.
pub fn write_event_jsonl(out: &mut String, cycle: u64, ev: &Event) {
    let _ = write!(out, "{{\"c\":{cycle},\"ev\":\"{}\"", ev.kind());
    match *ev {
        Event::WarpIssue { sm, unit, warp, tb_slot, pc, active } => {
            let _ = write!(
                out,
                ",\"sm\":{sm},\"unit\":{unit},\"warp\":{warp},\"tb\":{tb_slot},\"pc\":{pc},\"active\":{active}"
            );
        }
        Event::UnitStall { sm, unit, reason } => {
            let _ = write!(out, ",\"sm\":{sm},\"unit\":{unit},\"reason\":\"{}\"", reason.name());
        }
        Event::WarpStall { sm, warp, reason } => {
            let _ = write!(out, ",\"sm\":{sm},\"warp\":{warp},\"reason\":\"{}\"", reason.name());
        }
        Event::ScoreboardSet { sm, warp, longlat } => {
            let _ = write!(out, ",\"sm\":{sm},\"warp\":{warp},\"longlat\":{longlat}");
        }
        Event::ScoreboardClear { sm, warp } => {
            let _ = write!(out, ",\"sm\":{sm},\"warp\":{warp}");
        }
        Event::BarrierArrive { sm, tb_slot, warp } => {
            let _ = write!(out, ",\"sm\":{sm},\"tb\":{tb_slot},\"warp\":{warp}");
        }
        Event::BarrierRelease { sm, tb_slot } => {
            let _ = write!(out, ",\"sm\":{sm},\"tb\":{tb_slot}");
        }
        Event::SimtDiverge { sm, warp, pc } | Event::SimtReconverge { sm, warp, pc } => {
            let _ = write!(out, ",\"sm\":{sm},\"warp\":{warp},\"pc\":{pc}");
        }
        Event::TbLaunch { sm, tb_slot, global_index }
        | Event::TbComplete { sm, tb_slot, global_index } => {
            let _ = write!(out, ",\"sm\":{sm},\"tb\":{tb_slot},\"g\":{global_index}");
        }
        Event::Coalesce { sm, warp, req, lines, store } => {
            let _ = write!(
                out,
                ",\"sm\":{sm},\"warp\":{warp},\"req\":{req},\"lines\":{lines},\"store\":{store}"
            );
        }
        Event::L1Hit { sm, req, line }
        | Event::L1Miss { sm, req, line }
        | Event::MshrMerge { sm, req, line }
        | Event::MshrReject { sm, req, line } => {
            let _ = write!(out, ",\"sm\":{sm},\"req\":{req},\"line\":{line}");
        }
        Event::StoreLine { sm, line } => {
            let _ = write!(out, ",\"sm\":{sm},\"line\":{line}");
        }
        Event::L2Hit { part, line } | Event::L2Miss { part, line } | Event::L2Merge { part, line } => {
            let _ = write!(out, ",\"part\":{part},\"line\":{line}");
        }
        Event::DramSchedule { part, line, row_hit, done } => {
            let _ = write!(out, ",\"part\":{part},\"line\":{line},\"row_hit\":{row_hit},\"done\":{done}");
        }
        Event::LineFill { sm, line } => {
            let _ = write!(out, ",\"sm\":{sm},\"line\":{line}");
        }
        Event::LoadComplete { sm, req, latency } => {
            let _ = write!(out, ",\"sm\":{sm},\"req\":{req},\"latency\":{latency}");
        }
    }
    out.push('}');
}

/// Streaming tracer: one JSON object per line on any writer. Kernel
/// boundaries are written as `KernelBegin`/`KernelEnd` marker lines, which
/// is what lets `trace-report` attribute events to kernels.
pub struct JsonlTracer<W: Write> {
    w: W,
    classes: ClassSet,
    line: String,
    /// Lines written (events + markers).
    pub lines_written: u64,
}

impl<W: Write> JsonlTracer<W> {
    /// Stream every event class to `w`.
    pub fn new(w: W) -> Self {
        Self::with_classes(w, ClassSet::ALL)
    }

    /// Stream only `classes` to `w`.
    pub fn with_classes(w: W, classes: ClassSet) -> Self {
        JsonlTracer {
            w,
            classes,
            line: String::with_capacity(160),
            lines_written: 0,
        }
    }

    /// Finish writing and recover the writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.w.flush();
        self.w
    }

    fn write_line(&mut self) {
        self.line.push('\n');
        // A tracing failure must not abort a simulation; drop the line.
        let _ = self.w.write_all(self.line.as_bytes());
        self.lines_written += 1;
    }
}

impl<W: Write> Tracer for JsonlTracer<W> {
    fn wants(&self, class: EventClass) -> bool {
        self.classes.contains(class)
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        if !self.classes.contains(ev.class()) {
            return;
        }
        self.line.clear();
        write_event_jsonl(&mut self.line, cycle, ev);
        self.write_line();
    }

    fn on_kernel_begin(&mut self, name: &str, cycle: u64) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"c\":{cycle},\"ev\":\"KernelBegin\",\"name\":\"{}\"}}",
            crate::json::escape(name)
        );
        self.write_line();
    }

    fn on_kernel_end(&mut self, name: &str, cycle: u64, cycles: u64) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"c\":{cycle},\"ev\":\"KernelEnd\",\"name\":\"{}\",\"cycles\":{cycles}}}",
            crate::json::escape(name)
        );
        self.write_line();
    }
}

/// Fan-out to two tracers (e.g. a ring for Chrome export plus a JSONL
/// stream). Each partner only receives classes it asked for.
pub struct Tee<'a, 'b> {
    a: &'a mut dyn Tracer,
    b: &'b mut dyn Tracer,
}

impl<'a, 'b> Tee<'a, 'b> {
    /// Combine two tracers.
    pub fn new(a: &'a mut dyn Tracer, b: &'b mut dyn Tracer) -> Self {
        Tee { a, b }
    }
}

impl Tracer for Tee<'_, '_> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn wants(&self, class: EventClass) -> bool {
        self.a.wants(class) || self.b.wants(class)
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        let class = ev.class();
        if self.a.wants(class) {
            self.a.emit(cycle, ev);
        }
        if self.b.wants(class) {
            self.b.emit(cycle, ev);
        }
    }

    fn on_kernel_begin(&mut self, name: &str, cycle: u64) {
        self.a.on_kernel_begin(name, cycle);
        self.b.on_kernel_begin(name, cycle);
    }

    fn on_kernel_end(&mut self, name: &str, cycle: u64, cycles: u64) {
        self.a.on_kernel_end(name, cycle, cycles);
        self.b.on_kernel_end(name, cycle, cycles);
    }
}

/// Test helper: a tracer that panics on any delivery. Used to prove that
/// instrumented code really does check [`Tracer::wants`] before emitting.
#[derive(Debug, Clone, Copy, Default)]
pub struct PanicTracer;

impl Tracer for PanicTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn wants(&self, _class: EventClass) -> bool {
        false
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        panic!("event emitted to a disabled tracer at cycle {cycle}: {ev:?}");
    }

    fn on_kernel_begin(&mut self, _name: &str, _cycle: u64) {}

    fn on_kernel_end(&mut self, _name: &str, _cycle: u64, _cycles: u64) {}
}

/// Convenience: count UnitStall events by reason (used in agreement tests).
pub fn count_unit_stalls<'a>(
    records: impl Iterator<Item = &'a Record>,
) -> (u64, u64, u64) {
    let (mut idle, mut sb, mut pipe) = (0, 0, 0);
    for r in records {
        if let Event::UnitStall { reason, .. } = r.event {
            match reason {
                StallReason::Idle => idle += 1,
                StallReason::Scoreboard => sb += 1,
                StallReason::Pipeline => pipe += 1,
            }
        }
    }
    (idle, sb, pipe)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> Event {
        Event::L1Hit { sm: 0, req: i, line: i }
    }

    #[test]
    fn ring_keeps_latest_and_wraps() {
        let mut r = RingTracer::new(3);
        for i in 0..5u64 {
            r.emit(i, &ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_emitted(), 5);
        let cycles: Vec<u64> = r.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "oldest → newest after wrap");
    }

    #[test]
    fn ring_emit_never_allocates_after_construction() {
        let mut r = RingTracer::new(8);
        let cap_before = r.buf.capacity();
        for i in 0..100u64 {
            r.emit(i, &ev(i));
        }
        assert_eq!(r.buf.capacity(), cap_before);
    }

    #[test]
    fn ring_class_filter() {
        let mut r = RingTracer::with_classes(16, ClassSet::of(&[EventClass::Tb]));
        r.emit(1, &ev(1)); // Mem — filtered
        r.emit(2, &Event::TbLaunch { sm: 0, tb_slot: 0, global_index: 9 });
        assert_eq!(r.len(), 1);
        assert!(r.wants(EventClass::Tb));
        assert!(!r.wants(EventClass::Mem));
    }

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopTracer.enabled());
        assert!(!NoopTracer.wants(EventClass::Mem));
        NoopTracer.emit(0, &ev(0)); // must be harmless
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut t = JsonlTracer::new(Vec::new());
        t.on_kernel_begin("k", 0);
        t.emit(5, &Event::UnitStall { sm: 1, unit: 0, reason: StallReason::Idle });
        t.on_kernel_end("k", 9, 9);
        let out = String::from_utf8(t.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"c\":0,\"ev\":\"KernelBegin\",\"name\":\"k\"}");
        assert_eq!(
            lines[1],
            "{\"c\":5,\"ev\":\"UnitStall\",\"sm\":1,\"unit\":0,\"reason\":\"idle\"}"
        );
        assert_eq!(lines[2], "{\"c\":9,\"ev\":\"KernelEnd\",\"name\":\"k\",\"cycles\":9}");
        // Every line parses as JSON.
        for l in lines {
            crate::json::parse(l).expect("valid JSON");
        }
    }

    #[test]
    fn tee_routes_by_class() {
        let mut tb_only = RingTracer::with_classes(8, ClassSet::of(&[EventClass::Tb]));
        let mut mem_only = RingTracer::with_classes(8, ClassSet::of(&[EventClass::Mem]));
        {
            let mut tee = Tee::new(&mut tb_only, &mut mem_only);
            assert!(tee.wants(EventClass::Tb));
            assert!(tee.wants(EventClass::Mem));
            assert!(!tee.wants(EventClass::Simt));
            tee.emit(0, &ev(0));
            tee.emit(1, &Event::TbLaunch { sm: 0, tb_slot: 0, global_index: 0 });
        }
        assert_eq!(tb_only.len(), 1);
        assert_eq!(mem_only.len(), 1);
    }

    #[test]
    fn every_event_serializes_to_valid_json() {
        let events = [
            Event::WarpIssue { sm: 0, unit: 1, warp: 2, tb_slot: 3, pc: 4, active: 32 },
            Event::UnitStall { sm: 0, unit: 0, reason: StallReason::Pipeline },
            Event::WarpStall { sm: 0, warp: 1, reason: StallReason::Scoreboard },
            Event::ScoreboardSet { sm: 0, warp: 1, longlat: true },
            Event::ScoreboardClear { sm: 0, warp: 1 },
            Event::BarrierArrive { sm: 0, tb_slot: 1, warp: 2 },
            Event::BarrierRelease { sm: 0, tb_slot: 1 },
            Event::SimtDiverge { sm: 0, warp: 1, pc: 7 },
            Event::SimtReconverge { sm: 0, warp: 1, pc: 9 },
            Event::TbLaunch { sm: 0, tb_slot: 1, global_index: 2 },
            Event::TbComplete { sm: 0, tb_slot: 1, global_index: 2 },
            Event::Coalesce { sm: 0, warp: 1, req: 2, lines: 3, store: false },
            Event::L1Hit { sm: 0, req: 1, line: 2 },
            Event::L1Miss { sm: 0, req: 1, line: 2 },
            Event::MshrMerge { sm: 0, req: 1, line: 2 },
            Event::MshrReject { sm: 0, req: 1, line: 2 },
            Event::StoreLine { sm: 0, line: 2 },
            Event::L2Hit { part: 0, line: 2 },
            Event::L2Miss { part: 0, line: 2 },
            Event::L2Merge { part: 0, line: 2 },
            Event::DramSchedule { part: 0, line: 2, row_hit: true, done: 99 },
            Event::LineFill { sm: 0, line: 2 },
            Event::LoadComplete { sm: 0, req: 1, latency: 314 },
        ];
        for ev in events {
            let mut s = String::new();
            write_event_jsonl(&mut s, 42, &ev);
            let v = crate::json::parse(&s).unwrap_or_else(|e| panic!("{}: {e}", ev.kind()));
            assert_eq!(v.get("ev").and_then(|v| v.as_str()), Some(ev.kind()));
            assert_eq!(v.get("c").and_then(|v| v.as_u64()), Some(42));
        }
    }

    #[test]
    fn mask_of_mirrors_wants() {
        let ring = RingTracer::with_classes(8, ClassSet::of(&[EventClass::Tb, EventClass::Mem]));
        assert_eq!(mask_of(&ring), ClassSet::of(&[EventClass::Tb, EventClass::Mem]));
        assert_eq!(mask_of(&NoopTracer), ClassSet::NONE);
        assert_eq!(mask_of(&RingTracer::new(8)), ClassSet::ALL);
    }

    #[test]
    fn buffer_tracer_replays_in_order_and_filters() {
        let mut buf = BufferTracer::new(ClassSet::of(&[EventClass::Stall]));
        assert!(buf.enabled());
        assert!(buf.wants(EventClass::Stall));
        assert!(!buf.wants(EventClass::Mem));
        buf.emit(1, &Event::UnitStall { sm: 0, unit: 0, reason: StallReason::Idle });
        // Unsubscribed class is dropped even if emitted directly.
        buf.emit(2, &Event::LineFill { sm: 0, line: 7 });
        buf.emit(3, &Event::UnitStall { sm: 0, unit: 1, reason: StallReason::Pipeline });
        assert_eq!(buf.len(), 2);
        let mut sink = RingTracer::new(8);
        buf.replay_into(&mut sink);
        assert!(buf.is_empty());
        let cycles: Vec<u64> = sink.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![1, 3]);
    }

    #[test]
    fn buffer_tracer_with_empty_mask_is_disabled_but_preallocated() {
        let buf = BufferTracer::new(ClassSet::NONE);
        assert!(!buf.enabled());
        assert!(!buf.wants(EventClass::Issue));
        // Same preallocation in both modes keeps allocator behaviour of
        // traced and untraced engine runs identical.
        assert!(buf.buf.capacity() >= BufferTracer::DEFAULT_CAPACITY);
    }
}
