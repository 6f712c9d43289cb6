//! `pro_prof` — host-side wall-clock phase profiler.
//!
//! The event bus and metrics registry observe the *simulated* GPU; this
//! module points the same discipline inward at the *simulator*: where does
//! host time go each cycle (mem phase vs issue phase vs merge vs snapshot
//! writes)?
//!
//! Design constraints, mirroring the tracer bus:
//!
//! * **Zero dependencies, no feature gates.** Plain `std::time::Instant`
//!   and fixed arrays; always compiled in, enabled per run by a flag.
//! * **Allocation-free hot path.** [`HostProf`] owns fixed arrays of
//!   nanosecond accumulators and [`Hist16`] per-sample histograms; timing
//!   a phase never touches the heap (pinned by the counting-allocator
//!   harness in `tests/trace_overhead.rs`).
//! * **One branch when disabled.** [`HostProf::start`] returns
//!   `PhaseTimer(None)` and every `lap` is a single `if let` miss.
//! * **Outside the determinism boundary.** Wall-clock numbers differ run
//!   to run by nature; everything published here lands in the metrics
//!   registry under the `host/` prefix, which `RunResult`'s `Snapshot`
//!   encoding and the byte-compare gates explicitly exclude.
//!
//! Published names: `host/phase.<name>.ns` / `.calls` counters plus a
//! `host/phase.<name>` histogram of per-call nanoseconds.

use std::time::Instant;

use crate::metrics::{Hist16, Metrics};

/// The host-side phases of one simulated cycle (plus checkpoint I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPhase {
    /// Serial memory phase: `MemSubsystem::tick` plus per-SM `mem_phase`.
    Mem = 0,
    /// Issue phase: per-SM scheduling and instruction issue.
    Issue = 1,
    /// Serial merge phase: store-log replay, TB scheduler, sampling.
    Merge = 2,
    /// Building and atomically writing a periodic checkpoint file.
    SnapshotWrite = 3,
}

/// Number of [`HostPhase`] variants (array sizes below).
pub const NUM_PHASES: usize = 4;

const PHASE_NAMES: [&str; NUM_PHASES] = ["mem", "issue", "merge", "snapshot_write"];

/// An in-flight phase measurement; `None` when the profiler is disabled.
///
/// Obtained from [`HostProf::start`], consumed (and re-armed) by
/// [`HostProf::lap`].
#[derive(Debug)]
pub struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    /// A timer that records nothing (the disabled-profiler arm).
    pub const fn disarmed() -> Self {
        PhaseTimer(None)
    }
}

/// Accumulated host wall-clock per phase: totals, call counts, and a
/// power-of-two histogram of per-call nanoseconds.
#[derive(Debug, Clone)]
pub struct HostProf {
    enabled: bool,
    total_ns: [u64; NUM_PHASES],
    calls: [u64; NUM_PHASES],
    hists: [Hist16; NUM_PHASES],
}

impl HostProf {
    /// A profiler; when `enabled` is false every operation is a no-op
    /// costing one branch.
    pub fn new(enabled: bool) -> Self {
        HostProf {
            enabled,
            total_ns: [0; NUM_PHASES],
            calls: [0; NUM_PHASES],
            hists: [Hist16::new(); NUM_PHASES],
        }
    }

    /// Whether this profiler records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Begin timing; returns a disarmed timer when disabled.
    #[inline]
    pub fn start(&self) -> PhaseTimer {
        if self.enabled { PhaseTimer(Some(Instant::now())) } else { PhaseTimer::disarmed() }
    }

    /// Attribute the time since the timer was (re)armed to `phase`, and
    /// re-arm the timer so consecutive phases share one clock read.
    #[inline]
    pub fn lap(&mut self, phase: HostPhase, t: &mut PhaseTimer) {
        if let Some(prev) = t.0 {
            let now = Instant::now();
            self.record(phase, now.duration_since(prev).as_nanos() as u64);
            t.0 = Some(now);
        }
    }

    /// Record a pre-measured sample.
    #[inline]
    pub fn record(&mut self, phase: HostPhase, ns: u64) {
        let p = phase as usize;
        self.total_ns[p] += ns;
        self.calls[p] += 1;
        self.hists[p].observe(ns);
    }

    /// Total nanoseconds attributed to `phase` so far.
    pub fn total_ns(&self, phase: HostPhase) -> u64 {
        self.total_ns[phase as usize]
    }

    /// Publish the accumulated counters and histograms into a metrics
    /// registry under the `host/phase.*` namespace. No-op when disabled,
    /// so unprofiled runs carry no `host/*` entries at all.
    pub fn publish(&self, m: &mut Metrics) {
        if !self.enabled {
            return;
        }
        for p in 0..NUM_PHASES {
            if self.calls[p] == 0 {
                continue;
            }
            m.set_counter(&format!("host/phase.{}.ns", PHASE_NAMES[p]), self.total_ns[p]);
            m.set_counter(&format!("host/phase.{}.calls", PHASE_NAMES[p]), self.calls[p]);
            m.set_hist(&format!("host/phase.{}", PHASE_NAMES[p]), self.hists[p]);
        }
    }
}

/// Aggregated incremental-issue-path counters across SMs (DESIGN.md §15):
/// how often a unit-cycle reused the previous cycle's scheduler order
/// verbatim vs. recomputing it, how many order entries the probe's warp
/// masks dismissed with a bit test, and how many warps it actually had to
/// evaluate against the scoreboard.
///
/// Like every `host/*` metric this observes the *simulator*, not the
/// simulated GPU: the counts are deterministic for a fixed run but sit
/// outside the snapshot/byte-compare boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IssueProf {
    /// Unit-cycles that reused the cached order.
    pub orders_reused: u64,
    /// Unit-cycles that called `order()`.
    pub orders_recomputed: u64,
    /// Warps skipped by any mask: not eligible, not fetched, memoized
    /// scoreboard wait, or memoized ready behind a full pipe — including
    /// whole orders dismissed when no warp of the unit could issue.
    pub mask_skips: u64,
    /// Warps whose fetched instruction was evaluated against the scoreboard.
    pub probe_evals: u64,
}

impl IssueProf {
    /// Fold another SM's counters in.
    pub fn merge(&mut self, o: &IssueProf) {
        self.orders_reused += o.orders_reused;
        self.orders_recomputed += o.orders_recomputed;
        self.mask_skips += o.mask_skips;
        self.probe_evals += o.probe_evals;
    }

    /// Publish the summed counters under `host/issue/*`. No-op when no
    /// unit-cycle ever ran (keeps idle runs free of the namespace).
    pub fn publish(&self, m: &mut Metrics) {
        if self.orders_reused + self.orders_recomputed == 0 {
            return;
        }
        m.set_counter("host/issue/orders_reused", self.orders_reused);
        m.set_counter("host/issue/orders_recomputed", self.orders_recomputed);
        m.set_counter("host/issue/mask_skips", self.mask_skips);
        m.set_counter("host/issue/probe_evals", self.probe_evals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = HostProf::new(false);
        let mut t = p.start();
        p.lap(HostPhase::Mem, &mut t);
        p.record(HostPhase::Issue, 100);
        // `record` is unconditional by design (callers gate on `enabled`
        // before accumulating); only the timer path is disarmed.
        assert_eq!(p.total_ns(HostPhase::Mem), 0);
        let mut m = Metrics::new();
        p.publish(&mut m);
        assert!(m.is_empty(), "disabled profiler must not publish host/* entries");
    }

    #[test]
    fn lap_attributes_and_rearms() {
        let mut p = HostProf::new(true);
        let mut t = p.start();
        std::hint::black_box(&mut t);
        p.lap(HostPhase::Mem, &mut t);
        p.lap(HostPhase::Issue, &mut t);
        let mut m = Metrics::new();
        p.publish(&mut m);
        assert_eq!(m.counter("host/phase.mem.calls"), Some(1));
        assert_eq!(m.counter("host/phase.issue.calls"), Some(1));
        assert_eq!(m.hist("host/phase.mem").unwrap().total(), 1);
        assert!(m.counter("host/phase.snapshot_write.ns").is_none());
    }

    #[test]
    fn issue_prof_sums_and_skips_empty_runs() {
        let mut p = IssueProf::default();
        let mut m = Metrics::new();
        p.publish(&mut m);
        assert!(m.is_empty(), "no unit-cycles, no host/issue/* namespace");
        let sm = |reused, recomputed, skips, evals| IssueProf {
            orders_reused: reused,
            orders_recomputed: recomputed,
            mask_skips: skips,
            probe_evals: evals,
        };
        p.merge(&sm(10, 2, 7, 4));
        p.merge(&sm(5, 1, 3, 2));
        p.publish(&mut m);
        assert_eq!(m.counter("host/issue/orders_reused"), Some(15));
        assert_eq!(m.counter("host/issue/orders_recomputed"), Some(3));
        assert_eq!(m.counter("host/issue/mask_skips"), Some(10));
        assert_eq!(m.counter("host/issue/probe_evals"), Some(6));
    }
}
