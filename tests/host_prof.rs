//! Host-profiler isolation: `TraceOptions::host_prof` measures the *host*
//! (wall-clock phase timers, queue gauges) and must never
//! leak into anything the determinism story depends on:
//!
//! * a default run carries no `host/*` metrics at all;
//! * a profiled run's pause snapshot is byte-identical to an unprofiled
//!   one's — instrumentation state is never serialized;
//! * resuming with the profiler on reproduces the unprofiled run bit for
//!   bit on every simulated counter;
//! * `RunResult`'s `Snapshot` encoding strips the `host/` namespace, so
//!   `.done` files and byte-compare gates are profiler-independent.

use pro_core::codec::{Reader, Snapshot, Writer};
use pro_sim::{
    CheckpointOptions, Gpu, GpuConfig, GpuSnapshot, LaunchStatus, RunResult, SchedulerKind,
    TraceOptions,
};
use pro_trace::{Hist16, Metrics};
use pro_workloads::registry;

const KERNEL: &str = "laplace3d";
const SCALE: u32 = 16;

fn prof_opts(host_prof: bool) -> TraceOptions {
    TraceOptions {
        host_prof,
        ..Default::default()
    }
}

fn fresh_gpu() -> (Gpu, pro_sim::isa::Kernel) {
    let w = registry().into_iter().find(|w| w.kernel == KERNEL).unwrap();
    let mut gpu = Gpu::new(GpuConfig::small(4), 64 << 20);
    let built = (w.build)(&mut gpu.gmem, SCALE);
    (gpu, built.kernel)
}

fn run(host_prof: bool) -> RunResult {
    let (mut gpu, kernel) = fresh_gpu();
    gpu.launch(&kernel, SchedulerKind::Pro, prof_opts(host_prof))
        .unwrap()
}

/// Pause a run at `pause_at` and return the snapshot.
fn pause(host_prof: bool, pause_at: u64) -> GpuSnapshot {
    let (mut gpu, kernel) = fresh_gpu();
    let status = gpu
        .launch_checkpointed(
            &kernel,
            SchedulerKind::Pro,
            prof_opts(host_prof),
            &CheckpointOptions {
                pause_at,
                ..Default::default()
            },
        )
        .unwrap();
    match status {
        LaunchStatus::Paused(s) => s,
        LaunchStatus::Completed(_) => panic!("expected a pause at cycle {pause_at}"),
    }
}

/// The simulated (non-`host/`) slice of a metrics registry.
fn sim_metrics(m: &Metrics) -> (Vec<(String, u64)>, Vec<(String, Hist16)>) {
    (
        m.counters()
            .iter()
            .filter(|(n, _)| !n.starts_with("host/"))
            .cloned()
            .collect(),
        m.hists()
            .iter()
            .filter(|(n, _)| !n.starts_with("host/"))
            .cloned()
            .collect(),
    )
}

fn has_host(m: &Metrics) -> bool {
    m.counters().iter().any(|(n, _)| n.starts_with("host/"))
        || m.hists().iter().any(|(n, _)| n.starts_with("host/"))
}

#[test]
fn default_run_publishes_no_host_metrics() {
    let r = run(false);
    assert!(
        !has_host(&r.metrics),
        "host/* must be opt-in, found: {:?}",
        r.metrics.counters()
    );
}

#[test]
fn profiled_run_publishes_phase_and_queue_metrics() {
    let r = run(true);
    let c = |name: &str| r.metrics.counter(name).unwrap_or(0);
    assert!(c("host/wall.ns") > 0, "wall clock recorded");
    assert!(c("host/phase.mem.ns") > 0, "mem phase timed");
    assert!(c("host/phase.issue.ns") > 0, "issue phase timed");
    assert!(c("host/phase.merge.ns") > 0, "merge phase timed");
    assert_eq!(
        c("host/phase.mem.calls"),
        r.cycles,
        "one mem-phase lap per cycle"
    );
    assert!(c("host/mem.evq.pushed") > 0, "event-queue pushes counted");
    // Events scheduled past the kernel's last cycle (e.g. store
    // completions nothing waits on) stay queued when the run ends.
    assert!(
        c("host/mem.evq.popped") <= c("host/mem.evq.pushed"),
        "popped more events than were pushed"
    );
    assert!(c("host/mem.evq.hwm") > 0, "queue high-water mark tracked");
    // The acceptance-criterion gauge: the event-queue depth histogram is in
    // the result's registry, with one sample per QUEUE_SAMPLE_PERIOD.
    let evq = r
        .metrics
        .hist("host/mem.evq.depth")
        .expect("event-queue depth histogram published");
    assert!(evq.total() > 0, "depth was sampled");
    assert!(
        r.metrics.hist("host/sm.lsuq.depth").is_some(),
        "LSU queue depth histogram published"
    );
    // Phase wall-clock histograms ride along.
    assert!(r.metrics.hist("host/phase.mem").is_some());
}

#[test]
fn profiled_pause_snapshot_is_byte_identical_to_unprofiled() {
    let base = run(false);
    let pause_at = base.cycles / 2;
    assert!(pause_at > 0, "workload too short to split");
    let plain = pause(false, pause_at);
    let profiled = pause(true, pause_at);
    assert_eq!(
        plain.into_bytes(),
        profiled.into_bytes(),
        "profiler state leaked into the snapshot encoding"
    );
}

#[test]
fn profiled_resume_is_bit_identical_to_unprofiled_run() {
    let base = run(false);
    let pause_at = base.cycles / 2;
    let snap = pause(true, pause_at);
    let (mut gpu2, kernel2) = fresh_gpu();
    let status = gpu2
        .resume(
            &snap,
            &kernel2,
            SchedulerKind::Pro,
            prof_opts(true),
            &CheckpointOptions::default(),
        )
        .unwrap();
    let r = match status {
        LaunchStatus::Completed(r) => r,
        LaunchStatus::Paused(_) => panic!("resume paused without a pause_at"),
    };
    assert_eq!(base.cycles, r.cycles, "cycles");
    assert_eq!(base.sm, r.sm, "aggregate SM stats");
    assert_eq!(base.per_sm, r.per_sm, "per-SM stats");
    assert_eq!(base.mem, r.mem, "memory stats");
    assert_eq!(
        sim_metrics(&base.metrics),
        sim_metrics(&r.metrics),
        "simulated metrics"
    );
    assert!(has_host(&r.metrics), "the resumed run was actually profiled");
}

#[test]
fn run_result_encoding_strips_host_metrics() {
    let plain = run(false);
    let profiled = run(true);
    let encode = |r: &RunResult| {
        let mut w = Writer::new();
        r.save(&mut w);
        w.into_bytes()
    };
    let bytes = encode(&profiled);
    assert_eq!(
        encode(&plain),
        bytes,
        ".done-file bytes must not depend on the profiler"
    );
    let mut rd = Reader::new(&bytes);
    let back = RunResult::load(&mut rd).unwrap();
    rd.finish().unwrap();
    assert!(!has_host(&back.metrics), "host/* survived the round trip");
}
