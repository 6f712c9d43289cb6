//! Checkpoint/resume correctness: a launch paused mid-grid, snapshotted,
//! restored into a *fresh* GPU (simulating a new process) and continued
//! must be **bit-identical** to the uninterrupted run — cycle counts, stall
//! attribution, per-SM counters, memory statistics, trace streams and
//! output memory.

use pro_sim::{
    CheckpointOptions, Gpu, GpuConfig, GpuSnapshot, LaunchStatus, RunResult, SchedulerKind,
    SimError, TraceOptions,
};
use pro_trace::{ClassSet, JsonlTracer};
use pro_workloads::registry;
use pro_core::codec::{CodecError, Snapshot};

const KERNEL: &str = "laplace3d";
const SCALE: u32 = 16;

fn cfg() -> GpuConfig {
    GpuConfig::small(4)
}

fn trace_opts() -> TraceOptions {
    TraceOptions {
        timeline: true,
        tb_order_period: 500,
        utilization_period: 100,
        ..Default::default()
    }
}

/// Build the test workload into a fresh GPU, returning (gpu, kernel).
fn fresh_gpu() -> (Gpu, pro_sim::isa::Kernel) {
    let w = registry().into_iter().find(|w| w.kernel == KERNEL).unwrap();
    let mut gpu = Gpu::new(cfg(), 64 << 20);
    let built = (w.build)(&mut gpu.gmem, SCALE);
    (gpu, built.kernel)
}

/// The uninterrupted reference run: result, JSONL trace bytes, output memory.
fn straight_run(sched: SchedulerKind) -> (RunResult, Vec<u8>, Vec<u32>) {
    let (mut gpu, kernel) = fresh_gpu();
    let mut jsonl = JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
    let r = gpu
        .launch_traced(&kernel, sched, trace_opts(), &mut jsonl)
        .unwrap();
    let out = gpu.gmem.read_slice(0, 4096);
    (r, jsonl.into_inner(), out)
}

/// Pause at `pause_at`, then resume in a *fresh* GPU. Returns the final
/// result, the concatenated (pre-pause + post-resume) trace bytes, and the
/// output memory of the resumed GPU.
fn split_run(sched: SchedulerKind, pause_at: u64) -> (RunResult, Vec<u8>, Vec<u32>) {
    let (mut gpu, kernel) = fresh_gpu();
    let mut jsonl1 = JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
    let status = gpu
        .launch_checkpointed_traced(
            &kernel,
            sched,
            trace_opts(),
            &CheckpointOptions {
                pause_at,
                ..Default::default()
            },
            &mut jsonl1,
        )
        .unwrap();
    let snap = match status {
        LaunchStatus::Paused(s) => s,
        LaunchStatus::Completed(_) => panic!("expected a pause at cycle {pause_at}"),
    };
    // A fresh GPU, as a new process would build it: workload inputs are
    // re-allocated, then the snapshot overwrites all of device memory.
    let (mut gpu2, kernel2) = fresh_gpu();
    let mut jsonl2 = JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
    let status = gpu2
        .resume_traced(
            &snap,
            &kernel2,
            sched,
            trace_opts(),
            &CheckpointOptions::default(),
            &mut jsonl2,
        )
        .unwrap();
    let r = match status {
        LaunchStatus::Completed(r) => r,
        LaunchStatus::Paused(_) => panic!("resume paused without a pause_at"),
    };
    let mut trace = jsonl1.into_inner();
    trace.extend_from_slice(&jsonl2.into_inner());
    let out = gpu2.gmem.read_slice(0, 4096);
    (r, trace, out)
}

fn assert_same(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.kernel, b.kernel, "{what}: kernel");
    assert_eq!(a.scheduler, b.scheduler, "{what}: scheduler");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.sm, b.sm, "{what}: aggregate SM stats");
    assert_eq!(a.per_sm, b.per_sm, "{what}: per-SM stats");
    assert_eq!(a.mem, b.mem, "{what}: memory stats");
    assert_eq!(a.timeline, b.timeline, "{what}: timeline");
    assert_eq!(a.tb_order, b.tb_order, "{what}: tb order trace");
    assert_eq!(a.utilization, b.utilization, "{what}: utilization");
    // `host/*` metrics are wall-clock measurements of the host and vary
    // run to run by nature; every determinism gate compares the simulated
    // namespace only (tests/host_prof.rs pins the exclusion itself).
    let sim = |m: &pro_trace::Metrics| {
        (
            m.counters()
                .iter()
                .filter(|(n, _)| !n.starts_with("host/"))
                .cloned()
                .collect::<Vec<_>>(),
            m.hists()
                .iter()
                .filter(|(n, _)| !n.starts_with("host/"))
                .cloned()
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(sim(&a.metrics), sim(&b.metrics), "{what}: metrics");
}

#[test]
fn resume_is_bit_identical_serial_and_parallel() {
    // The tentpole guarantee: pause → snapshot → restore in a fresh GPU →
    // continue equals the uninterrupted run byte for byte, for LRR and PRO.
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        let (base, base_trace, base_mem) = straight_run(sched);
        let pause_at = base.cycles / 2;
        assert!(pause_at > 0, "workload too short to split");
        let (r, trace, mem) = split_run(sched, pause_at);
        assert_same(&base, &r, &format!("{sched}"));
        assert_eq!(base_mem, mem, "{sched}: output memory");
        assert_eq!(
            base_trace, trace,
            "{sched}: concatenated JSONL trace bytes diverged"
        );
    }
}

#[test]
fn dirty_order_state_round_trips_for_every_tracking_policy() {
    // The incremental issue path (DESIGN.md §15) added serialized
    // dirty-order masks to LRR/GTO/OWL/TL (PRO forces all-dirty on load
    // and re-derives its rank table), plus host-side candidate bitsets,
    // the warp ready-mask, and per-unit cached orders — all of which are
    // *derived* state that `restore_snapshot` drops and rebuilds. A pause
    // that lands mid-kernel, with stalled warps memoized in the ready-mask
    // and half the units holding reusable cached orders, must still resume
    // bit-identically: LRR and PRO are pinned by the tests above, the
    // remaining tracking policies here.
    for sched in [SchedulerKind::Gto, SchedulerKind::Tl, SchedulerKind::Owl] {
        let (base, base_trace, base_mem) = straight_run(sched);
        // An odd cut point, away from TB-launch boundaries, maximizes the
        // chance of non-trivial sb-wait/longlat masks at the snapshot.
        let pause_at = base.cycles / 3 + 1;
        assert!(pause_at > 0 && pause_at < base.cycles);
        let (r, trace, mem) = split_run(sched, pause_at);
        assert_same(&base, &r, &format!("{sched} dirty-state round trip"));
        assert_eq!(base_mem, mem, "{sched}: output memory");
        assert_eq!(base_trace, trace, "{sched}: concatenated trace bytes");
    }
}

#[test]
fn periodic_checkpoint_file_recovers_a_run() {
    // The sweep-recovery path: run with --checkpoint-every semantics, then
    // pretend the process died and restart from the file on disk.
    let dir = std::env::temp_dir().join(format!("pro_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cell.ckpt");

    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let (mut gpu, kernel) = fresh_gpu();
    // Pause late so several periodic checkpoints have landed first.
    let status = gpu
        .launch_checkpointed(
            &kernel,
            SchedulerKind::Pro,
            trace_opts(),
            &CheckpointOptions {
                every: base.cycles / 8,
                path: Some(path.clone()),
                pause_at: base.cycles * 3 / 4,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(matches!(status, LaunchStatus::Paused(_)));
    // "Crash": drop everything, reload the last checkpoint from disk.
    drop(gpu);
    let snap = GpuSnapshot::read_from(&path).unwrap();
    snap.validate().unwrap();
    let (mut gpu2, kernel2) = fresh_gpu();
    let r = gpu2
        .resume(
            &snap,
            &kernel2,
            SchedulerKind::Pro,
            trace_opts(),
            &CheckpointOptions::default(),
        )
        .unwrap();
    match r {
        LaunchStatus::Completed(r) => assert_same(&base, &r, "recovered run"),
        LaunchStatus::Paused(_) => panic!("recovery paused unexpectedly"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_snapshot_is_rejected_cleanly() {
    let (base, _, _) = straight_run(SchedulerKind::Lrr);
    let (mut gpu, kernel) = fresh_gpu();
    let status = gpu
        .launch_checkpointed(
            &kernel,
            SchedulerKind::Lrr,
            TraceOptions::default(),
            &CheckpointOptions {
                pause_at: base.cycles / 2,
                ..Default::default()
            },
        )
        .unwrap();
    let snap = match status {
        LaunchStatus::Paused(s) => s,
        _ => panic!("expected pause"),
    };
    // Flip one payload byte: the per-section CRC must catch it, as a typed
    // error — not a panic, not a silently wrong simulation.
    let mut bytes = snap.into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let bad = GpuSnapshot::from_bytes(bytes);
    let (mut gpu2, kernel2) = fresh_gpu();
    let err = gpu2
        .resume(
            &bad,
            &kernel2,
            SchedulerKind::Lrr,
            TraceOptions::default(),
            &CheckpointOptions::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(CodecError::CrcMismatch { .. })),
        "wanted a CRC error, got {err:?}"
    );
    // The rejected GPU is still usable for a normal launch.
    let r = gpu2
        .launch(&kernel2, SchedulerKind::Lrr, TraceOptions::default())
        .unwrap();
    assert_eq!(r.cycles, base.cycles, "GPU survived the rejected resume");
}

#[test]
fn mismatched_resume_is_rejected() {
    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let (mut gpu, kernel) = fresh_gpu();
    let status = gpu
        .launch_checkpointed(
            &kernel,
            SchedulerKind::Pro,
            TraceOptions::default(),
            &CheckpointOptions {
                pause_at: base.cycles / 2,
                ..Default::default()
            },
        )
        .unwrap();
    let snap = match status {
        LaunchStatus::Paused(s) => s,
        _ => panic!("expected pause"),
    };
    // Wrong scheduler.
    let (mut gpu2, kernel2) = fresh_gpu();
    let err = gpu2
        .resume(
            &snap,
            &kernel2,
            SchedulerKind::Lrr,
            TraceOptions::default(),
            &CheckpointOptions::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(CodecError::Mismatch(_))),
        "wrong scheduler must be refused, got {err:?}"
    );
    // Wrong kernel.
    let w = registry()
        .into_iter()
        .find(|w| w.kernel == "scalarProdGPU")
        .unwrap();
    let mut gpu3 = Gpu::new(cfg(), 64 << 20);
    let other = (w.build)(&mut gpu3.gmem, SCALE);
    let err = gpu3
        .resume(
            &snap,
            &other.kernel,
            SchedulerKind::Pro,
            TraceOptions::default(),
            &CheckpointOptions::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(CodecError::Mismatch(_))),
        "wrong kernel must be refused, got {err:?}"
    );
}

#[test]
fn run_result_snapshot_roundtrip() {
    // Sweep drivers persist finished cells as serialized RunResults; the
    // round trip must preserve every field bit for bit.
    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let mut w = pro_core::codec::Writer::new();
    base.save(&mut w);
    let bytes = w.into_bytes();
    let mut r = pro_core::codec::Reader::new(&bytes);
    let back = RunResult::load(&mut r).unwrap();
    r.finish().unwrap();
    assert_same(&base, &back, "RunResult codec");
    // The re-interned scheduler name is the canonical &'static str.
    assert_eq!(back.scheduler, SchedulerKind::Pro.name());
}
