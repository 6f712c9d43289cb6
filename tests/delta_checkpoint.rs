//! Delta-checkpoint chains: periodic captures that write only the state
//! that changed (dirty gmem pages), linked `base.ckpt` → `delta-NNNNNN.ckpt`
//! by sequence number and parent CRC. Restoring the chain — base image plus
//! every delta folded in — must be **bit-identical** to the uninterrupted
//! run and to a full-snapshot restore of the same cycle: counters, output
//! memory, concatenated JSONL trace bytes. Corrupt or truncated tail deltas shorten the chain
//! instead of killing the restore.

use pro_sim::{
    snapshot_matches, CheckpointOptions, Gpu, GpuConfig, GpuSnapshot, LaunchStatus, RunResult,
    SchedulerKind, SnapshotChain, TraceOptions,
};
use pro_trace::{ClassSet, JsonlTracer};
use pro_workloads::{registry, Scale};
use pro_core::codec::CodecError;
use std::path::PathBuf;

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

fn fresh_gpu() -> (Gpu, pro_sim::isa::Kernel) {
    let w = registry().into_iter().find(|w| w.kernel == KERNEL).unwrap();
    let mut gpu = Gpu::new(cfg(), 64 << 20);
    let built = (w.build)(&mut gpu.gmem, SCALE);
    (gpu, built.kernel)
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pro_delta_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
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

fn assert_same(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.sm, b.sm, "{what}: aggregate SM stats");
    assert_eq!(a.per_sm, b.per_sm, "{what}: per-SM stats");
    assert_eq!(a.mem, b.mem, "{what}: memory stats");
    assert_eq!(a.timeline, b.timeline, "{what}: timeline");
    assert_eq!(a.tb_order, b.tb_order, "{what}: tb order trace");
    assert_eq!(a.utilization, b.utilization, "{what}: utilization");
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

/// Run traced with a delta chain until a pause *on* a periodic boundary, so
/// the chain tip and the returned full snapshot describe the same cycle.
/// Returns (chain dir, pre-pause trace bytes, pause snapshot).
fn chained_prefix(
    sched: SchedulerKind,
    dir: &PathBuf,
    every: u64,
    boundaries: u64,
    keep: usize,
) -> (Vec<u8>, GpuSnapshot) {
    let (mut gpu, kernel) = fresh_gpu();
    let mut jsonl = JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
    let status = gpu
        .launch_checkpointed_traced(
            &kernel,
            sched,
            trace_opts(),
            &CheckpointOptions {
                every,
                path: Some(dir.clone()),
                delta: true,
                keep,
                pause_at: every * boundaries,
                ..Default::default()
            },
            &mut jsonl,
        )
        .unwrap();
    let snap = match status {
        LaunchStatus::Paused(s) => s,
        LaunchStatus::Completed(_) => panic!("workload finished before the pause boundary"),
    };
    (jsonl.into_inner(), snap)
}

/// Resume a chain in a fresh GPU, returning result, trace bytes, memory.
fn resume_chain_run(chain: &SnapshotChain, sched: SchedulerKind) -> (RunResult, Vec<u8>, Vec<u32>) {
    let (mut gpu, kernel) = fresh_gpu();
    let mut jsonl = JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
    let status = gpu
        .resume_chain_traced(
            chain,
            &kernel,
            sched,
            trace_opts(),
            &CheckpointOptions::default(),
            &mut jsonl,
        )
        .unwrap();
    let r = match status {
        LaunchStatus::Completed(r) => r,
        LaunchStatus::Paused(_) => panic!("chain resume paused without a pause_at"),
    };
    let out = gpu.gmem.read_slice(0, 4096);
    (r, jsonl.into_inner(), out)
}

#[test]
fn chain_restore_is_bit_identical_to_straight_and_full_restore() {
    // The tentpole guarantee, LRR and PRO: base+deltas replay equals the
    // uncheckpointed run byte for byte — and equals a full-snapshot
    // restore of the same cycle.
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        let what = sched.to_string();
        let (base, base_trace, base_mem) = straight_run(sched);
        let every = (base.cycles / 8).max(1);
        let dir = temp_dir(&format!("bitident_{sched}"));
        let (pre_trace, pause_snap) = chained_prefix(sched, &dir, every, 6, 0);

        // "Crash": everything dropped, chain reloaded from disk.
        let chain = SnapshotChain::load_dir(&dir).expect("chain on disk");
        assert_eq!(chain.deltas(), 5, "{what}: base + 5 deltas expected");

        let (r, post_trace, mem) = resume_chain_run(&chain, sched);
        assert_same(&base, &r, &what);
        assert_eq!(base_mem, mem, "{what}: output memory");
        let mut trace = pre_trace.clone();
        trace.extend_from_slice(&post_trace);
        assert_eq!(
            base_trace, trace,
            "{what}: concatenated JSONL trace bytes diverged"
        );

        // Full-snapshot restore of the same cycle must agree with the
        // chain restore on everything, including trace bytes.
        let (mut gpu, kernel) = fresh_gpu();
        let mut jsonl = JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
        let status = gpu
            .resume_traced(
                &pause_snap,
                &kernel,
                sched,
                trace_opts(),
                &CheckpointOptions::default(),
                &mut jsonl,
            )
            .unwrap();
        let rf = match status {
            LaunchStatus::Completed(r) => r,
            LaunchStatus::Paused(_) => panic!("full restore paused unexpectedly"),
        };
        assert_same(&r, &rf, &format!("{what}: chain vs full restore"));
        assert_eq!(
            post_trace,
            jsonl.into_inner(),
            "{what}: chain and full restores emitted different trace bytes"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn corrupt_or_truncated_tail_falls_back_to_valid_prefix() {
    // A damaged tail delta must cost only the cycles since the previous
    // valid link — the restore still completes and still matches the
    // uninterrupted run's result.
    let sched = SchedulerKind::Pro;
    let (base, _, base_mem) = straight_run(sched);
    let every = (base.cycles / 8).max(1);

    // CRC flip in the newest delta.
    let dir = temp_dir("crcflip");
    chained_prefix(sched, &dir, every, 6, 0);
    let tail = dir.join("delta-000005.ckpt");
    let mut bytes = std::fs::read(&tail).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&tail, &bytes).unwrap();
    let chain = SnapshotChain::load_dir(&dir).expect("prefix survives");
    assert_eq!(chain.deltas(), 4, "flipped tail discarded");
    let (r, _, mem) = resume_chain_run(&chain, sched);
    assert_same(&base, &r, "crc-flip fallback");
    assert_eq!(base_mem, mem, "crc-flip fallback: output memory");
    std::fs::remove_dir_all(&dir).unwrap();

    // Torn write: tail delta truncated mid-file.
    let dir = temp_dir("torn");
    chained_prefix(sched, &dir, every, 6, 0);
    let tail = dir.join("delta-000005.ckpt");
    let bytes = std::fs::read(&tail).unwrap();
    std::fs::write(&tail, &bytes[..bytes.len() / 3]).unwrap();
    let chain = SnapshotChain::load_dir(&dir).expect("prefix survives");
    assert_eq!(chain.deltas(), 4, "truncated tail discarded");
    let (r, _, mem) = resume_chain_run(&chain, sched);
    assert_same(&base, &r, "truncation fallback");
    assert_eq!(base_mem, mem, "truncation fallback: output memory");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn keep_cap_bounds_files_and_preserves_restore() {
    // --checkpoint-keep N: the chain rolls over into a fresh full base
    // when it reaches N files, old deltas pruned only after the new base
    // landed. The directory never exceeds N chain files, and the rolled
    // chain restores exactly like an unbounded one.
    let sched = SchedulerKind::Lrr;
    let (base, base_trace, base_mem) = straight_run(sched);
    let every = (base.cycles / 16).max(1);
    let dir = temp_dir("keep");
    let keep = 4;
    let (pre_trace, _) = chained_prefix(sched, &dir, every, 10, keep);

    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".ckpt"))
        .collect();
    assert!(
        files.len() <= keep,
        "keep cap violated: {} chain files {files:?}",
        files.len()
    );

    // Boundaries 1..=10 with keep=4: base at 1, rollovers at 5 and 9, so
    // the surviving chain is the boundary-9 base plus the boundary-10
    // delta — and restoring it completes the run bit-identically.
    let chain = SnapshotChain::load_dir(&dir).expect("rolled chain loads");
    assert_eq!(chain.deltas(), 1, "chain after rollover: base + 1 delta");
    let (r, post_trace, mem) = resume_chain_run(&chain, sched);
    assert_same(&base, &r, "keep-capped chain");
    assert_eq!(base_mem, mem, "keep-capped chain: output memory");
    let mut trace = pre_trace;
    trace.extend_from_slice(&post_trace);
    assert_eq!(base_trace, trace, "keep-capped chain: trace bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delta_is_at_least_5x_smaller_than_full() {
    // The acceptance bar: at the default workload scale with a 1000-cycle
    // interval, a delta checkpoint is ≥5× smaller than the full snapshot
    // of the same run. Sizes and write times land in EXPERIMENTS.md; run
    // with --nocapture to reproduce the numbers.
    let w = registry().into_iter().find(|w| w.kernel == KERNEL).unwrap();
    let mut gpu = Gpu::new(cfg(), w.recommended_gmem(Scale::default()));
    let built = w.build_scaled(&mut gpu.gmem, Scale::default());
    let dir = temp_dir("sizes");
    let trace = TraceOptions {
        host_prof: true,
        ..Default::default()
    };
    let status = gpu
        .launch_checkpointed(
            &built.kernel,
            SchedulerKind::Lrr,
            trace,
            &CheckpointOptions {
                every: 1000,
                path: Some(dir.clone()),
                delta: true,
                ..Default::default()
            },
        )
        .unwrap();
    let r = match status {
        LaunchStatus::Completed(r) => r,
        LaunchStatus::Paused(_) => panic!("no pause requested"),
    };

    let base_size = std::fs::metadata(dir.join("base.ckpt")).unwrap().len();
    let mut delta_sizes: Vec<u64> = Vec::new();
    for seq in 1u64.. {
        let Ok(md) = std::fs::metadata(dir.join(format!("delta-{seq:06}.ckpt"))) else {
            break;
        };
        delta_sizes.push(md.len());
    }
    assert!(
        !delta_sizes.is_empty(),
        "run too short for a delta at every=1000 ({} cycles)",
        r.cycles
    );
    let max_delta = *delta_sizes.iter().max().unwrap();
    let sum: u64 = delta_sizes.iter().sum();
    let avg_delta = sum / delta_sizes.len() as u64;
    let write_ns = r.metrics.counter("host/phase.snapshot_write.ns").unwrap_or(0);
    let write_calls = r
        .metrics
        .counter("host/phase.snapshot_write.calls")
        .unwrap_or(0);
    println!(
        "delta-vs-full (laplace3d, default scale, every=1000): \
         full={base_size} B, deltas n={} avg={avg_delta} B max={max_delta} B, \
         full/avg={:.1}x full/max={:.1}x, snapshot_write {} calls {} ns total",
        delta_sizes.len(),
        base_size as f64 / avg_delta as f64,
        base_size as f64 / max_delta as f64,
        write_calls,
        write_ns,
    );
    assert!(
        base_size >= 5 * max_delta,
        "delta not ≥5x smaller: full={base_size} B, largest delta={max_delta} B"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_identity_api_accepts_own_and_refuses_foreign() {
    // The host-facing identity check behind `repro json --resume`'s loud
    // mismatch error: right config+kernel+scheduler passes, anything else
    // is a typed Mismatch naming the disagreement.
    let (mut gpu, kernel) = fresh_gpu();
    let status = gpu
        .launch_checkpointed(
            &kernel,
            SchedulerKind::Pro,
            TraceOptions::default(),
            &CheckpointOptions {
                pause_at: 200,
                ..Default::default()
            },
        )
        .unwrap();
    let snap = match status {
        LaunchStatus::Paused(s) => s,
        _ => panic!("expected pause"),
    };
    snapshot_matches(&snap, &cfg(), &kernel, "pro").unwrap();
    // Empty scheduler skips the policy check.
    snapshot_matches(&snap, &cfg(), &kernel, "").unwrap();
    assert!(matches!(
        snapshot_matches(&snap, &cfg(), &kernel, "lrr"),
        Err(CodecError::Mismatch(_))
    ));
    let other_cfg = GpuConfig::small(2);
    assert!(matches!(
        snapshot_matches(&snap, &other_cfg, &kernel, "pro"),
        Err(CodecError::Mismatch(_))
    ));
    let w = registry()
        .into_iter()
        .find(|w| w.kernel == "scalarProdGPU")
        .unwrap();
    let mut gpu2 = Gpu::new(cfg(), 64 << 20);
    let other = (w.build)(&mut gpu2.gmem, SCALE);
    assert!(matches!(
        snapshot_matches(&snap, &cfg(), &other.kernel, "pro"),
        Err(CodecError::Mismatch(_))
    ));
}
