//! The one place the benchmark calls into the simulator crates.
//!
//! Every construction, build, launch, checkpoint, restore, verification,
//! oracle run and pool map goes through a function here, and every result
//! leaves as a benchmark-owned [`LaunchStats`]. A change to the
//! simulator's entry points (for example collapsing `Gpu`'s launch and
//! resume methods into one) therefore edits this file only.

use std::path::Path;
use std::sync::Arc;

use pro_core::codec::{Snapshot as _, Writer};
use pro_core::SchedulerKind;
use pro_isa::interp::{run_kernel, MemoryBackend};
use pro_isa::Kernel;
use pro_mem::GlobalMem;
use pro_sim::trace::Hist16;
use pro_sim::{
    CheckpointOptions, Gpu, GpuConfig, LaunchStatus, ProgressEvent, RunResult, SnapshotChain,
    TraceOptions,
};
use pro_workloads::synth::{generate, SynthParams};
use pro_workloads::{Scale, VerifyFn, Workload};

/// A warp-scheduling policy.
pub type Policy = SchedulerKind;

/// The paper's four policies in Fig. 4 order: TL, LRR, GTO, PRO.
pub const PAPER_POLICIES: [Policy; 4] = SchedulerKind::PAPER;
/// The paper's policy.
pub const PRO: Policy = SchedulerKind::Pro;
/// The two-level baseline.
pub const TL: Policy = SchedulerKind::Tl;

/// Short display name of a policy (`PRO`, `TL`, ...).
pub fn policy_name(p: Policy) -> &'static str {
    p.name()
}

/// Worker count of the experiment pool (`nproc` unless overridden).
pub fn pool_jobs() -> usize {
    pro_core::pool::default_jobs()
}

/// Map `f` over `items` on the experiment pool, in submission order.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    pro_bench::parallel_map(items, f)
}

/// A simulated GTX480 on the default engine (`sm_workers = 1`).
pub struct Machine(Gpu);

/// `Gpu::new` on the paper's GTX480 configuration.
pub fn new_machine(gmem_bytes: u64) -> Machine {
    Machine(Gpu::new(GpuConfig::gtx480(), gmem_bytes))
}

/// One Table II kernel.
#[derive(Clone, Copy)]
pub struct TableKernel(Workload);

impl TableKernel {
    /// Kernel name.
    pub fn name(&self) -> &'static str {
        self.0.kernel
    }

    /// Device memory the kernel's run needs at this scale.
    pub fn gmem_bytes(&self, full: bool) -> u64 {
        self.0.recommended_gmem(scale(full))
    }
}

fn scale(full: bool) -> Scale {
    if full {
        Scale::Full
    } else {
        Scale::default()
    }
}

/// The cell set of `repro json --quick`: the first kernel of each of the
/// 15 Table II applications.
pub fn quick_kernels() -> Vec<TableKernel> {
    pro_workloads::apps()
        .into_iter()
        .map(|(_, ks)| TableKernel(ks[0]))
        .collect()
}

/// A Table II kernel by name.
pub fn table_kernel(name: &str) -> TableKernel {
    let w = pro_workloads::registry()
        .into_iter()
        .find(|w| w.kernel == name);
    TableKernel(w.unwrap_or_else(|| panic!("no Table II kernel named {name}")))
}

/// A kernel bound to buffers in one machine's memory, with the check its
/// output must pass.
pub struct Built {
    kernel: Kernel,
    check: Check,
}

enum Check {
    /// The workload's own functional verifier.
    Verifier(VerifyFn),
    /// Synthetic kernels: the output region, compared by the caller.
    Region { base: u64, len: usize },
}

/// `Workload::build_scaled` into `m`'s memory.
pub fn build_table(m: &mut Machine, k: &TableKernel, full: bool) -> Built {
    let b = k.0.build_scaled(&mut m.0.gmem, scale(full));
    Built {
        kernel: b.kernel,
        check: Check::Verifier(b.verify),
    }
}

/// Shape of the barrier-dense, divergent, memory-light synthetic kernels.
fn synth_params(seed: u64) -> SynthParams {
    SynthParams {
        seed,
        blocks: 224,
        threads: 64,
        statements: 40,
        mem_prob: 0.08,
        scatter_prob: 0.2,
        barrier_prob: 0.4,
        sfu_prob: 0.08,
        branch_prob: 0.3,
        loop_prob: 0.2,
        max_trip: 4,
    }
}

/// Device memory a synthetic kernel run gets.
pub const SYNTH_GMEM: u64 = 4 << 20;

/// `synth::generate` into `m`'s memory.
pub fn build_synth(m: &mut Machine, seed: u64) -> Built {
    let s = generate(&mut m.0.gmem, synth_params(seed));
    Built {
        kernel: s.kernel,
        check: Check::Region {
            base: s.out_base,
            len: s.out_len,
        },
    }
}

/// Run the verifier of a Table II build against `m`'s memory.
pub fn verify(m: &Machine, b: &Built) -> Result<(), String> {
    match &b.check {
        Check::Verifier(v) => v(&m.0.gmem),
        Check::Region { .. } => Ok(()),
    }
}

/// The output words of a synthetic build (empty for Table II builds).
pub fn output_words(m: &Machine, b: &Built) -> Vec<u32> {
    match b.check {
        Check::Region { base, len } => m.0.gmem.read_slice(base, len),
        Check::Verifier(_) => Vec::new(),
    }
}

struct GmemBackend<'a>(&'a mut GlobalMem);

impl MemoryBackend for GmemBackend<'_> {
    fn read_global(&mut self, addr: u32) -> u32 {
        self.0.read(addr as u64)
    }
    fn write_global(&mut self, addr: u32, value: u32) {
        self.0.write(addr as u64, value);
    }
}

/// Per-thread step budget of the scalar oracle.
const ORACLE_STEPS: u64 = 5_000_000;

/// Output words of synthetic kernel `seed` computed by the scalar
/// interpreter (`pro_isa::interp::run_kernel`) from the same initial
/// memory a simulated run starts from.
pub fn synth_oracle(seed: u64) -> Result<Vec<u32>, String> {
    let mut m = new_machine(SYNTH_GMEM);
    let b = build_synth(&mut m, seed);
    run_kernel(&b.kernel, &mut GmemBackend(&mut m.0.gmem), ORACLE_STEPS)
        .map_err(|e| format!("oracle: {e}"))?;
    Ok(output_words(&m, &b))
}

/// What the benchmark keeps of a completed launch.
#[derive(Debug, Clone, Default)]
pub struct LaunchStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated warp instructions.
    pub instructions: u64,
    /// Scheduler-unit cycles.
    pub unit_cycles: u64,
    /// Idle stall unit-cycles.
    pub idle: u64,
    /// Scoreboard stall unit-cycles.
    pub scoreboard: u64,
    /// Pipeline stall unit-cycles.
    pub pipeline: u64,
    /// L1 hits and misses.
    pub l1: (u64, u64),
    /// L2 hits and misses.
    pub l2: (u64, u64),
    /// DRAM row hits and misses.
    pub dram_rows: (u64, u64),
    /// L1 + L2 MSHR rejections.
    pub mshr_rejections: u64,
    /// Completed loads and their summed latency in cycles.
    pub loads: (u64, u64),
    /// `host/*` counters; all zero unless the launch was profiled.
    pub host: HostCounters,
    /// Canonical bytes of every simulated field (the `host/` namespace is
    /// excluded by the result's own encoding).
    pub sim_bytes: Vec<u8>,
}

/// The `host/*` counters of a profiled launch.
#[derive(Debug, Clone, Default)]
pub struct HostCounters {
    /// Host ns in the issue, memory and merge phases and checkpoint writes.
    pub issue_ns: u64,
    /// See [`HostCounters::issue_ns`].
    pub mem_ns: u64,
    /// See [`HostCounters::issue_ns`].
    pub merge_ns: u64,
    /// See [`HostCounters::issue_ns`].
    pub ckpt_write_ns: u64,
    /// Unit-cycles that reused or recomputed the policy's order.
    pub orders_reused: u64,
    /// See [`HostCounters::orders_reused`].
    pub orders_recomputed: u64,
    /// Warp probes skipped by the ready mask.
    pub mask_skips: u64,
    /// Highest LSU queue depth on any SM.
    pub lsuq_hwm: u64,
    /// Highest memory event-queue depth.
    pub evq_hwm: u64,
    /// Sampled memory event-queue depth.
    pub evq_depth: DepthHist,
}

/// A sampled queue-depth histogram.
#[derive(Debug, Clone, Copy, Default)]
pub struct DepthHist(Option<Hist16>);

impl DepthHist {
    /// Fold `other` in.
    pub fn merge(&mut self, other: &DepthHist) {
        match (&mut self.0, other.0) {
            (Some(a), Some(b)) => a.merge(&b),
            (None, b) => self.0 = b,
            _ => {}
        }
    }

    /// Upper bound of the bucket holding quantile `q`; zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.0.map_or(0, |h| h.quantile_bound(q))
    }
}

fn stats(r: &RunResult) -> LaunchStats {
    let c = |name: &str| r.metrics.counter(name).unwrap_or(0);
    let mut w = Writer::new();
    r.save(&mut w);
    LaunchStats {
        cycles: r.cycles,
        instructions: r.sm.instructions,
        unit_cycles: r.sm.unit_cycles,
        idle: r.sm.idle,
        scoreboard: r.sm.scoreboard,
        pipeline: r.sm.pipeline,
        l1: (r.mem.l1.hits, r.mem.l1.misses),
        l2: (r.mem.l2.hits, r.mem.l2.misses),
        dram_rows: (r.mem.dram.row_hits, r.mem.dram.row_misses),
        mshr_rejections: r.mem.l1.mshr_rejections + r.mem.l2.mshr_rejections,
        loads: (r.mem.loads_completed, r.mem.load_latency_sum),
        host: HostCounters {
            issue_ns: c("host/phase.issue.ns"),
            mem_ns: c("host/phase.mem.ns"),
            merge_ns: c("host/phase.merge.ns"),
            ckpt_write_ns: c("host/phase.snapshot_write.ns"),
            orders_reused: c("host/issue/orders_reused"),
            orders_recomputed: c("host/issue/orders_recomputed"),
            mask_skips: c("host/issue/mask_skips"),
            lsuq_hwm: c("host/sm.lsuq.hwm"),
            evq_hwm: c("host/mem.evq.hwm"),
            evq_depth: DepthHist(r.metrics.hist("host/mem.evq.depth").copied()),
        },
        sim_bytes: w.into_bytes(),
    }
}

fn trace_opts(profiled: bool) -> TraceOptions {
    TraceOptions {
        host_prof: profiled,
        ..Default::default()
    }
}

/// A launch's outcome plus what the quick sweep's export needs.
pub struct Outcome {
    result: RunResult,
}

impl Outcome {
    /// The benchmark-owned view of the result.
    pub fn stats(&self) -> LaunchStats {
        stats(&self.result)
    }
}

/// `Gpu::launch` to completion; `profiled` turns on the host profiler.
pub fn launch(m: &mut Machine, b: &Built, p: Policy, profiled: bool) -> Result<Outcome, String> {
    let result =
        m.0.launch(&b.kernel, p, trace_opts(profiled))
            .map_err(|e| e.to_string())?;
    Ok(Outcome { result })
}

/// Delta-checkpoint settings: a chain in `dir`, one capture every `every`
/// kernel-relative cycles.
fn ckpt_opts(dir: &Path, every: u64) -> CheckpointOptions {
    CheckpointOptions {
        every,
        path: Some(dir.to_path_buf()),
        delta: true,
        ..Default::default()
    }
}

/// `Gpu::launch_checkpointed` writing a delta chain into `dir`, paused
/// once `pause_at` cycles have run. Errors if the launch completes first.
/// A paused launch returns no result, so its `host/*` phase totals are
/// not observable from outside.
pub fn launch_until_pause(
    m: &mut Machine,
    b: &Built,
    p: Policy,
    dir: &Path,
    every: u64,
    pause_at: u64,
) -> Result<(), String> {
    let opts = CheckpointOptions {
        pause_at,
        ..ckpt_opts(dir, every)
    };
    match m
        .0
        .launch_checkpointed(&b.kernel, p, TraceOptions::default(), &opts)
    {
        Ok(LaunchStatus::Paused(_)) => Ok(()),
        Ok(LaunchStatus::Completed(_)) => Err("completed before the pause point".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// A delta chain loaded from disk.
pub struct Chain(SnapshotChain);

/// `SnapshotChain::load_dir`: the longest valid chain prefix in `dir`.
pub fn load_chain(dir: &Path) -> Option<Chain> {
    SnapshotChain::load_dir(dir).map(Chain)
}

/// `Gpu::resume_chain`, continuing the chain in its own directory until
/// the launch completes. `first_cycle` is called once, right after the
/// resumed run has simulated its first cycle.
pub fn resume_chain(
    m: &mut Machine,
    chain: &Chain,
    b: &Built,
    p: Policy,
    profiled: bool,
    every: u64,
    first_cycle: impl Fn() + Send + Sync + 'static,
) -> Result<Outcome, String> {
    let fired = std::sync::atomic::AtomicBool::new(false);
    let progress = Arc::new(move |_: ProgressEvent| {
        if !fired.swap(true, std::sync::atomic::Ordering::Relaxed) {
            first_cycle();
        }
    });
    let opts = CheckpointOptions {
        progress_every: 1,
        progress: Some(progress),
        ..ckpt_opts(&chain.0.dir, every)
    };
    match m
        .0
        .resume_chain(&chain.0, &b.kernel, p, trace_opts(profiled), &opts)
    {
        Ok(LaunchStatus::Completed(result)) => Ok(Outcome { result }),
        Ok(LaunchStatus::Paused(_)) => Err("resumed launch paused".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// One exported cell of the quick sweep.
pub struct QuickCell<'a> {
    /// The kernel.
    pub kernel: TableKernel,
    /// The policy.
    pub policy: Policy,
    /// The launch outcome.
    pub outcome: &'a Outcome,
}

/// `export_cells` over the quick sweep's cells, as `repro json --quick`
/// prints it (with its trailing newline).
pub fn export_quick(cells: &[QuickCell<'_>]) -> String {
    let cells: Vec<pro_bench::Cell> = cells
        .iter()
        .map(|c| pro_bench::Cell {
            kernel: c.kernel.0.kernel,
            app: c.kernel.0.app,
            sched: c.policy,
            result: c.outcome.result.clone(),
        })
        .collect();
    format!("{}\n", pro_bench::json::export_cells(&cells))
}
