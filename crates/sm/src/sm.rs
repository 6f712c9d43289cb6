//! The streaming multiprocessor (SM) model: warp slots, dual scheduler
//! units, scoreboard-gated in-order issue, execution pipelines (SP/SFU/LSU),
//! the barrier unit, TB residency management and the paper's stall
//! taxonomy.
//!
//! ### Cycle anatomy (per [`Sm::tick`])
//!
//! 1. Drain memory-system load completions → scoreboard releases.
//! 2. Apply due writeback events (ALU/SFU/shared latencies elapse).
//! 3. Advance the LSU: the head entry feeds one line transaction per cycle
//!    to the memory subsystem, or counts down shared-memory bank-conflict
//!    occupancy.
//! 4. For each scheduler unit: ask the policy for a priority order, walk it,
//!    and issue the first warp whose instruction is fetched, hazard-free and
//!    has a free pipeline. If nothing issues, classify the cycle:
//!    * **Idle** — no warp had a valid instruction (barrier, empty i-buffer,
//!      no warps at all),
//!    * **Scoreboard** — valid instruction(s) but operands pending,
//!    * **Pipeline** — operands ready but the target pipeline was full.
//!
//!    This is GPGPU-Sim's classification as defined in §II.B of the paper.
//! 5. Barrier releases and TB completions fire the policy hooks
//!    (`insertBarrierWarp` / `insertFinishWarp` equivalents).

use crate::warp::{ExecEffect, LatClass, LaunchCtx, Warp};
use crate::scoreboard::{Scoreboard, WriteSet};
use crate::shared::SharedMem;
use pro_core::calq::CalQueue;
use pro_core::codec::{CodecError, Reader, Snapshot, Writer};
use pro_core::{FxHashMap, IssueInfo, SchedView, TbState, WarpScheduler, WarpState};
use pro_isa::{Instr, Kernel, PipeClass, Program, WARP_SIZE};
use pro_mem::{
    AccessId, AccessOutcome, GlobalMem, GmemPort, GmemStage, MemSubsystem, StoreLog,
    QUEUE_SAMPLE_PERIOD,
};
use pro_trace::{
    req_id, Event as TraceEvent, EventClass, Hist16, IssueProf, NoopTracer, StallReason, Tracer,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// SM microarchitecture parameters (defaults: Table I / Fermi GTX480).
#[derive(Debug, Clone, Copy)]
pub struct SmConfig {
    /// Warp slots per SM (48 → 1536 threads).
    pub max_warps: usize,
    /// TB slots per SM.
    pub max_tbs: usize,
    /// Thread capacity.
    pub max_threads: u32,
    /// Shared memory capacity in bytes.
    pub shared_capacity: u32,
    /// Register file capacity (32-bit registers).
    pub regs_per_sm: u32,
    /// Scheduler units (Fermi: 2); warp slot `w` belongs to unit `w % units`.
    pub units: u32,
    /// Cycles between an issue and the next instruction being decodable.
    pub fetch_lat: u64,
    /// Writeback latency: simple integer / logic ops.
    pub lat_int_simple: u64,
    /// Writeback latency: integer multiply / mad.
    pub lat_int_mul: u64,
    /// Writeback latency: f32 arithmetic.
    pub lat_float: u64,
    /// Writeback latency: conversions.
    pub lat_convert: u64,
    /// SFU result latency.
    pub sfu_lat: u64,
    /// SFU initiation interval (one warp SFU op per this many cycles).
    pub sfu_ii: u64,
    /// Shared-memory access latency (plus bank-conflict occupancy).
    pub shared_lat: u64,
    /// LSU queue depth (pending memory instructions per SM).
    pub lsu_queue: usize,
}

impl Default for SmConfig {
    fn default() -> Self {
        Self::gtx480()
    }
}

impl SmConfig {
    /// The paper's GTX480 configuration.
    pub fn gtx480() -> Self {
        SmConfig {
            max_warps: 48,
            max_tbs: 8,
            max_threads: 1536,
            shared_capacity: 48 * 1024,
            regs_per_sm: 32768,
            units: 2,
            fetch_lat: 2,
            lat_int_simple: 8,
            lat_int_mul: 16,
            lat_float: 18,
            lat_convert: 12,
            sfu_lat: 32,
            sfu_ii: 8,
            shared_lat: 24,
            lsu_queue: 8,
        }
    }

    fn alu_lat(&self, c: LatClass) -> u64 {
        match c {
            LatClass::IntSimple => self.lat_int_simple,
            LatClass::IntMul => self.lat_int_mul,
            LatClass::Float => self.lat_float,
            LatClass::Convert => self.lat_convert,
        }
    }
}

/// The three GPGPU-Sim stall categories plus the issue counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Scheduler-unit cycles that issued an instruction.
    pub issued: u64,
    /// Unit cycles with no valid instruction available.
    pub idle: u64,
    /// Unit cycles blocked only by operand hazards.
    pub scoreboard: u64,
    /// Unit cycles blocked only by full pipelines.
    pub pipeline: u64,
    /// Total unit cycles observed.
    pub unit_cycles: u64,
    /// Dynamic warp instructions issued.
    pub instructions: u64,
    /// Thread-instructions executed (instructions × active lanes).
    pub thread_instructions: u64,
    /// Warp-level divergence: Σ over completed TBs of (last warp finish −
    /// first warp finish) in cycles — the §II.B disparity PRO attacks by
    /// prioritizing laggards.
    pub wld_cycles: u64,
    /// TBs completed (denominator for the mean WLD).
    pub tbs_completed: u64,
    /// Σ of ready-warp counts over sampled unit-cycles (a warp is ready if
    /// it has a fetched instruction with no scoreboard hazard — the pool
    /// the paper's §III argues PRO enlarges). Sampled every 64 cycles.
    pub ready_warp_sum: u64,
    /// Number of ready-warp samples taken.
    pub ready_samples: u64,
    /// Distribution of the sampled ready-warp counts (same samples as
    /// `ready_warp_sum` / `ready_samples`).
    pub ready_hist: Hist16,
    /// Per-TB warp-progress disparity at retirement: max − min
    /// thread-instruction progress among the TB's warps — the §III.E
    /// imbalance PRO's laggard prioritization attacks.
    pub disparity_hist: Hist16,
}

impl SmStats {
    /// Total stall unit-cycles.
    pub fn total_stalls(&self) -> u64 {
        self.idle + self.scoreboard + self.pipeline
    }

    /// Mean warp-level divergence per TB (cycles between a TB's first and
    /// last warp completion).
    pub fn avg_wld(&self) -> f64 {
        if self.tbs_completed == 0 {
            0.0
        } else {
            self.wld_cycles as f64 / self.tbs_completed as f64
        }
    }

    /// Mean number of ready warps per scheduler unit (sampled).
    pub fn avg_ready_warps(&self) -> f64 {
        if self.ready_samples == 0 {
            0.0
        } else {
            self.ready_warp_sum as f64 / self.ready_samples as f64
        }
    }

    /// Merge another SM's counters (GPU-level aggregation).
    pub fn merge(&mut self, o: &SmStats) {
        self.issued += o.issued;
        self.idle += o.idle;
        self.scoreboard += o.scoreboard;
        self.pipeline += o.pipeline;
        self.unit_cycles += o.unit_cycles;
        self.instructions += o.instructions;
        self.thread_instructions += o.thread_instructions;
        self.wld_cycles += o.wld_cycles;
        self.tbs_completed += o.tbs_completed;
        self.ready_warp_sum += o.ready_warp_sum;
        self.ready_samples += o.ready_samples;
        self.ready_hist.merge(&o.ready_hist);
        self.disparity_hist.merge(&o.disparity_hist);
    }
}

/// Per-cycle outputs the GPU layer consumes.
#[derive(Debug, Default)]
pub struct TickReport {
    /// Global indices of TBs that completed this cycle (slots now free).
    pub finished_tbs: Vec<u32>,
}

#[derive(Debug, Clone)]
enum LsuEntry {
    Global {
        access: AccessId,
        lines: Vec<u64>,
        next: usize,
        is_write: bool,
    },
    Shared {
        warp: usize,
        remaining: u32,
        wb: WriteSet,
    },
}

#[derive(Debug, Clone, Copy)]
struct WbRec {
    warp: usize,
    ws: WriteSet,
}

/// One streaming multiprocessor.
pub struct Sm {
    /// This SM's id (index into the GPU's SM array).
    pub id: u32,
    cfg: SmConfig,
    warps: Vec<Warp>,
    shared: Vec<SharedMem>,
    sched_warps: Vec<WarpState>,
    sched_tbs: Vec<TbState>,
    // Kernel context.
    program: Option<Arc<Program>>,
    params: Vec<u32>,
    ntid: u32,
    nctaid: u32,
    warps_per_tb: usize,
    threads_per_tb: u32,
    // Resource accounting.
    used_threads: u32,
    used_shared: u32,
    used_regs: u32,
    live_tbs: u32,
    // Pipelines. Writeback events ride the same slab-recycled calendar
    // queue as the memory subsystem's timing events.
    wb_events: CalQueue<WbRec>,
    lsu: VecDeque<LsuEntry>,
    sfu_free_at: u64,
    access_map: FxHashMap<AccessId, (usize, WriteSet)>,
    next_access: AccessId,
    // Deferred cross-SM effects of the issue phase, published by
    // [`Sm::merge_phase`] in SM-index order so the issue phase never
    // touches shared state.
    load_intents: Vec<(AccessId, u32)>,
    store_log: StoreLog,
    /// Cycle each TB slot's first warp finished (WLD tracking).
    first_warp_finish: Vec<Option<u64>>,
    /// Cumulative statistics (reset by the GPU at kernel boundaries).
    pub stats: SmStats,
    // Scratch.
    lines_buf: Vec<u64>,
    completion_buf: Vec<AccessId>,
    // --- Incremental issue path (DESIGN.md §15). All of this is *derived*
    // state: maintained at the few events that can change it, rebuilt from
    // the architectural state on restore, and never serialized. ---
    /// Bit `w` set iff warp slot `w` is an issue candidate (launched and
    /// not finished). Per-unit candidate sets are `cands_mask &
    /// unit_masks[u]`.
    cands_mask: u64,
    /// Static slot→unit membership: bit `w` of `unit_masks[u]` set iff
    /// `w % units == u`. Computed once at construction.
    unit_masks: Vec<u64>,
    /// Bit `w` set iff warp `w` is valid, not parked at a barrier, and not
    /// finished — exactly the warps the issue walk would not silently skip.
    eligible_mask: u64,
    /// Bit `w` set iff `warps[w].ibuf_ready_at <= now`: the warp's next
    /// instruction is in the i-buffer. Exact for every candidate once
    /// [`Sm::refresh_fetched`] ran at the top of the issue phase; every
    /// write of `ibuf_ready_at` after launch goes through [`Sm::set_ibuf`],
    /// which sets or clears the bit to match.
    fetched_mask: u64,
    /// Memoized "scoreboard said no" outcomes: bit `w` set when the probe
    /// reached warp `w`, fetched its instruction, and the scoreboard (or
    /// the Exit/Bar drain rule) refused it. The warp's pc, SIMT stack and
    /// scoreboard are frozen until a writeback releases registers —
    /// [`Sm::release_write`] is the single unblock point and clears the
    /// bit — so skipping the warp (while still counting it as holding a
    /// valid instruction) is bit-identical to re-evaluating it.
    sb_wait_mask: u64,
    /// Structural memo: bit `w` set when the probe fetched warp `w`'s
    /// instruction, the scoreboard (and the Exit/Bar drain rule) passed
    /// it, and it is LSU-class (`mem_ready_mask`) or SFU-class
    /// (`sfu_ready_mask`). Only the warp's own issue reserves its
    /// registers and its pc is frozen until then, so the "ready" verdict
    /// cannot be revoked before it issues: the bit is cleared only there,
    /// and when its slot is launched or retired. While the unit's pipe is
    /// free the warp issues on sight; while it is full the probe skips it
    /// with one bit test (still counting it as a Pipeline stall).
    mem_ready_mask: u64,
    /// See `mem_ready_mask`.
    sfu_ready_mask: u64,
    /// Bit `w` set iff `sched_warps[w].blocked_on_longlat` — the
    /// fingerprint consulted when a policy's `order()` reads blocked flags
    /// (`order_reads_longlat`, e.g. TL).
    longlat_mask: u64,
    /// Per-unit candidate lists (ascending slots of `cand_list_masks[u]`),
    /// rebuilt only when the unit's candidate set changes. Each list is a
    /// pure function of its mask, so a restore needs no reset.
    cand_lists: Vec<Vec<usize>>,
    cand_list_masks: Vec<u64>,
    /// Per-unit cached `order()` output plus the inputs it was computed
    /// under; reused verbatim while the policy reports clean and the
    /// inputs are unchanged.
    order_bufs: Vec<Vec<usize>>,
    cached_cands: Vec<u64>,
    cached_blocked: Vec<u64>,
    cached_valid: Vec<bool>,
    // Host-only issue-path counters (outside the determinism/checkpoint
    // boundary, published as `host/issue/*`).
    issue_orders_reused: u64,
    issue_orders_recomputed: u64,
    issue_mask_skips: u64,
    issue_probe_evals: u64,
    // Host-observability LSU queue gauge, sampled every
    // `QUEUE_SAMPLE_PERIOD` cycles; never serialized (outside the
    // determinism/checkpoint boundary, published as `host/sm.lsuq.*`).
    lsu_hwm: u64,
    lsu_depth: Hist16,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("live_tbs", &self.live_tbs)
            .finish()
    }
}

impl Sm {
    /// Create an idle SM.
    pub fn new(id: u32, cfg: SmConfig) -> Self {
        assert!(
            cfg.max_warps <= 64,
            "the incremental issue path packs warp slots into u64 bitsets"
        );
        let mut unit_masks = vec![0u64; cfg.units.max(1) as usize];
        for w in 0..cfg.max_warps {
            unit_masks[w % cfg.units.max(1) as usize] |= 1u64 << w;
        }
        Sm {
            id,
            warps: (0..cfg.max_warps).map(|_| Warp::empty()).collect(),
            shared: (0..cfg.max_tbs).map(|_| SharedMem::new(0)).collect(),
            sched_warps: vec![WarpState::default(); cfg.max_warps],
            sched_tbs: vec![TbState::default(); cfg.max_tbs],
            program: None,
            params: Vec::new(),
            ntid: 0,
            nctaid: 0,
            warps_per_tb: 0,
            threads_per_tb: 0,
            used_threads: 0,
            used_shared: 0,
            used_regs: 0,
            live_tbs: 0,
            wb_events: CalQueue::new(),
            lsu: VecDeque::new(),
            sfu_free_at: 0,
            access_map: FxHashMap::default(),
            next_access: 0,
            load_intents: Vec::with_capacity(8),
            store_log: StoreLog::default(),
            first_warp_finish: vec![None; cfg.max_tbs],
            stats: SmStats::default(),
            lines_buf: Vec::with_capacity(32),
            completion_buf: Vec::with_capacity(32),
            cands_mask: 0,
            unit_masks,
            eligible_mask: 0,
            fetched_mask: 0,
            sb_wait_mask: 0,
            mem_ready_mask: 0,
            sfu_ready_mask: 0,
            longlat_mask: 0,
            cand_lists: (0..cfg.units)
                .map(|_| Vec::with_capacity(cfg.max_warps))
                .collect(),
            cand_list_masks: vec![0; cfg.units as usize],
            order_bufs: (0..cfg.units)
                .map(|_| Vec::with_capacity(cfg.max_warps))
                .collect(),
            cached_cands: vec![0; cfg.units as usize],
            cached_blocked: vec![0; cfg.units as usize],
            cached_valid: vec![false; cfg.units as usize],
            issue_orders_reused: 0,
            issue_orders_recomputed: 0,
            issue_mask_skips: 0,
            issue_probe_evals: 0,
            lsu_hwm: 0,
            lsu_depth: Hist16::new(),
            cfg,
        }
    }

    /// The SM's configuration.
    pub fn config(&self) -> &SmConfig {
        &self.cfg
    }

    /// Bind a kernel for subsequent TB launches. Must be quiescent.
    pub fn begin_kernel(&mut self, kernel: &Kernel) {
        assert_eq!(self.live_tbs, 0, "begin_kernel on a busy SM");
        assert!(
            kernel.program.regs as usize <= 128,
            "VPTX programs are limited to 128 registers in the SM model"
        );
        self.program = Some(Arc::clone(&kernel.program));
        self.params = kernel.params.clone();
        self.ntid = kernel.launch.threads_per_block();
        self.nctaid = kernel.launch.num_blocks();
        self.warps_per_tb = kernel.launch.warps_per_block() as usize;
        self.threads_per_tb = kernel.launch.threads_per_block();
        self.wb_events.clear();
        self.lsu.clear();
        self.sfu_free_at = 0;
        self.access_map.clear();
        self.load_intents.clear();
        self.store_log.clear();
        self.completion_buf.clear();
        self.reset_issue_path();
        self.lsu_hwm = 0;
        self.lsu_depth = Hist16::new();
        self.issue_orders_reused = 0;
        self.issue_orders_recomputed = 0;
        self.issue_mask_skips = 0;
        self.issue_probe_evals = 0;
    }

    /// Drop all incremental issue-path state: empty masks (the SM is
    /// quiescent or about to be rebuilt) and invalidated order caches.
    fn reset_issue_path(&mut self) {
        self.cands_mask = 0;
        self.eligible_mask = 0;
        self.sb_wait_mask = 0;
        self.mem_ready_mask = 0;
        self.sfu_ready_mask = 0;
        self.longlat_mask = 0;
        self.fetched_mask = 0;
        self.cached_valid.fill(false);
    }

    /// Recompute the candidate/eligible/blocked masks from the
    /// architectural warp state (after a snapshot restore). The
    /// scoreboard-wait and structural memos restart empty, `fetched_mask`
    /// empty (the next [`Sm::refresh_fetched`] re-tests every candidate)
    /// and the order caches invalid — all one-sided, so the first
    /// post-restore cycle recomputes exactly what the pre-snapshot engine
    /// would have.
    fn rebuild_issue_masks(&mut self) {
        self.reset_issue_path();
        for w in 0..self.cfg.max_warps {
            let bit = 1u64 << w;
            if self.sched_warps[w].active && !self.sched_warps[w].finished {
                self.cands_mask |= bit;
            }
            if self.sched_warps[w].blocked_on_longlat {
                self.longlat_mask |= bit;
            }
            let warp = &self.warps[w];
            if warp.valid && !warp.at_barrier && !warp.finished {
                self.eligible_mask |= bit;
            }
        }
    }

    /// Number of TB slots usable for the bound kernel (bounded by warp
    /// slots as well as TB slots).
    fn usable_tb_slots(&self) -> usize {
        if self.warps_per_tb == 0 {
            return 0;
        }
        self.cfg.max_tbs.min(self.cfg.max_warps / self.warps_per_tb)
    }

    /// Can another TB of the bound kernel be launched right now?
    pub fn can_accept_tb(&self) -> bool {
        let Some(p) = &self.program else { return false };
        let free_slot = (0..self.usable_tb_slots()).any(|t| !self.sched_tbs[t].occupied);
        free_slot
            && self.used_threads + self.threads_per_tb <= self.cfg.max_threads
            && self.used_shared + p.shared_bytes <= self.cfg.shared_capacity
            && self.used_regs + p.regs as u32 * self.threads_per_tb <= self.cfg.regs_per_sm
    }

    /// Number of TBs currently resident.
    pub fn live_tbs(&self) -> u32 {
        self.live_tbs
    }

    /// True while any TB is resident or any timing event is outstanding.
    pub fn busy(&self) -> bool {
        self.live_tbs > 0 || !self.lsu.is_empty() || !self.wb_events.is_empty()
    }

    /// Maximum TBs of the bound kernel that can ever be resident at once
    /// (the GPU uses this for phase bookkeeping and reports).
    pub fn max_resident_tbs(&self) -> u32 {
        let Some(p) = &self.program else { return 0 };
        let by_threads = self
            .cfg
            .max_threads
            .checked_div(self.threads_per_tb)
            .unwrap_or(0);
        let by_shared = self
            .cfg
            .shared_capacity
            .checked_div(p.shared_bytes)
            .unwrap_or(u32::MAX);
        let by_regs = if p.regs == 0 {
            u32::MAX
        } else {
            self.cfg.regs_per_sm / (p.regs as u32 * self.threads_per_tb)
        };
        (self.usable_tb_slots() as u32)
            .min(by_threads)
            .min(by_shared)
            .min(by_regs)
    }

    /// Launch TB `global_index` of the bound kernel. Returns the TB slot.
    /// Caller must have checked [`Sm::can_accept_tb`].
    ///
    /// Untraced convenience wrapper around [`Sm::launch_tb_traced`].
    pub fn launch_tb(
        &mut self,
        global_index: u32,
        now: u64,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
    ) -> usize {
        self.launch_tb_traced(global_index, now, policy, fast_phase, &mut NoopTracer)
    }

    /// [`Sm::launch_tb`] publishing a `TbLaunch` event to `tracer`.
    pub fn launch_tb_traced(
        &mut self,
        global_index: u32,
        now: u64,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
        tracer: &mut dyn Tracer,
    ) -> usize {
        let program = Arc::clone(self.program.as_ref().expect("kernel bound"));
        let slot = (0..self.usable_tb_slots())
            .find(|&t| !self.sched_tbs[t].occupied)
            .expect("caller checked can_accept_tb");
        let base = slot * self.warps_per_tb;
        let mut remaining = self.threads_per_tb;
        for i in 0..self.warps_per_tb {
            let live = remaining.min(WARP_SIZE as u32);
            remaining -= live;
            let mask = if live == 32 { u32::MAX } else { (1u32 << live) - 1 };
            let w = base + i;
            self.warps[w].launch(
                &program,
                slot,
                i as u32,
                global_index,
                mask,
                now,
                self.cfg.fetch_lat,
            );
            self.sched_warps[w] = WarpState {
                active: true,
                tb_slot: slot,
                index_in_tb: i as u32,
                progress: 0,
                at_barrier: false,
                finished: false,
                blocked_on_longlat: false,
            };
            let bit = 1u64 << w;
            self.cands_mask |= bit;
            self.eligible_mask |= bit;
            self.sb_wait_mask &= !bit;
            self.mem_ready_mask &= !bit;
            self.sfu_ready_mask &= !bit;
            self.longlat_mask &= !bit;
            self.set_ibuf(w, self.warps[w].ibuf_ready_at, now);
        }
        self.shared[slot] = SharedMem::new(program.shared_bytes);
        self.sched_tbs[slot] = TbState {
            occupied: true,
            global_index,
            progress: 0,
            num_warps: self.warps_per_tb as u32,
            warps_at_barrier: 0,
            warps_finished: 0,
            launched_at: now,
        };
        self.used_threads += self.threads_per_tb;
        self.used_shared += program.shared_bytes;
        self.used_regs += program.regs as u32 * self.threads_per_tb;
        self.live_tbs += 1;
        self.first_warp_finish[slot] = None;
        if tracer.wants(EventClass::Tb) {
            tracer.emit(
                now,
                &TraceEvent::TbLaunch {
                    sm: self.id,
                    tb_slot: slot as u32,
                    global_index,
                },
            );
        }
        let view = SchedView {
            cycle: now,
            warps: &self.sched_warps,
            tbs: &self.sched_tbs,
            tbs_waiting_in_tb_scheduler: fast_phase,
        };
        policy.on_tb_launch(slot, &view);
        slot
    }

    /// Scheduler-visible view (also used by the GPU layer for Table IV
    /// traces).
    pub fn sched_view(&self, now: u64, fast_phase: bool) -> SchedView<'_> {
        SchedView {
            cycle: now,
            warps: &self.sched_warps,
            tbs: &self.sched_tbs,
            tbs_waiting_in_tb_scheduler: fast_phase,
        }
    }

    /// Host-side LSU queue gauge: `(high-water mark, depth histogram)`,
    /// sampled every [`QUEUE_SAMPLE_PERIOD`] cycles (see `pro_mem`'s
    /// `QueueProf` for the boundary rules).
    pub fn lsu_prof(&self) -> (u64, &Hist16) {
        (self.lsu_hwm, &self.lsu_depth)
    }

    /// Host-side issue-path counters. Like [`Sm::lsu_prof`], host
    /// observability only — never serialized, excluded from determinism
    /// comparisons (published as `host/issue/*`).
    pub fn issue_prof(&self) -> IssueProf {
        IssueProf {
            orders_reused: self.issue_orders_reused,
            orders_recomputed: self.issue_orders_recomputed,
            mask_skips: self.issue_mask_skips,
            probe_evals: self.issue_probe_evals,
        }
    }

    /// Set warp `w`'s fetch-completion time to `at` and make its
    /// `fetched_mask` bit exact for cycle `now`.
    fn set_ibuf(&mut self, w: usize, at: u64, now: u64) {
        self.warps[w].ibuf_ready_at = at;
        if at <= now {
            self.fetched_mask |= 1u64 << w;
        } else {
            self.fetched_mask &= !(1u64 << w);
        }
    }

    /// Set the `fetched_mask` bit of every candidate whose instruction has
    /// matured by `now`. Only unset bits are tested: a set bit stays exact
    /// because time only advances and [`Sm::set_ibuf`] clears it whenever
    /// the fetch-completion time moves into the future. The unset bits
    /// are the few warps that issued, launched or left a barrier within
    /// the last `fetch_lat` cycles.
    fn refresh_fetched(&mut self, now: u64) {
        let mut m = self.cands_mask & !self.fetched_mask;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.warps[w].ibuf_ready_at <= now {
                self.fetched_mask |= 1u64 << w;
            }
        }
    }

    fn schedule_wb(&mut self, t: u64, rec: WbRec) {
        self.wb_events.push(t, rec);
    }

    fn release_write(&mut self, warp: usize, ws: WriteSet, now: u64, tracer: &mut dyn Tracer) {
        self.warps[warp].scoreboard.release(ws);
        let longlat = self.warps[warp].scoreboard.longlat_pending();
        self.sched_warps[warp].blocked_on_longlat = longlat;
        // The single point where a stalled warp can become issuable again:
        // drop its scoreboard-wait memo and refresh the blocked fingerprint.
        let bit = 1u64 << warp;
        self.sb_wait_mask &= !bit;
        if longlat {
            self.longlat_mask |= bit;
        } else {
            self.longlat_mask &= !bit;
        }
        if tracer.wants(EventClass::Scoreboard) {
            tracer.emit(
                now,
                &TraceEvent::ScoreboardClear {
                    sm: self.id,
                    warp: warp as u32,
                },
            );
        }
    }

    fn maybe_release_barrier(
        &mut self,
        tb: usize,
        now: u64,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
        tracer: &mut dyn Tracer,
    ) {
        let t = &self.sched_tbs[tb];
        if t.warps_at_barrier == 0 || t.warps_at_barrier + t.warps_finished < t.num_warps {
            return;
        }
        if tracer.wants(EventClass::Barrier) {
            tracer.emit(
                now,
                &TraceEvent::BarrierRelease {
                    sm: self.id,
                    tb_slot: tb as u32,
                },
            );
        }
        // Release.
        let base = tb * self.warps_per_tb;
        for i in 0..self.warps_per_tb {
            let w = base + i;
            if self.warps[w].valid && self.warps[w].at_barrier {
                self.warps[w].at_barrier = false;
                self.sched_warps[w].at_barrier = false;
                self.eligible_mask |= 1u64 << w;
                self.set_ibuf(w, now + self.cfg.fetch_lat, now);
            }
        }
        self.sched_tbs[tb].warps_at_barrier = 0;
        let view = SchedView {
            cycle: now,
            warps: &self.sched_warps,
            tbs: &self.sched_tbs,
            tbs_waiting_in_tb_scheduler: fast_phase,
        };
        policy.on_barrier_release(tb, &view);
    }

    fn retire_tb(
        &mut self,
        tb: usize,
        now: u64,
        policy: &mut dyn WarpScheduler,
        fast: bool,
        tracer: &mut dyn Tracer,
    ) {
        let program = self.program.as_ref().expect("kernel bound");
        let base = tb * self.warps_per_tb;
        // Warp-progress disparity within the retiring TB (§III.E): the gap
        // between its most and least advanced warps, in thread-instructions.
        let mut min_p = u64::MAX;
        let mut max_p = 0u64;
        for i in 0..self.warps_per_tb {
            let p = self.sched_warps[base + i].progress;
            min_p = min_p.min(p);
            max_p = max_p.max(p);
        }
        self.stats
            .disparity_hist
            .observe(max_p.saturating_sub(min_p));
        if tracer.wants(EventClass::Tb) {
            tracer.emit(
                now,
                &TraceEvent::TbComplete {
                    sm: self.id,
                    tb_slot: tb as u32,
                    global_index: self.sched_tbs[tb].global_index,
                },
            );
        }
        for i in 0..self.warps_per_tb {
            let w = base + i;
            self.warps[w].retire();
            self.sched_warps[w] = WarpState::default();
            let bit = 1u64 << w;
            self.cands_mask &= !bit;
            self.eligible_mask &= !bit;
            self.sb_wait_mask &= !bit;
            self.mem_ready_mask &= !bit;
            self.sfu_ready_mask &= !bit;
            self.longlat_mask &= !bit;
        }
        self.used_threads -= self.threads_per_tb;
        self.used_shared -= program.shared_bytes;
        self.used_regs -= program.regs as u32 * self.threads_per_tb;
        self.live_tbs -= 1;
        let view = SchedView {
            cycle: now,
            warps: &self.sched_warps,
            tbs: &self.sched_tbs,
            tbs_waiting_in_tb_scheduler: fast,
        };
        policy.on_tb_finish(tb, &view);
        self.sched_tbs[tb] = TbState::default();
    }

    /// Advance one cycle.
    ///
    /// Untraced convenience wrapper around [`Sm::tick_traced`].
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: u64,
        gmem: &mut GlobalMem,
        mem: &mut MemSubsystem,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
        report: &mut TickReport,
    ) {
        self.tick_traced(now, gmem, mem, policy, fast_phase, report, &mut NoopTracer)
    }

    /// [`Sm::tick`] publishing issue/stall, scoreboard, barrier, SIMT, TB
    /// and memory-lifecycle events to `tracer`.
    ///
    /// Composition of the three cycle phases; the GPU run loop calls them
    /// individually, each as one pass over the SM array:
    ///
    /// 1. [`Sm::mem_phase_traced`] — serial, in SM-index order: drains
    ///    completions from and pushes line accesses into the shared
    ///    [`MemSubsystem`].
    /// 2. [`Sm::issue_phase_traced`] — SM-local: scheduler ordering and
    ///    instruction issue against a read-only global-memory base; stores
    ///    and load registrations are deferred into per-SM buffers.
    /// 3. [`Sm::merge_phase`] — serial, in SM-index order: publishes the
    ///    deferred stores and load registrations.
    #[allow(clippy::too_many_arguments)]
    pub fn tick_traced(
        &mut self,
        now: u64,
        gmem: &mut GlobalMem,
        mem: &mut MemSubsystem,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
        report: &mut TickReport,
        tracer: &mut dyn Tracer,
    ) {
        self.mem_phase_traced(now, mem, tracer);
        self.issue_phase_traced(now, gmem, policy, fast_phase, report, tracer);
        self.merge_phase(now, gmem, mem);
    }

    /// Phase 1 of a cycle: interact with the shared memory subsystem.
    ///
    /// Drains this SM's completed accesses, retires due writebacks, and lets
    /// the LSU head push one line into the subsystem. Must run serially in
    /// SM-index order — `MemSubsystem` assigns its deterministic event
    /// sequence numbers here.
    pub fn mem_phase_traced(
        &mut self,
        now: u64,
        mem: &mut MemSubsystem,
        tracer: &mut dyn Tracer,
    ) {
        if now % QUEUE_SAMPLE_PERIOD == 0 {
            let d = self.lsu.len() as u64;
            self.lsu_hwm = self.lsu_hwm.max(d);
            self.lsu_depth.observe(d);
        }
        // 1. Memory completions.
        //    (buffer first: drain borrows mem mutably)
        self.completion_buf.clear();
        self.completion_buf.extend(mem.drain_completions(self.id));
        for k in 0..self.completion_buf.len() {
            let a = self.completion_buf[k];
            let (warp, ws) = self
                .access_map
                .remove(&a)
                .expect("completion for unknown access");
            self.release_write(warp, ws, now, tracer);
        }

        // 2. Due writebacks (popped in exact (time, seq) order; the slab
        //    slot is recycled immediately).
        while let Some((_, _, rec)) = self.wb_events.pop_due(now) {
            self.release_write(rec.warp, rec.ws, now, tracer);
        }

        // 3. LSU head progress.
        if let Some(head) = self.lsu.front_mut() {
            match head {
                LsuEntry::Global {
                    access,
                    lines,
                    next,
                    is_write,
                } => {
                    let line = lines[*next];
                    let outcome =
                        mem.access_line_traced(now, self.id, *access, line, *is_write, tracer);
                    if outcome == AccessOutcome::Accepted {
                        *next += 1;
                        if *next == lines.len() {
                            self.lsu.pop_front();
                        }
                    }
                }
                LsuEntry::Shared { warp, remaining, wb } => {
                    *remaining -= 1;
                    if *remaining == 0 {
                        let (warp, wb) = (*warp, *wb);
                        self.lsu.pop_front();
                        if !wb.is_empty() {
                            let t = now + self.cfg.shared_lat;
                            self.schedule_wb(t, WbRec { warp, ws: wb });
                        }
                    }
                }
            }
        }
    }

    /// Phase 2 of a cycle: scheduler ordering and instruction issue.
    ///
    /// Touches only this SM's state plus a *read-only* view of global memory:
    /// stores are staged in the SM's [`StoreLog`] and new load registrations
    /// in its intent buffer, both published later by [`Sm::merge_phase`].
    /// So no SM's issue phase can observe another SM's same-cycle effects.
    pub fn issue_phase_traced(
        &mut self,
        now: u64,
        gmem_base: &GlobalMem,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
        report: &mut TickReport,
        tracer: &mut dyn Tracer,
    ) {
        {
            let view = SchedView {
                cycle: now,
                warps: &self.sched_warps,
                tbs: &self.sched_tbs,
                tbs_waiting_in_tb_scheduler: fast_phase,
            };
            policy.begin_cycle(&view);
        }
        // One refcount bump per phase, not per unit: every unit issues from
        // the same bound program.
        let program = Arc::clone(self.program.as_ref().expect("kernel bound"));
        self.refresh_fetched(now);
        let mut log = std::mem::take(&mut self.store_log);
        for unit in 0..self.cfg.units {
            let mut stage = GmemStage::new(gmem_base, &mut log);
            self.issue_unit(
                unit, now, &program, &mut stage, policy, fast_phase, report, tracer,
            );
            self.stats.unit_cycles += 1;
        }
        self.store_log = log;
    }

    /// Phase 3 of a cycle: publish this SM's deferred cross-SM effects.
    ///
    /// Registers new loads with the memory subsystem and applies staged
    /// global-memory stores. Must run serially in SM-index order so the
    /// merged state is independent of how phase 2 was scheduled.
    pub fn merge_phase(&mut self, now: u64, gmem: &mut GlobalMem, mem: &mut MemSubsystem) {
        for (access, n_lines) in self.load_intents.drain(..) {
            mem.begin_load(now, self.id, access, n_lines);
        }
        self.store_log.apply_to(gmem);
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_unit<G: GmemPort>(
        &mut self,
        unit: u32,
        now: u64,
        program: &Program,
        gmem: &mut G,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
        report: &mut TickReport,
        tracer: &mut dyn Tracer,
    ) {
        // Hoisted trace gates: one virtual call each, once per unit-cycle.
        let trace_stall = tracer.wants(EventClass::Stall);
        let trace_issue = tracer.wants(EventClass::Issue);
        let trace_simt = tracer.wants(EventClass::Simt);
        let trace_sb = tracer.wants(EventClass::Scoreboard);

        let u = unit as usize;
        let unit_cands = self.cands_mask & self.unit_masks[u];
        let unit_blocked = self.longlat_mask & self.unit_masks[u];
        // Reuse last cycle's order verbatim when the policy reports clean
        // and every input `order()` may read is unchanged: the candidate
        // set always, the blocked set only for policies that declare they
        // read it (`order_reads_longlat`). Under those conditions the
        // `order_dirty` contract guarantees a recompute would be a no-op.
        let reuse = self.cached_valid[u]
            && self.cached_cands[u] == unit_cands
            && (!policy.order_reads_longlat() || self.cached_blocked[u] == unit_blocked)
            && !policy.order_dirty(unit);
        let sampling = now & 63 == 0;
        if self.cand_list_masks[u] != unit_cands {
            // Candidates: live, unfinished warps of this unit, ascending —
            // trailing_zeros iteration reproduces the old slot-order scan.
            let list = &mut self.cand_lists[u];
            list.clear();
            let mut m = unit_cands;
            while m != 0 {
                list.push(m.trailing_zeros() as usize);
                m &= m - 1;
            }
            self.cand_list_masks[u] = unit_cands;
        }
        if reuse {
            self.issue_orders_reused += 1;
        } else {
            self.issue_orders_recomputed += 1;
            let view = SchedView {
                cycle: now,
                warps: &self.sched_warps,
                tbs: &self.sched_tbs,
                tbs_waiting_in_tb_scheduler: fast_phase,
            };
            // Split borrows: the order cache is disjoint from the view.
            let mut order = std::mem::take(&mut self.order_bufs[u]);
            policy.order(unit, &view, &self.cand_lists[u], &mut order);
            self.order_bufs[u] = order;
            self.cached_cands[u] = unit_cands;
            self.cached_blocked[u] = unit_blocked;
            self.cached_valid[u] = true;
        }

        // Ready-warp occupancy sampling (paper §III: the size of the ready
        // pool is what lets a scheduler hide latency).
        if sampling {
            let mut ready = 0u64;
            for &w in &self.cand_lists[u] {
                let warp = &mut self.warps[w];
                if warp.at_barrier || warp.finished || now < warp.ibuf_ready_at {
                    continue;
                }
                warp.simt.reconverge();
                if warp.scoreboard.ready(program.fetch(warp.pc())) {
                    ready += 1;
                }
            }
            self.stats.ready_warp_sum += ready;
            self.stats.ready_samples += 1;
            self.stats.ready_hist.observe(ready);
        }

        // ---- Probe. ----
        // Unit-level structural hazards, once per unit-cycle: a memoized
        // ready warp of a busy pipe is refused exactly like the full check
        // would refuse it.
        let lsu_full = self.lsu.len() >= self.cfg.lsu_queue;
        let sfu_busy = now < self.sfu_free_at;
        let blocked = |sm: &Sm| {
            (if lsu_full { sm.mem_ready_mask } else { 0 })
                | (if sfu_busy { sm.sfu_ready_mask } else { 0 })
        };
        // Warps holding a valid instruction this cycle; of those, the ones
        // no memo has already ruled out.
        let valid = unit_cands & self.eligible_mask & self.fetched_mask;
        let issuable = valid & !self.sb_wait_mask & !blocked(self);
        let mut chosen: Option<(usize, Instr)> = None;
        if issuable == 0 {
            // Every order entry is decided by a mask: no walk.
            self.issue_mask_skips += self.order_bufs[u].len() as u64;
        } else {
            for i in 0..self.order_bufs[u].len() {
                let w = self.order_bufs[u][i];
                let bit = 1u64 << w;
                if issuable & bit == 0 {
                    // Barrier / finished / still fetching / memoized wait /
                    // memoized ready behind a busy pipe.
                    self.issue_mask_skips += 1;
                    continue;
                }
                let warp = &mut self.warps[w];
                if (self.mem_ready_mask | self.sfu_ready_mask) & bit != 0 {
                    // Memoized ready and its pipe is free: issue on sight.
                    // Reconvergence already ran when the memo was set.
                    chosen = Some((w, *program.fetch(warp.pc())));
                    break;
                }
                if trace_simt {
                    let depth_before = warp.simt.depth();
                    warp.simt.reconverge();
                    if warp.simt.depth() < depth_before {
                        let (sm, pc) = (self.id, warp.pc());
                        tracer.emit(now, &TraceEvent::SimtReconverge { sm, warp: w as u32, pc });
                    }
                } else {
                    warp.simt.reconverge();
                }
                let instr = *program.fetch(warp.pc());
                self.issue_probe_evals += 1;
                // Exit and barriers drain the warp's pipeline first
                // (in-order completion); pending writes hold them back.
                if !warp.scoreboard.ready(&instr)
                    || (matches!(instr, Instr::Exit | Instr::Bar { .. })
                        && warp.scoreboard.any_pending())
                {
                    self.sb_wait_mask |= bit;
                    continue;
                }
                // Structural hazards.
                match instr.pipe_class() {
                    PipeClass::Alu | PipeClass::Ctrl => {}
                    PipeClass::Sfu => {
                        self.sfu_ready_mask |= bit;
                        if sfu_busy {
                            continue;
                        }
                    }
                    PipeClass::Mem => {
                        self.mem_ready_mask |= bit;
                        if lsu_full {
                            continue;
                        }
                    }
                }
                chosen = Some((w, instr));
                break;
            }
        }
        // Stall classification from the (now updated) masks: Idle if no
        // warp held a valid instruction, Pipeline if one passed the
        // scoreboard but found its pipe busy, else Scoreboard.
        let reason = if valid == 0 {
            StallReason::Idle
        } else if valid & blocked(self) != 0 {
            StallReason::Pipeline
        } else {
            StallReason::Scoreboard
        };
        #[cfg(debug_assertions)]
        self.check_probe(u, now, program, chosen.map(|(w, _)| w), reason);

        let Some((w, instr)) = chosen else {
            match reason {
                StallReason::Idle => self.stats.idle += 1,
                StallReason::Pipeline => self.stats.pipeline += 1,
                StallReason::Scoreboard => self.stats.scoreboard += 1,
            }
            if trace_stall {
                tracer.emit(now, &TraceEvent::UnitStall { sm: self.id, unit, reason });
                // Per-warp attribution: re-classify each candidate on this
                // stalled cycle (second pass only when a tracer asked).
                for i in 0..self.order_bufs[u].len() {
                    let w = self.order_bufs[u][i];
                    let warp = &self.warps[w];
                    let reason = if warp.at_barrier
                        || warp.finished
                        || !warp.valid
                        || now < warp.ibuf_ready_at
                    {
                        StallReason::Idle
                    } else {
                        let instr = program.fetch(warp.pc());
                        if !warp.scoreboard.ready(instr)
                            || (matches!(instr, Instr::Exit | Instr::Bar { .. })
                                && warp.scoreboard.any_pending())
                        {
                            StallReason::Scoreboard
                        } else {
                            StallReason::Pipeline
                        }
                    };
                    tracer.emit(
                        now,
                        &TraceEvent::WarpStall { sm: self.id, warp: w as u32, reason },
                    );
                }
            }
            return;
        };

        // ---- Issue. ----
        let tb = self.warps[w].tb_slot;
        let ctx = LaunchCtx {
            params: &self.params,
            ntid: self.ntid,
            nctaid: self.nctaid,
        };
        let mut lines = std::mem::take(&mut self.lines_buf);
        let issue_pc = self.warps[w].pc();
        let depth_before = self.warps[w].simt.depth();
        let (effect, active) = {
            let (warp, shared) = {
                // Split borrow: warp slot and its TB's shared memory.
                let warp = &mut self.warps[w];
                let shared = &mut self.shared[tb];
                (warp, shared)
            };
            warp.execute(program, &ctx, gmem, shared, &mut lines)
        };
        if trace_issue {
            tracer.emit(
                now,
                &TraceEvent::WarpIssue {
                    sm: self.id,
                    unit,
                    warp: w as u32,
                    tb_slot: tb as u32,
                    pc: issue_pc,
                    active,
                },
            );
        }
        if trace_simt && self.warps[w].simt.depth() > depth_before {
            tracer.emit(
                now,
                &TraceEvent::SimtDiverge { sm: self.id, warp: w as u32, pc: issue_pc },
            );
        }
        self.stats.issued += 1;
        self.stats.instructions += 1;
        self.stats.thread_instructions += active as u64;
        // Progress accounting (paper §III.E: += active threads).
        self.sched_warps[w].progress += active as u64;
        self.sched_tbs[tb].progress += active as u64;
        self.set_ibuf(w, now + self.cfg.fetch_lat, now);
        // The issue consumed the memoized verdict: the warp's next
        // instruction is probed afresh.
        self.mem_ready_mask &= !(1u64 << w);
        self.sfu_ready_mask &= !(1u64 << w);

        let ws = Scoreboard::write_set(&instr);
        let mut sb_set = false; // emits one ScoreboardSet below when true
        let mut sb_longlat = false;
        match effect {
            ExecEffect::Alu(class) => {
                if !ws.is_empty() {
                    self.warps[w].scoreboard.reserve(ws, false);
                    sb_set = true;
                    self.schedule_wb(now + self.cfg.alu_lat(class), WbRec { warp: w, ws });
                }
            }
            ExecEffect::Sfu => {
                self.sfu_free_at = now + self.cfg.sfu_ii;
                self.warps[w].scoreboard.reserve(ws, false);
                sb_set = true;
                self.schedule_wb(now + self.cfg.sfu_lat, WbRec { warp: w, ws });
            }
            ExecEffect::GlobalLoad => {
                let access = self.next_access;
                self.next_access += 1;
                self.warps[w].scoreboard.reserve(ws, true);
                sb_set = true;
                sb_longlat = true;
                self.sched_warps[w].blocked_on_longlat = true;
                self.longlat_mask |= 1u64 << w;
                // Registration with the memory subsystem is deferred to the
                // merge phase; `begin_load` emits no timed events, so this is
                // timing-neutral.
                self.load_intents.push((access, lines.len() as u32));
                if tracer.wants(EventClass::Mem) {
                    tracer.emit(
                        now,
                        &TraceEvent::Coalesce {
                            sm: self.id,
                            warp: w as u32,
                            req: req_id(self.id, access),
                            lines: lines.len() as u32,
                            store: false,
                        },
                    );
                }
                self.access_map.insert(access, (w, ws));
                self.lsu.push_back(LsuEntry::Global {
                    access,
                    lines: lines.clone(),
                    next: 0,
                    is_write: false,
                });
            }
            ExecEffect::GlobalStore => {
                if tracer.wants(EventClass::Mem) {
                    tracer.emit(
                        now,
                        &TraceEvent::Coalesce {
                            sm: self.id,
                            warp: w as u32,
                            req: u64::MAX, // stores are fire-and-forget: no id
                            lines: lines.len() as u32,
                            store: true,
                        },
                    );
                }
                self.lsu.push_back(LsuEntry::Global {
                    access: u64::MAX,
                    lines: lines.clone(),
                    next: 0,
                    is_write: true,
                });
            }
            ExecEffect::SharedLoad { occupancy } | ExecEffect::SharedAtomic { occupancy } => {
                self.warps[w].scoreboard.reserve(ws, false);
                sb_set = true;
                self.lsu.push_back(LsuEntry::Shared {
                    warp: w,
                    remaining: occupancy,
                    wb: ws,
                });
            }
            ExecEffect::SharedStore { occupancy } => {
                self.lsu.push_back(LsuEntry::Shared {
                    warp: w,
                    remaining: occupancy,
                    wb: WriteSet::EMPTY,
                });
            }
            ExecEffect::Barrier => {
                self.sched_warps[w].at_barrier = true;
                self.eligible_mask &= !(1u64 << w); // execute() parked it
                self.sched_tbs[tb].warps_at_barrier += 1;
                if tracer.wants(EventClass::Barrier) {
                    tracer.emit(
                        now,
                        &TraceEvent::BarrierArrive {
                            sm: self.id,
                            tb_slot: tb as u32,
                            warp: w as u32,
                        },
                    );
                }
                let view = SchedView {
                    cycle: now,
                    warps: &self.sched_warps,
                    tbs: &self.sched_tbs,
                    tbs_waiting_in_tb_scheduler: fast_phase,
                };
                policy.on_barrier_arrive(w, tb, &view);
                self.maybe_release_barrier(tb, now, policy, fast_phase, tracer);
            }
            ExecEffect::Exit => {
                self.sched_warps[w].finished = true;
                self.cands_mask &= !(1u64 << w);
                self.eligible_mask &= !(1u64 << w);
                self.sched_tbs[tb].warps_finished += 1;
                if self.first_warp_finish[tb].is_none() {
                    self.first_warp_finish[tb] = Some(now);
                }
                let view = SchedView {
                    cycle: now,
                    warps: &self.sched_warps,
                    tbs: &self.sched_tbs,
                    tbs_waiting_in_tb_scheduler: fast_phase,
                };
                policy.on_warp_finish(w, tb, &view);
                if self.sched_tbs[tb].warps_finished == self.sched_tbs[tb].num_warps {
                    report.finished_tbs.push(self.sched_tbs[tb].global_index);
                    let first = self.first_warp_finish[tb].expect("set at first exit");
                    self.stats.wld_cycles += now - first;
                    self.stats.tbs_completed += 1;
                    self.retire_tb(tb, now, policy, fast_phase, tracer);
                } else {
                    // A finishing warp can be the last arrival a barrier was
                    // waiting on.
                    self.maybe_release_barrier(tb, now, policy, fast_phase, tracer);
                }
            }
            ExecEffect::Branch | ExecEffect::Nop => {}
        }
        if sb_set && trace_sb {
            tracer.emit(
                now,
                &TraceEvent::ScoreboardSet {
                    sm: self.id,
                    warp: w as u32,
                    longlat: sb_longlat,
                },
            );
        }
        self.lines_buf = lines;
        policy.on_issue(
            unit,
            w,
            IssueInfo {
                active_threads: active,
                is_global_load: matches!(effect, ExecEffect::GlobalLoad),
            },
            &SchedView {
                cycle: now,
                warps: &self.sched_warps,
                tbs: &self.sched_tbs,
                tbs_waiting_in_tb_scheduler: fast_phase,
            },
        );
    }

    /// Debug cross-check of the mask probe: a reference walk over unit
    /// `u`'s full order that reads only architectural warp and pipe state
    /// and changes nothing must pick the same warp, or on a stall see the
    /// same reason. Runs on every unit-cycle of a debug build, so every
    /// debug test run checks the masks.
    #[cfg(debug_assertions)]
    fn check_probe(
        &self,
        u: usize,
        now: u64,
        program: &Program,
        chosen: Option<usize>,
        reason: StallReason,
    ) {
        let lsu_full = self.lsu.len() >= self.cfg.lsu_queue;
        let sfu_busy = now < self.sfu_free_at;
        let (mut saw_valid, mut saw_ready, mut pick) = (false, false, None);
        for &w in &self.order_bufs[u] {
            let warp = &self.warps[w];
            if !warp.valid || warp.at_barrier || warp.finished || now < warp.ibuf_ready_at {
                continue;
            }
            saw_valid = true;
            let instr = program.fetch(warp.simt.reconverged_pc());
            if !warp.scoreboard.ready(instr)
                || (matches!(instr, Instr::Exit | Instr::Bar { .. })
                    && warp.scoreboard.any_pending())
            {
                continue;
            }
            saw_ready = true;
            let busy = match instr.pipe_class() {
                PipeClass::Alu | PipeClass::Ctrl => false,
                PipeClass::Sfu => sfu_busy,
                PipeClass::Mem => lsu_full,
            };
            if !busy {
                pick = Some(w);
                break;
            }
        }
        assert_eq!(pick, chosen, "SM {} unit {u} cycle {now}: mask probe picked another warp", self.id);
        if pick.is_none() {
            let want = if !saw_valid {
                StallReason::Idle
            } else if saw_ready {
                StallReason::Pipeline
            } else {
                StallReason::Scoreboard
            };
            assert_eq!(reason, want, "SM {} unit {u} cycle {now}: mask probe stall reason", self.id);
        }
    }

    /// Serialize all live microarchitectural state into `w`.
    ///
    /// Must be called at a cycle boundary (after [`Sm::merge_phase`]), where
    /// the deferred store log and load-intent buffer are empty; the kernel
    /// binding itself (program, params, launch geometry) is *not* encoded —
    /// [`Sm::restore_snapshot`] expects [`Sm::begin_kernel`] to have rebound
    /// the same kernel first, and cross-checks the geometry.
    pub fn save_snapshot(&self, w: &mut Writer) {
        debug_assert!(
            self.load_intents.is_empty() && self.store_log.is_empty(),
            "snapshot mid-cycle: deferred effects not yet merged"
        );
        w.put_u64(self.warps_per_tb as u64);
        w.put_u32(self.threads_per_tb);
        self.warps.save(w);
        self.shared.save(w);
        self.sched_warps.save(w);
        self.sched_tbs.save(w);
        w.put_u32(self.used_threads);
        w.put_u32(self.used_shared);
        w.put_u32(self.used_regs);
        w.put_u32(self.live_tbs);
        // Writeback events, canonically ordered by (time, seq): slab slots
        // are an allocation artifact, so they are re-packed on restore
        // while the (time, seq) keys — which fully determine pop order —
        // round-trip exactly. Same byte layout as the pre-calendar heap.
        self.wb_events.save_snapshot(w);
        self.lsu.save(w);
        w.put_u64(self.sfu_free_at);
        let mut accesses: Vec<(u64, (usize, WriteSet))> = self
            .access_map
            .iter()
            .map(|(&a, &(warp, ws))| (a, (warp, ws)))
            .collect();
        accesses.sort_unstable_by_key(|&(a, _)| a);
        w.put_u64(accesses.len() as u64);
        for (a, (warp, ws)) in accesses {
            w.put_u64(a);
            w.put_usize(warp);
            ws.save(w);
        }
        w.put_u64(self.next_access);
        self.first_warp_finish.save(w);
        self.stats.save(w);
    }

    /// Restore state written by [`Sm::save_snapshot`].
    ///
    /// The SM must already have the same kernel bound via
    /// [`Sm::begin_kernel`]; geometry mismatches (different kernel or SM
    /// configuration) are rejected as [`CodecError::BadValue`].
    pub fn restore_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let warps_per_tb = r.get_usize()?;
        let threads_per_tb = r.get_u32()?;
        if warps_per_tb != self.warps_per_tb || threads_per_tb != self.threads_per_tb {
            return Err(CodecError::BadValue("snapshot kernel geometry mismatch"));
        }
        let warps: Vec<Warp> = Snapshot::load(r)?;
        if warps.len() != self.cfg.max_warps {
            return Err(CodecError::BadValue("snapshot warp slot count"));
        }
        let shared: Vec<SharedMem> = Snapshot::load(r)?;
        if shared.len() != self.cfg.max_tbs {
            return Err(CodecError::BadValue("snapshot TB slot count"));
        }
        self.warps = warps;
        self.shared = shared;
        self.sched_warps = Snapshot::load(r)?;
        self.sched_tbs = Snapshot::load(r)?;
        if self.sched_warps.len() != self.cfg.max_warps
            || self.sched_tbs.len() != self.cfg.max_tbs
        {
            return Err(CodecError::BadValue("snapshot scheduler view size"));
        }
        self.used_threads = r.get_u32()?;
        self.used_shared = r.get_u32()?;
        self.used_regs = r.get_u32()?;
        self.live_tbs = r.get_u32()?;
        self.wb_events.restore_snapshot(r)?;
        self.lsu = Snapshot::load(r)?;
        self.sfu_free_at = r.get_u64()?;
        self.access_map.clear();
        let n_acc = r.get_usize()?;
        for _ in 0..n_acc {
            let a = r.get_u64()?;
            let warp = r.get_usize()?;
            let ws = WriteSet::load(r)?;
            self.access_map.insert(a, (warp, ws));
        }
        self.next_access = r.get_u64()?;
        self.first_warp_finish = Snapshot::load(r)?;
        if self.first_warp_finish.len() != self.cfg.max_tbs {
            return Err(CodecError::BadValue("snapshot WLD tracker size"));
        }
        self.stats = SmStats::load(r)?;
        self.load_intents.clear();
        self.store_log.clear();
        // Incremental issue-path state is derived, not serialized: rebuild
        // the masks from the restored warps and drop the order caches (the
        // scheduler policies invalidate or restore their dirty bits
        // symmetrically, so the first post-restore cycle recomputes the
        // same orders the uninterrupted run held).
        self.rebuild_issue_masks();
        Ok(())
    }
}

impl Snapshot for SmStats {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.issued);
        w.put_u64(self.idle);
        w.put_u64(self.scoreboard);
        w.put_u64(self.pipeline);
        w.put_u64(self.unit_cycles);
        w.put_u64(self.instructions);
        w.put_u64(self.thread_instructions);
        w.put_u64(self.wld_cycles);
        w.put_u64(self.tbs_completed);
        w.put_u64(self.ready_warp_sum);
        w.put_u64(self.ready_samples);
        pro_mem::save_hist(&self.ready_hist, w);
        pro_mem::save_hist(&self.disparity_hist, w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SmStats {
            issued: r.get_u64()?,
            idle: r.get_u64()?,
            scoreboard: r.get_u64()?,
            pipeline: r.get_u64()?,
            unit_cycles: r.get_u64()?,
            instructions: r.get_u64()?,
            thread_instructions: r.get_u64()?,
            wld_cycles: r.get_u64()?,
            tbs_completed: r.get_u64()?,
            ready_warp_sum: r.get_u64()?,
            ready_samples: r.get_u64()?,
            ready_hist: pro_mem::load_hist(r)?,
            disparity_hist: pro_mem::load_hist(r)?,
        })
    }
}

impl Snapshot for WbRec {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.warp);
        self.ws.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WbRec {
            warp: r.get_usize()?,
            ws: WriteSet::load(r)?,
        })
    }
}

impl Snapshot for LsuEntry {
    fn save(&self, w: &mut Writer) {
        match self {
            LsuEntry::Global { access, lines, next, is_write } => {
                w.put_u8(0);
                w.put_u64(*access);
                lines.save(w);
                w.put_usize(*next);
                w.put_bool(*is_write);
            }
            LsuEntry::Shared { warp, remaining, wb } => {
                w.put_u8(1);
                w.put_usize(*warp);
                w.put_u32(*remaining);
                wb.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(LsuEntry::Global {
                access: r.get_u64()?,
                lines: Snapshot::load(r)?,
                next: r.get_usize()?,
                is_write: r.get_bool()?,
            }),
            1 => Ok(LsuEntry::Shared {
                warp: r.get_usize()?,
                remaining: r.get_u32()?,
                wb: WriteSet::load(r)?,
            }),
            _ => Err(CodecError::BadValue("LSU entry tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pro_core::{Lrr, SchedulerKind};
    use pro_isa::{CmpOp, LaunchConfig, ProgramBuilder, Special, Src, Ty};
    use pro_mem::MemConfig;

    struct Rig {
        sm: Sm,
        gmem: GlobalMem,
        mem: MemSubsystem,
        policy: Box<dyn WarpScheduler>,
        now: u64,
    }

    impl Rig {
        fn new(kernel: &Kernel, kind: SchedulerKind) -> Rig {
            let cfg = SmConfig::gtx480();
            let mut sm = Sm::new(0, cfg);
            sm.begin_kernel(kernel);
            Rig {
                policy: kind.build(cfg.max_warps, cfg.max_tbs, cfg.units),
                sm,
                gmem: GlobalMem::new(1 << 22),
                mem: MemSubsystem::new(MemConfig::gtx480(), 1),
                now: 0,
            }
        }

        fn launch(&mut self, global_index: u32) -> usize {
            self.sm
                .launch_tb(global_index, self.now, self.policy.as_mut(), true)
        }

        /// Advance one cycle, appending the TBs it finished to `finished`.
        fn step(&mut self, finished: &mut Vec<u32>) {
            let mut rep = TickReport::default();
            self.mem.tick(self.now);
            self.sm.tick(
                self.now,
                &mut self.gmem,
                &mut self.mem,
                self.policy.as_mut(),
                true,
                &mut rep,
            );
            finished.extend(rep.finished_tbs);
            self.now += 1;
        }

        /// Tick until the SM is quiescent; returns (cycles, finished TBs).
        fn run(&mut self, limit: u64) -> (u64, Vec<u32>) {
            let mut finished = Vec::new();
            let start = self.now;
            while self.sm.busy() {
                self.step(&mut finished);
                assert!(self.now - start < limit, "SM did not quiesce in {limit} cycles");
            }
            (self.now - start, finished)
        }
    }

    fn simple_kernel(blocks: u32, threads: u32) -> Kernel {
        let mut b = ProgramBuilder::new("simple");
        let r = b.reg();
        let a = b.reg();
        b.global_tid(r);
        b.buf_addr(a, 0, r, 0);
        b.st_global(r, a, 0);
        b.exit();
        let p = b.build().unwrap();
        Kernel::new(p, LaunchConfig::linear(blocks, threads), vec![0])
    }

    #[test]
    fn single_tb_runs_to_completion() {
        let k = simple_kernel(1, 64);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        assert_eq!(rig.sm.live_tbs(), 1);
        let (_cycles, finished) = rig.run(100_000);
        assert_eq!(finished, vec![0]);
        assert_eq!(rig.sm.live_tbs(), 0);
        // Functional result: gtid written at words 0..64.
        for i in 0..64u64 {
            assert_eq!(rig.gmem.read(i * 4), i as u32);
        }
    }

    #[test]
    fn resource_limits_gate_acceptance() {
        // 256 threads/TB → thread limit allows 6 (1536/256), TB slots 8.
        let k = simple_kernel(16, 256);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut launched = 0;
        while rig.sm.can_accept_tb() {
            rig.launch(launched);
            launched += 1;
        }
        assert_eq!(launched, 6);
        assert_eq!(rig.sm.max_resident_tbs(), 6);
    }

    #[test]
    fn warp_slot_limit_gates_acceptance() {
        // 8 warps/TB → 48/8 = 6 TBs by warp slots even though threads allow 6 too;
        // use 32 threads/warp * 4 warps = 128 threads → warp limit 48/4=12, TB limit 8.
        let k = simple_kernel(16, 128);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut n = 0;
        while rig.sm.can_accept_tb() {
            rig.launch(n);
            n += 1;
        }
        assert_eq!(n, 8, "capped by the 8 TB slots");
    }

    #[test]
    fn shared_memory_gates_acceptance() {
        let mut b = ProgramBuilder::new("shmem");
        let _ = b.shared_alloc(20 * 1024);
        b.exit();
        let p = b.build().unwrap();
        let k = Kernel::new(p, LaunchConfig::linear(8, 32), vec![]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut n = 0;
        while rig.sm.can_accept_tb() {
            rig.launch(n);
            n += 1;
        }
        assert_eq!(n, 2, "48KB / 20KB = 2 resident TBs");
    }

    #[test]
    fn barrier_synchronizes_warps_of_a_tb() {
        // Each warp writes flag[warpid], barriers, then reads the *other*
        // warps' flags; correctness requires real barrier semantics.
        let mut b = ProgramBuilder::new("bar");
        let sh = b.shared_alloc(64);
        let wid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        let sum = b.reg();
        let out = b.reg();
        let g = b.reg();
        // shared[warpid] = warpid + 1 (one lane per warp does the store;
        // all lanes compute the same address → broadcast store ok).
        b.mov(wid, Src::Special(Special::WarpId));
        b.imad(addr, wid, Src::Imm(4), Src::Imm(sh as i64 as u32));
        b.iadd(v, wid, Src::Imm(1));
        b.st_shared(v, addr, 0);
        b.bar();
        // sum = shared[0] + shared[1]
        b.mov(addr, Src::Imm(sh));
        b.ld_shared(sum, addr, 0);
        b.ld_shared(v, addr, 4);
        b.iadd(sum, sum, v);
        b.global_tid(g);
        b.buf_addr(out, 0, g, 0);
        b.st_global(sum, out, 0);
        b.exit();
        let p = b.build().unwrap();
        let k = Kernel::new(p, LaunchConfig::linear(1, 64), vec![0]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        rig.run(100_000);
        // Every thread sees 1 + 2 = 3.
        for i in 0..64u64 {
            assert_eq!(rig.gmem.read(i * 4), 3, "thread {i}");
        }
    }

    #[test]
    fn stall_classification_identifies_scoreboard() {
        // One warp, dependent chain of f32 ops: issues are separated by the
        // float latency → scoreboard stalls dominate.
        let mut b = ProgramBuilder::new("chain");
        let r = b.reg();
        b.mov(r, Src::imm_f32(1.0));
        for _ in 0..50 {
            b.fmul(r, r, Src::imm_f32(1.0001));
        }
        b.exit();
        let p = b.build().unwrap();
        let k = Kernel::new(p, LaunchConfig::linear(1, 32), vec![]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        rig.run(100_000);
        let s = rig.sm.stats;
        assert!(
            s.scoreboard > s.pipeline,
            "dependent chain should stall on operands: {s:?}"
        );
        assert!(s.scoreboard > 50, "{s:?}");
    }

    #[test]
    fn stall_classification_identifies_idle_on_empty_sm() {
        let k = simple_kernel(1, 32);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        // No TB launched: tick a few cycles manually.
        for _ in 0..10 {
            let mut rep = TickReport::default();
            rig.mem.tick(rig.now);
            rig.sm.tick(
                rig.now,
                &mut rig.gmem,
                &mut rig.mem,
                rig.policy.as_mut(),
                true,
                &mut rep,
            );
            rig.now += 1;
        }
        assert_eq!(rig.sm.stats.idle, 20, "2 units x 10 cycles all idle");
    }

    #[test]
    fn global_load_roundtrip_through_memory_system() {
        // out[i] = in[i] + 1
        let mut b = ProgramBuilder::new("copy");
        let g = b.reg();
        let a = b.reg();
        let v = b.reg();
        let o = b.reg();
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.ld_global(v, a, 0);
        b.iadd(v, v, Src::Imm(1));
        b.buf_addr(o, 1, g, 0);
        b.st_global(v, o, 0);
        b.exit();
        let p = b.build().unwrap();
        let mut gmem = GlobalMem::new(1 << 20);
        let input: Vec<u32> = (0..128).map(|i| i * 10).collect();
        let in_base = gmem.alloc_init(&input);
        let out_base = gmem.alloc(128 * 4);
        let k = Kernel::new(
            p,
            LaunchConfig::linear(1, 128),
            vec![in_base as u32, out_base as u32],
        );
        let mut rig = Rig::new(&k, SchedulerKind::Gto);
        rig.gmem = gmem;
        rig.launch(0);
        let (cycles, _) = rig.run(100_000);
        for i in 0..128u64 {
            assert_eq!(rig.gmem.read(out_base + i * 4), i as u32 * 10 + 1);
        }
        // The load must have paid real memory latency.
        assert!(cycles > 150, "cycles = {cycles}");
        assert!(rig.mem.stats().loads >= 4, "4 warps x 1 load each");
    }

    #[test]
    fn divergent_kernel_executes_both_paths() {
        let mut b = ProgramBuilder::new("div");
        let g = b.reg();
        let a = b.reg();
        let v = b.reg();
        let p0 = b.pred();
        b.global_tid(g);
        b.and(v, g, Src::Imm(1));
        b.setp(CmpOp::Eq, Ty::S32, p0, v, Src::Imm(0));
        b.if_else(
            p0,
            |b| {
                b.mov(v, Src::Imm(100));
            },
            |b| {
                b.mov(v, Src::Imm(200));
            },
        );
        b.buf_addr(a, 0, g, 0);
        b.st_global(v, a, 0);
        b.exit();
        let p = b.build().unwrap();
        let k = Kernel::new(p, LaunchConfig::linear(1, 64), vec![0]);
        let mut rig = Rig::new(&k, SchedulerKind::Tl);
        rig.launch(0);
        rig.run(100_000);
        for i in 0..64u64 {
            let expect = if i % 2 == 0 { 100 } else { 200 };
            assert_eq!(rig.gmem.read(i * 4), expect, "thread {i}");
        }
    }

    #[test]
    fn progress_counters_track_active_threads() {
        let k = simple_kernel(1, 64);
        let mut rig = Rig::new(&k, SchedulerKind::Pro);
        rig.launch(0);
        rig.run(100_000);
        let s = rig.sm.stats;
        // 2 warps x 5 instructions (global_tid, imad, st, exit = 4... plus
        // buf_addr is 1 imad) — just check consistency.
        assert_eq!(s.thread_instructions, s.instructions * 32);
    }

    #[test]
    fn two_units_split_warps_by_parity() {
        let k = simple_kernel(1, 256); // 8 warps
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        // Run one cycle past fetch latency; both units should issue.
        rig.now = 2;
        let mut rep = TickReport::default();
        rig.mem.tick(rig.now);
        rig.sm.tick(
            rig.now,
            &mut rig.gmem,
            &mut rig.mem,
            rig.policy.as_mut(),
            true,
            &mut rep,
        );
        assert_eq!(rig.sm.stats.issued, 2, "both units issue in one cycle");
    }

    #[test]
    fn lrr_makes_equal_progress_across_warps() {
        let k = simple_kernel(1, 256);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        // Run a while, then inspect warp progress spread.
        for _ in 0..20 {
            let mut rep = TickReport::default();
            rig.mem.tick(rig.now);
            rig.sm.tick(
                rig.now,
                &mut rig.gmem,
                &mut rig.mem,
                rig.policy.as_mut(),
                true,
                &mut rep,
            );
            rig.now += 1;
        }
        let progresses: Vec<u64> = rig
            .sm
            .sched_view(rig.now, true)
            .warps
            .iter()
            .filter(|w| w.active)
            .map(|w| w.progress)
            .collect();
        let max = progresses.iter().max().unwrap();
        let min = progresses.iter().min().unwrap();
        assert!(max - min <= 32, "LRR keeps warps even: {progresses:?}");
    }

    #[test]
    fn fuzz_scheduler_preserves_functional_results() {
        let k = simple_kernel(2, 96);
        for seed in [1u64, 99, 12345] {
            let mut rig = Rig::new(&k, SchedulerKind::Lrr);
            rig.policy = Box::new(pro_core::Fuzz::new(seed));
            rig.launch(0);
            rig.launch(1);
            rig.run(200_000);
            for i in 0..192u64 {
                assert_eq!(rig.gmem.read(i * 4), i as u32, "seed {seed} thread {i}");
            }
        }
    }

    /// A GTO rig with a one-entry LSU queue running a kernel whose warps
    /// keep reaching ready SFU and global-memory instructions while that
    /// queue is full or the SFU busy: the structural memo's workload.
    /// `launch` puts its 4 TBs on the SM.
    fn memo_rig(launch: bool) -> Rig {
        let mut gmem = GlobalMem::new(1 << 22);
        let buf = gmem.alloc(4 * 512);
        let mut b = ProgramBuilder::new("sfu_lsu_mix");
        let (g, a, v, s, t, i) = (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.mov(s, Src::imm_f32(0.5));
        b.for_loop(i, Src::Imm(0), Src::Imm(6), p, |b, _| {
            b.sfu(pro_isa::SfuOp::Sin, t, s);
            b.ld_global(v, a, 0);
            b.sfu(pro_isa::SfuOp::Cos, s, s);
            b.st_global(g, a, 0);
        });
        b.exit();
        let k = Kernel::new(
            b.build().unwrap(),
            LaunchConfig::linear(4, 128),
            vec![buf as u32],
        );
        let mut rig = Rig::new(&k, SchedulerKind::Gto);
        rig.sm = Sm::new(
            0,
            SmConfig {
                lsu_queue: 1,
                ..SmConfig::gtx480()
            },
        );
        rig.sm.begin_kernel(&k);
        rig.gmem = gmem;
        if launch {
            for t in 0..4 {
                rig.launch(t);
            }
        }
        rig
    }

    /// Memoized ready warps of a full pipe this cycle: what the probe
    /// dismisses with one bit test instead of a scoreboard evaluation.
    fn memo_skippable(sm: &Sm, now: u64) -> (u32, u32) {
        let mem = if sm.lsu.len() >= sm.cfg.lsu_queue {
            sm.mem_ready_mask
        } else {
            0
        };
        let sfu = if now < sm.sfu_free_at {
            sm.sfu_ready_mask
        } else {
            0
        };
        (
            (mem & sm.cands_mask).count_ones(),
            (sfu & sm.cands_mask).count_ones(),
        )
    }

    /// The structural memo must really dismiss warps — unit-cycles find
    /// memoized ready warps behind a full LSU queue and a busy SFU — and
    /// must leave the simulated counters exactly where the walk that
    /// re-evaluated every warp put them (values recorded from it).
    #[test]
    fn structural_memo_skips_warps_and_keeps_stats() {
        let mut rig = memo_rig(true);
        let (mut mem_skips, mut sfu_skips) = (0, 0);
        let mut finished = Vec::new();
        while rig.sm.busy() {
            let (m, f) = memo_skippable(&rig.sm, rig.now);
            mem_skips += m;
            sfu_skips += f;
            rig.step(&mut finished);
            assert!(rig.now < 1_000_000, "SM did not quiesce");
        }
        assert_eq!(finished.len(), 4);
        assert!(
            mem_skips > 0 && sfu_skips > 0,
            "memo never skipped: {mem_skips} {sfu_skips}"
        );
        let s = &rig.sm.stats;
        assert_eq!(rig.now, 1726);
        assert_eq!(
            (s.issued, s.idle, s.scoreboard, s.pipeline, s.unit_cycles),
            (784, 681, 451, 1536, 3452)
        );
        assert_eq!(
            (
                s.instructions,
                s.thread_instructions,
                s.wld_cycles,
                s.tbs_completed
            ),
            (784, 25088, 3198, 4)
        );
        assert_eq!((s.ready_warp_sum, s.ready_samples), (187, 54));
    }

    /// Pausing while the LSU queue is full behind memoized ready warps and
    /// resuming into a fresh SM (memo and fetched masks restart empty in
    /// `rebuild_issue_masks`) is bit-identical to the uninterrupted run.
    #[test]
    fn restore_with_live_memo_bits_is_bit_identical() {
        let mut straight = memo_rig(true);
        let (_, straight_done) = straight.run(1_000_000);

        let mut rig = memo_rig(true);
        let mut finished = Vec::new();
        while memo_skippable(&rig.sm, rig.now).0 == 0 || rig.now < 100 {
            rig.step(&mut finished);
            assert!(rig.sm.busy(), "never paused with memo bits live");
        }
        let (mut ws, mut wm, mut wp) = (Writer::new(), Writer::new(), Writer::new());
        rig.sm.save_snapshot(&mut ws);
        rig.mem.save_snapshot(&mut wm);
        rig.policy.save_state(&mut wp);

        let mut resumed = memo_rig(false);
        resumed
            .sm
            .restore_snapshot(&mut Reader::new(&ws.into_bytes()))
            .unwrap();
        resumed
            .mem
            .restore_snapshot(&mut Reader::new(&wm.into_bytes()))
            .unwrap();
        resumed
            .policy
            .load_state(&mut Reader::new(&wp.into_bytes()))
            .unwrap();
        resumed.gmem = rig.gmem.clone();
        resumed.now = rig.now;
        assert_eq!(
            (
                resumed.sm.mem_ready_mask,
                resumed.sm.sfu_ready_mask,
                resumed.sm.fetched_mask
            ),
            (0, 0, 0),
            "derived masks restart empty"
        );
        let (_, rest) = resumed.run(1_000_000);
        finished.extend(rest);

        assert_eq!(finished, straight_done);
        assert_eq!(resumed.now, straight.now);
        assert_eq!(resumed.sm.stats, straight.sm.stats);
        assert_eq!(resumed.mem.stats(), straight.mem.stats());
        assert_eq!(
            resumed.gmem.read_slice(0, 1 << 12),
            straight.gmem.read_slice(0, 1 << 12)
        );
    }

    #[test]
    fn sfu_initiation_interval_throttles() {
        // Many warps all issuing SFU ops: pipeline stalls should appear.
        let mut b = ProgramBuilder::new("sfu");
        let r = b.reg();
        b.mov(r, Src::imm_f32(0.5));
        for _ in 0..8 {
            b.sfu(pro_isa::SfuOp::Sin, r, r);
        }
        b.exit();
        let p = b.build().unwrap();
        let k = Kernel::new(p, LaunchConfig::linear(1, 512), vec![]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        rig.run(200_000);
        assert!(
            rig.sm.stats.pipeline > 100,
            "SFU II must produce pipeline stalls: {:?}",
            rig.sm.stats
        );
    }

    #[test]
    fn traced_run_mirrors_stats_exactly() {
        use pro_trace::{count_unit_stalls, Event as Ev, RingTracer};
        let k = simple_kernel(2, 96);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut tracer = RingTracer::new(1 << 20);
        rig.sm
            .launch_tb_traced(0, rig.now, rig.policy.as_mut(), true, &mut tracer);
        rig.sm
            .launch_tb_traced(1, rig.now, rig.policy.as_mut(), true, &mut tracer);
        while rig.sm.busy() {
            let mut rep = TickReport::default();
            rig.mem.tick_traced(rig.now, &mut tracer);
            rig.sm.tick_traced(
                rig.now,
                &mut rig.gmem,
                &mut rig.mem,
                rig.policy.as_mut(),
                true,
                &mut rep,
                &mut tracer,
            );
            rig.now += 1;
            assert!(rig.now < 100_000);
        }
        let s = rig.sm.stats;
        // Every UnitStall / WarpIssue event corresponds 1:1 with a counter
        // increment — this is what lets trace-report reproduce the paper's
        // stall fractions exactly.
        let (idle, sb, pipe) = count_unit_stalls(tracer.records());
        assert_eq!(idle, s.idle);
        assert_eq!(sb, s.scoreboard);
        assert_eq!(pipe, s.pipeline);
        let issues = tracer
            .records()
            .filter(|r| matches!(r.event, Ev::WarpIssue { .. }))
            .count() as u64;
        assert_eq!(issues, s.issued);
        let launches = tracer
            .records()
            .filter(|r| matches!(r.event, Ev::TbLaunch { .. }))
            .count();
        let completes = tracer
            .records()
            .filter(|r| matches!(r.event, Ev::TbComplete { .. }))
            .count() as u64;
        assert_eq!(launches, 2);
        assert_eq!(completes, s.tbs_completed);
        assert_eq!(s.disparity_hist.total(), s.tbs_completed);
        // Scoreboard sets and clears must balance on a drained SM.
        let sets = tracer
            .records()
            .filter(|r| matches!(r.event, Ev::ScoreboardSet { .. }))
            .count();
        let clears = tracer
            .records()
            .filter(|r| matches!(r.event, Ev::ScoreboardClear { .. }))
            .count();
        assert_eq!(sets, clears, "every reserve is eventually released");
        assert!(sets > 0);
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_changes_nothing() {
        use pro_trace::PanicTracer;
        let k = simple_kernel(1, 64);
        // Traced run with a PanicTracer: proves every emission site checks
        // `wants` first (PanicTracer aborts on any delivery).
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut panic_tracer = PanicTracer;
        rig.sm
            .launch_tb_traced(0, 0, rig.policy.as_mut(), true, &mut panic_tracer);
        while rig.sm.busy() {
            let mut rep = TickReport::default();
            rig.mem.tick_traced(rig.now, &mut panic_tracer);
            rig.sm.tick_traced(
                rig.now,
                &mut rig.gmem,
                &mut rig.mem,
                rig.policy.as_mut(),
                true,
                &mut rep,
                &mut panic_tracer,
            );
            rig.now += 1;
            assert!(rig.now < 100_000);
        }
        let traced_stats = rig.sm.stats;
        // Untraced run: identical timing and counters.
        let mut rig2 = Rig::new(&k, SchedulerKind::Lrr);
        rig2.launch(0);
        rig2.run(100_000);
        assert_eq!(traced_stats, rig2.sm.stats, "tracing must not perturb timing");
    }

    #[test]
    fn lrr_policy_unit_smoke() {
        // Direct policy sanity through the SM: every warp eventually issues.
        let k = simple_kernel(1, 256);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut lrr = Lrr::new(48, 2);
        rig.launch(0);
        for _ in 0..200 {
            let mut rep = TickReport::default();
            rig.mem.tick(rig.now);
            rig.sm
                .tick(rig.now, &mut rig.gmem, &mut rig.mem, &mut lrr, true, &mut rep);
            rig.now += 1;
        }
        let view = rig.sm.sched_view(rig.now, true);
        assert!(view.warps.iter().filter(|w| w.active).all(|w| w.progress > 0));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use pro_core::SchedulerKind;
    use pro_isa::{CmpOp, LaunchConfig, ProgramBuilder, Special, Src, Ty};
    use pro_mem::MemConfig;

    struct Rig {
        sm: Sm,
        gmem: GlobalMem,
        mem: MemSubsystem,
        policy: Box<dyn WarpScheduler>,
        now: u64,
    }

    impl Rig {
        fn new(kernel: &Kernel, kind: SchedulerKind) -> Rig {
            let cfg = SmConfig::gtx480();
            let mut sm = Sm::new(0, cfg);
            sm.begin_kernel(kernel);
            Rig {
                policy: kind.build(cfg.max_warps, cfg.max_tbs, cfg.units),
                sm,
                gmem: GlobalMem::new(1 << 22),
                mem: MemSubsystem::new(MemConfig::gtx480(), 1),
                now: 0,
            }
        }

        fn run(&mut self, limit: u64) -> Vec<u32> {
            let mut finished = Vec::new();
            let start = self.now;
            while self.sm.busy() {
                let mut rep = TickReport::default();
                self.mem.tick(self.now);
                self.sm.tick(
                    self.now,
                    &mut self.gmem,
                    &mut self.mem,
                    self.policy.as_mut(),
                    true,
                    &mut rep,
                );
                finished.extend(rep.finished_tbs);
                self.now += 1;
                assert!(self.now - start < limit, "SM hung");
            }
            finished
        }
    }

    /// A TB whose warp 1 exits without ever reaching the barrier (uniform
    /// per-warp guard): warp 0 must still be released when warp 1 finishes
    /// — the hardware counts only live warps toward barrier arrival.
    #[test]
    fn barrier_released_by_finishing_sibling_warp() {
        let mut b = ProgramBuilder::new("skip_bar");
        let (wid, g, a) = (b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.mov(wid, Src::Special(Special::WarpId));
        b.setp(CmpOp::Eq, Ty::S32, p, wid, Src::Imm(0));
        b.if_then(p, true, |b| {
            b.bar();
        });
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.st_global(g, a, 0);
        b.exit();
        let prog = b.build().unwrap();
        let k = Kernel::new(prog, LaunchConfig::linear(1, 64), vec![0]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.sm.launch_tb(0, 0, rig.policy.as_mut(), true);
        let finished = rig.run(100_000);
        assert_eq!(finished, vec![0]);
        for i in 0..64u64 {
            assert_eq!(rig.gmem.read(i * 4), i as u32);
        }
    }

    /// LSU backpressure: a storm of fully scattered loads must neither
    /// deadlock nor lose completions when the L1 MSHRs saturate.
    #[test]
    fn mshr_saturation_recovers() {
        let mut b = ProgramBuilder::new("scatter_storm");
        let (g, x, a, v, acc, i) =
            (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.global_tid(g);
        b.mov(acc, Src::Imm(0));
        b.for_loop(i, Src::Imm(0), Src::Imm(4), p, |b, i| {
            // addr = ((gtid*131 + i*977) % 4096) * 128 → all scattered lines
            b.imad(x, g, Src::Imm(131), Src::Imm(0));
            b.imad(x, i, Src::Imm(977), Src::Reg(x));
            b.and(x, x, Src::Imm(4095));
            b.shl(x, x, Src::Imm(7));
            b.iadd(a, x, Src::Param(0));
            b.ld_global(v, a, 0);
            b.iadd(acc, acc, Src::Reg(v));
        });
        b.buf_addr(a, 1, g, 0);
        b.st_global(acc, a, 0);
        b.exit();
        let prog = b.build().unwrap();
        let mut gmem = GlobalMem::new(1 << 22);
        let table = gmem.alloc(4096 * 128 + 4096);
        let out = gmem.alloc(512 * 4);
        let k = Kernel::new(
            prog,
            LaunchConfig::linear(4, 128),
            vec![table as u32, out as u32],
        );
        let mut rig = Rig::new(&k, SchedulerKind::Gto);
        rig.gmem = gmem;
        for t in 0..4 {
            rig.sm.launch_tb(t, 0, rig.policy.as_mut(), true);
        }
        let finished = rig.run(2_000_000);
        assert_eq!(finished.len(), 4);
        let s = rig.mem.stats();
        assert_eq!(s.loads, s.loads_completed, "no load lost under pressure");
        assert!(s.l1.mshr_rejections > 0 || s.l1.mshr_merges > 0);
    }

    /// Register-file capacity limits residency: a 64-reg kernel at 256
    /// threads/TB allows only 2 TBs on a 32768-register SM.
    #[test]
    fn register_file_gates_residency() {
        let mut b = ProgramBuilder::new("reg_hog");
        // Touch r63 so the program declares 64 registers.
        let mut last = b.reg();
        for _ in 0..63 {
            last = b.reg();
        }
        b.mov(last, Src::Imm(1));
        b.exit();
        let prog = b.build().unwrap();
        assert_eq!(prog.regs, 64);
        let k = Kernel::new(prog, LaunchConfig::linear(8, 256), vec![]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut n = 0;
        while rig.sm.can_accept_tb() {
            rig.sm.launch_tb(n, 0, rig.policy.as_mut(), true);
            n += 1;
        }
        assert_eq!(n, 2, "32768 regs / (64 regs x 256 threads) = 2");
        assert_eq!(rig.sm.max_resident_tbs(), 2);
    }

    /// Warp-level divergence statistic: a kernel with warp-skewed work
    /// reports a larger first-to-last finish gap than a uniform one.
    #[test]
    fn wld_statistic_tracks_skew() {
        let make = |skewed: bool| {
            let mut b = ProgramBuilder::new("wld");
            let (wid, bound, i, acc) = (b.reg(), b.reg(), b.reg(), b.reg());
            let p = b.pred();
            b.mov(wid, Src::Special(Special::WarpId));
            if skewed {
                b.iadd(bound, wid, Src::Imm(1));
                b.shl(bound, bound, Src::Imm(4));
            } else {
                b.mov(bound, Src::Imm(32));
            }
            b.mov(acc, Src::Imm(0));
            b.for_loop(i, Src::Imm(0), bound, p, |b, i| {
                b.imad(acc, acc, Src::Imm(3), Src::Reg(i));
            });
            b.exit();
            let prog = b.build().unwrap();
            let k = Kernel::new(prog, LaunchConfig::linear(1, 128), vec![]);
            let mut rig = Rig::new(&k, SchedulerKind::Lrr);
            rig.sm.launch_tb(0, 0, rig.policy.as_mut(), true);
            rig.run(200_000);
            rig.sm.stats
        };
        let uniform = make(false);
        let skewed = make(true);
        assert_eq!(uniform.tbs_completed, 1);
        assert!(
            skewed.avg_wld() > uniform.avg_wld(),
            "skewed {} vs uniform {}",
            skewed.avg_wld(),
            uniform.avg_wld()
        );
    }

    /// Shared-memory atomics serialize: same-address atomics take longer
    /// than spread ones.
    #[test]
    fn atomic_conflicts_cost_cycles() {
        let make = |same_addr: bool| {
            let mut b = ProgramBuilder::new("atomics");
            let sh = b.shared_alloc(128 * 4);
            let (addr, one, old) = (b.reg(), b.reg(), b.reg());
            if same_addr {
                b.mov(addr, Src::Imm(sh));
            } else {
                // per-lane address: laneid*4 + sh — conflict free.
                let lane = b.reg();
                b.mov(lane, Src::Special(Special::LaneId));
                b.imad(addr, lane, Src::Imm(4), Src::Imm(sh));
            }
            b.mov(one, Src::Imm(1));
            for _ in 0..8 {
                b.atom_shared(pro_isa::AtomOp::Add, old, addr, one);
            }
            b.exit();
            let prog = b.build().unwrap();
            let k = Kernel::new(prog, LaunchConfig::linear(1, 32), vec![]);
            let mut rig = Rig::new(&k, SchedulerKind::Lrr);
            rig.sm.launch_tb(0, 0, rig.policy.as_mut(), true);
            let start = rig.now;
            rig.run(200_000);
            rig.now - start
        };
        let contended = make(true);
        let spread = make(false);
        assert!(
            contended > spread + 8 * 16,
            "full serialization must cost: contended={contended} spread={spread}"
        );
    }
}
