//! Warp context: per-lane architectural state (GPRs, predicates, SIMT
//! stack) plus the functional execution of one instruction at issue time.
//!
//! Function and timing are split (see `pro-mem` docs): `Warp::execute`
//! performs the architectural effects immediately — register writes, memory
//! data movement, PC/stack update — and reports an [`ExecEffect`] that the
//! SM issue logic converts into timing (scoreboard reservations, writeback
//! events, LSU transactions). Early register writes are invisible because
//! warp execution is in-order and the scoreboard blocks readers until the
//! modelled writeback time.

use crate::scoreboard::Scoreboard;
use crate::shared::{atomic_cycles, conflict_cycles, SharedMem};
use crate::simt::SimtStack;
use pro_core::codec::{CodecError, Reader, Snapshot, Writer};
use pro_isa::exec::{eval_alu, eval_atom, eval_cmp, eval_sfu};
use pro_isa::{AluOp, Instr, MemSpace, Pc, Program, Special, Src, WARP_SIZE};
use pro_mem::{line_of, GmemPort};

/// Latency classes for writeback scheduling; the SM maps these to cycle
/// counts from its config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatClass {
    /// Simple integer / logic / move / compare / select.
    IntSimple,
    /// Integer multiply / multiply-add.
    IntMul,
    /// f32 arithmetic.
    Float,
    /// Type conversions.
    Convert,
}

/// The architectural side-effects of one issued warp instruction, as seen
/// by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEffect {
    /// ALU-class op; destination(s) ready after the class latency.
    Alu(LatClass),
    /// SFU op; occupies the SFU for its initiation interval.
    Sfu,
    /// Global load: coalesced line addresses were pushed to the caller's
    /// scratch vector; `dst` scoreboard clears when the access completes.
    GlobalLoad,
    /// Global store: line addresses in scratch; fire-and-forget traffic.
    GlobalStore,
    /// Shared-memory load; occupies the LSU for `occupancy` cycles.
    SharedLoad {
        /// Bank-conflict serialization cycles.
        occupancy: u32,
    },
    /// Shared-memory store.
    SharedStore {
        /// Bank-conflict serialization cycles.
        occupancy: u32,
    },
    /// Shared-memory atomic (counts as a shared access with RMW cost).
    SharedAtomic {
        /// Serialization cycles.
        occupancy: u32,
    },
    /// The warp parked at a barrier.
    Barrier,
    /// Control transfer resolved at issue.
    Branch,
    /// Every lane exited; the warp is done.
    Exit,
    /// No-op.
    Nop,
}

/// Read-only launch context shared by all warps of a kernel on an SM.
#[derive(Debug, Clone, Copy)]
pub struct LaunchCtx<'a> {
    /// Kernel parameter bank.
    pub params: &'a [u32],
    /// Threads per block.
    pub ntid: u32,
    /// Blocks in the grid.
    pub nctaid: u32,
}

/// One hardware warp slot.
#[derive(Debug)]
pub struct Warp {
    /// Slot is occupied by a live warp.
    pub valid: bool,
    /// Owning TB slot on this SM.
    pub tb_slot: usize,
    /// Warp index within the TB.
    pub index_in_tb: u32,
    /// Global block index of the owning TB.
    pub ctaid: u32,
    /// SIMT reconvergence stack (PC + active mask).
    pub simt: SimtStack,
    /// Pending-write tracking.
    pub scoreboard: Scoreboard,
    /// Parked at a barrier.
    pub at_barrier: bool,
    /// All lanes exited.
    pub finished: bool,
    /// Cycle at which the next instruction is fetched/decoded.
    ///
    /// The SM keeps a mirror of this field (`Sm::ibuf_at`, DESIGN.md §15)
    /// so the issue walk can test fetch readiness without touching the
    /// warp; every path that writes it (launch, issue, barrier release)
    /// must update the mirror in the same place.
    pub ibuf_ready_at: u64,
    /// Lanes that exist (threads_per_block may not fill the last warp).
    pub live_mask: u32,
    regs: Vec<u32>,
    preds: Vec<u32>, // bitmask per predicate register
}

impl Warp {
    /// An empty, invalid slot.
    pub fn empty() -> Self {
        Warp {
            valid: false,
            tb_slot: 0,
            index_in_tb: 0,
            ctaid: 0,
            simt: SimtStack::new(0, 0),
            scoreboard: Scoreboard::default(),
            at_barrier: false,
            finished: false,
            ibuf_ready_at: 0,
            live_mask: 0,
            regs: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// (Re)initialize the slot for a newly launched warp.
    #[allow(clippy::too_many_arguments)] // hardware launch descriptor
    pub fn launch(
        &mut self,
        program: &Program,
        tb_slot: usize,
        index_in_tb: u32,
        ctaid: u32,
        live_mask: u32,
        now: u64,
        fetch_lat: u64,
    ) {
        self.valid = true;
        self.tb_slot = tb_slot;
        self.index_in_tb = index_in_tb;
        self.ctaid = ctaid;
        self.simt = SimtStack::new(live_mask, program.len() as Pc);
        self.scoreboard.clear();
        self.at_barrier = false;
        self.finished = false;
        self.ibuf_ready_at = now + fetch_lat;
        self.live_mask = live_mask;
        self.regs.clear();
        self.regs.resize(program.regs as usize * WARP_SIZE, 0);
        self.preds.clear();
        self.preds.resize(program.preds as usize, 0);
    }

    /// Free the slot.
    pub fn retire(&mut self) {
        self.valid = false;
        self.finished = false;
        self.at_barrier = false;
    }

    /// Current PC.
    pub fn pc(&self) -> Pc {
        self.simt.pc()
    }

    /// Current active mask.
    pub fn active_mask(&self) -> u32 {
        self.simt.mask()
    }

    /// Read a register lane (tests/debug).
    pub fn reg(&self, r: u8, lane: usize) -> u32 {
        self.regs[r as usize * WARP_SIZE + lane]
    }

    /// Write a register lane (tests).
    pub fn set_reg(&mut self, r: u8, lane: usize, v: u32) {
        self.regs[r as usize * WARP_SIZE + lane] = v;
    }

    #[inline]
    fn read_src(&self, src: Src, lane: usize, ctx: &LaunchCtx) -> u32 {
        match src {
            Src::Reg(r) => self.regs[r.0 as usize * WARP_SIZE + lane],
            Src::Imm(v) => v,
            Src::Param(i) => ctx.params[i as usize],
            Src::Special(s) => match s {
                Special::Tid => self.index_in_tb * WARP_SIZE as u32 + lane as u32,
                Special::Ctaid => self.ctaid,
                Special::NTid => ctx.ntid,
                Special::NCtaid => ctx.nctaid,
                Special::LaneId => lane as u32,
                Special::WarpId => self.index_in_tb,
            },
        }
    }

    /// Execute the instruction at the current PC for all active lanes.
    ///
    /// * Architectural state (registers, memories, PC/stack) updates now.
    /// * For global memory ops, the coalesced 128-byte line addresses are
    ///   appended to `lines_out` (cleared first).
    ///
    /// Returns the effect plus the active-lane count (the paper's progress
    /// increment). Must not be called on a finished warp or one parked at a
    /// barrier.
    ///
    /// Generic over [`GmemPort`] so the same execution path runs against
    /// the real [`pro_mem::GlobalMem`] or a staged view
    /// ([`pro_mem::GmemStage`], the SM issue phase).
    pub fn execute<G: GmemPort>(
        &mut self,
        program: &Program,
        ctx: &LaunchCtx,
        gmem: &mut G,
        shared: &mut SharedMem,
        lines_out: &mut Vec<u64>,
    ) -> (ExecEffect, u32) {
        debug_assert!(self.valid && !self.finished && !self.at_barrier);
        lines_out.clear();
        self.simt.reconverge();
        let pc = self.simt.pc();
        let instr = *program.fetch(pc);
        let mask = self.simt.mask();
        let active = mask.count_ones();

        let effect = match instr {
            Instr::Alu { op, dst, a, b, c } => {
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let av = self.read_src(a, lane, ctx);
                    let bv = self.read_src(b, lane, ctx);
                    let cv = self.read_src(c, lane, ctx);
                    self.regs[dst.0 as usize * WARP_SIZE + lane] = eval_alu(op, av, bv, cv);
                }
                self.simt.advance();
                ExecEffect::Alu(match op {
                    AluOp::IMul | AluOp::IMulHi | AluOp::IMad => LatClass::IntMul,
                    AluOp::FAdd
                    | AluOp::FSub
                    | AluOp::FMul
                    | AluOp::FFma
                    | AluOp::FMin
                    | AluOp::FMax => LatClass::Float,
                    AluOp::I2F | AluOp::F2I => LatClass::Convert,
                    _ => LatClass::IntSimple,
                })
            }
            Instr::SetP { cmp, ty, dst, a, b } => {
                let mut bits = self.preds[dst.0 as usize];
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let av = self.read_src(a, lane, ctx);
                    let bv = self.read_src(b, lane, ctx);
                    if eval_cmp(cmp, ty, av, bv) {
                        bits |= 1 << lane;
                    } else {
                        bits &= !(1 << lane);
                    }
                }
                self.preds[dst.0 as usize] = bits;
                self.simt.advance();
                ExecEffect::Alu(LatClass::IntSimple)
            }
            Instr::SelP { dst, a, b, pred } => {
                let pbits = self.preds[pred.0 as usize];
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let v = if pbits & (1 << lane) != 0 {
                        self.read_src(a, lane, ctx)
                    } else {
                        self.read_src(b, lane, ctx)
                    };
                    self.regs[dst.0 as usize * WARP_SIZE + lane] = v;
                }
                self.simt.advance();
                ExecEffect::Alu(LatClass::IntSimple)
            }
            Instr::Sfu { op, dst, a } => {
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let av = self.read_src(a, lane, ctx);
                    self.regs[dst.0 as usize * WARP_SIZE + lane] = eval_sfu(op, av);
                }
                self.simt.advance();
                ExecEffect::Sfu
            }
            Instr::Ld { space, dst, addr, offset } => {
                let mut addrs = [0u64; WARP_SIZE];
                let mut saddrs = [0u32; WARP_SIZE];
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let base = self.regs[addr.0 as usize * WARP_SIZE + lane];
                    let a = base.wrapping_add(offset as u32);
                    match space {
                        MemSpace::Global => {
                            addrs[lane] = a as u64;
                            self.regs[dst.0 as usize * WARP_SIZE + lane] = gmem.read(a as u64);
                        }
                        MemSpace::Shared => {
                            saddrs[lane] = a;
                            self.regs[dst.0 as usize * WARP_SIZE + lane] = shared.read(a);
                        }
                    }
                }
                self.simt.advance();
                match space {
                    MemSpace::Global => {
                        coalesce_into(&addrs, mask, lines_out);
                        ExecEffect::GlobalLoad
                    }
                    MemSpace::Shared => ExecEffect::SharedLoad {
                        occupancy: conflict_cycles(&saddrs, mask),
                    },
                }
            }
            Instr::St { space, src, addr, offset } => {
                let mut addrs = [0u64; WARP_SIZE];
                let mut saddrs = [0u32; WARP_SIZE];
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let base = self.regs[addr.0 as usize * WARP_SIZE + lane];
                    let a = base.wrapping_add(offset as u32);
                    let v = self.regs[src.0 as usize * WARP_SIZE + lane];
                    match space {
                        MemSpace::Global => {
                            addrs[lane] = a as u64;
                            gmem.write(a as u64, v);
                        }
                        MemSpace::Shared => {
                            saddrs[lane] = a;
                            shared.write(a, v);
                        }
                    }
                }
                self.simt.advance();
                match space {
                    MemSpace::Global => {
                        coalesce_into(&addrs, mask, lines_out);
                        ExecEffect::GlobalStore
                    }
                    MemSpace::Shared => ExecEffect::SharedStore {
                        occupancy: conflict_cycles(&saddrs, mask),
                    },
                }
            }
            #[allow(clippy::needless_range_loop)]
            Instr::Atom { op, dst, addr, src } => {
                // Lanes apply in lane order — deterministic RMW semantics.
                let mut saddrs = [0u32; WARP_SIZE];
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let a = self.regs[addr.0 as usize * WARP_SIZE + lane];
                    saddrs[lane] = a;
                    let sv = self.regs[src.0 as usize * WARP_SIZE + lane];
                    let old = shared.read(a);
                    let (new, ret) = eval_atom(op, old, sv);
                    shared.write(a, new);
                    self.regs[dst.0 as usize * WARP_SIZE + lane] = ret;
                }
                self.simt.advance();
                ExecEffect::SharedAtomic {
                    occupancy: atomic_cycles(&saddrs, mask),
                }
            }
            Instr::Bar { .. } => {
                debug_assert_eq!(
                    self.simt.depth(),
                    1,
                    "barrier inside divergent control flow (kernel bug)"
                );
                self.simt.advance();
                self.at_barrier = true;
                ExecEffect::Barrier
            }
            Instr::Bra { guard, target, reconv } => {
                let taken = match guard {
                    None => mask,
                    Some(g) => {
                        let pbits = self.preds[g.pred.0 as usize];
                        let want = if g.expect { pbits } else { !pbits };
                        mask & want
                    }
                };
                self.simt.branch(taken, target, reconv);
                ExecEffect::Branch
            }
            Instr::Exit => {
                debug_assert_eq!(
                    self.simt.depth(),
                    1,
                    "exit inside divergent control flow (kernel bug)"
                );
                self.finished = true;
                ExecEffect::Exit
            }
            Instr::Nop => {
                self.simt.advance();
                ExecEffect::Nop
            }
        };
        (effect, active)
    }
}

impl Snapshot for Warp {
    fn save(&self, w: &mut Writer) {
        w.put_bool(self.valid);
        w.put_usize(self.tb_slot);
        w.put_u32(self.index_in_tb);
        w.put_u32(self.ctaid);
        self.simt.save(w);
        self.scoreboard.save(w);
        w.put_bool(self.at_barrier);
        w.put_bool(self.finished);
        w.put_u64(self.ibuf_ready_at);
        w.put_u32(self.live_mask);
        self.regs.save(w);
        self.preds.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Warp {
            valid: r.get_bool()?,
            tb_slot: r.get_usize()?,
            index_in_tb: r.get_u32()?,
            ctaid: r.get_u32()?,
            simt: Snapshot::load(r)?,
            scoreboard: Snapshot::load(r)?,
            at_barrier: r.get_bool()?,
            finished: r.get_bool()?,
            ibuf_ready_at: r.get_u64()?,
            live_mask: r.get_u32()?,
            regs: Snapshot::load(r)?,
            preds: Snapshot::load(r)?,
        })
    }
}

#[inline]
#[allow(clippy::needless_range_loop)] // lane indexes the mask AND the array
fn coalesce_into(addrs: &[u64; WARP_SIZE], mask: u32, out: &mut Vec<u64>) {
    for lane in 0..WARP_SIZE {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let line = line_of(addrs[lane]);
        if !out.contains(&line) {
            out.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pro_isa::{CmpOp, ProgramBuilder, SfuOp, Ty};
    use pro_mem::GlobalMem;

    fn ctx<'a>(params: &'a [u32]) -> LaunchCtx<'a> {
        LaunchCtx {
            params,
            ntid: 64,
            nctaid: 4,
        }
    }

    /// Run a single warp functionally to completion, ignoring timing.
    fn run(
        program: &Program,
        params: &[u32],
        gmem: &mut GlobalMem,
        shared: &mut SharedMem,
        ctaid: u32,
        index_in_tb: u32,
    ) -> Warp {
        let mut w = Warp::empty();
        w.launch(program, 0, index_in_tb, ctaid, u32::MAX, 0, 0);
        let c = ctx(params);
        let mut lines = Vec::new();
        let mut steps = 0;
        while !w.finished {
            let _ = w.execute(program, &c, gmem, shared, &mut lines);
            steps += 1;
            assert!(steps < 1_000_000, "runaway program");
        }
        w
    }

    #[test]
    fn specials_and_alu_compute_global_tid() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        b.global_tid(r);
        b.exit();
        let p = b.build().unwrap();
        let mut g = GlobalMem::new(1024);
        let mut s = SharedMem::new(0);
        // ctaid=2, warp 1 in TB → tid = 32..64, gtid = 2*64 + tid.
        let w = run(&p, &[], &mut g, &mut s, 2, 1);
        for lane in 0..WARP_SIZE {
            assert_eq!(w.reg(0, lane), 2 * 64 + 32 + lane as u32);
        }
    }

    #[test]
    fn divergent_if_else_selects_per_lane() {
        // lanes with tid < 16 get 111, others 222.
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        let p0 = b.pred();
        b.setp(
            CmpOp::Lt,
            Ty::S32,
            p0,
            Src::Special(Special::Tid),
            Src::Imm(16),
        );
        b.if_else(
            p0,
            |b| {
                b.mov(r, Src::Imm(111));
            },
            |b| {
                b.mov(r, Src::Imm(222));
            },
        );
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(0);
        let w = run(&prog, &[], &mut g, &mut s, 0, 0);
        for lane in 0..WARP_SIZE {
            let expect = if lane < 16 { 111 } else { 222 };
            assert_eq!(w.reg(0, lane), expect, "lane {lane}");
        }
    }

    #[test]
    fn divergent_loop_trip_counts_per_lane() {
        // Each lane loops laneid+1 times, accumulating 1 per iteration.
        let mut b = ProgramBuilder::new("t");
        let acc = b.reg();
        let i = b.reg();
        let bound = b.reg();
        let p = b.pred();
        b.mov(acc, Src::Imm(0));
        b.iadd(bound, Src::Special(Special::LaneId), Src::Imm(1));
        b.for_loop(i, Src::Imm(0), bound, p, |b, _| {
            b.iadd(acc, acc, Src::Imm(1));
        });
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(0);
        let w = run(&prog, &[], &mut g, &mut s, 0, 0);
        for lane in 0..WARP_SIZE {
            assert_eq!(w.reg(0, lane), lane as u32 + 1, "lane {lane}");
        }
    }

    #[test]
    fn global_load_store_roundtrip_with_coalescing() {
        let mut b = ProgramBuilder::new("t");
        let idx = b.reg();
        let a_in = b.reg();
        let a_out = b.reg();
        let v = b.reg();
        b.global_tid(idx);
        b.buf_addr(a_in, 0, idx, 0);
        b.ld_global(v, a_in, 0);
        b.fmul(v, v, Src::imm_f32(2.0));
        b.buf_addr(a_out, 1, idx, 0);
        b.st_global(v, a_out, 0);
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(1 << 16);
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let in_base = g.alloc_init_f32(&data);
        let out_base = g.alloc(32 * 4);
        let mut s = SharedMem::new(0);

        let mut w = Warp::empty();
        let prog_ref = &prog;
        w.launch(prog_ref, 0, 0, 0, u32::MAX, 0, 0);
        let params = [in_base as u32, out_base as u32];
        let c = ctx(&params);
        let mut lines = Vec::new();
        let mut saw_load_lines = 0;
        while !w.finished {
            let (eff, _) = w.execute(prog_ref, &c, &mut g, &mut s, &mut lines);
            if eff == ExecEffect::GlobalLoad {
                saw_load_lines = lines.len();
            }
        }
        assert_eq!(saw_load_lines, 1, "unit-stride aligned load = 1 line");
        for i in 0..32 {
            assert_eq!(g.read_f32(out_base + i * 4), i as f32 * 2.0);
        }
    }

    #[test]
    fn shared_memory_and_atomics() {
        let mut b = ProgramBuilder::new("t");
        let addr = b.reg();
        let one = b.reg();
        let old = b.reg();
        let _slot = b.shared_alloc(4);
        b.mov(addr, Src::Imm(0));
        b.mov(one, Src::Imm(1));
        b.atom_shared(pro_isa::AtomOp::Add, old, addr, one);
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(prog.shared_bytes);
        let w = run(&prog, &[], &mut g, &mut s, 0, 0);
        // All 32 lanes added 1 to the same word.
        assert_eq!(s.read(0), 32);
        // Old values are the lane-order prefix sums 0..31.
        for lane in 0..WARP_SIZE {
            assert_eq!(w.reg(2, lane), lane as u32);
        }
    }

    #[test]
    fn barrier_parks_warp() {
        let mut b = ProgramBuilder::new("t");
        b.bar();
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(0);
        let mut w = Warp::empty();
        w.launch(&prog, 0, 0, 0, u32::MAX, 0, 0);
        let params: [u32; 0] = [];
        let c = ctx(&params);
        let mut lines = Vec::new();
        let (eff, n) = w.execute(&prog, &c, &mut g, &mut s, &mut lines);
        assert_eq!(eff, ExecEffect::Barrier);
        assert_eq!(n, 32);
        assert!(w.at_barrier);
        assert!(!w.finished);
    }

    #[test]
    fn partial_warp_has_inactive_lanes() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        b.mov(r, Src::Imm(9));
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(0);
        let mut w = Warp::empty();
        w.launch(&prog, 0, 0, 0, 0xFF, 0, 0); // 8 live lanes
        let params: [u32; 0] = [];
        let c = ctx(&params);
        let mut lines = Vec::new();
        let (_, n) = w.execute(&prog, &c, &mut g, &mut s, &mut lines);
        assert_eq!(n, 8, "progress counts only active threads");
        assert_eq!(w.reg(0, 0), 9);
        assert_eq!(w.reg(0, 8), 0, "inactive lane untouched");
    }

    #[test]
    fn sfu_writes_transcendental_results() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        b.mov(r, Src::imm_f32(4.0));
        b.sfu(SfuOp::Sqrt, r, r);
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(0);
        let w = run(&prog, &[], &mut g, &mut s, 0, 0);
        assert_eq!(f32::from_bits(w.reg(0, 0)), 2.0);
    }

    #[test]
    fn scattered_load_produces_many_lines() {
        let mut b = ProgramBuilder::new("t");
        let idx = b.reg();
        let a = b.reg();
        let v = b.reg();
        // addr = base + laneid * 128 → one line per lane.
        b.shl(idx, Src::Special(Special::LaneId), Src::Imm(7));
        b.iadd(a, idx, Src::Param(0));
        b.ld_global(v, a, 0);
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(1 << 16);
        let base = g.alloc(32 * 128);
        let mut s = SharedMem::new(0);
        let mut w = Warp::empty();
        w.launch(&prog, 0, 0, 0, u32::MAX, 0, 0);
        let params = [base as u32];
        let c = ctx(&params);
        let mut lines = Vec::new();
        loop {
            let (eff, _) = w.execute(&prog, &c, &mut g, &mut s, &mut lines);
            if eff == ExecEffect::GlobalLoad {
                assert_eq!(lines.len(), 32);
                break;
            }
        }
    }
}
