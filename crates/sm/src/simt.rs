//! SIMT reconvergence stack — immediate post-dominator (PDOM) reconvergence
//! as implemented by GPGPU-Sim and described for the paper's substrate.
//!
//! A warp executes one path at a time; on a divergent branch the current
//! stack top becomes the reconvergence entry and two child entries (taken /
//! fall-through) are pushed with the branch's reconvergence PC. When the
//! executing entry's PC reaches its reconvergence PC it is popped, resuming
//! the sibling path, and finally the merged parent. Branch reconvergence
//! PCs come from the ISA (`Instr::Bra::reconv`), computed by the program
//! builder for structured control flow.

use pro_core::codec::{CodecError, Reader, Snapshot, Writer};
use pro_isa::Pc;

/// One stack entry: an execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimtEntry {
    /// Next PC of this path.
    pub pc: Pc,
    /// Lanes executing this path.
    pub mask: u32,
    /// PC at which this entry pops (merges into the one below).
    pub reconv: Pc,
}

/// Per-warp SIMT stack.
#[derive(Debug, Clone)]
pub struct SimtStack {
    entries: Vec<SimtEntry>,
}

impl SimtStack {
    /// New stack: all of `mask` starts at PC 0; the base entry reconverges
    /// at `program_len` (i.e. never, for valid programs ending in `exit`).
    pub fn new(mask: u32, program_len: Pc) -> Self {
        SimtStack {
            entries: vec![SimtEntry {
                pc: 0,
                mask,
                reconv: program_len,
            }],
        }
    }

    /// Current PC.
    #[inline]
    pub fn pc(&self) -> Pc {
        self.top().pc
    }

    /// Current active mask.
    #[inline]
    pub fn mask(&self) -> u32 {
        self.top().mask
    }

    /// Current stack depth (1 = converged).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn top(&self) -> &SimtEntry {
        self.entries.last().expect("SIMT stack never empty")
    }

    #[inline]
    fn top_mut(&mut self) -> &mut SimtEntry {
        self.entries.last_mut().expect("SIMT stack never empty")
    }

    /// Pop any entries whose PC has reached their reconvergence point.
    /// Call before fetching each instruction.
    pub fn reconverge(&mut self) {
        while self.entries.len() > 1 {
            let t = *self.top();
            if t.pc == t.reconv {
                self.entries.pop();
            } else {
                break;
            }
        }
    }

    /// The PC [`SimtStack::reconverge`] would leave on top, without
    /// popping anything.
    pub fn reconverged_pc(&self) -> Pc {
        let mut i = self.entries.len() - 1;
        while i > 0 && self.entries[i].pc == self.entries[i].reconv {
            i -= 1;
        }
        self.entries[i].pc
    }

    /// Sequential advance past a non-branch instruction.
    #[inline]
    pub fn advance(&mut self) {
        self.top_mut().pc += 1;
    }

    /// Apply a branch executed at the current PC: `taken` is the subset of
    /// the active mask that takes the branch to `target`; the rest fall
    /// through; `reconv` is the branch's reconvergence PC.
    pub fn branch(&mut self, taken: u32, target: Pc, reconv: Pc) {
        let cur = *self.top();
        debug_assert_eq!(taken & !cur.mask, 0, "taken lanes must be active");
        let fallthrough_pc = cur.pc + 1;
        let not_taken = cur.mask & !taken;
        if taken == 0 {
            self.top_mut().pc = fallthrough_pc;
        } else if not_taken == 0 {
            self.top_mut().pc = target;
        } else {
            // Divergence: current entry becomes the reconvergence parent.
            self.top_mut().pc = reconv;
            self.entries.push(SimtEntry {
                pc: fallthrough_pc,
                mask: not_taken,
                reconv,
            });
            self.entries.push(SimtEntry {
                pc: target,
                mask: taken,
                reconv,
            });
        }
    }

    /// True once every lane has exited (mask empty and depth 1).
    pub fn converged(&self) -> bool {
        self.entries.len() == 1
    }
}

impl Snapshot for SimtEntry {
    fn save(&self, w: &mut Writer) {
        w.put_u32(self.pc);
        w.put_u32(self.mask);
        w.put_u32(self.reconv);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SimtEntry {
            pc: r.get_u32()?,
            mask: r.get_u32()?,
            reconv: r.get_u32()?,
        })
    }
}

impl Snapshot for SimtStack {
    fn save(&self, w: &mut Writer) {
        self.entries.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let entries: Vec<SimtEntry> = Snapshot::load(r)?;
        if entries.is_empty() {
            return Err(CodecError::BadValue("empty SIMT stack"));
        }
        Ok(SimtStack { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_branch_taken_moves_all_lanes() {
        let mut s = SimtStack::new(0xF, 100);
        s.branch(0xF, 10, 20);
        assert_eq!(s.pc(), 10);
        assert_eq!(s.mask(), 0xF);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn uniform_branch_not_taken_falls_through() {
        let mut s = SimtStack::new(0xF, 100);
        s.branch(0, 10, 20);
        assert_eq!(s.pc(), 1);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn divergent_branch_executes_taken_path_first() {
        let mut s = SimtStack::new(0xF, 100);
        // At pc 0: lanes 0,1 take to 10; lanes 2,3 fall through; reconv 20.
        s.branch(0b0011, 10, 20);
        assert_eq!(s.pc(), 10);
        assert_eq!(s.mask(), 0b0011);
        assert_eq!(s.depth(), 3);
    }

    #[test]
    fn full_divergence_reconverges() {
        let mut s = SimtStack::new(0b1111, 100);
        s.branch(0b0011, 10, 20);
        // Taken path runs 10..20.
        for pc in 10..20 {
            assert_eq!(s.pc(), pc);
            s.advance();
        }
        s.reconverge();
        // Fall-through path resumes at 1 with the other lanes.
        assert_eq!(s.pc(), 1);
        assert_eq!(s.mask(), 0b1100);
        for _ in 1..20 {
            s.advance();
        }
        s.reconverge();
        // Merged.
        assert_eq!(s.pc(), 20);
        assert_eq!(s.mask(), 0b1111);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0b1111, 100);
        s.branch(0b0011, 10, 30); // outer: 0,1 → 10; 2,3 → 1; reconv 30
        assert_eq!((s.pc(), s.mask()), (10, 0b0011));
        s.branch(0b0001, 20, 25); // inner at 10: lane0 → 20; lane1 → 11; reconv 25
        assert_eq!((s.pc(), s.mask()), (20, 0b0001));
        assert_eq!(s.depth(), 5);
        // lane0 runs to 25.
        for _ in 20..25 {
            s.advance();
        }
        s.reconverge();
        assert_eq!((s.pc(), s.mask()), (11, 0b0010));
        for _ in 11..25 {
            s.advance();
        }
        s.reconverge();
        // Inner merged at 25, mask 0b0011.
        assert_eq!((s.pc(), s.mask()), (25, 0b0011));
        for _ in 25..30 {
            s.advance();
        }
        s.reconverge();
        // Outer's fall-through lanes still owe 1..30.
        assert_eq!((s.pc(), s.mask()), (1, 0b1100));
    }

    #[test]
    fn divergent_loop_exit_waits_at_reconv() {
        // Loop body at pc 1..3, backward branch at 3 (target 1, reconv 4).
        let mut s = SimtStack::new(0b11, 10);
        for pc in 0..=3 {
            assert_eq!(s.pc(), pc);
            if pc == 3 {
                break;
            }
            s.advance();
        }
        // Lane 0 exits the loop, lane 1 continues.
        s.branch(0b10, 1, 4);
        assert_eq!((s.pc(), s.mask()), (1, 0b10));
        s.advance(); // 2
        s.advance(); // 3
        // Lane 1 exits too.
        s.branch(0, 1, 4);
        s.reconverge();
        assert_eq!((s.pc(), s.mask()), (4, 0b11), "lanes reconverge at loop exit");
        assert_eq!(s.depth(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "taken lanes must be active")]
    fn taken_outside_mask_asserts() {
        let mut s = SimtStack::new(0b01, 10);
        s.branch(0b10, 1, 2);
    }
}
