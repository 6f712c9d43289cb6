//! Two-Level (TL) warp scheduling — Narasiman et al., MICRO-2011, as
//! implemented by GPGPU-Sim's `two_level_active` scheduler; the paper's
//! second baseline (PRO gains 1.13x geomean over it).
//!
//! Warps are split into a bounded **active set** and a **pending queue**.
//! Only active warps are considered for issue, round-robin. When an active
//! warp blocks on a long-latency operation (an outstanding global load), it
//! is demoted to the pending queue and the oldest pending warp that is not
//! itself blocked is promoted. The staggering of group execution makes
//! groups reach long-latency instructions at different times — the effect
//! PRO generalizes with per-TB/per-warp progress priorities.

use crate::codec::{self, Snapshot};
use crate::dirty::DirtyMask;
use crate::{IssueInfo, SchedView, WarpScheduler, WarpSlot};
use std::collections::VecDeque;

#[derive(Debug, Default)]
struct UnitState {
    active: VecDeque<WarpSlot>,
    pending: VecDeque<WarpSlot>,
    last_issued: Option<WarpSlot>,
    /// Bit `w` set iff `w` is in `active` (resp. `pending`): O(1)
    /// membership tests for the queues. Derived — rebuilt by `load_state`,
    /// never serialized.
    active_mask: u64,
    pending_mask: u64,
}

/// Mask bit of warp slot `w`; TL packs a unit's slots into u64 masks.
fn bit(w: WarpSlot) -> u64 {
    assert!(w < 64, "TL packs warp slots into u64 masks (slot {w})");
    1u64 << w
}

/// Two-level active/pending policy.
#[derive(Debug)]
pub struct TwoLevel {
    units: Vec<UnitState>,
    /// Maximum active-set size (GPGPU-Sim default 8).
    active_size: usize,
    /// TL's `order()` mutates its queues (rebalance), so a unit may only
    /// report clean when that rebalance is provably a fixpoint: no active
    /// warp blocked and no free active slot a pending warp could take.
    /// Blocked-flag changes are covered by `order_reads_longlat` — the
    /// engine refuses to reuse when the unit's blocked set moved.
    dirty: DirtyMask,
}

impl TwoLevel {
    /// `units` scheduler units; `active_size` warps may be active per unit.
    pub fn new(units: u32, active_size: usize) -> Self {
        TwoLevel {
            units: (0..units).map(|_| UnitState::default()).collect(),
            active_size,
            dirty: DirtyMask::all(),
        }
    }

    /// Active set of a unit (test observability).
    pub fn active_set(&self, unit: u32) -> Vec<WarpSlot> {
        self.units[unit as usize].active.iter().copied().collect()
    }

    /// Reconcile bookkeeping with the candidate set: drop vanished warps,
    /// adopt new ones into pending, demote blocked active warps, promote
    /// ready pending warps. O(n) in the candidate count: every membership
    /// test is a bit test on the queue masks.
    ///
    /// Returns whether the result is a fixpoint: no blocked warp had to be
    /// put in the active set. The loops below always leave the active set
    /// full or pending empty, and only the final fill admits blocked
    /// warps, so that is exactly "every active warp unblocked, and full or
    /// nothing pending".
    fn rebalance(&mut self, unit: u32, view: &SchedView, candidates: &[WarpSlot]) -> bool {
        let u = &mut self.units[unit as usize];
        let cands = candidates.iter().fold(0u64, |m, &w| m | bit(w));
        // Drop vanished warps.
        if (u.active_mask | u.pending_mask) & !cands != 0 {
            u.active.retain(|&w| cands & bit(w) != 0);
            u.pending.retain(|&w| cands & bit(w) != 0);
            u.active_mask &= cands;
            u.pending_mask &= cands;
        }
        // Adopt new candidates into pending, in candidate order.
        let mut fresh = cands & !(u.active_mask | u.pending_mask);
        if fresh != 0 {
            u.pending_mask |= fresh;
            for &w in candidates {
                if fresh & bit(w) != 0 {
                    fresh &= !bit(w);
                    u.pending.push_back(w);
                }
            }
        }
        // Demote active warps blocked on long-latency loads.
        let blocked = u
            .active
            .iter()
            .filter(|&&w| view.warps[w].blocked_on_longlat)
            .fold(0u64, |m, &w| m | bit(w));
        if blocked != 0 {
            let UnitState {
                active, pending, ..
            } = u;
            active.retain(|&w| {
                let keep = blocked & bit(w) == 0;
                if !keep {
                    pending.push_back(w);
                }
                keep
            });
            u.active_mask &= !blocked;
            u.pending_mask |= blocked;
        }
        // Promote unblocked pending warps FIFO until the active set is full.
        let mut scanned = 0;
        let pending_len = u.pending.len();
        while u.active.len() < self.active_size && scanned < pending_len {
            scanned += 1;
            let w = u.pending.pop_front().expect("non-empty");
            if view.warps[w].blocked_on_longlat {
                u.pending.push_back(w);
            } else {
                u.pending_mask &= !bit(w);
                u.active_mask |= bit(w);
                u.active.push_back(w);
            }
        }
        // If everything is blocked, fill with blocked warps anyway so the
        // unit still reports a valid (if unissuable) order.
        let mut fixpoint = true;
        while u.active.len() < self.active_size {
            match u.pending.pop_front() {
                Some(w) => {
                    fixpoint = false;
                    u.pending_mask &= !bit(w);
                    u.active_mask |= bit(w);
                    u.active.push_back(w);
                }
                None => break,
            }
        }
        // One slice for the rotation in `order`.
        u.active.make_contiguous();
        fixpoint
    }
}

impl WarpScheduler for TwoLevel {
    fn name(&self) -> &'static str {
        "TL"
    }

    fn order(
        &mut self,
        unit: u32,
        view: &SchedView,
        candidates: &[WarpSlot],
        out: &mut Vec<WarpSlot>,
    ) {
        // Clean only at a rebalance fixpoint: with unchanged candidates and
        // blocked flags, every loop in `rebalance` would be a no-op, so the
        // queues — and therefore the emitted order — cannot drift. The
        // degenerate everything-blocked case (actives filled from the
        // "blocked anyway" tail) rotates the queues each call and must
        // stay dirty.
        let stable = self.rebalance(unit, view, candidates);
        let u = &self.units[unit as usize];
        if stable {
            self.dirty.clear(unit);
        } else {
            self.dirty.mark(unit);
        }
        out.clear();
        // Round robin within the active set, starting after last issued:
        // the rotation is the tail from `start`, then the head.
        let (active, _) = u.active.as_slices();
        let start = active
            .iter()
            .position(|&w| Some(w) == u.last_issued)
            .map_or(0, |p| p + 1);
        out.extend_from_slice(&active[start..]);
        out.extend_from_slice(&active[..start]);
        // Pending warps trail, FIFO (they can still issue if all actives
        // cannot — "loose" fallback, matching GPGPU-Sim behaviour where the
        // unit would otherwise idle).
        let (head, tail) = u.pending.as_slices();
        out.extend_from_slice(head);
        out.extend_from_slice(tail);
    }

    fn order_dirty(&mut self, unit: u32) -> bool {
        self.dirty.is_dirty(unit)
    }

    fn order_reads_longlat(&self) -> bool {
        true
    }

    fn on_issue(&mut self, unit: u32, slot: WarpSlot, info: IssueInfo, _view: &SchedView) {
        let u = &mut self.units[unit as usize];
        self.dirty.mark(unit);
        u.last_issued = Some(slot);
        if info.is_global_load {
            // The warp will block shortly; demote it eagerly so the unit
            // rotates to another group member next cycle.
            if let Some(pos) = u.active.iter().position(|&w| w == slot) {
                u.active.remove(pos);
                u.pending.push_back(slot);
                u.active_mask &= !bit(slot);
                u.pending_mask |= bit(slot);
            }
        }
    }

    fn on_warp_finish(&mut self, slot: WarpSlot, _tb: usize, _view: &SchedView) {
        self.dirty.mark_all();
        for u in &mut self.units {
            u.active.retain(|&w| w != slot);
            u.pending.retain(|&w| w != slot);
            u.active_mask &= !bit(slot);
            u.pending_mask &= !bit(slot);
            if u.last_issued == Some(slot) {
                u.last_issued = None;
            }
        }
    }

    fn save_state(&self, w: &mut codec::Writer) {
        w.put_u64(self.units.len() as u64);
        for u in &self.units {
            u.active.save(w);
            u.pending.save(w);
            u.last_issued.save(w);
        }
        self.dirty.save(w);
    }

    fn load_state(&mut self, r: &mut codec::Reader<'_>) -> Result<(), codec::CodecError> {
        let n = r.get_usize()?;
        if n != self.units.len() {
            return Err(codec::CodecError::BadValue("TL unit count"));
        }
        let mask = |q: &VecDeque<WarpSlot>| {
            q.iter().try_fold(0u64, |m, &w| match w {
                0..=63 => Ok(m | 1u64 << w),
                _ => Err(codec::CodecError::BadValue(
                    "TL warp slot out of mask range",
                )),
            })
        };
        for u in &mut self.units {
            u.active = Snapshot::load(r)?;
            u.pending = Snapshot::load(r)?;
            u.last_issued = Snapshot::load(r)?;
            u.active_mask = mask(&u.active)?;
            u.pending_mask = mask(&u.pending)?;
        }
        self.dirty = Snapshot::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ViewFixture;

    fn load_info() -> IssueInfo {
        IssueInfo {
            active_threads: 32,
            is_global_load: true,
        }
    }

    #[test]
    fn active_set_is_bounded() {
        let f = ViewFixture::grid(4, 4); // 16 warps
        let mut s = TwoLevel::new(1, 8);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(s.active_set(0).len(), 8);
        assert_eq!(out.len(), 16, "pending warps trail the order");
        assert_eq!(&out[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn global_load_issue_demotes_warp() {
        let f = ViewFixture::grid(4, 4);
        let mut s = TwoLevel::new(1, 8);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        s.on_issue(0, 0, load_info(), &f.view());
        assert!(!s.active_set(0).contains(&0));
        // Next order() promotes warp 8 to fill the hole.
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert!(s.active_set(0).contains(&8));
    }

    #[test]
    fn blocked_warps_are_demoted_on_rebalance() {
        let mut f = ViewFixture::grid(2, 8); // 16 warps
        let mut s = TwoLevel::new(1, 4);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(s.active_set(0), vec![0, 1, 2, 3]);
        f.warps[1].blocked_on_longlat = true;
        f.warps[2].blocked_on_longlat = true;
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        let active = s.active_set(0);
        assert!(!active.contains(&1));
        assert!(!active.contains(&2));
        assert_eq!(active.len(), 4, "holes refilled from pending");
    }

    #[test]
    fn round_robin_within_active_set() {
        let f = ViewFixture::grid(1, 4);
        let mut s = TwoLevel::new(1, 4);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        s.on_issue(
            0,
            1,
            IssueInfo {
                active_threads: 32,
                is_global_load: false,
            },
            &f.view(),
        );
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(out, vec![2, 3, 0, 1]);
    }

    #[test]
    fn finished_warps_leave_both_queues() {
        let f = ViewFixture::grid(1, 4);
        let mut s = TwoLevel::new(1, 2);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        s.on_warp_finish(0, 0, &f.view());
        s.order(0, &f.view(), &[1, 2, 3], &mut out);
        assert!(!out.contains(&0));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn stable_active_set_reports_clean() {
        let f = ViewFixture::grid(4, 4); // 16 warps, active set of 8
        let mut s = TwoLevel::new(1, 8);
        let mut out = Vec::new();
        assert!(s.order_dirty(0), "initially dirty");
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert!(!s.order_dirty(0), "full unblocked active set is a fixpoint");
        s.on_issue(
            0,
            0,
            IssueInfo {
                active_threads: 32,
                is_global_load: false,
            },
            &f.view(),
        );
        assert!(s.order_dirty(0), "rotation moved");
    }

    #[test]
    fn degenerate_all_blocked_state_stays_dirty() {
        // With every warp blocked the rebalance rotates blocked warps
        // through the active set on each call — never a fixpoint, so the
        // unit must keep recomputing.
        let mut f = ViewFixture::grid(1, 4);
        for w in &mut f.warps {
            w.blocked_on_longlat = true;
        }
        let mut s = TwoLevel::new(1, 2);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert!(s.order_dirty(0));
        let first = out.clone();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_ne!(first, out, "the degenerate state really does rotate");
    }

    #[test]
    fn all_blocked_still_produces_full_order() {
        let mut f = ViewFixture::grid(1, 4);
        for w in &mut f.warps {
            w.blocked_on_longlat = true;
        }
        let mut s = TwoLevel::new(1, 2);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }
}
