//! Property test of the two-level (TL) policy's O(n) mask rebalance
//! against the O(n²) `contains`/`retain` rebalance it replaced, kept here
//! verbatim as a test-only reference. Both are stormed in lockstep with
//! random candidate sets (including removals), long-latency flag flips,
//! load and non-load issues, warp finishes and save/load round trips of
//! the optimized instance; at every step the emitted orders, the active
//! sets, the dirty bits and the `save_state` bytes must be identical.
//! Runs on the in-repo `pro_core::prop` harness, in the style of
//! `prop_dirty.rs`.

use pro_core::codec::{self, Snapshot, Writer};
use pro_core::dirty::DirtyMask;
use pro_core::prop::{any, check, vec_of, Config};
use pro_core::{
    prop_assert_eq, IssueInfo, SchedView, TwoLevel, WarpScheduler, WarpSlot, WarpState,
};
use std::collections::VecDeque;

const UNITS: u32 = 2;
const SLOTS: usize = 48;

struct RefUnit {
    active: VecDeque<WarpSlot>,
    pending: VecDeque<WarpSlot>,
    last_issued: Option<WarpSlot>,
}

/// The pre-mask TL implementation: membership by linear `contains`, the
/// rotation by a per-element `%`.
struct RefTwoLevel {
    units: Vec<RefUnit>,
    active_size: usize,
    dirty: DirtyMask,
}

impl RefTwoLevel {
    fn new(units: u32, active_size: usize) -> Self {
        RefTwoLevel {
            units: (0..units)
                .map(|_| RefUnit {
                    active: VecDeque::new(),
                    pending: VecDeque::new(),
                    last_issued: None,
                })
                .collect(),
            active_size,
            dirty: DirtyMask::all(),
        }
    }

    fn active_set(&self, unit: u32) -> Vec<WarpSlot> {
        self.units[unit as usize].active.iter().copied().collect()
    }

    fn rebalance(&mut self, unit: u32, view: &SchedView, candidates: &[WarpSlot]) {
        let u = &mut self.units[unit as usize];
        let is_candidate = |w: WarpSlot| candidates.contains(&w);
        u.active.retain(|&w| is_candidate(w));
        u.pending.retain(|&w| is_candidate(w));
        for &w in candidates {
            if !u.active.contains(&w) && !u.pending.contains(&w) {
                u.pending.push_back(w);
            }
        }
        let mut i = 0;
        while i < u.active.len() {
            let w = u.active[i];
            if view.warps[w].blocked_on_longlat {
                u.active.remove(i);
                u.pending.push_back(w);
            } else {
                i += 1;
            }
        }
        let mut scanned = 0;
        let pending_len = u.pending.len();
        while u.active.len() < self.active_size && scanned < pending_len {
            scanned += 1;
            let w = u.pending.pop_front().expect("non-empty");
            if view.warps[w].blocked_on_longlat {
                u.pending.push_back(w);
            } else {
                u.active.push_back(w);
            }
        }
        while u.active.len() < self.active_size {
            match u.pending.pop_front() {
                Some(w) => u.active.push_back(w),
                None => break,
            }
        }
    }
}

impl WarpScheduler for RefTwoLevel {
    fn name(&self) -> &'static str {
        "TL-ref"
    }

    fn order(
        &mut self,
        unit: u32,
        view: &SchedView,
        candidates: &[WarpSlot],
        out: &mut Vec<WarpSlot>,
    ) {
        self.rebalance(unit, view, candidates);
        let u = &self.units[unit as usize];
        let stable = u.active.iter().all(|&w| !view.warps[w].blocked_on_longlat)
            && (u.active.len() == self.active_size || u.pending.is_empty());
        if stable {
            self.dirty.clear(unit);
        } else {
            self.dirty.mark(unit);
        }
        out.clear();
        let n = u.active.len();
        let start = match u.last_issued {
            Some(last) => u
                .active
                .iter()
                .position(|&w| w == last)
                .map(|p| (p + 1) % n.max(1))
                .unwrap_or(0),
            None => 0,
        };
        for i in 0..n {
            out.push(u.active[(start + i) % n]);
        }
        out.extend(u.pending.iter().copied());
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
            if let Some(pos) = u.active.iter().position(|&w| w == slot) {
                u.active.remove(pos);
                u.pending.push_back(slot);
            }
        }
    }

    fn on_warp_finish(&mut self, slot: WarpSlot, _tb: usize, _view: &SchedView) {
        self.dirty.mark_all();
        for u in &mut self.units {
            u.active.retain(|&w| w != slot);
            u.pending.retain(|&w| w != slot);
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
}

fn state_bytes(p: &dyn WarpScheduler) -> Vec<u8> {
    let mut w = Writer::new();
    p.save_state(&mut w);
    w.into_bytes()
}

fn view(warps: &[WarpState]) -> SchedView<'_> {
    SchedView {
        cycle: 0,
        warps,
        tbs: &[],
        tbs_waiting_in_tb_scheduler: true,
    }
}

/// Ascending slot list of a candidate bitset, like the engine's walk.
fn slots(mask: u64) -> Vec<WarpSlot> {
    (0..64).filter(|&w| mask & (1u64 << w) != 0).collect()
}

/// Slots of `unit` under the engine's `w % units` split.
fn unit_slots(unit: u32) -> u64 {
    (0..SLOTS)
        .filter(|&w| w as u32 % UNITS == unit)
        .fold(0, |m, w| m | 1u64 << w)
}

/// Lockstep storm: ev 0 orders a unit (bits 0-1 of `r` pick "keep the
/// unit's candidate set" vs. "draw a fresh one from `r`", which adds and
/// removes warps at random), 1 flips a warp's long-latency flag, 2 issues
/// (a load when `r` is odd), 3 finishes a warp, 4 round-trips the mask
/// instance through `save_state`/`load_state` (the masks must rebuild).
#[test]
fn mask_rebalance_matches_the_quadratic_reference() {
    check(
        Config::default(),
        (
            1usize..10,
            vec_of((0u8..5, 0usize..SLOTS, any::<u64>()), 0..96),
        ),
        |(active_size, events): &(usize, Vec<(u8, usize, u64)>)| {
            let mut warps = vec![
                WarpState {
                    active: true,
                    ..WarpState::default()
                };
                SLOTS
            ];
            let mut fast = TwoLevel::new(UNITS, *active_size);
            let mut reference = RefTwoLevel::new(UNITS, *active_size);
            let mut cands = [unit_slots(0), unit_slots(1)];
            let (mut out_fast, mut out_ref) = (Vec::new(), Vec::new());
            for (step, &(ev, x, r)) in events.iter().enumerate() {
                let unit = x as u32 % UNITS;
                match ev {
                    0 => {
                        if r & 3 == 0 {
                            cands[unit as usize] = (r >> 2) & unit_slots(unit);
                        }
                        let list = slots(cands[unit as usize]);
                        fast.order(unit, &view(&warps), &list, &mut out_fast);
                        reference.order(unit, &view(&warps), &list, &mut out_ref);
                        prop_assert_eq!(&out_fast, &out_ref, "order, step {}", step);
                        prop_assert_eq!(
                            fast.order_dirty(unit),
                            reference.order_dirty(unit),
                            "dirty bit, step {}",
                            step
                        );
                    }
                    1 => warps[x].blocked_on_longlat = !warps[x].blocked_on_longlat,
                    2 => {
                        let info = IssueInfo {
                            active_threads: 32,
                            is_global_load: r & 1 == 1,
                        };
                        if info.is_global_load {
                            warps[x].blocked_on_longlat = true;
                        }
                        fast.on_issue(unit, x, info, &view(&warps));
                        reference.on_issue(unit, x, info, &view(&warps));
                    }
                    3 => {
                        fast.on_warp_finish(x, 0, &view(&warps));
                        reference.on_warp_finish(x, 0, &view(&warps));
                        cands[unit as usize] &= !(1u64 << x);
                    }
                    _ => {
                        let bytes = state_bytes(&fast);
                        fast = TwoLevel::new(UNITS, *active_size);
                        fast.load_state(&mut codec::Reader::new(&bytes))
                            .expect("round trip");
                    }
                }
                for u in 0..UNITS {
                    prop_assert_eq!(
                        fast.active_set(u),
                        reference.active_set(u),
                        "active set of unit {}, step {}",
                        u,
                        step
                    );
                }
                prop_assert_eq!(
                    state_bytes(&fast),
                    state_bytes(&reference),
                    "save_state bytes, step {}",
                    step
                );
            }
            Ok(())
        },
    );
}
