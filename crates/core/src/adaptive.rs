//! Adaptive queue geometry: the banked CAM baseline with a runtime bank
//! power-gating controller (`IQ_64_64_adapt`).
//!
//! The static schemes of the paper fix their geometry at design time; this
//! scheme keeps the `IQ_64_64` hardware but lets a small controller decide,
//! at epoch boundaries, how many of the banks are *powered*. Dispatch is
//! gated to the powered capacity (`powered_banks × bank_entries`), and the
//! energy meter charges per-cycle retention only for powered banks
//! ([`Component::BankIdle`]) — so shrinking the queue trades IPC (dispatch
//! stalls arrive earlier) for gated-bank energy, the Pareto axis the static
//! geometries cannot reach.
//!
//! The controller observes only model-independent signals — per-cycle
//! occupancy, load-hit-speculation cancels, and squash-removed entry counts
//! — and uses pure integer arithmetic, so the event-driven queue here and
//! the scan twin in [`reference`](crate::reference) (which shares the
//! literal [`BankController`] code) make bit-identical decisions.
//!
//! **Shrink safety:** power-gating is a *capacity limit*, not a slot
//! migration. No entry ever moves or is dropped by a resize, and a shrink
//! is deferred until current occupancy fits the smaller capacity — so a
//! shrink can never strand a listed wakeup waiter or a held replay entry
//! (the property `tests/proptest_resize.rs` hammers).

use crate::energy::CamEnergy;
use crate::fu::FuTopology;
use crate::soa::{Entry, EntryStore};
use crate::wakeup::{WakeupEvent, WakeupMap};
use crate::{DispatchInst, DispatchStall, IssueSink, Scheduler, Side};
use diq_isa::{Cycle, InstId, PhysReg, ProcessorConfig, RegClass};
use diq_power::{Component, EnergyMeter, TechParams};
use serde::{Deserialize, Serialize};

fn default_true() -> bool {
    true
}
fn default_epoch() -> u64 {
    256
}
fn default_grow() -> u32 {
    70
}
fn default_shrink() -> u32 {
    35
}
fn default_hysteresis() -> u32 {
    2
}
fn default_min_banks() -> usize {
    1
}
fn default_guard() -> u64 {
    16
}

/// Knobs of the bank-autoscaling controller. All integer-valued so scheme
/// configs stay `Eq`/hashable and the controller is bit-deterministic; a
/// sweep grids aggressiveness by listing several configs on the scheme
/// axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Master switch. `false` reproduces the static parent scheme's
    /// numbers byte for byte (no gating, no retention energy, no resize
    /// stats) — the golden tests pin this.
    #[serde(default = "default_true")]
    pub enabled: bool,
    /// Cycles per controller epoch (decisions happen at epoch boundaries).
    #[serde(default = "default_epoch")]
    pub epoch_cycles: u64,
    /// Grow when mean occupancy exceeds this percentage of the powered
    /// capacity (pressure also counts replay/squash feedback, below).
    #[serde(default = "default_grow")]
    pub grow_occupancy_pct: u32,
    /// Shrink when mean occupancy falls below this percentage of the
    /// powered capacity.
    #[serde(default = "default_shrink")]
    pub shrink_occupancy_pct: u32,
    /// Consecutive agreeing epochs required before a resize fires — the
    /// hysteresis that keeps the controller from thrashing on bursty
    /// phases.
    #[serde(default = "default_hysteresis")]
    pub hysteresis_epochs: u32,
    /// Floor on powered banks (never gate below this).
    #[serde(default = "default_min_banks")]
    pub min_banks: usize,
    /// Replay-cancel + squash-removed events per epoch above which the
    /// window is "noisy": a shrink is vetoed and the pressure votes to
    /// grow (replayed and re-fetched work wants queue space).
    #[serde(default = "default_guard")]
    pub feedback_guard: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            enabled: default_true(),
            epoch_cycles: default_epoch(),
            grow_occupancy_pct: default_grow(),
            shrink_occupancy_pct: default_shrink(),
            hysteresis_epochs: default_hysteresis(),
            min_banks: default_min_banks(),
            feedback_guard: default_guard(),
        }
    }
}

impl AdaptiveConfig {
    /// A controller that never acts — the scheme then *is* its static
    /// parent.
    #[must_use]
    pub fn disabled() -> Self {
        AdaptiveConfig {
            enabled: false,
            ..AdaptiveConfig::default()
        }
    }
}

/// Per-side bank autoscaling state. Shared verbatim by the event-driven
/// queue below and the scan twin in [`reference`](crate::reference), so the
/// two models cannot diverge on a decision.
#[derive(Clone, Debug)]
pub(crate) struct BankController {
    cfg: AdaptiveConfig,
    /// Physical banks (the ceiling).
    banks: usize,
    bank_entries: usize,
    /// Physical entry capacity (powered capacity is clamped to it).
    capacity: usize,
    /// Banks currently powered.
    powered: usize,
    cycle_in_epoch: u64,
    occ_sum: u64,
    /// Cancels + squash-removed entries this epoch.
    feedback: u64,
    grow_streak: u32,
    shrink_streak: u32,
    resize_events: u64,
    gated_bank_cycles: u64,
}

impl BankController {
    pub(crate) fn new(cfg: AdaptiveConfig, capacity: usize, banks: usize) -> Self {
        let mut cfg = cfg;
        cfg.min_banks = cfg.min_banks.clamp(1, banks);
        cfg.epoch_cycles = cfg.epoch_cycles.max(1);
        cfg.hysteresis_epochs = cfg.hysteresis_epochs.max(1);
        BankController {
            cfg,
            banks,
            bank_entries: capacity.div_ceil(banks),
            capacity,
            powered: banks,
            cycle_in_epoch: 0,
            occ_sum: 0,
            feedback: 0,
            grow_streak: 0,
            shrink_streak: 0,
            resize_events: 0,
            gated_bank_cycles: 0,
        }
    }

    /// Entries dispatch may currently use.
    pub(crate) fn effective_capacity(&self) -> usize {
        if self.cfg.enabled {
            (self.powered * self.bank_entries).min(self.capacity)
        } else {
            self.capacity
        }
    }

    /// Banks currently powered.
    pub(crate) fn powered(&self) -> usize {
        self.powered
    }

    /// `(resize_events, gated_bank_cycles)` so far.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.resize_events, self.gated_bank_cycles)
    }

    /// Records replay/squash feedback (cancels and squash-removed entries).
    pub(crate) fn note_feedback(&mut self, events: u64) {
        if self.cfg.enabled {
            self.feedback += events;
        }
    }

    /// Ticks that can run before one closes an epoch (unbounded when the
    /// controller is off: its tick does nothing).
    pub(crate) fn ticks_before_boundary(&self) -> u64 {
        if self.cfg.enabled {
            self.cfg.epoch_cycles - 1 - self.cycle_in_epoch
        } else {
            u64::MAX
        }
    }

    /// One cycle's controller update with the side's current occupancy.
    /// Called exactly once per `issue_cycle`; at an epoch boundary it may
    /// grow or (if occupancy already fits) shrink the powered-bank count.
    pub(crate) fn tick(&mut self, len: usize) {
        if !self.cfg.enabled {
            return;
        }
        self.gated_bank_cycles += (self.banks - self.powered) as u64;
        self.occ_sum += len as u64;
        self.cycle_in_epoch += 1;
        if self.cycle_in_epoch < self.cfg.epoch_cycles {
            return;
        }
        // Epoch boundary. Everything below is integer arithmetic on
        // model-independent quantities: both simulation models run the
        // identical update and land on the identical powered-bank count.
        let cap = self.effective_capacity() as u128;
        let occ = self.occ_sum as u128 * 100;
        let epoch = u128::from(self.cycle_in_epoch);
        let noisy = self.feedback > self.cfg.feedback_guard;
        if occ >= u128::from(self.cfg.grow_occupancy_pct) * cap * epoch || noisy {
            self.grow_streak = self.grow_streak.saturating_add(1);
            self.shrink_streak = 0;
        } else if occ <= u128::from(self.cfg.shrink_occupancy_pct) * cap * epoch {
            self.shrink_streak = self.shrink_streak.saturating_add(1);
            self.grow_streak = 0;
        } else {
            self.grow_streak = 0;
            self.shrink_streak = 0;
        }
        if self.grow_streak >= self.cfg.hysteresis_epochs && self.powered < self.banks {
            self.powered += 1;
            self.resize_events += 1;
            self.grow_streak = 0;
        } else if self.shrink_streak >= self.cfg.hysteresis_epochs
            && self.powered > self.cfg.min_banks
            && len <= (self.powered - 1) * self.bank_entries
        {
            // Shrink-safety: the gate is a capacity limit, and it only
            // tightens when current occupancy already fits — no live entry,
            // listed waiter or held replay entry is ever displaced. If
            // occupancy doesn't fit yet, the saturated streak retries at
            // the next boundary.
            self.powered -= 1;
            self.resize_events += 1;
            self.shrink_streak = 0;
        }
        self.cycle_in_epoch = 0;
        self.occ_sum = 0;
        self.feedback = 0;
    }
}

/// One banked CAM/RAM queue side with its autoscaling controller. The
/// queue mechanics are the event-driven ones of [`cam`](crate::cam).
#[derive(Clone, Debug)]
struct AdaptiveArray {
    store: EntryStore,
    /// `tag → [waiting (slot, operand)]`.
    waiters: WakeupMap,
    bank_entries: usize,
    ctrl: BankController,
    /// Squash/cancel scratch (doomed slots), reused across recoveries.
    doomed: Vec<u32>,
}

impl AdaptiveArray {
    fn new(capacity: usize, banks: usize, regs: [usize; 2], adaptive: AdaptiveConfig) -> Self {
        assert!(capacity > 0 && banks > 0);
        AdaptiveArray {
            store: EntryStore::new(capacity),
            waiters: WakeupMap::new(capacity, regs),
            bank_entries: capacity.div_ceil(banks),
            ctrl: BankController::new(adaptive, capacity, banks),
            doomed: Vec::with_capacity(capacity),
        }
    }

    fn active_banks(&self) -> usize {
        self.store.len().div_ceil(self.bank_entries)
    }

    fn dispatch(&mut self, d: &DispatchInst) {
        let e = Entry::new(d);
        let slot = self.store.insert(&e);
        for (i, ready) in e.ready.iter().enumerate() {
            if !ready {
                self.waiters
                    .listen(e.srcs[i].expect("unready operand has a tag"), slot, i);
            }
        }
    }

    fn hold(&mut self, slot: u32) {
        self.store.set_held(slot);
    }

    fn cancel(&mut self, tag: PhysReg) {
        let mut doomed = std::mem::take(&mut self.doomed);
        doomed.clear();
        let store = &self.store;
        store.for_each_live(|slot| {
            if store.srcs(slot).contains(&Some(tag)) {
                doomed.push(slot);
            }
        });
        for &slot in &doomed {
            let srcs = self.store.srcs(slot);
            for (i, src) in srcs.iter().enumerate() {
                if *src == Some(tag) && self.store.is_ready(slot, i) {
                    self.store.clear_ready(slot, i);
                    self.waiters.listen(tag, slot, i);
                }
            }
            self.store.clear_held(slot);
        }
        self.ctrl.note_feedback(1);
        self.doomed = doomed;
    }

    fn squash(&mut self, from: InstId) {
        let mut doomed = std::mem::take(&mut self.doomed);
        doomed.clear();
        let store = &self.store;
        store.for_each_live(|slot| {
            if store.id(slot) >= from {
                doomed.push(slot);
            }
        });
        for &slot in &doomed {
            if !self.store.all_ready(slot) {
                let srcs = self.store.srcs(slot);
                for (i, src) in srcs.iter().enumerate() {
                    if !self.store.is_ready(slot, i) {
                        self.waiters
                            .unlisten(src.expect("unready operand has a tag"), slot);
                    }
                }
            }
            self.store.remove(slot);
        }
        self.ctrl.note_feedback(doomed.len() as u64);
        self.doomed = doomed;
    }

    fn wakeup(&mut self, tag: PhysReg) -> WakeupEvent {
        let event = WakeupEvent {
            banks: self.active_banks(),
            comparators: self.store.unready_operand_count(),
        };
        let store = &mut self.store;
        self.waiters.wake(tag, |w| {
            debug_assert!(!store.is_ready(w.slot, w.operand as usize), "double wakeup");
            store.set_ready(w.slot, w.operand as usize);
        });
        event
    }
}

/// The adaptive-geometry CAM issue queue (`IQ_64_64_adapt`).
///
/// # Example
///
/// ```
/// use diq_core::SchedulerConfig;
/// use diq_isa::ProcessorConfig;
///
/// let s = SchedulerConfig::adaptive_iq_64_64().build(&ProcessorConfig::hpca2004());
/// assert_eq!(s.name(), "IQ_64_64_adapt");
/// ```
#[derive(Debug)]
pub struct AdaptiveCamIssueQueue {
    name: String,
    int: AdaptiveArray,
    fp: AdaptiveArray,
    enabled: bool,
    energy_model: CamEnergy,
    meter: EnergyMeter,
    topology: FuTopology,
    tech: TechParams,
    /// Per-cycle selection scratch, reused across cycles.
    candidates: Vec<(u64, Side, u32)>,
}

impl AdaptiveCamIssueQueue {
    /// Builds an adaptive CAM issue queue with `int_entries`/`fp_entries`
    /// entries in `banks` banks per side and the given controller knobs.
    /// Prefer [`SchedulerConfig`](crate::SchedulerConfig) in application
    /// code.
    #[must_use]
    pub fn new(
        name: String,
        int_entries: usize,
        fp_entries: usize,
        banks: usize,
        adaptive: AdaptiveConfig,
        topology: FuTopology,
        cfg: &ProcessorConfig,
    ) -> Self {
        let tech = TechParams::um100();
        let regs = [
            cfg.phys_regs(diq_isa::RegClass::Int),
            cfg.phys_regs(diq_isa::RegClass::Fp),
        ];
        AdaptiveCamIssueQueue {
            name,
            int: AdaptiveArray::new(int_entries, banks, regs, adaptive),
            fp: AdaptiveArray::new(fp_entries, banks, regs, adaptive),
            enabled: adaptive.enabled,
            energy_model: CamEnergy::new(int_entries, banks, &topology, &tech),
            meter: EnergyMeter::new(),
            topology,
            tech,
            // Sized up front: capacity gating shifts occupancy over the
            // whole run, so — unlike the static CAM — the selection scratch
            // cannot be trusted to reach its high-water mark during warm-up
            // (the steady-state allocation tests hold every scheme to zero
            // mid-run growth).
            candidates: Vec::with_capacity(int_entries + fp_entries),
        }
    }

    fn array(&mut self, side: Side) -> &mut AdaptiveArray {
        match side {
            Side::Int => &mut self.int,
            Side::Fp => &mut self.fp,
        }
    }

    /// One cycle's retention energy of the powered banks.
    fn bank_idle_pj(&self) -> f64 {
        (self.int.ctrl.powered() + self.fp.ctrl.powered()) as f64 * self.energy_model.bank_idle
    }
}

impl Scheduler for AdaptiveCamIssueQueue {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, d: &DispatchInst, _now: Cycle) -> Result<(), DispatchStall> {
        let side = d.side();
        let array = self.array(side);
        if array.store.len() >= array.ctrl.effective_capacity() {
            return Err(DispatchStall::Full);
        }
        array.dispatch(d);
        self.meter
            .add(Component::Buff, self.energy_model.entry_write);
        Ok(())
    }

    fn issue_cycle(&mut self, _now: Cycle, sink: &mut dyn IssueSink) {
        // Retention of what is powered this cycle, before any selection
        // work — one meter event, mirrored exactly by the scan twin.
        if self.enabled {
            self.meter.add(Component::BankIdle, self.bank_idle_pj());
        }
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        for (side, array) in [(Side::Int, &self.int), (Side::Fp, &self.fp)] {
            let before = candidates.len();
            array
                .store
                .for_each_selectable(|slot| candidates.push((array.store.id(slot).0, side, slot)));
            if array.store.len() > 0 {
                self.meter.add(
                    Component::Select,
                    self.energy_model
                        .select
                        .select_energy_pj(&self.tech, candidates.len() - before),
                );
            }
        }
        candidates.sort_unstable_by_key(|c| c.0);
        for &(age, side, slot) in &candidates {
            let array = match side {
                Side::Int => &mut self.int,
                Side::Fp => &mut self.fp,
            };
            let e = array.store.snapshot(slot);
            if sink.try_issue(InstId(age), e.op, None) {
                if e.srcs.iter().flatten().any(|&r| sink.is_spec_ready(r)) {
                    array.hold(slot);
                } else {
                    array.store.remove(slot);
                }
                self.meter
                    .add(Component::Buff, self.energy_model.entry_read);
                let (mux, pj) = self.energy_model.mux.event(e.op);
                self.meter.add(mux, pj);
            }
        }
        self.candidates = candidates;
        // End-of-cycle controller sample: post-issue occupancy per side.
        let len = self.int.store.len();
        self.int.ctrl.tick(len);
        let len = self.fp.store.len();
        self.fp.ctrl.tick(len);
    }

    fn skip_idle(&mut self, _now: Cycle, cycles: u64, _refused: Option<&DispatchInst>) -> u64 {
        // As the static CAM, plus the controller: retention and both ticks
        // every cycle. A tick that closes an epoch may resize, and a grown
        // capacity can admit that same cycle's dispatch, so the replay
        // stops short of the next epoch boundary.
        debug_assert_eq!(
            self.int.store.selectable_count() + self.fp.store.selectable_count(),
            0,
            "idle cycle with a selectable entry"
        );
        let cycles = cycles
            .min(self.int.ctrl.ticks_before_boundary())
            .min(self.fp.ctrl.ticks_before_boundary());
        let bank_idle = self.bank_idle_pj();
        let pj = self.energy_model.select.select_energy_pj(&self.tech, 0);
        let lens = [self.int.store.len(), self.fp.store.len()];
        for _ in 0..cycles {
            if self.enabled {
                self.meter.add(Component::BankIdle, bank_idle);
            }
            for len in lens {
                if len > 0 {
                    self.meter.add(Component::Select, pj);
                }
            }
            self.int.ctrl.tick(lens[0]);
            self.fp.ctrl.tick(lens[1]);
        }
        cycles
    }

    fn on_result(&mut self, dst: PhysReg, _now: Cycle) {
        let mut banks = 0;
        let mut listening = 0;
        match dst.class() {
            RegClass::Int => {
                let ev = self.int.wakeup(dst);
                banks += ev.banks;
                listening += ev.comparators;
            }
            RegClass::Fp => {
                let ev = self.fp.wakeup(dst);
                banks += ev.banks;
                listening += ev.comparators;
                let ev = self.int.wakeup(dst);
                banks += ev.banks;
                listening += ev.comparators;
            }
        }
        self.meter.add(
            Component::Wakeup,
            banks as f64 * self.energy_model.bank_broadcast
                + listening as f64 * self.energy_model.matchline,
        );
    }

    fn on_mispredict(&mut self) {
        // No steering tables, like the static CAM.
    }

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.squash(from);
    }

    fn cancel(&mut self, tag: PhysReg) {
        match tag.class() {
            RegClass::Int => self.int.cancel(tag),
            RegClass::Fp => {
                self.fp.cancel(tag);
                self.int.cancel(tag);
            }
        }
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.int.store.len(), self.fp.store.len())
    }

    fn energy(&self) -> &EnergyMeter {
        &self.meter
    }

    fn fu_topology(&self) -> &FuTopology {
        &self.topology
    }

    fn adaptive_stats(&self) -> (u64, u64) {
        let (ri, gi) = self.int.ctrl.stats();
        let (rf, gf) = self.fp.ctrl.stats();
        (ri + rf, gi + gf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{di, BoundedSink};
    use diq_isa::OpClass;

    fn tiny(adaptive: AdaptiveConfig) -> AdaptiveCamIssueQueue {
        let cfg = ProcessorConfig::hpca2004();
        AdaptiveCamIssueQueue::new(
            "test".into(),
            8,
            8,
            4,
            adaptive,
            FuTopology::Shared { pool: cfg.fus },
            &cfg,
        )
    }

    fn idle_cycles(s: &mut AdaptiveCamIssueQueue, n: u64) {
        for c in 0..n {
            let mut sink = BoundedSink::all_ready();
            s.issue_cycle(c, &mut sink);
        }
    }

    #[test]
    fn controller_gates_banks_on_an_empty_queue() {
        let cfg = AdaptiveConfig {
            epoch_cycles: 8,
            hysteresis_epochs: 1,
            min_banks: 1,
            ..AdaptiveConfig::default()
        };
        let mut s = tiny(cfg);
        // 3 epochs of emptiness: each may shrink one bank, down to the
        // floor of 1 powered bank per side.
        idle_cycles(&mut s, 8 * 3);
        assert_eq!(s.int.ctrl.powered(), 1);
        assert_eq!(s.int.ctrl.effective_capacity(), 2);
        let (resizes, gated) = s.adaptive_stats();
        assert!(resizes >= 6, "both sides shrink: got {resizes}");
        assert!(gated > 0, "gated bank-cycles accumulate");
        assert!(
            s.energy().get(Component::BankIdle) > 0.0,
            "powered banks pay retention"
        );
    }

    #[test]
    fn gated_capacity_stalls_dispatch_and_pressure_grows_it_back() {
        let cfg = AdaptiveConfig {
            epoch_cycles: 4,
            hysteresis_epochs: 1,
            min_banks: 1,
            ..AdaptiveConfig::default()
        };
        let mut s = tiny(cfg);
        idle_cycles(&mut s, 4 * 3); // shrink to 1 bank = 2 entries
        assert_eq!(s.int.ctrl.effective_capacity(), 2);
        // Fill to the gated capacity with unready entries: the third
        // dispatch stalls even though physical capacity is 8.
        for id in 1..=2 {
            let mut d = di(id, OpClass::IntAlu, Some(id as u8), [Some(40), None]);
            d.srcs_ready = [false, true];
            s.try_dispatch(&d, 0).unwrap();
        }
        let mut d = di(3, OpClass::IntAlu, Some(3), [Some(40), None]);
        d.srcs_ready = [false, true];
        assert_eq!(s.try_dispatch(&d, 0).unwrap_err(), DispatchStall::Full);
        // Full-at-2-entries occupancy is 100% of powered capacity: the
        // controller must grow a bank back within an epoch or two.
        idle_cycles(&mut s, 4 * 2);
        assert!(s.int.ctrl.powered() >= 2, "pressure regrows banks");
        assert!(s.int.ctrl.effective_capacity() >= 4);
        // The waiters listed while gated are intact: the wakeup still
        // reaches both entries and they issue.
        s.on_result(diq_isa::PhysReg::new(RegClass::Int, 40), 99);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(99, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1), InstId(2)]);
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn shrink_defers_until_occupancy_fits() {
        let cfg = AdaptiveConfig {
            epoch_cycles: 4,
            hysteresis_epochs: 1,
            // Shrink whenever below 60% so a half-full queue still votes
            // to shrink — but the resize must wait for occupancy to fit.
            shrink_occupancy_pct: 60,
            min_banks: 1,
            ..AdaptiveConfig::default()
        };
        let mut s = tiny(cfg);
        // 3 held-style unready entries occupy 3 of 8 entries (38% < 60%).
        for id in 1..=3 {
            let mut d = di(id, OpClass::IntAlu, Some(id as u8), [Some(40), None]);
            d.srcs_ready = [false, true];
            s.try_dispatch(&d, 0).unwrap();
        }
        idle_cycles(&mut s, 4 * 4);
        // 3 entries need ceil(3/2)=2 banks; the controller may shrink to 2
        // but never below — the occupancy-fit guard holds.
        assert!(
            s.int.ctrl.effective_capacity() >= 3,
            "occupancy never exceeds powered capacity: cap {} for 3 live entries",
            s.int.ctrl.effective_capacity()
        );
        assert_eq!(s.occupancy().0, 3, "no entry was displaced by shrinks");
        // All three still wake and drain.
        s.on_result(diq_isa::PhysReg::new(RegClass::Int, 40), 99);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(99, &mut sink);
        assert_eq!(sink.issued.len(), 3);
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn disabled_controller_never_gates_or_charges_retention() {
        let mut s = tiny(AdaptiveConfig::disabled());
        idle_cycles(&mut s, 64);
        assert_eq!(s.int.ctrl.powered(), 4);
        assert_eq!(s.int.ctrl.effective_capacity(), 8);
        assert_eq!(s.adaptive_stats(), (0, 0));
        assert_eq!(s.energy().get(Component::BankIdle), 0.0);
    }
}
