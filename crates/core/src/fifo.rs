//! Palacharla-style FIFO issue queues (`IssueFIFO`), and the shared FIFO
//! machinery reused by the integer side of `LatFIFO` and `MixBUFF`.
//!
//! The hardware has no wakeup broadcast here: every cycle each queue head
//! reads the 1-bit/register `regs_ready` scoreboard, and a result only
//! writes that bit. The model does exactly the same — heads poll
//! [`IssueSink::is_ready`], so results, squashes and cancels maintain no
//! per-entry ready state, and the energy meter charges one scoreboard read
//! per present operand per head per cycle.

use crate::energy::FifoEnergy;
use crate::fu::FuTopology;
use crate::{DispatchInst, DispatchStall, IssueSink, Scheduler, Side};
use diq_isa::{ArchReg, Cycle, InstId, OpClass, PhysReg, ProcessorConfig};
use diq_power::{Component, EnergyMeter, TechParams};
use std::collections::VecDeque;

/// One queued FIFO instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FifoEntry {
    pub id: InstId,
    pub op: OpClass,
    pub srcs: [Option<PhysReg>; 2],
    /// Issued on a speculative operand and kept in its slot until the miss
    /// cancel returns it to waiting (load-hit speculation). A held head is
    /// invisible to selection and polls nothing.
    pub held: bool,
}

impl FifoEntry {
    pub(crate) fn new(d: &DispatchInst) -> Self {
        FifoEntry {
            id: d.id,
            op: d.op,
            srcs: d.srcs,
            held: false,
        }
    }
}

/// A selection candidate: `(age, side, queue, head)`.
pub(crate) type Candidate = (u64, Side, usize, FifoEntry);

/// The unheld heads of `queues`, as `(queue, entry)`. A held head neither
/// polls the scoreboard nor competes for selection — it already left
/// through the issue port and is waiting for its load to be confirmed or
/// cancelled.
pub(crate) fn heads(
    queues: &[VecDeque<FifoEntry>],
) -> impl Iterator<Item = (usize, FifoEntry)> + '_ {
    queues
        .iter()
        .enumerate()
        .filter_map(|(q, fifo)| fifo.front().filter(|e| !e.held).map(|e| (q, *e)))
}

/// Miss cancel for `tag`: every entry with an operand on `tag` stops being
/// held. Readiness is polled at the heads, so there is nothing to revert.
pub(crate) fn cancel(queues: &mut [VecDeque<FifoEntry>], tag: PhysReg) {
    for e in queues.iter_mut().flatten() {
        if e.srcs.contains(&Some(tag)) {
            e.held = false;
        }
    }
}

/// One cycle's head check for one side: every head reads `regs_ready` for
/// each present operand, ready or not, and the heads whose operands are all
/// ready join `out`.
pub(crate) fn poll_heads(
    heads: impl Iterator<Item = (usize, FifoEntry)>,
    side: Side,
    em: &FifoEnergy,
    meter: &mut EnergyMeter,
    sink: &dyn IssueSink,
    out: &mut Vec<Candidate>,
) {
    for (q, e) in heads {
        meter.add(Component::RegsReady, poll_pj(&e, em));
        if e.srcs.iter().flatten().all(|&r| sink.is_ready(r)) {
            out.push((e.id.0, side, q, e));
        }
    }
}

/// The `RegsReady` energy of one head's scoreboard check: a read per
/// present operand, ready or not. An idle cycle's [`poll_heads`] charges
/// exactly this for every head, which is what a skipped idle cycle
/// replays.
pub(crate) fn poll_pj(e: &FifoEntry, em: &FifoEnergy) -> f64 {
    e.srcs.iter().flatten().count() as f64 * em.regs_ready_read
}

/// The steering-table reads every dispatch attempt pays before the
/// steering decision — also when the attempt is refused (the table is
/// indexed during rename).
pub(crate) fn charge_qrename_reads(d: &DispatchInst, em: &FifoEnergy, meter: &mut EnergyMeter) {
    let reads = d.src_arch.iter().flatten().count() as u64;
    meter.add_events(Component::Qrename, reads, em.qrename_read);
}

/// Offers `candidates` to the sink oldest first. Each accepted head leaves
/// through `take(side, queue, spec)` — `spec` when it consumed a
/// speculative operand and must be held rather than popped — and pays the
/// FIFO read and its result-mux event.
pub(crate) fn issue_oldest(
    candidates: &mut [Candidate],
    energy: &[FifoEnergy; 2],
    meter: &mut EnergyMeter,
    sink: &mut dyn IssueSink,
    mut take: impl FnMut(Side, usize, bool),
) {
    candidates.sort_unstable_by_key(|c| c.0);
    for &(_, side, q, e) in candidates.iter() {
        if sink.try_issue(e.id, e.op, Some((side, q))) {
            take(
                side,
                q,
                e.srcs.iter().flatten().any(|&r| sink.is_spec_ready(r)),
            );
            let em = energy[side.index()];
            meter.add(Component::Fifo, em.fifo_read);
            let (mux, pj) = em.mux.event(e.op);
            meter.add(mux, pj);
        }
    }
}

/// `queues` empty queues with room for `capacity` entries each, built one
/// by one: `vec![VecDeque::with_capacity(..); n]` would clone, and a clone
/// drops the reserved capacity, so the queues would grow mid-run.
pub(crate) fn reserved<T>(queues: usize, capacity: usize) -> Vec<VecDeque<T>> {
    (0..queues)
        .map(|_| VecDeque::with_capacity(capacity))
        .collect()
}

/// An array of FIFO queues for one side of the machine, with the paper's
/// dependence-based steering:
///
/// 1. if a queue's **tail** produces the first operand, append there (stall
///    if it is full and the instruction has no second operand);
/// 2. else if a queue's tail produces the second operand, append there
///    (stall if full);
/// 3. else append to an empty queue (stall if none).
///
/// The steering table maps architectural registers to the queue whose tail
/// is their producer, exactly the structure the paper describes; it is
/// cleared on branch mispredictions.
#[derive(Clone, Debug)]
pub(crate) struct FifoArray {
    queues: Vec<VecDeque<FifoEntry>>,
    capacity: usize,
    /// arch-reg flat index → (queue, producing instruction).
    steer: Vec<Option<(usize, InstId)>>,
    /// Per queue: the architectural register produced by the tail.
    tail_reg: Vec<Option<ArchReg>>,
    /// Per queue: the tail instruction.
    tail_id: Vec<Option<InstId>>,
}

impl FifoArray {
    pub(crate) fn new(queues: usize, capacity: usize) -> Self {
        assert!(queues > 0 && capacity > 0);
        FifoArray {
            queues: reserved(queues, capacity),
            capacity,
            steer: vec![None; 2 * diq_isa::ARCH_REGS_PER_CLASS],
            tail_reg: vec![None; queues],
            tail_id: vec![None; queues],
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn place(&mut self, q: usize, d: &DispatchInst) {
        if let Some(old) = self.tail_reg[q].take() {
            self.steer[old.flat_index()] = None;
        }
        self.queues[q].push_back(FifoEntry::new(d));
        self.tail_id[q] = Some(d.id);
        if let Some(dst) = d.dst_arch {
            self.steer[dst.flat_index()] = Some((q, d.id));
            self.tail_reg[q] = Some(dst);
        } else {
            self.tail_reg[q] = None;
        }
    }

    /// The steering decision, without placing. `Ok(queue)` or a stall.
    fn steer_queue(&self, d: &DispatchInst) -> Result<usize, DispatchStall> {
        let n_srcs = d.src_arch.iter().flatten().count();
        // Rule 1: first operand's producer at a tail.
        if let Some(r) = d.src_arch[0] {
            if let Some((q, pid)) = self.steer[r.flat_index()] {
                if self.tail_id[q] == Some(pid) {
                    if self.queues[q].len() < self.capacity {
                        return Ok(q);
                    }
                    if n_srcs == 1 {
                        return Err(DispatchStall::QueueFull);
                    }
                    // Two operands: fall through to the second operand rule.
                }
            }
        }
        // Rule 2: second operand's producer at a tail.
        if let Some(r) = d.src_arch[1] {
            if let Some((q, pid)) = self.steer[r.flat_index()] {
                if self.tail_id[q] == Some(pid) {
                    if self.queues[q].len() < self.capacity {
                        return Ok(q);
                    }
                    return Err(DispatchStall::QueueFull);
                }
            }
        }
        // Rule 3: an empty queue.
        self.queues
            .iter()
            .position(VecDeque::is_empty)
            .ok_or(DispatchStall::NoEmptyQueue)
    }

    /// Steers and places one instruction.
    pub(crate) fn try_dispatch(&mut self, d: &DispatchInst) -> Result<usize, DispatchStall> {
        let q = self.steer_queue(d)?;
        self.place(q, d);
        Ok(q)
    }

    /// Head candidates: see [`heads`].
    pub(crate) fn heads(&self) -> impl Iterator<Item = (usize, FifoEntry)> + '_ {
        heads(&self.queues)
    }

    /// Marks the head of queue `q` as held after a speculative issue: it
    /// keeps its slot (dispatch still sees a full entry) but stops being a
    /// selection candidate until [`cancel`](Self::cancel) releases it.
    pub(crate) fn hold_head(&mut self, q: usize) {
        self.queues[q].front_mut().expect("hold on empty FIFO").held = true;
    }

    /// Miss cancel for `tag`: see [`cancel`].
    pub(crate) fn cancel(&mut self, tag: PhysReg) {
        cancel(&mut self.queues, tag);
    }

    /// Removes the head of queue `q` after it issued.
    pub(crate) fn pop_head(&mut self, q: usize) {
        let e = self.queues[q].pop_front().expect("pop from empty FIFO");
        if self.tail_id[q] == Some(e.id) {
            // The queue is now empty; drop its steering state.
            if let Some(r) = self.tail_reg[q].take() {
                self.steer[r.flat_index()] = None;
            }
            self.tail_id[q] = None;
        }
    }

    /// Issues or holds the head of queue `q` (see [`issue_oldest`]).
    pub(crate) fn take_head(&mut self, q: usize, spec: bool) {
        if spec {
            self.hold_head(q);
        } else {
            self.pop_head(q);
        }
    }

    /// Wrong-path squash: entries within a FIFO are in dispatch (age) order,
    /// so the doomed entries are a suffix of each queue — pop them from the
    /// back. The steering table is wiped (recovery clears Qrename, as on any
    /// mispredict) and each queue's tail identity is re-anchored on the
    /// surviving tail.
    pub(crate) fn squash(&mut self, from: InstId) {
        for q in 0..self.queues.len() {
            while self.queues[q].back().is_some_and(|e| e.id >= from) {
                self.queues[q].pop_back();
            }
            self.tail_id[q] = self.queues[q].back().map(|e| e.id);
        }
        self.clear_steering();
    }

    /// Clears the steering table (mispredict recovery, as in the paper).
    pub(crate) fn clear_steering(&mut self) {
        self.steer.iter_mut().for_each(|s| *s = None);
        self.tail_reg.iter_mut().for_each(|s| *s = None);
        // tail_id stays: it only matters together with `steer`, which is
        // now empty; it will be rebuilt by subsequent placements.
    }

    #[cfg(test)]
    fn queue_len(&self, q: usize) -> usize {
        self.queues[q].len()
    }
}

/// The `IssueFIFO` scheme: A×B integer FIFOs and C×D FP FIFOs, no wakeup
/// logic — FIFO heads check a 1-bit/register scoreboard every cycle.
///
/// With `distributed_fus`, functional units are attached per queue
/// (`IF_distr`).
///
/// # Example
///
/// ```
/// use diq_core::SchedulerConfig;
/// use diq_isa::ProcessorConfig;
///
/// let sched = SchedulerConfig::issue_fifo(8, 8, 16, 16).build(&ProcessorConfig::hpca2004());
/// assert_eq!(sched.name(), "IssueFIFO_8x8_16x16");
/// ```
#[derive(Debug)]
pub struct IssueFifo {
    name: String,
    int: FifoArray,
    fp: FifoArray,
    energy_model: [FifoEnergy; 2],
    meter: EnergyMeter,
    topology: FuTopology,
    candidates: Vec<Candidate>,
    /// Skip scratch: one idle cycle's head-poll charges, in poll order.
    idle_polls: Vec<f64>,
}

impl IssueFifo {
    /// Builds an IssueFIFO scheduler. Prefer
    /// [`SchedulerConfig`](crate::SchedulerConfig) in application code.
    #[must_use]
    pub fn new(
        name: String,
        int: (usize, usize),
        fp: (usize, usize),
        topology: FuTopology,
        cfg: &ProcessorConfig,
    ) -> Self {
        let tech = TechParams::um100();
        IssueFifo {
            name,
            int: FifoArray::new(int.0, int.1),
            fp: FifoArray::new(fp.0, fp.1),
            energy_model: [
                FifoEnergy::new(int.1, int.0, cfg.phys_int_regs, &topology, &tech),
                FifoEnergy::new(fp.1, fp.0, cfg.phys_fp_regs, &topology, &tech),
            ],
            meter: EnergyMeter::new(),
            topology,
            candidates: Vec::new(),
            idle_polls: Vec::with_capacity(int.0 + fp.0),
        }
    }

    fn array(&mut self, side: Side) -> &mut FifoArray {
        match side {
            Side::Int => &mut self.int,
            Side::Fp => &mut self.fp,
        }
    }
}

impl Scheduler for IssueFifo {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, d: &DispatchInst, _now: Cycle) -> Result<(), DispatchStall> {
        let side = d.side();
        let em = self.energy_model[side.index()];
        charge_qrename_reads(d, &em, &mut self.meter);
        self.array(side).try_dispatch(d)?;
        self.meter.add(Component::Qrename, em.qrename_write);
        self.meter.add(Component::Fifo, em.fifo_write);
        Ok(())
    }

    fn issue_cycle(&mut self, _now: Cycle, sink: &mut dyn IssueSink) {
        // Gather ready heads from both sides, oldest first, and let the sink
        // arbitrate width and functional units.
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        for (side, array) in [(Side::Int, &self.int), (Side::Fp, &self.fp)] {
            let em = &self.energy_model[side.index()];
            poll_heads(
                array.heads(),
                side,
                em,
                &mut self.meter,
                sink,
                &mut candidates,
            );
        }
        issue_oldest(
            &mut candidates,
            &self.energy_model,
            &mut self.meter,
            sink,
            |side, q, spec| match side {
                Side::Int => self.int.take_head(q, spec),
                Side::Fp => self.fp.take_head(q, spec),
            },
        );
        self.candidates = candidates;
    }

    fn skip_idle(&mut self, _now: Cycle, cycles: u64, refused: Option<&DispatchInst>) -> u64 {
        // Heads and their readiness change only on an issue or a result,
        // and steering only on a dispatch or a mispredict: each idle cycle
        // repeats the head polls, and the refused dispatch its steering
        // reads.
        let mut polls = std::mem::take(&mut self.idle_polls);
        polls.clear();
        for (side, array) in [(Side::Int, &self.int), (Side::Fp, &self.fp)] {
            let em = &self.energy_model[side.index()];
            polls.extend(array.heads().map(|(_, e)| poll_pj(&e, em)));
        }
        for _ in 0..cycles {
            for &pj in &polls {
                self.meter.add(Component::RegsReady, pj);
            }
            if let Some(d) = refused {
                let em = &self.energy_model[d.side().index()];
                charge_qrename_reads(d, em, &mut self.meter);
            }
        }
        self.idle_polls = polls;
        cycles
    }

    fn on_result(&mut self, dst: PhysReg, _now: Cycle) {
        let em = self.energy_model[dst.class().index()];
        self.meter.add(Component::RegsReady, em.regs_ready_write);
    }

    fn on_mispredict(&mut self) {
        self.int.clear_steering();
        self.fp.clear_steering();
    }

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.squash(from);
    }

    fn cancel(&mut self, tag: PhysReg) {
        self.int.cancel(tag);
        self.fp.cancel(tag);
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.int.len(), self.fp.len())
    }

    fn energy(&self) -> &EnergyMeter {
        &self.meter
    }

    fn fu_topology(&self) -> &FuTopology {
        &self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{di, BoundedSink};

    fn arr() -> FifoArray {
        FifoArray::new(4, 2)
    }

    fn int(r: u16) -> PhysReg {
        PhysReg::new(diq_isa::RegClass::Int, r)
    }

    #[test]
    fn dependent_goes_behind_its_producer() {
        let mut a = arr();
        let p = di(1, OpClass::IntAlu, Some(3), [None, None]);
        let q1 = a.try_dispatch(&p).unwrap();
        // consumer reads r3 (produced by inst 1, at the tail of q1)
        let c = di(2, OpClass::IntAlu, Some(4), [Some(3), None]);
        let q2 = a.try_dispatch(&c).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(a.queue_len(q1), 2);
    }

    #[test]
    fn independent_instruction_takes_empty_queue() {
        let mut a = arr();
        let q1 = a
            .try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        let q2 = a
            .try_dispatch(&di(2, OpClass::IntAlu, Some(5), [None, None]))
            .unwrap();
        assert_ne!(q1, q2);
    }

    #[test]
    fn stalls_when_no_empty_queue_for_fresh_chain() {
        let mut a = arr();
        for i in 0..4 {
            a.try_dispatch(&di(i, OpClass::IntAlu, Some(i as u8 + 1), [None, None]))
                .unwrap();
        }
        let e = a
            .try_dispatch(&di(9, OpClass::IntAlu, Some(9), [None, None]))
            .unwrap_err();
        assert_eq!(e, DispatchStall::NoEmptyQueue);
    }

    #[test]
    fn one_source_full_queue_stalls_rather_than_spilling() {
        let mut a = arr(); // capacity 2
        a.try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        a.try_dispatch(&di(2, OpClass::IntAlu, Some(3), [Some(3), None]))
            .unwrap();
        // Queue holding r3's chain is now full; a single-source consumer of
        // r3 must stall (paper rule 1), not start a new chain.
        let e = a
            .try_dispatch(&di(3, OpClass::IntAlu, Some(4), [Some(3), None]))
            .unwrap_err();
        assert_eq!(e, DispatchStall::QueueFull);
    }

    #[test]
    fn two_source_full_queue_tries_second_operand() {
        let mut a = arr();
        // Chain A fills queue 0.
        a.try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        a.try_dispatch(&di(2, OpClass::IntAlu, Some(3), [Some(3), None]))
            .unwrap();
        // Chain B sits in queue 1 with space.
        a.try_dispatch(&di(3, OpClass::IntAlu, Some(5), [None, None]))
            .unwrap();
        // Consumer of r3 (full queue) and r5 (queue 1): goes behind r5.
        let q = a
            .try_dispatch(&di(4, OpClass::IntAlu, Some(6), [Some(3), Some(5)]))
            .unwrap();
        assert_eq!(q, 1);
    }

    #[test]
    fn steering_requires_producer_still_at_tail() {
        let mut a = arr();
        let q0 = a
            .try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        // Producer issues and leaves; queue q0 becomes empty.
        a.pop_head(q0);
        // Consumer of r3 must now take an empty queue (possibly the same
        // one), via rule 3 — the steering entry is gone.
        assert!(a.steer[ArchReg::int(3).flat_index()].is_none());
        a.try_dispatch(&di(2, OpClass::IntAlu, Some(4), [Some(3), None]))
            .unwrap();
    }

    #[test]
    fn appending_clears_previous_tail_mapping() {
        let mut a = arr();
        let q = a
            .try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        a.try_dispatch(&di(2, OpClass::IntAlu, Some(4), [Some(3), None]))
            .unwrap();
        // r3's producer is no longer the tail of q (inst 2 is): a new
        // consumer of r3 cannot join the chain mid-queue.
        assert!(a.steer[ArchReg::int(3).flat_index()].is_none());
        assert_eq!(a.tail_reg[q], Some(ArchReg::int(4)));
    }

    #[test]
    fn mispredict_clears_steering_but_keeps_contents() {
        let mut a = arr();
        a.try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        a.clear_steering();
        assert_eq!(a.len(), 1);
        assert!(a.steer.iter().all(Option::is_none));
    }

    #[test]
    fn held_head_blocks_its_queue_until_cancel_then_reissues() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::issue_fifo(4, 4, 4, 4).build(&cfg);
        let tag = int(10);
        // A consumer of the speculating load, and its own dependent queued
        // behind it (same chain — steered to the same FIFO).
        let mut head = di(1, OpClass::IntAlu, Some(3), [Some(10), None]);
        head.srcs_ready = [false, true];
        s.try_dispatch(&head, 0).unwrap();
        s.try_dispatch(&di(2, OpClass::IntAlu, Some(4), [Some(3), None]), 0)
            .unwrap();
        // Before the load's tag is broadcast, the head waits.
        let mut sink = BoundedSink::waiting_on(&[tag, int(3)]);
        s.issue_cycle(0, &mut sink);
        assert!(sink.issued.is_empty(), "head polls an unready operand");
        // Speculative wakeup → the head issues and is held in place.
        s.on_result(tag, 1);
        let mut sink = BoundedSink::waiting_on(&[int(3)]);
        sink.spec = vec![tag];
        s.issue_cycle(1, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
        assert_eq!(s.occupancy().0, 2, "held head keeps its slot");
        // While held, the queue is blocked: no candidate at all.
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(2, &mut sink);
        assert!(sink.issued.is_empty(), "held head is invisible");
        // Cancel, then the true fill: the head issues for real, unblocking
        // its dependent.
        s.cancel(tag);
        s.on_result(tag, 3);
        let mut sink = BoundedSink::waiting_on(&[int(3)]);
        s.issue_cycle(3, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
        s.on_result(int(3), 4);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(4, &mut sink);
        assert_eq!(sink.issued, vec![InstId(2)]);
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn scheduler_issues_only_ready_heads_in_age_order() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::issue_fifo(4, 4, 4, 4).build(&cfg);
        // Two independent chains, both waiting; only the second's operand
        // has been produced.
        s.try_dispatch(&di(1, OpClass::IntAlu, Some(3), [Some(10), None]), 0)
            .unwrap();
        s.try_dispatch(&di(2, OpClass::IntAlu, Some(4), [Some(11), None]), 0)
            .unwrap();
        s.on_result(int(11), 0);
        let mut sink = BoundedSink::waiting_on(&[int(10)]);
        s.issue_cycle(0, &mut sink);
        assert_eq!(sink.issued, vec![InstId(2)]);
        assert_eq!(s.occupancy().0, 1);
    }
}
