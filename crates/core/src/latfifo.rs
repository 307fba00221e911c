//! The `LatFIFO` scheme: latency-based placement into FP FIFOs.
//!
//! Integer instructions use the same dependence-steered FIFOs as
//! `IssueFIFO`. FP instructions are placed by *estimated issue time*
//! (Section 3.1): among the non-full queues whose tail is expected to issue
//! at least one cycle before this instruction, pick the one whose tail
//! issues latest; otherwise an empty queue; otherwise stall. Issue still
//! takes each queue's head, which polls the ready-bit scoreboard.

use crate::energy::FifoEnergy;
use crate::estimate::IssueTimeEstimator;
use crate::fifo::{self, poll_heads, Candidate, FifoArray, FifoEntry};
use crate::fu::FuTopology;
use crate::{DispatchInst, DispatchStall, IssueSink, Scheduler, Side};
use diq_isa::{Cycle, InstId, PhysReg, ProcessorConfig};
use diq_power::{Component, EnergyMeter, TechParams};
use std::collections::VecDeque;

/// FP FIFOs placed by estimated issue time.
#[derive(Clone, Debug)]
struct LatQueues {
    queues: Vec<VecDeque<FifoEntry>>,
    /// Each entry's issue estimate, parallel to `queues` — placement only
    /// needs the tails', but a wrong-path squash must re-anchor `tail_est`
    /// on whatever entry survives as the new tail.
    ests: Vec<VecDeque<Cycle>>,
    capacity: usize,
    /// Estimated issue cycle of each queue's tail (`None` when empty).
    tail_est: Vec<Option<Cycle>>,
}

impl LatQueues {
    fn new(queues: usize, capacity: usize) -> Self {
        assert!(queues > 0 && capacity > 0);
        LatQueues {
            queues: fifo::reserved(queues, capacity),
            ests: fifo::reserved(queues, capacity),
            capacity,
            tail_est: vec![None; queues],
        }
    }

    fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn try_dispatch(&mut self, d: &DispatchInst, est: Cycle) -> Result<usize, DispatchStall> {
        // Non-full queues whose tail is expected to issue ≥1 cycle earlier;
        // among them, the latest tail ("leaves more opportunities for
        // younger instructions").
        let q = self
            .queues
            .iter()
            .enumerate()
            .filter(|(i, q)| q.len() < self.capacity && self.tail_est[*i].is_some_and(|t| t < est))
            .max_by_key(|(i, _)| self.tail_est[*i])
            .map(|(i, _)| i)
            .or_else(|| self.queues.iter().position(VecDeque::is_empty));
        let q = q.ok_or(DispatchStall::NoEmptyQueue)?;
        self.queues[q].push_back(FifoEntry::new(d));
        self.ests[q].push_back(est);
        self.tail_est[q] = Some(est);
        Ok(q)
    }

    fn pop_head(&mut self, q: usize) {
        self.queues[q].pop_front().expect("pop from empty queue");
        self.ests[q].pop_front();
        if self.queues[q].is_empty() {
            self.tail_est[q] = None;
        }
    }

    /// Issues or holds the head of queue `q` (the hold protocol of
    /// [`FifoArray::hold_head`]).
    fn take_head(&mut self, q: usize, spec: bool) {
        if spec {
            self.queues[q]
                .front_mut()
                .expect("hold on empty queue")
                .held = true;
        } else {
            self.pop_head(q);
        }
    }

    /// Wrong-path squash: drop the doomed suffix of each queue and restore
    /// `tail_est` from the surviving tail's recorded estimate.
    fn squash(&mut self, from: InstId) {
        for q in 0..self.queues.len() {
            while self.queues[q].back().is_some_and(|e| e.id >= from) {
                self.queues[q].pop_back();
                self.ests[q].pop_back();
            }
            self.tail_est[q] = self.ests[q].back().copied();
        }
    }
}

/// The `LatFIFO` scheduler.
///
/// # Example
///
/// ```
/// use diq_core::SchedulerConfig;
/// use diq_isa::ProcessorConfig;
///
/// let s = SchedulerConfig::lat_fifo(16, 16, 8, 16).build(&ProcessorConfig::hpca2004());
/// assert_eq!(s.name(), "LatFIFO_16x16_8x16");
/// ```
#[derive(Debug)]
pub struct LatFifo {
    name: String,
    int: FifoArray,
    fp: LatQueues,
    estimator: IssueTimeEstimator,
    energy_model: [FifoEnergy; 2],
    meter: EnergyMeter,
    topology: FuTopology,
    candidates: Vec<Candidate>,
}

impl LatFifo {
    /// Builds a LatFIFO scheduler. Prefer
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
        LatFifo {
            name,
            int: FifoArray::new(int.0, int.1),
            fp: LatQueues::new(fp.0, fp.1),
            estimator: IssueTimeEstimator::new(cfg.lat, cfg.mem.dl1.latency),
            energy_model: [
                FifoEnergy::new(int.1, int.0, cfg.phys_int_regs, &topology, &tech),
                FifoEnergy::new(fp.1, fp.0, cfg.phys_fp_regs, &topology, &tech),
            ],
            meter: EnergyMeter::new(),
            topology,
            candidates: Vec::new(),
        }
    }
}

impl Scheduler for LatFifo {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, d: &DispatchInst, now: Cycle) -> Result<(), DispatchStall> {
        // The estimator runs for *every* dispatched instruction — integer
        // results feed FP estimates (loads especially).
        let side = d.side();
        let em = self.energy_model[side.index()];
        let reads = d.src_arch.iter().flatten().count() as u64;
        self.meter
            .add_events(Component::Qrename, reads, em.qrename_read);

        // Tentative placement first: the estimator must only advance when
        // the instruction actually dispatches (otherwise a stalled
        // instruction would be re-estimated with doubled latency).
        match side {
            Side::Int => {
                self.int.try_dispatch(d)?;
            }
            Side::Fp => {
                let est = self.peek_estimate(d, now);
                self.fp.try_dispatch(d, est)?;
            }
        }
        let _ = self
            .estimator
            .estimate_parts(d.op, d.src_arch, d.dst_arch, now);
        self.meter.add(Component::Qrename, em.qrename_write);
        self.meter.add(Component::Fifo, em.fifo_write);
        Ok(())
    }

    fn issue_cycle(&mut self, _now: Cycle, sink: &mut dyn IssueSink) {
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        let [em_int, em_fp] = &self.energy_model;
        poll_heads(
            self.int.heads(),
            Side::Int,
            em_int,
            &mut self.meter,
            sink,
            &mut candidates,
        );
        poll_heads(
            fifo::heads(&self.fp.queues),
            Side::Fp,
            em_fp,
            &mut self.meter,
            sink,
            &mut candidates,
        );
        fifo::issue_oldest(
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

    fn on_result(&mut self, dst: PhysReg, _now: Cycle) {
        let em = self.energy_model[dst.class().index()];
        self.meter.add(Component::RegsReady, em.regs_ready_write);
    }

    fn on_mispredict(&mut self) {
        self.int.clear_steering();
        // FP placement uses estimates, not register steering; nothing to
        // clear there (estimates are heuristic and survive mispredictions).
    }

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.squash(from);
        // The issue-time estimator keeps whatever the wrong path taught it:
        // it is a heuristic table indexed by architectural register, exactly
        // like a real latency predictor polluted by squashed work.
    }

    fn cancel(&mut self, tag: PhysReg) {
        self.int.cancel(tag);
        fifo::cancel(&mut self.fp.queues, tag);
        // The estimator likewise keeps its hit-assuming estimate — it is
        // exactly the predictor whose misprediction the replay pays for.
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

impl LatFifo {
    /// Computes the issue estimate *without* committing estimator state
    /// (used to test queue eligibility before placement succeeds).
    fn peek_estimate(&self, d: &DispatchInst, now: Cycle) -> Cycle {
        let mut issue = now + 1;
        for src in d.src_arch.into_iter().flatten() {
            issue = issue.max(self.estimator.operand_cycle(src));
        }
        issue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{fp_di, BoundedSink};
    use diq_isa::OpClass;

    fn queues() -> LatQueues {
        LatQueues::new(2, 4)
    }

    fn entry(id: u64) -> DispatchInst {
        fp_di(id, OpClass::FpAdd, Some(4), [None, None])
    }

    #[test]
    fn interleaves_chains_by_estimate() {
        let mut q = queues();
        // Tail of queue 0 estimated to issue at cycle 5.
        q.try_dispatch(&entry(1), 5).unwrap();
        // An instruction estimated at 6 can go behind it (5 + 1 <= 6).
        let placed = q.try_dispatch(&entry(2), 6).unwrap();
        assert_eq!(placed, 0);
        // An instruction estimated at 6 cannot go behind the new tail
        // (6 + 1 > 6) and takes the empty queue.
        let placed = q.try_dispatch(&entry(3), 6).unwrap();
        assert_eq!(placed, 1);
    }

    #[test]
    fn prefers_latest_eligible_tail() {
        let mut q = LatQueues::new(3, 4);
        // Queue 0's tail estimated at 3, queue 1's at 7 (placed via the
        // est-ordering: 3 first, then 7 goes behind it — so seed queue 1
        // directly with a fresh dispatch at est 7 after filling queue 0 to
        // make it ineligible is fiddly; instead set the tails explicitly).
        q.try_dispatch(&entry(1), 3).unwrap(); // queue 0, tail est 3
        q.try_dispatch(&entry(2), 2).unwrap(); // queue 1 (2 < 3+1), tail est 2
        q.tail_est[1] = Some(7);
        // est 9: both queues eligible; the later tail (7) wins.
        let placed = q.try_dispatch(&entry(3), 9).unwrap();
        assert_eq!(placed, 1);
    }

    #[test]
    fn stalls_when_nothing_eligible_and_no_empty() {
        let mut q = LatQueues::new(1, 1);
        q.try_dispatch(&entry(1), 5).unwrap();
        let err = q.try_dispatch(&entry(2), 6).unwrap_err();
        assert_eq!(err, DispatchStall::NoEmptyQueue);
    }

    #[test]
    fn empty_queue_resets_estimate() {
        let mut q = queues();
        q.try_dispatch(&entry(1), 5).unwrap();
        q.pop_head(0);
        assert_eq!(q.tail_est[0], None);
    }

    #[test]
    fn scheduler_end_to_end_fp_flow() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::lat_fifo(4, 8, 4, 8).build(&cfg);
        // Four independent multiplies fill the four queues (they all want to
        // issue in the same cycle, so none can sit behind another)…
        for i in 0..4 {
            s.try_dispatch(
                &fp_di(i, OpClass::FpMul, Some(4 + i as u8), [None, None]),
                0,
            )
            .unwrap();
        }
        // …a fifth independent one must stall (estimated issue cycle equals
        // every tail's — an in-order queue could not issue both on time)…
        let err = s
            .try_dispatch(&fp_di(4, OpClass::FpMul, Some(8), [None, None]), 0)
            .unwrap_err();
        assert_eq!(err, DispatchStall::NoEmptyQueue);
        // …but a *dependent* of f4 interleaves fine behind some tail.
        s.try_dispatch(&fp_di(5, OpClass::FpAdd, Some(9), [Some(4), None]), 0)
            .unwrap();
        assert_eq!(s.occupancy().1, 5);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(0, &mut sink);
        assert_eq!(sink.issued.len(), 4, "one issue per queue head");
    }
}
