//! Timing decorators around the simulator's two plug-in interfaces, and a
//! traced twin of `Point::execute` built from them.
//!
//! [`TimedScheduler`] wraps the `Box<dyn Scheduler>` handed to
//! `Simulator::with_scheduler` and, inside `issue_cycle`, wraps the
//! pipeline's `IssueSink` so the time the scheduler spends calling back into
//! the pipeline is not charged to the core. [`TimedWorkload`] wraps the
//! instruction source. Both forward every call unchanged, so a decorated run
//! produces the same `SimStats` as an undecorated one (proven by
//! `tests/decorators.rs` and re-checked on every traced run).

use crate::probe::{clock_cost_ns, elapsed_ns, Probe, Sampler};
use diq_core::{DispatchInst, DispatchStall, FuTopology, IssueSink, Scheduler, Side};
use diq_exp::Point;
use diq_isa::{Cycle, Inst, InstId, OpClass, PhysReg};
use diq_pipeline::{SimStats, Simulator, SourceCheckpoint, TraceSource, Workload};
use diq_power::EnergyMeter;
use diq_workload::{TraceGenerator, TraceReader, WorkloadSource};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

/// What the scheduler decorator saw over one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoreTrace {
    /// `try_dispatch`.
    pub dispatch: Probe,
    /// `try_dispatch` calls refused with a stall reason.
    pub dispatch_stalls: u64,
    /// `issue_cycle`, self time: the scheduler's `try_issue` callbacks into
    /// the pipeline are excluded.
    pub select: Probe,
    /// `on_result`.
    pub wakeup: Probe,
    /// `squash`, plus `on_mispredict` (timed, not counted).
    pub squash: Probe,
    /// `cancel`.
    pub cancel: Probe,
    /// `IssueSink::try_issue` calls made by the scheduler.
    pub issue_requests: u64,
    /// `try_issue` calls the pipeline granted.
    pub grants: u64,
}

impl CoreTrace {
    fn probes(&mut self) -> [&mut Probe; 5] {
        [
            &mut self.dispatch,
            &mut self.select,
            &mut self.wakeup,
            &mut self.squash,
            &mut self.cancel,
        ]
    }

    /// Adds another run's counters.
    pub fn merge(&mut self, o: &CoreTrace) {
        let mut o = o.clone();
        for (a, b) in self.probes().into_iter().zip(o.probes()) {
            a.merge(b);
        }
        self.dispatch_stalls += o.dispatch_stalls;
        self.issue_requests += o.issue_requests;
        self.grants += o.grants;
    }

    /// Estimated seconds in core calls.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        [
            &self.dispatch,
            &self.select,
            &self.wakeup,
            &self.squash,
            &self.cancel,
        ]
        .iter()
        .map(|p| p.busy_s())
        .sum()
    }
}

/// A scheduler that forwards every call to `inner`, counting each and
/// timing a sampled subset into a shared [`CoreTrace`].
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    sampler: Sampler,
    trace: Rc<RefCell<CoreTrace>>,
}

impl TimedScheduler {
    /// Decorates `inner`, timing one call in `period`; read the counters
    /// through `trace` after the run.
    #[must_use]
    pub fn new(inner: Box<dyn Scheduler>, period: u64, trace: Rc<RefCell<CoreTrace>>) -> Self {
        TimedScheduler {
            inner,
            sampler: Sampler::new(period, 0x9e37_79b9_7f4a_7c15),
            trace,
        }
    }

    /// Times one always-timed call into `probe` (`count`: whether it counts
    /// as a call of the probe or rides along as `extra_ns`).
    fn always<T>(
        &mut self,
        count: bool,
        probe: fn(&mut CoreTrace) -> &mut Probe,
        f: impl FnOnce(&mut dyn Scheduler) -> T,
    ) -> T {
        let t = Instant::now();
        let out = f(&mut *self.inner);
        let ns = elapsed_ns(t);
        let mut tr = self.trace.borrow_mut();
        let p = probe(&mut tr);
        if count {
            p.timed(ns);
        } else {
            p.extra_ns += ns;
        }
        out
    }

    /// Counts one call into `probe`, timing it when sampled.
    fn sampled<T>(
        &mut self,
        probe: fn(&mut CoreTrace) -> &mut Probe,
        f: impl FnOnce(&mut dyn Scheduler) -> T,
    ) -> T {
        if self.sampler.hit() {
            return self.always(true, probe, f);
        }
        probe(&mut self.trace.borrow_mut()).calls += 1;
        f(&mut *self.inner)
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn try_dispatch(&mut self, inst: &DispatchInst, now: Cycle) -> Result<(), DispatchStall> {
        let out = self.sampled(|t| &mut t.dispatch, |s| s.try_dispatch(inst, now));
        if out.is_err() {
            self.trace.borrow_mut().dispatch_stalls += 1;
        }
        out
    }

    fn issue_cycle(&mut self, now: Cycle, sink: &mut dyn IssueSink) {
        let timed = self.sampler.hit();
        let mut wrapped = TimedSink {
            inner: sink,
            timed,
            ns: 0.0,
            requests: 0,
            grants: 0,
        };
        let t = timed.then(Instant::now);
        self.inner.issue_cycle(now, &mut wrapped);
        let mut tr = self.trace.borrow_mut();
        tr.issue_requests += wrapped.requests;
        tr.grants += wrapped.grants;
        if let Some(t) = t {
            // Each timed `try_issue` put two clock reads inside the outer
            // interval and only had one taken off its own time.
            let reads = wrapped.requests as f64 * 2.0 * clock_cost_ns();
            tr.select
                .timed((elapsed_ns(t) - wrapped.ns - reads).max(0.0));
        } else {
            tr.select.calls += 1;
        }
    }

    fn on_result(&mut self, dst: PhysReg, now: Cycle) {
        self.sampled(|t| &mut t.wakeup, |s| s.on_result(dst, now));
    }

    fn on_mispredict(&mut self) {
        self.always(false, |t| &mut t.squash, |s| s.on_mispredict());
    }

    fn squash(&mut self, from: InstId) {
        self.always(true, |t| &mut t.squash, |s| s.squash(from));
    }

    fn cancel(&mut self, tag: PhysReg) {
        self.always(true, |t| &mut t.cancel, |s| s.cancel(tag));
    }

    fn occupancy(&self) -> (usize, usize) {
        self.inner.occupancy()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn energy(&self) -> &EnergyMeter {
        self.inner.energy()
    }

    fn fu_topology(&self) -> &FuTopology {
        self.inner.fu_topology()
    }

    fn adaptive_stats(&self) -> (u64, u64) {
        self.inner.adaptive_stats()
    }
}

/// The pipeline's issue sink as the scheduler sees it inside a decorated
/// `issue_cycle`: counts issue requests and grants always, and times each
/// `try_issue` (functional-unit arbitration, pipeline work) when the
/// enclosing call is sampled. Readiness lookups are a few nanoseconds each,
/// far below what a clock read can resolve; they stay in the core's select
/// time (the FIFO schemes' ready-bit check at queue heads is their wakeup).
struct TimedSink<'a> {
    inner: &'a mut dyn IssueSink,
    timed: bool,
    ns: f64,
    requests: u64,
    grants: u64,
}

impl IssueSink for TimedSink<'_> {
    fn is_ready(&self, r: PhysReg) -> bool {
        self.inner.is_ready(r)
    }

    fn is_spec_ready(&self, r: PhysReg) -> bool {
        self.inner.is_spec_ready(r)
    }

    fn try_issue(&mut self, inst: InstId, op: OpClass, queue: Option<(Side, usize)>) -> bool {
        let granted = if self.timed {
            let t = Instant::now();
            let g = self.inner.try_issue(inst, op, queue);
            self.ns += elapsed_ns(t);
            g
        } else {
            self.inner.try_issue(inst, op, queue)
        };
        self.requests += 1;
        self.grants += u64::from(granted);
        granted
    }
}

/// What the workload decorator saw over one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadTrace {
    /// `fill` calls, plus the source's construction (timed, not counted).
    pub fill: Probe,
    /// Instructions handed to the pipeline by `fill`.
    pub instrs: u64,
    /// `restore` calls, plus `enter_wrong_path` (timed, not counted): the
    /// wrong-path bookkeeping.
    pub restore: Probe,
}

impl WorkloadTrace {
    /// Adds another run's counters.
    pub fn merge(&mut self, o: &WorkloadTrace) {
        self.fill.merge(&o.fill);
        self.instrs += o.instrs;
        self.restore.merge(&o.restore);
    }

    /// Estimated seconds in workload calls.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.fill.busy_s() + self.restore.busy_s()
    }
}

/// A workload that forwards every call to `inner`, counting each and
/// timing fills one in `period`, restores always.
pub struct TimedWorkload<'a, W: ?Sized> {
    inner: &'a mut W,
    sampler: Sampler,
    /// The counters.
    pub trace: WorkloadTrace,
}

impl<'a, W: Workload + ?Sized> TimedWorkload<'a, W> {
    /// Decorates `inner`.
    pub fn new(inner: &'a mut W, period: u64) -> Self {
        TimedWorkload {
            inner,
            sampler: Sampler::new(period, 0x2545_f491_4f6c_dd1d),
            trace: WorkloadTrace::default(),
        }
    }
}

impl<W: Workload + ?Sized> Workload for TimedWorkload<'_, W> {
    fn fill(&mut self, out: &mut VecDeque<Inst>, max: usize) -> usize {
        let n = if self.sampler.hit() {
            let t = Instant::now();
            let n = self.inner.fill(out, max);
            self.trace.fill.timed(elapsed_ns(t));
            n
        } else {
            self.trace.fill.calls += 1;
            self.inner.fill(out, max)
        };
        self.trace.instrs += n as u64;
        n
    }

    fn speculative(&self) -> bool {
        self.inner.speculative()
    }

    fn checkpoint(&self) -> Option<SourceCheckpoint> {
        self.inner.checkpoint()
    }

    // `&self`: a checkpoint is a copy of the source position taken next to
    // each timed `enter_wrong_path`; its time stays in the pipeline's.
    fn checkpoint_into(&self, cp: &mut SourceCheckpoint) {
        self.inner.checkpoint_into(cp);
    }

    fn restore(&mut self, cp: &SourceCheckpoint) {
        let t = Instant::now();
        self.inner.restore(cp);
        self.trace.restore.timed(elapsed_ns(t));
    }

    fn enter_wrong_path(&mut self, pc: u64) {
        let t = Instant::now();
        self.inner.enter_wrong_path(pc);
        self.trace.restore.extra_ns += elapsed_ns(t);
    }
}

/// Everything one traced point reports. Probes are settled (see
/// [`Probe::settle`]), so merged traces add up.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointTrace {
    /// Scheduler calls.
    pub core: CoreTrace,
    /// Workload-source calls.
    pub workload: WorkloadTrace,
    /// `SchedulerConfig::build` seconds.
    pub build_s: f64,
    /// `Simulator::with_scheduler` seconds.
    pub new_s: f64,
    /// `Simulator::run_workload` seconds.
    pub run_s: f64,
    /// Compressed bytes of replayed `.diqt` files.
    pub trace_bytes: u64,
    /// Fill seconds spent on `.diqt` sources.
    pub trace_fill_s: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// L1 data-cache accesses.
    pub dl1_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// Direction plus target mispredictions.
    pub mispredicts: u64,
    /// Instructions replayed by load-hit speculation.
    pub replayed: u64,
    /// Wrong-path instructions squashed.
    pub wrong_path_squashed: u64,
}

impl PointTrace {
    /// Adds another point's trace.
    pub fn merge(&mut self, o: &PointTrace) {
        self.core.merge(&o.core);
        self.workload.merge(&o.workload);
        self.build_s += o.build_s;
        self.new_s += o.new_s;
        self.run_s += o.run_s;
        self.trace_bytes += o.trace_bytes;
        self.trace_fill_s += o.trace_fill_s;
        self.cycles += o.cycles;
        self.committed += o.committed;
        self.dl1_accesses += o.dl1_accesses;
        self.l2_accesses += o.l2_accesses;
        self.mispredicts += o.mispredicts;
        self.replayed += o.replayed;
        self.wrong_path_squashed += o.wrong_path_squashed;
    }

    /// Run time spent neither in the core nor in the workload source
    /// (source construction happens inside the run span).
    #[must_use]
    pub fn pipeline_self_s(&self) -> f64 {
        self.run_s - self.core.busy_s() - self.workload.busy_s()
    }
}

/// `Point::execute`, with the scheduler and the workload decorated and each
/// layer boundary timed; probes time one call in `period`.
///
/// # Panics
///
/// As `Point::execute`: a trace that cannot be opened, changed since
/// resolution, or fails mid-replay.
#[must_use]
pub fn traced_execute(point: &Point, period: u64) -> (SimStats, PointTrace) {
    let mut pt = PointTrace::default();
    let t = Instant::now();
    let sched = point.scheme.build(&point.machine);
    pt.build_s = elapsed_ns(t) / 1e9;
    let core = Rc::new(RefCell::new(CoreTrace::default()));
    let t = Instant::now();
    let mut sim = Simulator::with_scheduler(
        &point.machine,
        Box::new(TimedScheduler::new(sched, period, Rc::clone(&core))),
    );
    pt.new_s = elapsed_ns(t) / 1e9;
    sim.set_benchmark(point.benchmark());
    let n = point.instructions;
    let t_run = Instant::now();
    let (stats, workload) = match &point.source {
        WorkloadSource::Spec(spec) => {
            if point.machine.wrong_path {
                let mut program = TraceGenerator::new(spec);
                let open_ns = elapsed_ns(t_run);
                run_timed(&mut sim, &mut program, n, period, open_ns)
            } else {
                let mut source = TraceSource::new(TraceGenerator::new(spec).take(n as usize));
                let open_ns = elapsed_ns(t_run);
                run_timed(&mut sim, &mut source, n, period, open_ns)
            }
        }
        WorkloadSource::Trace(tr) => {
            let mut reader =
                TraceReader::open(&tr.path).unwrap_or_else(|e| panic!("trace {}: {e}", tr.path));
            assert_eq!(
                reader.meta().content,
                tr.content,
                "trace {} changed since resolution (content hash mismatch)",
                tr.path
            );
            reader.set_speculative(point.machine.wrong_path);
            reader.set_limit(n);
            let open_ns = elapsed_ns(t_run);
            let out = run_timed(&mut sim, &mut reader, n, period, open_ns);
            if let Some(e) = reader.error() {
                panic!("trace {} failed mid-replay: {e}", tr.path);
            }
            pt.trace_bytes = std::fs::metadata(&tr.path).map_or(0, |m| m.len());
            pt.trace_fill_s = out.1.fill.busy_s();
            out
        }
    };
    pt.run_s = elapsed_ns(t_run) / 1e9;
    pt.core = core.borrow().clone();
    for p in pt.core.probes() {
        p.settle();
    }
    pt.workload = workload;
    pt.cycles = stats.cycles;
    pt.committed = stats.committed;
    pt.dl1_accesses = stats.dl1.accesses;
    pt.l2_accesses = stats.l2.accesses;
    pt.mispredicts = stats.branch.direction_mispredicts + stats.branch.target_mispredicts;
    pt.replayed = stats.replayed;
    pt.wrong_path_squashed = stats.wrong_path_squashed;
    (stats, pt)
}

/// Runs `source` decorated; the source's construction (`open_ns`) is
/// charged to fill.
fn run_timed<W: Workload + ?Sized>(
    sim: &mut Simulator,
    source: &mut W,
    n: u64,
    period: u64,
    open_ns: f64,
) -> (SimStats, WorkloadTrace) {
    let mut timed = TimedWorkload::new(source, period);
    let stats = sim.run_workload(&mut timed, n);
    let mut wl = timed.trace;
    wl.fill.extra_ns += open_ns;
    wl.fill.settle();
    wl.restore.settle();
    (stats, wl)
}
