//! The quiescent-cycle skip: a cycle that changes nothing but the clock is
//! followed by a jump to the next cycle where something can happen, with
//! the skipped cycles' statistics and energy replayed.
//!
//! These tests check that the skip is exact, that it fires where it should
//! (memory-bound points spend most cycles waiting), that its work counter
//! is deterministic, and that the deadlock watchdog still fires at the
//! same cycle with the same message. `tests/golden_stats.rs` (skipping
//! event schedulers against non-skipping scan twins) and
//! `tests/pinned_stats.rs` (recorded before the skip existed) prove the
//! same exactness from two other sides.

use diq::isa::{Cycle, FuPoolConfig, InstId, PhysReg, ProcessorConfig};
use diq::pipeline::{SimStats, Simulator, TraceSource};
use diq::power::EnergyMeter;
use diq::sched::{DispatchInst, DispatchStall, FuTopology, IssueSink, Scheduler, SchedulerConfig};
use diq::workload::{suite, TraceGenerator};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The four speculation modes: (wrong-path fetch, load-hit speculation).
const MODES: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// The schemes the repository benchmark runs.
fn bench_schemes() -> [SchedulerConfig; 4] {
    [
        SchedulerConfig::iq_64_64(),
        SchedulerConfig::if_distr(),
        SchedulerConfig::mb_distr(),
        SchedulerConfig::adaptive_iq_64_64(),
    ]
}

/// A memory-bound machine: a 1 KiB D-cache misses on most of mcf's loads.
fn memory_bound((wrong_path, load_hit): (bool, bool)) -> ProcessorConfig {
    let mut cfg = ProcessorConfig::hpca2004();
    cfg.wrong_path = wrong_path;
    cfg.load_hit_speculation = load_hit;
    cfg.mem.dl1.size_bytes = 1024;
    cfg
}

/// Runs `n` instructions of `bench` on `sim`, speculatively when the
/// machine fetches down wrong paths.
fn run(sim: &mut Simulator, cfg: &ProcessorConfig, bench: &str, n: u64) -> SimStats {
    let spec = suite::by_name(bench).unwrap();
    sim.set_benchmark(bench);
    if cfg.wrong_path {
        sim.run_workload(&mut TraceGenerator::new(&spec), n)
    } else {
        sim.run_workload(&mut TraceSource::new(spec.generate(n as usize)), n)
    }
}

/// Forwards every call to the wrapped scheduler except
/// [`Scheduler::skip_idle`], which keeps the trait's default: the pipeline
/// around it steps every cycle.
struct Stepping(Box<dyn Scheduler>);

impl Scheduler for Stepping {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn try_dispatch(&mut self, d: &DispatchInst, now: Cycle) -> Result<(), DispatchStall> {
        self.0.try_dispatch(d, now)
    }
    fn issue_cycle(&mut self, now: Cycle, sink: &mut dyn IssueSink) {
        self.0.issue_cycle(now, sink);
    }
    fn on_result(&mut self, dst: PhysReg, now: Cycle) {
        self.0.on_result(dst, now);
    }
    fn on_mispredict(&mut self) {
        self.0.on_mispredict();
    }
    fn squash(&mut self, from: InstId) {
        self.0.squash(from);
    }
    fn cancel(&mut self, tag: PhysReg) {
        self.0.cancel(tag);
    }
    fn occupancy(&self) -> (usize, usize) {
        self.0.occupancy()
    }
    fn energy(&self) -> &EnergyMeter {
        self.0.energy()
    }
    fn fu_topology(&self) -> &FuTopology {
        self.0.fu_topology()
    }
    fn adaptive_stats(&self) -> (u64, u64) {
        self.0.adaptive_stats()
    }
}

/// Every benchmark scheme, in every speculation mode, spends more than
/// half of a memory-bound run's cycles skipped, and skips exactly as many
/// cycles when the run is repeated.
#[test]
fn memory_bound_points_skip_most_cycles_deterministically() {
    std::thread::scope(|s| {
        for mode in MODES {
            s.spawn(move || {
                let cfg = memory_bound(mode);
                for sched in bench_schemes() {
                    let mut counts = Vec::new();
                    for _ in 0..2 {
                        let mut sim = Simulator::new(&cfg, &sched);
                        let stats = run(&mut sim, &cfg, "mcf", 6_000);
                        counts.push((sim.skipped_cycles(), stats.cycles));
                    }
                    let (skipped, cycles) = counts[0];
                    assert_eq!(counts[0], counts[1], "{} {mode:?}: rerun", sched.label());
                    assert!(
                        2 * skipped > cycles,
                        "{} {mode:?}: skipped {skipped} of {cycles} cycles",
                        sched.label()
                    );
                }
            });
        }
    });
}

/// Skipping changes no statistic: every registered scheme, in every
/// speculation mode, produces the same complete `SimStats` (every energy
/// `f64` bit for bit) as the same scheduler with the skip disabled.
#[test]
fn skipping_run_equals_stepping_run_for_every_scheme() {
    std::thread::scope(|s| {
        for mode in MODES {
            s.spawn(move || {
                let cfg = memory_bound(mode);
                for sched in SchedulerConfig::known() {
                    for bench in ["mcf", "swim"] {
                        let mut skipping = Simulator::new(&cfg, &sched);
                        let fast = run(&mut skipping, &cfg, bench, 3_000);
                        let mut stepping =
                            Simulator::with_scheduler(&cfg, Box::new(Stepping(sched.build(&cfg))));
                        let slow = run(&mut stepping, &cfg, bench, 3_000);
                        assert_eq!(stepping.skipped_cycles(), 0);
                        assert_eq!(
                            format!("{fast:?}"),
                            format!("{slow:?}"),
                            "{} {mode:?} {bench}",
                            sched.label()
                        );
                    }
                }
            });
        }
    });
}

/// The steady-state allocation proof (`tests/alloc_steady_state.rs`)
/// covers the skip path: its workload skips cycles on every scheme that
/// implements the skip.
#[test]
fn allocation_workload_exercises_the_skip() {
    let cfg = ProcessorConfig::hpca2004();
    let trace = suite::by_name("gzip").unwrap().generate(20_000);
    for sched in SchedulerConfig::known() {
        if matches!(sched, SchedulerConfig::LatFifo { .. }) {
            continue; // keeps the default: no skip (DESIGN.md)
        }
        let mut sim = Simulator::new(&cfg, &sched);
        sim.run_workload(&mut TraceSource::new(trace.iter().copied()), 20_000);
        assert!(sim.skipped_cycles() > 0, "{}", sched.label());
    }
}

/// Accepts every dispatch, never offers anything for issue, and skips
/// every idle cycle it is offered: the machine fills and then waits
/// forever.
struct NeverIssues {
    skip: bool,
    len: (usize, usize),
    meter: EnergyMeter,
    topology: FuTopology,
}

impl Scheduler for NeverIssues {
    fn name(&self) -> &str {
        "never_issues"
    }
    fn try_dispatch(&mut self, d: &DispatchInst, _now: Cycle) -> Result<(), DispatchStall> {
        if self.len.0 + self.len.1 >= 32 {
            return Err(DispatchStall::Full);
        }
        if d.op.is_fp_side() {
            self.len.1 += 1;
        } else {
            self.len.0 += 1;
        }
        Ok(())
    }
    fn issue_cycle(&mut self, _now: Cycle, _sink: &mut dyn IssueSink) {}
    fn on_result(&mut self, _dst: PhysReg, _now: Cycle) {}
    fn on_mispredict(&mut self) {}
    fn squash(&mut self, _from: InstId) {}
    fn cancel(&mut self, _tag: PhysReg) {}
    fn occupancy(&self) -> (usize, usize) {
        self.len
    }
    fn energy(&self) -> &EnergyMeter {
        &self.meter
    }
    fn fu_topology(&self) -> &FuTopology {
        &self.topology
    }
    fn skip_idle(&mut self, _now: Cycle, cycles: u64, _refused: Option<&DispatchInst>) -> u64 {
        if self.skip {
            cycles
        } else {
            0
        }
    }
}

/// The panic message of a run on a scheduler that never issues, and the
/// cycles the run skipped.
fn deadlock(skip: bool) -> (String, u64) {
    let cfg = ProcessorConfig::hpca2004();
    let sched = NeverIssues {
        skip,
        len: (0, 0),
        meter: EnergyMeter::new(),
        topology: FuTopology::Shared {
            pool: FuPoolConfig::default(),
        },
    };
    let mut sim = Simulator::with_scheduler(&cfg, Box::new(sched));
    let trace = suite::by_name("gzip").unwrap().generate(1_000);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        sim.run_workload(&mut TraceSource::new(trace), 1_000)
    }))
    .expect_err("a scheduler that never issues deadlocks");
    let msg = payload
        .downcast_ref::<String>()
        .expect("formatted panic message")
        .clone();
    (msg, sim.skipped_cycles())
}

/// The watchdog is one of the skip's horizons: a skipping scheduler that
/// never issues panics at the same cycle, with the same message, as a
/// stepping one — after skipping nearly all of the wait.
#[test]
fn deadlock_watchdog_fires_at_the_same_cycle_when_skipping() {
    let (stepped, none) = deadlock(false);
    let (skipped, jumped) = deadlock(true);
    assert!(
        stepped.starts_with("deadlock: no commit since cycle 0 (now 100000,"),
        "{stepped}"
    );
    assert_eq!(skipped, stepped);
    assert_eq!(none, 0);
    assert!(jumped > 99_000, "skipped only {jumped} cycles");
}
