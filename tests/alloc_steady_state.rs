//! The batched cycle loop allocates nothing in steady state: every
//! per-cycle structure (the fetch micro-batch, scheduler candidate
//! scratch, wakeup consumer lists, recovery scratch) is either sized at
//! construction or reuses its capacity across cycles.
//!
//! Proof shape: run the same workload for a short and a 4× longer budget
//! on fresh simulators and count heap allocations during each run with a
//! counting global allocator. Warm-up growth (first-touch capacity of the
//! scratch vectors) is identical in both runs, so if the long run
//! allocates *at all* after warm-up the counts differ. This is an
//! integration test on purpose: `#[global_allocator]` is per-binary, so
//! the counter cannot interfere with any other test binary. Within this
//! binary the tests run on parallel threads, so the count is kept per
//! thread: each measurement sees only its own thread's allocations.

use diq::isa::ProcessorConfig;
use diq::pipeline::{Simulator, TraceSource};
use diq::sched::SchedulerConfig;
use diq::workload::{suite, trace, TraceGenerator, TraceReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `const` initialisation: no lazy-init path, so touching the counter
    // from inside the allocator never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread. `try_with` because an
/// allocation can happen while the thread's locals are being torn down.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations performed while running `instructions` of `trace` on a
/// fresh simulator (simulator construction is outside the count — it
/// allocates the fixed-capacity stores by design).
fn allocations_during_run(
    cfg: &ProcessorConfig,
    sched: &SchedulerConfig,
    trace: &[diq::isa::Inst],
    instructions: u64,
) -> u64 {
    let mut sim = Simulator::new(cfg, sched);
    let mut source = TraceSource::new(trace.iter().copied().take(instructions as usize));
    let before = allocations();
    let stats = sim.run_workload(&mut source, instructions);
    let after = allocations();
    assert_eq!(stats.committed, instructions);
    after - before
}

/// Allocations while replaying `instructions` from an opened trace reader
/// (reader + simulator construction excluded: the reader's two block
/// buffers are preallocated from the footer maxima at open).
fn allocations_during_replay(
    cfg: &ProcessorConfig,
    sched: &SchedulerConfig,
    reader: &mut TraceReader,
    instructions: u64,
    speculative: bool,
) -> u64 {
    let mut sim = Simulator::new(cfg, sched);
    reader.set_speculative(speculative);
    reader.set_limit(instructions);
    let before = allocations();
    let stats = sim.run_workload(reader, instructions);
    let after = allocations();
    assert_eq!(reader.error(), None);
    assert_eq!(stats.committed, instructions);
    after - before
}

/// Replaying a 1M-instruction trace allocates no more than replaying a
/// short prefix of it: reader memory is a function of the block geometry,
/// never of trace length. In wrong-path mode the pipeline's recovery
/// machinery itself allocates per mispredict (pre-existing, source-
/// independent), so there the reader is held to the generator's bar: a
/// `Copy` trace-position checkpoint must never allocate more than the
/// generator's buffer-reusing checkpoints.
#[test]
fn trace_replay_allocates_nothing_in_steady_state() {
    let cfg = ProcessorConfig::hpca2004();
    let spec = suite::by_name("gzip").expect("suite benchmark");
    let path = std::env::temp_dir().join(format!("diqt-alloc-{}.diqt", std::process::id()));
    let total = 1_000_000u64;
    trace::record(
        &path,
        &spec.name,
        spec.seed,
        "alloc-test",
        TraceGenerator::new(&spec),
        total,
    )
    .unwrap();
    let short = 5_000u64;
    let long = 20_000u64;
    for sched in SchedulerConfig::known() {
        let mut reader = TraceReader::open(&path).unwrap();
        let warm = allocations_during_replay(&cfg, &sched, &mut reader, short, false);
        let mut reader = TraceReader::open(&path).unwrap();
        let sustained = allocations_during_replay(&cfg, &sched, &mut reader, long, false);
        assert_eq!(
            warm,
            sustained,
            "{}: {} allocations for {short} instrs but {} for {long} — \
             trace replay allocates in steady state",
            sched.label(),
            warm,
            sustained
        );
    }

    let mut wp_cfg = cfg;
    wp_cfg.wrong_path = true;
    for sched in [SchedulerConfig::mb_distr(), SchedulerConfig::iq_64_64()] {
        let mut sim = Simulator::new(&wp_cfg, &sched);
        let mut generator = TraceGenerator::new(&spec);
        let before = allocations();
        let _ = sim.run_workload(&mut generator, long);
        let from_generator = allocations() - before;

        let mut reader = TraceReader::open(&path).unwrap();
        let from_replay = allocations_during_replay(&wp_cfg, &sched, &mut reader, long, true);
        assert!(
            from_replay <= from_generator,
            "{}: wrong-path replay made {from_replay} allocations, the generator \
             {from_generator} — TracePos checkpoints must not add allocation",
            sched.label()
        );
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn batched_loop_allocates_nothing_in_steady_state() {
    let cfg = ProcessorConfig::hpca2004();
    let spec = suite::by_name("gzip").expect("suite benchmark");
    let short = 5_000u64;
    let long = 20_000u64;
    let trace = spec.generate(long as usize);
    for sched in SchedulerConfig::known() {
        let warm = allocations_during_run(&cfg, &sched, &trace, short);
        let sustained = allocations_during_run(&cfg, &sched, &trace, long);
        assert_eq!(
            warm,
            sustained,
            "{}: {} allocations for {short} instrs but {} for {long} — \
             the cycle loop allocates in steady state",
            sched.label(),
            warm,
            sustained
        );
    }
}
