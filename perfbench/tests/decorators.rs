//! The timing decorators must not change what they measure: a decorated
//! run yields `SimStats` identical to an undecorated one, for every
//! registered scheme in all four speculation modes, on generated and
//! recorded-trace sources alike.

use diq_core::SchedulerConfig;
use diq_exp::Point;
use diq_isa::ProcessorConfig;
use diq_perfbench::decorate::traced_execute;
use diq_perfbench::probe::SAMPLE_PERIOD;
use diq_perfbench::report::summarize;
use diq_workload::{trace, TraceGenerator, TraceRef, WorkloadSource};

const INSTRS: u64 = 3_000;

/// (wrong_path, load_hit_speculation).
const MODES: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

fn machine(wrong_path: bool, load_hit_speculation: bool) -> ProcessorConfig {
    let mut m = ProcessorConfig::hpca2004();
    m.wrong_path = wrong_path;
    m.load_hit_speculation = load_hit_speculation;
    m
}

/// Runs `point` plain and decorated (every call timed, and sampled) and
/// asserts identical statistics and period-independent call counts.
fn assert_equivalent(point: &Point) {
    let plain = point.execute();
    let (every, every_trace) = traced_execute(point, 1);
    let (sampled, sampled_trace) = traced_execute(point, SAMPLE_PERIOD);
    let what = format!(
        "{} on {} (wrong_path {}, load_hit_speculation {})",
        point.scheme.label(),
        point.benchmark(),
        point.machine.wrong_path,
        point.machine.load_hit_speculation
    );
    assert_eq!(every, plain, "{what}: decorated run (period 1) differs");
    assert_eq!(sampled, plain, "{what}: decorated run (sampled) differs");
    let calls = |t: &diq_perfbench::decorate::PointTrace| {
        let c = &t.core;
        [
            c.dispatch.calls,
            c.dispatch_stalls,
            c.select.calls,
            c.wakeup.calls,
            c.squash.calls,
            c.cancel.calls,
            c.issue_requests,
            c.grants,
            t.workload.fill.calls,
            t.workload.instrs,
            t.workload.restore.calls,
        ]
    };
    assert_eq!(
        calls(&every_trace),
        calls(&sampled_trace),
        "{what}: call counts depend on sampling"
    );
    assert_eq!(
        every_trace.core.select.calls, plain.cycles,
        "{what}: one select per cycle"
    );
    assert_eq!(
        every_trace.core.grants, plain.issued,
        "{what}: grants are issues"
    );
    assert!(
        every_trace.workload.instrs >= plain.committed,
        "{what}: pulled < committed"
    );
}

#[test]
fn decorated_generator_runs_match_for_every_scheme_and_speculation_mode() {
    for label in SchedulerConfig::KNOWN_LABELS {
        let scheme = SchedulerConfig::by_label(label).expect("registered label");
        for (wp, lhs) in MODES {
            for uri in ["kernel:mcf", "kernel:swim"] {
                let source = WorkloadSource::resolve_one(uri).expect("suite workload");
                assert_equivalent(&Point::from_source(
                    machine(wp, lhs),
                    scheme.clone(),
                    source,
                    INSTRS,
                ));
            }
        }
    }
}

#[test]
fn decorated_trace_replays_match_for_every_scheme_and_speculation_mode() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("decorators");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gzip.diqt");
    let source = WorkloadSource::resolve_one("kernel:gzip").unwrap();
    let spec = source.spec().unwrap();
    trace::record(
        &path,
        &spec.name,
        spec.seed,
        "test",
        TraceGenerator::new(spec),
        INSTRS,
    )
    .unwrap();
    let tr = TraceRef::open(path.to_str().unwrap()).unwrap();
    for label in SchedulerConfig::KNOWN_LABELS {
        let scheme = SchedulerConfig::by_label(label).unwrap();
        for (wp, lhs) in MODES {
            let point = Point::from_source(
                machine(wp, lhs),
                scheme.clone(),
                WorkloadSource::Trace(tr.clone()),
                INSTRS,
            );
            assert_equivalent(&point);
        }
    }
}

#[test]
fn quartiles_follow_python_statistics_quantiles() {
    let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>());
    assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    let s = summarize(&[3.0, 1.0, 2.0]);
    assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
}
