//! `stress-replay`: long points replayed from recorded `.diqt` traces, one
//! at a time on one thread, with wrong-path fetch and load-hit speculation
//! on.
//!
//! Set-up records three seeded variants of each source's trace. Each
//! iteration then executes the 18 traces × 4 schemes grid point by
//! point, appending each record to a fresh store, and finishes with warm
//! `sweep_as` re-sweeps of the same grid. `.diqt` decode, wrong-path
//! seek/restore, `squash` and `cancel` only happen on this workload. All
//! of it runs on the calling thread and is timed on its CPU clock (see
//! [`crate::cpu`]).

use crate::common::{
    check_result, fastest, keep_fastest, result_counts, traced_sweep, Ctx, Layers, SCHEMES,
};
use crate::cpu;
use crate::decorate::{traced_execute, PointTrace};
use crate::host::{self, Gauge};
use crate::probe::{elapsed_ns, Spans, SAMPLE_PERIOD};
use crate::report::{percentile, Report};
use diq_exp::{sweep_as, ExperimentSpec, Point, PointRecord, PointResult, ResultStore};
use diq_pipeline::{SimStats, Simulator};
use diq_workload::{trace, TraceGenerator, TraceReader, WorkloadSource};
use std::time::Instant;

/// The replayed sources.
pub const SOURCES: [&str; 6] = [
    "kernel:gzip",
    "kernel:mcf",
    "kernel:swim",
    "kernel:art",
    "profile:mcf/adversarial",
    "profile:swim/adversarial",
];

/// Seeded variants recorded per source: more independent draws per scheme
/// keep the per-scheme rates from hinging on one seed's traces.
pub const VARIANTS: u64 = 3;

/// Instructions per point (and per recorded trace).
pub const INSTRS: u64 = 30_000;

const RUN: &str = "stress-replay";
const WARM_SWEEPS: usize = 10;

/// The recorded traces and the grid over them.
struct Grid {
    spec: ExperimentSpec,
    points: Vec<Point>,
    contents: Vec<u64>,
}

/// Records every source's trace into `dir` and builds the grid over them.
fn setup(ctx: &Ctx, dir: &str, report: &mut Report) -> Result<Grid, String> {
    let dir = ctx.work.join(dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut workloads = Vec::new();
    let mut contents = Vec::new();
    for (uri, variant) in SOURCES
        .iter()
        .flat_map(|u| (0..VARIANTS).map(move |v| (*u, v)))
    {
        let mut source = WorkloadSource::resolve_one(uri)?;
        source.shift_seed(ctx.seed.wrapping_mul(VARIANTS).wrapping_add(variant));
        let spec = source
            .spec()
            .ok_or_else(|| format!("{uri} is not a generated source"))?;
        let file: String = uri
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("{file}-{variant}.diqt"));
        let meta = trace::record(
            &path,
            &spec.name,
            spec.seed,
            uri,
            TraceGenerator::new(spec),
            INSTRS,
        )
        .map_err(|e| format!("record {uri}: {e}"))?;
        let path = path.to_str().ok_or("non-UTF-8 scratch path")?.to_string();
        let verified = TraceReader::open(&path).and_then(|mut r| r.verify());
        let footer = trace::read_meta(&path).map(|m| m.content);
        report.checks.check(
            meta.instructions == INSTRS && verified.is_ok() && footer == Ok(meta.content),
            || {
                format!(
                    "trace {path}: {} instrs, verify {verified:?}, footer {footer:?}",
                    meta.instructions
                )
            },
        );
        contents.push(meta.content);
        workloads.push(format!("{{\"source\":\"trace:{path}\"}}"));
    }
    let schemes: Vec<String> = SCHEMES.iter().map(|s| format!("\"{s}\"")).collect();
    let json = format!(
        "{{\"name\":\"{RUN}\",\"instructions\":[{INSTRS}],\"schemes\":[{}],\"workloads\":[{}],\
         \"machines\":[{{\"label\":\"spec\",\"wrong_path\":true,\"load_hit_speculation\":true}}]}}",
        schemes.join(","),
        workloads.join(",")
    );
    let spec = ExperimentSpec::from_json(&json)?;
    let points = spec.expand()?;
    Ok(Grid {
        spec,
        points,
        contents,
    })
}

/// The order points execute in: trace by trace, every scheme back to back,
/// so that the per-scheme rates share the host's moment-to-moment speed.
/// (Grid order is scheme-major.)
fn order(grid: &Grid) -> impl Iterator<Item = usize> {
    let traces = grid.contents.len();
    (0..traces).flat_map(move |w| (0..SCHEMES.len()).map(move |s| s * traces + w))
}

/// One pass over the grid, in grid order.
struct Pass {
    /// CPU seconds of each point's `Point::execute`.
    exec_s: Vec<f64>,
    /// CPU seconds of each whole point: execute, key, record and append.
    point_s: Vec<f64>,
    /// CPU seconds of the host gauge's slice run after each point.
    gauge_s: Vec<f64>,
    records: Vec<PointRecord>,
}

/// Runs every point once, appending each record to `store` as its point
/// finishes, with a slice of the host gauge after each.
fn pass(
    grid: &Grid,
    store: &ResultStore,
    gauge: &mut Gauge,
    report: &mut Report,
) -> Result<Pass, String> {
    let n = grid.points.len();
    let (mut exec_s, mut point_s, mut gauge_s) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut records = vec![None; n];
    for i in order(grid) {
        let point = &grid.points[i];
        let rec;
        (point_s[i], rec) = cpu::time(|| {
            let stats;
            (exec_s[i], stats) = cpu::time(|| point.execute());
            let rec = PointRecord {
                key: point.key(),
                result: PointResult::from_stats(point, &stats),
            };
            store.append(std::slice::from_ref(&rec)).map(|()| rec)
        });
        gauge_s[i] = gauge.slice();
        let rec = rec.map_err(|e| e.to_string())?;
        check_result(&mut report.checks, &rec.result);
        records[i] = Some(rec);
    }
    Ok(Pass {
        exec_s,
        point_s,
        gauge_s,
        records: records.into_iter().flatten().collect(),
    })
}

fn warm(
    grid: &Grid,
    store: &ResultStore,
    cold: &[PointRecord],
    report: &mut Report,
) -> Result<f64, String> {
    let (secs, swept) = cpu::time(|| sweep_as(&grid.spec, RUN.into(), store, 1));
    let swept = swept.map_err(|e| e.to_string())?;
    report
        .checks
        .check(swept.computed == 0 && swept.records == cold, || {
            format!(
                "warm re-sweep computed {} points or returned other records",
                swept.computed
            )
        });
    Ok(secs)
}

/// Per-scheme (committed, CPU seconds) of one pass, in [`SCHEMES`] order.
fn by_scheme(grid: &Grid, secs: &[f64]) -> [(u64, f64); 4] {
    let mut out = [(0, 0.0); 4];
    for (point, s) in grid.points.iter().zip(secs) {
        let label = point.scheme.label();
        if let Some(i) = SCHEMES.iter().position(|l| *l == label) {
            out[i].0 += point.instructions;
            out[i].1 += s;
        }
    }
    out
}

/// Runs the workload with tracing off and reports the end-to-end metrics.
///
/// The timings report each point's fastest run over the iterations: the
/// host's slow states only ever add time, and they come and go within a
/// run, so a median over iterations moves with them while a point's
/// fastest run moves much less. `resume_ms` is likewise the fastest warm
/// re-sweep. Slow states that last the whole run remain; the fastest
/// slices of the host gauge measure them, and every timing is scaled to
/// the gauge's nominal speed. The table beside each metric still
/// summarises the iterations' own, unscaled values.
///
/// # Errors
///
/// Trace, spec, store and I/O failures.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (secs, grid) = cpu::time(|| setup(ctx, "traces", &mut report));
    let grid = grid?;
    let mut setup_s = vec![secs];
    let (mut ips, mut pps, mut rtt, mut resume) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut scheme_ips: Vec<Vec<f64>> = vec![Vec::new(); SCHEMES.len()];
    let (mut best_exec, mut best_point, mut best_gauge) = (Vec::new(), Vec::new(), Vec::new());
    let mut gauge = Gauge::default();
    let mut first: Option<(Vec<PointRecord>, Vec<u8>)> = None;
    let start = Instant::now();
    let mut iter_s = 0.0;
    let mut done = 0;
    while ctx.another(done, start.elapsed().as_secs_f64(), iter_s) {
        let t_iter = Instant::now();
        // Set-up again, timed and discarded: one more sample per
        // iteration, spread over the run. Re-recording must reproduce the
        // traces exactly.
        let (secs, again) = cpu::time(|| setup(ctx, &format!("traces-{done}"), &mut report));
        let again = again?;
        setup_s.push(secs);
        report.checks.check(again.contents == grid.contents, || {
            "re-recorded traces have other content hashes".into()
        });
        let _ = std::fs::remove_dir_all(ctx.work.join(format!("traces-{done}")));
        let store = ctx.fresh_store(&format!("store-{done}"))?;
        let Pass {
            exec_s,
            point_s,
            gauge_s,
            records,
        } = pass(&grid, &store, &mut gauge, &mut report)?;
        let committed: u64 = records.iter().map(|r| r.result.committed).sum();
        ips.push(committed as f64 / exec_s.iter().sum::<f64>());
        pps.push(records.len() as f64 / point_s.iter().sum::<f64>());
        let ms: Vec<f64> = point_s.iter().map(|s| s * 1e3).collect();
        rtt.push(percentile(&ms, 50.0));
        for (i, (n, s)) in by_scheme(&grid, &exec_s).into_iter().enumerate() {
            scheme_ips[i].push(n as f64 / s);
        }
        keep_fastest(&mut best_exec, &exec_s);
        keep_fastest(&mut best_point, &point_s);
        keep_fastest(&mut best_gauge, &gauge_s);
        for _ in 0..WARM_SWEEPS {
            resume.push(warm(&grid, &store, &records, &mut report)? * 1e3);
        }
        let bytes = store.raw_bytes().map_err(|e| e.to_string())?;
        match &first {
            None => first = Some((records, bytes)),
            Some((recs, b)) => {
                report.checks.check(*recs == records && *b == bytes, || {
                    format!("iteration {done} produced other results than iteration 0")
                });
            }
        }
        let _ = std::fs::remove_dir_all(store.root());
        done += 1;
        iter_s = t_iter.elapsed().as_secs_f64();
    }
    // Seconds at the nominal host speed.
    let slow = host::slowdown(&best_gauge);
    report.host_slowdown = Some(slow);
    let best_exec: Vec<f64> = best_exec.iter().map(|s| s / slow).collect();
    let best_point: Vec<f64> = best_point.iter().map(|s| s / slow).collect();
    let committed: u64 = grid.points.iter().map(|p| p.instructions).sum();
    let best_ms: Vec<f64> = best_point.iter().map(|s| s * 1e3).collect();
    report.estimated(
        "sim_ips",
        "1/s",
        committed as f64 / best_exec.iter().sum::<f64>(),
        &ips,
    );
    let by = by_scheme(&grid, &best_exec);
    for ((label, v), (n, s)) in SCHEMES.iter().zip(&scheme_ips).zip(by) {
        report.estimated(format!("sim_ips.{label}"), "1/s", n as f64 / s, v);
    }
    report.estimated(
        "points_per_s",
        "1/s",
        best_point.len() as f64 / best_point.iter().sum::<f64>(),
        &pps,
    );
    report.estimated("job_rtt_p50_ms", "ms", percentile(&best_ms, 50.0), &rtt);
    report.estimated("resume_ms", "ms", fastest(&resume) / slow, &resume);
    report.value("peak_rss_mb", "MB", crate::report::peak_rss_mb()?);
    report.sampled("setup_s", "s", &setup_s);
    if let Some((recs, bytes)) = first {
        result_counts(&mut report, "stress_replay", &recs, &bytes);
    }
    Ok(report)
}

/// `Point::execute` on the frozen scan reference of the point's scheme.
fn execute_scan(point: &Point) -> SimStats {
    let WorkloadSource::Trace(tr) = &point.source else {
        unreachable!("stress-replay points replay traces");
    };
    let mut sim =
        Simulator::with_scheduler(&point.machine, point.scheme.build_scan(&point.machine));
    sim.set_benchmark(point.benchmark());
    let mut reader =
        TraceReader::open(&tr.path).unwrap_or_else(|e| panic!("trace {}: {e}", tr.path));
    reader.set_speculative(point.machine.wrong_path);
    reader.set_limit(point.instructions);
    let stats = sim.run_workload(&mut reader, point.instructions);
    if let Some(e) = reader.error() {
        panic!("trace {} failed mid-replay: {e}", tr.path);
    }
    stats
}

/// Runs every point untraced, traced and on the scan reference, checks all
/// three agree, and reports the per-layer metrics.
///
/// # Errors
///
/// Trace, spec, store and I/O failures.
pub fn run_traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let grid = setup(ctx, "traces", &mut report)?;
    let plain_store = ctx.fresh_store("untraced")?;
    let traced_store = ctx.fresh_store("traced")?;
    let mut layers = Layers::default();
    let mut spans = Spans::default();
    let mut points = PointTrace::default();
    let n = grid.points.len();
    let (mut plain_s, mut traced_s, mut scan_s) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (mut plain, mut traced) = (vec![None; n], vec![None; n]);
    // Each point runs plain (the event path, as `pass` runs it), traced,
    // and on the scan reference, back to back, so that the overhead and
    // event-vs-scan ratios compare runs made at the same host speed.
    for i in order(&grid) {
        let point = &grid.points[i];
        let stats;
        (plain_s[i], stats) = cpu::time(|| point.execute());
        let rec = PointRecord {
            key: point.key(),
            result: PointResult::from_stats(point, &stats),
        };
        check_result(&mut report.checks, &rec.result);
        plain_store
            .append(std::slice::from_ref(&rec))
            .map_err(|e| e.to_string())?;

        let t = Instant::now();
        let (stats, pt);
        (traced_s[i], (stats, pt)) = cpu::time(|| traced_execute(point, SAMPLE_PERIOD));
        points.merge(&pt);
        let traced_rec = PointRecord {
            key: spans.time("exp.expand", || point.key()),
            result: PointResult::from_stats(point, &stats),
        };
        spans
            .time("exp.store_append", || {
                traced_store.append(std::slice::from_ref(&traced_rec))
            })
            .map_err(|e| e.to_string())?;
        spans.add_count("exp.store_append.records", 1);
        layers.wall_s += elapsed_ns(t) / 1e9;

        let stats;
        (scan_s[i], stats) = cpu::time(|| execute_scan(point));
        report
            .checks
            .check(PointResult::from_stats(point, &stats) == rec.result, || {
                format!(
                    "{} {}: scan reference differs from the event path",
                    rec.result.scheme, rec.result.benchmark
                )
            });
        plain[i] = Some(rec);
        traced[i] = Some(traced_rec);
    }
    let plain: Vec<PointRecord> = plain.into_iter().flatten().collect();
    let traced: Vec<PointRecord> = traced.into_iter().flatten().collect();
    warm(&grid, &plain_store, &plain, &mut report)?;
    let warm = traced_sweep(
        &grid.spec,
        RUN,
        &traced_store,
        SAMPLE_PERIOD,
        &mut spans,
        &mut points,
    )?;
    layers.wall_s += warm.wall_s;
    report
        .checks
        .check(warm.computed == 0 && warm.records == traced, || {
            "traced warm re-sweep computed points or returned other records".into()
        });
    report.checks.check(traced == plain, || {
        "traced results differ from the untraced results".into()
    });
    let traced_bytes = traced_store.raw_bytes().map_err(|e| e.to_string())?;
    let plain_bytes = plain_store.raw_bytes().map_err(|e| e.to_string())?;
    report.checks.check(traced_bytes == plain_bytes, || {
        "traced pass wrote other store bytes than the untraced pass".into()
    });
    layers.trace_overhead = traced_s.iter().sum::<f64>() / plain_s.iter().sum::<f64>() - 1.0;
    let event = by_scheme(&grid, &plain_s);
    let scan = by_scheme(&grid, &scan_s);
    for (r, (e, s)) in layers.event_vs_scan.iter_mut().zip(event.iter().zip(&scan)) {
        *r = e.1 / s.1;
    }
    layers.points = points;
    layers.spans = spans;
    layers.emit(&mut report);
    result_counts(&mut report, "stress_replay", &traced, &traced_bytes);
    layers.counts(&mut report);
    Ok(report)
}
