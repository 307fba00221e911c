//! What the workloads share: the run context, record checks, the
//! traced twin of `sweep_as`, and the per-layer metric table.

use crate::decorate::{traced_execute, PointTrace};
use crate::probe::{elapsed_ns, Spans};
use crate::report::{Checks, Report};
use diq_exp::{
    fnv1a64, ExperimentSpec, ManifestEntry, Point, PointRecord, PointResult, ResultStore,
    RunManifest,
};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The four schemes every workload reports a rate for: the paper's CAM
/// baseline, its two distributed designs, and the adaptive-geometry CAM.
pub const SCHEMES: [&str; 4] = ["IQ_64_64", "IF_distr", "MB_distr", "IQ_64_64_adapt"];

/// One benchmark invocation.
pub struct Ctx {
    /// Workload seed (shifts every generated source).
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Simulation threads (the host's available parallelism).
    pub threads: usize,
    /// Scratch directory inside the checkout, removed on drop.
    pub work: PathBuf,
}

impl Ctx {
    /// Creates the scratch directory `.bench_work/<workload>-<pid>`.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn new(workload: &str, seed: u64, seconds: f64) -> Result<Ctx, String> {
        let work = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Ctx {
            seed,
            seconds,
            threads: diq_exp::default_threads(),
            work,
        })
    }

    /// A fresh (deleted, then re-created) store under the scratch directory.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn fresh_store(&self, name: &str) -> Result<ResultStore, String> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))
    }

    /// Whether another iteration of `iter_s` seconds fits in the budget,
    /// given `elapsed` seconds so far (the first iteration always runs).
    #[must_use]
    pub fn another(&self, done: usize, elapsed: f64, iter_s: f64) -> bool {
        done == 0 || elapsed + iter_s <= self.seconds
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
        // Leave `.bench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Element-wise minimum of `best` and `times` (`best` empty: `times`): the
/// fastest run so far of each unit of work, in the same order.
pub fn keep_fastest(best: &mut Vec<f64>, times: &[f64]) {
    if best.is_empty() {
        *best = times.to_vec();
    } else {
        for (b, t) in best.iter_mut().zip(times) {
            *b = b.min(*t);
        }
    }
}

/// The smallest of `times` (infinite when empty).
#[must_use]
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Checks one stored result: the whole budget committed, and the dataflow
/// checker clean.
pub fn check_result(checks: &mut Checks, r: &PointResult) {
    checks.check(
        r.committed == r.instructions && r.checker_violations == 0,
        || {
            format!(
                "{} {}: committed {} of {}, {} checker violations",
                r.scheme, r.benchmark, r.committed, r.instructions, r.checker_violations
            )
        },
    );
}

/// The deterministic work counts of a set of results, as SimStats report
/// them, plus an FNV-1a digest over the store bytes they were written as.
pub fn result_counts(
    report: &mut Report,
    prefix: &str,
    records: &[PointRecord],
    store_bytes: &[u8],
) {
    let sum = |f: fn(&PointResult) -> u64| records.iter().map(|r| f(&r.result)).sum::<u64>();
    report.count(format!("{prefix}.points"), records.len() as u64);
    report.count(format!("{prefix}.committed"), sum(|r| r.committed));
    report.count(format!("{prefix}.cycles"), sum(|r| r.cycles));
    report.count(format!("{prefix}.issued"), sum(|r| r.issued));
    report.count(
        format!("{prefix}.dispatch_stall_cycles"),
        sum(|r| r.dispatch_stall_cycles),
    );
    report.count(
        format!("{prefix}.mispredict_redirects"),
        sum(|r| r.mispredict_redirects),
    );
    report.count(format!("{prefix}.lsq_forwards"), sum(|r| r.lsq_forwards));
    report.count(
        format!("{prefix}.wrong_path_squashed"),
        sum(|r| r.wrong_path_squashed),
    );
    report.count(format!("{prefix}.replayed"), sum(|r| r.replayed));
    report.count(format!("{prefix}.resize_events"), sum(|r| r.resize_events));
    report.count(format!("{prefix}.store_digest"), fnv1a64(store_bytes));
}

/// What a traced sweep did.
#[derive(Debug, Default)]
pub struct TracedSweep {
    /// Every grid point's record, in grid order.
    pub records: Vec<PointRecord>,
    /// Points simulated.
    pub computed: usize,
    /// Wall seconds the sweep took.
    pub wall_s: f64,
}

/// `sweep_as` on one thread, rebuilt from the public calls it makes so each
/// layer boundary can be timed: `ExperimentSpec::expand` and `Point::key`
/// (`exp.expand`), `ResultStore::load` (`exp.store_load`), decorated point
/// execution, `ResultStore::append` (`exp.store_append`) and
/// `ResultStore::write_manifest` (`exp.manifest`). Writes the same store
/// bytes and manifest as `sweep_as`.
///
/// # Errors
///
/// Spec and store failures.
pub fn traced_sweep(
    spec: &ExperimentSpec,
    run: &str,
    store: &ResultStore,
    period: u64,
    spans: &mut Spans,
    points_trace: &mut PointTrace,
) -> Result<TracedSweep, String> {
    let start = Instant::now();
    let (points, keys) = spans.time("exp.expand", || {
        spec.expand().map(|p| {
            let k: Vec<String> = p.iter().map(Point::key).collect();
            (p, k)
        })
    })?;
    let index = spans
        .time("exp.store_load", || store.load())
        .map_err(|e| format!("store load: {e}"))?;
    spans.add_count("exp.store_load.records", index.len() as u64);
    let mut claimed = HashSet::new();
    let missing: Vec<usize> = (0..points.len())
        .filter(|&i| !index.contains_key(&keys[i]) && claimed.insert(keys[i].as_str()))
        .collect();
    let mut out = TracedSweep::default();
    let mut computed: HashMap<String, PointRecord> = HashMap::new();
    // `sweep_as` appends in chunks of four points per thread.
    for chunk in missing.chunks(4) {
        let mut records = Vec::with_capacity(chunk.len());
        for &i in chunk {
            let (stats, pt) = traced_execute(&points[i], period);
            points_trace.merge(&pt);
            records.push(PointRecord {
                key: keys[i].clone(),
                result: PointResult::from_stats(&points[i], &stats),
            });
        }
        spans
            .time("exp.store_append", || store.append(&records))
            .map_err(|e| format!("store append: {e}"))?;
        spans.add_count("exp.store_append.records", records.len() as u64);
        computed.extend(records.into_iter().map(|r| (r.key.clone(), r)));
    }
    for (point, key) in points.iter().zip(&keys) {
        let mut rec = computed
            .get(key)
            .or_else(|| index.get(key))
            .cloned()
            .ok_or_else(|| format!("point {key} neither stored nor computed"))?;
        rec.result.machine.clone_from(&point.machine_label);
        out.records.push(rec);
    }
    let manifest = RunManifest {
        name: run.to_string(),
        description: spec.description.clone(),
        points: out
            .records
            .iter()
            .map(|r| ManifestEntry {
                key: r.key.clone(),
                scheme: r.result.scheme.clone(),
                benchmark: r.result.benchmark.clone(),
                instructions: r.result.instructions,
                machine: r.result.machine.clone(),
            })
            .collect(),
    };
    spans
        .time("exp.manifest", || store.write_manifest(&manifest))
        .map_err(|e| format!("manifest: {e}"))?;
    out.computed = computed.len();
    out.wall_s = elapsed_ns(start) / 1e9;
    Ok(out)
}

/// The traced pass's layer times and the quantities behind the per-layer
/// metrics that are not plain span or point totals.
#[derive(Debug, Default)]
pub struct Layers {
    /// Merged point traces.
    pub points: PointTrace,
    /// Spans outside the cycle loop (`exp.*`, `serve.*`).
    pub spans: Spans,
    /// Thread-seconds of the traced pass the layers must account for.
    pub wall_s: f64,
    /// Traced time of the measured section ÷ its untraced time, less one.
    pub trace_overhead: f64,
    /// Event-path ÷ scan-path host time per scheme, in [`SCHEMES`] order
    /// (zero where the workload does not measure it).
    pub event_vs_scan: [f64; 4],
    /// Mean status-frame round trip, µs.
    pub frame_rtt_us: f64,
    /// Status polls per single-point job.
    pub polls_per_job: f64,
    /// p95 single-point job round trip, ms.
    pub job_rtt_p95_ms: f64,
    /// Results the server accepted.
    pub results_accepted: u64,
}

impl Layers {
    /// Seconds charged to each layer: core, workload, pipeline, exp,
    /// serve.
    #[must_use]
    pub fn layer_s(&self) -> [(&'static str, f64); 5] {
        let p = &self.points;
        let exp: f64 = [
            "exp.expand",
            "exp.store_load",
            "exp.store_append",
            "exp.manifest",
        ]
        .iter()
        .map(|n| self.spans.secs(n))
        .sum();
        let serve = self.spans.secs("serve.submit")
            + self.spans.secs("serve.status")
            + self.spans.secs("serve.worker");
        [
            ("core", p.core.busy_s() + p.build_s),
            ("workload", p.workload.busy_s()),
            ("pipeline", p.pipeline_self_s() + p.new_s),
            ("exp", exp),
            ("serve", serve),
        ]
    }

    /// Checks the attribution (every layer's time non-negative, and the
    /// layers not claiming more than the traced wall time), then adds every
    /// per-layer metric in `BENCHMARK.json` order.
    pub fn emit(&self, report: &mut Report) {
        let layers = self.layer_s();
        let attributed: f64 = layers.iter().map(|(_, s)| s).sum();
        let unattributed = self.wall_s - attributed;
        for (name, s) in layers {
            eprintln!(
                "layer {name:<9} {s:>10.4} s  {:>5.1}%",
                100.0 * s / self.wall_s.max(1e-12)
            );
        }
        eprintln!(
            "layer {:<9} {unattributed:>10.4} s  {:>5.1}%  of {:.4} thread-s traced",
            "(none)",
            100.0 * unattributed / self.wall_s.max(1e-12),
            self.wall_s
        );
        let ok = layers.iter().all(|(_, s)| *s >= 0.0) && unattributed >= -0.01 * self.wall_s;
        report.checks.check(ok, || {
            format!(
                "attribution: layers {layers:?} exceed traced wall {} s",
                self.wall_s
            )
        });

        let p = &self.points;
        let c = &p.core;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let probes = [
            ("dispatch", &c.dispatch),
            ("select", &c.select),
            ("wakeup", &c.wakeup),
        ];
        for (name, probe) in probes {
            report.value(format!("core.{name}.busy_s"), "s", probe.busy_s());
            report.value(format!("core.{name}.calls"), "count", probe.calls as f64);
        }
        report.value(
            "core.dispatch.stall_ratio",
            "ratio",
            ratio(c.dispatch_stalls, c.dispatch.calls),
        );
        report.value(
            "core.select.grant_ratio",
            "ratio",
            ratio(c.grants, c.issue_requests),
        );
        for (name, probe) in [("squash", &c.squash), ("cancel", &c.cancel)] {
            report.value(format!("core.{name}.busy_s"), "s", probe.busy_s());
            report.value(format!("core.{name}.calls"), "count", probe.calls as f64);
        }
        for (label, r) in SCHEMES.iter().zip(self.event_vs_scan) {
            report.value(format!("core.event_vs_scan.{label}"), "ratio", r);
        }
        let w = &p.workload;
        report.value("workload.fill.busy_s", "s", w.fill.busy_s());
        report.value("workload.fill.calls", "count", w.fill.calls as f64);
        report.value("workload.fill.instrs", "count", w.instrs as f64);
        report.value("workload.restore.busy_s", "s", w.restore.busy_s());
        report.value("workload.restore.calls", "count", w.restore.calls as f64);
        report.value(
            "workload.useful_ratio",
            "ratio",
            ratio(p.committed, w.instrs),
        );
        let decode = if p.trace_fill_s > 0.0 {
            p.trace_bytes as f64 / 1e6 / p.trace_fill_s
        } else {
            0.0
        };
        report.value("workload.decode_mb_s", "MB/s", decode);
        report.value("pipeline.self.busy_s", "s", p.pipeline_self_s());
        let ns_per_cycle = if p.cycles == 0 {
            0.0
        } else {
            p.pipeline_self_s() * 1e9 / p.cycles as f64
        };
        report.value("pipeline.ns_per_cycle", "ns", ns_per_cycle);
        report.value("pipeline.cycles", "count", p.cycles as f64);
        report.value("pipeline.new.busy_s", "s", p.new_s);
        report.value("core.build.busy_s", "s", p.build_s);
        report.value("mem.dl1.accesses", "count", p.dl1_accesses as f64);
        report.value("mem.l2.accesses", "count", p.l2_accesses as f64);
        report.value("branch.mispredicts", "count", p.mispredicts as f64);
        report.value("pipeline.replayed", "count", p.replayed as f64);
        report.value(
            "pipeline.wrong_path_squashed",
            "count",
            p.wrong_path_squashed as f64,
        );
        let s = &self.spans;
        report.value("exp.expand.busy_s", "s", s.secs("exp.expand"));
        report.value("exp.store_load.busy_s", "s", s.secs("exp.store_load"));
        report.value(
            "exp.store_load.records",
            "count",
            s.count("exp.store_load.records") as f64,
        );
        report.value("exp.store_append.busy_s", "s", s.secs("exp.store_append"));
        report.value(
            "exp.store_append.records",
            "count",
            s.count("exp.store_append.records") as f64,
        );
        report.value("exp.manifest.busy_s", "s", s.secs("exp.manifest"));
        report.value("serve.frame_rtt_us", "us", self.frame_rtt_us);
        report.value("serve.submit.busy_ms", "ms", s.secs("serve.submit") * 1e3);
        report.value("serve.polls_per_job", "count", self.polls_per_job);
        report.value("serve.job_rtt_p95_ms", "ms", self.job_rtt_p95_ms);
        report.value(
            "serve.results_accepted",
            "count",
            self.results_accepted as f64,
        );
        report.value("trace_overhead", "ratio", self.trace_overhead);
        report.value("unattributed_s", "s", unattributed);
    }

    /// Adds the traced pass's deterministic decorator and SimStats counts.
    pub fn counts(&self, report: &mut Report) {
        let p = &self.points;
        let c = &p.core;
        for (k, v) in [
            ("trace.dispatch_calls", c.dispatch.calls),
            ("trace.dispatch_stalls", c.dispatch_stalls),
            ("trace.select_calls", c.select.calls),
            ("trace.issue_requests", c.issue_requests),
            ("trace.grants", c.grants),
            ("trace.wakeup_calls", c.wakeup.calls),
            ("trace.squash_calls", c.squash.calls),
            ("trace.cancel_calls", c.cancel.calls),
            ("trace.fill_calls", p.workload.fill.calls),
            ("trace.fill_instrs", p.workload.instrs),
            ("trace.restore_calls", p.workload.restore.calls),
            ("trace.cycles", p.cycles),
            ("trace.dl1_accesses", p.dl1_accesses),
            ("trace.l2_accesses", p.l2_accesses),
            ("trace.mispredicts", p.mispredicts),
        ] {
            report.count(k, v);
        }
    }
}
