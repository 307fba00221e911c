//! `serve-short`: an in-process `diq serve` on loopback, fed short points.
//!
//! Each iteration spawns a server on a fresh store, `nproc - 1` workers and
//! one client (set-up), then runs three closed-loop phases: a cold grid of
//! 2k-instruction points over several seeds, submitted as one job per
//! scheme; a stream of single-point jobs, each submitted after the previous
//! one finished; and a warm resubmit of the grid. Per-point fixed costs
//! dominate here: frames, leases, the writer thread, store appends, key
//! hashing and simulator construction.

use crate::common::{check_result, fastest, keep_fastest, result_counts, Ctx, Layers, SCHEMES};
use crate::decorate::{traced_execute, PointTrace};
use crate::host::{self, Gauge};
use crate::probe::{elapsed_ns, Spans, SAMPLE_PERIOD};
use crate::report::{percentile, Report};
use diq_exp::{sweep_as, ExperimentSpec, PointRecord, PointResult};
use diq_serve::protocol::{
    read_frame, write_frame, FromServer, JobView, ToServer, PROTOCOL_VERSION,
};
use diq_serve::{run_worker, Client, ServeConfig, ServerHandle, WorkerOptions};
use std::io;
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const BASES: [&str; 4] = ["gzip", "mcf", "swim", "art"];
/// Profile seeds per base in the grid.
const GRID_SEEDS: u64 = 8;
const INSTRS: u64 = 2_000;
/// Single-point jobs per iteration: enough that the p95 round trip has ten
/// samples beyond it.
const SINGLE_JOBS: usize = 200;
const POLL: Duration = Duration::from_micros(250);
/// Untraced iterations run a slice of the host gauge on the client thread
/// between jobs: after each grid job and after every `GAUGE_EVERY`-th
/// single-point job (a slice after every job would take a tenth of the run).
const GAUGE_EVERY: usize = 4;

fn grid_json(seed: u64, scheme: &str) -> String {
    let workloads: Vec<String> = BASES
        .iter()
        .flat_map(|b| {
            (0..GRID_SEEDS).map(move |s| format!("{{\"source\":\"profile:{b}/expected@{s}\"}}"))
        })
        .collect();
    format!(
        "{{\"name\":\"serve-grid.{scheme}\",\"seed\":{seed},\"instructions\":[{INSTRS}],\
         \"schemes\":[\"{scheme}\"],\"workloads\":[{}]}}",
        workloads.join(",")
    )
}

fn single_json(seed: u64, j: usize) -> String {
    let scheme = SCHEMES[j % SCHEMES.len()];
    let base = BASES[(j / SCHEMES.len()) % BASES.len()];
    format!(
        "{{\"name\":\"serve-one.{j}\",\"seed\":{seed},\"instructions\":[{INSTRS}],\
         \"schemes\":[\"{scheme}\"],\"workloads\":[{{\"source\":\"profile:{base}/expected@{}\"}}]}}",
        100 + j
    )
}

/// What a worker thread returns: points executed, and for a traced worker
/// its layer times and its lifetime in seconds.
type WorkerOut = io::Result<(usize, PointTrace, Spans, f64)>;

/// A running server with its workers and client.
struct Farm {
    handle: ServerHandle,
    workers: Vec<JoinHandle<WorkerOut>>,
    client: Client,
}

fn spawn(ctx: &Ctx, name: &str, traced: bool) -> Result<Farm, String> {
    let dir = ctx.work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let handle = ServeConfig {
        store_dir: dir,
        quiet: true,
        ..ServeConfig::default()
    }
    .spawn()
    .map_err(|e| format!("serve spawn: {e}"))?;
    let addr = handle.addr().to_string();
    let workers = (0..ctx.threads.saturating_sub(1).max(1))
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || -> WorkerOut {
                if traced {
                    traced_worker(&addr, i)
                } else {
                    let opts = WorkerOptions {
                        name: format!("bench-{i}"),
                        ..WorkerOptions::default()
                    };
                    run_worker(&addr, &opts)
                        .map(|r| (r.executed, PointTrace::default(), Spans::default(), 0.0))
                }
            })
        })
        .collect::<Vec<_>>();
    let client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            let _ = handle.shutdown();
            for w in workers {
                let _ = w.join();
            }
            return Err(format!("client connect: {e}"));
        }
    };
    Ok(Farm {
        handle,
        workers,
        client,
    })
}

/// `run_worker`, rebuilt from the public wire protocol so the points it
/// executes run decorated. Like `run_worker`, it shares the socket's write
/// half through a mutex with a side thread that sends heartbeats. Time
/// blocked on or writing frames is charged to `serve.worker`, key hashing
/// to `exp.expand`.
fn traced_worker(addr: &str, i: usize) -> WorkerOut {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut spans = Spans::default();
    let t = Instant::now();
    let register = ToServer::Register {
        name: format!("bench-traced-{i}"),
        protocol: PROTOCOL_VERSION,
    };
    send(&writer, &register)?;
    if !matches!(
        read_frame::<FromServer, _>(&mut stream)?,
        FromServer::Registered { .. }
    ) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "worker registration refused",
        ));
    }
    spans.add("serve.worker", elapsed_ns(t));
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let hb_writer = Arc::clone(&writer);
    let period = WorkerOptions::default().heartbeat;
    let heartbeat = std::thread::spawn(move || {
        while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(period) {
            if send(&hb_writer, &ToServer::Heartbeat).is_err() {
                break;
            }
        }
    });
    let mut points = PointTrace::default();
    let outcome = work(&mut stream, &writer, &mut spans, &mut points);
    drop(stop_tx);
    let _ = heartbeat.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    outcome.map(|executed| (executed, points, spans, elapsed_ns(start) / 1e9))
}

/// The traced worker's loop: announce idleness, execute each assigned
/// point decorated, send its record, until the server closes. Returns the
/// points executed.
fn work(
    stream: &mut TcpStream,
    writer: &Mutex<TcpStream>,
    spans: &mut Spans,
    points: &mut PointTrace,
) -> io::Result<usize> {
    let mut executed = 0;
    let t = Instant::now();
    send(writer, &ToServer::Idle)?;
    spans.add("serve.worker", elapsed_ns(t));
    loop {
        let t = Instant::now();
        let msg = read_frame::<FromServer, _>(stream);
        spans.add("serve.worker", elapsed_ns(t));
        match msg {
            Ok(FromServer::Assign { lease, point }) => {
                let (stats, pt) = traced_execute(&point, SAMPLE_PERIOD);
                points.merge(&pt);
                let record = PointRecord {
                    key: spans.time("exp.expand", || point.key()),
                    result: PointResult::from_stats(&point, &stats),
                };
                executed += 1;
                let t = Instant::now();
                send(writer, &ToServer::Result { lease, record })?;
                send(writer, &ToServer::Idle)?;
                spans.add("serve.worker", elapsed_ns(t));
            }
            Ok(FromServer::Close) => return Ok(executed),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset
                ) =>
            {
                return Ok(executed)
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes one frame through the shared write half.
fn send(writer: &Mutex<TcpStream>, msg: &ToServer) -> io::Result<()> {
    let mut stream = writer.lock().unwrap_or_else(PoisonError::into_inner);
    write_frame(&mut *stream, msg)
}

/// One iteration's observations.
#[derive(Default)]
struct Iter {
    setup_s: f64,
    /// Grid-phase seconds per scheme, in [`SCHEMES`] order.
    grid_s: [f64; 4],
    grid_points: usize,
    rtt_ms: Vec<f64>,
    single_polls: u64,
    resume_s: f64,
    /// Wall seconds of the three phases.
    phases_s: f64,
    /// Seconds the client slept between status polls.
    sleep_s: f64,
    accepted: u64,
    spans: Spans,
    points: PointTrace,
    /// Summed lifetimes of traced worker threads.
    worker_s: f64,
    served: Vec<PointRecord>,
    /// CPU seconds of each host gauge slice (untraced iterations only).
    gauge_s: Vec<f64>,
}

/// Submits one job and polls its status until it is done.
fn submit_wait(
    client: &mut Client,
    json: &str,
    it: &mut Iter,
    polls: &mut u64,
) -> Result<JobView, String> {
    let (job, mut view) = it
        .spans
        .time("serve.submit", || client.submit(json, None))
        .map_err(|e| e.to_string())?;
    while !view.done {
        let t = Instant::now();
        std::thread::sleep(POLL);
        it.sleep_s += t.elapsed().as_secs_f64();
        view = it
            .spans
            .time("serve.status", || client.status(job))
            .map_err(|e| e.to_string())?;
        *polls += 1;
    }
    Ok(view)
}

fn iteration(ctx: &Ctx, name: &str, traced: bool, report: &mut Report) -> Result<Iter, String> {
    let mut it = Iter::default();
    let mut gauge = (!traced).then(Gauge::default);
    let t = Instant::now();
    let mut farm = spawn(ctx, name, traced)?;
    it.setup_s = elapsed_ns(t) / 1e9;

    let phases = Instant::now();
    let mut polls = 0;
    for (i, scheme) in SCHEMES.iter().enumerate() {
        let t = Instant::now();
        let view = submit_wait(
            &mut farm.client,
            &grid_json(ctx.seed, scheme),
            &mut it,
            &mut polls,
        )?;
        it.grid_s[i] = elapsed_ns(t) / 1e9;
        if let Some(g) = &mut gauge {
            it.gauge_s.push(g.slice());
        }
        it.grid_points += view.total;
        report
            .checks
            .check(view.cached == 0 && view.computed == view.total, || {
                format!(
                    "cold grid job {scheme}: {} of {} cached",
                    view.cached, view.total
                )
            });
    }
    let mut single_polls = 0;
    for j in 0..SINGLE_JOBS {
        let t = Instant::now();
        let view = submit_wait(
            &mut farm.client,
            &single_json(ctx.seed, j),
            &mut it,
            &mut single_polls,
        )?;
        it.rtt_ms.push(elapsed_ns(t) / 1e6);
        if let Some(g) = gauge
            .as_mut()
            .filter(|_| j % GAUGE_EVERY == GAUGE_EVERY - 1)
        {
            it.gauge_s.push(g.slice());
        }
        report
            .checks
            .check(view.total == 1 && view.computed == 1, || {
                format!(
                    "single-point job {j}: {} points, {} computed",
                    view.total, view.computed
                )
            });
    }
    it.single_polls = single_polls;
    let t = Instant::now();
    for scheme in SCHEMES {
        let view = submit_wait(
            &mut farm.client,
            &grid_json(ctx.seed, scheme),
            &mut it,
            &mut polls,
        )?;
        report
            .checks
            .check(view.computed == 0 && view.cached == view.total, || {
                format!(
                    "warm resubmit {scheme}: {} of {} computed",
                    view.computed, view.total
                )
            });
    }
    it.resume_s = elapsed_ns(t) / 1e9;
    it.phases_s = elapsed_ns(phases) / 1e9;
    it.accepted = farm.handle.results_accepted();

    let dir = ctx.work.join(name);
    drop(farm.client);
    farm.handle
        .shutdown()
        .map_err(|e| format!("serve shutdown: {e}"))?;
    for w in farm.workers {
        match w.join() {
            Ok(Ok((_, pt, spans, secs))) => {
                it.points.merge(&pt);
                it.spans.merge(&spans);
                it.worker_s += secs;
            }
            Ok(Err(e)) => {
                report.checks.check(false, || format!("worker failed: {e}"));
            }
            Err(_) => {
                report.checks.check(false, || "worker panicked".into());
            }
        }
    }
    let store = diq_exp::ResultStore::open(&dir).map_err(|e| e.to_string())?;
    it.served = store
        .load()
        .map_err(|e| e.to_string())?
        .into_values()
        .collect();
    for r in &it.served {
        check_result(&mut report.checks, &r.result);
    }
    report
        .checks
        .check(it.accepted == (it.grid_points + SINGLE_JOBS) as u64, || {
            format!(
                "server accepted {} results for {} distinct points",
                it.accepted,
                it.grid_points + SINGLE_JOBS
            )
        });
    Ok(it)
}

/// The grid swept locally on one thread: the records every served grid
/// must reproduce, and the bytes of the store they were written to.
fn reference(ctx: &Ctx) -> Result<(Vec<PointRecord>, Vec<u8>), String> {
    let store = ctx.fresh_store("reference")?;
    let mut records = Vec::new();
    for scheme in SCHEMES {
        let spec = ExperimentSpec::from_json(&grid_json(ctx.seed, scheme))?;
        let swept = sweep_as(&spec, spec.name.clone(), &store, 1).map_err(|e| e.to_string())?;
        records.extend(swept.records);
    }
    let bytes = store.raw_bytes().map_err(|e| e.to_string())?;
    Ok((records, bytes))
}

/// Checks the served store holds exactly the reference grid records.
fn check_served(it: &Iter, reference: &[PointRecord], report: &mut Report) {
    let missing = reference.iter().filter(|r| !it.served.contains(r)).count();
    report.checks.check(missing == 0, || {
        format!(
            "{missing} of {} served grid records differ from sweep_as --threads 1",
            reference.len()
        )
    });
}

/// Runs the workload with tracing off and reports the end-to-end metrics.
///
/// Like stress-replay, the timings report the fastest run of each unit of
/// work over the iterations (each scheme's grid job, each single-point
/// job, the warm resubmit), scaled to the host gauge's nominal speed. The
/// table beside each metric still summarises the iterations' own,
/// unscaled values.
///
/// # Errors
///
/// Server, spec, store and I/O failures.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (records, bytes) = reference(ctx)?;
    let per_scheme = (INSTRS * GRID_SEEDS * BASES.len() as u64) as f64;
    let cold_instrs = per_scheme * SCHEMES.len() as f64 + (SINGLE_JOBS as u64 * INSTRS) as f64;
    let (mut ips, mut pps, mut rtt, mut resume, mut setup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut scheme_ips: Vec<Vec<f64>> = vec![Vec::new(); SCHEMES.len()];
    let (mut best_grid, mut best_rtt, mut best_gauge) = (Vec::new(), Vec::new(), Vec::new());
    let mut grid_points = 0;
    let mut accepted = None;
    let start = Instant::now();
    let mut iter_s = 0.0;
    while ctx.another(setup.len(), start.elapsed().as_secs_f64(), iter_s) {
        let t = Instant::now();
        let name = format!("serve-{}", setup.len());
        let it = iteration(ctx, &name, false, &mut report)?;
        let _ = std::fs::remove_dir_all(ctx.work.join(&name));
        check_served(&it, &records, &mut report);
        // `sim_ips` covers both cold phases, the grid and the single-point
        // jobs; `points_per_s` the grid phase alone.
        let grid_s: f64 = it.grid_s.iter().sum();
        let single_s = it.rtt_ms.iter().sum::<f64>() / 1e3;
        ips.push(cold_instrs / (grid_s + single_s));
        for (v, s) in scheme_ips.iter_mut().zip(it.grid_s) {
            v.push(per_scheme / s);
        }
        pps.push(it.grid_points as f64 / grid_s);
        rtt.push(percentile(&it.rtt_ms, 50.0));
        resume.push(it.resume_s * 1e3);
        setup.push(it.setup_s);
        keep_fastest(&mut best_grid, &it.grid_s);
        keep_fastest(&mut best_rtt, &it.rtt_ms);
        keep_fastest(&mut best_gauge, &it.gauge_s);
        grid_points = it.grid_points;
        accepted.get_or_insert(it.accepted);
        iter_s = t.elapsed().as_secs_f64();
    }
    // Seconds at the nominal host speed.
    let slow = host::slowdown(&best_gauge);
    report.host_slowdown = Some(slow);
    let best_grid: Vec<f64> = best_grid.iter().map(|s| s / slow).collect();
    let best_rtt: Vec<f64> = best_rtt.iter().map(|s| s / slow).collect();
    let grid_s: f64 = best_grid.iter().sum();
    let single_s = best_rtt.iter().sum::<f64>() / 1e3;
    report.estimated("sim_ips", "1/s", cold_instrs / (grid_s + single_s), &ips);
    for ((label, v), s) in SCHEMES.iter().zip(&scheme_ips).zip(&best_grid) {
        report.estimated(format!("sim_ips.{label}"), "1/s", per_scheme / s, v);
    }
    report.estimated("points_per_s", "1/s", grid_points as f64 / grid_s, &pps);
    report.estimated("job_rtt_p50_ms", "ms", percentile(&best_rtt, 50.0), &rtt);
    report.estimated("resume_ms", "ms", fastest(&resume) / slow, &resume);
    report.value("peak_rss_mb", "MB", crate::report::peak_rss_mb()?);
    report.sampled("setup_s", "s", &setup);
    result_counts(&mut report, "serve_short", &records, &bytes);
    report.count("serve_short.results_accepted", accepted.unwrap_or(0));
    Ok(report)
}

/// Untraced-traced rounds in the traced pass: the host's speed swings by
/// tens of percent within seconds, so one round leaves the overhead at the
/// mercy of a swing.
const TRACED_ROUNDS: usize = 3;

/// Runs [`TRACED_ROUNDS`] rounds of untraced, traced, traced, untraced
/// iterations (so that a steady drift in host speed cancels out of the
/// overhead), checks every iteration served the reference records, and
/// reports the per-layer metrics of the traced ones.
///
/// # Errors
///
/// Server, spec, store and I/O failures.
pub fn run_traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (records, bytes) = reference(ctx)?;
    let mut plain_s = 0.0;
    let mut traced: Vec<Iter> = Vec::new();
    let order = [false, true, true, false].repeat(TRACED_ROUNDS);
    for (i, is_traced) in order.into_iter().enumerate() {
        let it = iteration(ctx, &format!("serve-{i}"), is_traced, &mut report)?;
        check_served(&it, &records, &mut report);
        if is_traced {
            traced.push(it);
        } else {
            plain_s += it.phases_s;
        }
    }
    let mut layers = Layers::default();
    let mut rtt = Vec::new();
    let mut single_polls = 0;
    for it in &traced {
        layers.wall_s += it.phases_s - it.sleep_s + it.worker_s;
        layers.trace_overhead += it.phases_s;
        layers.points.merge(&it.points);
        layers.spans.merge(&it.spans);
        rtt.extend_from_slice(&it.rtt_ms);
        single_polls += it.single_polls;
    }
    layers.trace_overhead = layers.trace_overhead / plain_s - 1.0;
    let status_calls = layers.spans.calls("serve.status").max(1) as f64;
    layers.frame_rtt_us = layers.spans.secs("serve.status") * 1e6 / status_calls;
    layers.polls_per_job = single_polls as f64 / rtt.len() as f64;
    layers.job_rtt_p95_ms = percentile(&rtt, 95.0);
    layers.results_accepted = traced[0].accepted;
    layers.emit(&mut report);
    result_counts(&mut report, "serve_short", &records, &bytes);
    report.count("serve_short.results_accepted", traced[0].accepted);
    layers.counts(&mut report);
    Ok(report)
}
