//! One constructor per paper artifact, and the [`REGISTRY`] that names
//! them.
//!
//! Each function is a pure function over the stored results of the
//! [`Grid`]s its registry entry lists, and returns a [`Figure`] whose rows
//! are shaped like the paper's plot: per-benchmark series plus the
//! aggregate the paper reports (harmonic-mean IPC, suite-mean normalized
//! metrics, …). Paper-reported reference values are attached as notes so
//! text output is self-checking.

use crate::energy::power_pj_per_cycle;
use crate::{ChipEnergy, Figure, Grid, Records};
use diq_core::SchedulerConfig;
use diq_exp::PointResult;
use diq_isa::ProcessorConfig;
use diq_power::ALL_COMPONENTS;
use diq_stats::{arithmetic_mean, pct_loss};
use diq_workload::{suite, WorkloadSpec};

/// A figure constructor: stored records in, rendered artifact out.
pub type Build = fn(&Records) -> Result<Figure, String>;

/// One registered paper artifact.
#[derive(Debug)]
pub struct Artifact {
    /// The id `diq figure` takes (and the rendered figure's id).
    pub id: &'static str,
    /// The grids whose records the artifact reads.
    pub grids: &'static [Grid],
    /// Whether it is one of the paper's artifacts `diq figures` renders
    /// (the ablations are extra studies, rendered only by id).
    pub paper: bool,
    /// The constructor.
    pub build: Build,
}

const fn artifact(id: &'static str, grids: &'static [Grid], build: Build) -> Artifact {
    Artifact {
        id,
        grids,
        paper: true,
        build,
    }
}

const fn ablation(id: &'static str, build: Build) -> Artifact {
    Artifact {
        id,
        grids: &[Grid::Ablations],
        paper: false,
        build,
    }
}

const INT: &[Grid] = &[Grid::IntSweep];
const FP: &[Grid] = &[Grid::FpSweep];
const SWEEPS: &[Grid] = &[Grid::IntSweep, Grid::FpSweep];
const SCHEMES: &[Grid] = &[Grid::PaperSchemes];

/// Every artifact, the paper's in paper order, then the ablations.
pub static REGISTRY: [Artifact; 18] = [
    artifact("tab1", &[], table1),
    artifact("fig2", INT, fig2),
    artifact("fig3", FP, fig3),
    artifact("fig4", FP, fig4),
    artifact("fig6", FP, fig6),
    artifact("sec3", SWEEPS, section3_claims),
    artifact("fig7", SCHEMES, fig7),
    artifact("fig8", SCHEMES, fig8),
    artifact("fig9", SCHEMES, fig9),
    artifact("fig10", SCHEMES, fig10),
    artifact("fig11", SCHEMES, fig11),
    artifact("fig12", SCHEMES, fig12),
    artifact("fig13", SCHEMES, fig13),
    artifact("fig14", SCHEMES, fig14),
    artifact("fig15", SCHEMES, fig15),
    artifact("headline", SCHEMES, headline),
    ablation("ablation_chains", ablation_chains),
    ablation("ablation_priority", ablation_priority),
];

/// The registered artifact `id`.
#[must_use]
pub fn by_id(id: &str) -> Option<&'static Artifact> {
    REGISTRY.iter().find(|a| a.id == id)
}

/// The paper's artifacts, in paper order — what `diq figures` renders.
pub fn paper() -> impl Iterator<Item = &'static Artifact> {
    REGISTRY.iter().filter(|a| a.paper)
}

/// Every registered id, comma-separated (for error messages).
#[must_use]
pub fn ids() -> String {
    REGISTRY.iter().map(|a| a.id).collect::<Vec<_>>().join(", ")
}

/// The queue-count × queue-size sweep of Figures 2–4 and 6:
/// {8, 10, 12} queues × {8, 16} entries.
fn sweep() -> Vec<(usize, usize)> {
    vec![(8, 8), (8, 16), (10, 8), (10, 16), (12, 8), (12, 16)]
}

/// Builds an "% IPC loss w.r.t. the unbounded baseline" figure.
fn ipc_loss_figure(
    id: &str,
    title: &str,
    records: &Records,
    bench_suite: &[WorkloadSpec],
    configs: &[SchedulerConfig],
) -> Result<Figure, String> {
    let baseline = SchedulerConfig::unbounded_baseline();
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(configs.iter().map(SchedulerConfig::label));
    let mut fig = Figure::new(id, title, headers);
    for bench in bench_suite {
        let base_ipc = records.ipc(&baseline, &bench.name)?;
        let mut cells = vec![bench.name.clone()];
        for sc in configs {
            let ipc = records.ipc(sc, &bench.name)?;
            cells.push(format!("{:.1}%", pct_loss(base_ipc, ipc)));
        }
        fig.row(cells);
    }
    // Aggregate row: loss of harmonic-mean IPC, as the paper's bars imply.
    let base_hm = records.harmonic_mean_ipc(&baseline, bench_suite)?;
    let mut cells = vec!["HARMEAN".to_string()];
    for sc in configs {
        let hm = records.harmonic_mean_ipc(sc, bench_suite)?;
        cells.push(format!("{:.1}%", pct_loss(base_hm, hm)));
    }
    fig.row(cells);
    Ok(fig)
}

/// Table 1 — the processor configuration (reads no records; it takes them
/// only to share the registry's signature).
pub fn table1(_: &Records) -> Result<Figure, String> {
    let c = ProcessorConfig::hpca2004();
    let mut fig = Figure::new(
        "tab1",
        "Processor configuration",
        vec!["parameter".into(), "configuration".into()],
    );
    let rows: Vec<(String, String)> = vec![
        (
            "fetch/decode/commit width".into(),
            format!("{} instructions", c.fetch_width),
        ),
        (
            "issue width".into(),
            format!("{} integer + {} FP", c.issue_width_int, c.issue_width_fp),
        ),
        (
            "branch predictor".into(),
            format!(
                "hybrid: {}-entry gshare, {}-entry bimodal, {}-entry selector",
                c.branch.gshare_entries, c.branch.bimodal_entries, c.branch.selector_entries
            ),
        ),
        (
            "BTB".into(),
            format!(
                "{} entries, {}-way",
                c.branch.btb_entries, c.branch.btb_assoc
            ),
        ),
        (
            "L1 I-cache".into(),
            format!(
                "{}K, {}-way, {} B/line, {} cycle",
                c.mem.il1.size_bytes / 1024,
                c.mem.il1.assoc,
                c.mem.il1.line_bytes,
                c.mem.il1.latency
            ),
        ),
        (
            "L1 D-cache".into(),
            format!(
                "{}K, {}-way, {} B/line, {} cycles, {} R/W ports",
                c.mem.dl1.size_bytes / 1024,
                c.mem.dl1.assoc,
                c.mem.dl1.line_bytes,
                c.mem.dl1.latency,
                c.mem.dl1.ports
            ),
        ),
        (
            "L2 unified".into(),
            format!(
                "{}K, {}-way, {} B/line, {} cycles",
                c.mem.l2.size_bytes / 1024,
                c.mem.l2.assoc,
                c.mem.l2.line_bytes,
                c.mem.l2.latency
            ),
        ),
        (
            "main memory".into(),
            format!(
                "{} B bandwidth, {} cycles first chunk, {} inter-chunk",
                c.mem.main.chunk_bytes, c.mem.main.first_chunk, c.mem.main.inter_chunk
            ),
        ),
        ("fetch queue".into(), format!("{} entries", c.fetch_queue)),
        (
            "reorder buffer".into(),
            format!("{} entries", c.rob_entries),
        ),
        (
            "registers".into(),
            format!(
                "{} INT + {} FP (energy model; window is RUU-style)",
                diq_isa::TABLE1_REGISTERS,
                diq_isa::TABLE1_REGISTERS
            ),
        ),
        (
            "INT functional units".into(),
            format!(
                "{} ALU ({} cycle), {} mult/div ({}-cycle mult, {}-cycle div)",
                c.fus.int_alu, c.lat.int_alu, c.fus.int_mul_div, c.lat.int_mul, c.lat.int_div
            ),
        ),
        (
            "FP functional units".into(),
            format!(
                "{} ALU ({} cycles), {} mult/div ({}-cycle mult, {}-cycle div)",
                c.fus.fp_add, c.lat.fp_add, c.fus.fp_mul_div, c.lat.fp_mul, c.lat.fp_div
            ),
        ),
        ("technology".into(), "0.10 um".into()),
    ];
    for (k, v) in rows {
        fig.row(vec![k, v]);
    }
    Ok(fig)
}

/// Figure 2 — IPC loss of IssueFIFO w.r.t. the unbounded conventional queue
/// (SPECint), sweeping the *integer* queues (FP fixed at 16×16).
pub fn fig2(records: &Records) -> Result<Figure, String> {
    let configs: Vec<SchedulerConfig> = sweep()
        .into_iter()
        .map(|(q, e)| SchedulerConfig::issue_fifo(q, e, 16, 16))
        .collect();
    let mut fig = ipc_loss_figure(
        "fig2",
        "IPC loss of IssueFIFO w.r.t. unbounded conventional issue queue (SPECint)",
        records,
        &suite::spec_int(),
        &configs,
    )?;
    fig.note("paper: losses are small (0–8%); more queues help, larger queues barely do");
    Ok(fig)
}

/// Figure 3 — IPC loss of IssueFIFO (SPECfp), sweeping the *FP* queues
/// (integer fixed at 16×16).
pub fn fig3(records: &Records) -> Result<Figure, String> {
    let configs: Vec<SchedulerConfig> = sweep()
        .into_iter()
        .map(|(q, e)| SchedulerConfig::issue_fifo(16, 16, q, e))
        .collect();
    let mut fig = ipc_loss_figure(
        "fig3",
        "IPC loss of IssueFIFO w.r.t. unbounded conventional issue queue (SPECfp)",
        records,
        &suite::spec_fp(),
        &configs,
    )?;
    fig.note("paper: FP losses are much larger than integer ones (up to ~25%)");
    Ok(fig)
}

/// Figure 4 — IPC loss of LatFIFO (SPECfp).
pub fn fig4(records: &Records) -> Result<Figure, String> {
    let configs: Vec<SchedulerConfig> = sweep()
        .into_iter()
        .map(|(q, e)| SchedulerConfig::lat_fifo(16, 16, q, e))
        .collect();
    let mut fig = ipc_loss_figure(
        "fig4",
        "IPC loss of LatFIFO w.r.t. unbounded conventional issue queue (SPECfp)",
        records,
        &suite::spec_fp(),
        &configs,
    )?;
    fig.note("paper: ~10% better than IssueFIFO on average; queue size hardly matters");
    Ok(fig)
}

/// Figure 6 — IPC loss of MixBUFF (SPECfp), unbounded chains per queue.
pub fn fig6(records: &Records) -> Result<Figure, String> {
    let configs: Vec<SchedulerConfig> = sweep()
        .into_iter()
        .map(|(q, e)| SchedulerConfig::mix_buff(16, 16, q, e, None))
        .collect();
    let mut fig = ipc_loss_figure(
        "fig6",
        "IPC loss of MixBUFF w.r.t. unbounded conventional issue queue (SPECfp)",
        records,
        &suite::spec_fp(),
        &configs,
    )?;
    fig.note("paper: 8 queues x 16 entries loses only ~5%; buffer size matters more than count");
    Ok(fig)
}

/// The numeric claims sprinkled through Section 3's prose.
pub fn section3_claims(records: &Records) -> Result<Figure, String> {
    let int_suite = suite::spec_int();
    let fp_suite = suite::spec_fp();
    let hm = |sc: &SchedulerConfig, suite: &[WorkloadSpec]| records.harmonic_mean_ipc(sc, suite);
    let base_fp = hm(&SchedulerConfig::unbounded_baseline(), &fp_suite)?;

    let mut fig = Figure::new(
        "sec3",
        "Section 3 prose claims",
        vec!["claim".into(), "paper".into(), "measured".into()],
    );

    // (a) Integer FIFOs: 8→16 entries improves ~0.1% for 8/10/12 queues.
    for q in [8usize, 10, 12] {
        let small = hm(&SchedulerConfig::issue_fifo(q, 8, 16, 16), &int_suite)?;
        let large = hm(&SchedulerConfig::issue_fifo(q, 16, 16, 16), &int_suite)?;
        fig.row(vec![
            format!("IssueFIFO int {q} queues, 8->16 entries IPC gain"),
            "+0.1%".into(),
            format!("{:+.2}%", 100.0 * (large - small) / small),
        ]);
    }

    // (b) LatFIFO ≈ 10% better than IssueFIFO on FP (average over sweep).
    let mut gains = Vec::new();
    for (q, e) in sweep() {
        let iff = hm(&SchedulerConfig::issue_fifo(16, 16, q, e), &fp_suite)?;
        let lat = hm(&SchedulerConfig::lat_fifo(16, 16, q, e), &fp_suite)?;
        gains.push(100.0 * (lat - iff) / iff);
    }
    fig.row(vec![
        "LatFIFO IPC vs IssueFIFO (SPECfp, sweep average)".into(),
        "~ +10%".into(),
        format!(
            "{:+.1}%",
            arithmetic_mean(gains.iter().copied()).ok_or("no sweep geometries")?
        ),
    ]);

    // (c) With 8 FP queues of 16 entries: MixBUFF 5.2%, IssueFIFO 24.8%,
    //     LatFIFO 15.2% loss.
    for (label, sc, paper) in [
        (
            "MixBUFF_16x16_8x16 FP loss",
            SchedulerConfig::mix_buff(16, 16, 8, 16, None),
            "5.2%",
        ),
        (
            "IssueFIFO_16x16_8x16 FP loss",
            SchedulerConfig::issue_fifo(16, 16, 8, 16),
            "24.8%",
        ),
        (
            "LatFIFO_16x16_8x16 FP loss",
            SchedulerConfig::lat_fifo(16, 16, 8, 16),
            "15.2%",
        ),
    ] {
        let v = hm(&sc, &fp_suite)?;
        fig.row(vec![
            label.into(),
            paper.into(),
            format!("{:.1}%", pct_loss(base_fp, v)),
        ]);
    }
    Ok(fig)
}

/// The baseline and the paper's two distributed schemes (Figures 7–15).
fn paper_schemes() -> [SchedulerConfig; 3] {
    [
        SchedulerConfig::iq_64_64(),
        SchedulerConfig::if_distr(),
        SchedulerConfig::mb_distr(),
    ]
}

/// An IPC-per-benchmark figure (Figures 7 and 8).
fn ipc_figure(
    id: &str,
    title: &str,
    records: &Records,
    bench_suite: &[WorkloadSpec],
) -> Result<Figure, String> {
    let schemes = paper_schemes();
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(schemes.iter().map(SchedulerConfig::label));
    let mut fig = Figure::new(id, title, headers);
    for bench in bench_suite {
        let mut cells = vec![bench.name.clone()];
        for sc in &schemes {
            cells.push(format!("{:.2}", records.ipc(sc, &bench.name)?));
        }
        fig.row(cells);
    }
    let mut cells = vec!["HARMEAN".to_string()];
    for sc in &schemes {
        cells.push(format!(
            "{:.2}",
            records.harmonic_mean_ipc(sc, bench_suite)?
        ));
    }
    fig.row(cells);
    Ok(fig)
}

/// Figure 7 — IPC for the integer benchmarks.
pub fn fig7(records: &Records) -> Result<Figure, String> {
    let mut fig = ipc_figure(
        "fig7",
        "Performance for the integer benchmarks (IPC)",
        records,
        &suite::spec_int(),
    )?;
    fig.note("paper: IF_distr and MB_distr behave identically on SPECint (except eon) and lose ~7.7% vs IQ_64_64");
    Ok(fig)
}

/// Figure 8 — IPC for the FP benchmarks.
pub fn fig8(records: &Records) -> Result<Figure, String> {
    let mut fig = ipc_figure(
        "fig8",
        "Performance for the FP benchmarks (IPC)",
        records,
        &suite::spec_fp(),
    )?;
    fig.note("paper: IF_distr loses 26.0%, MB_distr only 7.6% vs IQ_64_64; MB_distr wins on every FP benchmark");
    Ok(fig)
}

/// Each component's share of a suite's summed issue-queue energy, in
/// [`ALL_COMPONENTS`] order. Sums per component in run order, then the
/// total in component order — the same f64 operations as adding the runs'
/// energy meters and taking `EnergyMeter::fraction`.
fn suite_fractions(runs: &[&PointResult]) -> [f64; ALL_COMPONENTS.len()] {
    let mut pj = [0.0; ALL_COMPONENTS.len()];
    for r in runs {
        for (label, e) in &r.energy_breakdown {
            if let Some(i) = ALL_COMPONENTS.iter().position(|c| c.paper_label() == label) {
                pj[i] += e;
            }
        }
    }
    let total: f64 = pj.iter().sum();
    pj.map(|e| if total == 0.0 { 0.0 } else { e / total })
}

/// An energy-breakdown figure (Figures 9–11).
fn breakdown_figure(
    id: &str,
    title: &str,
    records: &Records,
    scheme: &SchedulerConfig,
) -> Result<Figure, String> {
    let int_e = suite_fractions(&records.suite(scheme, &suite::spec_int())?);
    let fp_e = suite_fractions(&records.suite(scheme, &suite::spec_fp())?);
    let mut fig = Figure::new(
        id,
        title,
        vec!["component".into(), "SPECINT".into(), "SPECFP".into()],
    );
    for ((c, i), f) in ALL_COMPONENTS.iter().zip(int_e).zip(fp_e) {
        if i > 0.0005 || f > 0.0005 {
            fig.row(vec![
                c.paper_label().to_string(),
                format!("{:.1}%", 100.0 * i),
                format!("{:.1}%", 100.0 * f),
            ]);
        }
    }
    Ok(fig)
}

/// Figure 9 — energy breakdown of the `IQ_64_64` baseline.
pub fn fig9(records: &Records) -> Result<Figure, String> {
    let mut fig = breakdown_figure(
        "fig9",
        "Energy breakdown for IQ_64_64",
        records,
        &SchedulerConfig::iq_64_64(),
    )?;
    fig.note("paper: wakeup dominates even with unready-only comparators; buff and select follow; MuxIntALU is the visible mux");
    Ok(fig)
}

/// Figure 10 — energy breakdown of `IF_distr`.
pub fn fig10(records: &Records) -> Result<Figure, String> {
    let mut fig = breakdown_figure(
        "fig10",
        "Energy breakdown for IF_distr",
        records,
        &SchedulerConfig::if_distr(),
    )?;
    fig.note("paper: Qrename 25-30%, fifo ~35%, regs_ready ~35%, mux negligible");
    Ok(fig)
}

/// Figure 11 — energy breakdown of `MB_distr`.
pub fn fig11(records: &Records) -> Result<Figure, String> {
    let mut fig = breakdown_figure(
        "fig11",
        "Energy breakdown for MB_distr",
        records,
        &SchedulerConfig::mb_distr(),
    )?;
    fig.note(
        "paper: like IF_distr on SPECint; on SPECfp adds buff/select/chains terms, reg negligible",
    );
    Ok(fig)
}

/// Shared builder for the normalized comparisons of Figures 12–15.
fn normalized_figure<F>(
    id: &str,
    title: &str,
    records: &Records,
    metric: F,
) -> Result<Figure, String>
where
    F: Fn(&PointResult, &PointResult) -> f64,
{
    let schemes = paper_schemes();
    let mut fig = Figure::new(
        id,
        title,
        vec!["scheme".into(), "SPECINT".into(), "SPECFP".into()],
    );
    let int_suite = suite::spec_int();
    let fp_suite = suite::spec_fp();
    let base_int = records.suite(&schemes[0], &int_suite)?;
    let base_fp = records.suite(&schemes[0], &fp_suite)?;
    for sc in &schemes {
        let mut cells = vec![sc.label()];
        for (bench_suite, base_runs) in [(&int_suite, &base_int), (&fp_suite, &base_fp)] {
            let runs = records.suite(sc, bench_suite)?;
            let vals = runs.iter().zip(base_runs).map(|(r, b)| metric(r, b));
            let mean = arithmetic_mean(vals).ok_or("no benchmarks to average")?;
            cells.push(format!("{mean:.3}"));
        }
        fig.row(cells);
    }
    Ok(fig)
}

/// Figure 12 — normalized issue-queue power dissipation.
pub fn fig12(records: &Records) -> Result<Figure, String> {
    let mut fig = normalized_figure(
        "fig12",
        "Normalized issue-queue power dissipation",
        records,
        |r, b| power_pj_per_cycle(r) / power_pj_per_cycle(b),
    )?;
    fig.note("paper: both distributed schemes dissipate a small fraction of the baseline's power");
    Ok(fig)
}

/// Figure 13 — normalized issue-queue energy consumption.
pub fn fig13(records: &Records) -> Result<Figure, String> {
    let mut fig = normalized_figure(
        "fig13",
        "Normalized issue-queue energy consumption",
        records,
        |r, b| r.energy_pj / b.energy_pj,
    )?;
    fig.note(
        "paper: MB_distr spends slightly more than IF_distr on SPECfp, both far below IQ_64_64",
    );
    Ok(fig)
}

/// Figure 14 — normalized whole-chip energy × delay (issue queue = 23% of
/// chip power in the baseline).
pub fn fig14(records: &Records) -> Result<Figure, String> {
    let mut fig = normalized_figure("fig14", "Normalized energy x delay", records, |r, b| {
        ChipEnergy::derive(r, b).ed() / ChipEnergy::derive(b, b).ed()
    })?;
    fig.note("paper: MB_distr beats the baseline by ~5% and IF_distr by ~18% on SPECfp");
    Ok(fig)
}

/// Figure 15 — normalized whole-chip energy × delay².
pub fn fig15(records: &Records) -> Result<Figure, String> {
    let mut fig = normalized_figure("fig15", "Normalized energy x delay^2", records, |r, b| {
        ChipEnergy::derive(r, b).ed2() / ChipEnergy::derive(b, b).ed2()
    })?;
    fig.note("paper: MB_distr ~= baseline; 35% better than IF_distr on SPECfp");
    Ok(fig)
}

/// The abstract/conclusion headline numbers.
pub fn headline(records: &Records) -> Result<Figure, String> {
    let fig14 = fig14(records)?;
    let fig15 = fig15(records)?;
    let fig7 = fig7(records)?;
    let fig8 = fig8(records)?;

    let mut fig = Figure::new(
        "headline",
        "Abstract / Section 5 headline claims",
        vec!["claim".into(), "paper".into(), "measured".into()],
    );

    let v = |f: &Figure, row: &str, col: &str| {
        f.value(row, col)
            .ok_or_else(|| format!("{} has no numeric {row}/{col} cell", f.id))
    };

    let ed_mb = v(&fig14, "MB_distr", "SPECFP")?;
    let ed_if = v(&fig14, "IF_distr", "SPECFP")?;
    let ed2_mb = v(&fig15, "MB_distr", "SPECFP")?;
    let ed2_if = v(&fig15, "IF_distr", "SPECFP")?;
    fig.row(vec![
        "ED^2: MB_distr vs IF_distr (SPECfp)".into(),
        "-35%".into(),
        format!("{:+.1}%", 100.0 * (ed2_mb - ed2_if) / ed2_if),
    ]);
    fig.row(vec![
        "ED: MB_distr vs IF_distr (SPECfp)".into(),
        "-18%".into(),
        format!("{:+.1}%", 100.0 * (ed_mb - ed_if) / ed_if),
    ]);
    fig.row(vec![
        "ED: MB_distr vs baseline (SPECfp)".into(),
        "-5%".into(),
        format!("{:+.1}%", 100.0 * (ed_mb - 1.0)),
    ]);
    fig.row(vec![
        "ED^2: MB_distr vs baseline (SPECfp)".into(),
        "~0%".into(),
        format!("{:+.1}%", 100.0 * (ed2_mb - 1.0)),
    ]);

    let hm_base_fp = v(&fig8, "HARMEAN", "IQ_64_64")?;
    let hm_mb_fp = v(&fig8, "HARMEAN", "MB_distr")?;
    let hm_if_fp = v(&fig8, "HARMEAN", "IF_distr")?;
    fig.row(vec![
        "FP IPC loss: MB_distr vs IQ_64_64".into(),
        "7.6%".into(),
        format!("{:.1}%", pct_loss(hm_base_fp, hm_mb_fp)),
    ]);
    fig.row(vec![
        "FP IPC loss: IF_distr vs IQ_64_64".into(),
        "26.0%".into(),
        format!("{:.1}%", pct_loss(hm_base_fp, hm_if_fp)),
    ]);
    let hm_base_int = v(&fig7, "HARMEAN", "IQ_64_64")?;
    let hm_mb_int = v(&fig7, "HARMEAN", "MB_distr")?;
    fig.row(vec![
        "INT IPC loss: MB_distr/IF_distr vs IQ_64_64".into(),
        "7.7%".into(),
        format!("{:.1}%", pct_loss(hm_base_int, hm_mb_int)),
    ]);
    Ok(fig)
}

/// Ablation: how many chains per queue does MixBUFF actually need?
///
/// The paper fixes `MB_distr` at 8 chains per FP queue after noting that
/// chains are what let multiple dependence sequences share a buffer. This
/// measures SPECfp harmonic-mean IPC as the per-queue chain budget shrinks
/// from 16 to 1 (at 1 chain per queue, MixBUFF degenerates into a
/// throughput-limited IssueFIFO-like structure).
pub fn ablation_chains(records: &Records) -> Result<Figure, String> {
    let fp = suite::spec_fp();
    let base_hm = records.harmonic_mean_ipc(&SchedulerConfig::unbounded_baseline(), &fp)?;
    let mut fig = Figure::new(
        "ablation_chains",
        "MixBUFF 8x16: SPECfp IPC loss vs chains per queue",
        vec![
            "chains/queue".into(),
            "HARMEAN IPC".into(),
            "loss vs unbounded IQ".into(),
        ],
    );
    for chains in [1usize, 2, 4, 8, 16] {
        let sc = SchedulerConfig::mix_buff(16, 16, 8, 16, Some(chains));
        let hm = records.harmonic_mean_ipc(&sc, &fp)?;
        fig.row(vec![
            format!("{chains}"),
            format!("{hm:.2}"),
            format!("{:.1}%", pct_loss(base_hm, hm)),
        ]);
    }
    fig.note("paper: MB_distr uses 8 chains/queue; Figure 6 assumed unbounded chains");
    Ok(fig)
}

/// Ablation: what is the paper's selection-priority heuristic worth?
///
/// MixBUFF gives instructions whose chain finishes *this cycle* priority
/// over instructions that became ready earlier but were delayed ("this
/// heuristic avoids selecting instructions that depend on either loads that
/// missed in cache or unfinished instructions of other queues"). This
/// compares `MB_distr` against the same machine selecting purely
/// oldest-first.
pub fn ablation_priority(records: &Records) -> Result<Figure, String> {
    let mut fig = Figure::new(
        "ablation_priority",
        "MB_distr selection: paper heuristic vs oldest-first (SPECfp IPC)",
        vec![
            "benchmark".into(),
            "fresh-first (paper)".into(),
            "oldest-first".into(),
            "heuristic gain".into(),
        ],
    );
    for bench in suite::spec_fp() {
        let with = records.ipc(&SchedulerConfig::mb_distr(), &bench.name)?;
        let without = records.ipc(&SchedulerConfig::mb_distr_age_only(), &bench.name)?;
        fig.row(vec![
            bench.name.clone(),
            format!("{with:.2}"),
            format!("{without:.2}"),
            format!("{:+.1}%", -pct_loss(without, with)),
        ]);
    }
    fig.note("paper argues the heuristic avoids wasting each queue's single selection slot on blocked instructions");
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_exp::{Point, ResultStore};
    use diq_power::EnergyMeter;
    use std::sync::OnceLock;

    /// The paper-schemes grid at 400 instructions, swept once into a
    /// temp-dir store and shared by every test here.
    fn tiny() -> &'static Records {
        static RECORDS: OnceLock<Records> = OnceLock::new();
        RECORDS.get_or_init(|| {
            let dir = std::env::temp_dir().join(format!("diq-sim-figs-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = ResultStore::open(&dir).unwrap();
            let spec = Grid::PaperSchemes.spec(400);
            let outcome = diq_exp::sweep(&spec, &store, 2).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            Records::new(outcome.records.into_iter().map(|r| r.result))
        })
    }

    #[test]
    fn registry_ids_are_unique_and_name_their_figures() {
        for (i, a) in REGISTRY.iter().enumerate() {
            assert!(REGISTRY[..i].iter().all(|b| b.id != a.id), "{} twice", a.id);
            assert_eq!(by_id(a.id).map(|b| b.id), Some(a.id));
        }
        assert_eq!(paper().count(), 16);
        assert!(by_id("fig5").is_none());
        assert!(ids().starts_with("tab1, fig2,"));
    }

    #[test]
    fn table1_lists_every_parameter() {
        let t = table1(&Records::new([])).unwrap();
        assert!(t.rows.len() >= 13);
        assert!(t
            .cell("reorder buffer", "configuration")
            .unwrap()
            .contains("256"));
    }

    #[test]
    fn fig7_has_12_benchmarks_plus_harmean() {
        let f = fig7(tiny()).unwrap();
        assert_eq!(f.rows.len(), 13);
        assert!(f.value("HARMEAN", "IQ_64_64").unwrap() > 0.0);
    }

    #[test]
    fn fig9_breakdown_sums_to_one() {
        let f = fig9(tiny()).unwrap();
        for col in ["SPECINT", "SPECFP"] {
            let total: f64 = f.rows.iter().map(|r| f.value(&r[0], col).unwrap()).sum();
            assert!((total - 100.0).abs() < 1.0, "{col} sums to {total}");
        }
        // The baseline has wakeup energy but no steering tables.
        assert!(f.cell("wakeup", "SPECINT").is_some());
        assert!(f.cell("Qrename", "SPECINT").is_none());
    }

    #[test]
    fn fig10_has_fifo_components_not_wakeup() {
        let f = fig10(tiny()).unwrap();
        assert!(f.cell("Qrename", "SPECINT").is_some());
        assert!(f.cell("wakeup", "SPECINT").is_none());
    }

    #[test]
    fn fig12_baseline_normalizes_to_unity() {
        // 400 instructions is too short for meaningful power ratios (the
        // integration suite checks MB_distr < baseline at realistic length);
        // here we only verify the normalization identity.
        let f = fig12(tiny()).unwrap();
        assert!((f.value("IQ_64_64", "SPECINT").unwrap() - 1.0).abs() < 1e-9);
        assert!(f.value("MB_distr", "SPECFP").unwrap() > 0.0);
    }

    #[test]
    fn stored_breakdowns_give_the_energy_meters_fractions_bit_for_bit() {
        let runs: Vec<(diq_power::EnergyMeter, PointResult)> = ["gzip", "swim", "art"]
            .iter()
            .map(|b| {
                let p = Point::new(
                    ProcessorConfig::hpca2004(),
                    SchedulerConfig::mb_distr(),
                    suite::by_name(b).unwrap(),
                    700,
                );
                let stats = p.execute();
                // Through the store's text form, as figures read it.
                let json = serde_json::to_string(&PointResult::from_stats(&p, &stats)).unwrap();
                (stats.energy, serde_json::from_str(&json).unwrap())
            })
            .collect();
        let mut meter = EnergyMeter::new();
        for (m, _) in &runs {
            meter += m;
        }
        let stored: Vec<&PointResult> = runs.iter().map(|(_, r)| r).collect();
        let fractions = suite_fractions(&stored);
        for (c, f) in ALL_COMPONENTS.iter().zip(fractions) {
            assert_eq!(f.to_bits(), meter.fraction(*c).to_bits(), "{c}");
        }
    }

    #[test]
    fn doctored_records_are_errors_naming_scheme_and_benchmark() {
        let doctor = |edit: fn(&mut PointResult)| {
            let mut records = tiny().clone();
            let key = ("MB_distr".to_string(), "swim".to_string());
            edit(records.by_point.get_mut(&key).unwrap());
            records
        };
        for (edit, what) in [
            ((|r| r.ipc = 0.0) as fn(&mut PointResult), "ipc 0"),
            (|r| r.ipc = f64::NAN, "ipc NaN"),
            (|r| r.cycles = 0, "0 cycles"),
            (|r| r.energy_pj = f64::INFINITY, "energy inf"),
            (|r| r.energy_breakdown[0].1 = -1.0, "energy -1"),
            (|r| r.energy_breakdown[0].0 = "bogus".into(), "`bogus`"),
        ] {
            let records = doctor(edit);
            for build in [fig8 as Build, fig11, fig14, headline] {
                let err = build(&records).unwrap_err();
                assert!(
                    err.contains("MB_distr on swim") && err.contains(what),
                    "{err}"
                );
            }
        }
        let mut records = tiny().clone();
        records.by_point.retain(|(_, b), _| b != "gzip");
        let err = fig7(&records).unwrap_err();
        assert!(
            err.contains("no stored record for IQ_64_64 on gzip"),
            "{err}"
        );
    }
}
