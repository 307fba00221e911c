//! The grids the paper artifacts read, and the stored results they are
//! built from.
//!
//! Every artifact is a pure function over [`PointResult`]s. The results
//! come from the same path `diq sweep` takes: each [`Grid`] is a checked-in
//! [`ExperimentSpec`] under `experiments/figures/`, swept with
//! [`diq_exp::sweep_as`] against a [`ResultStore`], so a warm store (from an
//! earlier `diq figures`, `diq sweep` or `diq serve` run) makes the
//! artifacts free.

use crate::figures::Artifact;
use crate::Figure;
use diq_core::SchedulerConfig;
use diq_exp::{ExperimentSpec, InstrCount, PointResult, ResultStore};
use diq_power::ALL_COMPONENTS;
use diq_stats::harmonic_mean;
use diq_workload::WorkloadSpec;
use std::collections::HashMap;

/// A checked-in experiment grid that paper artifacts read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Grid {
    /// SPECint × the unbounded baseline and the six integer-side IssueFIFO
    /// geometries (Figure 2, Section 3 claim a).
    IntSweep,
    /// SPECfp × the unbounded baseline and the six FP-side IssueFIFO,
    /// LatFIFO and MixBUFF geometries (Figures 3, 4, 6, Section 3 claims b
    /// and c).
    FpSweep,
    /// All 26 models × `IQ_64_64`, `IF_distr`, `MB_distr` (Figures 7–15 and
    /// the headline claims).
    PaperSchemes,
    /// SPECfp × the chain-budget and selection-priority ablations.
    Ablations,
}

impl Grid {
    /// The grid's checked-in spec (embedded, so figures work from any
    /// directory) with its instruction axis set to `instructions`.
    ///
    /// # Panics
    ///
    /// If the embedded spec does not parse — a build-time invariant the
    /// test suite checks.
    #[must_use]
    pub fn spec(self, instructions: u64) -> ExperimentSpec {
        let json = match self {
            Grid::IntSweep => include_str!("../../../experiments/figures/int_sweep.json"),
            Grid::FpSweep => include_str!("../../../experiments/figures/fp_sweep.json"),
            Grid::PaperSchemes => include_str!("../../../experiments/figures/paper_schemes.json"),
            Grid::Ablations => include_str!("../../../experiments/figures/ablations.json"),
        };
        let mut spec = ExperimentSpec::from_json(json)
            .unwrap_or_else(|e| panic!("embedded figure spec {self:?}: {e}"));
        spec.instructions = vec![InstrCount(instructions)];
        spec
    }
}

/// Stored results indexed by (scheme label, benchmark) — what one
/// artifact reads.
///
/// Store lines are input from outside the program, so every lookup checks
/// the fields the figures aggregate and returns an error naming the scheme
/// and benchmark instead of letting a doctored record reach a mean.
#[derive(Clone, Debug)]
pub struct Records {
    pub(crate) by_point: HashMap<(String, String), PointResult>,
}

impl Records {
    /// Indexes `results` by scheme label and benchmark.
    pub(crate) fn new(results: impl IntoIterator<Item = PointResult>) -> Self {
        let by_point = results
            .into_iter()
            .map(|r| ((r.scheme.clone(), r.benchmark.clone()), r))
            .collect();
        Records { by_point }
    }

    /// The record of `scheme` on `benchmark`; an error when it is missing,
    /// its IPC, cycles or energy is not positive and finite, or its
    /// breakdown names an unknown component or a negative or non-finite
    /// energy.
    pub(crate) fn get(
        &self,
        scheme: &SchedulerConfig,
        benchmark: &str,
    ) -> Result<&PointResult, String> {
        let label = scheme.label();
        let r = self
            .by_point
            .get(&(label.clone(), benchmark.to_string()))
            .ok_or_else(|| format!("no stored record for {label} on {benchmark}"))?;
        let bad = |what: String| format!("stored record for {label} on {benchmark}: {what}");
        if !(r.ipc.is_finite() && r.ipc > 0.0) {
            return Err(bad(format!(
                "ipc {} is not a positive finite number",
                r.ipc
            )));
        }
        if r.cycles == 0 {
            return Err(bad("0 cycles".into()));
        }
        if !(r.energy_pj.is_finite() && r.energy_pj > 0.0) {
            return Err(bad(format!(
                "energy {} pJ is not a positive finite number",
                r.energy_pj
            )));
        }
        for (component, pj) in &r.energy_breakdown {
            if !ALL_COMPONENTS.iter().any(|c| c.paper_label() == component) {
                return Err(bad(format!("unknown energy component `{component}`")));
            }
            if !(pj.is_finite() && *pj >= 0.0) {
                return Err(bad(format!(
                    "{component} energy {pj} pJ is not finite and >= 0"
                )));
            }
        }
        Ok(r)
    }

    /// The checked IPC of `scheme` on `benchmark`.
    pub(crate) fn ipc(&self, scheme: &SchedulerConfig, benchmark: &str) -> Result<f64, String> {
        self.get(scheme, benchmark).map(|r| r.ipc)
    }

    /// The checked records of `scheme` over `suite`, in suite order.
    pub(crate) fn suite(
        &self,
        scheme: &SchedulerConfig,
        suite: &[WorkloadSpec],
    ) -> Result<Vec<&PointResult>, String> {
        suite.iter().map(|b| self.get(scheme, &b.name)).collect()
    }

    /// Harmonic-mean IPC of `scheme` over `suite` — the paper's "HARMEAN".
    pub(crate) fn harmonic_mean_ipc(
        &self,
        scheme: &SchedulerConfig,
        suite: &[WorkloadSpec],
    ) -> Result<f64, String> {
        let runs = self.suite(scheme, suite)?;
        harmonic_mean(runs.iter().map(|r| r.ipc))
            .ok_or_else(|| format!("{}: no benchmarks to average", scheme.label()))
    }
}

/// What one reproduction pass did.
#[derive(Clone, Debug)]
pub struct Reproduction {
    /// The artifacts, in the order requested.
    pub figures: Vec<Figure>,
    /// Grid points this pass simulated.
    pub computed: usize,
    /// Grid points the store served.
    pub cached: usize,
}

/// Builds `artifacts` from `store`: sweeps every grid they read (each
/// once, at `instructions` per point, on `threads` workers) with
/// [`diq_exp::sweep_as`] under the grid's run name, then builds each
/// artifact from its grids' records.
///
/// # Errors
///
/// Store I/O, and any artifact whose records make it undefined (the
/// message starts with the artifact id).
pub fn reproduce(
    artifacts: &[&Artifact],
    instructions: u64,
    store: &ResultStore,
    threads: usize,
) -> Result<Reproduction, String> {
    let mut swept: HashMap<Grid, Vec<PointResult>> = HashMap::new();
    let (mut computed, mut cached) = (0, 0);
    for &grid in artifacts.iter().flat_map(|a| a.grids) {
        if swept.contains_key(&grid) {
            continue;
        }
        let spec = grid.spec(instructions);
        let outcome = diq_exp::sweep_as(&spec, spec.name.clone(), store, threads)
            .map_err(|e| format!("sweep `{}`: {e}", spec.name))?;
        computed += outcome.computed;
        cached += outcome.cached;
        swept.insert(
            grid,
            outcome.records.into_iter().map(|r| r.result).collect(),
        );
    }
    let figures = artifacts
        .iter()
        .map(|a| {
            let records = Records::new(a.grids.iter().flat_map(|g| swept[g].iter().cloned()));
            (a.build)(&records).map_err(|e| format!("{}: {e}", a.id))
        })
        .collect::<Result<_, _>>()?;
    Ok(Reproduction {
        figures,
        computed,
        cached,
    })
}

/// Instructions per point for figure runs: `DIQ_INSTRS` when set
/// (`100k`/`5M`-style suffixes accepted), else
/// [`DEFAULT_INSTRUCTIONS`](crate::DEFAULT_INSTRUCTIONS).
///
/// # Errors
///
/// A set `DIQ_INSTRS` that is not a positive count — a typo silently
/// producing figures at the wrong fidelity would be worse than stopping.
pub fn instructions_from_env() -> Result<u64, String> {
    match std::env::var("DIQ_INSTRS") {
        Err(std::env::VarError::NotPresent) => Ok(crate::DEFAULT_INSTRUCTIONS),
        Ok(s) => diq_exp::parse_count(&s).filter(|&n| n > 0).ok_or_else(|| {
            format!("DIQ_INSTRS=`{s}` is not a valid instruction count (try 250000 or 100k)")
        }),
        Err(e) => Err(format!("DIQ_INSTRS: {e}")),
    }
}
