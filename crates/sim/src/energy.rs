//! Whole-chip energy scaling (the paper's Section 4.5 method).

use diq_exp::PointResult;
use diq_power::ISSUE_QUEUE_CHIP_POWER_FRACTION;

/// Mean issue-queue power of a stored run (pJ per cycle; 0 for a run of
/// no cycles) — `SimStats::power_pj_per_cycle` over the stored fields.
pub(crate) fn power_pj_per_cycle(run: &PointResult) -> f64 {
    if run.cycles == 0 {
        0.0
    } else {
        run.energy_pj / run.cycles as f64
    }
}

/// Whole-processor energy/delay figures for one run, derived with the
/// paper's assumption that the issue queue contributes 23% of total chip
/// power in the baseline.
///
/// The rest of the chip is modelled as constant power: its per-cycle energy
/// is calibrated from the *baseline* run of the same benchmark, then charged
/// per cycle to every scheme (so a slower scheme pays more rest-of-chip
/// energy — exactly why IPC loss hurts the energy-delay products).
#[derive(Clone, Copy, Debug)]
pub struct ChipEnergy {
    /// Issue-queue energy (pJ).
    pub iq_pj: f64,
    /// Whole-chip energy (pJ).
    pub chip_pj: f64,
    /// Execution time (cycles).
    pub cycles: u64,
}

impl ChipEnergy {
    /// Computes chip-level figures for `run`, calibrating rest-of-chip
    /// power from `baseline` (the `IQ_64_64` run of the same benchmark).
    #[must_use]
    pub fn derive(run: &PointResult, baseline: &PointResult) -> Self {
        let f = ISSUE_QUEUE_CHIP_POWER_FRACTION;
        let base_iq_power = power_pj_per_cycle(baseline);
        let rest_power = base_iq_power * (1.0 - f) / f;
        let iq_pj = run.energy_pj;
        let chip_pj = iq_pj + rest_power * run.cycles as f64;
        ChipEnergy {
            iq_pj,
            chip_pj,
            cycles: run.cycles,
        }
    }

    /// Energy × delay (pJ·cycles).
    #[must_use]
    pub fn ed(&self) -> f64 {
        self.chip_pj * self.cycles as f64
    }

    /// Energy × delay² (pJ·cycles²).
    #[must_use]
    pub fn ed2(&self) -> f64 {
        self.chip_pj * (self.cycles as f64) * (self.cycles as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_core::SchedulerConfig;
    use diq_exp::Point;
    use diq_isa::ProcessorConfig;
    use diq_workload::kernels;

    fn run(sc: &SchedulerConfig, n: u64) -> PointResult {
        let spec = kernels::parallel_fp_chains(12, 4);
        let point = Point::new(ProcessorConfig::hpca2004(), sc.clone(), spec, n);
        PointResult::from_stats(&point, &point.execute())
    }

    #[test]
    fn baseline_iq_share_is_23_percent() {
        let base = run(&SchedulerConfig::iq_64_64(), 2000);
        let chip = ChipEnergy::derive(&base, &base);
        let share = chip.iq_pj / chip.chip_pj;
        assert!(
            (share - ISSUE_QUEUE_CHIP_POWER_FRACTION).abs() < 1e-9,
            "baseline IQ share {share}"
        );
    }

    #[test]
    fn cheaper_iq_at_same_speed_wins_ed() {
        let base = run(&SchedulerConfig::iq_64_64(), 2000);
        let mb = run(&SchedulerConfig::mb_distr(), 2000);
        let chip_base = ChipEnergy::derive(&base, &base);
        let chip_mb = ChipEnergy::derive(&mb, &base);
        assert!(
            chip_mb.iq_pj < chip_base.iq_pj,
            "MB_distr IQ energy {} should beat the CAM {}",
            chip_mb.iq_pj,
            chip_base.iq_pj
        );
    }

    #[test]
    fn slower_runs_pay_rest_of_chip_energy() {
        let base = run(&SchedulerConfig::iq_64_64(), 2000);
        let mut slow = base.clone();
        slow.cycles *= 2;
        let c_base = ChipEnergy::derive(&base, &base);
        let c_slow = ChipEnergy::derive(&slow, &base);
        assert!(c_slow.chip_pj > 1.7 * c_base.chip_pj);
        assert!(c_slow.ed() > 3.4 * c_base.ed());
        assert!(c_slow.ed2() > 6.8 * c_base.ed2());
    }
}
