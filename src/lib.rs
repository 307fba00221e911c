//! # diq — the HPCA 2004 *Low-Complexity Distributed Issue Queue*, in Rust
//!
//! This is the façade crate of the workspace: it re-exports every component
//! crate under a friendly module name so applications need a single
//! dependency.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`isa`] | `diq-isa` | instructions, registers, Table 1 configuration |
//! | [`sched`] | `diq-core` | the issue-queue schemes (the paper's contribution) |
//! | [`pipeline`] | `diq-pipeline` | the 8-wide out-of-order core |
//! | [`workload`] | `diq-workload` | synthetic SPEC2000-like workload models |
//! | [`branch`] | `diq-branch` | hybrid branch predictor + BTB |
//! | [`mem`] | `diq-mem` | cache hierarchy |
//! | [`power`] | `diq-power` | CACTI-lite energy model + activity meter |
//! | [`stats`] | `diq-stats` | counters, means, text tables |
//! | [`sim`] | `diq-sim` | every paper figure, as a query over stored results |
//!
//! # Quickstart
//!
//! Run one synthetic benchmark under the paper's distributed MixBUFF scheme
//! (`MB_distr`) and under the conventional CAM baseline (`IQ_64_64`), then
//! compare IPC and issue-queue energy — see `examples/quickstart.rs` for the
//! full program.

#![deny(missing_docs)]

/// Instructions, registers and machine configuration (re-export of `diq-isa`).
pub mod isa {
    pub use diq_isa::*;
}

/// Issue-queue schemes: CAM baseline, IssueFIFO, LatFIFO, MixBUFF
/// (re-export of `diq-core`).
pub mod sched {
    pub use diq_core::*;
}

/// The out-of-order superscalar core (re-export of `diq-pipeline`).
pub mod pipeline {
    pub use diq_pipeline::*;
}

/// Synthetic workload models and trace generation (re-export of
/// `diq-workload`).
pub mod workload {
    pub use diq_workload::*;
}

/// Branch prediction (re-export of `diq-branch`).
pub mod branch {
    pub use diq_branch::*;
}

/// Cache hierarchy (re-export of `diq-mem`).
pub mod mem {
    pub use diq_mem::*;
}

/// Energy modelling (re-export of `diq-power`).
pub mod power {
    pub use diq_power::*;
}

/// Statistics utilities (re-export of `diq-stats`).
pub mod stats {
    pub use diq_stats::*;
}

/// The paper's tables and figures, built from stored results (re-export
/// of `diq-sim`).
pub mod sim {
    pub use diq_sim::*;
}

/// Experiment orchestration: declarative sweep specs, the deterministic
/// parallel runner, and the persistent result store (re-export of `diq-exp`).
pub mod exp {
    pub use diq_exp::*;
}

/// Sweep-as-a-service: the `diq serve` server, distributed workers, and
/// submit clients (re-export of `diq-serve`).
pub mod serve {
    pub use diq_serve::*;
}

/// The command-line surface shared by the `diq` binary and its tests.
pub mod cli {
    use diq_core::SchedulerConfig;

    /// Every scheme label `diq list` advertises, in display order.
    ///
    /// Each entry round-trips through [`scheme_by_name`]:
    /// `scheme_by_name(l).unwrap().label() == l`. The registry itself lives
    /// in `diq-core` ([`SchedulerConfig::KNOWN_LABELS`]) so experiment specs
    /// can resolve labels without this crate.
    pub const SCHEME_LABELS: [&str; 9] = SchedulerConfig::KNOWN_LABELS;

    /// The configurations behind [`SCHEME_LABELS`], in the same order.
    #[must_use]
    pub fn known_schemes() -> Vec<SchedulerConfig> {
        SchedulerConfig::known()
    }

    /// Resolves an advertised scheme label to its configuration.
    #[must_use]
    pub fn scheme_by_name(name: &str) -> Option<SchedulerConfig> {
        SchedulerConfig::by_label(name)
    }

    /// Parses an instruction count with an optional magnitude suffix
    /// (re-export of [`diq_exp::parse_count`]): `"250000"`, `"100k"`,
    /// `"5M"`, `"1G"`, with `_` separators allowed.
    #[must_use]
    pub fn parse_count(s: &str) -> Option<u64> {
        diq_exp::parse_count(s)
    }
}
