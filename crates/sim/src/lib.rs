//! The paper's tables and figures, as queries over stored results.
//!
//! * [`Grid`] names the checked-in experiment specs under
//!   `experiments/figures/` that the artifacts read;
//! * [`reproduce`] sweeps those grids with [`diq_exp::sweep_as`] against a
//!   [`diq_exp::ResultStore`] — the path `diq sweep` and `diq serve` take,
//!   so a warm store makes figures free — and builds the artifacts from the
//!   stored [`diq_exp::PointResult`]s;
//! * [`figures`] holds one pure constructor per paper artifact
//!   ([`figures::fig2`] … [`figures::fig15`], plus the Section 3 numeric
//!   claims, the abstract's headline numbers and two ablations) and the
//!   [`figures::REGISTRY`] that names them;
//! * [`Figure`] is a rendered artifact: a title, a text table shaped like
//!   the paper's figure, and notes (including paper-reported reference
//!   values where the paper states them).
//!
//! The default run length is 100 000 instructions per benchmark (the paper
//! simulates 100 M; see DESIGN.md for the scaling argument). Set
//! `DIQ_INSTRS` to override (`100k`/`5M`-style suffixes accepted).
//!
//! # Example
//!
//! ```no_run
//! use diq_exp::ResultStore;
//! use diq_sim::{figures, reproduce};
//!
//! let store = ResultStore::open("results").unwrap();
//! let fig8 = figures::by_id("fig8").unwrap();
//! let run = reproduce(&[fig8], 100_000, &store, 4).unwrap();
//! println!("{}", run.figures[0]);
//! ```

#![deny(missing_docs)]

mod energy;
pub mod figures;
mod records;
mod report;

pub use energy::ChipEnergy;
pub use records::{instructions_from_env, reproduce, Grid, Records, Reproduction};
pub use report::Figure;

/// Default instructions simulated per benchmark (shared with `diq-exp`, so
/// sweeps and figures default to the same run length).
pub const DEFAULT_INSTRUCTIONS: u64 = diq_exp::DEFAULT_INSTRUCTIONS;
