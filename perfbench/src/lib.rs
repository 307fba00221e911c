//! The diq benchmark: two workloads timed end to end, and layer by layer
//! through timing decorators placed around the simulator's public
//! interfaces. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

pub mod common;
pub mod cpu;
pub mod decorate;
pub mod host;
pub mod probe;
pub mod report;
pub mod serve_short;
pub mod stress_replay;
