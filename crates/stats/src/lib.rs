//! Statistics utilities for the simulator: counters, histograms, means, and
//! paper-style text tables.
//!
//! `diq figures` reports results the way the paper's figures do —
//! per-benchmark series plus a harmonic mean over IPCs — so this crate
//! provides exactly those primitives.
//!
//! # Example
//!
//! ```
//! use diq_stats::{harmonic_mean, Table};
//!
//! let ipcs = [2.0, 4.0];
//! assert!((harmonic_mean(ipcs).unwrap() - 8.0 / 3.0).abs() < 1e-12);
//!
//! let mut t = Table::new(["bench", "IPC"]);
//! t.row(["bzip2".to_string(), format!("{:.2}", 2.31)]);
//! assert!(t.render().contains("bzip2"));
//! ```

#![deny(missing_docs)]

mod histogram;
mod means;
mod table;

pub use histogram::Histogram;
pub use means::{arithmetic_mean, geometric_mean, harmonic_mean, pct_change, pct_loss};
pub use table::Table;

use std::collections::BTreeMap;
use std::fmt;

/// A set of named event counters.
///
/// Counters are created on first use and iterate in name order, so output is
/// deterministic.
///
/// # Example
///
/// ```
/// use diq_stats::Counters;
///
/// let mut c = Counters::new();
/// c.add("issued", 3);
/// c.bump("cycles");
/// assert_eq!(c.get("issued"), 3);
/// assert_eq!(c.get("cycles"), 1);
/// assert_eq!(c.get("missing"), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    map: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// Creates an empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.map.entry(name).or_insert(0) += n;
    }

    /// Increments the counter `name` by one.
    pub fn bump(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of `name` (0 if never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.map.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges another counter set into this one (summing shared names).
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<32} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_and_iterate_deterministically() {
        let mut a = Counters::new();
        a.add("z", 1);
        a.add("a", 2);
        let mut b = Counters::new();
        b.add("a", 3);
        a.merge(&b);
        let v: Vec<_> = a.iter().collect();
        assert_eq!(v, [("a", 5), ("z", 1)]);
    }

    #[test]
    fn display_nonempty() {
        let mut c = Counters::new();
        c.bump("x");
        assert!(c.to_string().contains('x'));
    }
}
