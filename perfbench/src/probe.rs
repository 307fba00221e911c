//! Timing primitives for the traced pass: sampled per-call probes and
//! whole-call spans.
//!
//! Timing every scheduler and workload call costs more host time than many
//! of the calls themselves, so a [`Probe`] counts every call exactly but
//! reads the clock only on a pseudo-randomly sampled subset (one call in
//! [`SAMPLE_PERIOD`] on average). A layer's busy time is the mean sampled
//! duration times the exact call count. Each sampled duration has the
//! measured cost of one clock read ([`clock_cost_ns`]) taken off, since the
//! interval between two reads contains one read's latency.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Mean gap between timed calls of a sampled probe.
pub const SAMPLE_PERIOD: u64 = 16;

/// Median cost of one `Instant::now()` on this host, in nanoseconds,
/// measured once per process.
pub fn clock_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut deltas: Vec<f64> = (0..2001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as f64
            })
            .collect();
        deltas.sort_by(f64::total_cmp);
        deltas[deltas.len() / 2]
    })
}

/// Nanoseconds since `start`, less one clock read.
pub fn elapsed_ns(start: Instant) -> f64 {
    ((start.elapsed().as_nanos() as f64) - clock_cost_ns()).max(0.0)
}

/// Decides which calls get timed: a countdown over xorshift-drawn gaps
/// uniform in `1..2 * period`, so sampling cannot lock onto a periodic
/// call pattern of the simulator's cycle loop.
#[derive(Clone, Debug)]
pub struct Sampler {
    period: u64,
    state: u64,
    countdown: u64,
}

impl Sampler {
    /// A sampler timing one call in `period` on average (`1` times every
    /// call).
    #[must_use]
    pub fn new(period: u64, seed: u64) -> Self {
        let mut s = Sampler {
            period: period.max(1),
            state: seed | 1,
            countdown: 0,
        };
        s.countdown = s.gap();
        s
    }

    fn gap(&mut self) -> u64 {
        if self.period == 1 {
            return 1;
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        1 + self.state % (2 * self.period - 1)
    }

    /// Whether the current call is timed.
    #[inline]
    pub fn hit(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.gap();
            true
        } else {
            false
        }
    }
}

/// Calls into one decorated method.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Probe {
    /// Every call, counted exactly.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Host nanoseconds spent in the timed calls.
    pub sampled_ns: f64,
    /// Host nanoseconds of companion calls that are charged to this probe
    /// but not counted in `calls` (always timed).
    pub extra_ns: f64,
}

impl Probe {
    /// Records one timed call.
    #[inline]
    pub fn timed(&mut self, ns: f64) {
        self.calls += 1;
        self.sampled += 1;
        self.sampled_ns += ns;
    }

    /// Estimated host seconds spent in all calls.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        let sampled = if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns / self.sampled as f64 * self.calls as f64
        };
        (sampled + self.extra_ns) / 1e9
    }

    /// Replaces the samples by their estimate over all calls, so that
    /// merged probes add up to the sum of their estimates.
    pub fn settle(&mut self) {
        if self.sampled > 0 {
            self.sampled_ns = self.sampled_ns / self.sampled as f64 * self.calls as f64;
        }
        self.sampled = self.calls;
    }

    /// Adds another probe's calls and samples.
    pub fn merge(&mut self, o: &Probe) {
        self.calls += o.calls;
        self.sampled += o.sampled;
        self.sampled_ns += o.sampled_ns;
        self.extra_ns += o.extra_ns;
    }
}

/// Whole-call spans by name (every call timed): the layer boundaries
/// outside the cycle loop, where calls are few and long. Named counts ride
/// along (records loaded, records appended).
#[derive(Clone, Debug, Default)]
pub struct Spans {
    spans: BTreeMap<&'static str, Probe>,
    counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Runs `f` as one span of `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, elapsed_ns(t));
        out
    }

    /// Records one span of `ns` nanoseconds.
    pub fn add(&mut self, name: &'static str, ns: f64) {
        self.spans.entry(name).or_default().timed(ns);
    }

    /// Adds `n` to the count `name`.
    pub fn add_count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The count `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total seconds in `name`.
    #[must_use]
    pub fn secs(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, Probe::busy_s)
    }

    /// Calls of `name`.
    #[must_use]
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |p| p.calls)
    }

    /// Adds every span of `other`.
    pub fn merge(&mut self, other: &Spans) {
        for (k, v) in &other.spans {
            self.spans.entry(k).or_default().merge(v);
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }
}
