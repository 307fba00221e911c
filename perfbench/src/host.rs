//! A gauge of the host's speed: a fixed reference computation, timed in
//! slices between units of work.
//!
//! The shared host has slow states that last from seconds to many minutes
//! (they are not steal time: CPU clocks do not remove them). A whole 60-second run can sit in one, so
//! no statistic over one run's samples removes it. The gauge runs the same
//! small computation again and again on the measuring thread, between the
//! units of work it measures, and its fastest slices tell how fast the host
//! was while the run took its fastest samples. The computation is the
//! benchmark's own code and never changes, so a change to the program moves
//! the work's times but not the gauge's.
//!
//! The kernel does what the simulator does most: table lookups at
//! unpredictable indices followed by data-dependent branches. Iteration by
//! iteration, the time of such a kernel followed stress-replay's point
//! times with a correlation of about 0.9. Scaling by the gauge cut the
//! spread of five 60-second runs of stress-replay's `sim_ips` from 0.064
//! to 0.016 of the median, and serve-short's from 0.092 to 0.040.

use crate::cpu;
use std::hint::black_box;

/// Table entries: 16 KiB, resident in the first-level cache, so that the
/// program's own data barely disturbs the kernel.
const TABLE: usize = 2048;

/// Lookups per slice.
const STEPS: u32 = 50_000;

/// CPU seconds one slice takes at the nominal host speed: about what the
/// fastest slices took on the 2-vCPU Xeon container (2.1 GHz) the benchmark
/// was written on. It only fixes the unit the scaled timings are given in.
pub const NOMINAL_SLICE_S: f64 = 470e-6;

/// The reference computation and its state.
pub struct Gauge {
    table: Vec<u64>,
    state: u64,
    acc: u64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        let table = (0..TABLE as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i >> 3))
            .collect();
        Gauge {
            table,
            state: 7,
            acc: 0,
        }
    }
}

impl Gauge {
    /// Runs one slice and returns the CPU seconds it took.
    pub fn slice(&mut self) -> f64 {
        let (secs, ()) = cpu::time(|| {
            let (mut s, mut acc) = (self.state, self.acc);
            for _ in 0..STEPS {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let v = self.table[(s as usize) & (TABLE - 1)];
                if v & 1 == 0 {
                    acc = acc.wrapping_add(v);
                } else if v & 2 == 0 {
                    acc ^= v >> 3;
                } else {
                    acc = acc.rotate_left(5);
                }
            }
            (self.state, self.acc) = (s, black_box(acc));
        });
        secs
    }
}

/// How much slower than nominal the host ran, from the fastest time of
/// each slice position over a run's iterations (1 at nominal speed, above
/// 1 when slower).
#[must_use]
pub fn slowdown(best_slices: &[f64]) -> f64 {
    best_slices.iter().sum::<f64>() / (best_slices.len() as f64 * NOMINAL_SLICE_S)
}
