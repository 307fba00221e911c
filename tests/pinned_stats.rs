//! Absolute statistics pins for every registered scheme.
//!
//! `tests/golden_stats.rs` proves the event-driven schedulers equal their
//! scan twins. IssueFIFO and LatFIFO have a single (head-polling) model,
//! so for them that comparison is a model against itself; this test pins
//! what they — and every other registered scheme — actually produce.
//!
//! Each row is an FNV-1a digest of the `Debug` rendering of the complete
//! `SimStats` (cycles, stall breakdown, occupancy histograms, every energy
//! `f64` in its shortest round-trip form) for one scheme × speculation
//! mode, over three short kernels. The digests were recorded at the commit
//! *before* the FIFO schemes lost their event-driven wakeup path, with the
//! scheduler code of that commit, so a pass proves the head-polling models
//! reproduce the old statistics bit for bit.
//!
//! A deliberate behaviour change must re-record the table; the failure
//! message prints every mismatching row with its new digest.

use diq::isa::ProcessorConfig;
use diq::pipeline::{SimStats, Simulator, TraceSource};
use diq::sched::SchedulerConfig;
use diq::workload::{suite, TraceGenerator};

const KERNELS: [&str; 3] = ["gzip", "swim", "mcf"];
const INSTRUCTIONS: u64 = 4_000;

/// The four speculation modes: (wrong-path fetch, load-hit speculation).
const MODES: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// (scheme label, mode index into [`MODES`], digest).
const PINNED: [(&str, usize, u64); 36] = [
    ("IQ_unbounded", 0, 0x60afb47c31e1759b),
    ("IQ_64_64", 0, 0x5fcafc2a19e45834),
    ("IQ_64_64_adapt", 0, 0xc63ad6bdb68d58ba),
    ("IssueFIFO_16x16_8x16", 0, 0xee062ba1560b9ca9),
    ("LatFIFO_16x16_8x16", 0, 0x20c12b097eaf593d),
    ("MixBUFF_16x16_8x16", 0, 0x6d701319365b3607),
    ("IF_distr", 0, 0xad4d118b0df93c1b),
    ("MB_distr", 0, 0x35c526674d53efa3),
    ("MB_distr_agesel", 0, 0xefabade2f4ddccbf),
    ("IQ_unbounded", 1, 0x06e48c0800f83eb2),
    ("IQ_64_64", 1, 0x9bee8d4298e26cda),
    ("IQ_64_64_adapt", 1, 0x1306a805e99f9ff1),
    ("IssueFIFO_16x16_8x16", 1, 0xe868d55437f716ec),
    ("LatFIFO_16x16_8x16", 1, 0x19c4f3c2c8d42ec8),
    ("MixBUFF_16x16_8x16", 1, 0x9085449cb968d42b),
    ("IF_distr", 1, 0xf16ec1bccee4bc8f),
    ("MB_distr", 1, 0x5c7e67ed51d2bd33),
    ("MB_distr_agesel", 1, 0x23c80261cb76d345),
    ("IQ_unbounded", 2, 0x225e1a86eb453ecf),
    ("IQ_64_64", 2, 0x62bed9ff23ab7ba4),
    ("IQ_64_64_adapt", 2, 0x2b8ba66d3a651c52),
    ("IssueFIFO_16x16_8x16", 2, 0x8d74c3c6243dc1d3),
    ("LatFIFO_16x16_8x16", 2, 0x3792df0d14125972),
    ("MixBUFF_16x16_8x16", 2, 0x4c3ffa0069a25bdf),
    ("IF_distr", 2, 0x962454baeea831bc),
    ("MB_distr", 2, 0x33e40f2c47c9cbdf),
    ("MB_distr_agesel", 2, 0x4321fd9fdc3668ee),
    ("IQ_unbounded", 3, 0xf583ab32d80ae712),
    ("IQ_64_64", 3, 0x4e8ba6920ec65949),
    ("IQ_64_64_adapt", 3, 0x77b14fc559ba515e),
    ("IssueFIFO_16x16_8x16", 3, 0xdf22b1667214a27f),
    ("LatFIFO_16x16_8x16", 3, 0x80aef8d050313514),
    ("MixBUFF_16x16_8x16", 3, 0x19fe457599004c00),
    ("IF_distr", 3, 0x384182bf66ab6391),
    ("MB_distr", 3, 0xeb1b5080f421c1ad),
    ("MB_distr_agesel", 3, 0x0e4ec12619dbb55e),
];

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn run(sched: &SchedulerConfig, (wrong_path, load_hit): (bool, bool), bench: &str) -> SimStats {
    let mut cfg = ProcessorConfig::hpca2004();
    cfg.wrong_path = wrong_path;
    cfg.load_hit_speculation = load_hit;
    // A small D-cache makes misses, and so cancels and replays, frequent.
    cfg.mem.dl1.size_bytes = 1024;
    let spec = suite::by_name(bench).unwrap();
    let mut sim = Simulator::new(&cfg, sched);
    sim.set_benchmark(bench);
    if wrong_path {
        sim.run_workload(&mut TraceGenerator::new(&spec), INSTRUCTIONS)
    } else {
        let trace = spec.generate(INSTRUCTIONS as usize);
        sim.run_workload(&mut TraceSource::new(trace), INSTRUCTIONS)
    }
}

fn digest(sched: &SchedulerConfig, mode: (bool, bool)) -> u64 {
    KERNELS.iter().fold(0xcbf2_9ce4_8422_2325, |h, bench| {
        fnv1a(format!("{:?}", run(sched, mode, bench)).as_bytes(), h)
    })
}

#[test]
fn every_scheme_reproduces_its_pinned_statistics_in_every_speculation_mode() {
    let got: Vec<(String, usize, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..MODES.len())
            .map(|m| {
                s.spawn(move || {
                    SchedulerConfig::known()
                        .iter()
                        .map(|sched| (sched.label(), m, digest(sched, MODES[m])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(
        got.len(),
        SchedulerConfig::known().len() * MODES.len(),
        "every scheme × mode ran"
    );
    let mismatches: Vec<String> = got
        .iter()
        .filter(|(label, m, d)| !PINNED.contains(&(label.as_str(), *m, *d)))
        .map(|(label, m, d)| format!("    ({label:?}, {m}, {d:#018x}),"))
        .collect();
    assert!(
        mismatches.is_empty() && PINNED.len() == got.len(),
        "{} of {} scheme × mode digests differ from the pinned table; rows as computed now:\n{}",
        mismatches.len(),
        got.len(),
        mismatches.join("\n")
    );
}
