//! Smoke tests of the paper artifacts at reduced instruction counts, built
//! the way `diq figures` builds them — from a temp-dir result store: every
//! artifact builds, has the right shape, its aggregates are arithmetically
//! consistent, and a warm store renders them without simulating.

use diq::exp::{ExperimentSpec, Point, ResultStore};
use diq::sim::{figures, reproduce, Figure, Grid, Reproduction};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::OnceLock;

const INSTRUCTIONS: u64 = 1_500;

/// The store directory and the cold pass that filled it, shared by every
/// test in this file (the first caller simulates).
fn cold() -> &'static (PathBuf, Reproduction) {
    static COLD: OnceLock<(PathBuf, Reproduction)> = OnceLock::new();
    COLD.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("diq-figures-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let paper: Vec<_> = figures::paper().collect();
        let run = reproduce(&paper, INSTRUCTIONS, &store, 2).unwrap();
        (dir, run)
    })
}

fn fig(id: &str) -> &'static Figure {
    cold().1.figures.iter().find(|f| f.id == id).unwrap()
}

#[test]
fn all_sixteen_artifacts_build() {
    let figs = &cold().1.figures;
    assert_eq!(figs.len(), 16);
    for f in figs {
        assert!(!f.rows.is_empty(), "{} is empty", f.id);
        // Every artifact renders and serializes.
        assert!(f.to_string().contains(&f.id));
        assert!(f.to_json().contains(&f.id));
    }
}

#[test]
fn loss_figures_cover_their_suites() {
    let f2 = fig("fig2");
    assert_eq!(f2.rows.len(), 12 + 1, "12 SPECint benchmarks + HARMEAN");
    assert_eq!(f2.headers.len(), 7, "benchmark + six sweep configs");
    let f3 = fig("fig3");
    assert_eq!(f3.rows.len(), 14 + 1, "14 SPECfp benchmarks + HARMEAN");
    assert!(f3.headers[1].starts_with("IssueFIFO_16x16_"));
    assert!(fig("fig4").headers[1].starts_with("LatFIFO_"));
    assert!(fig("fig6").headers[1].starts_with("MixBUFF_"));
}

#[test]
fn ipc_figures_parse_numerically() {
    let f8 = fig("fig8");
    for bench in ["swim", "mgrid", "art", "HARMEAN"] {
        for col in ["IQ_64_64", "IF_distr", "MB_distr"] {
            let v = f8
                .value(bench, col)
                .unwrap_or_else(|| panic!("{bench}/{col} missing"));
            assert!(v > 0.0 && v < 8.0, "{bench}/{col} = {v}");
        }
    }
}

#[test]
fn breakdowns_sum_to_100_percent() {
    for label in ["fig9", "fig10", "fig11"] {
        let fig = fig(label);
        for col in ["SPECINT", "SPECFP"] {
            let total: f64 = fig
                .rows
                .iter()
                .map(|r| fig.value(&r[0], col).unwrap())
                .sum();
            assert!(
                (total - 100.0).abs() < 1.5,
                "{label}/{col} sums to {total}%"
            );
        }
    }
}

#[test]
fn normalized_figures_have_unit_baselines() {
    for id in ["fig12", "fig13", "fig14", "fig15"] {
        let fig = fig(id);
        for col in ["SPECINT", "SPECFP"] {
            let v = fig.value("IQ_64_64", col).unwrap();
            assert!((v - 1.0).abs() < 1e-9, "{}/{col} baseline = {v}", fig.id);
        }
    }
}

#[test]
fn headline_rows_reference_paper_numbers() {
    let f = fig("headline");
    assert!(f.rows.len() >= 7);
    // Every row carries both a paper value and a measured value.
    for row in &f.rows {
        assert!(!row[1].is_empty() && !row[2].is_empty());
        assert!(row[2].contains('%'));
    }
}

#[test]
fn figure_specs_parse_and_the_paper_reads_428_distinct_points() {
    for grid in figures::REGISTRY.iter().flat_map(|a| a.grids) {
        let spec = grid.spec(INSTRUCTIONS);
        let file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("experiments/figures")
            .join(format!("{}.json", spec.name));
        let on_disk = ExperimentSpec::from_json(&std::fs::read_to_string(&file).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert_eq!(on_disk.seed, 0, "{}", file.display());
        assert!(!spec.expand().unwrap().is_empty());
    }
    // The grids `diq figures` reads: 84 + 266 + 78 points, no two alike.
    let mut grids: Vec<Grid> = Vec::new();
    for &g in figures::paper().flat_map(|a| a.grids) {
        if !grids.contains(&g) {
            grids.push(g);
        }
    }
    assert_eq!(grids, [Grid::IntSweep, Grid::FpSweep, Grid::PaperSchemes]);
    let points: Vec<Point> = grids
        .iter()
        .flat_map(|g| g.spec(INSTRUCTIONS).expand().unwrap())
        .collect();
    let keys: HashSet<String> = points.iter().map(Point::key).collect();
    assert_eq!(points.len(), 428);
    assert_eq!(keys.len(), 428);
    assert!(points.iter().all(|p| p.instructions == INSTRUCTIONS));
}

#[test]
fn a_warm_store_renders_identical_figures_without_simulating() {
    let (dir, first) = cold();
    assert_eq!((first.computed, first.cached), (428, 0));
    let store = ResultStore::open(dir).unwrap();
    let before = store.raw_bytes().unwrap();
    let paper: Vec<_> = figures::paper().collect();
    let second = reproduce(&paper, INSTRUCTIONS, &store, 2).unwrap();
    assert_eq!((second.computed, second.cached), (0, 428));
    assert_eq!(store.raw_bytes().unwrap(), before, "store.jsonl changed");
    let text = |r: &Reproduction| {
        r.figures
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(text(&second), text(first));
    // Every other test reads only the cold pass's figures.
    let _ = std::fs::remove_dir_all(dir);
}
