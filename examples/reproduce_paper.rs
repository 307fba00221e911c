//! Full reproduction run: builds every table and figure of the paper from
//! the result store under `results/` (simulating only the points it does
//! not hold yet) and optionally archives them as JSON.
//!
//! Run with: `cargo run --release --example reproduce_paper [json-dir]`
//!
//! `DIQ_INSTRS` controls the instructions simulated per benchmark
//! (default 100 000; the paper used 100 M).

use diq::exp::{default_threads, ResultStore};
use diq::sim::{figures, instructions_from_env, reproduce};
use std::fs;
use std::time::Instant;

fn main() -> Result<(), String> {
    let json_dir = std::env::args().nth(1);
    let instructions = instructions_from_env()?;
    let store = ResultStore::open("results").map_err(|e| format!("open store `results`: {e}"))?;
    println!("reproducing all paper artifacts ({instructions} instructions per benchmark)\n");
    let start = Instant::now();
    let paper: Vec<_> = figures::paper().collect();
    let run = reproduce(&paper, instructions, &store, default_threads())?;
    for fig in &run.figures {
        println!("{fig}");
        if let Some(dir) = &json_dir {
            fs::create_dir_all(dir).map_err(|e| format!("create `{dir}`: {e}"))?;
            let path = format!("{dir}/{}.json", fig.id);
            fs::write(&path, fig.to_json()).map_err(|e| format!("write `{path}`: {e}"))?;
        }
    }
    println!(
        "total: {:.1}s ({} points simulated, {} from the store)",
        start.elapsed().as_secs_f64(),
        run.computed,
        run.cached
    );
    if let Some(dir) = &json_dir {
        println!("JSON archives in {dir}/");
    }
    Ok(())
}
