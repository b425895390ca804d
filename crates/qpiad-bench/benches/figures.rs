//! `cargo bench --bench figures` regenerates every table and figure of the
//! paper at bench scale, printing each report and its wall-clock time.
//!
//! This is a `harness = false` bench: it is a regeneration harness, not a
//! statistical micro-benchmark (those live in `mining`, `rewriting` and
//! `joins`).

use std::time::Instant;

use qpiad_bench::bench_scale;
use qpiad_eval::experiments::registry;

fn main() {
    let scale = bench_scale();
    let total = Instant::now();
    let experiments = registry();
    for (id, run) in &experiments {
        let start = Instant::now();
        let report = run(&scale);
        let elapsed = start.elapsed();
        println!("{}", report.render_text());
        println!("[{id}] regenerated in {elapsed:.2?}\n");
    }
    println!(
        "all {} experiments regenerated in {:.2?}",
        experiments.len(),
        total.elapsed()
    );
}
