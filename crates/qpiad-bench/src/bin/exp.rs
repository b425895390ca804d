//! Regenerates the paper's tables and figures:
//! `exp <id>…|all [--quick] [--json]`. `all` runs the complete suite and
//! emits the `EXPERIMENTS.md` body.
fn main() {
    qpiad_bench::experiment_main();
}
