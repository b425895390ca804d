//! Experiment-regeneration harness: the `exp` binary (`src/bin/exp.rs`).
//!
//! `exp <id>…` prints the regenerated rows/series of the named
//! tables/figures of the paper (ids from [`experiments::registry`]) at
//! full scale, plus the `ablations` report quantifying the design choices
//! called out in `DESIGN.md` (AKey pruning, classifier strategies,
//! base-set-vs-sample rewriting, ordering policy, m-estimate smoothing).
//! `exp all` runs the complete suite and prints what
//! `experiments_output.txt` holds; `--quick` runs at reduced scale.
//!
//! End-to-end speed is measured by the repository benchmark (`qbench/`),
//! which reports the paper's cost units and per-layer timings per workload.

use qpiad_eval::experiments::common::Scale;
use qpiad_eval::experiments::{self, Runner};
use qpiad_eval::Report;

/// Runs one experiment by id at the given scale, looked up in the
/// experiment registry ([`experiments::registry`]); `None` for an unknown
/// id.
pub fn run_experiment(id: &str, scale: &Scale) -> Option<Report> {
    runner(id).map(|run| run(scale))
}

/// The registry's runner for `id`.
fn runner(id: &str) -> Option<Runner> {
    experiments::registry()
        .into_iter()
        .find(|(name, _)| *name == id)
        .map(|(_, run)| run)
}

/// Entry point of the `exp` binary: `exp <id>…|all [--quick] [--json]`.
///
/// Runs the named experiments in the order given (`all`: every registry
/// experiment concurrently, printed in paper order) at full scale, or at
/// reduced scale with `--quick`. Each report prints as a text table plus
/// sparklines and a blank line, or as JSON with `--json`. An unknown id
/// runs nothing and exits with status 2.
pub fn experiment_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let scale = if flag("--quick") {
        Scale::quick()
    } else {
        Scale::full()
    };
    let ids: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if let Some(bad) = ids.iter().find(|id| **id != "all" && runner(id).is_none()) {
        eprintln!("unknown experiment id: {bad}");
        std::process::exit(2);
    }
    if ids.is_empty() {
        eprintln!("usage: exp <id>...|all [--quick] [--json]");
        std::process::exit(2);
    }
    let print = |report: Report| {
        if flag("--json") {
            println!("{}", report.to_json());
        } else {
            println!("{}", report.render_text());
            print!("{}", report.render_sparklines());
            println!();
        }
    };
    if ids.contains(&"all") {
        eprintln!("running all experiments in parallel ...");
        experiments::run_all_parallel(&scale)
            .into_iter()
            .for_each(print);
    } else {
        for id in ids {
            print(run_experiment(id, &scale).expect("id resolved above"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_id_resolves_and_unknown_ids_do_not() {
        // Only resolve — running them all is `exp all`'s job.
        for (id, _) in experiments::registry() {
            assert!(runner(id).is_some(), "registry id {id} must resolve");
            assert_ne!(id, "all", "`all` is reserved for the whole suite");
        }
        assert!(runner("nope").is_none());
        assert!(run_experiment("nope", &Scale::quick()).is_none());
    }
}
