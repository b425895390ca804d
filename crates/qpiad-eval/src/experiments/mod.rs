//! One module per table/figure of the paper's evaluation (§6).
//!
//! Every experiment follows the same recipe (§6.2):
//!
//! 1. generate a complete *ground-truth dataset* (GD),
//! 2. corrupt 10% of tuples — one random attribute each — into the
//!    *experimental dataset* (ED),
//! 3. sample a small training fraction of ED and mine AFDs, classifiers and
//!    selectivity estimates from it,
//! 4. run QPIAD (and the relevant baselines) against a [`qpiad_db::WebSource`]
//!    over ED,
//! 5. judge retrieved possible answers against GD through the
//!    [`crate::truth::Oracle`].
//!
//! Train/test hygiene: classifiers train only on sample rows whose target
//! attribute is *non-null*, while evaluation scores only rows whose target
//! is null — so the corrupted cells being predicted are never part of the
//! training signal for that attribute.
//!
//! Experiments are parameterized by [`common::Scale`] so tests can run them
//! at reduced size while the `exp` binary uses the full configuration.

pub mod ablations;
pub mod common;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table3;

use crate::report::Report;

/// An experiment runner: scale in, report out.
pub type Runner = fn(&common::Scale) -> Report;

/// The experiment registry: `(id, runner)` in paper order.
pub fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("table1", table1::run as Runner),
        ("table3", table3::run),
        ("fig3", fig3::run),
        ("fig4", fig4::run),
        ("fig5", fig5::run),
        ("fig6", fig6::run),
        ("fig7", fig7::run),
        ("fig8", fig8::run),
        ("fig9", fig9::run),
        ("fig10", fig10::run),
        ("fig10census", fig10::run_census),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("fig13b", |scale| fig13::run_query(scale, 1)),
        ("ablations", ablations::run),
    ]
}

/// Runs every experiment concurrently (experiments are independent and
/// seeded; order of the returned reports still follows the registry).
pub fn run_all_parallel(scale: &common::Scale) -> Vec<Report> {
    let entries = registry();
    std::thread::scope(|s| {
        let handles: Vec<_> = entries
            .iter()
            .map(|(_, run)| {
                let run = *run;
                s.spawn(move || run(scale))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    })
}
