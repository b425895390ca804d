//! Figure 4 — precision/recall of QPIAD vs AllReturned on the Census query
//! `σ[Relationship = Own-child]` (the paper's "Family Relation = Own
//! Child").

use qpiad_core::baselines::all_returned;
use qpiad_core::mediator::QpiadConfig;
use qpiad_db::{Predicate, SelectQuery, Tuple, WebSource};

use crate::report::Report;

use super::common::{census_world, possible_tuples, pr_series, run_qpiad, Scale};

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let world = census_world(scale);
    let rel = world.ed.schema().expect_attr("relationship");
    let query = SelectQuery::new(vec![Predicate::eq(rel, "Own-child")]);

    let source = world.web_source("census");
    let answers = run_qpiad(
        &world,
        &source,
        &query,
        QpiadConfig::default().with_k(120).with_alpha(1.0),
    );

    let direct = WebSource::direct("census-direct-access", world.ed.clone());
    let returned = all_returned(&direct, &query).expect("direct source accepts null binding");
    let returned_refs: Vec<&Tuple> = returned.iter().collect();

    let mut report = Report::new(
        "figure4",
        "Figure 4: QPIAD vs AllReturned, Q(Census): relationship=Own-child",
        "recall",
        "precision",
    );
    report.push_series(pr_series(
        "QPIAD",
        &world,
        &query,
        &possible_tuples(&answers),
        40,
    ));
    report.push_series(pr_series("AllReturned", &world, &query, &returned_refs, 40));
    report.note(format!(
        "QPIAD: {} possible answers via {} queries; AllReturned: {} tuples",
        answers.possible.len(),
        answers.issued.len(),
        returned.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpiad_beats_all_returned_on_census() {
        let report = run(&Scale::quick());
        let avg = |name: &str| {
            let s = report.series_named(name).unwrap();
            s.points.iter().map(|p| p.y).sum::<f64>() / s.points.len() as f64
        };
        assert!(
            avg("QPIAD") > avg("AllReturned") + 0.15,
            "QPIAD {} vs AllReturned {}",
            avg("QPIAD"),
            avg("AllReturned")
        );
    }
}
