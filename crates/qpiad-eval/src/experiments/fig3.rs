//! Figure 3 — precision/recall of QPIAD vs AllReturned on the Cars query
//! `σ[Body Style = Convt]`.
//!
//! AllReturned dumps every null-body-style tuple unranked; QPIAD issues
//! ordered rewritten queries. The expected shape: QPIAD's curve stays near
//! 1.0 precision deep into the recall range, while AllReturned hovers at
//! the base rate (the prior probability that a random missing body style is
//! `Convt`).

use qpiad_core::baselines::all_returned;
use qpiad_core::mediator::QpiadConfig;
use qpiad_db::{Predicate, SelectQuery, Tuple, WebSource};

use crate::report::Report;

use super::common::{cars_world, possible_tuples, pr_series, run_qpiad, Scale};

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let world = cars_world(scale);
    let body = world.ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    // QPIAD with an ample query budget (the figure studies ranking quality,
    // not budget effects) and precision-first ordering.
    let source = world.web_source("cars.com");
    let answers = run_qpiad(
        &world,
        &source,
        &query,
        QpiadConfig::default().with_k(60).with_alpha(1.0),
    );

    // AllReturned needs null binding: a direct source over the same ED.
    let direct = WebSource::direct("cars-direct-access", world.ed.clone());
    let returned = all_returned(&direct, &query).expect("direct source accepts null binding");
    let returned_refs: Vec<&Tuple> = returned.iter().collect();

    let mut report = Report::new(
        "figure3",
        "Figure 3: QPIAD vs AllReturned, Q(Cars): body_style=Convt",
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
        "QPIAD retrieved {} possible answers with {} rewritten queries; AllReturned transferred {} tuples",
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
    fn qpiad_dominates_all_returned() {
        let report = run(&Scale::quick());
        let qpiad = report.series_named("QPIAD").unwrap();
        let base = report.series_named("AllReturned").unwrap();
        // Average precision along each curve.
        let avg = |s: &crate::report::Series| {
            s.points.iter().map(|p| p.y).sum::<f64>() / s.points.len() as f64
        };
        let (aq, ab) = (avg(qpiad), avg(base));
        assert!(aq > ab + 0.2, "QPIAD {aq} vs AllReturned {ab}");
        // QPIAD's early answers are nearly all relevant.
        assert!(
            qpiad.points[0].y > 0.7,
            "early precision {}",
            qpiad.points[0].y
        );
    }
}
