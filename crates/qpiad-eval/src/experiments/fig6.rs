//! Figure 6 — average accumulated precision after the K-th retrieved tuple,
//! over 10 queries constraining Body Style and Mileage, QPIAD vs
//! AllReturned.
//!
//! The paper averages 10 randomly formulated queries over the two
//! attributes; we use the five most frequent body styles (equality) and
//! five mileage bands (range), which spans the same difficulty mix: body
//! style has a strong AFD, mileage a weak one.

use qpiad_core::baselines::all_returned;
use qpiad_core::mediator::QpiadConfig;
use qpiad_db::{Predicate, SelectQuery, Tuple, Value, WebSource};

use crate::metrics::{accumulated_precision, average_curves, downsample};
use crate::report::{Report, Series};

use super::common::{cars_world, possible_tuples, run_qpiad, Scale, World};

const MAX_K: usize = 200;

/// The 10 evaluation queries.
pub fn queries(world: &World) -> Vec<SelectQuery> {
    let body = world.ed.schema().expect_attr("body_style");
    let mileage = world.ed.schema().expect_attr("mileage");
    let mut qs: Vec<SelectQuery> = ["Sedan", "SUV", "Truck", "Convt", "Coupe"]
        .iter()
        .map(|s| SelectQuery::new(vec![Predicate::eq(body, *s)]))
        .collect();
    for lo in [0i64, 20_000, 40_000, 60_000, 80_000] {
        qs.push(SelectQuery::new(vec![Predicate::between(
            mileage,
            Value::int(lo),
            Value::int(lo + 17_500),
        )]));
    }
    qs
}

/// Shared implementation for Figures 6 and 7.
pub fn accumulated_report(
    id: &str,
    title: &str,
    world: &World,
    queries: &[SelectQuery],
    max_k: usize,
) -> Report {
    let oracle = world.oracle();
    let mut qpiad_curves = Vec::new();
    let mut returned_curves = Vec::new();

    for query in queries {
        let relevant = oracle.relevant_possible(query);
        if relevant.is_empty() {
            continue;
        }
        let source = world.web_source("cars.com");
        let answers = run_qpiad(
            world,
            &source,
            query,
            QpiadConfig::default().with_k(40).with_alpha(1.0),
        );
        let labels: Vec<bool> = possible_tuples(&answers)
            .iter()
            .map(|t| relevant.contains(&t.id()))
            .collect();
        qpiad_curves.push(accumulated_precision(&labels, max_k));

        let direct = WebSource::direct("direct", world.ed.clone());
        let returned = all_returned(&direct, query).expect("null binding allowed");
        let labels: Vec<bool> = returned
            .iter()
            .map(|t: &Tuple| relevant.contains(&t.id()))
            .collect();
        returned_curves.push(accumulated_precision(&labels, max_k));
    }

    let mut report = Report::new(id, title, "Kth tuple", "avg accumulated precision");
    let to_series = |name: &str, curves: &[Vec<f64>]| {
        let avg = average_curves(curves, max_k);
        let pts: Vec<(f64, f64)> = avg
            .iter()
            .enumerate()
            .map(|(i, p)| ((i + 1) as f64, *p))
            .collect();
        Series::new(name, downsample(&pts, 40))
    };
    report.push_series(to_series("QPIAD", &qpiad_curves));
    report.push_series(to_series("AllReturned", &returned_curves));
    report.note(format!("{} queries contributed", qpiad_curves.len()));
    report
}

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let world = cars_world(scale);
    let qs = queries(&world);
    accumulated_report(
        "figure6",
        "Figure 6: avg accumulated precision after Kth tuple (body style & mileage queries)",
        &world,
        &qs,
        MAX_K,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpiad_keeps_higher_accumulated_precision() {
        let report = run(&Scale::quick());
        let avg = |name: &str| {
            let s = report.series_named(name).unwrap();
            assert!(!s.points.is_empty());
            s.points.iter().map(|p| p.y).sum::<f64>() / s.points.len() as f64
        };
        assert!(
            avg("QPIAD") > avg("AllReturned"),
            "QPIAD {} vs AllReturned {}",
            avg("QPIAD"),
            avg("AllReturned")
        );
    }
}
