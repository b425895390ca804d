//! Figure 9 — average precision of QPIAD's possible answers after pruning
//! them at different confidence thresholds, over 40 Cars queries.
//!
//! QPIAD attaches a confidence to every possible answer; users may discard
//! low-confidence ones. The expected shape: precision rises monotonically
//! (in trend) with the threshold — high-confidence answers are almost
//! always relevant.

use qpiad_core::mediator::QpiadConfig;
use qpiad_db::{Predicate, SelectQuery, Value};

use crate::report::{Report, Series};

use super::common::{cars_world, run_qpiad, Scale, World};

/// The thresholds the paper sweeps.
pub const THRESHOLDS: [f64; 7] = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// 40 single-attribute queries over four attributes (10 values each where
/// available).
pub fn queries(world: &World) -> Vec<SelectQuery> {
    let mut out = Vec::new();
    for attr_name in ["body_style", "make", "year", "price"] {
        let attr = world.ed.schema().expect_attr(attr_name);
        let mut by_count: Vec<(usize, Value)> = world
            .ed
            .active_domain(attr)
            .into_iter()
            .map(|v| {
                let q = SelectQuery::new(vec![Predicate::eq(attr, v.clone())]);
                (world.ed.count(&q), v)
            })
            .collect();
        by_count.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for (_, v) in by_count.into_iter().take(10) {
            out.push(SelectQuery::new(vec![Predicate::eq(attr, v)]));
        }
    }
    out
}

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let world = cars_world(scale);
    let oracle = world.oracle();
    let qs = queries(&world);

    // Gather every query's (confidence, relevant) pairs once; thresholding
    // is then a filter.
    let mut per_query: Vec<Vec<(f64, bool)>> = Vec::new();
    for query in &qs {
        let relevant = oracle.relevant_possible(query);
        if relevant.is_empty() {
            continue;
        }
        let source = world.web_source("cars.com");
        let answers = run_qpiad(
            &world,
            &source,
            query,
            QpiadConfig::default().with_k(15).with_alpha(1.0),
        );
        if answers.possible.is_empty() {
            continue;
        }
        per_query.push(
            answers
                .possible
                .iter()
                .map(|a| (a.confidence, relevant.contains(&a.tuple.id())))
                .collect(),
        );
    }

    let mut points = Vec::new();
    for threshold in THRESHOLDS {
        let mut precisions = Vec::new();
        for answers in &per_query {
            let kept: Vec<&(f64, bool)> = answers.iter().filter(|(c, _)| *c >= threshold).collect();
            if kept.is_empty() {
                continue;
            }
            let hits = kept.iter().filter(|(_, rel)| *rel).count();
            precisions.push(hits as f64 / kept.len() as f64);
        }
        if !precisions.is_empty() {
            let avg = precisions.iter().sum::<f64>() / precisions.len() as f64;
            points.push((threshold, avg));
        }
    }

    let mut report = Report::new(
        "figure9",
        "Figure 9: average precision vs confidence threshold (Cars, 40 queries)",
        "confidence threshold",
        "avg precision",
    );
    report.push_series(Series::new("QPIAD", points));
    report.note(format!(
        "{} queries contributed possible answers",
        per_query.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_trends_upward_with_threshold() {
        let report = run(&Scale::quick());
        let s = report.series_named("QPIAD").unwrap();
        assert!(s.points.len() >= 4, "need most thresholds populated");
        let first = s.points.first().unwrap().y;
        let last = s.points.last().unwrap().y;
        assert!(
            last >= first - 0.05,
            "high-confidence precision {last} should not fall below low-threshold {first}"
        );
        // High-threshold answers are strongly relevant.
        assert!(last > 0.6, "precision at top threshold {last}");
    }

    #[test]
    fn about_forty_queries_are_generated() {
        // Small domains (year: 9 values, body style: 8) cap some attribute
        // groups below 10 queries.
        let world = cars_world(&Scale::quick());
        let n = queries(&world).len();
        assert!((35..=40).contains(&n), "{n} queries");
    }
}
