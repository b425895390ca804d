//! Figure 11 — precision of the first K tuples retrieved from sources that
//! do not support the query attribute, via a correlated source (§4.3).
//!
//! Setup mirrors the paper's Figure 2: statistics and the base set come
//! from a Cars.com-like source (full schema); rewritten queries are issued
//! to a Yahoo!-Autos-like and a CarsDirect-like source whose local schemas
//! lack `body_style`. Precision is judged against each target source's
//! hidden ground truth, averaged over 5 body-style queries.

use qpiad_core::correlated::answer_from_correlated;
use qpiad_core::rank::RankConfig;
use qpiad_core::QueryContext;
use qpiad_data::cars::CarsConfig;
use qpiad_db::RetryPolicy;
use qpiad_db::{
    AutonomousSource, Predicate, Relation, SelectQuery, SourceBinding, Value, WebSource,
};

use crate::metrics::{accumulated_precision, average_curves, downsample};
use crate::report::{Report, Series};

use super::common::{cars_world, Scale};

const MAX_K: usize = 40;
const QUERY_STYLES: [&str; 5] = ["Convt", "Sedan", "SUV", "Truck", "Coupe"];

/// A deficient target source: its local schema omits `body_style`, but the
/// full ground truth is kept for judging.
pub struct DeficientSource {
    /// The target web source (local schema without body_style).
    pub source: WebSource,
    /// Global → local attribute mapping.
    pub binding: SourceBinding,
    /// Hidden full-schema ground truth.
    pub ground: Relation,
}

/// Builds a deficient source with its own data (distinct seed).
pub fn deficient_source(name: &str, rows: usize, seed: u64) -> DeficientSource {
    let ground = CarsConfig::default().with_rows(rows).generate(seed);
    let schema = ground.schema().clone();
    let keep: Vec<_> = schema
        .attr_ids()
        .filter(|a| schema.attr(*a).name() != "body_style")
        .collect();
    let local = ground.project_to(name, &keep);
    let binding = SourceBinding::by_name(name, &schema, local.schema());
    DeficientSource {
        source: WebSource::new(name, local),
        binding,
        ground,
    }
}

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let correlated = cars_world(scale);
    let body = correlated.ed.schema().expect_attr("body_style");
    let cars_source = correlated.web_source("cars.com");

    let targets = [
        deficient_source(
            "yahoo-autos-like",
            scale.cars_rows,
            scale.seed.wrapping_add(1_000),
        ),
        deficient_source(
            "carsdirect-like",
            scale.cars_rows,
            scale.seed.wrapping_add(1_001),
        ),
    ];

    let mut report = Report::new(
        "figure11",
        "Figure 11: precision at Kth tuple from sources lacking body_style (via correlated Cars.com)",
        "Kth tuple",
        "avg precision",
    );

    for target in &targets {
        let mut curves = Vec::new();
        for style in QUERY_STYLES {
            let query = SelectQuery::new(vec![Predicate::eq(body, style)]);
            let answers = answer_from_correlated(
                &cars_source,
                &correlated.stats,
                &target.source,
                &target.binding,
                &query,
                &RankConfig { alpha: 0.0, k: 10 },
                &RetryPolicy::default(),
                &mut QueryContext::unbounded(),
            )
            .expect("rewritten queries are expressible on the target");
            let answers = answers.possible;
            if answers.is_empty() {
                continue;
            }
            let labels: Vec<bool> = answers
                .iter()
                .map(|a| {
                    target
                        .ground
                        .by_id(a.tuple.id())
                        .map(|t| t.value(body) == &Value::str(style))
                        .unwrap_or(false)
                })
                .collect();
            curves.push(accumulated_precision(&labels, MAX_K));
        }
        let avg = average_curves(&curves, MAX_K);
        let pts: Vec<(f64, f64)> = avg
            .iter()
            .enumerate()
            .map(|(i, p)| ((i + 1) as f64, *p))
            .collect();
        report.push_series(Series::new(target.source.name(), downsample(&pts, 20)));
    }
    report.note("judged against each target's hidden full-schema ground truth".to_string());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlated_retrieval_has_high_precision() {
        let report = run(&Scale::quick());
        assert_eq!(report.series.len(), 2);
        for s in &report.series {
            assert!(!s.points.is_empty(), "{} produced no answers", s.name);
            let avg = s.points.iter().map(|p| p.y).sum::<f64>() / s.points.len() as f64;
            assert!(avg > 0.6, "{}: avg precision {avg}", s.name);
        }
    }
}
