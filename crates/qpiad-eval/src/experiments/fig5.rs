//! Figure 5 — effect of the F-measure α on precision/recall for Cars price
//! queries under a 10-rewritten-query budget.
//!
//! The paper plots the single query `σ[Price = 20000]`. On our (smaller)
//! synthetic instance a single price point has only a handful of relevant
//! possible answers, so the curves are averaged over the five most populous
//! price values — price 20000 included when present — which preserves the
//! claim under study: with α = 0 only the highest-precision rewritten
//! queries are issued and recall saturates early; raising α admits
//! higher-throughput queries, extending recall at some precision cost.

use qpiad_core::mediator::QpiadConfig;
use qpiad_db::{Predicate, SelectQuery, Value};

use crate::metrics::pr_curve;
use crate::report::{Report, Series};

use super::common::{cars_world, possible_tuples, run_qpiad, Scale, World};

/// The α values the paper plots.
pub const ALPHAS: [f64; 3] = [0.0, 0.1, 1.0];

/// The recall grid curves are averaged on.
const RECALL_GRID: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Picks the paper's `Price = 20000` query, falling back to the most
/// populous price on the $500 grid within ±$1500 should the exact value be
/// absent from this dataset instance.
pub fn price_query(world: &World) -> (SelectQuery, i64) {
    let price = world.ed.schema().expect_attr("price");
    let mut best = (20_000i64, 0usize);
    for cand in (18_500..=21_500).step_by(500) {
        let q = SelectQuery::new(vec![Predicate::eq(price, Value::int(cand))]);
        let n = world.ed.count(&q);
        let preferred = cand == 20_000 && n > 0;
        if n > best.1 || preferred {
            best = (cand, n);
            if preferred {
                break;
            }
        }
    }
    (
        SelectQuery::new(vec![Predicate::eq(price, Value::int(best.0))]),
        best.0,
    )
}

/// The evaluation queries: the paper's price point plus the most populous
/// other price values.
pub fn queries(world: &World) -> Vec<SelectQuery> {
    let price = world.ed.schema().expect_attr("price");
    let (paper_query, paper_value) = price_query(world);
    let mut by_count: Vec<(usize, Value)> = world
        .ed
        .active_domain(price)
        .into_iter()
        .filter(|v| v != &Value::int(paper_value))
        .map(|v| {
            let q = SelectQuery::new(vec![Predicate::eq(price, v.clone())]);
            (world.ed.count(&q), v)
        })
        .collect();
    by_count.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut out = vec![paper_query];
    out.extend(
        by_count
            .into_iter()
            .take(4)
            .map(|(_, v)| SelectQuery::new(vec![Predicate::eq(price, v)])),
    );
    out
}

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let world = cars_world(scale);
    let oracle = world.oracle();
    let qs = queries(&world);

    let mut report = Report::new(
        "figure5",
        "Figure 5: effect of alpha on P/R, Cars price queries (K=10)",
        "recall",
        "avg precision",
    );
    for alpha in ALPHAS {
        // Per query: precision at each recall grid point.
        let mut per_level: Vec<Vec<f64>> = vec![Vec::new(); RECALL_GRID.len()];
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
                QpiadConfig::default().with_k(10).with_alpha(alpha),
            );
            let labels: Vec<bool> = possible_tuples(&answers)
                .iter()
                .map(|t| relevant.contains(&t.id()))
                .collect();
            let curve = pr_curve(&labels, relevant.len());
            for (i, level) in RECALL_GRID.iter().enumerate() {
                if let Some(p) = curve.iter().find(|p| p.recall >= *level - 1e-12) {
                    per_level[i].push(p.precision);
                }
            }
        }
        let points: Vec<(f64, f64)> = RECALL_GRID
            .iter()
            .zip(&per_level)
            .filter(|(_, ps)| !ps.is_empty())
            .map(|(level, ps)| (*level, ps.iter().sum::<f64>() / ps.len() as f64))
            .collect();
        report.push_series(Series::new(format!("alpha={alpha}"), points));
    }
    report.note(format!(
        "averaged over {} price queries; precision at recall r = precision of the shortest prefix reaching r",
        qs.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> Scale {
        Scale {
            cars_rows: 12_000,
            ..Scale::quick()
        }
    }

    fn max_recall(report: &Report, name: &str) -> f64 {
        report
            .series_named(name)
            .unwrap()
            .points
            .iter()
            .map(|p| p.x)
            .fold(0.0, f64::max)
    }

    #[test]
    fn alpha_extends_recall() {
        let report = run(&scale());
        let r0 = max_recall(&report, "alpha=0");
        let r1 = max_recall(&report, "alpha=1");
        assert!(
            r1 >= r0 - 1e-9,
            "alpha=1 should reach at least alpha=0's recall: {r1} vs {r0}"
        );
        for alpha in ALPHAS {
            let s = report.series_named(&format!("alpha={alpha}")).unwrap();
            assert!(!s.points.is_empty(), "alpha={alpha} empty");
        }
    }

    #[test]
    fn query_value_is_populated() {
        let world = cars_world(&scale());
        let (q, v) = price_query(&world);
        assert!(world.ed.count(&q) > 0, "price {v} has no certain answers");
        assert_eq!(queries(&world).len(), 5);
    }
}
