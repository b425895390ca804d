//! Figure 8 — number of tuples that must be retrieved to reach a recall
//! level, QPIAD vs AllRanked, for `σ[Body Style = Convt]`.
//!
//! AllRanked must transfer *every* tuple with a null body style before it
//! can rank anything, so its cost is a flat line at that count. QPIAD
//! retrieves tuples query by query; we record, after each rewritten query,
//! the cumulative tuples transferred and the recall achieved, then invert
//! the relationship onto the paper's recall grid.

use qpiad_core::mediator::QpiadConfig;
use qpiad_db::{Predicate, SelectQuery};

use crate::report::{Report, Series};

use super::common::{cars_world, run_qpiad, Scale};

/// The recall grid reported.
pub const RECALL_LEVELS: [f64; 8] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let world = cars_world(scale);
    let body = world.ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let oracle = world.oracle();
    let relevant = oracle.relevant_possible(&query);

    // QPIAD run with a large budget and recall-friendly α so deep recall
    // levels are reachable.
    let source = world.web_source("cars.com");
    let answers = run_qpiad(
        &world,
        &source,
        &query,
        QpiadConfig::default().with_k(80).with_alpha(1.0),
    );

    // Per possible answer we know the retrieving query; reconstruct the
    // cumulative (possible answers retrieved, recall) trajectory per issued
    // query. Like the paper, cost counts the tuples entering the extended
    // result set — the answers actually delivered — not the certain
    // answers a rewritten query also returns and the post-filter drops.
    let mut per_query_transfer: Vec<usize> = vec![0; answers.issued.len()];
    let mut hits_per_query: Vec<usize> = vec![0; answers.issued.len()];
    for a in &answers.possible {
        per_query_transfer[a.query_index] += 1;
        if relevant.contains(&a.tuple.id()) {
            hits_per_query[a.query_index] += 1;
        }
    }

    let total_relevant = relevant.len().max(1);
    let mut cumulative_tuples = 0usize;
    let mut cumulative_hits = 0usize;
    let mut trajectory: Vec<(f64, usize)> = Vec::new(); // (recall, tuples)
    for i in 0..answers.issued.len() {
        cumulative_tuples += per_query_transfer[i];
        cumulative_hits += hits_per_query[i];
        trajectory.push((
            cumulative_hits as f64 / total_relevant as f64,
            cumulative_tuples,
        ));
    }

    // AllRanked: must fetch every null-body tuple, whatever the recall.
    let all_ranked_cost = world
        .ed
        .tuples()
        .iter()
        .filter(|t| t.value(body).is_null())
        .count();

    let mut report = Report::new(
        "figure8",
        "Figure 8: tuples required to achieve a recall level, Q(Cars): body_style=Convt",
        "recall",
        "# tuples retrieved",
    );
    let qpiad_pts: Vec<(f64, f64)> = RECALL_LEVELS
        .iter()
        .filter_map(|level| {
            trajectory
                .iter()
                .find(|(r, _)| *r >= *level - 1e-12)
                .map(|(_, tuples)| (*level, *tuples as f64))
        })
        .collect();
    let max_reached = trajectory.last().map(|(r, _)| *r).unwrap_or(0.0);
    report.push_series(Series::new("QPIAD", qpiad_pts));
    report.push_series(Series::new(
        "AllRanked",
        RECALL_LEVELS.iter().map(|l| (*l, all_ranked_cost as f64)),
    ));
    report.note(format!(
        "QPIAD reached recall {max_reached:.2} with {} rewritten queries; AllRanked always transfers {all_ranked_cost} tuples",
        answers.issued.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpiad_is_cheaper_at_every_reached_recall() {
        let report = run(&Scale::quick());
        let qpiad = report.series_named("QPIAD").unwrap();
        let ranked = report.series_named("AllRanked").unwrap();
        assert!(!qpiad.points.is_empty(), "QPIAD reached no recall level");
        let all_cost = ranked.points[0].y;
        for p in &qpiad.points {
            assert!(
                p.y < all_cost,
                "at recall {} QPIAD cost {} >= AllRanked {all_cost}",
                p.x,
                p.y
            );
        }
        // At moderate recall QPIAD should be a small fraction of the cost.
        if let Some(p) = qpiad.points.iter().find(|p| (p.x - 0.3).abs() < 1e-9) {
            assert!(p.y < all_cost, "recall 0.3 cost {} vs {all_cost}", p.y);
        }
    }
}
