//! Figure 13 — precision/recall of join queries over Cars ⋈_Model
//! Complaints for α ∈ {0, 0.5, 2} with a 10-pair budget (§4.5, §6.6).
//!
//! Two queries mirror the paper's: `Model = Grand Cherokee ⋈ General
//! Component = Engine and Engine Cooling` and `Model = F150 ⋈ General
//! Component = Electrical System`. A joined answer is relevant iff the
//! ground-truth completions of both sides satisfy their selections and
//! really share the join value.
//!
//! Following §6.2's convention, the curves cover *possible* joined answers
//! only: pairs where at least one side is an incomplete possible answer.
//! Certain ⋈ certain pairs are recovered identically by every method and
//! would swamp the curves.

use std::collections::HashSet;

use qpiad_core::join::{answer_join, JoinConfig, JoinSide};
use qpiad_db::{JoinQuery, Predicate, SelectQuery, TupleId};

use crate::metrics::{downsample, pr_curve};
use crate::report::{Report, Series};

use super::common::{cars_world, complaints_world, Scale, World};

/// The α values plotted.
pub const ALPHAS: [f64; 3] = [0.0, 0.5, 2.0];

/// The two paper queries, as (model, general component) pairs.
pub const QUERIES: [(&str, &str); 2] = [
    ("Grand Cherokee", "Engine and Engine Cooling"),
    ("F150", "Electrical System"),
];

fn join_query(cars: &World, comps: &World, model: &str, component: &str) -> JoinQuery {
    let model_l = cars.ed.schema().expect_attr("model");
    let model_r = comps.ed.schema().expect_attr("model");
    let gc = comps.ed.schema().expect_attr("general_component");
    JoinQuery {
        left: SelectQuery::new(vec![Predicate::eq(model_l, model)]),
        right: SelectQuery::new(vec![Predicate::eq(gc, component)]),
        left_attr: model_l,
        right_attr: model_r,
    }
}

/// Ground-truth *possible* joined pairs for a join query: true pairs where
/// at least one side is not a certain answer in ED (missing constrained or
/// join value), so only QPIAD-style retrieval can recover them.
fn oracle_possible_pairs(
    cars: &World,
    comps: &World,
    jq: &JoinQuery,
) -> HashSet<(TupleId, TupleId)> {
    let left_certain = |id: TupleId| {
        cars.ed
            .by_id(id)
            .map(|t| jq.left.matches(t) && !t.value(jq.left_attr).is_null())
            .unwrap_or(false)
    };
    let right_certain = |id: TupleId| {
        comps
            .ed
            .by_id(id)
            .map(|t| jq.right.matches(t) && !t.value(jq.right_attr).is_null())
            .unwrap_or(false)
    };
    let mut left_ids: Vec<(TupleId, &qpiad_db::Value)> = Vec::new();
    for t in cars.ground.tuples() {
        if jq.left.matches(t) {
            left_ids.push((t.id(), t.value(jq.left_attr)));
        }
    }
    let mut out = HashSet::new();
    for rt in comps.ground.tuples() {
        if !jq.right.matches(rt) {
            continue;
        }
        let rv = rt.value(jq.right_attr);
        for (lid, lv) in &left_ids {
            if *lv == rv && !(left_certain(*lid) && right_certain(rt.id())) {
                out.insert((*lid, rt.id()));
            }
        }
    }
    out
}

/// Runs the experiment for one of the two paper queries (0 or 1).
pub fn run_query(scale: &Scale, query_idx: usize) -> Report {
    let cars = cars_world(scale);
    let comps = complaints_world(scale);
    let (model, component) = QUERIES[query_idx];
    let jq = join_query(&cars, &comps, model, component);
    let truth = oracle_possible_pairs(&cars, &comps, &jq);

    let mut report = Report::new(
        format!("figure13{}", (b'a' + query_idx as u8) as char),
        format!(
            "Figure 13: join P/R over possible answers, Model={model} ⋈ \
             GeneralComponent={component} (K=10 pairs)"
        ),
        "recall",
        "precision",
    );
    for alpha in ALPHAS {
        let cars_source = cars.web_source("cars.com");
        let comps_source = comps.web_source("complaints");
        let ans = answer_join(
            &JoinSide {
                source: &cars_source,
                stats: &cars.stats,
            },
            &JoinSide {
                source: &comps_source,
                stats: &comps.stats,
            },
            &JoinConfig { alpha, k_pairs: 10 },
            &jq,
        )
        .expect("join accepted");
        // Possible joined answers only (§6.2's convention).
        let labels: Vec<bool> = ans
            .results
            .iter()
            .filter(|j| !j.is_certain())
            .map(|j| truth.contains(&(j.left.id(), j.right.id())))
            .collect();
        let curve = pr_curve(&labels, truth.len());
        let pts = downsample(&curve, 40);
        report.push_series(Series::new(
            format!("alpha={alpha}"),
            pts.iter().map(|p| (p.recall, p.precision)),
        ));
    }
    report.note(format!(
        "{} true possible joined pairs in the oracle",
        truth.len()
    ));
    report
}

/// Runs the experiment (first paper query; the `exp-fig13` binary prints
/// both).
pub fn run(scale: &Scale) -> Report {
    run_query(scale, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Possible joined pairs are sparse (10% incompleteness on two small
    /// relations); the quick scale is below the statistical regime, so the
    /// join tests run at an intermediate size.
    fn scale() -> Scale {
        Scale {
            cars_rows: 12_000,
            complaints_rows: 16_000,
            seed: 1,
            ..Scale::quick()
        }
    }

    #[test]
    fn joins_recover_possible_pairs_with_high_early_precision() {
        let report = run(&scale());
        for alpha in ALPHAS {
            let s = report.series_named(&format!("alpha={alpha}")).unwrap();
            assert!(!s.points.is_empty(), "alpha={alpha} returned nothing");
            assert!(
                s.points[0].y > 0.8,
                "alpha={alpha} early precision {}",
                s.points[0].y
            );
            // Each α setting recovers real possible pairs.
            let max_recall = s.points.iter().map(|p| p.x).fold(0.0, f64::max);
            assert!(max_recall > 0.05, "alpha={alpha} recall {max_recall}");
        }
    }

    #[test]
    fn alpha_changes_which_pairs_are_issued() {
        // §6.6: the α weighting decides which side's incomplete tuples get
        // retrieved under the pair budget, so the curves must differ.
        let report = run(&scale());
        let curve = |alpha: f64| {
            report
                .series_named(&format!("alpha={alpha}"))
                .unwrap()
                .points
                .iter()
                .map(|p| (p.x, p.y))
                .collect::<Vec<_>>()
        };
        assert_ne!(curve(0.0), curve(2.0), "alpha has no effect on the join");
    }
}
