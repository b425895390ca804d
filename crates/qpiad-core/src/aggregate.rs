//! Aggregate queries over incomplete sources (§4.4).
//!
//! The certain aggregate (computed over the base set only) undercounts as
//! incompleteness grows. QPIAD additionally issues rewritten queries and
//! folds a rewritten query's result into the aggregate **only when the most
//! likely completion of the missing constrained value equals the queried
//! value** — the paper found this gating more accurate than weighting every
//! tuple by its precision (§4.4, footnote 4).
//!
//! Tuples whose *aggregated* attribute is missing (e.g. `SUM(price)` over a
//! tuple with a null price) contribute their most likely predicted value.

use std::collections::HashSet;

use qpiad_db::fault::RetryPolicy;
use qpiad_db::{AggFunc, AggregateQuery, AutonomousSource, SourceError, Tuple, TupleId};
use qpiad_learn::knowledge::SourceStats;

use crate::mediator::{value_or_predicted, Degradation, QueryContext};
use crate::plan::{self, AdmissionMode, BaseGate, EntryStatus, MediationPlan, PlanEntry};
use crate::rank::{order_rewrites, RankConfig};
use crate::rewrite::generate_rewrites;

/// The outcome of an aggregate query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateAnswer {
    /// Aggregate over certain answers only, nulls skipped (what a
    /// conventional mediator reports).
    pub certain: f64,
    /// Aggregate including predicted completions of incomplete tuples.
    pub with_prediction: f64,
    /// Number of certain tuples aggregated.
    pub certain_count: usize,
    /// Number of possible (incomplete) tuples folded in by the gating rule.
    pub possible_count: usize,
}

/// Configuration for aggregate processing.
#[derive(Debug, Clone, Copy)]
pub struct AggregateConfig {
    /// F-measure α for ordering the rewritten queries.
    pub alpha: f64,
    /// Rewritten-query budget.
    pub k: usize,
}

impl Default for AggregateConfig {
    fn default() -> Self {
        AggregateConfig { alpha: 1.0, k: 10 }
    }
}

/// Answers an aggregate query over an incomplete autonomous source.
pub fn answer_aggregate(
    stats: &SourceStats,
    config: &AggregateConfig,
    source: &dyn AutonomousSource,
    query: &AggregateQuery,
) -> Result<AggregateAnswer, SourceError> {
    // Aggregates run unguarded (no breaker/budget of their own): the
    // shared executor sees an unbounded context and a single-attempt
    // policy; a rewrite the source still fails is dropped, not fatal.
    let mut ctx = QueryContext::unbounded();
    let mut degraded = Degradation::default();
    let retry = RetryPolicy::none();
    let base = plan::execute_base(
        source,
        &query.select,
        &retry,
        &mut ctx,
        &mut degraded,
        BaseGate::Guarded,
    )?;
    let certain = query.evaluate(base.iter());

    // Accumulators for the predicted aggregate, expressed as (count, sum) so
    // COUNT/SUM/AVG all derive from them.
    let mut count = 0f64;
    let mut sum = 0f64;
    let mut possible_count = 0usize;

    let mut fold = |t: &Tuple, stats: &SourceStats| -> bool {
        match query.attr {
            None => {
                count += 1.0;
                true
            }
            Some(attr) => match value_or_predicted(stats, attr, t) {
                Some((v, _)) => match v.as_int() {
                    Some(i) => {
                        count += 1.0;
                        sum += i as f64;
                        true
                    }
                    None => false,
                },
                None => false,
            },
        }
    };

    let mut seen: HashSet<TupleId> = HashSet::new();
    for t in &base {
        seen.insert(t.id());
        fold(t, stats);
    }

    // Rewritten queries bring incomplete candidates; the gating rule keeps a
    // query's tuples only if the most likely completion of its target
    // attribute equals the queried value.
    let rewrites = generate_rewrites(&query.select, &base, stats);
    let ordered = order_rewrites(
        rewrites,
        &RankConfig {
            alpha: config.alpha,
            k: config.k,
        },
    );
    let constrained = query.select.constrained_attrs();

    let mut agg_plan = MediationPlan::new(
        source.name().to_string(),
        query.select.clone(),
        retry,
        AdmissionMode::PlanTime,
    );
    for scored in ordered {
        agg_plan.push(PlanEntry {
            issue: scored.rewrite.query.clone(),
            rewrite: scored.rewrite,
            fmeasure: scored.fmeasure,
            status: EntryStatus::Deferred,
        });
    }
    agg_plan.admit(&mut ctx, &mut degraded);

    plan::execute(
        source,
        &agg_plan,
        &mut ctx,
        &mut degraded,
        |_, entry, result, _| {
            // §4.4: accept the whole query iff the argmax completion satisfies
            // the original predicate on the target attribute. A rewrite whose
            // target is somehow unconstrained cannot be gated — skip it rather
            // than panic mid-aggregation.
            let Some(target_pred) = query.select.predicate_on(entry.rewrite.target_attr) else {
                return;
            };
            for t in result {
                if !seen.insert(t.id()) {
                    continue;
                }
                if !query.select.possibly_matches(&t) {
                    continue;
                }
                if t.null_count_among(&constrained) > 1 {
                    continue;
                }
                let Some((most_likely, _)) =
                    stats.predictor().predict(entry.rewrite.target_attr, &t)
                else {
                    continue;
                };
                if !target_pred.op.matches(&most_likely) {
                    continue;
                }
                if fold(&t, stats) {
                    possible_count += 1;
                }
            }
        },
    );

    let with_prediction = match query.func {
        AggFunc::Count => count,
        AggFunc::Sum => sum,
        AggFunc::Avg => {
            if count == 0.0 {
                0.0
            } else {
                sum / count
            }
        }
    };

    Ok(AggregateAnswer {
        certain,
        with_prediction,
        certain_count: base.len(),
        possible_count,
    })
}

/// Relative accuracy of an aggregate estimate against the true value:
/// `1 − |estimate − truth| / truth` clamped to `[0, 1]` (the measure behind
/// Figure 12). A zero truth with a zero estimate counts as exact.
pub fn aggregate_accuracy(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        return if estimate == 0.0 { 1.0 } else { 0.0 };
    }
    (1.0 - (estimate - truth).abs() / truth.abs()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::{Predicate, Relation, SelectQuery, WebSource};
    use qpiad_learn::knowledge::MiningConfig;

    fn setup() -> (Relation, WebSource, SourceStats) {
        let ground = CarsConfig::default().with_rows(10_000).generate(61);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 31);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        (ground, WebSource::new("cars.com", ed), stats)
    }

    #[test]
    fn count_with_prediction_beats_certain_only() {
        let (ground, source, stats) = setup();
        let body = source.schema().expect_attr("body_style");
        let select = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let truth = ground.count(&select) as f64;

        let q = AggregateQuery::count(select);
        let ans = answer_aggregate(&stats, &AggregateConfig::default(), &source, &q).unwrap();
        assert!(
            ans.certain < truth,
            "incompleteness must depress the certain count"
        );
        assert!(ans.possible_count > 0);
        let acc_certain = aggregate_accuracy(ans.certain, truth);
        let acc_pred = aggregate_accuracy(ans.with_prediction, truth);
        assert!(
            acc_pred >= acc_certain,
            "prediction should improve accuracy: {acc_pred} vs {acc_certain}"
        );
    }

    #[test]
    fn sum_with_prediction_moves_toward_truth() {
        let (ground, source, stats) = setup();
        let body = ground.schema().expect_attr("body_style");
        let price = ground.schema().expect_attr("price");
        let select = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let truth = AggregateQuery::sum(select.clone(), price)
            .evaluate(ground.tuples().iter().filter(|t| select.matches(t)));

        let q = AggregateQuery::sum(select, price);
        let ans = answer_aggregate(&stats, &AggregateConfig::default(), &source, &q).unwrap();
        let acc_certain = aggregate_accuracy(ans.certain, truth);
        let acc_pred = aggregate_accuracy(ans.with_prediction, truth);
        assert!(acc_pred >= acc_certain, "{acc_pred} vs {acc_certain}");
    }

    #[test]
    fn avg_is_ratio_of_sum_and_count() {
        let (_, source, stats) = setup();
        let make = source.schema().expect_attr("make");
        let price = source.schema().expect_attr("price");
        let select = SelectQuery::new(vec![Predicate::eq(make, "Honda")]);
        let avg = answer_aggregate(
            &stats,
            &AggregateConfig::default(),
            &source,
            &AggregateQuery::avg(select.clone(), price),
        )
        .unwrap();
        assert!(avg.with_prediction > 1_000.0 && avg.with_prediction < 50_000.0);
    }

    #[test]
    fn between_predicates_gate_by_range_membership() {
        // COUNT over a price band: incomplete tuples join the aggregate iff
        // their most likely price falls inside the band.
        let (ground, source, stats) = setup();
        let price = ground.schema().expect_attr("price");
        let select = SelectQuery::new(vec![Predicate::between(price, 10_000i64, 20_000i64)]);
        let truth = ground.count(&select) as f64;
        let q = AggregateQuery::count(select);
        let ans = answer_aggregate(&stats, &AggregateConfig::default(), &source, &q).unwrap();
        assert!(ans.certain < truth);
        assert!(ans.possible_count > 0, "range gating admitted nothing");
        assert!(
            aggregate_accuracy(ans.with_prediction, truth)
                >= aggregate_accuracy(ans.certain, truth)
        );
    }

    #[test]
    fn query_budget_exhaustion_degrades_gracefully() {
        let (_, _, stats) = setup();
        let ground = CarsConfig::default().with_rows(3_000).generate(62);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let body = ed.schema().expect_attr("body_style");
        // Budget covers the base query plus two rewrites only.
        let source = WebSource::new("limited", ed).with_query_limit(3);
        let q = AggregateQuery::count(SelectQuery::new(vec![Predicate::eq(body, "Convt")]));
        let ans = answer_aggregate(&stats, &AggregateConfig::default(), &source, &q).unwrap();
        assert!(ans.with_prediction >= ans.certain);
    }

    #[test]
    fn accuracy_measure_behaves() {
        assert_eq!(aggregate_accuracy(100.0, 100.0), 1.0);
        assert!((aggregate_accuracy(90.0, 100.0) - 0.9).abs() < 1e-12);
        assert_eq!(aggregate_accuracy(250.0, 100.0), 0.0); // clamped
        assert_eq!(aggregate_accuracy(0.0, 0.0), 1.0);
        assert_eq!(aggregate_accuracy(5.0, 0.0), 0.0);
    }
}
