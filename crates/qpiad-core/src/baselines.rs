//! The paper's comparison baselines (§1, §6.2).
//!
//! * **AllReturned** — return every tuple with a missing value on a
//!   constrained attribute (that contradicts no other predicate), unranked.
//!   High recall, poor precision.
//! * **AllRanked** — same retrieval, but rank the tuples by their assessed
//!   relevance using the §5 classifiers.
//!
//! Both require *null binding* (`attr IS NULL` queries), which real web
//! databases do not support — they only run against a
//! [`qpiad_db::WebSource::direct`] source. Their costs (every null-valued
//! tuple is transferred) are what Figure 8 compares QPIAD against.

use std::collections::HashSet;

use qpiad_db::{AutonomousSource, Predicate, SelectQuery, SourceError, Tuple, TupleId};
use qpiad_learn::knowledge::SourceStats;

use crate::mediator::RankedAnswer;

/// Retrieves all possible answers of a query by binding nulls: for each
/// constrained attribute, ask for tuples null on it that satisfy the other
/// predicates. Tuples are returned in source order, unranked.
pub fn all_returned(
    source: &dyn AutonomousSource,
    query: &SelectQuery,
) -> Result<Vec<Tuple>, SourceError> {
    let mut seen: HashSet<TupleId> = HashSet::new();
    let mut out: Vec<Tuple> = Vec::new();
    for target in query.constrained_attrs() {
        let mut preds: Vec<Predicate> = query
            .predicates()
            .iter()
            .filter(|p| p.attr != target)
            .cloned()
            .collect();
        preds.push(Predicate::is_null(target));
        let q = SelectQuery::new(preds);
        for t in source.query(&q)? {
            // Keep the paper's ranking assumption: only tuples missing a
            // single constrained value are (possible) answers here; others
            // would be deferred by every method alike.
            if query.possibly_matches(&t) && seen.insert(t.id()) {
                out.push(t);
            }
        }
    }
    Ok(out)
}

/// AllRanked: the [`all_returned`] retrieval followed by ranking on the
/// classifier-assessed relevance of each tuple.
pub fn all_ranked(
    source: &dyn AutonomousSource,
    query: &SelectQuery,
    stats: &SourceStats,
) -> Result<Vec<RankedAnswer>, SourceError> {
    let tuples = all_returned(source, query)?;
    let mut answers: Vec<RankedAnswer> = tuples
        .into_iter()
        .map(|t| {
            let mut confidence = 1.0;
            for p in query.predicates() {
                if t.value(p.attr).is_null() {
                    confidence *= stats.predictor().prob_matching(p.attr, &t, &p.op);
                }
            }
            RankedAnswer {
                tuple: t,
                confidence,
                query_precision: 0.0,
                query_index: 0,
                explanation: None,
            }
        })
        .collect();
    answers.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then_with(|| a.tuple.id().cmp(&b.tuple.id()))
    });
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig, Provenance};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::{Value, WebSource};
    use qpiad_learn::knowledge::MiningConfig;

    fn setup() -> (WebSource, SourceStats, Provenance) {
        let ground = CarsConfig::default().with_rows(8_000).generate(51);
        let (ed, prov) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 29);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        (WebSource::direct("oracle", ed), stats, prov)
    }

    #[test]
    fn all_returned_fetches_every_null_candidate() {
        let (source, _, _) = setup();
        let body = source.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let got = all_returned(&source, &q).unwrap();
        let expected = source
            .relation()
            .tuples()
            .iter()
            .filter(|t| t.value(body).is_null())
            .count();
        assert_eq!(got.len(), expected);
        assert!(got.iter().all(|t| t.value(body).is_null()));
    }

    #[test]
    fn all_returned_respects_other_predicates() {
        let (source, _, _) = setup();
        let body = source.schema().expect_attr("body_style");
        let year = source.schema().expect_attr("year");
        let q = SelectQuery::new(vec![
            Predicate::eq(body, "Convt"),
            Predicate::eq(year, 2003i64),
        ]);
        let got = all_returned(&source, &q).unwrap();
        for t in &got {
            assert!(q.possibly_matches(t));
        }
    }

    #[test]
    fn all_ranked_orders_by_confidence() {
        let (source, stats, _) = setup();
        let body = source.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let ranked = all_ranked(&source, &q, &stats).unwrap();
        assert!(!ranked.is_empty());
        for w in ranked.windows(2) {
            assert!(w[0].confidence >= w[1].confidence);
        }
    }

    #[test]
    fn all_ranked_puts_relevant_tuples_first() {
        let (source, stats, prov) = setup();
        let body = source.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let ranked = all_ranked(&source, &q, &stats).unwrap();
        let relevant = |t: &Tuple| prov.true_value(t.id(), body) == Some(&Value::str("Convt"));
        let n = ranked.len();
        let top = &ranked[..n / 4];
        let bottom = &ranked[3 * n / 4..];
        let top_rel = top.iter().filter(|a| relevant(&a.tuple)).count() as f64 / top.len() as f64;
        let bottom_rel =
            bottom.iter().filter(|a| relevant(&a.tuple)).count() as f64 / bottom.len() as f64;
        assert!(
            top_rel > bottom_rel,
            "ranking should concentrate relevance: top {top_rel} vs bottom {bottom_rel}"
        );
    }

    #[test]
    fn baselines_fail_on_web_sources() {
        let ground = CarsConfig::default().with_rows(500).generate(52);
        let source = WebSource::new("cars.com", ground);
        let body = source.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        assert!(matches!(
            all_returned(&source, &q),
            Err(SourceError::NullBindingUnsupported { .. })
        ));
    }
}
