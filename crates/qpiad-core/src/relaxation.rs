//! Imprecise queries via data-driven relaxation (the paper's §7 pointer to
//! QUIC \[16\] / AIMQ \[25\]).
//!
//! QPIAD handles *data* incompleteness; its sibling problem is *query*
//! imprecision: a user asking for `Model = Z4` would usually accept other
//! two-seat convertibles in the same price band. This module implements the
//! AFD-grounded flavour of relaxation those systems use: two values of an
//! attribute are similar when the **conditional distributions of the other
//! attributes given each value** (learned from the mediator's sample) are
//! close. The relaxed answer set returns exact matches at relevance 1.0,
//! then certain answers for the most similar values, ranked by similarity —
//! all through the same restricted source interface as QPIAD itself.

use std::collections::HashMap;

use qpiad_db::fault::RetryPolicy;
use qpiad_db::{
    AttrId, AutonomousSource, Predicate, Relation, SelectQuery, SourceError, Tuple, Value,
};
use qpiad_learn::knowledge::SourceStats;

use crate::mediator::{Degradation, QueryContext};
use crate::plan::{self, AdmissionMode, BaseGate, EntryStatus, MediationPlan, PlanEntry};
use crate::rewrite::RewrittenQuery;

/// Learned value-similarity model for one attribute.
#[derive(Debug, Clone)]
pub struct SimilarityModel {
    attr: AttrId,
    features: Vec<AttrId>,
    /// Per value: per feature, the conditional distribution `P(feature |
    /// attr = value)`.
    profiles: HashMap<Value, Vec<HashMap<Value, f64>>>,
}

impl SimilarityModel {
    /// Learns value profiles for `attr` from a sample, using the given
    /// feature attributes (typically all others).
    ///
    /// Profiles are Laplace-smoothed over each feature's *global* active
    /// domain: without smoothing, two rare values with sparse, barely
    /// overlapping empirical distributions look dissimilar to everything
    /// except high-frequency values — a small-sample artifact, not a
    /// semantic signal.
    pub fn learn(sample: &Relation, attr: AttrId, features: Vec<AttrId>) -> Self {
        assert!(!features.contains(&attr), "attr cannot be its own feature");
        const LAMBDA: f64 = 0.5;

        let domains: Vec<Vec<Value>> = features.iter().map(|f| sample.active_domain(*f)).collect();
        let mut counts: HashMap<Value, Vec<HashMap<Value, f64>>> = HashMap::new();
        for t in sample.tuples() {
            let v = t.value(attr);
            if v.is_null() {
                continue;
            }
            let entry = counts
                .entry(v.clone())
                .or_insert_with(|| vec![HashMap::new(); features.len()]);
            for (fi, f) in features.iter().enumerate() {
                let fv = t.value(*f);
                if !fv.is_null() {
                    *entry[fi].entry(fv.clone()).or_default() += 1.0;
                }
            }
        }
        let profiles = counts
            .into_iter()
            .map(|(v, mut dists)| {
                for (dist, domain) in dists.iter_mut().zip(&domains) {
                    let total: f64 = dist.values().sum();
                    let denom = total + LAMBDA * domain.len() as f64;
                    if denom > 0.0 {
                        for value in domain {
                            let smoothed =
                                (dist.get(value).copied().unwrap_or(0.0) + LAMBDA) / denom;
                            dist.insert(value.clone(), smoothed);
                        }
                    }
                }
                (v, dists)
            })
            .collect();
        SimilarityModel {
            attr,
            features,
            profiles,
        }
    }

    /// Learns a model using the mined statistics' schema (all attributes
    /// except `attr` as features).
    pub fn from_stats(stats: &SourceStats, attr: AttrId) -> Self {
        let features = stats.schema().attr_ids().filter(|a| *a != attr).collect();
        SimilarityModel::learn(stats.selectivity().sample(), attr, features)
    }

    /// The profiled attribute.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// The known values (observed in the sample).
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.profiles.keys()
    }

    /// Similarity in `[0, 1]`: mean, over features, of the distributional
    /// overlap `1 − ½·Σ|P(f|a) − P(f|b)|`. Unknown values score 0.
    pub fn similarity(&self, a: &Value, b: &Value) -> f64 {
        if a == b {
            return 1.0;
        }
        let (Some(pa), Some(pb)) = (self.profiles.get(a), self.profiles.get(b)) else {
            return 0.0;
        };
        if self.features.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (da, db) in pa.iter().zip(pb) {
            let mut l1 = 0.0;
            for (v, p) in da {
                l1 += (p - db.get(v).copied().unwrap_or(0.0)).abs();
            }
            for (v, p) in db {
                if !da.contains_key(v) {
                    l1 += p;
                }
            }
            total += 1.0 - 0.5 * l1;
        }
        (total / self.features.len() as f64).clamp(0.0, 1.0)
    }

    /// The `k` most similar known values to `v` (excluding `v` itself),
    /// best first, with their similarities.
    pub fn neighbors(&self, v: &Value, k: usize) -> Vec<(Value, f64)> {
        let mut scored: Vec<(Value, f64)> = self
            .profiles
            .keys()
            .filter(|candidate| *candidate != v)
            .map(|candidate| (candidate.clone(), self.similarity(v, candidate)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

/// An answer of a relaxed (imprecise) query.
#[derive(Debug, Clone)]
pub struct RelaxedAnswer {
    /// The retrieved tuple (a certain answer of some `attr = value'`).
    pub tuple: Tuple,
    /// Relevance: 1.0 for exact matches, the value similarity otherwise.
    pub relevance: f64,
    /// The attribute value this tuple matched.
    pub matched_value: Value,
}

/// Answers the imprecise query `attr ≈ value`: exact matches first, then
/// certain answers for the `k_neighbors` most similar values, in relevance
/// order. Stops early if the source's query budget runs out.
pub fn answer_imprecise(
    stats: &SourceStats,
    source: &dyn AutonomousSource,
    attr: AttrId,
    value: &Value,
    k_neighbors: usize,
) -> Result<Vec<RelaxedAnswer>, SourceError> {
    let model = SimilarityModel::from_stats(stats, attr);
    let mut out = Vec::new();

    // Relaxation runs unguarded; the shared executor sees an unbounded
    // context and a single-attempt policy. The exact query plays the role
    // of the base retrieval, the neighbor queries form a hand-built plan
    // in best-first neighbor order (their "F-measure mass" is the value
    // similarity the plan would lose by dropping them).
    let mut ctx = QueryContext::unbounded();
    let mut degraded = Degradation::default();
    let retry = RetryPolicy::none();
    let exact_query = SelectQuery::new(vec![Predicate::eq(attr, value.clone())]);
    let exact = plan::execute_base(
        source,
        &exact_query,
        &retry,
        &mut ctx,
        &mut degraded,
        BaseGate::Guarded,
    )?;
    for tuple in exact {
        out.push(RelaxedAnswer {
            tuple,
            relevance: 1.0,
            matched_value: value.clone(),
        });
    }

    let neighbors: Vec<(Value, f64)> = model
        .neighbors(value, k_neighbors)
        .into_iter()
        .take_while(|(_, similarity)| *similarity > 0.0)
        .collect();
    let mut relax_plan = MediationPlan::new(
        source.name().to_string(),
        exact_query,
        retry,
        AdmissionMode::PlanTime,
    );
    for (neighbor, similarity) in &neighbors {
        let query = SelectQuery::new(vec![Predicate::eq(attr, neighbor.clone())]);
        relax_plan.push(PlanEntry {
            rewrite: RewrittenQuery {
                query: query.clone(),
                target_attr: attr,
                precision: *similarity,
                est_selectivity: 0.0,
                afd: None,
            },
            issue: query,
            fmeasure: *similarity,
            status: EntryStatus::Deferred,
        });
    }
    relax_plan.admit(&mut ctx, &mut degraded);
    plan::execute(
        source,
        &relax_plan,
        &mut ctx,
        &mut degraded,
        |rank, _, result, _| {
            let (neighbor, similarity) = &neighbors[rank];
            for tuple in result {
                out.push(RelaxedAnswer {
                    tuple,
                    relevance: *similarity,
                    matched_value: neighbor.clone(),
                });
            }
        },
    );
    // Neighbors were visited best-first, so the list is already in
    // non-increasing relevance order; make it explicit for robustness.
    out.sort_by(|a, b| b.relevance.total_cmp(&a.relevance));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::WebSource;
    use qpiad_learn::knowledge::MiningConfig;

    fn setup() -> (WebSource, SourceStats) {
        let ground = CarsConfig::default().with_rows(12_000).generate(91);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.15, 7);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        (WebSource::new("cars.com", ed), stats)
    }

    #[test]
    fn similarity_is_reflexive_symmetric_and_bounded() {
        let (_, stats) = setup();
        let model = stats.schema().expect_attr("model");
        let sim = SimilarityModel::from_stats(&stats, model);
        let values: Vec<Value> = sim.values().take(8).cloned().collect();
        for a in &values {
            assert_eq!(sim.similarity(a, a), 1.0);
            for b in &values {
                let ab = sim.similarity(a, b);
                assert!((0.0..=1.0).contains(&ab));
                assert!((ab - sim.similarity(b, a)).abs() < 1e-12);
            }
        }
        // Unknown values have no profile.
        assert_eq!(
            sim.similarity(&Value::str("Z4"), &Value::str("Warp Drive")),
            0.0
        );
    }

    #[test]
    fn convertibles_are_each_others_neighbors() {
        let (_, stats) = setup();
        let model_attr = stats.schema().expect_attr("model");
        let sim = SimilarityModel::from_stats(&stats, model_attr);
        // A dedicated convertible should be closer to another convertible
        // than to a pickup truck.
        let z4 = Value::str("Z4");
        let boxster = Value::str("Boxster");
        let f150 = Value::str("F150");
        let s_convt = sim.similarity(&z4, &boxster);
        let s_truck = sim.similarity(&z4, &f150);
        assert!(
            s_convt > s_truck,
            "Z4~Boxster {s_convt:.3} should beat Z4~F150 {s_truck:.3}"
        );
    }

    #[test]
    fn imprecise_answers_rank_exact_matches_first() {
        let (source, stats) = setup();
        let model_attr = stats.schema().expect_attr("model");
        let answers = answer_imprecise(&stats, &source, model_attr, &Value::str("Z4"), 5).unwrap();
        assert!(!answers.is_empty());
        // Relevance is non-increasing, exact matches lead at 1.0.
        assert_eq!(answers[0].relevance, 1.0);
        assert_eq!(answers[0].matched_value, Value::str("Z4"));
        for w in answers.windows(2) {
            assert!(w[0].relevance >= w[1].relevance);
        }
        // Relaxation brought in other models too.
        assert!(answers.iter().any(|a| a.matched_value != Value::str("Z4")));
        // Every returned tuple certainly matches its matched value.
        for a in &answers {
            assert_eq!(a.tuple.value(model_attr), &a.matched_value);
        }
    }

    #[test]
    fn neighbor_budget_is_respected() {
        let (source, stats) = setup();
        let model_attr = stats.schema().expect_attr("model");
        let answers = answer_imprecise(&stats, &source, model_attr, &Value::str("Z4"), 2).unwrap();
        let distinct: std::collections::BTreeSet<String> = answers
            .iter()
            .map(|a| a.matched_value.to_string())
            .collect();
        assert!(distinct.len() <= 3); // Z4 + at most two neighbors
    }
}
