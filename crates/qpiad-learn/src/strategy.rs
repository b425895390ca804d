//! AFD-enhanced classifier combination strategies (§5.3).
//!
//! One attribute may have several mined AFDs with different determining
//! sets. The paper evaluates four ways of combining AFDs and classifiers
//! and adopts **Hybrid One-AFD**:
//!
//! * [`FeatureStrategy::BestAfd`] — use the determining set of the
//!   highest-confidence AFD as the NBC feature set.
//! * [`FeatureStrategy::HybridOneAfd`] — like Best-AFD, but if the best
//!   AFD's confidence is below a threshold (paper: 0.5), fall back to an
//!   all-attributes NBC.
//! * [`FeatureStrategy::Ensemble`] — one NBC per AFD, their posteriors
//!   averaged with AFD-confidence weights.
//! * [`FeatureStrategy::AllAttributes`] — ignore AFDs; use every other
//!   attribute as a feature.

use std::collections::HashMap;

use qpiad_db::{AttrId, PredOp, Relation, Tuple, Value};

use crate::afd::{Afd, AfdSet};
use crate::nbc::NaiveBayes;

/// How to choose NBC features for each attribute.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FeatureStrategy {
    /// Features = determining set of the best AFD (if none, all attributes).
    BestAfd,
    /// Best AFD if its confidence ≥ `min_conf`, otherwise all attributes.
    HybridOneAfd {
        /// Minimum AFD confidence to trust the AFD's determining set.
        min_conf: f64,
    },
    /// Confidence-weighted ensemble over all mined AFDs for the attribute.
    Ensemble,
    /// All other attributes as features (no AFD feature selection).
    AllAttributes,
}

impl Default for FeatureStrategy {
    fn default() -> Self {
        // The paper's adopted strategy with its tuned threshold (§5.3).
        FeatureStrategy::HybridOneAfd { min_conf: 0.5 }
    }
}

/// A per-attribute predictor assembled according to a strategy.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one value per attribute, never collected in bulk
pub(crate) enum AttrPredictor {
    Single {
        nbc: NaiveBayes,
        /// The AFD that selected the features (None = all attributes).
        afd: Option<Afd>,
    },
    Ensemble(Vec<(f64, NaiveBayes, Afd)>),
}

/// The feature selection a strategy makes for one target attribute —
/// computed without training, so the incremental fold can check whether an
/// attribute's feature set survived a knowledge update before deciding
/// between a count-table rebuild and a full retrain.
#[derive(Debug, Clone)]
pub(crate) enum FeatureChoice {
    /// One NBC over `features`; `afd` is the justifying AFD if any.
    Single {
        features: Vec<AttrId>,
        afd: Option<Afd>,
    },
    /// One NBC per AFD (never delta-maintained; always retrains in full).
    Ensemble(Vec<Afd>),
}

/// The feature selection `train_one` would make for `target` under
/// `strategy` and the given AFDs. Kept in lockstep with `train_one`: both
/// must agree or the fold path would rebuild the wrong tables.
pub(crate) fn feature_choice(
    afds: &AfdSet,
    strategy: FeatureStrategy,
    target: AttrId,
    all_attrs: &[AttrId],
) -> FeatureChoice {
    let others = || {
        all_attrs
            .iter()
            .copied()
            .filter(|a| *a != target)
            .collect::<Vec<_>>()
    };
    match strategy {
        FeatureStrategy::AllAttributes => FeatureChoice::Single {
            features: others(),
            afd: None,
        },
        FeatureStrategy::BestAfd => match afds.best(target) {
            Some(afd) => FeatureChoice::Single {
                features: afd.lhs.clone(),
                afd: Some(afd.clone()),
            },
            None => FeatureChoice::Single {
                features: others(),
                afd: None,
            },
        },
        FeatureStrategy::HybridOneAfd { min_conf } => match afds.best(target) {
            Some(afd) if afd.confidence >= min_conf => FeatureChoice::Single {
                features: afd.lhs.clone(),
                afd: Some(afd.clone()),
            },
            _ => FeatureChoice::Single {
                features: others(),
                afd: None,
            },
        },
        FeatureStrategy::Ensemble => {
            let members: Vec<Afd> = afds.for_attr(target).to_vec();
            if members.is_empty() {
                FeatureChoice::Single {
                    features: others(),
                    afd: None,
                }
            } else {
                FeatureChoice::Ensemble(members)
            }
        }
    }
}

/// Value-distribution predictors for every attribute of a source, built
/// from its sample and mined AFDs.
#[derive(Debug, Clone)]
pub struct ValuePredictor {
    per_attr: HashMap<AttrId, AttrPredictor>,
    strategy: FeatureStrategy,
}

/// Trains the predictor for one target attribute — independent work the
/// parallel trainer fans out per attribute.
fn train_one(
    sample: &Relation,
    afds: &AfdSet,
    strategy: FeatureStrategy,
    m: f64,
    target: AttrId,
    all_attrs: &[AttrId],
) -> AttrPredictor {
    let others = || {
        all_attrs
            .iter()
            .copied()
            .filter(|a| *a != target)
            .collect::<Vec<_>>()
    };
    match strategy {
        FeatureStrategy::AllAttributes => AttrPredictor::Single {
            nbc: NaiveBayes::train(sample, target, others(), m),
            afd: None,
        },
        FeatureStrategy::BestAfd => match afds.best(target) {
            Some(afd) => AttrPredictor::Single {
                nbc: NaiveBayes::train(sample, target, afd.lhs.clone(), m),
                afd: Some(afd.clone()),
            },
            None => AttrPredictor::Single {
                nbc: NaiveBayes::train(sample, target, others(), m),
                afd: None,
            },
        },
        FeatureStrategy::HybridOneAfd { min_conf } => match afds.best(target) {
            Some(afd) if afd.confidence >= min_conf => AttrPredictor::Single {
                nbc: NaiveBayes::train(sample, target, afd.lhs.clone(), m),
                afd: Some(afd.clone()),
            },
            _ => AttrPredictor::Single {
                nbc: NaiveBayes::train(sample, target, others(), m),
                afd: None,
            },
        },
        FeatureStrategy::Ensemble => {
            let members: Vec<(f64, NaiveBayes, Afd)> = afds
                .for_attr(target)
                .iter()
                .map(|afd| {
                    (
                        afd.confidence,
                        NaiveBayes::train(sample, target, afd.lhs.clone(), m),
                        afd.clone(),
                    )
                })
                .collect();
            if members.is_empty() {
                AttrPredictor::Single {
                    nbc: NaiveBayes::train(sample, target, others(), m),
                    afd: None,
                }
            } else {
                AttrPredictor::Ensemble(members)
            }
        }
    }
}

impl ValuePredictor {
    /// Trains predictors for all attributes of the sample's schema. Each
    /// attribute's classifier is independent, so training fans out over the
    /// [`crate::par`] worker pool; results are keyed by attribute, making
    /// the output identical at any thread count.
    pub fn train(sample: &Relation, afds: &AfdSet, strategy: FeatureStrategy, m: f64) -> Self {
        let all_attrs: Vec<AttrId> = sample.schema().attr_ids().collect();
        let trained = crate::par::parallel_map(&all_attrs, |target| {
            train_one(sample, afds, strategy, m, *target, &all_attrs)
        });
        let per_attr: HashMap<AttrId, AttrPredictor> = all_attrs.into_iter().zip(trained).collect();
        ValuePredictor { per_attr, strategy }
    }

    /// Assembles a predictor from per-attribute parts the incremental fold
    /// built (mixing count-rebuilt and freshly retrained classifiers).
    pub(crate) fn from_parts(
        per_attr: HashMap<AttrId, AttrPredictor>,
        strategy: FeatureStrategy,
    ) -> Self {
        ValuePredictor { per_attr, strategy }
    }

    /// The `(target, features)` pairs of every Single predictor, sorted by
    /// target — the classifiers whose counts the fold state maintains
    /// (ensembles always retrain in full).
    pub(crate) fn single_features(&self) -> Vec<(AttrId, Vec<AttrId>)> {
        let mut specs: Vec<(AttrId, Vec<AttrId>)> = self
            .per_attr
            .iter()
            .filter_map(|(attr, pred)| match pred {
                AttrPredictor::Single { nbc, .. } => Some((*attr, nbc.features().to_vec())),
                AttrPredictor::Ensemble(_) => None,
            })
            .collect();
        specs.sort_by_key(|(attr, _)| *attr);
        specs
    }

    /// The strategy the predictor was built with.
    pub fn strategy(&self) -> FeatureStrategy {
        self.strategy
    }

    /// The feature attributes used for `attr` (Single predictors).
    pub fn features(&self, attr: AttrId) -> Option<&[AttrId]> {
        match self.per_attr.get(&attr)? {
            AttrPredictor::Single { nbc, .. } => Some(nbc.features()),
            AttrPredictor::Ensemble(_) => None,
        }
    }

    /// The AFD justifying the predictor for `attr`, if feature selection
    /// used one. This is what QPIAD shows as the *explanation* of a
    /// possible answer (§6.1).
    pub fn explanation(&self, attr: AttrId) -> Option<&Afd> {
        match self.per_attr.get(&attr)? {
            AttrPredictor::Single { afd, .. } => afd.as_ref(),
            AttrPredictor::Ensemble(members) => members.first().map(|(_, _, a)| a),
        }
    }

    /// Posterior distribution over `attr`'s values given the tuple's other
    /// (non-null) values.
    pub fn distribution(&self, attr: AttrId, tuple: &Tuple) -> Vec<(Value, f64)> {
        match self.per_attr.get(&attr) {
            None => Vec::new(),
            Some(AttrPredictor::Single { nbc, .. }) => nbc.distribution(tuple),
            Some(AttrPredictor::Ensemble(members)) => {
                let mut acc: HashMap<Value, f64> = HashMap::new();
                let total_w: f64 = members.iter().map(|(w, _, _)| w).sum();
                for (w, nbc, _) in members {
                    for (v, p) in nbc.distribution(tuple) {
                        *acc.entry(v).or_default() += w / total_w * p;
                    }
                }
                let mut out: Vec<(Value, f64)> = acc.into_iter().collect();
                out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                out
            }
        }
    }

    /// Most likely value for the missing `attr` of a tuple.
    pub fn predict(&self, attr: AttrId, tuple: &Tuple) -> Option<(Value, f64)> {
        self.distribution(attr, tuple)
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Probability that the missing value of `attr` satisfies the predicate
    /// operator.
    pub fn prob_matching(&self, attr: AttrId, tuple: &Tuple, op: &PredOp) -> f64 {
        match self.per_attr.get(&attr) {
            None => 0.0,
            // Same classes summed in the same order as the distribution
            // path, minus its per-class `Value` clones.
            Some(AttrPredictor::Single { nbc, .. }) => nbc.prob_matching(tuple, op),
            Some(AttrPredictor::Ensemble(_)) => self
                .distribution(attr, tuple)
                .into_iter()
                .filter(|(v, _)| op.matches(v))
                .map(|(_, p)| p)
                .sum(),
        }
    }

    /// Like [`Self::prob_matching`], reading evidence from a full-arity row
    /// of values (indexed by attribute) without materializing a tuple.
    pub fn prob_matching_row(&self, attr: AttrId, row: &[Value], op: &PredOp) -> f64 {
        match self.per_attr.get(&attr) {
            None => 0.0,
            Some(AttrPredictor::Single { nbc, .. }) => nbc.prob_matching_row(row, op),
            Some(AttrPredictor::Ensemble(_)) => {
                let tuple = Tuple::new(qpiad_db::TupleId(u32::MAX), row.to_vec());
                self.prob_matching(attr, &tuple, op)
            }
        }
    }

    /// A reusable scorer for `attr`, seeded with `row` as evidence. Call
    /// [`RowMatcher::set`] to overwrite one evidence slot, then
    /// [`RowMatcher::prob_matching`] — probabilities are bit-identical to
    /// [`Self::prob_matching_row`] on the equivalent row, but a `set` only
    /// re-resolves the one feature it touched instead of every feature.
    pub fn row_matcher(&self, attr: AttrId, row: &[Value]) -> RowMatcher<'_> {
        match self.per_attr.get(&attr) {
            None => RowMatcher::None,
            Some(AttrPredictor::Single { nbc, .. }) => RowMatcher::Single(nbc.row_scorer(row)),
            Some(AttrPredictor::Ensemble(_)) => RowMatcher::Ensemble {
                predictor: self,
                attr,
                row: row.to_vec(),
            },
        }
    }
}

/// See [`ValuePredictor::row_matcher`].
pub enum RowMatcher<'a> {
    /// No predictor trained for the attribute.
    None,
    /// Single-NBC fast path with cached log-likelihood tables.
    Single(crate::nbc::RowScorer<'a>),
    /// Ensemble predictors keep the materialized row and re-evaluate fully.
    Ensemble {
        predictor: &'a ValuePredictor,
        attr: AttrId,
        row: Vec<Value>,
    },
}

impl RowMatcher<'_> {
    /// Overwrites the evidence value of one attribute.
    pub fn set(&mut self, attr: AttrId, v: &Value) {
        match self {
            RowMatcher::None => {}
            RowMatcher::Single(scorer) => scorer.set(attr, v),
            RowMatcher::Ensemble { row, .. } => row[attr.index()] = v.clone(),
        }
    }

    /// Probability that the missing target value satisfies `op` under the
    /// current evidence.
    pub fn prob_matching(&mut self, op: &PredOp) -> f64 {
        match self {
            RowMatcher::None => 0.0,
            RowMatcher::Single(scorer) => scorer.prob_matching(op),
            RowMatcher::Ensemble {
                predictor,
                attr,
                row,
            } => predictor.prob_matching_row(*attr, row, op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrType, Schema, TupleId};

    /// model determines body strongly; color is noise.
    fn sample() -> Relation {
        let schema = Schema::of(
            "cars",
            &[
                ("model", AttrType::Categorical),
                ("color", AttrType::Categorical),
                ("body", AttrType::Categorical),
            ],
        );
        let rows = [
            ("Z4", "Red", "Convt"),
            ("Z4", "Blue", "Convt"),
            ("Z4", "Red", "Convt"),
            ("Z4", "Black", "Coupe"),
            ("A4", "Red", "Sedan"),
            ("A4", "Blue", "Sedan"),
            ("A4", "Black", "Sedan"),
            ("A4", "Red", "Convt"),
        ];
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(i, (m, c, b))| {
                Tuple::new(
                    TupleId(i as u32),
                    vec![Value::str(m), Value::str(c), Value::str(b)],
                )
            })
            .collect();
        Relation::new(schema, tuples)
    }

    fn afds(conf: f64) -> AfdSet {
        AfdSet::new(vec![Afd::new(vec![AttrId(0)], AttrId(2), conf)])
    }

    fn probe(model: &str, color: &str) -> Tuple {
        Tuple::new(
            TupleId(50),
            vec![Value::str(model), Value::str(color), Value::Null],
        )
    }

    #[test]
    fn best_afd_uses_determining_set() {
        let r = sample();
        let p = ValuePredictor::train(&r, &afds(0.9), FeatureStrategy::BestAfd, 1.0);
        assert_eq!(p.features(AttrId(2)).unwrap(), &[AttrId(0)]);
        assert!(p.explanation(AttrId(2)).is_some());
        let best = p.predict(AttrId(2), &probe("Z4", "Red")).unwrap();
        assert_eq!(best.0, Value::str("Convt"));
    }

    #[test]
    fn hybrid_falls_back_on_low_confidence() {
        let r = sample();
        let strategy = FeatureStrategy::HybridOneAfd { min_conf: 0.5 };
        // High-confidence AFD: trusted.
        let p = ValuePredictor::train(&r, &afds(0.9), strategy, 1.0);
        assert_eq!(p.features(AttrId(2)).unwrap(), &[AttrId(0)]);
        // Low-confidence AFD: falls back to all attributes, no explanation.
        let p = ValuePredictor::train(&r, &afds(0.3), strategy, 1.0);
        assert_eq!(p.features(AttrId(2)).unwrap(), &[AttrId(0), AttrId(1)]);
        assert!(p.explanation(AttrId(2)).is_none());
    }

    #[test]
    fn all_attributes_ignores_afds() {
        let r = sample();
        let p = ValuePredictor::train(&r, &afds(0.99), FeatureStrategy::AllAttributes, 1.0);
        assert_eq!(p.features(AttrId(2)).unwrap(), &[AttrId(0), AttrId(1)]);
        assert!(p.explanation(AttrId(2)).is_none());
    }

    #[test]
    fn ensemble_averages_members() {
        let r = sample();
        let set = AfdSet::new(vec![
            Afd::new(vec![AttrId(0)], AttrId(2), 0.9),
            Afd::new(vec![AttrId(1)], AttrId(2), 0.3),
        ]);
        let p = ValuePredictor::train(&r, &set, FeatureStrategy::Ensemble, 1.0);
        let d = p.distribution(AttrId(2), &probe("Z4", "Red"));
        let sum: f64 = d.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // The strong model-based member dominates: Convt on top.
        assert_eq!(d[0].0, Value::str("Convt"));
        // Ensemble's explanation is its best member's AFD.
        assert_eq!(p.explanation(AttrId(2)).unwrap().lhs, vec![AttrId(0)]);
    }

    #[test]
    fn ensemble_without_afds_falls_back() {
        let r = sample();
        let p = ValuePredictor::train(&r, &AfdSet::default(), FeatureStrategy::Ensemble, 1.0);
        assert!(p.features(AttrId(2)).is_some());
        assert!(p.predict(AttrId(2), &probe("Z4", "Red")).is_some());
    }

    #[test]
    fn prob_matching_uses_distribution() {
        let r = sample();
        let p = ValuePredictor::train(&r, &afds(0.9), FeatureStrategy::default(), 1.0);
        let pm = p.prob_matching(
            AttrId(2),
            &probe("Z4", "Red"),
            &PredOp::Eq(Value::str("Convt")),
        );
        assert!(pm > 0.5);
        let pm_all: f64 = ["Convt", "Coupe", "Sedan"]
            .iter()
            .map(|b| p.prob_matching(AttrId(2), &probe("Z4", "Red"), &PredOp::Eq(Value::str(*b))))
            .sum();
        assert!((pm_all - 1.0).abs() < 1e-9);
    }
}
