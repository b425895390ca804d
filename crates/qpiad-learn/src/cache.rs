//! Per-query memoization of classifier posteriors.
//!
//! During one mediated answer the same posterior is requested once per
//! retrieved tuple, but the classifier's output depends only on the *feature
//! values* the tuple carries — the determining-set combination under the
//! paper's Hybrid One-AFD strategy (§5.3). Every tuple a rewritten query
//! retrieves shares that combination by construction, so a query that
//! returns thousands of tuples needs exactly one classification per
//! distinct combination, not one per tuple.
//!
//! [`PredictionCache`] keys posteriors by `(target attribute, feature value
//! combination)`. A cache is created per user query and dropped with it:
//! memoization never outlives the statistics snapshot it was computed from,
//! and two concurrent queries cannot observe each other's entries. The
//! cache is thread-safe so the mediator's concurrent rewritten-query
//! execution can share one instance.

use qpiad_db::FastHashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use qpiad_db::{AttrId, PredOp, Tuple, Value};

use crate::strategy::ValuePredictor;

/// Memo key: the target attribute plus the feature values the posterior
/// depends on.
type CacheKey = (AttrId, Vec<Value>);

/// A posterior distribution, shared between the memo and its callers.
type Posterior = Arc<[(Value, f64)]>;

/// A per-query memo of posterior distributions.
#[derive(Debug, Default)]
pub struct PredictionCache {
    entries: Mutex<FastHashMap<CacheKey, Posterior>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl PredictionCache {
    /// An empty cache.
    pub fn new() -> Self {
        PredictionCache::default()
    }

    /// The memo key for predicting `attr` from `tuple`: the values of the
    /// predictor's feature set, which are the only inputs the posterior
    /// depends on. Ensemble predictors have no single feature set, so the
    /// full tuple stands in as the (sound, merely wider) key.
    fn key(predictor: &ValuePredictor, attr: AttrId, tuple: &Tuple) -> CacheKey {
        let values = match predictor.features(attr) {
            Some(features) => features.iter().map(|f| tuple.value(*f).clone()).collect(),
            None => tuple.values().to_vec(),
        };
        (attr, values)
    }

    /// The posterior distribution over `attr`'s values, memoized. Identical
    /// to [`ValuePredictor::distribution`] in content and order.
    pub fn distribution(
        &self,
        predictor: &ValuePredictor,
        attr: AttrId,
        tuple: &Tuple,
    ) -> Arc<[(Value, f64)]> {
        let key = Self::key(predictor, attr, tuple);
        if let Some(d) = self.entries.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(d);
        }
        // Classify outside the lock; a racing duplicate computation is
        // harmless (both produce the same distribution) and first-in wins.
        let fresh: Arc<[(Value, f64)]> = predictor.distribution(attr, tuple).into();
        self.misses.fetch_add(1, Ordering::Relaxed);
        Arc::clone(self.entries.lock().entry(key).or_insert(fresh))
    }

    /// Memoized [`ValuePredictor::prob_matching`]: probability that the
    /// missing `attr` value satisfies `op`.
    pub fn prob_matching(
        &self,
        predictor: &ValuePredictor,
        attr: AttrId,
        tuple: &Tuple,
        op: &PredOp,
    ) -> f64 {
        self.distribution(predictor, attr, tuple)
            .iter()
            .filter(|(v, _)| op.matches(v))
            .map(|(_, p)| p)
            .sum()
    }

    /// Number of memoized distributions.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// `true` iff nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to classify.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::afd::{Afd, AfdSet};
    use crate::strategy::FeatureStrategy;
    use qpiad_db::{AttrType, Relation, Schema, TupleId};

    /// model → body strongly; color is noise (same fixture as strategy.rs).
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

    fn predictor() -> ValuePredictor {
        let afds = AfdSet::new(vec![Afd::new(vec![AttrId(0)], AttrId(2), 0.9)]);
        ValuePredictor::train(&sample(), &afds, FeatureStrategy::default(), 1.0)
    }

    fn probe(id: u32, model: &str, color: &str) -> Tuple {
        Tuple::new(
            TupleId(id),
            vec![Value::str(model), Value::str(color), Value::Null],
        )
    }

    #[test]
    fn repeated_combinations_hit_the_cache() {
        let p = predictor();
        let cache = PredictionCache::new();
        // Different tuples, same determining-set value (model = Z4): the
        // second lookup is a hit. Color is not a feature of the Hybrid
        // One-AFD predictor here, so it must not affect the key.
        let d1 = cache.distribution(&p, AttrId(2), &probe(1, "Z4", "Red"));
        let d2 = cache.distribution(&p, AttrId(2), &probe(2, "Z4", "Blue"));
        assert_eq!(d1, d2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        // A new combination misses.
        cache.distribution(&p, AttrId(2), &probe(3, "A4", "Red"));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_probabilities_match_the_uncached_path() {
        let p = predictor();
        let cache = PredictionCache::new();
        for model in ["Z4", "A4", "Boxster"] {
            let t = probe(9, model, "Red");
            let cached = cache.distribution(&p, AttrId(2), &t);
            let direct = p.distribution(AttrId(2), &t);
            assert_eq!(cached.as_ref(), direct.as_slice(), "model {model}");
            // Including when served from the memo.
            let again = cache.distribution(&p, AttrId(2), &t);
            assert_eq!(again.as_ref(), direct.as_slice());
            let op = PredOp::Eq(Value::str("Convt"));
            let pm = cache.prob_matching(&p, AttrId(2), &t, &op);
            assert!((pm - p.prob_matching(AttrId(2), &t, &op)).abs() < 1e-15);
        }
    }

    #[test]
    fn caches_are_query_scoped_and_independent() {
        let p = predictor();
        // One cache per user query: a fresh cache starts cold even after
        // another cache has served the same combination.
        let first = PredictionCache::new();
        first.distribution(&p, AttrId(2), &probe(1, "Z4", "Red"));
        assert_eq!(first.misses(), 1);

        let second = PredictionCache::new();
        assert!(second.is_empty());
        second.distribution(&p, AttrId(2), &probe(1, "Z4", "Red"));
        assert_eq!(second.hits(), 0);
        assert_eq!(second.misses(), 1);
        // And entries for one combination never answer another.
        let z4 = second.distribution(&p, AttrId(2), &probe(2, "Z4", "Red"));
        let a4 = second.distribution(&p, AttrId(2), &probe(3, "A4", "Red"));
        assert_ne!(z4.as_ref(), a4.as_ref());
    }

    #[test]
    fn ensemble_predictors_key_on_the_full_tuple() {
        let afds = AfdSet::new(vec![
            Afd::new(vec![AttrId(0)], AttrId(2), 0.9),
            Afd::new(vec![AttrId(1)], AttrId(2), 0.4),
        ]);
        let p = ValuePredictor::train(&sample(), &afds, FeatureStrategy::Ensemble, 1.0);
        assert!(
            p.features(AttrId(2)).is_none(),
            "ensemble has no single feature set"
        );
        let cache = PredictionCache::new();
        // Color differs, so the conservative full-tuple key must not alias.
        let red = cache.distribution(&p, AttrId(2), &probe(1, "Z4", "Red"));
        let blue = cache.distribution(&p, AttrId(2), &probe(2, "Z4", "Blue"));
        assert_eq!(cache.misses(), 2);
        assert_eq!(
            red.as_ref(),
            p.distribution(AttrId(2), &probe(1, "Z4", "Red")).as_slice()
        );
        assert_eq!(
            blue.as_ref(),
            p.distribution(AttrId(2), &probe(2, "Z4", "Blue"))
                .as_slice()
        );
    }
}
