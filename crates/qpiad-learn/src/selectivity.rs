//! Query selectivity estimation (§5.4).
//!
//! The F-measure ordering of rewritten queries needs an estimate of how many
//! *relevant possible answers* each rewritten query would bring. The paper
//! estimates the selectivity of a rewritten query `Q` as
//!
//! ```text
//! SmplSel(Q) · SmplRatio(R) · PerInc(R)
//! ```
//!
//! where `SmplSel(Q)` is `Q`'s result cardinality on the sample,
//! `SmplRatio(R)` scales the sample up to the database, and `PerInc(R)` is
//! the fraction of incomplete tuples — only incomplete tuples can become
//! possible answers after the post-filter.

use std::sync::Arc;

use qpiad_db::{Relation, SelectQuery, SelectionEngine};

/// Selectivity estimator for one source.
///
/// Rewrite generation probes the sample with one cardinality query per
/// candidate rewrite — the single hottest loop of cold planning — so the
/// estimator answers through a shared posting-list [`SelectionEngine`]
/// instead of scanning the sample per probe.
#[derive(Debug, Clone)]
pub struct SelectivityEstimator {
    sample: Relation,
    engine: Arc<SelectionEngine>,
    smpl_ratio: f64,
    per_inc: f64,
}

impl SelectivityEstimator {
    /// Builds an estimator from the sample and the two §5.4 statistics.
    pub fn new(sample: Relation, smpl_ratio: f64, per_inc: f64) -> Self {
        assert!(smpl_ratio > 0.0, "sample ratio must be positive");
        assert!((0.0..=1.0).contains(&per_inc), "PerInc must be a fraction");
        SelectivityEstimator {
            sample,
            engine: Arc::new(SelectionEngine::new()),
            smpl_ratio,
            per_inc,
        }
    }

    /// Builds an estimator when the database size is known exactly (the
    /// PerInc fraction is measured on the sample itself).
    pub fn from_db_size(sample: Relation, db_size: usize) -> Self {
        let ratio = if sample.is_empty() {
            1.0
        } else {
            db_size as f64 / sample.len() as f64
        };
        let per_inc = sample.incompleteness().incomplete_fraction;
        SelectivityEstimator::new(sample, ratio, per_inc)
    }

    /// The sample the estimator is based on.
    pub fn sample(&self) -> &Relation {
        &self.sample
    }

    /// `SmplRatio(R)`.
    pub fn smpl_ratio(&self) -> f64 {
        self.smpl_ratio
    }

    /// `PerInc(R)`.
    pub fn per_inc(&self) -> f64 {
        self.per_inc
    }

    /// `SmplSel(Q)` — the query's cardinality on the sample, answered
    /// through the shared posting-list index (identical to
    /// [`Relation::count`] by the engine's scan-equivalence contract).
    pub fn sample_cardinality(&self, q: &SelectQuery) -> usize {
        self.engine.count(&self.sample, q)
    }

    /// The sample tuples certainly matching `q`, in sample order, served
    /// through the same posting-list index as [`Self::sample_cardinality`].
    pub fn sample_matches(&self, q: &SelectQuery) -> Vec<qpiad_db::Tuple> {
        self.engine.select(&self.sample, q)
    }

    /// Calls `hit` with the row of each sample tuple certainly matching
    /// `q`, in sample order: the rows [`Self::sample_matches`]
    /// materializes, as indexes into the sample's columnar image.
    pub fn for_each_sample_match(&self, q: &SelectQuery, hit: impl FnMut(u32)) {
        self.engine.for_each_row(&self.sample, q, hit);
    }

    /// Estimated number of tuples `Q` returns from the full database.
    pub fn estimate_result_size(&self, q: &SelectQuery) -> f64 {
        self.sample_cardinality(q) as f64 * self.smpl_ratio
    }

    /// The §5.4 estimate: expected number of *incomplete* tuples among
    /// `Q`'s results — the pool of potential possible answers.
    pub fn estimate(&self, q: &SelectQuery) -> f64 {
        self.estimate_result_size(q) * self.per_inc
    }

    /// Add-half-smoothed variant of [`Self::estimate`], used by the query
    /// rewriter: very selective rewritten queries often have *zero* matches
    /// in the small sample, which would zero their expected throughput and
    /// make the F-measure blind to them; the half-count floor keeps their
    /// relative ordering meaningful.
    pub fn estimate_smoothed(&self, q: &SelectQuery) -> f64 {
        (self.sample_cardinality(q) as f64 + 0.5) * self.smpl_ratio * self.per_inc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrId, AttrType, Predicate, Schema, Tuple, TupleId, Value};

    fn sample() -> Relation {
        let schema = Schema::of(
            "t",
            &[
                ("model", AttrType::Categorical),
                ("body", AttrType::Categorical),
            ],
        );
        let rows: Vec<(&str, Option<&str>)> = vec![
            ("Z4", Some("Convt")),
            ("Z4", None),
            ("A4", Some("Sedan")),
            ("A4", Some("Sedan")),
            ("A4", Some("Sedan")),
        ];
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, (m, b))| {
                Tuple::new(
                    TupleId(i as u32),
                    vec![Value::str(m), b.map(Value::str).unwrap_or(Value::Null)],
                )
            })
            .collect();
        Relation::new(schema, tuples)
    }

    #[test]
    fn formula_matches_paper() {
        // 5-tuple sample of a 50-tuple DB, 1/5 incomplete.
        let est = SelectivityEstimator::from_db_size(sample(), 50);
        assert!((est.smpl_ratio() - 10.0).abs() < 1e-12);
        assert!((est.per_inc() - 0.2).abs() < 1e-12);
        let q = SelectQuery::new(vec![Predicate::eq(AttrId(0), "A4")]);
        assert_eq!(est.sample_cardinality(&q), 3);
        assert!((est.estimate_result_size(&q) - 30.0).abs() < 1e-12);
        assert!((est.estimate(&q) - 6.0).abs() < 1e-12);
        // Smoothed estimate adds half a sample row: (3 + 0.5)·10·0.2 = 7.
        assert!((est.estimate_smoothed(&q) - 7.0).abs() < 1e-12);
        // An unseen query keeps a nonzero smoothed throughput.
        let unseen = SelectQuery::new(vec![Predicate::eq(AttrId(0), "Edsel")]);
        assert_eq!(est.estimate(&unseen), 0.0);
        assert!(est.estimate_smoothed(&unseen) > 0.0);
    }

    #[test]
    fn empty_sample_is_safe() {
        let schema = Schema::of("t", &[("x", AttrType::Integer)]);
        let est = SelectivityEstimator::from_db_size(Relation::empty(schema), 100);
        assert_eq!(est.estimate(&SelectQuery::all()), 0.0);
    }

    #[test]
    #[should_panic(expected = "PerInc")]
    fn rejects_invalid_per_inc() {
        SelectivityEstimator::new(sample(), 1.0, 1.5);
    }
}
