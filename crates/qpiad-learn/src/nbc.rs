//! Naïve Bayes classification with m-estimate smoothing (§5.2).
//!
//! Given a tuple with a null on attribute `Am` and the values `x` of a
//! feature set (typically `dtrSet(Am)` from the best AFD), the classifier
//! estimates `P(Am = v | x) ∝ P(Am = v) · Π_i P(x_i | Am = v)` with
//! per-feature m-estimates `P(x|c) = (n_xc + m·p) / (n_c + m)`, `p = 1/|V|`
//! (Mitchell \[23\]). Null feature values are skipped at prediction time —
//! they carry no evidence.

use qpiad_db::FastHashMap;

use qpiad_db::{AttrId, PredOp, Relation, Tuple, Value};

/// A trained Naïve Bayes classifier for one target attribute.
///
/// ```
/// use qpiad_db::{AttrType, Relation, Schema, Tuple, TupleId, Value};
/// use qpiad_learn::nbc::NaiveBayes;
///
/// let schema = Schema::of("cars", &[
///     ("model", AttrType::Categorical),
///     ("body", AttrType::Categorical),
/// ]);
/// let model = schema.expect_attr("model");
/// let body = schema.expect_attr("body");
/// let rows = [("Z4", "Convt"), ("Z4", "Convt"), ("A4", "Sedan")];
/// let tuples = rows.iter().enumerate().map(|(i, (m, b))| {
///     Tuple::new(TupleId(i as u32), vec![Value::str(*m), Value::str(*b)])
/// }).collect();
/// let sample = Relation::new(schema, tuples);
///
/// let nbc = NaiveBayes::train(&sample, body, vec![model], 1.0);
/// let probe = Tuple::new(TupleId(9), vec![Value::str("Z4"), Value::Null]);
/// let (value, p) = nbc.predict(&probe).unwrap();
/// assert_eq!(value, Value::str("Convt"));
/// assert!(p > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    target: AttrId,
    features: Vec<AttrId>,
    /// Class values, in a stable order.
    classes: Vec<Value>,
    class_index: FastHashMap<Value, usize>,
    /// Total non-null training examples.
    total: f64,
    /// `ln` of the smoothed class prior, precomputed at training time so a
    /// posterior evaluation is pure table adds plus one log-sum-exp.
    log_prior: Vec<f64>,
    /// Per feature: value → per-class `ln P(x|c)` (m-estimate smoothed).
    log_cond: Vec<FastHashMap<Value, Vec<f64>>>,
    /// Per feature: per-class `ln P(x|c)` for values never seen in training.
    log_unseen: Vec<Vec<f64>>,
}

impl NaiveBayes {
    /// Trains a classifier for `target` using `features`, from all sample
    /// tuples whose target value is non-null.
    ///
    /// Counting runs over the relation's interned columns: class and
    /// feature occurrences accumulate into dense `u32`-indexed tables (no
    /// per-row `Value` hashing), which are converted back to the value-keyed
    /// tables prediction uses. All counts are exact integer sums of `1.0`,
    /// so the trained model is bit-identical to row-at-a-time counting.
    pub fn train(sample: &Relation, target: AttrId, features: Vec<AttrId>, m: f64) -> Self {
        assert!(m >= 0.0, "m-estimate weight must be non-negative");
        assert!(!features.contains(&target), "target cannot be a feature");

        let columnar = sample.columnar();
        let dict = columnar.dict();
        let n_ids = dict.len();
        let target_col = columnar.column(target);
        let feature_cols: Vec<&[qpiad_db::ValueId]> =
            features.iter().map(|f| columnar.column(*f)).collect();

        // Classes in first-appearance order of non-null target values.
        const UNSEEN: u32 = u32::MAX;
        let mut vid_to_class = vec![UNSEEN; n_ids];
        let mut classes: Vec<Value> = Vec::new();
        for &vid in target_col {
            if !vid.is_null() && vid_to_class[vid.index()] == UNSEEN {
                vid_to_class[vid.index()] = classes.len() as u32;
                classes.push(dict.resolve(vid).clone());
            }
        }
        let k = classes.len();
        let class_index: FastHashMap<Value, usize> = classes
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i))
            .collect();

        let mut class_counts = vec![0f64; k];
        let mut total = 0f64;
        // Per feature: per-class counts keyed by value id, allocated on
        // first occurrence (same footprint as the value-keyed table, minus
        // the hashing).
        let mut by_vid: Vec<Vec<Option<Vec<f64>>>> =
            features.iter().map(|_| vec![None; n_ids]).collect();
        for (row, &tvid) in target_col.iter().enumerate() {
            if tvid.is_null() {
                continue; // null target: not a training example
            }
            let c = vid_to_class[tvid.index()] as usize;
            total += 1.0;
            class_counts[c] += 1.0;
            for (fi, col) in feature_cols.iter().enumerate() {
                let fvid = col[row];
                if fvid.is_null() {
                    continue;
                }
                by_vid[fi][fvid.index()].get_or_insert_with(|| vec![0f64; k])[c] += 1.0;
            }
        }

        // Re-key onto values: a (feature value, class) row exists iff the
        // value co-occurred with a non-null target at least once — exactly
        // the entries the row-at-a-time counter would have created.
        let cond: Vec<FastHashMap<Value, Vec<f64>>> = by_vid
            .into_iter()
            .map(|counts| {
                counts
                    .into_iter()
                    .enumerate()
                    .filter_map(|(vid, row)| {
                        row.map(|r| (dict.resolve(qpiad_db::ValueId(vid as u32)).clone(), r))
                    })
                    .collect()
            })
            .collect();
        let domain_size: Vec<usize> = cond.iter().map(|map| map.len().max(1)).collect();

        // Precompute the log-space tables the posterior walks. The smoothed
        // probabilities below are the exact expressions `posterior_of` used
        // to evaluate per call, so the posteriors are bit-identical — the
        // `ln` calls just move from prediction time to training time.
        let log_prior: Vec<f64> = class_counts
            .iter()
            .map(|n_c| ((n_c + 1.0) / (total + k as f64)).ln())
            .collect();
        let smoothed = |n_xc: f64, c: usize, p_uniform: f64| -> f64 {
            let p = (n_xc + m * p_uniform) / (class_counts[c] + m);
            // With m = 0 and unseen pairs the likelihood is 0; clamp to
            // keep log-space finite and let normalization handle it.
            p.max(1e-300).ln()
        };
        let log_cond: Vec<FastHashMap<Value, Vec<f64>>> = cond
            .iter()
            .enumerate()
            .map(|(fi, map)| {
                let p_uniform = 1.0 / domain_size[fi] as f64;
                map.iter()
                    .map(|(v, counts)| {
                        let logs = (0..k).map(|c| smoothed(counts[c], c, p_uniform)).collect();
                        (v.clone(), logs)
                    })
                    .collect()
            })
            .collect();
        let log_unseen: Vec<Vec<f64>> = domain_size
            .iter()
            .map(|ds| {
                let p_uniform = 1.0 / *ds as f64;
                (0..k).map(|c| smoothed(0.0, c, p_uniform)).collect()
            })
            .collect();

        NaiveBayes {
            target,
            features,
            classes,
            class_index,
            total,
            log_prior,
            log_cond,
            log_unseen,
        }
    }

    /// Builds a classifier from externally maintained counts — the
    /// incremental-fold path (`qpiad_learn::stream`) keeps the integer
    /// co-occurrence counts up to date across sample folds and rebuilds
    /// the log tables here instead of re-scanning the sample.
    ///
    /// `classes` must be in first-appearance order of the target column
    /// (the order [`Self::train`] assigns), `class_counts` aligned with
    /// it, and `cond` must contain an entry iff the (feature value, class)
    /// pair co-occurred at least once. Under those invariants the result
    /// is bit-identical to [`Self::train`] over the same sample: all
    /// counts are exact integer `f64`s and the log tables below are the
    /// same expressions evaluated in the same order.
    pub(crate) fn from_counts(
        target: AttrId,
        features: Vec<AttrId>,
        classes: Vec<Value>,
        class_counts: Vec<f64>,
        cond: Vec<Vec<(Value, Vec<f64>)>>,
        m: f64,
    ) -> Self {
        assert!(m >= 0.0, "m-estimate weight must be non-negative");
        assert!(!features.contains(&target), "target cannot be a feature");
        assert_eq!(classes.len(), class_counts.len());
        assert_eq!(features.len(), cond.len());

        let k = classes.len();
        let class_index: FastHashMap<Value, usize> = classes
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i))
            .collect();
        let total: f64 = class_counts.iter().sum();
        let domain_size: Vec<usize> = cond.iter().map(|rows| rows.len().max(1)).collect();

        let log_prior: Vec<f64> = class_counts
            .iter()
            .map(|n_c| ((n_c + 1.0) / (total + k as f64)).ln())
            .collect();
        let smoothed = |n_xc: f64, c: usize, p_uniform: f64| -> f64 {
            let p = (n_xc + m * p_uniform) / (class_counts[c] + m);
            p.max(1e-300).ln()
        };
        let log_cond: Vec<FastHashMap<Value, Vec<f64>>> = cond
            .into_iter()
            .enumerate()
            .map(|(fi, rows)| {
                let p_uniform = 1.0 / domain_size[fi] as f64;
                rows.into_iter()
                    .map(|(v, counts)| {
                        let logs = (0..k).map(|c| smoothed(counts[c], c, p_uniform)).collect();
                        (v, logs)
                    })
                    .collect()
            })
            .collect();
        let log_unseen: Vec<Vec<f64>> = domain_size
            .iter()
            .map(|ds| {
                let p_uniform = 1.0 / *ds as f64;
                (0..k).map(|c| smoothed(0.0, c, p_uniform)).collect()
            })
            .collect();

        NaiveBayes {
            target,
            features,
            classes,
            class_index,
            total,
            log_prior,
            log_cond,
            log_unseen,
        }
    }

    /// The target attribute.
    pub fn target(&self) -> AttrId {
        self.target
    }

    /// The feature attributes.
    pub fn features(&self) -> &[AttrId] {
        &self.features
    }

    /// The class values (the target's observed domain).
    pub fn classes(&self) -> &[Value] {
        &self.classes
    }

    /// Posterior distribution over the target's classes given a tuple;
    /// null features are skipped. The result sums to 1 (uniform when the
    /// classifier saw no training data).
    pub fn distribution(&self, tuple: &Tuple) -> Vec<(Value, f64)> {
        let feature_values: Vec<&Value> = self.features.iter().map(|f| tuple.value(*f)).collect();
        self.distribution_of(&feature_values)
    }

    /// Posterior distribution from explicit feature values (in the order of
    /// [`Self::features`]).
    pub fn distribution_of(&self, feature_values: &[&Value]) -> Vec<(Value, f64)> {
        self.classes
            .iter()
            .cloned()
            .zip(self.posterior_of(feature_values))
            .collect()
    }

    /// Class-indexed posterior (aligned with [`Self::classes`]) — the
    /// allocation-light core of every prediction: no per-class `Value`
    /// clones, which matters when the rewrite generator scores hundreds of
    /// determining-set combinations per plan.
    pub fn posterior_of(&self, feature_values: &[&Value]) -> Vec<f64> {
        assert_eq!(feature_values.len(), self.features.len());
        let k = self.classes.len();
        if k == 0 {
            return Vec::new();
        }
        if self.total == 0.0 {
            return vec![1.0 / k as f64; k];
        }

        let mut log_scores = self.log_prior.clone();
        for (fi, fv) in feature_values.iter().enumerate() {
            if fv.is_null() {
                continue;
            }
            let logs = self.log_cond[fi].get(*fv).unwrap_or(&self.log_unseen[fi]);
            for (score, lp) in log_scores.iter_mut().zip(logs) {
                *score += lp;
            }
        }
        // Normalize via log-sum-exp.
        let max = log_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for s in &mut log_scores {
            *s = (*s - max).exp();
        }
        let sum: f64 = log_scores.iter().sum();
        for e in &mut log_scores {
            *e /= sum;
        }
        log_scores
    }

    /// The most likely class for a tuple, with its probability.
    pub fn predict(&self, tuple: &Tuple) -> Option<(Value, f64)> {
        self.distribution(tuple)
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Probability that the (missing) target value satisfies the given
    /// predicate operator: `Σ_{v ⊨ op} P(Am = v | tuple)`.
    pub fn prob_matching(&self, tuple: &Tuple, op: &PredOp) -> f64 {
        let feature_values: Vec<&Value> = self.features.iter().map(|f| tuple.value(*f)).collect();
        self.posterior_of(&feature_values)
            .into_iter()
            .zip(self.classes.iter())
            .filter(|(_, v)| op.matches(v))
            .map(|(p, _)| p)
            .sum()
    }

    /// Like [`Self::prob_matching`], reading evidence from a full-arity row
    /// of values (indexed by attribute) without materializing a tuple —
    /// the rewrite generator scores hundreds of determining-set
    /// combinations per plan through this path.
    pub fn prob_matching_row(&self, row: &[Value], op: &PredOp) -> f64 {
        let feature_values: Vec<&Value> = self.features.iter().map(|f| &row[f.index()]).collect();
        self.posterior_of(&feature_values)
            .into_iter()
            .zip(self.classes.iter())
            .filter(|(_, v)| op.matches(v))
            .map(|(p, _)| p)
            .sum()
    }

    /// A reusable scorer over one evidence row for repeated
    /// [`Self::prob_matching_row`]-style evaluations that differ in only a
    /// few feature slots — the rewrite generator re-scores one evidence
    /// template per determining-set combination. Fixed features resolve
    /// their log-likelihood table once here; [`RowScorer::set`] re-resolves
    /// just the overwritten slot.
    pub fn row_scorer(&self, row: &[Value]) -> RowScorer<'_> {
        let tables = self
            .features
            .iter()
            .enumerate()
            .map(|(fi, f)| self.table_for(fi, &row[f.index()]))
            .collect();
        RowScorer {
            nbc: self,
            tables,
            scratch: Vec::with_capacity(self.classes.len()),
        }
    }

    /// The per-class log-likelihood row feature `fi` contributes for value
    /// `v`: `None` for null (no evidence), the unseen-value row when the
    /// value never co-occurred with a non-null target in training.
    fn table_for(&self, fi: usize, v: &Value) -> Option<&[f64]> {
        if v.is_null() {
            None
        } else {
            Some(
                self.log_cond[fi]
                    .get(v)
                    .unwrap_or(&self.log_unseen[fi])
                    .as_slice(),
            )
        }
    }

    /// `P(Am = value | tuple)` (0 for classes never observed).
    pub fn prob_of(&self, tuple: &Tuple, value: &Value) -> f64 {
        match self.class_index.get(value) {
            Some(&c) => {
                let feature_values: Vec<&Value> =
                    self.features.iter().map(|f| tuple.value(*f)).collect();
                self.posterior_of(&feature_values)
                    .get(c)
                    .copied()
                    .unwrap_or(0.0)
            }
            None => 0.0,
        }
    }
}

/// See [`NaiveBayes::row_scorer`]. Evaluation walks the same resolved
/// tables in the same feature order as [`NaiveBayes::posterior_of`], so a
/// scorer whose slots hold the values of a row produces bit-identical
/// probabilities to [`NaiveBayes::prob_matching_row`] on that row.
pub struct RowScorer<'a> {
    nbc: &'a NaiveBayes,
    /// Per feature: the resolved per-class log-likelihood row, `None` when
    /// the feature value is null (no evidence).
    tables: Vec<Option<&'a [f64]>>,
    /// Reused accumulator — no allocation per evaluation.
    scratch: Vec<f64>,
}

impl RowScorer<'_> {
    /// Overwrites the evidence slot of the feature carrying `attr` (no-op
    /// when `attr` is not a feature of this classifier).
    pub fn set(&mut self, attr: AttrId, v: &Value) {
        for fi in 0..self.nbc.features.len() {
            if self.nbc.features[fi] == attr {
                self.tables[fi] = self.nbc.table_for(fi, v);
            }
        }
    }

    /// Probability that the missing target value satisfies `op` given the
    /// current evidence slots.
    pub fn prob_matching(&mut self, op: &PredOp) -> f64 {
        let nbc = self.nbc;
        let k = nbc.classes.len();
        if k == 0 {
            return 0.0;
        }
        if nbc.total == 0.0 {
            let uniform = 1.0 / k as f64;
            return nbc
                .classes
                .iter()
                .filter(|v| op.matches(v))
                .map(|_| uniform)
                .sum();
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&nbc.log_prior);
        for table in self.tables.iter().flatten() {
            for (score, lp) in self.scratch.iter_mut().zip(*table) {
                *score += lp;
            }
        }
        let max = self
            .scratch
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        for s in &mut self.scratch {
            *s = (*s - max).exp();
        }
        let sum: f64 = self.scratch.iter().sum();
        self.scratch
            .iter()
            .zip(nbc.classes.iter())
            .filter(|(_, v)| op.matches(v))
            .map(|(e, _)| *e / sum)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrType, Schema, TupleId};

    /// model → body fixture: Z4 is usually Convt, A4 usually Sedan.
    fn sample() -> Relation {
        let schema = Schema::of(
            "cars",
            &[
                ("model", AttrType::Categorical),
                ("body", AttrType::Categorical),
            ],
        );
        let rows = [
            ("Z4", "Convt"),
            ("Z4", "Convt"),
            ("Z4", "Convt"),
            ("Z4", "Coupe"),
            ("A4", "Sedan"),
            ("A4", "Sedan"),
            ("A4", "Convt"),
            ("A4", "Sedan"),
        ];
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(i, (m, b))| Tuple::new(TupleId(i as u32), vec![Value::str(m), Value::str(b)]))
            .collect();
        Relation::new(schema, tuples)
    }

    fn probe(model: &str) -> Tuple {
        Tuple::new(TupleId(99), vec![Value::str(model), Value::Null])
    }

    #[test]
    fn distribution_sums_to_one() {
        let r = sample();
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 1.0);
        let d = nbc.distribution(&probe("Z4"));
        let sum: f64 = d.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(d.len(), 3); // Convt, Coupe, Sedan
    }

    #[test]
    fn matches_hand_computed_bayes() {
        // Without smoothing (m = 0), P(Convt | Z4) by Bayes:
        // P(Z4|Convt) = 3/4, P(Convt) prior smoothed... use m=0 and raw
        // prior verified through ratios instead: posterior odds
        // Convt:Coupe:Sedan for Z4 = P(Z4|c)·P(c).
        let r = sample();
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 0.0);
        let d = nbc.distribution(&probe("Z4"));
        let get = |name: &str| {
            d.iter()
                .find(|(v, _)| v == &Value::str(name))
                .map(|(_, p)| *p)
                .unwrap()
        };
        // Raw counts: Convt: n=4, Z4∧Convt=3 → P(Z4|Convt)=3/4.
        // Coupe: n=1, Z4∧Coupe=1 → 1. Sedan: n=3, Z4∧Sedan=0 → 0.
        // Smoothed priors (Laplace on classes, total=8, k=3):
        // Convt (4+1)/11, Coupe (1+1)/11, Sedan (3+1)/11.
        // Scores: Convt 5/11·3/4 = 15/44, Coupe 2/11·1 = 8/44, Sedan 0.
        let expect_convt = 15.0 / 23.0;
        let expect_coupe = 8.0 / 23.0;
        assert!(
            (get("Convt") - expect_convt).abs() < 1e-9,
            "{}",
            get("Convt")
        );
        assert!((get("Coupe") - expect_coupe).abs() < 1e-9);
        assert!(get("Sedan") < 1e-12);
    }

    #[test]
    fn smoothing_avoids_zero_probabilities() {
        let r = sample();
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 1.0);
        let d = nbc.distribution(&probe("Z4"));
        assert!(d.iter().all(|(_, p)| *p > 0.0));
    }

    #[test]
    fn predicts_dominant_class() {
        let r = sample();
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 1.0);
        assert_eq!(nbc.predict(&probe("Z4")).unwrap().0, Value::str("Convt"));
        assert_eq!(nbc.predict(&probe("A4")).unwrap().0, Value::str("Sedan"));
    }

    #[test]
    fn null_features_carry_no_evidence() {
        let r = sample();
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 1.0);
        let no_evidence = Tuple::new(TupleId(0), vec![Value::Null, Value::Null]);
        let d = nbc.distribution(&no_evidence);
        // Falls back to the (smoothed) prior: Convt most common.
        let best = d.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(best.0, Value::str("Convt"));
    }

    #[test]
    fn unseen_feature_value_falls_back_to_prior_shape() {
        let r = sample();
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 1.0);
        let d = nbc.distribution(&probe("Boxster"));
        let sum: f64 = d.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(d.iter().all(|(_, p)| *p > 0.0));
    }

    #[test]
    fn prob_matching_sums_over_range() {
        let schema = Schema::of(
            "t",
            &[("x", AttrType::Categorical), ("y", AttrType::Integer)],
        );
        let rows = [("a", 1i64), ("a", 2), ("a", 3), ("b", 9)];
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(i, (x, y))| Tuple::new(TupleId(i as u32), vec![Value::str(x), Value::int(*y)]))
            .collect();
        let r = Relation::new(schema, tuples);
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 0.0);
        let probe = Tuple::new(TupleId(9), vec![Value::str("a"), Value::Null]);
        let p_range = nbc.prob_matching(&probe, &PredOp::Between(Value::int(1), Value::int(3)));
        let p_eq: f64 = [1i64, 2, 3]
            .iter()
            .map(|v| nbc.prob_of(&probe, &Value::int(*v)))
            .sum();
        assert!((p_range - p_eq).abs() < 1e-9);
        assert!(p_range > 0.9);
    }

    #[test]
    fn prob_of_unknown_class_is_zero() {
        let r = sample();
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 1.0);
        assert_eq!(nbc.prob_of(&probe("Z4"), &Value::str("Spaceship")), 0.0);
    }

    #[test]
    fn empty_training_gives_empty_or_uniform() {
        let schema = Schema::of(
            "t",
            &[("x", AttrType::Categorical), ("y", AttrType::Categorical)],
        );
        let r = Relation::empty(schema);
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 1.0);
        assert!(nbc.distribution(&probe("Z4")).is_empty());
        assert!(nbc.predict(&probe("Z4")).is_none());
    }
}
