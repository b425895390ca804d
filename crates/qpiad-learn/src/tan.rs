//! Tree-Augmented Naïve Bayes (TAN) — the Bayes-network comparator.
//!
//! §6.5 compares the AFD-enhanced NBC against Bayesian networks learned
//! with WEKA and reports NBC "significantly cheaper to learn … accuracy was
//! competitive". TAN is the standard restricted Bayes network for this
//! comparison: every feature gets at most one feature parent, chosen by a
//! Chow–Liu maximum spanning tree over class-conditional mutual
//! information, so the model captures pairwise feature interactions Naïve
//! Bayes cannot, at quadratic (not exponential) training cost.
//!
//! Missing values: a null feature contributes no evidence; a feature whose
//! *parent* is null (or unseen) falls back to its class-conditional
//! marginal.

use std::collections::HashMap;

use qpiad_db::{AttrId, Relation, Tuple, Value};

/// A trained TAN classifier for one target attribute.
#[derive(Debug, Clone)]
pub struct TanClassifier {
    target: AttrId,
    features: Vec<AttrId>,
    /// `parent[i]` is an index into `features`, or `None` for the tree root
    /// and disconnected features.
    parents: Vec<Option<usize>>,
    classes: Vec<Value>,
    class_counts: Vec<f64>,
    total: f64,
    /// Marginal tables: per feature, value → per-class counts.
    marginal: Vec<HashMap<Value, Vec<f64>>>,
    /// Conditional tables: per feature with a parent,
    /// (feature value, parent value) → per-class counts.
    conditional: Vec<HashMap<(Value, Value), Vec<f64>>>,
    /// Per-(feature, class, parent value) totals for the conditional
    /// m-estimate denominator.
    parent_class_counts: Vec<HashMap<Value, Vec<f64>>>,
    domain_size: Vec<usize>,
    m: f64,
}

/// Class-conditional mutual information `I(Xi; Xj | C)` from counts.
fn conditional_mutual_information(
    sample: &Relation,
    target: AttrId,
    xi: AttrId,
    xj: AttrId,
) -> f64 {
    // counts[(c, vi, vj)] plus the marginals we need.
    let mut joint: HashMap<(&Value, &Value, &Value), f64> = HashMap::new();
    let mut ci: HashMap<(&Value, &Value), f64> = HashMap::new();
    let mut cj: HashMap<(&Value, &Value), f64> = HashMap::new();
    let mut c_only: HashMap<&Value, f64> = HashMap::new();
    let mut n = 0f64;
    for t in sample.tuples() {
        let (c, vi, vj) = (t.value(target), t.value(xi), t.value(xj));
        if c.is_null() || vi.is_null() || vj.is_null() {
            continue;
        }
        *joint.entry((c, vi, vj)).or_default() += 1.0;
        *ci.entry((c, vi)).or_default() += 1.0;
        *cj.entry((c, vj)).or_default() += 1.0;
        *c_only.entry(c).or_default() += 1.0;
        n += 1.0;
    }
    if n == 0.0 {
        return 0.0;
    }
    joint
        .iter()
        .map(|((c, vi, vj), nij)| {
            let p = nij / n;
            let p_given = nij * c_only[*c] / (ci[&(*c, *vi)] * cj[&(*c, *vj)]);
            p * p_given.ln()
        })
        .sum()
}

/// Maximum spanning tree over features weighted by CMI (Prim's algorithm);
/// returns the parent index per feature.
fn chow_liu_parents(weights: &[Vec<f64>]) -> Vec<Option<usize>> {
    let n = weights.len();
    let mut parents = vec![None; n];
    if n <= 1 {
        return parents;
    }
    let mut in_tree = vec![false; n];
    in_tree[0] = true;
    for _ in 1..n {
        let mut best: Option<(f64, usize, usize)> = None; // (w, from-in-tree, to)
        for (i, &inside) in in_tree.iter().enumerate() {
            if !inside {
                continue;
            }
            for (j, inside_j) in in_tree.iter().enumerate() {
                if *inside_j {
                    continue;
                }
                let w = weights[i][j];
                if best.map(|(bw, _, _)| w > bw).unwrap_or(true) {
                    best = Some((w, i, j));
                }
            }
        }
        let (_, from, to) = best.expect("graph is complete");
        parents[to] = Some(from);
        in_tree[to] = true;
    }
    parents
}

impl TanClassifier {
    /// Trains a TAN classifier for `target` over `features`.
    pub fn train(sample: &Relation, target: AttrId, features: Vec<AttrId>, m: f64) -> Self {
        assert!(!features.contains(&target), "target cannot be a feature");
        let n = features.len();

        // Chow–Liu structure.
        let mut weights = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let w = conditional_mutual_information(sample, target, features[i], features[j]);
                weights[i][j] = w;
                weights[j][i] = w;
            }
        }
        let parents = chow_liu_parents(&weights);

        // Parameter tables.
        let mut classes: Vec<Value> = Vec::new();
        let mut class_index: HashMap<Value, usize> = HashMap::new();
        for t in sample.tuples() {
            let v = t.value(target);
            if !v.is_null() && !class_index.contains_key(v) {
                class_index.insert(v.clone(), classes.len());
                classes.push(v.clone());
            }
        }
        let k = classes.len();
        let mut class_counts = vec![0f64; k];
        let mut total = 0f64;
        let mut marginal: Vec<HashMap<Value, Vec<f64>>> = vec![HashMap::new(); n];
        let mut conditional: Vec<HashMap<(Value, Value), Vec<f64>>> = vec![HashMap::new(); n];
        let mut parent_class_counts: Vec<HashMap<Value, Vec<f64>>> = vec![HashMap::new(); n];

        for t in sample.tuples() {
            let Some(&c) = class_index.get(t.value(target)) else {
                continue;
            };
            total += 1.0;
            class_counts[c] += 1.0;
            for (fi, f) in features.iter().enumerate() {
                let fv = t.value(*f);
                if fv.is_null() {
                    continue;
                }
                marginal[fi]
                    .entry(fv.clone())
                    .or_insert_with(|| vec![0f64; k])[c] += 1.0;
                if let Some(pi) = parents[fi] {
                    let pv = t.value(features[pi]);
                    if !pv.is_null() {
                        conditional[fi]
                            .entry((fv.clone(), pv.clone()))
                            .or_insert_with(|| vec![0f64; k])[c] += 1.0;
                        parent_class_counts[fi]
                            .entry(pv.clone())
                            .or_insert_with(|| vec![0f64; k])[c] += 1.0;
                    }
                }
            }
        }
        let domain_size = marginal.iter().map(|t| t.len().max(1)).collect();
        TanClassifier {
            target,
            features,
            parents,
            classes,
            class_counts,
            total,
            marginal,
            conditional,
            parent_class_counts,
            domain_size,
            m,
        }
    }

    /// The target attribute.
    pub fn target(&self) -> AttrId {
        self.target
    }

    /// The Chow–Liu feature-parent assignment (indices into the feature
    /// list).
    pub fn parents(&self) -> &[Option<usize>] {
        &self.parents
    }

    /// Posterior distribution over the target's classes for a tuple.
    pub fn distribution(&self, tuple: &Tuple) -> Vec<(Value, f64)> {
        let k = self.classes.len();
        if k == 0 {
            return Vec::new();
        }
        if self.total == 0.0 {
            let u = 1.0 / k as f64;
            return self.classes.iter().map(|c| (c.clone(), u)).collect();
        }
        let mut log_scores = vec![0f64; k];
        for (c, score) in log_scores.iter_mut().enumerate() {
            *score = ((self.class_counts[c] + 1.0) / (self.total + k as f64)).ln();
        }
        for (fi, f) in self.features.iter().enumerate() {
            let fv = tuple.value(*f);
            if fv.is_null() {
                continue;
            }
            let p_uniform = 1.0 / self.domain_size[fi] as f64;
            // Conditional table when the parent value is present and seen;
            // otherwise the marginal.
            let parent_value = self.parents[fi].map(|pi| tuple.value(self.features[pi]));
            let used_conditional = match parent_value {
                Some(pv) if !pv.is_null() => {
                    let denom = self.parent_class_counts[fi].get(pv);
                    match denom {
                        Some(denoms) => {
                            let counts = self.conditional[fi].get(&(fv.clone(), pv.clone()));
                            for (c, score) in log_scores.iter_mut().enumerate() {
                                let n_xc = counts.map(|v| v[c]).unwrap_or(0.0);
                                let p = (n_xc + self.m * p_uniform) / (denoms[c] + self.m);
                                *score += p.max(1e-300).ln();
                            }
                            true
                        }
                        None => false,
                    }
                }
                _ => false,
            };
            if !used_conditional {
                let counts = self.marginal[fi].get(fv);
                for (c, score) in log_scores.iter_mut().enumerate() {
                    let n_xc = counts.map(|v| v[c]).unwrap_or(0.0);
                    let p = (n_xc + self.m * p_uniform) / (self.class_counts[c] + self.m);
                    *score += p.max(1e-300).ln();
                }
            }
        }
        let max = log_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut exp: Vec<f64> = log_scores.iter().map(|s| (s - max).exp()).collect();
        let sum: f64 = exp.iter().sum();
        for e in &mut exp {
            *e /= sum;
        }
        self.classes.iter().cloned().zip(exp).collect()
    }

    /// The most likely class with its probability.
    pub fn predict(&self, tuple: &Tuple) -> Option<(Value, f64)> {
        self.distribution(tuple)
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrType, Schema, TupleId};

    /// Class depends on the *pair* (a, b): class = "same" iff a == b, with
    /// a third noise feature. NBC's independence assumption is blind to
    /// this; TAN links a–b.
    fn xor_relation(n: usize) -> Relation {
        let schema = Schema::of(
            "xor",
            &[
                ("a", AttrType::Categorical),
                ("b", AttrType::Categorical),
                ("noise", AttrType::Categorical),
                ("class", AttrType::Categorical),
            ],
        );
        let tuples = (0..n)
            .map(|i| {
                let a = if i % 2 == 0 { "0" } else { "1" };
                let b = if (i / 2) % 2 == 0 { "0" } else { "1" };
                let noise = if (i / 4) % 3 == 0 { "x" } else { "y" };
                let class = if a == b { "same" } else { "diff" };
                Tuple::new(
                    TupleId(i as u32),
                    vec![
                        Value::str(a),
                        Value::str(b),
                        Value::str(noise),
                        Value::str(class),
                    ],
                )
            })
            .collect();
        Relation::new(schema, tuples)
    }

    fn probe(a: &str, b: &str) -> Tuple {
        Tuple::new(
            TupleId(99),
            vec![Value::str(a), Value::str(b), Value::str("x"), Value::Null],
        )
    }

    #[test]
    fn tan_solves_xor_where_nbc_cannot() {
        let r = xor_relation(96);
        let features = vec![AttrId(0), AttrId(1), AttrId(2)];
        let tan = TanClassifier::train(&r, AttrId(3), features.clone(), 1.0);
        let nbc = crate::nbc::NaiveBayes::train(&r, AttrId(3), features, 1.0);
        let cases = [
            ("0", "0", "same"),
            ("0", "1", "diff"),
            ("1", "0", "diff"),
            ("1", "1", "same"),
        ];
        let mut tan_hits = 0;
        let mut nbc_hits = 0;
        for (a, b, want) in cases {
            if tan.predict(&probe(a, b)).unwrap().0 == Value::str(want) {
                tan_hits += 1;
            }
            if nbc.predict(&probe(a, b)).unwrap().0 == Value::str(want) {
                nbc_hits += 1;
            }
        }
        assert_eq!(tan_hits, 4, "TAN must capture the a–b interaction");
        assert!(nbc_hits < 4, "NBC should miss XOR ({nbc_hits}/4)");
    }

    #[test]
    fn chow_liu_links_the_interacting_features() {
        let r = xor_relation(96);
        let tan = TanClassifier::train(&r, AttrId(3), vec![AttrId(0), AttrId(1), AttrId(2)], 1.0);
        // a (index 0) is the root; b (index 1) must be a's child, not the
        // noise feature's.
        assert_eq!(tan.parents()[0], None);
        assert_eq!(tan.parents()[1], Some(0));
    }

    #[test]
    fn distribution_is_normalized_and_null_tolerant() {
        let r = xor_relation(48);
        let tan = TanClassifier::train(&r, AttrId(3), vec![AttrId(0), AttrId(1), AttrId(2)], 1.0);
        for t in [
            probe("0", "1"),
            Tuple::new(
                TupleId(99),
                vec![Value::Null, Value::str("1"), Value::Null, Value::Null],
            ),
            Tuple::new(
                TupleId(99),
                vec![Value::str("0"), Value::Null, Value::Null, Value::Null],
            ),
            Tuple::new(
                TupleId(99),
                vec![
                    Value::str("weird"),
                    Value::str("unseen"),
                    Value::Null,
                    Value::Null,
                ],
            ),
        ] {
            let d = tan.distribution(&t);
            let sum: f64 = d.iter().map(|(_, p)| p).sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        }
    }

    #[test]
    fn single_feature_degenerates_to_nbc() {
        let r = xor_relation(48);
        let tan = TanClassifier::train(&r, AttrId(3), vec![AttrId(0)], 1.0);
        let nbc = crate::nbc::NaiveBayes::train(&r, AttrId(3), vec![AttrId(0)], 1.0);
        let t = probe("0", "1");
        let dt = tan.distribution(&t);
        let dn = nbc.distribution(&t);
        for (a, b) in dt.iter().zip(&dn) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn competitive_on_cars() {
        use qpiad_data::cars::CarsConfig;
        use qpiad_data::corrupt::{corrupt, CorruptionConfig};
        use qpiad_data::sample::uniform_sample;
        let ground = CarsConfig::default().with_rows(6_000).generate(23);
        let (ed, prov) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 1);
        let body = ed.schema().expect_attr("body_style");
        let features: Vec<AttrId> = ed.schema().attr_ids().filter(|a| *a != body).collect();
        let tan = TanClassifier::train(&sample, body, features, 1.0);
        let (mut hits, mut n) = (0usize, 0usize);
        for (id, truth) in prov.corrupted_on(body) {
            let t = ed.by_id(id).unwrap();
            if let Some((pred, _)) = tan.predict(t) {
                n += 1;
                hits += usize::from(&pred == truth);
            }
        }
        let acc = hits as f64 / n.max(1) as f64;
        assert!(acc > 0.55, "TAN accuracy {acc} over {n} cells");
    }
}
