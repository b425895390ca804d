//! Association-rule missing-value imputation (the baseline of \[31\], §6.5).
//!
//! Mines single-antecedent rules `(Ai = v) ⇒ (Am = u)` with minimum support
//! and confidence from the sample, and imputes a missing `Am` by the
//! applicable rule of highest confidence. The paper reports this baseline
//! performs poorly on small samples because it only captures value-level
//! correlations — reproducing that comparison is the point of this module.

use std::collections::HashMap;

use qpiad_db::{AttrId, Relation, Tuple, Value};

/// A mined association rule `(attr = antecedent) ⇒ (target = consequent)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AssocRule {
    /// Antecedent attribute.
    pub attr: AttrId,
    /// Antecedent value.
    pub antecedent: Value,
    /// Consequent value of the target attribute.
    pub consequent: Value,
    /// Rule support (fraction of sample tuples matching both sides).
    pub support: f64,
    /// Rule confidence `P(consequent | antecedent)`.
    pub confidence: f64,
}

/// Association-rule imputer for one target attribute.
#[derive(Debug, Clone)]
pub struct AssocImputer {
    target: AttrId,
    rules: Vec<AssocRule>,
}

impl AssocImputer {
    /// Mines rules predicting `target` from every other attribute.
    pub fn train(sample: &Relation, target: AttrId, min_support: f64, min_conf: f64) -> Self {
        let n = sample.len().max(1) as f64;
        let mut rules = Vec::new();
        for attr in sample.schema().attr_ids() {
            if attr == target {
                continue;
            }
            // counts[(antecedent)] -> (total, per-consequent counts)
            let mut counts: HashMap<&Value, (usize, HashMap<&Value, usize>)> = HashMap::new();
            for t in sample.tuples() {
                let a = t.value(attr);
                let c = t.value(target);
                if a.is_null() || c.is_null() {
                    continue;
                }
                let entry = counts.entry(a).or_default();
                entry.0 += 1;
                *entry.1.entry(c).or_default() += 1;
            }
            for (antecedent, (total, by_consequent)) in counts {
                for (consequent, count) in by_consequent {
                    let support = count as f64 / n;
                    let confidence = count as f64 / total as f64;
                    if support >= min_support && confidence >= min_conf {
                        rules.push(AssocRule {
                            attr,
                            antecedent: antecedent.clone(),
                            consequent: consequent.clone(),
                            support,
                            confidence,
                        });
                    }
                }
            }
        }
        rules.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then_with(|| b.support.total_cmp(&a.support))
        });
        AssocImputer { target, rules }
    }

    /// The mined rules, best first.
    pub fn rules(&self) -> &[AssocRule] {
        &self.rules
    }

    /// Imputes the target value of a tuple by the highest-confidence rule
    /// whose antecedent the tuple satisfies.
    pub fn predict(&self, tuple: &Tuple) -> Option<(Value, f64)> {
        self.rules
            .iter()
            .find(|r| tuple.value(r.attr) == &r.antecedent)
            .map(|r| (r.consequent.clone(), r.confidence))
    }

    /// The target attribute.
    pub fn target(&self) -> AttrId {
        self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrType, Schema, TupleId};

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
        ];
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(i, (m, b))| Tuple::new(TupleId(i as u32), vec![Value::str(m), Value::str(b)]))
            .collect();
        Relation::new(schema, tuples)
    }

    #[test]
    fn mines_rules_with_support_and_confidence() {
        let imp = AssocImputer::train(&sample(), AttrId(1), 0.1, 0.5);
        let z4_rule = imp
            .rules()
            .iter()
            .find(|r| r.antecedent == Value::str("Z4"))
            .unwrap();
        assert_eq!(z4_rule.consequent, Value::str("Convt"));
        assert!((z4_rule.confidence - 0.75).abs() < 1e-12);
        assert!((z4_rule.support - 0.5).abs() < 1e-12);
    }

    #[test]
    fn thresholds_filter_rules() {
        let imp = AssocImputer::train(&sample(), AttrId(1), 0.4, 0.0);
        // Only Z4 ⇒ Convt (support 0.5) survives a 0.4 support floor.
        assert_eq!(imp.rules().len(), 1);
        let imp = AssocImputer::train(&sample(), AttrId(1), 0.0, 0.9);
        // Only A4 ⇒ Sedan (confidence 1.0) survives a 0.9 confidence floor.
        assert_eq!(imp.rules().len(), 1);
        assert_eq!(imp.rules()[0].antecedent, Value::str("A4"));
    }

    #[test]
    fn predicts_by_best_applicable_rule() {
        let imp = AssocImputer::train(&sample(), AttrId(1), 0.0, 0.0);
        let t = Tuple::new(TupleId(9), vec![Value::str("Z4"), Value::Null]);
        let (v, conf) = imp.predict(&t).unwrap();
        assert_eq!(v, Value::str("Convt"));
        assert!((conf - 0.75).abs() < 1e-12);
        // Unknown antecedent: no prediction.
        let t = Tuple::new(TupleId(9), vec![Value::str("Boxster"), Value::Null]);
        assert!(imp.predict(&t).is_none());
    }
}
