//! Decision-tree missing-value imputation (comparison classifier).
//!
//! §6.5 compares the AFD-enhanced NBC against other learners (Bayesian
//! networks, association rules). This module adds an ID3-style decision
//! tree over categorical attributes — entropy-based splits, bounded depth,
//! majority leaves — as a further comparator with a very different bias:
//! unlike Naïve Bayes it captures feature *interactions*, at the price of
//! fragmenting small samples.

use std::collections::HashMap;

use qpiad_db::{AttrId, Relation, Tuple, Value};

/// Tree induction parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum training rows to attempt a split.
    pub min_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 3,
            min_split: 8,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        distribution: Vec<(Value, f64)>,
    },
    Split {
        attr: AttrId,
        children: HashMap<Value, Node>,
        /// Used for unseen or null split values.
        fallback: Box<Node>,
    },
}

/// A trained decision tree predicting one target attribute.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    target: AttrId,
    root: Node,
}

fn entropy(counts: &HashMap<&Value, usize>, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    counts
        .values()
        .map(|c| {
            let p = *c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

fn class_counts<'a>(rows: &[&'a Tuple], target: AttrId) -> (HashMap<&'a Value, usize>, usize) {
    let mut counts: HashMap<&Value, usize> = HashMap::new();
    let mut total = 0usize;
    for t in rows {
        let v = t.value(target);
        if !v.is_null() {
            *counts.entry(v).or_default() += 1;
            total += 1;
        }
    }
    (counts, total)
}

fn leaf(rows: &[&Tuple], target: AttrId) -> Node {
    let (counts, total) = class_counts(rows, target);
    let mut distribution: Vec<(Value, f64)> = counts
        .into_iter()
        .map(|(v, c)| (v.clone(), c as f64 / total.max(1) as f64))
        .collect();
    distribution.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Node::Leaf { distribution }
}

fn build(
    rows: &[&Tuple],
    target: AttrId,
    features: &[AttrId],
    depth: usize,
    config: &TreeConfig,
) -> Node {
    let (counts, total) = class_counts(rows, target);
    if depth >= config.max_depth
        || total < config.min_split
        || counts.len() <= 1
        || features.is_empty()
    {
        return leaf(rows, target);
    }
    let base_entropy = entropy(&counts, total);

    // Best feature by information gain.
    let mut best: Option<(f64, AttrId)> = None;
    for f in features {
        let mut by_value: HashMap<&Value, Vec<&Tuple>> = HashMap::new();
        let mut covered = 0usize;
        for t in rows {
            let v = t.value(*f);
            if !v.is_null() && !t.value(target).is_null() {
                by_value.entry(v).or_default().push(t);
                covered += 1;
            }
        }
        if by_value.len() <= 1 || covered == 0 {
            continue;
        }
        let conditional: f64 = by_value
            .values()
            .map(|sub| {
                let (c, n) = class_counts(sub, target);
                n as f64 / covered as f64 * entropy(&c, n)
            })
            .sum();
        let gain = base_entropy - conditional;
        if best.map(|(g, _)| gain > g).unwrap_or(gain > 1e-9) {
            best = Some((gain, *f));
        }
    }

    // XOR-style targets have zero marginal gain for every feature even
    // though a two-level split separates them perfectly; when the node is
    // impure and no feature has positive gain, split on the first feature
    // with at least two observed values rather than giving up.
    let split_attr = match best {
        Some((_, attr)) => attr,
        None => {
            let candidate = features.iter().copied().find(|f| {
                let mut values: Vec<&Value> = rows
                    .iter()
                    .map(|t| t.value(*f))
                    .filter(|v| !v.is_null())
                    .collect();
                values.sort();
                values.dedup();
                values.len() >= 2
            });
            match candidate {
                Some(attr) => attr,
                None => return leaf(rows, target),
            }
        }
    };

    let remaining: Vec<AttrId> = features
        .iter()
        .copied()
        .filter(|f| *f != split_attr)
        .collect();
    let mut by_value: HashMap<Value, Vec<&Tuple>> = HashMap::new();
    for t in rows {
        let v = t.value(split_attr);
        if !v.is_null() {
            by_value.entry(v.clone()).or_default().push(t);
        }
    }
    let children: HashMap<Value, Node> = by_value
        .into_iter()
        .map(|(v, sub)| (v, build(&sub, target, &remaining, depth + 1, config)))
        .collect();
    Node::Split {
        attr: split_attr,
        children,
        fallback: Box::new(leaf(rows, target)),
    }
}

impl DecisionTree {
    /// Trains a tree on all sample rows with a non-null target.
    pub fn train(
        sample: &Relation,
        target: AttrId,
        features: Vec<AttrId>,
        config: &TreeConfig,
    ) -> Self {
        assert!(!features.contains(&target), "target cannot be a feature");
        let rows: Vec<&Tuple> = sample
            .tuples()
            .iter()
            .filter(|t| !t.value(target).is_null())
            .collect();
        DecisionTree {
            target,
            root: build(&rows, target, &features, 0, config),
        }
    }

    /// The target attribute.
    pub fn target(&self) -> AttrId {
        self.target
    }

    /// Tree depth (leaves at the root count as 0).
    pub fn depth(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { children, .. } => 1 + children.values().map(walk).max().unwrap_or(0),
            }
        }
        walk(&self.root)
    }

    /// Class distribution at the leaf this tuple routes to; unseen or null
    /// split values fall back to the parent's distribution.
    pub fn distribution(&self, tuple: &Tuple) -> &[(Value, f64)] {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { distribution } => return distribution,
                Node::Split {
                    attr,
                    children,
                    fallback,
                } => {
                    let v = tuple.value(*attr);
                    node = if v.is_null() {
                        fallback
                    } else {
                        match children.get(v) {
                            Some(child) => child,
                            None => fallback,
                        }
                    };
                }
            }
        }
    }

    /// The most likely completion with its leaf probability.
    pub fn predict(&self, tuple: &Tuple) -> Option<(Value, f64)> {
        self.distribution(tuple).first().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrType, Schema, TupleId};

    /// XOR-like target: class = (a == b). Naïve Bayes cannot represent
    /// this; a depth-2 tree can.
    fn xor_relation(n: usize) -> Relation {
        let schema = Schema::of(
            "xor",
            &[
                ("a", AttrType::Categorical),
                ("b", AttrType::Categorical),
                ("class", AttrType::Categorical),
            ],
        );
        let tuples = (0..n)
            .map(|i| {
                let a = if i % 2 == 0 { "0" } else { "1" };
                let b = if (i / 2) % 2 == 0 { "0" } else { "1" };
                let class = if a == b { "same" } else { "diff" };
                Tuple::new(
                    TupleId(i as u32),
                    vec![Value::str(a), Value::str(b), Value::str(class)],
                )
            })
            .collect();
        Relation::new(schema, tuples)
    }

    #[test]
    fn learns_xor_exactly() {
        let r = xor_relation(64);
        let tree = DecisionTree::train(
            &r,
            AttrId(2),
            vec![AttrId(0), AttrId(1)],
            &TreeConfig::default(),
        );
        assert!(tree.depth() >= 2);
        for (a, b, want) in [
            ("0", "0", "same"),
            ("0", "1", "diff"),
            ("1", "0", "diff"),
            ("1", "1", "same"),
        ] {
            let t = Tuple::new(TupleId(99), vec![Value::str(a), Value::str(b), Value::Null]);
            let (got, p) = tree.predict(&t).unwrap();
            assert_eq!(got, Value::str(want), "a={a} b={b}");
            assert!(p > 0.99);
        }
    }

    #[test]
    fn nbc_cannot_learn_xor_but_tree_can() {
        let r = xor_relation(64);
        let nbc = crate::nbc::NaiveBayes::train(&r, AttrId(2), vec![AttrId(0), AttrId(1)], 1.0);
        let mut nbc_hits = 0;
        let tree = DecisionTree::train(
            &r,
            AttrId(2),
            vec![AttrId(0), AttrId(1)],
            &TreeConfig::default(),
        );
        let mut tree_hits = 0;
        for (a, b, want) in [
            ("0", "0", "same"),
            ("0", "1", "diff"),
            ("1", "0", "diff"),
            ("1", "1", "same"),
        ] {
            let t = Tuple::new(TupleId(99), vec![Value::str(a), Value::str(b), Value::Null]);
            if nbc.predict(&t).unwrap().0 == Value::str(want) {
                nbc_hits += 1;
            }
            if tree.predict(&t).unwrap().0 == Value::str(want) {
                tree_hits += 1;
            }
        }
        assert_eq!(tree_hits, 4);
        // Under a uniform XOR distribution NBC's marginals are uninformative.
        assert!(nbc_hits < 4, "NBC should not solve XOR ({nbc_hits}/4)");
    }

    #[test]
    fn respects_depth_limit() {
        let r = xor_relation(64);
        let tree = DecisionTree::train(
            &r,
            AttrId(2),
            vec![AttrId(0), AttrId(1)],
            &TreeConfig {
                max_depth: 1,
                min_split: 2,
            },
        );
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn unseen_values_fall_back_to_parent_majority() {
        let r = xor_relation(64);
        let tree = DecisionTree::train(
            &r,
            AttrId(2),
            vec![AttrId(0), AttrId(1)],
            &TreeConfig::default(),
        );
        let t = Tuple::new(
            TupleId(99),
            vec![Value::str("weird"), Value::Null, Value::Null],
        );
        // Still answers something from the fallback distribution.
        assert!(tree.predict(&t).is_some());
    }

    #[test]
    fn pure_targets_become_leaves() {
        let schema = Schema::of(
            "t",
            &[("x", AttrType::Categorical), ("y", AttrType::Categorical)],
        );
        let tuples = (0..20)
            .map(|i| {
                Tuple::new(
                    TupleId(i as u32),
                    vec![Value::str(format!("v{}", i % 4)), Value::str("only")],
                )
            })
            .collect();
        let r = Relation::new(schema, tuples);
        let tree = DecisionTree::train(&r, AttrId(1), vec![AttrId(0)], &TreeConfig::default());
        assert_eq!(tree.depth(), 0);
        let t = Tuple::new(TupleId(99), vec![Value::str("v0"), Value::Null]);
        assert_eq!(tree.predict(&t).unwrap().0, Value::str("only"));
    }

    #[test]
    fn competitive_on_cars_body_style() {
        use qpiad_data::cars::CarsConfig;
        use qpiad_data::corrupt::{corrupt, CorruptionConfig};
        use qpiad_data::sample::uniform_sample;
        let ground = CarsConfig::default().with_rows(6_000).generate(17);
        let (ed, prov) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 5);
        let body = ed.schema().expect_attr("body_style");
        let model = ed.schema().expect_attr("model");
        let tree = DecisionTree::train(
            &sample,
            body,
            vec![model],
            &TreeConfig {
                max_depth: 2,
                min_split: 2,
            },
        );
        let (mut hits, mut n) = (0usize, 0usize);
        for (id, truth) in prov.corrupted_on(body) {
            let t = ed.by_id(id).unwrap();
            if let Some((pred, _)) = tree.predict(t) {
                n += 1;
                hits += usize::from(&pred == truth);
            }
        }
        let acc = hits as f64 / n.max(1) as f64;
        assert!(acc > 0.6, "tree accuracy {acc} over {n} cells");
    }
}
