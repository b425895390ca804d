//! The ground-truth oracle (§6.2).
//!
//! Experiments corrupt a complete ground-truth dataset (GD) into the
//! experimental dataset (ED). A possible answer retrieved from ED is
//! *relevant* to a query iff its GD completion satisfies the query. The
//! recall denominator is the number of tuples that satisfy the query in GD
//! but are no longer certain answers in ED.

use std::collections::HashSet;

use qpiad_db::{Relation, SelectQuery, Tuple, TupleId};

/// Relevance oracle pairing a ground-truth relation with its corrupted twin.
pub struct Oracle<'a> {
    ground: &'a Relation,
    ed: &'a Relation,
}

impl<'a> Oracle<'a> {
    /// Creates an oracle. GD and ED must be corruption twins: same length,
    /// aligned tuple ids.
    pub fn new(ground: &'a Relation, ed: &'a Relation) -> Self {
        assert_eq!(ground.len(), ed.len(), "GD/ED must be aligned");
        Oracle { ground, ed }
    }

    /// `true` iff the tuple's ground-truth completion satisfies the query.
    pub fn is_relevant(&self, query: &SelectQuery, id: TupleId) -> bool {
        self.ground
            .by_id(id)
            .map(|t| query.matches(t))
            .unwrap_or(false)
    }

    /// Ids of all *relevant possible answers*: tuples whose GD completion
    /// satisfies the query but which are not certain answers in ED.
    pub fn relevant_possible(&self, query: &SelectQuery) -> HashSet<TupleId> {
        self.ground
            .tuples()
            .iter()
            .zip(self.ed.tuples().iter())
            .filter(|(g, e)| {
                debug_assert_eq!(g.id(), e.id());
                query.matches(g) && !query.matches(e)
            })
            .map(|(g, _)| g.id())
            .collect()
    }

    /// Marks each answer of a ranked list as relevant/irrelevant.
    pub fn relevance_labels(&self, query: &SelectQuery, ranked: &[&Tuple]) -> Vec<bool> {
        ranked
            .iter()
            .map(|t| self.is_relevant(query, t.id()))
            .collect()
    }

    /// The ground-truth relation.
    pub fn ground(&self) -> &Relation {
        self.ground
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_db::{Predicate, Value};

    #[test]
    fn relevant_possible_matches_provenance() {
        let ground = CarsConfig::default().with_rows(5_000).generate(91);
        let body = ground.schema().expect_attr("body_style");
        let (ed, prov) = corrupt(&ground, &CorruptionConfig::default().with_attrs(vec![body]));
        let oracle = Oracle::new(&ground, &ed);
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let relevant = oracle.relevant_possible(&q);
        // Exactly the corrupted tuples whose true body style was Convt.
        let expected: HashSet<TupleId> = prov
            .corrupted_on(body)
            .filter(|(_, v)| *v == &Value::str("Convt"))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(relevant, expected);
        assert!(!relevant.is_empty());
        for id in &relevant {
            assert!(oracle.is_relevant(&q, *id));
        }
    }

    #[test]
    fn relevance_labels_align() {
        let ground = CarsConfig::default().with_rows(1_000).generate(92);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let oracle = Oracle::new(&ground, &ed);
        let body = ground.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Sedan")]);
        let tuples: Vec<&Tuple> = ed.tuples().iter().take(50).collect();
        let labels = oracle.relevance_labels(&q, &tuples);
        assert_eq!(labels.len(), 50);
        for (t, rel) in tuples.iter().zip(&labels) {
            assert_eq!(*rel, q.matches(ground.by_id(t.id()).unwrap()));
        }
    }
}
