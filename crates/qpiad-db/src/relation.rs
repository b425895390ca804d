//! In-memory relations.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use crate::columnar::ColumnarRelation;
use crate::error::SourceError;
use crate::query::SelectQuery;
use crate::schema::{AttrId, Schema};
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;

/// An in-memory relation: a schema plus a vector of (possibly incomplete)
/// tuples, mirrored by a dictionary-interned columnar image.
///
/// The columnar image is built once at construction and shared by clones
/// (cloning copies the `Arc`, not the columns). Mutating the tuples through
/// [`Relation::tuples_mut`] invalidates it; the next access rebuilds.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
    columnar: OnceLock<Arc<ColumnarRelation>>,
}

/// Summary statistics mirroring the paper's Table 1: how incomplete a
/// database is, overall and per attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct IncompletenessStats {
    /// Total number of tuples.
    pub total_tuples: usize,
    /// Fraction of tuples with at least one null.
    pub incomplete_fraction: f64,
    /// Per-attribute fraction of tuples with a null on that attribute,
    /// indexed by attribute position.
    pub missing_fraction: Vec<f64>,
}

impl Relation {
    /// Creates a relation.
    ///
    /// # Panics
    ///
    /// Panics if a tuple's arity does not match the schema.
    pub fn new(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Self {
        Self::try_new(schema, tuples).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Relation::new`]: a tuple whose arity does not
    /// match the schema yields an error instead of aborting, so ingestion
    /// paths (`qpiad_data::io`) can degrade gracefully on malformed rows.
    pub fn try_new(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Result<Self, SourceError> {
        for t in &tuples {
            if t.arity() != schema.arity() {
                return Err(SourceError::Internal {
                    message: format!(
                        "tuple {:?} arity {} does not match schema `{}` arity {}",
                        t.id(),
                        t.arity(),
                        schema.name(),
                        schema.arity()
                    ),
                });
            }
        }
        let columnar = Arc::new(ColumnarRelation::build(schema.arity(), &tuples));
        // Canonicalize every cell through the dictionary: equal values then
        // share one allocation relation-wide, so downstream dedup can prove
        // equality by pointer identity instead of re-hashing string bytes.
        let dict = columnar.dict();
        let tuples: Vec<Tuple> = tuples
            .into_iter()
            .enumerate()
            .map(|(row, t)| {
                let values: Vec<Value> = (0..schema.arity())
                    .map(|a| dict.resolve(columnar.vid_at(row, AttrId(a))).clone())
                    .collect();
                Tuple::new(t.id(), values)
            })
            .collect();
        let cell = OnceLock::new();
        let _ = cell.set(columnar);
        Ok(Relation {
            schema,
            tuples,
            columnar: cell,
        })
    }

    /// This relation with the rows `replaced` names overwritten (`(row,
    /// tuple)` pairs) and `appended` added after its last row, built by
    /// extending its columnar image ([`ColumnarRelation::extended`])
    /// instead of re-interning every row. Untouched rows keep their tuple
    /// handles; the delta's cells are canonicalized through the extended
    /// dictionary, as [`Relation::new`] canonicalizes every cell.
    ///
    /// The result answers every selection, count and value lookup as
    /// `Relation::new` over the same rows does. Its ids differ: the
    /// dictionary keeps this relation's ids, numbers the delta's new
    /// values on from its end, and still holds values that only the
    /// overwritten rows held.
    ///
    /// # Panics
    ///
    /// Panics if a delta tuple's arity does not match the schema, or a
    /// replaced row is out of range.
    pub fn extended(&self, replaced: &[(usize, Tuple)], appended: &[Tuple]) -> Relation {
        let columnar = Arc::new(self.columnar().extended(replaced, appended));
        let (dict, arity) = (columnar.dict(), self.schema.arity());
        let canonical = |row: usize, t: &Tuple| {
            let values = (0..arity)
                .map(|a| dict.resolve(columnar.vid_at(row, AttrId(a))).clone())
                .collect();
            Tuple::new(t.id(), values)
        };
        let mut tuples = Vec::with_capacity(self.tuples.len() + appended.len());
        tuples.extend_from_slice(&self.tuples);
        for (row, t) in replaced {
            tuples[*row] = canonical(*row, t);
        }
        let first = self.tuples.len();
        tuples.extend(
            appended
                .iter()
                .enumerate()
                .map(|(i, t)| canonical(first + i, t)),
        );
        let cell = OnceLock::new();
        let _ = cell.set(columnar);
        Relation {
            schema: Arc::clone(&self.schema),
            tuples,
            columnar: cell,
        }
    }

    /// An empty relation over the schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
            columnar: OnceLock::new(),
        }
    }

    /// The dictionary-interned columnar image of this relation, building it
    /// if a mutation invalidated the one made at construction.
    pub fn columnar(&self) -> &Arc<ColumnarRelation> {
        self.columnar
            .get_or_init(|| Arc::new(ColumnarRelation::build(self.schema.arity(), &self.tuples)))
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Mutable access, used by corruption injection. Invalidates the
    /// columnar image; the next [`Relation::columnar`] call rebuilds it.
    pub fn tuples_mut(&mut self) -> &mut Vec<Tuple> {
        self.columnar = OnceLock::new();
        &mut self.tuples
    }

    /// Looks up a tuple by its stable id (linear scan fallback; ids are
    /// assigned densely by generators so we first try direct indexing).
    pub fn by_id(&self, id: TupleId) -> Option<&Tuple> {
        let guess = id.0 as usize;
        if let Some(t) = self.tuples.get(guess) {
            if t.id() == id {
                return Some(t);
            }
        }
        self.tuples.iter().find(|t| t.id() == id)
    }

    /// Certain answers of a selection query, in relation order.
    pub fn select(&self, q: &SelectQuery) -> Vec<Tuple> {
        self.tuples
            .iter()
            .filter(|t| q.matches(t))
            .cloned()
            .collect()
    }

    /// Number of certain answers (used for selectivity estimation without
    /// materializing).
    pub fn count(&self, q: &SelectQuery) -> usize {
        self.tuples.iter().filter(|t| q.matches(t)).count()
    }

    /// Distinct value combinations of `attrs` among the given tuples,
    /// skipping combinations that contain a null (a null determining-set
    /// value cannot be used to build a rewritten query). Combinations are
    /// returned in first-appearance order.
    pub fn distinct_projections(tuples: &[Tuple], attrs: &[AttrId]) -> Vec<Vec<Value>> {
        // Single-attribute determining sets are the common case (§5.2's
        // best-AFD feature selection usually lands on one attribute):
        // dedup on the bare value, skipping the per-tuple `Vec` wrapper
        // the general path hashes.
        if let [attr] = attrs {
            let mut seen: crate::hash::FastHashSet<&Value> = crate::hash::FastHashSet::default();
            // Pointer front-cache: tuples materialized from one
            // dictionary-interned relation share the `Arc` for equal
            // strings, so a repeated pointer proves a repeated value
            // without re-hashing the string bytes. A distinct pointer
            // still goes through the value set, so the result is exact
            // even for equal-but-separately-allocated values.
            let mut seen_ptrs: crate::hash::FastHashSet<usize> =
                crate::hash::FastHashSet::default();
            let mut out = Vec::new();
            for t in tuples {
                let v = t.value(*attr);
                match v {
                    Value::Null => continue,
                    Value::Str(s) => {
                        let ptr = std::sync::Arc::as_ptr(s) as *const u8 as usize;
                        if !seen_ptrs.insert(ptr) {
                            continue;
                        }
                    }
                    Value::Int(_) => {}
                }
                if seen.insert(v) {
                    out.push(vec![v.clone()]);
                }
            }
            return out;
        }
        // Dedup on borrowed projections: cloning values (and their interned
        // strings' refcounts) only for the few first appearances, not for
        // every tuple of a large base set.
        let mut seen: crate::hash::FastHashSet<Vec<&Value>> = crate::hash::FastHashSet::default();
        let mut out = Vec::new();
        let mut combo: Vec<&Value> = Vec::with_capacity(attrs.len());
        for t in tuples {
            combo.clear();
            combo.extend(attrs.iter().map(|a| t.value(*a)));
            if combo.iter().any(|v| v.is_null()) {
                continue;
            }
            if !seen.contains(&combo) {
                seen.insert(combo.clone());
                out.push(combo.iter().map(|v| (*v).clone()).collect());
            }
        }
        out
    }

    /// The active domain of an attribute: distinct non-null values, sorted.
    pub fn active_domain(&self, attr: AttrId) -> Vec<Value> {
        let mut set: BTreeSet<Value> = BTreeSet::new();
        for t in &self.tuples {
            let v = t.value(attr);
            if !v.is_null() {
                set.insert(v.clone());
            }
        }
        set.into_iter().collect()
    }

    /// Incompleteness statistics (Table 1's quantities).
    pub fn incompleteness(&self) -> IncompletenessStats {
        let n = self.tuples.len();
        let mut missing = vec![0usize; self.schema.arity()];
        let mut incomplete = 0usize;
        for t in &self.tuples {
            let mut any = false;
            for (i, v) in t.values().iter().enumerate() {
                if v.is_null() {
                    missing[i] += 1;
                    any = true;
                }
            }
            if any {
                incomplete += 1;
            }
        }
        let frac = |c: usize| if n == 0 { 0.0 } else { c as f64 / n as f64 };
        IncompletenessStats {
            total_tuples: n,
            incomplete_fraction: frac(incomplete),
            missing_fraction: missing.into_iter().map(frac).collect(),
        }
    }

    /// Returns a new relation containing only tuples complete on *all*
    /// attributes (used to build ground-truth datasets, §6.2).
    pub fn complete_only(&self) -> Relation {
        Relation::new(
            Arc::clone(&self.schema),
            self.tuples
                .iter()
                .filter(|t| t.is_complete())
                .cloned()
                .collect(),
        )
    }

    /// Projects the relation onto a subset of attributes, producing a new
    /// relation with a derived schema (used when modelling local schemas
    /// that support fewer attributes than the global schema).
    pub fn project_to(&self, name: &str, attrs: &[AttrId]) -> Relation {
        let schema = Schema::new(
            name,
            attrs.iter().map(|a| self.schema.attr(*a).clone()).collect(),
        );
        let tuples = self
            .tuples
            .iter()
            .map(|t| Tuple::new(t.id(), t.project(attrs)))
            .collect();
        Relation::new(schema, tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::schema::AttrType;

    fn fixture() -> Relation {
        let schema = Schema::of(
            "cars",
            &[
                ("make", AttrType::Categorical),
                ("model", AttrType::Categorical),
                ("body", AttrType::Categorical),
            ],
        );
        // The paper's Table 2 fragment (ids 0..6).
        let rows: Vec<(&str, &str, Option<&str>)> = vec![
            ("Audi", "A4", Some("Convt")),
            ("BMW", "Z4", Some("Convt")),
            ("Porsche", "Boxster", Some("Convt")),
            ("BMW", "Z4", None),
            ("Honda", "Civic", None),
            ("Toyota", "Camry", Some("Sedan")),
        ];
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, (mk, md, b))| {
                Tuple::new(
                    TupleId(i as u32),
                    vec![
                        Value::str(mk),
                        Value::str(md),
                        b.map(Value::str).unwrap_or(Value::Null),
                    ],
                )
            })
            .collect();
        Relation::new(schema, tuples)
    }

    #[test]
    fn select_returns_certain_answers_only() {
        let r = fixture();
        let body = r.schema().expect_attr("body");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let res = r.select(&q);
        // Tuples 3 and 4 have null body style: excluded.
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(|t| t.value(body) == &Value::str("Convt")));
        assert_eq!(r.count(&q), 3);
    }

    #[test]
    fn by_id_finds_tuples() {
        let r = fixture();
        assert_eq!(r.by_id(TupleId(4)).unwrap().id(), TupleId(4));
        assert!(r.by_id(TupleId(99)).is_none());
    }

    #[test]
    fn distinct_projections_skip_nulls() {
        let r = fixture();
        let model = r.schema().expect_attr("model");
        let body = r.schema().expect_attr("body");
        let combos = Relation::distinct_projections(r.tuples(), &[model]);
        assert_eq!(combos.len(), 5); // A4, Z4, Boxster, Civic, Camry
        let combos = Relation::distinct_projections(r.tuples(), &[body]);
        assert_eq!(combos.len(), 2); // Convt, Sedan (nulls skipped)
    }

    #[test]
    fn active_domain_sorted_distinct() {
        let r = fixture();
        let make = r.schema().expect_attr("make");
        let dom = r.active_domain(make);
        assert_eq!(
            dom,
            vec![
                Value::str("Audi"),
                Value::str("BMW"),
                Value::str("Honda"),
                Value::str("Porsche"),
                Value::str("Toyota"),
            ]
        );
    }

    #[test]
    fn incompleteness_stats() {
        let r = fixture();
        let stats = r.incompleteness();
        assert_eq!(stats.total_tuples, 6);
        assert!((stats.incomplete_fraction - 2.0 / 6.0).abs() < 1e-12);
        let body = r.schema().expect_attr("body");
        assert!((stats.missing_fraction[body.index()] - 2.0 / 6.0).abs() < 1e-12);
        let make = r.schema().expect_attr("make");
        assert_eq!(stats.missing_fraction[make.index()], 0.0);
    }

    #[test]
    fn complete_only_filters() {
        let r = fixture();
        assert_eq!(r.complete_only().len(), 4);
    }

    #[test]
    fn project_to_narrows_schema() {
        let r = fixture();
        let make = r.schema().expect_attr("make");
        let model = r.schema().expect_attr("model");
        let p = r.project_to("cars_narrow", &[model, make]);
        assert_eq!(p.schema().arity(), 2);
        assert_eq!(p.schema().attr(AttrId(0)).name(), "model");
        assert_eq!(p.len(), r.len());
        // Ids are preserved.
        assert_eq!(p.tuples()[3].id(), TupleId(3));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        let schema = Schema::of("one", &[("a", AttrType::Integer)]);
        Relation::new(
            schema,
            vec![Tuple::new(TupleId(0), vec![Value::int(1), Value::int(2)])],
        );
    }

    #[test]
    fn try_new_degrades_instead_of_aborting() {
        let schema = Schema::of("one", &[("a", AttrType::Integer)]);
        let bad = Relation::try_new(
            schema.clone(),
            vec![Tuple::new(TupleId(0), vec![Value::int(1), Value::int(2)])],
        );
        assert!(matches!(
            bad,
            Err(crate::error::SourceError::Internal { .. })
        ));
        let good = Relation::try_new(schema, vec![Tuple::new(TupleId(0), vec![Value::int(1)])]);
        assert_eq!(good.unwrap().len(), 1);
    }

    #[test]
    fn columnar_image_tracks_mutation() {
        let mut r = fixture();
        let make = r.schema().expect_attr("make");
        let before = Arc::clone(r.columnar());
        assert_eq!(before.n_rows(), r.len());
        // Clones share the image.
        assert!(Arc::ptr_eq(r.clone().columnar(), &before));
        // Mutation invalidates; the rebuilt image reflects the new cells.
        r.tuples_mut()[0] = r.tuples()[0].with_value(make, Value::Null);
        let after = r.columnar();
        assert!(!Arc::ptr_eq(after, &before));
        assert!(after.vid_at(0, make).is_null());
    }
}
