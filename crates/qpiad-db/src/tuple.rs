//! Incomplete tuples.

use std::fmt;
use std::sync::Arc;

use crate::schema::{AttrId, Schema};
use crate::value::Value;

/// Stable identifier of a tuple within its ground-truth relation.
///
/// Tuple ids survive corruption (nulling of values), sampling, and retrieval
/// through sources, which lets the evaluation harness align an experimental
/// tuple with its ground-truth completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

/// A (possibly incomplete) tuple: one value per schema attribute.
///
/// The value slice is shared (`Arc<[Value]>`), so cloning a tuple — the
/// operation the mediation executor performs when fanning retrieval results
/// into answer sets — is a reference-count bump, not a per-value copy.
/// Answers materialize by cloning these shared handles at the answer
/// boundary; nothing re-allocates the values themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    id: TupleId,
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple with the given id and values.
    pub fn new(id: TupleId, values: Vec<Value>) -> Self {
        Tuple {
            id,
            values: values.into(),
        }
    }

    /// The tuple's stable identifier.
    pub fn id(&self) -> TupleId {
        self.id
    }

    /// The value of attribute `attr`.
    ///
    /// # Panics
    ///
    /// Panics if `attr` is out of range.
    pub fn value(&self, attr: AttrId) -> &Value {
        &self.values[attr.0]
    }

    /// All values in attribute order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// A tuple is *complete* iff it has no null value (Definition 1).
    pub fn is_complete(&self) -> bool {
        !self.values.iter().any(Value::is_null)
    }

    /// Attributes whose value is null.
    pub fn null_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_null())
            .map(|(i, _)| AttrId(i))
    }

    /// Number of nulls among the given attributes. QPIAD ranks only
    /// possible answers with at most one null over the constrained
    /// attributes; the rest are output unranked (paper, Assumptions).
    pub fn null_count_among(&self, attrs: &[AttrId]) -> usize {
        attrs.iter().filter(|a| self.values[a.0].is_null()).count()
    }

    /// Returns a copy with `attr` set to `value`.
    pub fn with_value(&self, attr: AttrId, value: Value) -> Tuple {
        let mut values = self.values.to_vec();
        values[attr.0] = value;
        Tuple {
            id: self.id,
            values: values.into(),
        }
    }

    /// `true` iff `completion` agrees with this tuple on every non-null
    /// attribute of this tuple — i.e. `completion ∈ C(self)` in the paper's
    /// notation (Definition 1), assuming `completion` is complete.
    pub fn is_completion_of(completion: &Tuple, incomplete: &Tuple) -> bool {
        if completion.arity() != incomplete.arity() || !completion.is_complete() {
            return false;
        }
        incomplete
            .values
            .iter()
            .zip(completion.values.iter())
            .all(|(inc, comp)| inc.is_null() || inc == comp)
    }

    /// Renders the tuple against a schema, for diagnostics.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> TupleDisplay<'a> {
        TupleDisplay {
            tuple: self,
            schema,
        }
    }

    /// Projects the tuple onto the given attributes, returning the values in
    /// the order requested.
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|a| self.values[a.0].clone()).collect()
    }
}

/// Helper for rendering a tuple with attribute names.
pub struct TupleDisplay<'a> {
    tuple: &'a Tuple,
    schema: &'a Schema,
}

impl fmt::Display for TupleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.tuple.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", self.schema.attributes()[i].name(), v)?;
        }
        write!(f, ")")
    }
}

/// Convenience builder used by generators: construct a tuple for a schema
/// from `(name, value)` pairs, with all unmentioned attributes null.
pub fn tuple_from_pairs(schema: &Arc<Schema>, id: u32, pairs: &[(&str, Value)]) -> Tuple {
    let mut values = vec![Value::Null; schema.arity()];
    for (name, v) in pairs {
        let attr = schema.expect_attr(name);
        values[attr.0] = v.clone();
    }
    Tuple::new(TupleId(id), values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn schema() -> Arc<Schema> {
        Schema::of(
            "cars",
            &[
                ("make", AttrType::Categorical),
                ("model", AttrType::Categorical),
                ("year", AttrType::Integer),
            ],
        )
    }

    fn t(id: u32, make: Value, model: Value, year: Value) -> Tuple {
        Tuple::new(TupleId(id), vec![make, model, year])
    }

    #[test]
    fn completeness() {
        let complete = t(
            0,
            Value::str("Honda"),
            Value::str("Civic"),
            Value::int(2004),
        );
        let incomplete = t(1, Value::Null, Value::str("Civic"), Value::int(2004));
        assert!(complete.is_complete());
        assert!(!incomplete.is_complete());
        assert_eq!(incomplete.null_attrs().collect::<Vec<_>>(), vec![AttrId(0)]);
    }

    #[test]
    fn null_count_among_constrained() {
        let tup = t(0, Value::Null, Value::str("Civic"), Value::Null);
        assert_eq!(tup.null_count_among(&[AttrId(0), AttrId(2)]), 2);
        assert_eq!(tup.null_count_among(&[AttrId(1)]), 0);
        assert_eq!(tup.null_count_among(&[AttrId(0), AttrId(1)]), 1);
    }

    #[test]
    fn completions() {
        let incomplete = t(1, Value::Null, Value::str("Civic"), Value::int(2004));
        let good = t(
            2,
            Value::str("Honda"),
            Value::str("Civic"),
            Value::int(2004),
        );
        let bad_model = t(
            3,
            Value::str("Honda"),
            Value::str("Accord"),
            Value::int(2004),
        );
        let also_incomplete = t(4, Value::str("Honda"), Value::str("Civic"), Value::Null);
        assert!(Tuple::is_completion_of(&good, &incomplete));
        assert!(!Tuple::is_completion_of(&bad_model, &incomplete));
        assert!(!Tuple::is_completion_of(&also_incomplete, &incomplete));
    }

    #[test]
    fn with_value_replaces_without_mutation() {
        let tup = t(0, Value::Null, Value::str("Civic"), Value::int(2004));
        let fixed = tup.with_value(AttrId(0), Value::str("Honda"));
        assert!(fixed.is_complete());
        assert!(!tup.is_complete());
        assert_eq!(fixed.id(), tup.id());
    }

    #[test]
    fn projection_and_display() {
        let s = schema();
        let tup = t(
            0,
            Value::str("Honda"),
            Value::str("Civic"),
            Value::int(2004),
        );
        assert_eq!(
            tup.project(&[AttrId(2), AttrId(0)]),
            vec![Value::int(2004), Value::str("Honda")]
        );
        assert_eq!(
            tup.display(&s).to_string(),
            "(make=Honda, model=Civic, year=2004)"
        );
    }

    #[test]
    fn builder_fills_unmentioned_with_null() {
        let s = schema();
        let tup = tuple_from_pairs(&s, 9, &[("model", Value::str("A4"))]);
        assert_eq!(tup.id(), TupleId(9));
        assert!(tup.value(AttrId(0)).is_null());
        assert_eq!(tup.value(AttrId(1)), &Value::str("A4"));
        assert!(tup.value(AttrId(2)).is_null());
    }
}
