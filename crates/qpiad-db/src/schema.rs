//! Relation schemas and attribute identifiers.

use std::fmt;
use std::sync::Arc;

/// The declared type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// Integer-valued attribute (year, price, mileage, age, ...).
    Integer,
    /// Categorical string attribute (make, model, body style, ...).
    Categorical,
}

/// Positional identifier of an attribute within a [`Schema`].
///
/// `AttrId` is a plain index; it is only meaningful relative to the schema it
/// was resolved against. The mediator's [`crate::catalog::GlobalCatalog`]
/// translates between global and local `AttrId`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub usize);

impl AttrId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    name: String,
    ty: AttrType,
}

impl Attribute {
    /// Creates an attribute with the given name and type.
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        Attribute {
            name: name.into(),
            ty,
        }
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute's declared type.
    pub fn ty(&self) -> AttrType {
        self.ty
    }
}

/// An ordered list of attributes describing a relation.
///
/// Schemas are immutable after construction and are shared behind [`Arc`]
/// between relations, tuples and sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if two attributes share a name — attribute names must be
    /// unique within a schema.
    pub fn new(name: impl Into<String>, attrs: Vec<Attribute>) -> Arc<Self> {
        for (i, a) in attrs.iter().enumerate() {
            for b in &attrs[i + 1..] {
                assert_ne!(a.name(), b.name(), "duplicate attribute name in schema");
            }
        }
        Arc::new(Schema {
            name: name.into(),
            attrs,
        })
    }

    /// Convenience constructor from `(&str, AttrType)` pairs.
    pub fn of(name: impl Into<String>, attrs: &[(&str, AttrType)]) -> Arc<Self> {
        Schema::new(
            name,
            attrs.iter().map(|(n, t)| Attribute::new(*n, *t)).collect(),
        )
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// All attributes in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// The attribute at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this schema.
    pub fn attr(&self, id: AttrId) -> &Attribute {
        &self.attrs[id.0]
    }

    /// Resolves an attribute name to its [`AttrId`].
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attrs.iter().position(|a| a.name() == name).map(AttrId)
    }

    /// Resolves an attribute name, panicking with a helpful message if it is
    /// absent. Intended for tests and examples where the schema is known.
    pub fn expect_attr(&self, name: &str) -> AttrId {
        self.attr_id(name)
            .unwrap_or_else(|| panic!("schema `{}` has no attribute `{name}`", self.name))
    }

    /// Iterator over all attribute ids.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> {
        (0..self.attrs.len()).map(AttrId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn car_schema() -> Arc<Schema> {
        Schema::of(
            "cars",
            &[
                ("make", AttrType::Categorical),
                ("model", AttrType::Categorical),
                ("year", AttrType::Integer),
            ],
        )
    }

    #[test]
    fn resolves_names() {
        let s = car_schema();
        assert_eq!(s.attr_id("make"), Some(AttrId(0)));
        assert_eq!(s.attr_id("year"), Some(AttrId(2)));
        assert_eq!(s.attr_id("missing"), None);
        assert_eq!(s.expect_attr("model"), AttrId(1));
    }

    #[test]
    fn exposes_metadata() {
        let s = car_schema();
        assert_eq!(s.name(), "cars");
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attr(AttrId(1)).name(), "model");
        assert_eq!(s.attr(AttrId(2)).ty(), AttrType::Integer);
        let ids: Vec<_> = s.attr_ids().collect();
        assert_eq!(ids, vec![AttrId(0), AttrId(1), AttrId(2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn rejects_duplicate_names() {
        Schema::of(
            "bad",
            &[("x", AttrType::Integer), ("x", AttrType::Categorical)],
        );
    }

    #[test]
    #[should_panic(expected = "no attribute")]
    fn expect_attr_panics_on_missing() {
        car_schema().expect_attr("nope");
    }
}
