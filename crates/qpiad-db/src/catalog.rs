//! Mediator-side global catalog.
//!
//! The mediator exports a *global schema*; each autonomous source has a
//! *local schema* that may support only a subset of the global attributes
//! (paper §4.3, Figure 2). A [`SourceBinding`] records, for every global
//! attribute, which local attribute (if any) carries it, and translates
//! queries and tuples between the two schemas.

use std::sync::Arc;

use crate::error::SourceError;
use crate::query::{Predicate, SelectQuery};
use crate::schema::{AttrId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// The mapping from a global schema onto one source's local schema.
#[derive(Debug, Clone)]
pub struct SourceBinding {
    source_name: String,
    /// `mapping[g]` is the local attribute carrying global attribute `g`.
    mapping: Vec<Option<AttrId>>,
    local_arity: usize,
    /// `true` iff the local schema is attribute-for-attribute the global
    /// one, so lifting a tuple is the identity.
    is_identity: bool,
}

impl SourceBinding {
    /// Builds a binding by matching attribute names between the global and
    /// local schemas.
    pub fn by_name(source_name: impl Into<String>, global: &Schema, local: &Schema) -> Self {
        let mapping: Vec<Option<AttrId>> = global
            .attributes()
            .iter()
            .map(|ga| local.attr_id(ga.name()))
            .collect();
        let is_identity = local.arity() == mapping.len()
            && mapping
                .iter()
                .enumerate()
                .all(|(g, m)| *m == Some(AttrId(g)));
        SourceBinding {
            source_name: source_name.into(),
            mapping,
            local_arity: local.arity(),
            is_identity,
        }
    }

    /// The source this binding targets.
    pub fn source_name(&self) -> &str {
        &self.source_name
    }

    /// The local attribute carrying global attribute `g`, if supported.
    pub fn local_attr(&self, g: AttrId) -> Option<AttrId> {
        self.mapping.get(g.index()).copied().flatten()
    }

    /// `true` iff the source's local schema carries the global attribute.
    pub fn supports(&self, g: AttrId) -> bool {
        self.local_attr(g).is_some()
    }

    /// Translates a query on the global schema into the local schema.
    ///
    /// Fails with [`SourceError::UnsupportedAttribute`] if the query
    /// constrains a global attribute the source does not carry.
    pub fn translate_query(&self, q: &SelectQuery) -> Result<SelectQuery, SourceError> {
        let mut preds = Vec::with_capacity(q.predicates().len());
        for p in q.predicates() {
            match self.local_attr(p.attr) {
                Some(local) => preds.push(Predicate {
                    attr: local,
                    op: p.op.clone(),
                }),
                None => return Err(SourceError::UnsupportedAttribute { attr: p.attr }),
            }
        }
        Ok(SelectQuery::new(preds))
    }

    /// Lifts a tuple from the local schema into the global schema; global
    /// attributes the source does not carry become null.
    pub fn lift_tuple(&self, local: &Tuple) -> Tuple {
        debug_assert_eq!(local.arity(), self.local_arity);
        if self.is_identity {
            // Full-schema source: the lift is the identity, and tuples hold
            // their values behind a shared handle — clone is a refcount bump.
            return local.clone();
        }
        let values = self
            .mapping
            .iter()
            .map(|m| match m {
                Some(l) => local.value(*l).clone(),
                None => Value::Null,
            })
            .collect();
        Tuple::new(local.id(), values)
    }
}

/// The mediator's catalog: the global schema plus a binding per source.
#[derive(Debug, Clone)]
pub struct GlobalCatalog {
    global: Arc<Schema>,
    bindings: Vec<SourceBinding>,
}

impl GlobalCatalog {
    /// Creates a catalog over the given global schema.
    pub fn new(global: Arc<Schema>) -> Self {
        GlobalCatalog {
            global,
            bindings: Vec::new(),
        }
    }

    /// The global schema.
    pub fn global_schema(&self) -> &Arc<Schema> {
        &self.global
    }

    /// Registers a source by matching local attribute names against the
    /// global schema, returning the catalog for chaining.
    pub fn with_source(mut self, name: impl Into<String>, local: &Schema) -> Self {
        self.bindings
            .push(SourceBinding::by_name(name, &self.global, local));
        self
    }

    /// All registered bindings.
    pub fn bindings(&self) -> &[SourceBinding] {
        &self.bindings
    }

    /// Binding for a named source.
    pub fn binding(&self, source_name: &str) -> Option<&SourceBinding> {
        self.bindings
            .iter()
            .find(|b| b.source_name() == source_name)
    }

    /// Sources that support the given global attribute.
    pub fn sources_supporting(&self, g: AttrId) -> Vec<&SourceBinding> {
        self.bindings.iter().filter(|b| b.supports(g)).collect()
    }

    /// Sources that do *not* support the given global attribute — the
    /// candidates for correlated-source retrieval (§4.3).
    pub fn sources_lacking(&self, g: AttrId) -> Vec<&SourceBinding> {
        self.bindings.iter().filter(|b| !b.supports(g)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;
    use crate::tuple::TupleId;

    fn global() -> Arc<Schema> {
        Schema::of(
            "gs_used_cars",
            &[
                ("make", AttrType::Categorical),
                ("model", AttrType::Categorical),
                ("body_style", AttrType::Categorical),
            ],
        )
    }

    /// Yahoo!-Autos-like local schema: no body_style, different order.
    fn yahoo_local() -> Arc<Schema> {
        Schema::of(
            "yahoo_autos",
            &[
                ("model", AttrType::Categorical),
                ("make", AttrType::Categorical),
            ],
        )
    }

    #[test]
    fn binding_maps_by_name() {
        let g = global();
        let l = yahoo_local();
        let b = SourceBinding::by_name("yahoo", &g, &l);
        assert_eq!(
            b.local_attr(g.expect_attr("make")),
            Some(l.expect_attr("make"))
        );
        assert_eq!(
            b.local_attr(g.expect_attr("model")),
            Some(l.expect_attr("model"))
        );
        assert_eq!(b.local_attr(g.expect_attr("body_style")), None);
        assert!(!b.supports(g.expect_attr("body_style")));
    }

    #[test]
    fn query_translation() {
        let g = global();
        let l = yahoo_local();
        let b = SourceBinding::by_name("yahoo", &g, &l);
        let q = SelectQuery::new(vec![Predicate::eq(g.expect_attr("model"), "Z4")]);
        let tq = b.translate_query(&q).unwrap();
        assert_eq!(tq.predicates()[0].attr, l.expect_attr("model"));

        let q = SelectQuery::new(vec![Predicate::eq(g.expect_attr("body_style"), "Convt")]);
        assert!(matches!(
            b.translate_query(&q),
            Err(SourceError::UnsupportedAttribute { .. })
        ));
    }

    #[test]
    fn tuple_lifting_fills_nulls() {
        let g = global();
        let l = yahoo_local();
        let b = SourceBinding::by_name("yahoo", &g, &l);
        let local = Tuple::new(TupleId(7), vec![Value::str("Z4"), Value::str("BMW")]);
        let lifted = b.lift_tuple(&local);
        assert_eq!(lifted.id(), TupleId(7));
        assert_eq!(lifted.value(g.expect_attr("make")), &Value::str("BMW"));
        assert_eq!(lifted.value(g.expect_attr("model")), &Value::str("Z4"));
        assert!(lifted.value(g.expect_attr("body_style")).is_null());
    }

    #[test]
    fn catalog_source_queries() {
        let g = global();
        let catalog = GlobalCatalog::new(Arc::clone(&g))
            .with_source(
                "cars.com",
                &Schema::of(
                    "cars_com",
                    &[
                        ("make", AttrType::Categorical),
                        ("model", AttrType::Categorical),
                        ("body_style", AttrType::Categorical),
                    ],
                ),
            )
            .with_source("yahoo", &yahoo_local());
        let body = g.expect_attr("body_style");
        let supporting: Vec<_> = catalog
            .sources_supporting(body)
            .iter()
            .map(|b| b.source_name().to_string())
            .collect();
        assert_eq!(supporting, vec!["cars.com"]);
        let lacking: Vec<_> = catalog
            .sources_lacking(body)
            .iter()
            .map(|b| b.source_name().to_string())
            .collect();
        assert_eq!(lacking, vec!["yahoo"]);
        assert!(catalog.binding("yahoo").is_some());
        assert!(catalog.binding("nope").is_none());
    }
}
