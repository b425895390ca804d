//! Response validation and quarantine.
//!
//! An autonomous source is a black box: the mediator has no contract that
//! what comes back actually matches what was asked. A source mid-schema-
//! migration, a scraper drifting against a redesigned form, or a cache
//! serving a stale result set can all return tuples that are *shaped*
//! wrong — wrong arity, wrong types, or violating the very predicates the
//! query bound. Trusting them would poison certain answers (which are
//! supposed to be guaranteed, §3) and corrupt the ranked possible answers'
//! precision estimates.
//!
//! [`ResponseValidator`] checks every returned tuple against the source
//! schema and the *issued* query (the rewritten, source-local query — not
//! the user query, whose predicates a rewrite intentionally relaxes):
//!
//! * **arity** — the tuple has exactly the schema's attribute count;
//! * **domain membership** — each non-null value's type matches its
//!   attribute's declared [`AttrType`];
//! * **bound attributes** — an attribute the query constrained with a
//!   value predicate is not null (web forms cannot bind nulls, so a null
//!   there means the source ignored the predicate);
//! * **predicate satisfaction** — each constrained value certainly
//!   satisfies its predicate under [`PredOp::matches`].
//!
//! Offenders are **quarantined** — dropped from the answer set, counted on
//! the [`SourceMeter`](crate::source::SourceMeter) and tagged with a
//! [`QuarantineReason`]; a response containing any quarantined tuple also
//! counts as a [`Failure`](crate::health::Observation::Failure) against the
//! source's circuit breaker, so persistent drift eventually opens it.
//! Healthy sources pass every check, so validation is always on.

use std::sync::Arc;

use crate::error::SourceError;
use crate::fault::{query_with_retry, RetryPolicy};
use crate::query::{PredOp, SelectQuery};
use crate::schema::{AttrType, Schema};
use crate::source::AutonomousSource;
use crate::tuple::Tuple;
use crate::value::Value;

/// Why a tuple was quarantined. The stable string [`Self::code`] is what
/// surfaces in logs and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The tuple's width disagrees with the source schema.
    ArityMismatch {
        /// The schema's arity.
        expected: usize,
        /// The tuple's arity.
        got: usize,
    },
    /// A non-null value's type disagrees with its attribute's domain.
    TypeMismatch {
        /// Index of the offending attribute.
        attr: usize,
    },
    /// The issued query bound this attribute to a value, but the source
    /// returned null there — it cannot have evaluated the predicate.
    NullBoundAttr {
        /// Index of the offending attribute.
        attr: usize,
    },
    /// The value fails the predicate the issued query bound on it.
    PredicateViolation {
        /// Index of the offending attribute.
        attr: usize,
    },
}

impl QuarantineReason {
    /// The stable reason code: `arity-mismatch`, `type-mismatch`,
    /// `null-bound-attr` or `predicate-violation`.
    pub fn code(&self) -> &'static str {
        match self {
            QuarantineReason::ArityMismatch { .. } => "arity-mismatch",
            QuarantineReason::TypeMismatch { .. } => "type-mismatch",
            QuarantineReason::NullBoundAttr { .. } => "null-bound-attr",
            QuarantineReason::PredicateViolation { .. } => "predicate-violation",
        }
    }
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::ArityMismatch { expected, got } => {
                write!(f, "arity-mismatch: expected {expected} values, got {got}")
            }
            QuarantineReason::TypeMismatch { attr } => {
                write!(f, "type-mismatch: attribute {attr} outside its domain")
            }
            QuarantineReason::NullBoundAttr { attr } => {
                write!(f, "null-bound-attr: bound attribute {attr} returned null")
            }
            QuarantineReason::PredicateViolation { attr } => {
                write!(
                    f,
                    "predicate-violation: attribute {attr} fails its predicate"
                )
            }
        }
    }
}

/// The outcome of validating one response: the tuples that passed, in
/// their original order, and the quarantined offenders with reasons.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Tuples that passed every check, in response order.
    pub kept: Vec<Tuple>,
    /// Quarantined tuples with the first check each one failed.
    pub quarantined: Vec<(Tuple, QuarantineReason)>,
}

impl ValidationReport {
    /// How many tuples were quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// `true` iff nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// Checks source responses against the schema and the issued query.
/// Stateless; one instance serves any number of sources.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResponseValidator;

impl ResponseValidator {
    /// Checks one tuple; `Err` carries the first violated rule.
    pub fn check(
        &self,
        schema: &Schema,
        query: &SelectQuery,
        t: &Tuple,
    ) -> Result<(), QuarantineReason> {
        // Arity first: every later check indexes into the tuple.
        if t.arity() != schema.arity() {
            return Err(QuarantineReason::ArityMismatch {
                expected: schema.arity(),
                got: t.arity(),
            });
        }
        for (attr, value) in schema.attr_ids().zip(t.values()) {
            let ok = matches!(
                (schema.attr(attr).ty(), value),
                (_, Value::Null)
                    | (AttrType::Integer, Value::Int(_))
                    | (AttrType::Categorical, Value::Str(_))
            );
            if !ok {
                return Err(QuarantineReason::TypeMismatch { attr: attr.index() });
            }
        }
        for p in query.predicates() {
            let Some(v) = t.values().get(p.attr.index()) else {
                // Unreachable after the arity check unless the query came
                // from a wider schema; treat as a violation, never panic.
                return Err(QuarantineReason::PredicateViolation {
                    attr: p.attr.index(),
                });
            };
            if v.is_null() {
                if !matches!(p.op, PredOp::IsNull) {
                    return Err(QuarantineReason::NullBoundAttr {
                        attr: p.attr.index(),
                    });
                }
            } else if !p.op.matches(v) {
                return Err(QuarantineReason::PredicateViolation {
                    attr: p.attr.index(),
                });
            }
        }
        Ok(())
    }

    /// Validates a whole response, splitting it into kept and quarantined.
    pub fn validate(
        &self,
        schema: &Schema,
        query: &SelectQuery,
        tuples: Vec<Tuple>,
    ) -> ValidationReport {
        let mut report = ValidationReport::default();
        for t in tuples {
            match self.check(schema, query, &t) {
                Ok(()) => report.kept.push(t),
                Err(reason) => report.quarantined.push((t, reason)),
            }
        }
        report
    }
}

/// Issues `q` through the retry boundary and validates the response
/// against the source's schema and the issued query. Quarantined tuples
/// are counted on the source's meter
/// ([`note_quarantined`](AutonomousSource::note_quarantined)); the caller
/// decides whether a dirty response also feeds the circuit breaker.
pub fn query_validated(
    source: &dyn AutonomousSource,
    q: &SelectQuery,
    policy: &RetryPolicy,
) -> Result<ValidationReport, SourceError> {
    let tuples = query_with_retry(source, q, policy)?;
    let schema: &Arc<Schema> = source.schema();
    let report = ResponseValidator.validate(schema, q, tuples);
    if !report.is_clean() {
        source.note_quarantined(report.quarantined_count());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::relation::Relation;
    use crate::source::WebSource;
    use crate::tuple::TupleId;

    fn schema() -> Arc<Schema> {
        Schema::of(
            "cars",
            &[
                ("model", AttrType::Categorical),
                ("year", AttrType::Integer),
            ],
        )
    }

    fn tuple(id: u32, model: Value, year: Value) -> Tuple {
        Tuple::new(TupleId(id), vec![model, year])
    }

    #[test]
    fn clean_tuples_pass_untouched() {
        let s = schema();
        let q = SelectQuery::new(vec![Predicate::eq(AttrId(0), "A4")]);
        let tuples = vec![
            tuple(1, Value::from("A4"), Value::Int(2002)),
            tuple(2, Value::from("A4"), Value::Null),
        ];
        let report = ResponseValidator.validate(&s, &q, tuples.clone());
        assert!(report.is_clean());
        assert_eq!(report.kept, tuples);
    }

    use crate::schema::AttrId;

    #[test]
    fn arity_mismatch_is_quarantined_not_a_panic() {
        let s = schema();
        let q = SelectQuery::all();
        let short = Tuple::new(TupleId(1), vec![Value::from("A4")]);
        let report = ResponseValidator.validate(&s, &q, vec![short]);
        assert_eq!(report.quarantined_count(), 1);
        let reason = report.quarantined[0].1;
        assert_eq!(
            reason,
            QuarantineReason::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(reason.code(), "arity-mismatch");
    }

    #[test]
    fn type_mismatch_is_quarantined() {
        let s = schema();
        let q = SelectQuery::all();
        let drifted = tuple(1, Value::Int(7), Value::Int(2002));
        let report = ResponseValidator.validate(&s, &q, vec![drifted]);
        assert_eq!(
            report.quarantined[0].1,
            QuarantineReason::TypeMismatch { attr: 0 }
        );
        assert_eq!(report.quarantined[0].1.code(), "type-mismatch");
    }

    #[test]
    fn null_on_a_bound_attribute_is_quarantined() {
        let s = schema();
        let q = SelectQuery::new(vec![Predicate::eq(AttrId(0), "A4")]);
        let leaked = tuple(1, Value::Null, Value::Int(2002));
        let report = ResponseValidator.validate(&s, &q, vec![leaked]);
        assert_eq!(
            report.quarantined[0].1,
            QuarantineReason::NullBoundAttr { attr: 0 }
        );
        assert_eq!(report.quarantined[0].1.code(), "null-bound-attr");
        // The same null under an explicit IS NULL query is legitimate.
        let q_null = SelectQuery::new(vec![Predicate::is_null(AttrId(0))]);
        let leaked = tuple(1, Value::Null, Value::Int(2002));
        assert!(ResponseValidator.check(&s, &q_null, &leaked).is_ok());
    }

    #[test]
    fn predicate_violation_is_quarantined() {
        let s = schema();
        let q = SelectQuery::new(vec![Predicate::eq(AttrId(0), "A4")]);
        let wrong = tuple(1, Value::from("Z4"), Value::Int(2002));
        let report = ResponseValidator.validate(&s, &q, vec![wrong]);
        assert_eq!(
            report.quarantined[0].1,
            QuarantineReason::PredicateViolation { attr: 0 }
        );
        assert_eq!(report.quarantined[0].1.code(), "predicate-violation");
    }

    #[test]
    fn query_validated_meters_quarantined_tuples() {
        // A well-behaved WebSource never returns an invalid tuple, so
        // query_validated must leave its meter's quarantine count at zero.
        let s = schema();
        let tuples = vec![
            tuple(0, Value::from("A4"), Value::Int(2002)),
            tuple(1, Value::from("Z4"), Value::Null),
        ];
        let source = WebSource::new("cars", Relation::new(s, tuples));
        let q = SelectQuery::new(vec![Predicate::eq(AttrId(0), "A4")]);
        let report = query_validated(&source, &q, &RetryPolicy::none()).expect("served");
        assert!(report.is_clean());
        assert_eq!(report.kept.len(), 1);
        assert_eq!(source.meter().quarantined, 0);
    }
}
