//! Query ASTs and certain-answer evaluation semantics.
//!
//! QPIAD's query classes (paper §4): conjunctive selection queries
//! ([`SelectQuery`]), aggregate queries ([`AggregateQuery`]) and two-way join
//! queries ([`JoinQuery`]). Predicates are *bound*: equality and range
//! (`BETWEEN`) over a single attribute. The special [`PredOp::IsNull`]
//! predicate exists only so that the paper's infeasible baselines
//! (AllReturned / AllRanked) can be expressed against a
//! [`crate::source::WebSource::direct`] source; web forms reject it.

use std::fmt;

use crate::schema::{AttrId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// A predicate operator over one attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredOp {
    /// `attr = value`.
    Eq(Value),
    /// `attr BETWEEN lo AND hi` (inclusive). Values compare with
    /// [`Value`]'s total order; in practice both bounds are integers.
    Between(Value, Value),
    /// `attr IS NULL` — *null binding*. Web databases do not support this
    /// pattern (paper §1); only a [`crate::source::WebSource::direct`]
    /// source honors it.
    IsNull,
}

impl PredOp {
    /// Certain satisfaction of this operator by a single value.
    ///
    /// A null value never certainly satisfies `Eq`/`Between`, and only a null
    /// satisfies `IsNull`.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            PredOp::Eq(want) => !v.is_null() && v == want,
            PredOp::Between(lo, hi) => !v.is_null() && lo <= v && v <= hi,
            PredOp::IsNull => v.is_null(),
        }
    }

    /// `true` iff the operator requires binding a null (unsupported by web
    /// form interfaces).
    pub fn is_null_binding(&self) -> bool {
        matches!(self, PredOp::IsNull)
    }
}

/// A single `attr op` predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// The constrained attribute.
    pub attr: AttrId,
    /// The operator and comparison value(s).
    pub op: PredOp,
}

impl Predicate {
    /// `attr = value`.
    pub fn eq(attr: AttrId, value: impl Into<Value>) -> Self {
        Predicate {
            attr,
            op: PredOp::Eq(value.into()),
        }
    }

    /// `attr BETWEEN lo AND hi`.
    pub fn between(attr: AttrId, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Predicate {
            attr,
            op: PredOp::Between(lo.into(), hi.into()),
        }
    }

    /// `attr IS NULL`.
    pub fn is_null(attr: AttrId) -> Self {
        Predicate {
            attr,
            op: PredOp::IsNull,
        }
    }

    /// Certain satisfaction by a tuple.
    pub fn matches(&self, t: &Tuple) -> bool {
        self.op.matches(t.value(self.attr))
    }

    /// Renders the predicate against a schema.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Predicate, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let name = self.1.attr(self.0.attr).name();
                match &self.0.op {
                    PredOp::Eq(v) => write!(f, "{name}={v}"),
                    PredOp::Between(lo, hi) => write!(f, "{name} between {lo} and {hi}"),
                    PredOp::IsNull => write!(f, "{name} is null"),
                }
            }
        }
        D(self, schema)
    }
}

/// A conjunctive selection query `σ_{p1 ∧ p2 ∧ ...}` with projection over
/// all attributes (the paper assumes full projection, §4 footnote).
///
/// ```
/// use qpiad_db::{AttrType, Predicate, Schema, SelectQuery, Tuple, TupleId, Value};
///
/// let schema = Schema::of("cars", &[
///     ("model", AttrType::Categorical),
///     ("body", AttrType::Categorical),
/// ]);
/// let body = schema.expect_attr("body");
/// let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
///
/// let convt = Tuple::new(TupleId(0), vec![Value::str("Z4"), Value::str("Convt")]);
/// let unknown = Tuple::new(TupleId(1), vec![Value::str("Z4"), Value::Null]);
/// assert!(q.matches(&convt));           // certain answer
/// assert!(q.possibly_matches(&unknown)); // possible answer: null body
/// assert!(!q.matches(&unknown));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SelectQuery {
    predicates: Vec<Predicate>,
}

/// The canonical predicate order: attribute, then operator kind, then
/// comparison values.
fn predicate_cmp(a: &Predicate, b: &Predicate) -> std::cmp::Ordering {
    fn op_rank(op: &PredOp) -> u8 {
        match op {
            PredOp::Between(..) => 0,
            PredOp::Eq(_) => 1,
            PredOp::IsNull => 2,
        }
    }
    a.attr
        .cmp(&b.attr)
        .then_with(|| op_rank(&a.op).cmp(&op_rank(&b.op)))
        .then_with(|| match (&a.op, &b.op) {
            (PredOp::Eq(x), PredOp::Eq(y)) => x.cmp(y),
            (PredOp::Between(xl, xh), PredOp::Between(yl, yh)) => {
                xl.cmp(yl).then_with(|| xh.cmp(yh))
            }
            _ => std::cmp::Ordering::Equal,
        })
}

impl SelectQuery {
    /// The empty query (matches every tuple).
    pub fn all() -> Self {
        SelectQuery {
            predicates: Vec::new(),
        }
    }

    /// Builds a query from predicates. Predicates are stored in a canonical
    /// order (by attribute, then operator kind, then comparison values) so
    /// that structurally equal queries compare and hash equal regardless of
    /// construction order. The order is structural — no per-comparison
    /// string formatting, since every rewritten query and plan-cache key
    /// passes through here.
    pub fn new(mut predicates: Vec<Predicate>) -> Self {
        predicates.sort_by(predicate_cmp);
        SelectQuery { predicates }
    }

    /// Total structural order over queries: lexicographic over the
    /// canonical predicate lists, shorter query first on a shared prefix.
    /// Used as a deterministic tiebreak by the rewrite ranker — consistent
    /// with `Eq` (equal queries compare `Equal`) and allocation-free.
    pub fn structural_cmp(&self, other: &Self) -> std::cmp::Ordering {
        let mut ab = self.predicates.iter().zip(other.predicates.iter());
        ab.find_map(|(a, b)| match predicate_cmp(a, b) {
            std::cmp::Ordering::Equal => None,
            ord => Some(ord),
        })
        .unwrap_or_else(|| self.predicates.len().cmp(&other.predicates.len()))
    }

    /// Adds a predicate, returning the extended query.
    pub fn and(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        SelectQuery::new(self.predicates)
    }

    /// The query's predicates in canonical order.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The set of constrained attributes (deduplicated, in order).
    pub fn constrained_attrs(&self) -> Vec<AttrId> {
        let mut out: Vec<AttrId> = Vec::with_capacity(self.predicates.len());
        for p in &self.predicates {
            if !out.contains(&p.attr) {
                out.push(p.attr);
            }
        }
        out
    }

    /// The predicate on `attr`, if any.
    pub fn predicate_on(&self, attr: AttrId) -> Option<&Predicate> {
        self.predicates.iter().find(|p| p.attr == attr)
    }

    /// Certain satisfaction: the tuple satisfies *every* predicate with a
    /// non-null (or, for `IsNull`, null) value. This is Definition 2's
    /// "certain answer" test.
    pub fn matches(&self, t: &Tuple) -> bool {
        self.predicates.iter().all(|p| p.matches(t))
    }

    /// Possible-answer test (Definition 2, generalized to conjunctions):
    /// the tuple has a null on at least one constrained attribute and
    /// certainly satisfies all predicates on its non-null attributes.
    pub fn possibly_matches(&self, t: &Tuple) -> bool {
        let mut saw_null = false;
        for p in &self.predicates {
            let v = t.value(p.attr);
            if v.is_null() {
                if p.op.is_null_binding() {
                    // IsNull is satisfied by a null; not a "possible" match.
                    continue;
                }
                saw_null = true;
            } else if !p.matches(t) {
                return false;
            }
        }
        saw_null
    }

    /// `true` iff any predicate requires null binding.
    pub fn requires_null_binding(&self) -> bool {
        self.predicates.iter().any(|p| p.op.is_null_binding())
    }

    /// Renders the query against a schema.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a SelectQuery, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "σ[")?;
                for (i, p) in self.0.predicates.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{}", p.display(self.1))?;
                }
                write!(f, "]")
            }
        }
        D(self, schema)
    }
}

/// Aggregation functions supported by QPIAD's aggregate handling (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)`.
    Count,
    /// `SUM(attr)`.
    Sum,
    /// `AVG(attr)`.
    Avg,
}

/// An aggregate query: a selection plus an aggregation function.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateQuery {
    /// The selection whose result is aggregated.
    pub select: SelectQuery,
    /// The aggregation function.
    pub func: AggFunc,
    /// The aggregated attribute (`None` for `COUNT(*)`).
    pub attr: Option<AttrId>,
}

impl AggregateQuery {
    /// `COUNT(*)` over a selection.
    pub fn count(select: SelectQuery) -> Self {
        AggregateQuery {
            select,
            func: AggFunc::Count,
            attr: None,
        }
    }

    /// `SUM(attr)` over a selection.
    pub fn sum(select: SelectQuery, attr: AttrId) -> Self {
        AggregateQuery {
            select,
            func: AggFunc::Sum,
            attr: Some(attr),
        }
    }

    /// `AVG(attr)` over a selection.
    pub fn avg(select: SelectQuery, attr: AttrId) -> Self {
        AggregateQuery {
            select,
            func: AggFunc::Avg,
            attr: Some(attr),
        }
    }

    /// Evaluates the aggregate over an iterator of tuples, skipping tuples
    /// whose aggregated attribute is null (SQL semantics).
    pub fn evaluate<'a>(&self, tuples: impl Iterator<Item = &'a Tuple>) -> f64 {
        let mut count = 0u64;
        let mut sum = 0f64;
        for t in tuples {
            match self.attr {
                None => count += 1,
                Some(a) => {
                    if let Some(v) = t.value(a).as_int() {
                        count += 1;
                        sum += v as f64;
                    }
                }
            }
        }
        match self.func {
            AggFunc::Count => count as f64,
            AggFunc::Sum => sum,
            AggFunc::Avg => {
                if count == 0 {
                    0.0
                } else {
                    sum / count as f64
                }
            }
        }
    }
}

/// A two-way join query over two sources, each side with its own selection,
/// equi-joined on one attribute per side (§4.5).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    /// Selection over the left relation.
    pub left: SelectQuery,
    /// Selection over the right relation.
    pub right: SelectQuery,
    /// Join attribute in the left relation's schema.
    pub left_attr: AttrId,
    /// Join attribute in the right relation's schema.
    pub right_attr: AttrId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};
    use crate::tuple::TupleId;

    fn schema() -> std::sync::Arc<Schema> {
        Schema::of(
            "cars",
            &[
                ("make", AttrType::Categorical),
                ("model", AttrType::Categorical),
                ("year", AttrType::Integer),
                ("price", AttrType::Integer),
            ],
        )
    }

    fn tup(make: &str, model: &str, year: i64, price: i64) -> Tuple {
        Tuple::new(
            TupleId(0),
            vec![
                Value::str(make),
                Value::str(model),
                Value::int(year),
                Value::int(price),
            ],
        )
    }

    fn tup_null_make(model: &str, year: i64) -> Tuple {
        Tuple::new(
            TupleId(1),
            vec![
                Value::Null,
                Value::str(model),
                Value::int(year),
                Value::int(10_000),
            ],
        )
    }

    #[test]
    fn eq_predicate_certain_semantics() {
        let s = schema();
        let make = s.expect_attr("make");
        let p = Predicate::eq(make, "Honda");
        assert!(p.matches(&tup("Honda", "Civic", 2004, 9000)));
        assert!(!p.matches(&tup("Toyota", "Camry", 2002, 9000)));
        // Null never certainly matches a bound predicate.
        assert!(!p.matches(&tup_null_make("Civic", 2004)));
    }

    #[test]
    fn between_predicate() {
        let s = schema();
        let price = s.expect_attr("price");
        let p = Predicate::between(price, 8000i64, 9500i64);
        assert!(p.matches(&tup("Honda", "Civic", 2004, 9000)));
        assert!(p.matches(&tup("Honda", "Civic", 2004, 8000)));
        assert!(p.matches(&tup("Honda", "Civic", 2004, 9500)));
        assert!(!p.matches(&tup("Honda", "Civic", 2004, 9501)));
    }

    #[test]
    fn is_null_predicate() {
        let s = schema();
        let make = s.expect_attr("make");
        let p = Predicate::is_null(make);
        assert!(p.matches(&tup_null_make("Civic", 2004)));
        assert!(!p.matches(&tup("Honda", "Civic", 2004, 9000)));
        assert!(p.op.is_null_binding());
    }

    #[test]
    fn query_canonical_order_makes_structural_equality() {
        let s = schema();
        let make = s.expect_attr("make");
        let year = s.expect_attr("year");
        let q1 = SelectQuery::new(vec![
            Predicate::eq(make, "Honda"),
            Predicate::eq(year, 2004i64),
        ]);
        let q2 = SelectQuery::new(vec![
            Predicate::eq(year, 2004i64),
            Predicate::eq(make, "Honda"),
        ]);
        assert_eq!(q1, q2);
    }

    #[test]
    fn possible_answer_semantics() {
        let s = schema();
        let make = s.expect_attr("make");
        let year = s.expect_attr("year");
        let q = SelectQuery::new(vec![
            Predicate::eq(make, "Honda"),
            Predicate::eq(year, 2004i64),
        ]);

        // Certain answer: not a possible answer.
        assert!(q.matches(&tup("Honda", "Civic", 2004, 9000)));
        assert!(!q.possibly_matches(&tup("Honda", "Civic", 2004, 9000)));

        // Null on make, other predicate satisfied: a possible answer.
        assert!(q.possibly_matches(&tup_null_make("Civic", 2004)));
        // Null on make but year contradicts: not even possible.
        assert!(!q.possibly_matches(&tup_null_make("Civic", 1999)));
    }

    #[test]
    fn constrained_attrs_dedup() {
        let s = schema();
        let price = s.expect_attr("price");
        let q = SelectQuery::new(vec![
            Predicate::between(price, 1i64, 10i64),
            Predicate::eq(price, 5i64),
        ]);
        assert_eq!(q.constrained_attrs(), vec![price]);
    }

    #[test]
    fn aggregate_eval() {
        let s = schema();
        let price = s.expect_attr("price");
        let ts = [
            tup("Honda", "Civic", 2004, 9000),
            tup("Honda", "Civic", 2004, 11000),
            tup_null_make("Civic", 2004), // price = 10000
        ];
        let count = AggregateQuery::count(SelectQuery::all());
        assert_eq!(count.evaluate(ts.iter()), 3.0);
        let sum = AggregateQuery::sum(SelectQuery::all(), price);
        assert_eq!(sum.evaluate(ts.iter()), 30_000.0);
        let avg = AggregateQuery::avg(SelectQuery::all(), price);
        assert_eq!(avg.evaluate(ts.iter()), 10_000.0);
    }

    #[test]
    fn aggregate_skips_null_agg_attr() {
        let s = schema();
        let price = s.expect_attr("price");
        let mut t = tup("Honda", "Civic", 2004, 9000);
        t = t.with_value(price, Value::Null);
        let sum = AggregateQuery::sum(SelectQuery::all(), price);
        assert_eq!(sum.evaluate(std::iter::once(&t)), 0.0);
        let avg = AggregateQuery::avg(SelectQuery::all(), price);
        assert_eq!(avg.evaluate(std::iter::once(&t)), 0.0);
    }

    #[test]
    fn display_renders() {
        let s = schema();
        let q = SelectQuery::new(vec![
            Predicate::eq(s.expect_attr("model"), "A4"),
            Predicate::between(s.expect_attr("price"), 1000i64, 2000i64),
        ]);
        let text = q.display(&s).to_string();
        assert!(text.contains("model=A4"), "{text}");
        assert!(text.contains("price between 1000 and 2000"), "{text}");
    }
}
