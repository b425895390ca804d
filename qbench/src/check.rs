//! The correctness gate, the answer-quality tally and the answer digest.
//! Everything here runs outside the timed spans.

use std::collections::{BTreeMap, HashMap, HashSet};

use qpiad_core::mediator::is_well_formed_possible;
use qpiad_core::{NetworkAnswer, SourceOutcome};
use qpiad_db::{AttrId, PredOp, Relation, SelectQuery, SourceError, Tuple, TupleId, Value};
use qpiad_eval::truth::Oracle;
use qpiad_serve::ServeError;

use crate::fixture::MemberData;

/// FNV-1a over everything a request returned.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, b: &[u8]) {
        for x in b {
            self.0 ^= u64::from(*x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Possible-answer quality against the oracle, summed over requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    /// Possible answers returned.
    pub returned: usize,
    /// Returned possible answers the oracle labels relevant.
    pub relevant_returned: usize,
    /// Relevant possible answers that exist.
    pub relevant_total: usize,
}

/// Correctness gate state: violations, failures by kind, digest, quality.
#[derive(Debug, Default)]
pub struct Gate {
    /// Every violated property, with the request it was seen on.
    pub violations: Vec<String>,
    /// Failed requests and members, by error kind.
    pub errors: BTreeMap<String, usize>,
    /// Requests that returned `Err`.
    pub failed: usize,
    /// Digest of every answer recorded for it.
    pub digest: Digest,
    /// Oracle quality of every answer recorded for scoring.
    pub quality: Quality,
}

fn source_kind(e: &SourceError) -> &'static str {
    match e {
        SourceError::NullBindingUnsupported { .. } => "null_binding_unsupported",
        SourceError::UnsupportedAttribute { .. } => "unsupported_attribute",
        SourceError::QueryLimitExceeded { .. } => "query_limit_exceeded",
        SourceError::Unavailable { .. } => "unavailable",
        SourceError::Timeout { .. } => "timeout",
        SourceError::Internal { .. } => "internal",
        SourceError::CircuitOpen => "circuit_open",
        SourceError::BudgetExhausted => "budget_exhausted",
    }
}

fn serve_kind(e: &ServeError) -> String {
    match e {
        ServeError::UnknownTenant { .. } => "serve.unknown_tenant".into(),
        ServeError::MalformedQuery { .. } => "serve.malformed_query".into(),
        ServeError::Shed { .. } => "serve.shed".into(),
        ServeError::DeadlineRefused => "serve.deadline_refused".into(),
        ServeError::Source(e) => format!("serve.source.{}", source_kind(e)),
    }
}

/// Where a checked request's answer is recorded besides the gate.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// The request's index in the stream.
    pub index: u64,
    /// Feed the answer to the digest.
    pub digest: bool,
    /// Score the answer against the oracle.
    pub score: bool,
}

impl Gate {
    /// Checks one served request against the naive semantics. `members`
    /// holds each registered member's data for the phase the request was
    /// served under, in registration order, and `scanned` the stored rows
    /// of each that [`SelectQuery::matches`] accepts.
    pub fn check(
        &mut self,
        query: &SelectQuery,
        result: &Result<std::sync::Arc<NetworkAnswer>, ServeError>,
        members: &[&MemberData],
        scanned: &[Vec<&Tuple>],
        record: Record,
    ) {
        let index = record.index;
        let answer = match result {
            Err(e) => {
                self.failed += 1;
                *self.errors.entry(serve_kind(e)).or_default() += 1;
                if record.digest {
                    self.digest.u64(index);
                    self.digest.bytes(e.to_string().as_bytes());
                }
                return;
            }
            Ok(a) => a,
        };
        if answer.per_source.len() != members.len() {
            self.violations.push(format!(
                "request {index}: {} member answers for {} members",
                answer.per_source.len(),
                members.len()
            ));
            return;
        }
        if record.digest {
            self.digest.u64(index);
        }
        for ((sa, member), expected) in answer.per_source.iter().zip(members).zip(scanned) {
            let mut base_served = true;
            match &sa.outcome {
                SourceOutcome::Healthy => {}
                SourceOutcome::Degraded(d) => {
                    let mut note =
                        |kind: String, n: usize| *self.errors.entry(kind).or_default() += n;
                    if d.drift_demoted {
                        note(format!("member_drift_demoted.{}", sa.source), 1);
                    }
                    if d.dropped_rewrites > 0 {
                        let why = d.last_error.as_ref().map_or("unknown", source_kind);
                        note(
                            format!("member_dropped_rewrites.{}.{why}", sa.source),
                            d.dropped_rewrites,
                        );
                    }
                    if d.breaker_skips
                        + d.budget_skips
                        + d.overload_sheds
                        + d.quarantined
                        + d.knowledge_unavailable
                        > 0
                        || d.stale_knowledge
                    {
                        note(format!("member_degraded.{}", sa.source), 1);
                    }
                    base_served = d.breaker_skips + d.budget_skips == 0;
                }
                SourceOutcome::Failed(e) => {
                    *self
                        .errors
                        .entry(format!("member_failed.{}.{}", sa.source, source_kind(e)))
                        .or_default() += 1;
                    base_served = false;
                }
            }
            // Certain answers: exactly the stored rows the query matches.
            let mut got: Vec<_> = sa.certain.iter().collect();
            got.sort_by_key(|t| t.id());
            let same = got.len() == expected.len()
                && got
                    .iter()
                    .zip(expected)
                    .all(|(g, e)| e.id() == g.id() && e.values() == g.values());
            if base_served && !same {
                self.violations.push(format!(
                    "request {index}: `{}` certain answers differ from a scan",
                    sa.source
                ));
            }
            let certain: HashSet<TupleId> = sa.certain.iter().map(|t| t.id()).collect();
            for a in &sa.possible {
                let id = a.tuple.id();
                let stored = member
                    .stored
                    .by_id(id)
                    .is_some_and(|t| t.values() == a.tuple.values());
                if !is_well_formed_possible(query, &a.tuple) || certain.contains(&id) || !stored {
                    self.violations.push(format!("request {index}: `{}` possible answer {id:?} is not a stored, well-formed, non-certain tuple", sa.source));
                    break;
                }
            }
            if record.digest {
                self.digest.bytes(sa.source.as_bytes());
                self.digest.u64(u64::from(sa.outcome.is_healthy()));
                for t in &got {
                    self.digest.u64(u64::from(t.id().0));
                }
                self.digest.u64(u64::MAX);
                for a in &sa.possible {
                    self.digest.u64(u64::from(a.tuple.id().0));
                    self.digest.u64(a.confidence.to_bits());
                    self.digest.u64(a.query_precision.to_bits());
                }
            }
            if record.score {
                let relevant = Oracle::new(&member.ground, &member.stored).relevant_possible(query);
                self.quality.returned += sa.possible.len();
                self.quality.relevant_total += relevant.len();
                self.quality.relevant_returned += sa
                    .possible
                    .iter()
                    .filter(|a| relevant.contains(&a.tuple.id()))
                    .count();
            }
        }
    }
}

/// [`Digest`] as a `HashMap` hasher: the scan hashes one value per row and
/// keyed attribute, where SipHash would cost more than the match itself.
#[derive(Default)]
struct Fnv(Digest);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0.value()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.bytes(bytes);
    }
}

type BuildFnv = std::hash::BuildHasherDefault<Fnv>;

/// The naive certain answers of several queries over one relation, in one
/// pass: `out[k]` holds the rows `queries[k]` matches, in relation order.
/// A row is tested with [`SelectQuery::matches`] against every query whose
/// first equality predicate it meets; a row that fails that predicate
/// cannot match the query.
pub fn scan<'r>(relation: &'r Relation, queries: &[&SelectQuery]) -> Vec<Vec<&'r Tuple>> {
    let mut keyed: HashMap<(AttrId, &Value), Vec<usize>, BuildFnv> = HashMap::default();
    let mut unkeyed = Vec::new();
    for (k, q) in queries.iter().enumerate() {
        let first_eq = q.predicates().iter().find_map(|p| match &p.op {
            PredOp::Eq(v) => Some((p.attr, v)),
            _ => None,
        });
        match first_eq {
            Some(key) => keyed.entry(key).or_default().push(k),
            None => unkeyed.push(k),
        }
    }
    let mut attrs: Vec<AttrId> = keyed.keys().map(|(a, _)| *a).collect();
    attrs.sort_by_key(|a| a.0);
    attrs.dedup();
    let mut out = vec![Vec::new(); queries.len()];
    for t in relation.tuples() {
        let candidates = attrs
            .iter()
            .filter_map(|a| keyed.get(&(*a, t.value(*a))))
            .flatten();
        for &k in candidates.chain(&unkeyed) {
            if queries[k].matches(t) {
                out[k].push(t);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use qpiad_core::{RankedAnswer, SourceAnswers};
    use qpiad_db::{AttrType, Predicate, Schema, Value};

    /// Four rows; row 1 lost its body style, so it is a possible answer
    /// to `body = Sedan` whose ground truth says Sedan.
    fn member() -> MemberData {
        let schema = Schema::of(
            "s",
            &[
                ("make", AttrType::Categorical),
                ("body", AttrType::Categorical),
            ],
        );
        let row = |i: u32, m: &str, b: Option<&str>| {
            Tuple::new(
                TupleId(i),
                vec![Value::str(m), b.map_or(Value::Null, Value::str)],
            )
        };
        let ground = vec![
            row(0, "a", Some("Sedan")),
            row(1, "a", Some("Sedan")),
            row(2, "b", Some("Coupe")),
            row(3, "b", Some("Sedan")),
        ];
        let stored = vec![
            ground[0].clone(),
            row(1, "a", None),
            ground[2].clone(),
            ground[3].clone(),
        ];
        MemberData {
            ground: Relation::new(schema.clone(), ground),
            stored: Relation::new(schema.clone(), stored),
            schema,
            served: None,
        }
    }

    fn answer(
        m: &MemberData,
        certain: &[usize],
        possible: &[usize],
    ) -> Result<Arc<NetworkAnswer>, ServeError> {
        let t = |i: &usize| m.stored.tuples()[*i].clone();
        Ok(Arc::new(NetworkAnswer {
            per_source: vec![SourceAnswers {
                source: "s".into(),
                certain: certain.iter().map(t).collect(),
                possible: possible
                    .iter()
                    .map(|i| RankedAnswer {
                        tuple: t(i),
                        confidence: 0.9,
                        query_precision: 0.9,
                        query_index: 0,
                        explanation: None,
                    })
                    .collect(),
                via_correlated: None,
                outcome: SourceOutcome::Healthy,
            }],
            drift_verdicts: Vec::new(),
        }))
    }

    fn gate(m: &MemberData, certain: &[usize], possible: &[usize]) -> Gate {
        let q = SelectQuery::new(vec![Predicate::eq(m.schema.expect_attr("body"), "Sedan")]);
        let scanned = scan(&m.stored, &[&q]);
        let mut g = Gate::default();
        let record = Record {
            index: 0,
            digest: true,
            score: true,
        };
        g.check(&q, &answer(m, certain, possible), &[m], &scanned, record);
        g
    }

    #[test]
    fn a_correct_answer_passes_and_is_scored() {
        let m = member();
        let g = gate(&m, &[0, 3], &[1]);
        assert!(g.violations.is_empty(), "{:?}", g.violations);
        assert_eq!(
            (
                g.quality.returned,
                g.quality.relevant_returned,
                g.quality.relevant_total
            ),
            (1, 1, 1)
        );
    }

    #[test]
    fn a_missing_certain_answer_is_a_violation() {
        let m = member();
        assert_eq!(gate(&m, &[0], &[1]).violations.len(), 1);
    }

    #[test]
    fn a_certain_or_ill_formed_possible_answer_is_a_violation() {
        let m = member();
        assert_eq!(gate(&m, &[0, 3], &[3]).violations.len(), 1);
        assert_eq!(gate(&m, &[0, 3], &[2]).violations.len(), 1);
    }

    #[test]
    fn the_keyed_scan_equals_a_plain_filter() {
        let m = member();
        let (make, body) = (m.schema.expect_attr("make"), m.schema.expect_attr("body"));
        let queries = [
            SelectQuery::new(vec![Predicate::eq(body, "Sedan")]),
            SelectQuery::new(vec![Predicate::eq(make, "a"), Predicate::eq(body, "Sedan")]),
            SelectQuery::new(vec![Predicate::eq(make, "b")]),
            SelectQuery::new(vec![Predicate::eq(body, "Sedan"), Predicate::eq(make, "b")]),
            SelectQuery::new(vec![Predicate::is_null(body)]),
            SelectQuery::new(vec![Predicate::between(make, "a", "b")]),
        ];
        let refs: Vec<&SelectQuery> = queries.iter().collect();
        let got = scan(&m.stored, &refs);
        for (q, rows) in queries.iter().zip(&got) {
            let want: Vec<&Tuple> = m.stored.tuples().iter().filter(|t| q.matches(t)).collect();
            assert_eq!(rows, &want, "{q:?}");
        }
        assert_eq!(
            got.iter().map(Vec::len).collect::<Vec<_>>(),
            [2, 1, 2, 1, 1, 4]
        );
    }
}
