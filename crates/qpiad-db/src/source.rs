//! Autonomous-source access layers.
//!
//! A mediator never touches a web database's storage; it can only issue
//! queries through a (restricted) query interface and observe the returned
//! tuples. [`WebSource`] models that interface faithfully:
//!
//! * **no null binding** — `attr IS NULL` predicates are rejected,
//! * **limited attribute support** — the local schema may omit attributes of
//!   the mediator's global schema, and only supported attributes may be
//!   constrained,
//! * **metered access** — every query and transferred tuple is counted, so
//!   the efficiency experiments (Figure 8) can report real costs,
//! * **optional query budget** — sources may cap queries per session.
//!
//! [`DirectSource`] lifts the null-binding restriction; it exists only so
//! the paper's infeasible baselines (AllReturned, AllRanked) can be
//! evaluated against the same data.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::SourceError;
use crate::index::SelectionEngine;
use crate::query::SelectQuery;
use crate::relation::Relation;
use crate::schema::{AttrId, Schema};
use crate::tuple::Tuple;

/// Cumulative access costs incurred against a source.
///
/// Beyond raw query/tuple counts, the meter tracks the fault-tolerance
/// counters the mediation layer reports through it: failed query attempts,
/// mediator-side retries, and mediation passes that degraded to a partial
/// (or empty) contribution from this source. These keep the Figure-8-style
/// efficiency experiments honest when sources are flaky: a degraded run is
/// visibly distinct from a cheap healthy one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceMeter {
    /// Number of queries answered.
    pub queries: usize,
    /// Total number of tuples returned across all queries.
    pub tuples_returned: usize,
    /// Number of queries rejected (null binding, unsupported attribute,
    /// budget exhaustion).
    pub rejected: usize,
    /// Failed query attempts observed at the query-issue boundary
    /// (unavailability, timeouts, internal errors) — see
    /// [`SourceError::is_failure`](crate::error::SourceError::is_failure).
    pub failures: usize,
    /// Mediator-side retries issued against this source.
    pub retries: usize,
    /// Mediation passes whose contribution from this source was degraded:
    /// rewritten queries dropped after retries, or the member recorded as
    /// failed outright.
    pub degraded: usize,
    /// Returned tuples quarantined by response validation
    /// ([`crate::validate::ResponseValidator`]): shape or predicate
    /// violations dropped before they could poison the answer set.
    pub quarantined: usize,
    /// Queries this source failed but a hedged fallback served
    /// ([`crate::health`]'s hedging layer).
    pub hedges: usize,
    /// Queries skipped up front because this source's circuit breaker was
    /// open.
    pub breaker_skips: usize,
    /// Rewritten queries shed by the overload degradation ladder before
    /// they reached this source: admitted plan entries clamped off under a
    /// non-`Normal` [`PressureLevel`](crate::health::PressureLevel).
    pub shed: usize,
    /// Queries refused because the propagated deadline could no longer fund
    /// even a single attempt against this source — the request was turned
    /// away at the cheapest layer instead of timing out mid-fan-out.
    pub deadline_refused: usize,
    /// Mediation passes this source served certain-answers-only because
    /// its persisted knowledge failed to load (missing, corrupt, wrong
    /// version, or wrong schema — see `qpiad_learn::store`).
    pub knowledge_unavailable: usize,
    /// Drift verdicts raised against this source: its mined knowledge
    /// diverged from live responses past the configured threshold and a
    /// re-mine was scheduled (see `qpiad_learn::drift`).
    pub drift_events: usize,
    /// Knowledge refreshes completed for this source: re-mined, persisted,
    /// and published as a new epoch.
    pub refreshes: usize,
    /// Knowledge refresh attempts that failed (re-mine error or persist
    /// failure); the old epoch stayed in service.
    pub refresh_failures: usize,
    /// Cumulative observed (or injected) query latency, in nanoseconds.
    /// Feeds the hedging layer's slow-source detection.
    pub latency_ns: u64,
    /// Mediation plans served from the plan cache: the candidate-rewrite
    /// list for this (source, query template, knowledge version) was reused
    /// without re-running rewrite generation and ranking.
    pub plan_cache_hits: usize,
    /// Mediation plans planned from scratch because no cached candidate
    /// list matched the (source, query template, knowledge version) key.
    pub plan_cache_misses: usize,
}

/// The query interface every autonomous source exposes to the mediator.
///
/// Sources must be [`Sync`]: the mediator fans rewritten queries and
/// multi-source retrieval out over scoped threads, so concurrent `query`
/// calls must be linearizable (meters and lazy indexes sit behind locks).
pub trait AutonomousSource: Sync {
    /// Source name (for diagnostics and catalog lookups).
    fn name(&self) -> &str;

    /// The source's local schema.
    fn schema(&self) -> &Arc<Schema>;

    /// `true` iff the source accepts queries binding the given attribute.
    ///
    /// This must reflect *queryability*, not mere schema membership: a web
    /// form may store an attribute yet expose no field for it. There is
    /// deliberately no default implementation — a bounds check against the
    /// schema arity routed queries at sources with no field for the
    /// attribute; every implementor must consult its queryable set (or
    /// delegate to a wrapped source).
    fn supports(&self, attr: AttrId) -> bool;

    /// Whether `attr IS NULL` predicates are accepted.
    fn allows_null_binding(&self) -> bool;

    /// Answers a conjunctive selection query with its certain answers
    /// (Definition 2), or rejects it.
    fn query(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError>;

    /// `true` iff the source caps queries per session. A budgeted source
    /// must be queried strictly sequentially: which queries fit under the
    /// budget depends on issue order, so concurrent issuance would change
    /// observable behavior. Budget-free sources accept any interleaving.
    fn has_query_budget(&self) -> bool {
        false
    }

    /// A snapshot of cumulative access costs.
    fn meter(&self) -> SourceMeter;

    /// Resets the access meter (between experiments).
    fn reset_meter(&self);

    /// Records `n` mediator-side retries attributed to this source. Called
    /// by the retry boundary ([`crate::fault::query_with_retry`]); sources
    /// that do not meter may leave the default no-op.
    fn note_retries(&self, n: usize) {
        let _ = n;
    }

    /// Records one failed query attempt (unavailability, timeout, internal
    /// error) observed at the query-issue boundary.
    fn note_failure(&self) {}

    /// Records one mediation pass that degraded this source's contribution
    /// (dropped rewrites or a failed member).
    fn note_degraded(&self) {}

    /// Records `n` returned tuples quarantined by response validation.
    fn note_quarantined(&self, n: usize) {
        let _ = n;
    }

    /// Records one query this source failed but a hedged fallback served.
    fn note_hedge(&self) {}

    /// Records one query skipped because this source's breaker was open.
    fn note_breaker_skip(&self) {}

    /// Records `n` rewritten queries shed from this source's plan by the
    /// overload degradation ladder.
    fn note_shed(&self, n: usize) {
        let _ = n;
    }

    /// Records one query refused because the propagated deadline could no
    /// longer fund a single attempt against this source.
    fn note_deadline_refused(&self) {}

    /// Records one mediation pass served certain-answers-only because the
    /// source's persisted knowledge failed to load.
    fn note_knowledge_unavailable(&self) {}

    /// Records one drift verdict raised against this source.
    fn note_drift(&self) {}

    /// Records one completed knowledge refresh for this source (re-mined,
    /// persisted, published as a new epoch).
    fn note_refresh(&self) {}

    /// Records one failed knowledge refresh attempt for this source (the
    /// old epoch stayed in service).
    fn note_refresh_failure(&self) {}

    /// Records observed (or injected) latency for one query against this
    /// source. Feeds the hedging layer's slow-source detection.
    fn note_latency(&self, d: std::time::Duration) {
        let _ = d;
    }

    /// Records one mediation plan served from the plan cache for this
    /// source (candidate rewrites reused, no re-planning).
    fn note_plan_cache_hit(&self) {}

    /// Records one mediation plan planned from scratch because the plan
    /// cache held no entry for this source's (template, version) key.
    fn note_plan_cache_miss(&self) {}
}

fn validate(
    q: &SelectQuery,
    supported: &dyn Fn(AttrId) -> bool,
    allow_null_binding: bool,
) -> Result<(), SourceError> {
    for p in q.predicates() {
        if !supported(p.attr) {
            return Err(SourceError::UnsupportedAttribute { attr: p.attr });
        }
        if p.op.is_null_binding() && !allow_null_binding {
            return Err(SourceError::NullBindingUnsupported { attr: p.attr });
        }
    }
    Ok(())
}

/// Lock-free accumulation cells behind [`SourceMeter`].
///
/// Every counter is an independent atomic, so the hot path (the mediator's
/// fan-out plus a server's concurrent passes) never serializes on a meter
/// mutex and a panicking caller can never poison the accounting. A
/// [`MeterCells::snapshot`] is per-field consistent, not cross-field: a
/// reader racing a live query may observe `queries` bumped before
/// `tuples_returned`. Quiesced reads (after joining workers) are exact.
#[derive(Debug, Default)]
struct MeterCells {
    queries: AtomicUsize,
    tuples_returned: AtomicUsize,
    rejected: AtomicUsize,
    failures: AtomicUsize,
    retries: AtomicUsize,
    degraded: AtomicUsize,
    quarantined: AtomicUsize,
    hedges: AtomicUsize,
    breaker_skips: AtomicUsize,
    shed: AtomicUsize,
    deadline_refused: AtomicUsize,
    knowledge_unavailable: AtomicUsize,
    drift_events: AtomicUsize,
    refreshes: AtomicUsize,
    refresh_failures: AtomicUsize,
    latency_ns: AtomicU64,
    plan_cache_hits: AtomicUsize,
    plan_cache_misses: AtomicUsize,
}

impl MeterCells {
    fn snapshot(&self) -> SourceMeter {
        SourceMeter {
            queries: self.queries.load(Ordering::Relaxed),
            tuples_returned: self.tuples_returned.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            breaker_skips: self.breaker_skips.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_refused: self.deadline_refused.load(Ordering::Relaxed),
            knowledge_unavailable: self.knowledge_unavailable.load(Ordering::Relaxed),
            drift_events: self.drift_events.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            refresh_failures: self.refresh_failures.load(Ordering::Relaxed),
            latency_ns: self.latency_ns.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.tuples_returned.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.degraded.store(0, Ordering::Relaxed);
        self.quarantined.store(0, Ordering::Relaxed);
        self.hedges.store(0, Ordering::Relaxed);
        self.breaker_skips.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
        self.deadline_refused.store(0, Ordering::Relaxed);
        self.knowledge_unavailable.store(0, Ordering::Relaxed);
        self.drift_events.store(0, Ordering::Relaxed);
        self.refreshes.store(0, Ordering::Relaxed);
        self.refresh_failures.store(0, Ordering::Relaxed);
        self.latency_ns.store(0, Ordering::Relaxed);
        self.plan_cache_hits.store(0, Ordering::Relaxed);
        self.plan_cache_misses.store(0, Ordering::Relaxed);
    }

    fn bump(cell: &AtomicUsize) {
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared implementation for the two concrete sources.
#[derive(Debug)]
struct SourceInner {
    name: String,
    relation: Relation,
    engine: SelectionEngine,
    /// Attributes of the local schema that may be constrained. Attributes
    /// outside this set exist in the stored data but the web form exposes no
    /// field for them.
    queryable: Vec<bool>,
    allow_null_binding: bool,
    query_limit: Option<usize>,
    meter: MeterCells,
}

impl SourceInner {
    fn answer(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError> {
        let check = validate(
            q,
            &|a: AttrId| a.index() < self.queryable.len() && self.queryable[a.index()],
            self.allow_null_binding,
        );
        if let Err(e) = check {
            MeterCells::bump(&self.meter.rejected);
            return Err(e);
        }
        // Certain-answer semantics over the stored (incomplete) relation,
        // served through the lazily built posting-list indexes. For a
        // DirectSource, IsNull predicates resolve to the null posting list.
        if let Some(limit) = self.query_limit {
            // Budgeted: reserve a slot under the limit with a CAS before
            // answering, so the limit check and the query-count bump are
            // one atomic step even under (contractually discouraged)
            // concurrent issuance.
            let admitted =
                self.meter
                    .queries
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| {
                        if q >= limit {
                            None
                        } else {
                            Some(q + 1)
                        }
                    });
            if admitted.is_err() {
                MeterCells::bump(&self.meter.rejected);
                return Err(SourceError::QueryLimitExceeded { limit });
            }
            let result: Vec<Tuple> = self.engine.select(&self.relation, q);
            self.meter
                .tuples_returned
                .fetch_add(result.len(), Ordering::Relaxed);
            Ok(result)
        } else {
            // Budget-free: concurrent queries never touch a lock, only
            // independent counter cells.
            let result: Vec<Tuple> = self.engine.select(&self.relation, q);
            MeterCells::bump(&self.meter.queries);
            self.meter
                .tuples_returned
                .fetch_add(result.len(), Ordering::Relaxed);
            Ok(result)
        }
    }
}

/// A web database behind a form interface: certain answers only, no null
/// binding, optionally a query budget and a restricted set of queryable
/// attributes.
#[derive(Debug)]
pub struct WebSource {
    inner: SourceInner,
}

impl WebSource {
    /// Wraps a relation as a web source where every attribute is queryable.
    pub fn new(name: impl Into<String>, relation: Relation) -> Self {
        let arity = relation.schema().arity();
        WebSource {
            inner: SourceInner {
                name: name.into(),
                relation,
                engine: SelectionEngine::new(),
                queryable: vec![true; arity],
                allow_null_binding: false,
                query_limit: None,
                meter: MeterCells::default(),
            },
        }
    }

    /// Restricts the set of queryable attributes (local schemas that do not
    /// support some global attributes, §4.3).
    pub fn with_queryable(mut self, attrs: &[AttrId]) -> Self {
        let arity = self.inner.relation.schema().arity();
        let mut queryable = vec![false; arity];
        for a in attrs {
            queryable[a.index()] = true;
        }
        self.inner.queryable = queryable;
        self
    }

    /// Caps the number of queries the source answers per session.
    pub fn with_query_limit(mut self, limit: usize) -> Self {
        self.inner.query_limit = Some(limit);
        self
    }

    /// Read access to the stored relation (the *evaluation harness* uses
    /// this as ground truth; the mediator must not).
    pub fn relation(&self) -> &Relation {
        &self.inner.relation
    }
}

impl AutonomousSource for WebSource {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn schema(&self) -> &Arc<Schema> {
        self.inner.relation.schema()
    }

    fn supports(&self, attr: AttrId) -> bool {
        attr.index() < self.inner.queryable.len() && self.inner.queryable[attr.index()]
    }

    fn allows_null_binding(&self) -> bool {
        false
    }

    fn has_query_budget(&self) -> bool {
        self.inner.query_limit.is_some()
    }

    fn query(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError> {
        self.inner.answer(q)
    }

    fn meter(&self) -> SourceMeter {
        self.inner.meter.snapshot()
    }

    fn reset_meter(&self) {
        self.inner.meter.reset();
    }

    fn note_retries(&self, n: usize) {
        self.inner.meter.retries.fetch_add(n, Ordering::Relaxed);
    }

    fn note_failure(&self) {
        MeterCells::bump(&self.inner.meter.failures);
    }

    fn note_degraded(&self) {
        MeterCells::bump(&self.inner.meter.degraded);
    }

    fn note_quarantined(&self, n: usize) {
        self.inner.meter.quarantined.fetch_add(n, Ordering::Relaxed);
    }

    fn note_hedge(&self) {
        MeterCells::bump(&self.inner.meter.hedges);
    }

    fn note_breaker_skip(&self) {
        MeterCells::bump(&self.inner.meter.breaker_skips);
    }

    fn note_shed(&self, n: usize) {
        self.inner.meter.shed.fetch_add(n, Ordering::Relaxed);
    }

    fn note_deadline_refused(&self) {
        MeterCells::bump(&self.inner.meter.deadline_refused);
    }

    fn note_knowledge_unavailable(&self) {
        MeterCells::bump(&self.inner.meter.knowledge_unavailable);
    }

    fn note_drift(&self) {
        MeterCells::bump(&self.inner.meter.drift_events);
    }

    fn note_refresh(&self) {
        MeterCells::bump(&self.inner.meter.refreshes);
    }

    fn note_refresh_failure(&self) {
        MeterCells::bump(&self.inner.meter.refresh_failures);
    }

    fn note_latency(&self, d: std::time::Duration) {
        let nanos = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.inner
            .meter
            .latency_ns
            .fetch_add(nanos, Ordering::Relaxed);
    }

    fn note_plan_cache_hit(&self) {
        MeterCells::bump(&self.inner.meter.plan_cache_hits);
    }

    fn note_plan_cache_miss(&self) {
        MeterCells::bump(&self.inner.meter.plan_cache_misses);
    }
}

/// A source with unrestricted access patterns, including null binding.
///
/// Real web databases do not offer this interface; it exists to implement
/// the AllReturned / AllRanked baselines the paper compares against.
#[derive(Debug)]
pub struct DirectSource {
    inner: SourceInner,
}

impl DirectSource {
    /// Wraps a relation as a direct-access source.
    pub fn new(name: impl Into<String>, relation: Relation) -> Self {
        let arity = relation.schema().arity();
        DirectSource {
            inner: SourceInner {
                name: name.into(),
                relation,
                engine: SelectionEngine::new(),
                queryable: vec![true; arity],
                allow_null_binding: true,
                query_limit: None,
                meter: MeterCells::default(),
            },
        }
    }

    /// Read access to the stored relation.
    pub fn relation(&self) -> &Relation {
        &self.inner.relation
    }
}

impl AutonomousSource for DirectSource {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn schema(&self) -> &Arc<Schema> {
        self.inner.relation.schema()
    }

    fn supports(&self, attr: AttrId) -> bool {
        attr.index() < self.inner.queryable.len() && self.inner.queryable[attr.index()]
    }

    fn allows_null_binding(&self) -> bool {
        true
    }

    fn query(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError> {
        self.inner.answer(q)
    }

    fn meter(&self) -> SourceMeter {
        self.inner.meter.snapshot()
    }

    fn reset_meter(&self) {
        self.inner.meter.reset();
    }

    fn note_retries(&self, n: usize) {
        self.inner.meter.retries.fetch_add(n, Ordering::Relaxed);
    }

    fn note_failure(&self) {
        MeterCells::bump(&self.inner.meter.failures);
    }

    fn note_degraded(&self) {
        MeterCells::bump(&self.inner.meter.degraded);
    }

    fn note_quarantined(&self, n: usize) {
        self.inner.meter.quarantined.fetch_add(n, Ordering::Relaxed);
    }

    fn note_hedge(&self) {
        MeterCells::bump(&self.inner.meter.hedges);
    }

    fn note_breaker_skip(&self) {
        MeterCells::bump(&self.inner.meter.breaker_skips);
    }

    fn note_shed(&self, n: usize) {
        self.inner.meter.shed.fetch_add(n, Ordering::Relaxed);
    }

    fn note_deadline_refused(&self) {
        MeterCells::bump(&self.inner.meter.deadline_refused);
    }

    fn note_knowledge_unavailable(&self) {
        MeterCells::bump(&self.inner.meter.knowledge_unavailable);
    }

    fn note_drift(&self) {
        MeterCells::bump(&self.inner.meter.drift_events);
    }

    fn note_refresh(&self) {
        MeterCells::bump(&self.inner.meter.refreshes);
    }

    fn note_refresh_failure(&self) {
        MeterCells::bump(&self.inner.meter.refresh_failures);
    }

    fn note_latency(&self, d: std::time::Duration) {
        let nanos = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.inner
            .meter
            .latency_ns
            .fetch_add(nanos, Ordering::Relaxed);
    }

    fn note_plan_cache_hit(&self) {
        MeterCells::bump(&self.inner.meter.plan_cache_hits);
    }

    fn note_plan_cache_miss(&self) {
        MeterCells::bump(&self.inner.meter.plan_cache_misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::schema::AttrType;
    use crate::tuple::TupleId;
    use crate::value::Value;

    fn relation() -> Relation {
        let schema = Schema::of(
            "cars",
            &[
                ("model", AttrType::Categorical),
                ("body", AttrType::Categorical),
            ],
        );
        let rows: Vec<(&str, Option<&str>)> = vec![
            ("A4", Some("Convt")),
            ("Z4", Some("Convt")),
            ("Z4", None),
            ("Civic", Some("Sedan")),
        ];
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, (m, b))| {
                Tuple::new(
                    TupleId(i as u32),
                    vec![Value::str(m), b.map(Value::str).unwrap_or(Value::Null)],
                )
            })
            .collect();
        Relation::new(schema, tuples)
    }

    #[test]
    fn web_source_answers_certain_only() {
        let src = WebSource::new("cars.com", relation());
        let body = src.schema().expect_attr("body");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let res = src.query(&q).unwrap();
        assert_eq!(res.len(), 2);
        let m = src.meter();
        assert_eq!(m.queries, 1);
        assert_eq!(m.tuples_returned, 2);
        assert_eq!(m.rejected, 0);
    }

    #[test]
    fn web_source_rejects_null_binding() {
        let src = WebSource::new("cars.com", relation());
        let body = src.schema().expect_attr("body");
        let q = SelectQuery::new(vec![Predicate::is_null(body)]);
        assert_eq!(
            src.query(&q),
            Err(SourceError::NullBindingUnsupported { attr: body })
        );
        assert_eq!(src.meter().rejected, 1);
        assert_eq!(src.meter().queries, 0);
    }

    #[test]
    fn web_source_rejects_unsupported_attribute() {
        let rel = relation();
        let model = rel.schema().expect_attr("model");
        let body = rel.schema().expect_attr("body");
        // Yahoo!-Autos-like source: body style not queryable.
        let src = WebSource::new("yahoo", rel).with_queryable(&[model]);
        assert!(src.supports(model));
        assert!(!src.supports(body));
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        assert_eq!(
            src.query(&q),
            Err(SourceError::UnsupportedAttribute { attr: body })
        );
        // Supported attribute still works.
        let q = SelectQuery::new(vec![Predicate::eq(model, "Z4")]);
        // Certain-answer count: both Z4 tuples stored, both returned
        // (their *model* is bound and non-null).
        assert_eq!(src.query(&q).unwrap().len(), 2);
    }

    #[test]
    fn web_source_enforces_query_limit() {
        let src = WebSource::new("limited", relation()).with_query_limit(2);
        let model = src.schema().expect_attr("model");
        let q = SelectQuery::new(vec![Predicate::eq(model, "Z4")]);
        assert!(src.query(&q).is_ok());
        assert!(src.query(&q).is_ok());
        assert_eq!(
            src.query(&q),
            Err(SourceError::QueryLimitExceeded { limit: 2 })
        );
        src.reset_meter();
        assert!(src.query(&q).is_ok());
    }

    #[test]
    fn direct_source_allows_null_binding() {
        let src = DirectSource::new("oracle", relation());
        assert!(src.allows_null_binding());
        let body = src.schema().expect_attr("body");
        let q = SelectQuery::new(vec![Predicate::is_null(body)]);
        let res = src.query(&q).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id(), TupleId(2));
    }

    #[test]
    fn sources_are_safely_shareable_across_threads() {
        // The mediator may fan queries out; meters and lazy indexes sit
        // behind locks, so concurrent querying must be linearizable.
        let src = std::sync::Arc::new(WebSource::new("cars.com", relation()));
        let model = src.schema().expect_attr("model");
        let mut handles = Vec::new();
        for _ in 0..8 {
            let src = std::sync::Arc::clone(&src);
            handles.push(std::thread::spawn(move || {
                let q = SelectQuery::new(vec![Predicate::eq(model, "Z4")]);
                let mut tuples = 0;
                for _ in 0..50 {
                    tuples += src.query(&q).unwrap().len();
                }
                tuples
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 8 * 50 * 2); // two Z4 rows per query
        let m = src.meter();
        assert_eq!(m.queries, 400);
        assert_eq!(m.tuples_returned, 800);
    }

    #[test]
    fn meters_accumulate_and_reset() {
        let src = DirectSource::new("oracle", relation());
        let q = SelectQuery::all();
        src.query(&q).unwrap();
        src.query(&q).unwrap();
        let m = src.meter();
        assert_eq!(m.queries, 2);
        assert_eq!(m.tuples_returned, 8);
        src.reset_meter();
        assert_eq!(src.meter(), SourceMeter::default());
    }
}
