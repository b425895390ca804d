//! Fault injection and retry for flaky autonomous sources.
//!
//! QPIAD's mediator has no control over the web databases it fronts (§4.1):
//! a source can be slow, rate-limited, or simply down for part of a
//! session. This module supplies the two halves of the failure model:
//!
//! * [`FaultInjector`] — a wrapper implementing [`AutonomousSource`] that
//!   injects *deterministic, seeded* failures and latency around any inner
//!   source. Determinism is content-based, not order-based: every decision
//!   is a pure function of the plan seed, the query's fingerprint, and the
//!   per-query attempt number, so the same mediation run produces the same
//!   faults at any `QPIAD_THREADS` worker count.
//! * [`RetryPolicy`] + [`query_with_retry`] — the query-issue boundary:
//!   capped exponential backoff with seeded jitter, applied only to
//!   transient errors ([`SourceError::is_transient`]). Failed attempts and
//!   retries are recorded on the source's meter.
//!
//! The injector exists for tests and benches; the retry boundary is what
//! the production mediator calls.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::SourceError;
use crate::query::SelectQuery;
use crate::schema::{AttrId, Schema};
use crate::source::AutonomousSource;
use crate::tuple::Tuple;

/// SplitMix64: a tiny, high-quality bit mixer. All fault and jitter
/// decisions flow through it so they are reproducible from a seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stable fingerprint of a query's content. `DefaultHasher::new()` uses
/// fixed keys, so the fingerprint is identical across threads and runs of
/// the same build — the property the injector's determinism rests on.
pub fn query_fingerprint(q: &SelectQuery) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    q.hash(&mut h);
    h.finish()
}

/// `true` with probability `rate`, decided purely by the mixed inputs.
fn decide(rate: f64, seed: u64, fingerprint: u64, attempt: u32, salt: u64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let r = splitmix64(seed ^ fingerprint.rotate_left(17) ^ (u64::from(attempt) << 1) ^ salt);
    (r as f64 / u64::MAX as f64) < rate
}

/// What faults a [`FaultInjector`] injects, and when.
///
/// All knobs compose; the default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the hashed (per query, per attempt) decisions.
    pub seed: u64,
    /// Every distinct query fails its first `n` attempts with a retryable
    /// [`SourceError::Unavailable`] before being served. With a retry
    /// policy allowing more than `n` attempts, a faulted run converges to
    /// exactly the healthy run's answers.
    pub fail_first_attempts: u32,
    /// Probability that any given (query, attempt) fails with a retryable
    /// [`SourceError::Unavailable`].
    pub transient_rate: f64,
    /// The source is hard-down: every query fails with a non-retryable
    /// [`SourceError::Unavailable`].
    pub permanent: bool,
    /// Queries constraining this attribute always fail with a retryable
    /// [`SourceError::Unavailable`] — a deterministic, order-independent
    /// way to knock out a specific slice of a rewrite plan.
    pub fail_on_attr: Option<AttrId>,
    /// Latency injected before every query is considered (for benches).
    pub latency: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            fail_first_attempts: 0,
            transient_rate: 0.0,
            permanent: false,
            fail_on_attr: None,
            latency: Duration::ZERO,
        }
    }
}

impl FaultPlan {
    /// A plan injecting nothing (the default).
    pub fn healthy() -> Self {
        FaultPlan::default()
    }

    /// Overrides the decision seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fails the first `n` attempts of every distinct query.
    pub fn with_fail_first_attempts(mut self, n: u32) -> Self {
        self.fail_first_attempts = n;
        self
    }

    /// Sets the hashed transient-failure probability.
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        self.transient_rate = rate;
        self
    }

    /// Marks the source hard-down for the whole session.
    pub fn with_permanent_outage(mut self) -> Self {
        self.permanent = true;
        self
    }

    /// Fails every query constraining the given attribute.
    pub fn with_fail_on_attr(mut self, attr: AttrId) -> Self {
        self.fail_on_attr = Some(attr);
        self
    }

    /// Injects fixed latency before each query.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }
}

/// Wraps any [`AutonomousSource`] and injects the faults a [`FaultPlan`]
/// describes. Injected failures happen *before* the inner source sees the
/// query, so they consume neither its budget nor its meter.
#[derive(Debug)]
pub struct FaultInjector<S> {
    inner: S,
    plan: FaultPlan,
    /// Per-query-fingerprint attempt counters (content-keyed so decisions
    /// are independent of thread interleaving).
    attempts: Mutex<HashMap<u64, u32>>,
    injected: Mutex<usize>,
}

impl<S: AutonomousSource> FaultInjector<S> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultInjector {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
            injected: Mutex::new(0),
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of faults injected so far.
    pub fn injected_faults(&self) -> usize {
        *self.injected.lock()
    }

    fn inject(&self, err: SourceError) -> Result<Vec<Tuple>, SourceError> {
        *self.injected.lock() += 1;
        Err(err)
    }
}

impl<S: AutonomousSource> AutonomousSource for FaultInjector<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn supports(&self, attr: AttrId) -> bool {
        self.inner.supports(attr)
    }

    fn allows_null_binding(&self) -> bool {
        self.inner.allows_null_binding()
    }

    fn wrapped(&self) -> Option<&dyn AutonomousSource> {
        Some(&self.inner)
    }

    fn query(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError> {
        if !self.plan.latency.is_zero() {
            // Injected latency rides the health module's clock (logical in
            // tests/benches) and accrues on the meter so the hedging
            // layer's slow-source detection sees it.
            crate::health::sleep(self.plan.latency);
            self.inner.note_latency(self.plan.latency);
        }
        if self.plan.permanent {
            return self.inject(SourceError::Unavailable { retryable: false });
        }
        if let Some(attr) = self.plan.fail_on_attr {
            if q.predicates().iter().any(|p| p.attr == attr) {
                return self.inject(SourceError::Unavailable { retryable: true });
            }
        }
        let fp = query_fingerprint(q);
        let attempt = {
            let mut attempts = self.attempts.lock();
            let slot = attempts.entry(fp).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            attempt
        };
        if attempt < self.plan.fail_first_attempts {
            return self.inject(SourceError::Unavailable { retryable: true });
        }
        if decide(self.plan.transient_rate, self.plan.seed, fp, attempt, 0x51) {
            return self.inject(SourceError::Unavailable { retryable: true });
        }
        self.inner.query(q)
    }

    fn reset_meter(&self) {
        self.inner.reset_meter();
        self.attempts.lock().clear();
        *self.injected.lock() = 0;
    }
}

/// A deterministic *semantic* mutation of live responses: where
/// [`FaultInjector`] makes a source fail, [`SkewPlan`] makes it lie.
///
/// Each returned tuple keeps its shape and still satisfies the issued
/// query — queries constraining the skewed attribute pass through
/// untouched, so response validation keeps the tuples and nothing trips a
/// breaker — but the skewed attribute's value is rewritten with
/// probability `rate`. That is exactly the failure mode drift detection
/// (`qpiad_learn::drift`) exists to catch: a source whose distributions
/// shifted under the mediator's mined knowledge.
///
/// Decisions are content-keyed on the tuple id (same discipline as
/// [`FaultPlan`]): a given tuple is either always skewed or never skewed
/// for a given seed, independent of query order or thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewPlan {
    /// Seed for the per-tuple decisions.
    pub seed: u64,
    /// The attribute whose values drift.
    pub attr: AttrId,
    /// The value drifted tuples report instead of their stored one.
    pub replacement: crate::value::Value,
    /// Probability that any given tuple is skewed.
    pub rate: f64,
}

impl SkewPlan {
    /// Skews `attr` to `replacement` on the given fraction of tuples.
    pub fn new(attr: AttrId, replacement: crate::value::Value, rate: f64, seed: u64) -> Self {
        SkewPlan {
            seed,
            attr,
            replacement,
            rate,
        }
    }
}

/// Wraps any [`AutonomousSource`] and applies a [`SkewPlan`] to its
/// responses. Exists for drift-detection tests and benches.
#[derive(Debug)]
pub struct SkewInjector<S> {
    inner: S,
    plan: SkewPlan,
    skewed: Mutex<usize>,
}

impl<S: AutonomousSource> SkewInjector<S> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: S, plan: SkewPlan) -> Self {
        SkewInjector {
            inner,
            plan,
            skewed: Mutex::new(0),
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The active plan.
    pub fn plan(&self) -> &SkewPlan {
        &self.plan
    }

    /// Number of tuple values skewed so far (counting repeats across
    /// queries).
    pub fn skewed_values(&self) -> usize {
        *self.skewed.lock()
    }
}

impl<S: AutonomousSource> AutonomousSource for SkewInjector<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn supports(&self, attr: AttrId) -> bool {
        self.inner.supports(attr)
    }

    fn allows_null_binding(&self) -> bool {
        self.inner.allows_null_binding()
    }

    fn wrapped(&self) -> Option<&dyn AutonomousSource> {
        Some(&self.inner)
    }

    fn query(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError> {
        let mut tuples = self.inner.query(q)?;
        // A query constraining the skewed attribute selected on the stored
        // value; rewriting it would violate the query's own predicate and
        // get the response quarantined. Real drift is invisible to such
        // queries too: they only ever see tuples that still match.
        if q.predicates().iter().any(|p| p.attr == self.plan.attr) {
            return Ok(tuples);
        }
        let mut n = 0usize;
        for t in tuples.iter_mut() {
            if self.plan.attr.index() >= t.arity() || t.values()[self.plan.attr.index()].is_null() {
                continue; // keep the source's incompleteness intact
            }
            let r = splitmix64(self.plan.seed ^ u64::from(t.id().0).rotate_left(32) ^ 0xd21f);
            if (r as f64 / u64::MAX as f64) < self.plan.rate {
                *t = t.with_value(self.plan.attr, self.plan.replacement.clone());
                n += 1;
            }
        }
        if n > 0 {
            *self.skewed.lock() += n;
        }
        Ok(tuples)
    }

    fn reset_meter(&self) {
        self.inner.reset_meter();
        *self.skewed.lock() = 0;
    }
}

/// How the mediation layer retries transient source failures.
///
/// The backoff for attempt `i` (0-based) is `base_delay · 2^i`, capped at
/// `max_delay`, plus up to 50 % seeded jitter — deterministic for a given
/// (seed, query, attempt), so parallel runs stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first issue; at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff.
    pub max_delay: Duration,
    /// Seed for the jitter; jitter is skipped when `base_delay` is zero.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Three attempts with no sleeping — safe for tests; production
    /// deployments should configure a real backoff via [`Self::with_backoff`].
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: a single attempt, fail-fast.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Overrides the attempt cap (clamped to at least 1).
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Sets the exponential backoff's base and cap.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_delay = base;
        self.max_delay = max;
        self
    }

    /// Overrides the jitter seed.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The backoff to sleep before retry number `attempt` (0-based) of the
    /// query with the given fingerprint.
    pub fn backoff(&self, fingerprint: u64, attempt: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(16));
        let capped = if self.max_delay.is_zero() {
            exp
        } else {
            exp.min(self.max_delay)
        };
        // Up to +50 % deterministic jitter so co-scheduled retries spread.
        let r = splitmix64(self.jitter_seed ^ fingerprint ^ u64::from(attempt));
        let frac = u128::from(r as u32); // uniform in 0..2^32
        let jitter_nanos = (capped.as_nanos() * frac / (u128::from(u32::MAX) + 1) / 2) as u64;
        capped + Duration::from_nanos(jitter_nanos)
    }
}

/// Issues a query through the retry boundary: transient errors are retried
/// under `policy` with capped, jittered backoff; every failed attempt and
/// every retry is recorded on the source's meter. The final error (if any)
/// is returned unchanged for the caller's degradation logic.
pub fn query_with_retry(
    source: &dyn AutonomousSource,
    q: &SelectQuery,
    policy: &RetryPolicy,
) -> Result<Vec<Tuple>, SourceError> {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        match source.query(q) {
            Ok(tuples) => return Ok(tuples),
            Err(e) => {
                if e.is_failure() {
                    source.note_failure();
                }
                if e.is_transient() && attempt + 1 < max_attempts {
                    source.note_retries(1);
                    let delay = policy.backoff(query_fingerprint(q), attempt);
                    // Backoff rides the injectable clock: logical time in
                    // tests/benches, so par workers never really block.
                    crate::health::sleep(delay);
                    attempt += 1;
                    continue;
                }
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::relation::Relation;
    use crate::schema::{AttrType, Schema};
    use crate::source::WebSource;
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
        let rows = [("A4", "Convt"), ("Z4", "Convt"), ("Civic", "Sedan")];
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(i, (m, b))| Tuple::new(TupleId(i as u32), vec![Value::str(*m), Value::str(*b)]))
            .collect();
        Relation::new(schema, tuples)
    }

    fn model_query(src: &dyn AutonomousSource) -> SelectQuery {
        let model = src.schema().expect_attr("model");
        SelectQuery::new(vec![Predicate::eq(model, "Z4")])
    }

    #[test]
    fn healthy_plan_is_transparent() {
        let src = FaultInjector::new(WebSource::new("cars", relation()), FaultPlan::healthy());
        let q = model_query(&src);
        assert_eq!(src.query(&q).unwrap().len(), 1);
        assert_eq!(src.injected_faults(), 0);
        assert_eq!(src.meter().queries, 1);
    }

    #[test]
    fn fail_first_attempts_then_serve() {
        let plan = FaultPlan::healthy().with_fail_first_attempts(2);
        let src = FaultInjector::new(WebSource::new("cars", relation()), plan);
        let q = model_query(&src);
        assert_eq!(
            src.query(&q),
            Err(SourceError::Unavailable { retryable: true })
        );
        assert_eq!(
            src.query(&q),
            Err(SourceError::Unavailable { retryable: true })
        );
        assert_eq!(src.query(&q).unwrap().len(), 1);
        assert_eq!(src.injected_faults(), 2);
        // Injected failures never reached the inner source.
        assert_eq!(src.meter().queries, 1);
        assert_eq!(src.meter().rejected, 0);
    }

    #[test]
    fn with_latency_accrues_on_the_meter_per_query() {
        // Injected latency must be visible to the hedging layer via the
        // meter, whether the query succeeds or is failed by the plan.
        let lat = Duration::from_millis(3);
        let plan = FaultPlan::healthy()
            .with_latency(lat)
            .with_fail_first_attempts(1);
        let src = FaultInjector::new(WebSource::new("cars", relation()), plan);
        let q = model_query(&src);
        assert!(src.query(&q).is_err());
        assert!(src.query(&q).is_ok());
        assert_eq!(src.meter().latency_ns, 2 * lat.as_nanos() as u64);
    }

    #[test]
    fn attempt_counters_are_per_query_content() {
        let plan = FaultPlan::healthy().with_fail_first_attempts(1);
        let src = FaultInjector::new(WebSource::new("cars", relation()), plan);
        let body = src.schema().expect_attr("body");
        let q1 = model_query(&src);
        let q2 = SelectQuery::new(vec![Predicate::eq(body, "Sedan")]);
        // Each distinct query fails its own first attempt, regardless of
        // global issue order.
        assert!(src.query(&q1).is_err());
        assert!(src.query(&q2).is_err());
        assert!(src.query(&q1).is_ok());
        assert!(src.query(&q2).is_ok());
    }

    #[test]
    fn permanent_outage_never_recovers() {
        let plan = FaultPlan::healthy().with_permanent_outage();
        let src = FaultInjector::new(WebSource::new("cars", relation()), plan);
        let q = model_query(&src);
        for _ in 0..5 {
            assert_eq!(
                src.query(&q),
                Err(SourceError::Unavailable { retryable: false })
            );
        }
        assert_eq!(src.meter().queries, 0);
    }

    #[test]
    fn fail_on_attr_targets_matching_queries_only() {
        let rel = relation();
        let model = rel.schema().expect_attr("model");
        let body = rel.schema().expect_attr("body");
        let plan = FaultPlan::healthy().with_fail_on_attr(model);
        let src = FaultInjector::new(WebSource::new("cars", rel), plan);
        let on_model = SelectQuery::new(vec![Predicate::eq(model, "Z4")]);
        let on_body = SelectQuery::new(vec![Predicate::eq(body, "Sedan")]);
        assert!(src.query(&on_model).is_err());
        assert!(src.query(&on_body).is_ok());
    }

    #[test]
    fn hashed_rates_are_deterministic() {
        let plan = FaultPlan::healthy().with_seed(7).with_transient_rate(0.5);
        let mk = || FaultInjector::new(WebSource::new("cars", relation()), plan);
        let a = mk();
        let b = mk();
        let q = model_query(&a);
        for _ in 0..20 {
            assert_eq!(a.query(&q).is_ok(), b.query(&q).is_ok());
        }
        assert_eq!(a.injected_faults(), b.injected_faults());
        // A 50 % rate over 20 attempts virtually surely injects something.
        assert!(a.injected_faults() > 0);
    }

    #[test]
    fn retry_recovers_transient_failures_and_meters_them() {
        let plan = FaultPlan::healthy().with_fail_first_attempts(2);
        let src = FaultInjector::new(WebSource::new("cars", relation()), plan);
        let q = model_query(&src);
        let policy = RetryPolicy::default().with_max_attempts(4);
        let tuples = query_with_retry(&src, &q, &policy).unwrap();
        assert_eq!(tuples.len(), 1);
        let m = src.meter();
        assert_eq!(m.retries, 2);
        assert_eq!(m.failures, 2);
        assert_eq!(m.queries, 1);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let plan = FaultPlan::healthy().with_fail_first_attempts(10);
        let src = FaultInjector::new(WebSource::new("cars", relation()), plan);
        let q = model_query(&src);
        let policy = RetryPolicy::default().with_max_attempts(3);
        assert_eq!(
            query_with_retry(&src, &q, &policy),
            Err(SourceError::Unavailable { retryable: true })
        );
        let m = src.meter();
        assert_eq!(m.retries, 2);
        assert_eq!(m.failures, 3);
    }

    #[test]
    fn retry_does_not_touch_non_transient_errors() {
        let src = WebSource::new("cars", relation());
        let body = src.schema().expect_attr("body");
        let q = SelectQuery::new(vec![Predicate::is_null(body)]);
        let policy = RetryPolicy::default().with_max_attempts(5);
        assert!(matches!(
            query_with_retry(&src, &q, &policy),
            Err(SourceError::NullBindingUnsupported { .. })
        ));
        let m = src.meter();
        assert_eq!(m.retries, 0);
        assert_eq!(m.failures, 0); // a rejection, not a failure
        assert_eq!(m.rejected, 1); // exactly one issue, no retries
    }

    #[test]
    fn backoff_grows_is_capped_and_deterministic() {
        let policy = RetryPolicy::default()
            .with_backoff(Duration::from_millis(10), Duration::from_millis(35));
        let d0 = policy.backoff(42, 0);
        let d1 = policy.backoff(42, 1);
        let d5 = policy.backoff(42, 5);
        assert!(d0 >= Duration::from_millis(10) && d0 <= Duration::from_millis(15));
        assert!(d1 >= Duration::from_millis(20) && d1 <= Duration::from_millis(30));
        // Capped at max_delay (+50 % jitter headroom).
        assert!(d5 >= Duration::from_millis(35) && d5 <= Duration::from_millis(53));
        assert_eq!(policy.backoff(42, 3), policy.backoff(42, 3));
        // Zero base ⇒ no sleeping at all.
        assert_eq!(RetryPolicy::default().backoff(42, 3), Duration::ZERO);
    }

    #[test]
    fn skew_injector_mutates_deterministically_by_tuple_id() {
        let rel = relation();
        let body = rel.schema().expect_attr("body");
        let model = rel.schema().expect_attr("model");
        let plan = SkewPlan::new(body, Value::str("SUV"), 1.0, 11);
        let src = SkewInjector::new(WebSource::new("cars", rel), plan);

        // A query not constraining `body` sees every body skewed...
        let q = SelectQuery::new(vec![Predicate::eq(model, "Z4")]);
        let res = src.query(&q).unwrap();
        assert!(res
            .iter()
            .all(|t| t.values()[body.index()] == Value::str("SUV")));
        assert_eq!(src.skewed_values(), 1);

        // ...and repeating the query skews the same tuples the same way.
        let again = src.query(&q).unwrap();
        assert_eq!(res, again);
    }

    #[test]
    fn skew_injector_leaves_constrained_attributes_alone() {
        // Queries binding the skewed attribute must see consistent, valid
        // responses — drift models a shifted distribution, not a source
        // that contradicts its own predicate evaluation.
        let rel = relation();
        let body = rel.schema().expect_attr("body");
        let plan = SkewPlan::new(body, Value::str("SUV"), 1.0, 11);
        let src = SkewInjector::new(WebSource::new("cars", rel), plan);
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let res = src.query(&q).unwrap();
        assert_eq!(res.len(), 2);
        assert!(res
            .iter()
            .all(|t| t.values()[body.index()] == Value::str("Convt")));
        assert_eq!(src.skewed_values(), 0);
    }

    #[test]
    fn skew_rate_partitions_tuples_stably() {
        let rel = relation();
        let body = rel.schema().expect_attr("body");
        let mk = |seed| {
            SkewInjector::new(
                WebSource::new("cars", relation()),
                SkewPlan::new(body, Value::str("SUV"), 0.5, seed),
            )
        };
        let a = mk(3);
        let b = mk(3);
        let q = SelectQuery::all();
        assert_eq!(a.query(&q).unwrap(), b.query(&q).unwrap());
        let _ = rel;
    }

    #[test]
    fn reset_meter_clears_fault_state() {
        let plan = FaultPlan::healthy().with_fail_first_attempts(1);
        let src = FaultInjector::new(WebSource::new("cars", relation()), plan);
        let q = model_query(&src);
        assert!(src.query(&q).is_err());
        assert!(src.query(&q).is_ok());
        src.reset_meter();
        assert_eq!(src.injected_faults(), 0);
        // Attempt history cleared: the first attempt fails again.
        assert!(src.query(&q).is_err());
    }
}
