//! Deterministic chaos scheduling for soak tests.
//!
//! The fault model built up over the robustness PRs — transient outages
//! ([`crate::fault::FaultInjector`]), semantic skew
//! ([`crate::fault::SkewInjector`]), knowledge corruption, breaker trips —
//! was exercised one mechanism at a time. A production mediator meets all
//! of them *composed*, concurrently, under tenant floods. This module
//! supplies the composition layer:
//!
//! * [`ChaosSchedule`] — a seeded, **pure** function from a logical pass
//!   number to the chaos active during that pass ([`PassChaos`]): which
//!   members are down, which are skewing their responses, which have their
//!   persisted knowledge corrupted, which breakers are force-tripped, and
//!   how large the tenant flood is. Purity is the load-bearing property:
//!   the schedule holds no mutable state, so the same (seed, pass) always
//!   yields the same chaos regardless of thread count or query order —
//!   the whole soak replays byte-identical at `QPIAD_THREADS` 1 vs 8.
//! * [`ChaosSource`] — a source wrapper that *enacts* the schedule's
//!   member-level chaos (outages and skew) at query time, reading the
//!   current pass from a shared counter the harness advances. Harness-level
//!   events (knowledge corruption, breaker trips, floods) are listed in
//!   [`PassChaos`] for the driving test to apply through the lifecycle
//!   APIs — they mutate mediator state, which a source wrapper must not.
//!
//! Decisions use the same splitmix64 discipline as [`crate::fault`]:
//! content-keyed (seed, member, pass), never order-keyed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::SourceError;
use crate::query::SelectQuery;
use crate::schema::{AttrId, Schema};
use crate::source::{AutonomousSource, SourceMeter};
use crate::tuple::Tuple;
use crate::value::Value;

/// SplitMix64 (same mixer as [`crate::fault`], duplicated privately so the
/// schedule stays decoupled from the injector internals).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `true` with probability `rate`, pure in (seed, member, pass, salt).
fn decide(rate: f64, seed: u64, member: u64, pass: u64, salt: u64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let r = splitmix64(seed ^ member.rotate_left(23) ^ pass.rotate_left(47) ^ salt);
    (r as f64 / u64::MAX as f64) < rate
}

/// What chaos a [`ChaosSchedule`] composes, and how often.
///
/// All rates are per (member, pass) except `flood_rate`, which is per
/// pass. The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for every hashed decision.
    pub seed: u64,
    /// Number of network members the schedule covers.
    pub members: usize,
    /// Probability a member is hard-down for a given pass.
    pub outage_rate: f64,
    /// Probability a member skews its responses for a given pass.
    pub skew_rate: f64,
    /// Probability a member's persisted knowledge is corrupted at the
    /// start of a given pass (harness-applied).
    pub corrupt_rate: f64,
    /// Probability a member's breaker is force-tripped at the start of a
    /// given pass (harness-applied).
    pub trip_rate: f64,
    /// Probability a member's knowledge refresh fails to persist during a
    /// given pass (harness-applied: the driving test arms a persist fault
    /// on the knowledge store before running maintenance).
    pub persist_fail_rate: f64,
    /// Probability a given pass carries a tenant flood.
    pub flood_rate: f64,
    /// How many extra flood requests a flooding pass carries.
    pub flood_size: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            members: 0,
            outage_rate: 0.0,
            skew_rate: 0.0,
            corrupt_rate: 0.0,
            trip_rate: 0.0,
            persist_fail_rate: 0.0,
            flood_rate: 0.0,
            flood_size: 0,
        }
    }
}

impl ChaosConfig {
    /// A plan injecting nothing, over `members` members.
    pub fn calm(members: usize) -> Self {
        ChaosConfig {
            members,
            ..ChaosConfig::default()
        }
    }

    /// Overrides the decision seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-(member, pass) outage probability.
    pub fn with_outage_rate(mut self, rate: f64) -> Self {
        self.outage_rate = rate;
        self
    }

    /// Sets the per-(member, pass) response-skew probability.
    pub fn with_skew_rate(mut self, rate: f64) -> Self {
        self.skew_rate = rate;
        self
    }

    /// Sets the per-(member, pass) knowledge-corruption probability.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Sets the per-(member, pass) breaker-trip probability.
    pub fn with_trip_rate(mut self, rate: f64) -> Self {
        self.trip_rate = rate;
        self
    }

    /// Sets the per-(member, pass) refresh-persist-failure probability.
    pub fn with_persist_fail_rate(mut self, rate: f64) -> Self {
        self.persist_fail_rate = rate;
        self
    }

    /// Sets the per-pass tenant-flood probability and flood size.
    pub fn with_flood(mut self, rate: f64, size: usize) -> Self {
        self.flood_rate = rate;
        self.flood_size = size;
        self
    }
}

/// The chaos active during one logical pass, fully resolved.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassChaos {
    /// The pass this describes.
    pub pass: u64,
    /// Members hard-down for the whole pass (enacted by [`ChaosSource`]).
    pub outages: Vec<usize>,
    /// Members skewing their responses this pass (enacted by
    /// [`ChaosSource`]).
    pub skewed: Vec<usize>,
    /// Members whose persisted knowledge the harness should corrupt
    /// before this pass.
    pub corrupted: Vec<usize>,
    /// Members whose breakers the harness should force-trip before this
    /// pass.
    pub tripped: Vec<usize>,
    /// Members whose knowledge refresh should fail to persist this pass
    /// (harness-applied via the store's fault injection).
    pub persist_failing: Vec<usize>,
    /// Extra flood requests this pass carries (0 = no flood).
    pub flood: usize,
}

impl PassChaos {
    /// `true` iff this pass injects nothing at all.
    pub fn is_calm(&self) -> bool {
        self.outages.is_empty()
            && self.skewed.is_empty()
            && self.corrupted.is_empty()
            && self.tripped.is_empty()
            && self.persist_failing.is_empty()
            && self.flood == 0
    }
}

/// A seeded, pure pass-number → chaos function. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    config: ChaosConfig,
}

impl ChaosSchedule {
    /// Builds the schedule for `config`.
    pub fn new(config: ChaosConfig) -> Self {
        ChaosSchedule { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// `true` iff `member` is down for `pass`.
    pub fn is_out(&self, member: usize, pass: u64) -> bool {
        decide(
            self.config.outage_rate,
            self.config.seed,
            member as u64,
            pass,
            0xa1,
        )
    }

    /// `true` iff `member` skews its responses during `pass`.
    pub fn is_skewed(&self, member: usize, pass: u64) -> bool {
        decide(
            self.config.skew_rate,
            self.config.seed,
            member as u64,
            pass,
            0xb2,
        )
    }

    /// `true` iff `member`'s knowledge should be corrupted before `pass`.
    pub fn is_corrupted(&self, member: usize, pass: u64) -> bool {
        decide(
            self.config.corrupt_rate,
            self.config.seed,
            member as u64,
            pass,
            0xc3,
        )
    }

    /// `true` iff `member`'s breaker should be tripped before `pass`.
    pub fn is_tripped(&self, member: usize, pass: u64) -> bool {
        decide(
            self.config.trip_rate,
            self.config.seed,
            member as u64,
            pass,
            0xd4,
        )
    }

    /// `true` iff `member`'s knowledge refresh should fail to persist
    /// during `pass`.
    pub fn is_persist_failing(&self, member: usize, pass: u64) -> bool {
        decide(
            self.config.persist_fail_rate,
            self.config.seed,
            member as u64,
            pass,
            0xf6,
        )
    }

    /// Flood size for `pass` (0 = no flood).
    pub fn flood(&self, pass: u64) -> usize {
        if decide(self.config.flood_rate, self.config.seed, 0, pass, 0xe5) {
            self.config.flood_size
        } else {
            0
        }
    }

    /// Resolves everything active during `pass`.
    pub fn pass(&self, pass: u64) -> PassChaos {
        let mut chaos = PassChaos {
            pass,
            flood: self.flood(pass),
            ..PassChaos::default()
        };
        for m in 0..self.config.members {
            if self.is_out(m, pass) {
                chaos.outages.push(m);
            }
            if self.is_skewed(m, pass) {
                chaos.skewed.push(m);
            }
            if self.is_corrupted(m, pass) {
                chaos.corrupted.push(m);
            }
            if self.is_tripped(m, pass) {
                chaos.tripped.push(m);
            }
            if self.is_persist_failing(m, pass) {
                chaos.persist_failing.push(m);
            }
        }
        chaos
    }
}

/// Shared pass counter a harness advances and every [`ChaosSource`] reads.
///
/// The harness bumps it (sequentially, between passes) with
/// [`PassCell::advance`]; sources read it at query time. Because the
/// counter only moves while no query is in flight, every decision inside a
/// pass is a pure function of (seed, member, pass, query) — thread-count
/// independent.
#[derive(Debug, Default)]
pub struct PassCell {
    pass: AtomicU64,
}

impl PassCell {
    /// A counter starting at pass 0.
    pub fn new() -> Arc<Self> {
        Arc::new(PassCell::default())
    }

    /// The current pass.
    pub fn current(&self) -> u64 {
        self.pass.load(Ordering::Acquire)
    }

    /// Sets the current pass (harness-only, between passes).
    pub fn set(&self, pass: u64) {
        self.pass.store(pass, Ordering::Release);
    }

    /// Advances to the next pass and returns it.
    pub fn advance(&self) -> u64 {
        self.pass.fetch_add(1, Ordering::AcqRel) + 1
    }
}

/// Wraps an [`AutonomousSource`] and enacts a [`ChaosSchedule`]'s
/// member-level chaos: during an outage pass every query fails with a
/// retryable [`SourceError::Unavailable`]; during a skew pass the
/// configured attribute's values are rewritten (content-keyed by tuple id,
/// same discipline as [`crate::fault::SkewInjector`] — queries
/// constraining the attribute pass through untouched so responses never
/// contradict their own predicates).
#[derive(Debug)]
pub struct ChaosSource<S> {
    inner: S,
    member: usize,
    schedule: Arc<ChaosSchedule>,
    pass: Arc<PassCell>,
    skew: Option<(AttrId, Value)>,
}

impl<S: AutonomousSource> ChaosSource<S> {
    /// Wraps `inner` as member `member` under `schedule`, reading the
    /// current pass from `pass`.
    pub fn new(inner: S, member: usize, schedule: Arc<ChaosSchedule>, pass: Arc<PassCell>) -> Self {
        ChaosSource {
            inner,
            member,
            schedule,
            pass,
            skew: None,
        }
    }

    /// Configures which attribute skew passes rewrite, and to what.
    pub fn with_skew(mut self, attr: AttrId, replacement: Value) -> Self {
        self.skew = Some((attr, replacement));
        self
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: AutonomousSource> AutonomousSource for ChaosSource<S> {
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

    fn has_query_budget(&self) -> bool {
        self.inner.has_query_budget()
    }

    fn query(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError> {
        let pass = self.pass.current();
        if self.schedule.is_out(self.member, pass) {
            return Err(SourceError::Unavailable { retryable: true });
        }
        let mut tuples = self.inner.query(q)?;
        if let Some((attr, replacement)) = &self.skew {
            if self.schedule.is_skewed(self.member, pass)
                && !q.predicates().iter().any(|p| p.attr == *attr)
            {
                for t in tuples.iter_mut() {
                    if attr.index() >= t.arity() || t.values()[attr.index()].is_null() {
                        continue; // keep the source's incompleteness intact
                    }
                    let r = splitmix64(
                        self.schedule.config.seed ^ u64::from(t.id().0).rotate_left(32) ^ 0x5caf,
                    );
                    if (r as f64 / u64::MAX as f64) < 0.5 {
                        *t = t.with_value(*attr, replacement.clone());
                    }
                }
            }
        }
        Ok(tuples)
    }

    fn meter(&self) -> SourceMeter {
        self.inner.meter()
    }

    fn reset_meter(&self) {
        self.inner.reset_meter();
    }

    fn note_retries(&self, n: usize) {
        self.inner.note_retries(n);
    }

    fn note_failure(&self) {
        self.inner.note_failure();
    }

    fn note_degraded(&self) {
        self.inner.note_degraded();
    }

    fn note_quarantined(&self, n: usize) {
        self.inner.note_quarantined(n);
    }

    fn note_hedge(&self) {
        self.inner.note_hedge();
    }

    fn note_breaker_skip(&self) {
        self.inner.note_breaker_skip();
    }

    fn note_shed(&self, n: usize) {
        self.inner.note_shed(n);
    }

    fn note_deadline_refused(&self) {
        self.inner.note_deadline_refused();
    }

    fn note_knowledge_unavailable(&self) {
        self.inner.note_knowledge_unavailable();
    }

    fn note_drift(&self) {
        self.inner.note_drift();
    }

    fn note_refresh(&self) {
        self.inner.note_refresh();
    }

    fn note_refresh_failure(&self) {
        self.inner.note_refresh_failure();
    }

    fn note_latency(&self, d: Duration) {
        self.inner.note_latency(d);
    }

    fn note_plan_cache_hit(&self) {
        self.inner.note_plan_cache_hit();
    }

    fn note_plan_cache_miss(&self) {
        self.inner.note_plan_cache_miss();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::relation::Relation;
    use crate::schema::AttrType;
    use crate::source::WebSource;
    use crate::tuple::TupleId;

    fn stormy() -> ChaosConfig {
        ChaosConfig::calm(4)
            .with_seed(42)
            .with_outage_rate(0.3)
            .with_skew_rate(0.2)
            .with_corrupt_rate(0.1)
            .with_trip_rate(0.1)
            .with_flood(0.25, 8)
    }

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

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_pass() {
        let a = ChaosSchedule::new(stormy());
        let b = ChaosSchedule::new(stormy());
        for pass in 0..100 {
            assert_eq!(a.pass(pass), b.pass(pass));
        }
        // And a different seed yields a different storm.
        let c = ChaosSchedule::new(stormy().with_seed(43));
        assert!((0..100).any(|p| a.pass(p) != c.pass(p)));
    }

    #[test]
    fn all_event_kinds_fire_over_a_long_storm() {
        let s = ChaosSchedule::new(stormy());
        let mut outages = 0;
        let mut skews = 0;
        let mut corruptions = 0;
        let mut trips = 0;
        let mut floods = 0;
        for pass in 0..200 {
            let c = s.pass(pass);
            outages += c.outages.len();
            skews += c.skewed.len();
            corruptions += c.corrupted.len();
            trips += c.tripped.len();
            floods += usize::from(c.flood > 0);
        }
        assert!(outages > 0 && skews > 0 && corruptions > 0 && trips > 0 && floods > 0);
    }

    #[test]
    fn calm_config_injects_nothing() {
        let s = ChaosSchedule::new(ChaosConfig::calm(4));
        for pass in 0..50 {
            assert!(s.pass(pass).is_calm());
        }
    }

    #[test]
    fn chaos_source_enacts_outages_per_pass() {
        let schedule = Arc::new(ChaosSchedule::new(
            ChaosConfig::calm(1).with_seed(7).with_outage_rate(0.5),
        ));
        let pass = PassCell::new();
        let src = ChaosSource::new(
            WebSource::new("cars", relation()),
            0,
            schedule.clone(),
            pass.clone(),
        );
        let model = src.schema().expect_attr("model");
        let q = SelectQuery::new(vec![Predicate::eq(model, "Z4")]);
        let mut saw_outage = false;
        let mut saw_healthy = false;
        for p in 0..50 {
            pass.set(p);
            let out = schedule.is_out(0, p);
            match src.query(&q) {
                Err(SourceError::Unavailable { retryable: true }) => {
                    assert!(out);
                    saw_outage = true;
                }
                Ok(tuples) => {
                    assert!(!out);
                    assert_eq!(tuples.len(), 1);
                    saw_healthy = true;
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert!(saw_outage && saw_healthy);
    }

    #[test]
    fn chaos_source_skew_spares_constrained_attributes() {
        let schedule = Arc::new(ChaosSchedule::new(
            ChaosConfig::calm(1).with_seed(3).with_skew_rate(1.0),
        ));
        let pass = PassCell::new();
        let rel = relation();
        let body = rel.schema().expect_attr("body");
        let model = rel.schema().expect_attr("model");
        let src = ChaosSource::new(WebSource::new("cars", rel), 0, schedule, pass.clone())
            .with_skew(body, Value::str("SUV"));
        pass.set(1);
        // A query constraining the skewed attribute sees stored values.
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let res = src.query(&q).unwrap();
        assert!(res
            .iter()
            .all(|t| t.values()[body.index()] == Value::str("Convt")));
        // A query on another attribute may see skewed bodies, and the skew
        // replays identically for the same pass.
        let q = SelectQuery::new(vec![Predicate::eq(model, "Z4")]);
        assert_eq!(src.query(&q).unwrap(), src.query(&q).unwrap());
    }
}
