//! Fault-tolerant mediation: flaky autonomous sources must not poison the
//! network answer.
//!
//! Each scenario wraps sources in [`FaultInjector`]s with seeded,
//! content-keyed fault plans and checks three properties:
//!
//! 1. **Convergence** — transient failures that resolve within the retry
//!    budget leave the answer byte-identical to a healthy run.
//! 2. **Isolation** — a permanently-down member contributes a recorded
//!    [`SourceOutcome::Failed`] while every other member's contribution is
//!    byte-identical to the healthy run (the pre-fault-tolerance mediator
//!    aborted the whole `answer` call here).
//! 3. **Determinism** — fault decisions are keyed on query content, not
//!    call order, so every scenario replays identically at 1 and 8 worker
//!    threads (the same discipline `QPIAD_THREADS` enforces elsewhere).
//!
//! On top sits the **availability layer**: per-source circuit breakers
//! (`HealthRegistry`), deadline/attempt budgets (`QueryBudget`), hedged
//! queries, and response quarantine. Those scenarios check a fourth
//! property:
//!
//! 4. **Bounded damage** — a permanently-down source costs at most
//!    `failure_threshold` probe attempts across an entire multi-rewrite
//!    query, and every breaker/hedge/quarantine decision replays
//!    byte-identically at 1 and 8 worker threads.
//!
//! The thread override is process-global; tests serialize on a mutex and
//! restore the default on drop, mirroring `parallel_determinism.rs`.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qpiad::core::network::{MediatorNetwork, NetworkAnswer, SourceOutcome};
use qpiad::core::{par, QpiadConfig};
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{
    health, AttrId, AutonomousSource, BreakerConfig, BreakerState, FaultInjector, FaultPlan,
    HealthRegistry, Predicate, QueryBudget, Relation, RetryPolicy, Schema, SelectQuery,
    SourceError, SourceMeter, Tuple, WebSource,
};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};
use qpiad::learn::persist::StatsSnapshot;

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Holds the override lock and resets the pool size when dropped.
struct PinnedPool<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl PinnedPool<'_> {
    fn acquire() -> Self {
        PinnedPool(OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for PinnedPool<'_> {
    fn drop(&mut self) {
        par::set_thread_override(None);
    }
}

struct Fixture {
    /// cars.com-like: full schema, incomplete, mined statistics.
    cars_ed: Relation,
    cars_stats: SourceStats,
    /// yahoo_autos-like: local schema without body_style.
    yahoo_local: Relation,
    /// auctions-like: full schema, no statistics (certain answers only).
    auctions_ed: Relation,
}

fn fixture() -> Fixture {
    let cars_gd = CarsConfig::default().with_rows(5_000).generate(91);
    let global = cars_gd.schema().clone();
    let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(1));
    let cars_stats = SourceStats::mine(
        &uniform_sample(&cars_ed, 0.10, 2),
        cars_ed.len(),
        &MiningConfig::default(),
    );

    let keep: Vec<_> = global
        .attr_ids()
        .filter(|a| global.attr(*a).name() != "body_style")
        .collect();
    let yahoo_local = CarsConfig::default()
        .with_rows(5_000)
        .generate(92)
        .project_to("yahoo_autos", &keep);

    let auctions_gd = CarsConfig::default().with_rows(5_000).generate(93);
    let (auctions_ed, _) = corrupt(&auctions_gd, &CorruptionConfig::default().with_seed(3));
    let auctions_ed = auctions_ed.project_to("auctions", &global.attr_ids().collect::<Vec<_>>());

    Fixture {
        cars_ed,
        cars_stats,
        yahoo_local,
        auctions_ed,
    }
}

/// Everything order- and rank-sensitive about a network answer, with float
/// bits compared exactly, one signature per member. Outcomes (including
/// degradation accounting) are part of the signature.
fn per_part(answer: &NetworkAnswer) -> Vec<Vec<String>> {
    answer
        .per_source
        .iter()
        .map(|part| {
            std::iter::once(format!(
                "source {} via={:?} outcome={:?}",
                part.source, part.via_correlated, part.outcome
            ))
            .chain(part.certain.iter().map(|t| format!("certain {:?}", t.id())))
            .chain(part.possible.iter().map(|r| {
                format!(
                    "possible {:?} conf={:016x} prec={:016x} q={}",
                    r.tuple.id(),
                    r.confidence.to_bits(),
                    r.query_precision.to_bits(),
                    r.query_index
                )
            }))
            .collect()
        })
        .collect()
}

fn signature(answer: &NetworkAnswer) -> Vec<String> {
    per_part(answer).into_iter().flatten().collect()
}

/// Answers `query` over (cars + yahoo + auctions), with each source first
/// passed through `wrap` (identity plans make a healthy network).
fn run_network(
    f: &Fixture,
    query: &SelectQuery,
    retry: RetryPolicy,
    plans: [FaultPlan; 3],
) -> (NetworkAnswer, [qpiad::db::SourceMeter; 3]) {
    let global = f.cars_ed.schema().clone();
    let cars = FaultInjector::new(WebSource::new("cars.com", f.cars_ed.clone()), plans[0]);
    let yahoo = FaultInjector::new(
        WebSource::new("yahoo_autos", f.yahoo_local.clone()),
        plans[1],
    );
    let auctions = FaultInjector::new(WebSource::new("auctions", f.auctions_ed.clone()), plans[2]);
    let network = MediatorNetwork::new(global, QpiadConfig::default().with_k(8).with_retry(retry))
        .add_supporting(&cars, f.cars_stats.clone())
        .add_deficient(&yahoo)
        .add_deficient(&auctions);
    let answer = network.answer(query).expect("mediation never aborts");
    (answer, [cars.meter(), yahoo.meter(), auctions.meter()])
}

#[test]
fn transient_failures_with_retries_converge_to_the_healthy_answer() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    let body = f.cars_ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    // Every distinct query fails its first two attempts on every source; a
    // three-attempt policy absorbs all of it.
    let flaky = FaultPlan::healthy().with_fail_first_attempts(2);
    let retry = RetryPolicy::default().with_max_attempts(3);

    let mut signatures = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let (healthy, healthy_meters) =
            run_network(&f, &query, RetryPolicy::none(), [FaultPlan::healthy(); 3]);
        assert!(healthy.fully_healthy());
        assert_eq!(healthy_meters[0].retries, 0);

        let (faulted, meters) = run_network(&f, &query, retry, [flaky; 3]);
        assert!(
            faulted.fully_healthy(),
            "retries must absorb the transient outages: {:?}",
            faulted.failed_sources()
        );
        assert_eq!(signature(&healthy), signature(&faulted));
        // Every member was retried and every failed attempt was metered.
        for m in &meters {
            assert!(m.retries > 0, "retries went unmetered: {m:?}");
            assert_eq!(
                m.failures, m.retries,
                "each absorbed failure costs one retry"
            );
            assert_eq!(m.degraded, 0);
        }
        signatures.push(signature(&faulted));
    }
    assert_eq!(
        signatures[0], signatures[1],
        "fault decisions must be content-keyed"
    );
}

#[test]
fn permanent_outage_is_isolated_to_the_failed_member() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    // Query on an attribute every source supports: each member answers
    // directly, so the downed member's base retrieval fails outright. This
    // is the scenario the pre-fault-tolerance mediator turned into an `Err`
    // for the *whole* network.
    let model = f.cars_ed.schema().expect_attr("model");
    let query = SelectQuery::new(vec![Predicate::eq(model, "Civic")]);

    let down = FaultPlan::healthy().with_permanent_outage();

    let mut signatures = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let (healthy, _) = run_network(&f, &query, RetryPolicy::none(), [FaultPlan::healthy(); 3]);
        assert!(healthy.fully_healthy());
        assert!(healthy.certain_count() > 0);

        let (faulted, meters) = run_network(
            &f,
            &query,
            RetryPolicy::default().with_max_attempts(3),
            [FaultPlan::healthy(), FaultPlan::healthy(), down],
        );

        // The network still answers, with the outage recorded...
        let failed = faulted.failed_sources();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "auctions");
        assert!(matches!(
            failed[0].1,
            SourceError::Unavailable { retryable: false }
        ));
        assert!(faulted.per_source[2].outcome.is_failed());
        assert!(faulted.per_source[2].certain.is_empty());

        // ...and the healthy members' contributions are byte-identical to
        // the healthy run's.
        assert_eq!(per_part(&healthy)[..2], per_part(&faulted)[..2]);
        for part in &faulted.per_source[..2] {
            assert!(part.outcome.is_healthy());
        }
        assert_eq!(
            faulted.certain_count(),
            healthy.certain_count() - healthy.per_source[2].certain.len()
        );

        // A non-retryable outage is metered as one failure, zero retries.
        assert_eq!(meters[2].failures, 1);
        assert_eq!(meters[2].retries, 0);
        assert_eq!(meters[2].degraded, 1);
        signatures.push(signature(&faulted));
    }
    assert_eq!(signatures[0], signatures[1]);
}

#[test]
fn failed_rewrites_degrade_the_member_and_keep_its_certain_answers() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    let schema = f.cars_ed.schema().clone();
    let body = schema.expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    // Knock out every rewritten query that constrains the determining-set
    // attribute while the base query (on body_style) still succeeds.
    let dtr = f
        .cars_stats
        .determining_set(body)
        .expect("body_style has an AFD")
        .to_vec();
    let target = dtr[0];

    let mut signatures = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let (healthy, _) = run_network(&f, &query, RetryPolicy::none(), [FaultPlan::healthy(); 3]);
        let (faulted, meters) = run_network(
            &f,
            &query,
            RetryPolicy::default().with_max_attempts(2),
            [
                FaultPlan::healthy().with_fail_on_attr(target),
                FaultPlan::healthy(),
                FaultPlan::healthy(),
            ],
        );

        // cars.com is degraded, not failed: its certain answers are intact
        // and the dropped F-measure mass is accounted.
        assert!(!healthy.per_source[0].possible.is_empty());
        let part = &faulted.per_source[0];
        let SourceOutcome::Degraded(d) = &part.outcome else {
            panic!("expected a degraded outcome, got {:?}", part.outcome);
        };
        assert!(d.dropped_rewrites > 0);
        assert!(d.dropped_fmeasure > 0.0);
        assert!(matches!(
            d.last_error,
            Some(SourceError::Unavailable { retryable: true })
        ));
        assert_eq!(
            part.certain.iter().map(|t| t.id()).collect::<Vec<_>>(),
            healthy.per_source[0]
                .certain
                .iter()
                .map(|t| t.id())
                .collect::<Vec<_>>(),
        );
        assert!(part.possible.len() < healthy.per_source[0].possible.len());
        assert_eq!(faulted.degraded_count(), 1);
        assert!(!faulted.fully_healthy());
        assert!(faulted.failed_sources().is_empty());

        // The degradation and the exhausted retries are metered.
        assert_eq!(meters[0].degraded, 1);
        assert!(meters[0].failures > 0);
        assert!(
            meters[0].retries > 0,
            "retryable faults must be retried before dropping"
        );

        // The other members are untouched.
        assert_eq!(per_part(&healthy)[1..], per_part(&faulted)[1..]);
        signatures.push(signature(&faulted));
    }
    assert_eq!(signatures[0], signatures[1]);
}

#[test]
fn retry_exhaustion_fails_the_member_rather_than_the_network() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    let model = f.cars_ed.schema().expect_attr("model");
    let query = SelectQuery::new(vec![Predicate::eq(model, "Civic")]);

    // Five consecutive outages against a two-attempt policy: the member
    // fails; the same plan under a six-attempt policy converges.
    let flaky = FaultPlan::healthy().with_fail_first_attempts(5);

    let (exhausted, _) = run_network(
        &f,
        &query,
        RetryPolicy::default().with_max_attempts(2),
        [FaultPlan::healthy(), FaultPlan::healthy(), flaky],
    );
    assert!(exhausted.per_source[2].outcome.is_failed());
    assert!(exhausted.per_source[0].outcome.is_healthy());

    let (recovered, meters) = run_network(
        &f,
        &query,
        RetryPolicy::default().with_max_attempts(6),
        [FaultPlan::healthy(), FaultPlan::healthy(), flaky],
    );
    assert!(recovered.fully_healthy());
    assert_eq!(meters[2].retries, 5);
    assert!(!recovered.per_source[2].certain.is_empty());
}

#[test]
fn hashed_fault_decisions_replay_identically_across_thread_counts() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    let body = f.cars_ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "SUV")]);

    // Random-rate faults: whatever mixture of recoveries, degradations and
    // failures the seed produces must replay identically at any thread
    // count, because decisions hash (seed, query content, attempt) rather
    // than call order. cars.com stays healthy so the one query two members
    // legitimately share (the correlated base retrieval) cannot split its
    // injected-failure budget across callers in interleaving-dependent ways.
    let noisy = FaultPlan::healthy()
        .with_seed(0xfau64)
        .with_transient_rate(0.35);
    let retry = RetryPolicy::default()
        .with_max_attempts(3)
        .with_jitter_seed(7);

    let mut signatures = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let (answer, meters) = run_network(&f, &query, retry, [FaultPlan::healthy(), noisy, noisy]);
        signatures.push((
            signature(&answer),
            meters.map(|m| (m.retries, m.failures, m.degraded)),
        ));
    }
    assert_eq!(signatures[0], signatures[1]);
}

// ---------------------------------------------------------------------------
// Availability layer: breakers, budgets, hedging, quarantine.
// ---------------------------------------------------------------------------

/// The acceptance property of the breaker: a permanently-down target costs
/// at most `failure_threshold` probe attempts across an *entire*
/// multi-rewrite correlated plan (k = 8 here), the remaining rewrites are
/// charged to [`Degradation::breaker_skips`], and the very next pass skips
/// the member before a single query is built.
#[test]
fn breaker_caps_probe_attempts_against_a_downed_target() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let body = global.expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    let mut runs = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let registry = Arc::new(HealthRegistry::new(
            BreakerConfig::default().with_failure_threshold(3),
        ));
        let cars = FaultInjector::new(
            WebSource::new("cars.com", f.cars_ed.clone()),
            FaultPlan::healthy(),
        );
        let yahoo = FaultInjector::new(
            WebSource::new("yahoo_autos", f.yahoo_local.clone()),
            FaultPlan::healthy().with_permanent_outage(),
        );
        let network = MediatorNetwork::new(
            global.clone(),
            QpiadConfig::default()
                .with_k(8)
                .with_retry(RetryPolicy::default().with_max_attempts(3)),
        )
        .with_health(registry.clone())
        .add_supporting(&cars, f.cars_stats.clone())
        .add_deficient(&yahoo);

        let first = network.answer(&query).expect("mediation never aborts");

        // Yahoo is served through the correlated plan: 8 ranked rewrites
        // were headed its way, but the breaker admitted exactly 3 probes.
        assert_eq!(
            yahoo.meter().failures,
            3,
            "breaker must cap probes at failure_threshold"
        );
        assert_eq!(
            yahoo.meter().retries,
            0,
            "a non-retryable outage is never retried"
        );
        let SourceOutcome::Degraded(d) = &first.per_source[1].outcome else {
            panic!(
                "expected a degraded outcome, got {:?}",
                first.per_source[1].outcome
            );
        };
        assert_eq!(
            d.dropped_rewrites, 3,
            "each admitted probe is a recorded drop"
        );
        assert!(
            d.breaker_skips > 0,
            "the rest of the plan must be breaker-skipped"
        );
        assert!(d.dropped_fmeasure > 0.0);
        assert_eq!(registry.state("yahoo_autos"), BreakerState::Open);
        // The healthy member is untouched.
        assert!(first.per_source[0].outcome.is_healthy());
        assert!(!first.per_source[0].possible.is_empty());

        // Second pass: the Open member is skipped up front — no probe, no
        // new failures, one metered breaker skip.
        let second = network.answer(&query).expect("mediation never aborts");
        assert_eq!(yahoo.meter().failures, 3);
        assert_eq!(yahoo.meter().breaker_skips, 1);
        let SourceOutcome::Degraded(d2) = &second.per_source[1].outcome else {
            panic!(
                "expected a degraded outcome, got {:?}",
                second.per_source[1].outcome
            );
        };
        assert_eq!(d2.breaker_skips, 1);
        assert!(matches!(d2.last_error, Some(SourceError::CircuitOpen)));
        runs.push((signature(&first), signature(&second)));
    }
    assert_eq!(
        runs[0], runs[1],
        "breaker decisions must replay across thread counts"
    );
}

/// The full breaker life cycle over repeated passes: trip on the first
/// failure (threshold 1), sit out the cooldown with up-front skips, fail a
/// half-open probe (re-open), sit out another cooldown, then recover
/// through a clean probe.
#[test]
fn open_breaker_skips_up_front_and_recovers_through_half_open_probes() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let model = global.expect_attr("model");
    let query = SelectQuery::new(vec![Predicate::eq(model, "Civic")]);

    let mut per_thread = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let registry = Arc::new(HealthRegistry::new(
            BreakerConfig::default().with_failure_threshold(1),
        ));
        let cars = FaultInjector::new(
            WebSource::new("cars.com", f.cars_ed.clone()),
            FaultPlan::healthy(),
        );
        // Certain-answers-only member whose first two attempts at the query
        // fail; pass-level probing (not wall time) drives recovery.
        let auctions = FaultInjector::new(
            WebSource::new("auctions", f.auctions_ed.clone()),
            FaultPlan::healthy().with_fail_first_attempts(2),
        );
        let network = MediatorNetwork::new(
            global.clone(),
            QpiadConfig::default()
                .with_k(8)
                .with_retry(RetryPolicy::none()),
        )
        .with_health(registry.clone())
        .add_supporting(&cars, f.cars_stats.clone())
        .add_deficient(&auctions);

        let mut passes = Vec::new();
        for _ in 0..7 {
            passes.push(network.answer(&query).expect("mediation never aborts"));
        }
        let outcomes: Vec<_> = passes.iter().map(|p| &p.per_source[1].outcome).collect();
        // Pass 1: the probe fails, the breaker opens.
        assert!(outcomes[0].is_failed());
        // Passes 2-3: cooldown; skipped before any query is built.
        for p in [1, 2] {
            let SourceOutcome::Degraded(d) = outcomes[p] else {
                panic!("pass {p} should be breaker-skipped, got {:?}", outcomes[p]);
            };
            assert_eq!(d.breaker_skips, 1);
        }
        // Pass 4: half-open probe fails (second injected failure) — re-open.
        assert!(outcomes[3].is_failed());
        // Passes 5-6: second cooldown.
        assert!(outcomes[4].is_degraded() && outcomes[5].is_degraded());
        // Pass 7: the probe finally succeeds and the member serves again.
        assert!(outcomes[6].is_healthy(), "got {:?}", outcomes[6]);
        assert!(!passes[6].per_source[1].certain.is_empty());
        assert_eq!(registry.state("auctions"), BreakerState::Closed);

        let meter = auctions.meter();
        assert_eq!(
            meter.failures, 2,
            "exactly the two injected failures reached the source"
        );
        assert_eq!(
            meter.breaker_skips, 4,
            "both cooldowns cost two skipped passes each"
        );
        per_thread.push(passes.iter().map(signature).collect::<Vec<_>>());
    }
    assert_eq!(per_thread[0], per_thread[1]);
}

/// Hedged queries: once a member's metered latency puts it in the slowest
/// decile, its queries are doubled to the best schema-aligned supporting
/// partner, and a failing primary is covered by the partner's response.
#[test]
fn slow_member_hedges_rewrites_to_an_aligned_partner() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let body = global.expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    // A second full-schema supporting source with its own statistics; its
    // schema aligns positionally with cars.com's, making it hedgeable.
    let carsdirect_gd = CarsConfig::default().with_rows(5_000).generate(94);
    let (carsdirect_ed, _) = corrupt(&carsdirect_gd, &CorruptionConfig::default().with_seed(4));
    let carsdirect_stats = SourceStats::mine(
        &uniform_sample(&carsdirect_ed, 0.10, 5),
        carsdirect_ed.len(),
        &MiningConfig::default(),
    );
    // cars.com is slow (injected latency) AND fails every rewrite that
    // constrains body_style's first determining attribute.
    let dtr = f
        .cars_stats
        .determining_set(body)
        .expect("body_style has an AFD")[0];

    let mut per_thread = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let cars = FaultInjector::new(
            WebSource::new("cars.com", f.cars_ed.clone()),
            FaultPlan::healthy()
                .with_latency(Duration::from_millis(2))
                .with_fail_on_attr(dtr),
        );
        let carsdirect = FaultInjector::new(
            WebSource::new("carsdirect", carsdirect_ed.clone()),
            FaultPlan::healthy(),
        );
        let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting(&cars, f.cars_stats.clone())
            .add_supporting(&carsdirect, carsdirect_stats.clone());

        // Pass 1: no latency history yet, so no hedging — the targeted
        // rewrites are dropped and the member degrades.
        let first = network.answer(&query).expect("mediation never aborts");
        assert_eq!(cars.meter().hedges, 0);
        let SourceOutcome::Degraded(d) = &first.per_source[0].outcome else {
            panic!(
                "expected a degraded first pass, got {:?}",
                first.per_source[0].outcome
            );
        };
        assert!(d.dropped_rewrites > 0);

        // Pass 2: cars.com's metered latency marks it slow; its queries are
        // hedged to carsdirect and the injected failures are covered.
        let second = network.answer(&query).expect("mediation never aborts");
        assert!(
            cars.meter().hedges > 0,
            "failing primary must be covered by the partner"
        );
        let part = &second.per_source[0];
        let dropped = match &part.outcome {
            SourceOutcome::Degraded(d) => d.dropped_rewrites,
            SourceOutcome::Healthy => 0,
            other => panic!("unexpected outcome {other:?}"),
        };
        assert_eq!(
            dropped, 0,
            "every failing rewrite is served by the hedge partner"
        );
        assert!(!part.possible.is_empty());
        per_thread.push((signature(&first), signature(&second), cars.meter().hedges));
    }
    assert_eq!(
        per_thread[0], per_thread[1],
        "hedge decisions must replay across thread counts"
    );
}

/// A source whose responses drift from its advertised contract: it appends
/// tuples that do not satisfy the issued query (think a result page that
/// ignores a form field). The validator must quarantine them — and repeated
/// dirty responses must trip the breaker like failures do.
struct DriftSource {
    inner: WebSource,
    noise: Vec<Tuple>,
}

impl AutonomousSource for DriftSource {
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

    fn query(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError> {
        let mut tuples = self.inner.query(q)?;
        tuples.extend(self.noise.iter().cloned());
        Ok(tuples)
    }

    fn meter(&self) -> SourceMeter {
        self.inner.meter()
    }

    fn reset_meter(&self) {
        self.inner.reset_meter();
    }

    fn note_quarantined(&self, n: usize) {
        self.inner.note_quarantined(n);
    }

    fn note_breaker_skip(&self) {
        self.inner.note_breaker_skip();
    }

    fn note_degraded(&self) {
        self.inner.note_degraded();
    }
}

#[test]
fn drifting_responses_are_quarantined_and_trip_the_breaker() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let model = global.expect_attr("model");
    let query = SelectQuery::new(vec![Predicate::eq(model, "Civic")]);

    // Two tuples that cannot satisfy `model = Civic`.
    let noise: Vec<Tuple> = f
        .auctions_ed
        .tuples()
        .iter()
        .filter(|t| t.value(model) != &qpiad::db::Value::str("Civic"))
        .take(2)
        .cloned()
        .collect();
    assert_eq!(noise.len(), 2);

    let mut per_thread = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let registry = Arc::new(HealthRegistry::new(
            BreakerConfig::default().with_failure_threshold(1),
        ));
        let drifty = DriftSource {
            inner: WebSource::new("auctions", f.auctions_ed.clone()),
            noise: noise.clone(),
        };
        let network = MediatorNetwork::new(global.clone(), QpiadConfig::default())
            .with_health(registry.clone())
            .add_deficient(&drifty);

        // Pass 1: the clean answers are kept, the drifted tuples are
        // quarantined, and the dirty response counts as a breaker failure.
        let first = network.answer(&query).expect("mediation never aborts");
        let SourceOutcome::Degraded(d) = &first.per_source[0].outcome else {
            panic!(
                "expected a degraded outcome, got {:?}",
                first.per_source[0].outcome
            );
        };
        assert_eq!(d.quarantined, 2);
        assert!(
            !first.per_source[0].certain.is_empty(),
            "clean tuples must be kept"
        );
        for t in &first.per_source[0].certain {
            assert_eq!(t.value(model), &qpiad::db::Value::str("Civic"));
        }
        assert_eq!(drifty.meter().quarantined, 2);
        assert_eq!(registry.state("auctions"), BreakerState::Open);

        // Pass 2: the member is skipped before the drift can recur.
        let second = network.answer(&query).expect("mediation never aborts");
        let SourceOutcome::Degraded(d2) = &second.per_source[0].outcome else {
            panic!(
                "expected a breaker skip, got {:?}",
                second.per_source[0].outcome
            );
        };
        assert_eq!(d2.breaker_skips, 1);
        assert_eq!(
            drifty.meter().quarantined,
            2,
            "no new tuples reached validation"
        );
        per_thread.push((signature(&first), signature(&second)));
    }
    assert_eq!(per_thread[0], per_thread[1]);
}

/// A query budget truncates the rewrite plan deterministically: the base
/// query and the best-ranked rewrites run, the rest are budget-skipped, and
/// certain answers are never sacrificed.
#[test]
fn query_budget_truncates_the_plan_and_degrades_gracefully() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let body = global.expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    let mut per_thread = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let cars = FaultInjector::new(
            WebSource::new("cars.com", f.cars_ed.clone()),
            FaultPlan::healthy(),
        );
        let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting(&cars, f.cars_stats.clone());

        let full = network.answer(&query).expect("mediation never aborts");
        assert!(full.fully_healthy());

        // Four single-attempt admissions: the base query plus the top three
        // rewrites; everything below the cut is budget-skipped.
        let capped = network
            .answer_under(
                &query,
                QueryBudget::unlimited().with_max_attempts(4),
                health::PressureLevel::Normal,
            )
            .expect("mediation never aborts");
        let part = &capped.per_source[0];
        let SourceOutcome::Degraded(d) = &part.outcome else {
            panic!("expected a degraded outcome, got {:?}", part.outcome);
        };
        assert!(d.budget_skips > 0, "the plan must be truncated: {d:?}");
        assert!(d.dropped_fmeasure > 0.0);
        assert_eq!(
            d.dropped_rewrites, 0,
            "nothing failed — skipped is not dropped"
        );
        assert!(matches!(d.last_error, Some(SourceError::BudgetExhausted)));
        // Certain answers always survive the budget; possible answers are a
        // subset of the unbudgeted run's.
        assert_eq!(
            part.certain.iter().map(|t| t.id()).collect::<Vec<_>>(),
            full.per_source[0]
                .certain
                .iter()
                .map(|t| t.id())
                .collect::<Vec<_>>(),
        );
        assert!(part.possible.len() < full.per_source[0].possible.len());
        let full_ids: std::collections::HashSet<_> = full.per_source[0]
            .possible
            .iter()
            .map(|r| r.tuple.id())
            .collect();
        assert!(part
            .possible
            .iter()
            .all(|r| full_ids.contains(&r.tuple.id())));
        per_thread.push((signature(&full), signature(&capped)));
    }
    assert_eq!(per_thread[0], per_thread[1]);
}

/// Stale-knowledge fallback: when a supporting source cannot be mined
/// (down at mining time, or its breaker is already open), a persisted
/// snapshot serves instead and every answer is tagged `stale_knowledge`.
#[test]
fn snapshot_statistics_serve_when_mining_is_blocked() {
    let _pin = PinnedPool::acquire();
    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let body = global.expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let snapshot = StatsSnapshot::capture(&f.cars_stats, &MiningConfig::default());

    let registry = Arc::new(HealthRegistry::new(
        BreakerConfig::default().with_failure_threshold(1),
    ));
    let cars = WebSource::new("cars.com", f.cars_ed.clone());

    // Mining fails outright: the failure is recorded against the breaker
    // and the snapshot steps in.
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .with_health(registry.clone())
        .add_supporting_or_stale(
            &cars,
            |_| Err(SourceError::Unavailable { retryable: false }),
            Some(&snapshot),
        )
        .expect("snapshot fallback must engage");
    assert_eq!(registry.state("cars.com"), BreakerState::Open);

    // The member still answers (restored statistics drive the rewrites) but
    // every outcome is tagged stale. Its breaker being open does NOT gate
    // retrieval here: knowledge mining and live queries are separate
    // concerns, and the registry was told only about the mining failure —
    // after the cooldown the next pass half-opens it.
    registry.begin_pass();
    registry.begin_pass();
    registry.begin_pass();
    let answer = network.answer(&query).expect("mediation never aborts");
    let part = &answer.per_source[0];
    let SourceOutcome::Degraded(d) = &part.outcome else {
        panic!("expected a stale-tagged outcome, got {:?}", part.outcome);
    };
    assert!(d.stale_knowledge);
    assert!(!part.certain.is_empty());
    assert!(!part.possible.is_empty());

    // Without a snapshot the mining failure propagates.
    let err = MediatorNetwork::new(global.clone(), QpiadConfig::default())
        .add_supporting_or_stale(
            &cars,
            |_| Err(SourceError::Unavailable { retryable: false }),
            None,
        )
        .err()
        .expect("no fallback, no member");
    assert!(matches!(err, SourceError::Unavailable { retryable: false }));

    // A breaker already open at registration skips mining entirely.
    let registry2 = Arc::new(HealthRegistry::new(
        BreakerConfig::default().with_failure_threshold(1),
    ));
    registry2.begin_pass();
    registry2.absorb("cars.com", &[qpiad::db::Observation::Failure]);
    assert_eq!(registry2.state("cars.com"), BreakerState::Open);
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default())
        .with_health(registry2)
        .add_supporting_or_stale(
            &cars,
            |_| panic!("mining must not be attempted against an open breaker"),
            Some(&snapshot),
        )
        .expect("snapshot fallback must engage");
    assert_eq!(network.len(), 1);
}

/// Retry backoff and injected latency ride an installed logical clock: a
/// plan whose cumulative backoff would block for many wall-clock seconds
/// completes almost instantly, with the wait accounted on the clock's
/// counter instead.
#[test]
fn retry_backoff_rides_the_logical_clock() {
    let _pin = PinnedPool::acquire();
    let clock = health::MediationClock::logical();
    let _clock = health::install_clock(Some(clock.clone()));

    let f = fixture();
    let body = f.cars_ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    // Every query fails twice; each recovery costs two backoffs of 250ms+
    // (capped at 1s). Dozens of queries cross the network, so real sleeping
    // would take >10s of wall time.
    let flaky = FaultPlan::healthy().with_fail_first_attempts(2);
    let retry = RetryPolicy::default()
        .with_max_attempts(3)
        .with_backoff(Duration::from_millis(250), Duration::from_secs(1));

    let started = Instant::now();
    let (answer, meters) = run_network(&f, &query, retry, [flaky; 3]);
    let wall = started.elapsed();
    let logical = Duration::from_nanos(clock.nanos());

    assert!(answer.fully_healthy(), "retries must absorb the flakiness");
    assert!(meters.iter().all(|m| m.retries > 0));
    assert!(
        logical >= Duration::from_millis(500),
        "backoff must be charged to the logical clock, got {logical:?}"
    );
    assert!(
        wall < logical,
        "the mediator must not sleep for real: wall {wall:?} vs logical {logical:?}"
    );
}
