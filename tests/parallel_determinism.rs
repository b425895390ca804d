//! The parallel answer path must be invisible: any thread count produces
//! byte-identical answer sequences and identical mined statistics.
//!
//! Each test runs the same computation with the worker pool pinned to 1
//! thread and to 8 threads and compares full result signatures (tuple ids in
//! order, confidence bit patterns, rewritten-query order, AFD sets). The
//! thread override is process-global, so the tests serialize on a mutex and
//! always restore the default before releasing it.

use std::sync::{Arc, Mutex, MutexGuard};

use qpiad::core::network::{MediatorNetwork, SourceAnswers};
use qpiad::core::{par, AnswerSet, PlanCache, Qpiad, QpiadConfig};
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::health::Observation;
use qpiad::db::{
    AutonomousSource, BreakerConfig, FaultInjector, FaultPlan, HealthRegistry, Predicate, Relation,
    RetryPolicy, Schema, SelectQuery, WebSource,
};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};
use qpiad::learn::tane::{discover, TaneConfig};

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

fn mined(ed: &Relation, seed: u64) -> SourceStats {
    let sample = uniform_sample(ed, 0.10, seed);
    SourceStats::mine(&sample, ed.len(), &MiningConfig::default())
}

fn cars_fixture() -> (Relation, SourceStats) {
    let ground = CarsConfig::default().with_rows(6_000).generate(61);
    let (ed, _) = corrupt(&ground, &CorruptionConfig::default().with_seed(1));
    let stats = mined(&ed, 2);
    (ed, stats)
}

/// A 6k-row source of different car instances whose local schema has no
/// `body_style` column: the deficient member of the network tests.
fn yahoo_fixture(global: &Schema) -> Relation {
    let keep: Vec<_> = global
        .attr_ids()
        .filter(|a| global.attr(*a).name() != "body_style")
        .collect();
    CarsConfig::default()
        .with_rows(6_000)
        .generate(62)
        .project_to("yahoo_autos", &keep)
}

/// Everything rank-order-sensitive about an answer set, with float bits
/// compared exactly.
fn answer_signature(a: &AnswerSet) -> Vec<String> {
    let mut sig: Vec<String> = Vec::new();
    for t in &a.certain {
        sig.push(format!("certain {:?}", t.id()));
    }
    for r in &a.possible {
        sig.push(format!(
            "possible {:?} conf={:016x} prec={:016x} q={}",
            r.tuple.id(),
            r.confidence.to_bits(),
            r.query_precision.to_bits(),
            r.query_index
        ));
    }
    for t in &a.deferred {
        sig.push(format!("deferred {:?}", t.id()));
    }
    for rq in &a.issued {
        sig.push(format!("issued {:?}", rq.query));
    }
    sig
}

#[test]
fn mediator_answers_identically_at_any_thread_count() {
    let _pin = PinnedPool::acquire();
    let (ed, stats) = cars_fixture();
    let body = ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    let mut signatures = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let source = WebSource::new("cars.com", ed.clone());
        let qpiad = Qpiad::new(stats.clone(), QpiadConfig::default().with_k(10));
        let answer = qpiad
            .answer(&source, &query)
            .expect("source accepts rewrites");
        assert!(
            !answer.possible.is_empty(),
            "fixture must exercise rewriting"
        );
        signatures.push(answer_signature(&answer));
    }
    assert_eq!(signatures[0], signatures[1]);
}

#[test]
fn cached_plans_replay_identically_at_any_thread_count() {
    let _pin = PinnedPool::acquire();
    let (ed, stats) = cars_fixture();
    let body = ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    let mut signatures = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let source = WebSource::new("cars.com", ed.clone());
        let cache = Arc::new(PlanCache::new());
        let qpiad = Qpiad::new(stats.clone(), QpiadConfig::default().with_k(10))
            .with_plan_cache(Arc::clone(&cache), 0);
        let cold = qpiad
            .answer(&source, &query)
            .expect("source accepts rewrites");
        let warm = qpiad
            .answer(&source, &query)
            .expect("source accepts rewrites");
        assert_eq!(source.meter().plan_cache_misses, 1);
        assert_eq!(source.meter().plan_cache_hits, 1);
        assert!(!warm.possible.is_empty(), "fixture must exercise rewriting");
        // Serving from the cache must not change the answer …
        assert_eq!(answer_signature(&cold), answer_signature(&warm));
        signatures.push(answer_signature(&warm));
    }
    // … and a cached-plan run replays byte-identically across thread counts.
    assert_eq!(signatures[0], signatures[1]);
}

#[test]
fn network_answers_identically_at_any_thread_count() {
    let _pin = PinnedPool::acquire();
    let (ed, stats) = cars_fixture();
    let global = ed.schema().clone();
    let yahoo_local = yahoo_fixture(&global);

    let body = global.expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    let mut signatures = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let cars = WebSource::new("cars.com", ed.clone());
        let yahoo = WebSource::new("yahoo_autos", yahoo_local.clone());
        let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting(&cars, stats.clone())
            .add_deficient(&yahoo);
        let answer = network.answer(&query).expect("network answers");
        assert_eq!(answer.per_source.len(), 2);
        assert!(answer.possible_count() > 0);
        let sig: Vec<String> = answer.per_source.iter().flat_map(part_signature).collect();
        signatures.push(sig);
    }
    assert_eq!(signatures[0], signatures[1]);
}

/// Everything rank-order-sensitive about one member's contribution.
fn part_signature(part: &SourceAnswers) -> Vec<String> {
    std::iter::once(format!(
        "source {} via={:?}",
        part.source, part.via_correlated
    ))
    .chain(part.certain.iter().map(|t| format!("certain {:?}", t.id())))
    .chain(part.possible.iter().map(|r| {
        format!(
            "possible {:?} conf={:016x} prec={:016x}",
            r.tuple.id(),
            r.confidence.to_bits(),
            r.query_precision.to_bits()
        )
    }))
    .collect()
}

/// How the supporting member fares in a base-sharing pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Supporting {
    /// Its direct retrieval validates the base the deficient member plans
    /// from.
    Healthy,
    /// Its breaker is forced Open: skipped up front, it retrieves no base.
    BreakerOpen,
    /// Its base query fails (first attempt of every query fails, no
    /// retries), so it validates no base.
    BaseFails,
}

#[test]
fn a_pass_issues_each_base_query_once_at_any_thread_count() {
    // A deficient member plans from the base set its correlated member
    // validated earlier in the same pass, so the pass sends that base query
    // to cars.com once — whatever the thread count and whichever member
    // registered first. Only when the correlated member validated no base
    // does the deficient member issue it itself.
    let _pin = PinnedPool::acquire();
    let (ed, stats) = cars_fixture();
    let global = ed.schema().clone();
    let yahoo_local = yahoo_fixture(&global);
    let body = global.expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let config = QpiadConfig::default()
        .with_k(8)
        .with_retry(RetryPolicy::none());

    // What the supporting member's own direct retrieval costs cars.com.
    let solo = {
        let cars = WebSource::new("cars.com", ed.clone());
        MediatorNetwork::new(global.clone(), config)
            .add_supporting(&cars, stats.clone())
            .answer(&query)
            .expect("network answers");
        cars.meter()
    };

    let mut yahoo_signatures = Vec::new();
    for supporting in [
        Supporting::Healthy,
        Supporting::BreakerOpen,
        Supporting::BaseFails,
    ] {
        for threads in [1usize, 8] {
            par::set_thread_override(Some(threads));
            for deficient_first in [false, true] {
                let faults = match supporting {
                    Supporting::BaseFails => FaultPlan::healthy().with_fail_first_attempts(1),
                    _ => FaultPlan::healthy(),
                };
                let cars = FaultInjector::new(WebSource::new("cars.com", ed.clone()), faults);
                let yahoo = WebSource::new("yahoo_autos", yahoo_local.clone());
                let registry = Arc::new(HealthRegistry::new(
                    BreakerConfig::default()
                        .with_failure_threshold(1)
                        .with_cooldown_passes(100),
                ));
                if supporting == Supporting::BreakerOpen {
                    registry.absorb("cars.com", &[Observation::Failure]);
                }
                let network = MediatorNetwork::new(global.clone(), config).with_health(registry);
                let network = if deficient_first {
                    network
                        .add_deficient(&yahoo)
                        .add_supporting(&cars, stats.clone())
                } else {
                    network
                        .add_supporting(&cars, stats.clone())
                        .add_deficient(&yahoo)
                };
                // EXPLAIN names where the deficient member's base set
                // comes from, from the same breaker snapshot.
                let explained = network.explain(&query);
                let base_note = match supporting {
                    Supporting::BreakerOpen => "base set issued here to `cars.com`",
                    _ => "base set shared from `cars.com`'s direct retrieval",
                };
                assert!(explained.contains(base_note), "{explained}");
                let answer = network.answer(&query).expect("network answers");
                let part = |name: &str| {
                    answer
                        .per_source
                        .iter()
                        .find(|p| p.source == name)
                        .expect("every member contributes")
                };
                let (cars_part, yahoo_part) = (part("cars.com"), part("yahoo_autos"));
                let meter = cars.meter();
                let case =
                    format!("{supporting:?} threads={threads} deficient_first={deficient_first}");
                match supporting {
                    Supporting::Healthy => {
                        // cars.com answered exactly its own direct
                        // retrieval: the deficient member added no query
                        // and no tuple, and planned from the candidate list
                        // that retrieval cached (one miss, one hit).
                        assert!(cars_part.outcome.is_healthy(), "{case}");
                        assert_eq!(meter.queries, solo.queries, "{case}");
                        assert_eq!(meter.tuples_returned, solo.tuples_returned, "{case}");
                        assert_eq!(
                            (meter.plan_cache_misses, meter.plan_cache_hits),
                            (1, 1),
                            "{case}"
                        );
                    }
                    Supporting::BreakerOpen | Supporting::BaseFails => {
                        // The supporting member validated no base: the
                        // deficient member's own base query is the one
                        // query cars.com answered, and it planned from
                        // scratch.
                        if supporting == Supporting::BreakerOpen {
                            assert_eq!(meter.breaker_skips, 1, "{case}");
                        } else {
                            assert!(cars_part.outcome.is_failed(), "{case}");
                            assert_eq!(cars.injected_faults(), 1, "{case}");
                        }
                        assert_eq!(meter.queries, 1, "{case}");
                        assert_eq!(
                            (meter.plan_cache_misses, meter.plan_cache_hits),
                            (1, 0),
                            "{case}"
                        );
                    }
                }
                assert!(yahoo_part.outcome.is_healthy(), "{case}: {yahoo_part:?}");
                assert!(!yahoo_part.possible.is_empty(), "{case}");
                yahoo_signatures.push(part_signature(yahoo_part));
            }
        }
    }
    // However the base reached it, the deficient member answers
    // byte-identically.
    assert!(yahoo_signatures.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn interned_retrieval_replays_identically_at_any_thread_count() {
    // A query mix that drives every posting-list regime of the interned
    // storage engine: a selective equality (sparse lists — gallop), a broad
    // equality (dense lists — bitset), a range over the numeric dictionary,
    // and a conjunction that intersects across regimes. Answers must replay
    // byte-identically whatever the worker-pool size.
    let _pin = PinnedPool::acquire();
    let (ed, stats) = cars_fixture();
    let schema = ed.schema();
    let body = schema.expect_attr("body_style");
    let model = schema.expect_attr("model");
    let year = schema.expect_attr("year");
    let price = schema.expect_attr("price");
    let queries = [
        SelectQuery::new(vec![Predicate::eq(model, "Solara")]),
        SelectQuery::new(vec![Predicate::eq(body, "Sedan")]),
        SelectQuery::new(vec![Predicate::between(price, 10_000i64, 25_000i64)]),
        SelectQuery::new(vec![
            Predicate::eq(body, "Coupe"),
            Predicate::between(year, 2000i64, 2004i64),
        ]),
    ];

    let mut signatures = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let source = WebSource::new("cars.com", ed.clone());
        let qpiad = Qpiad::new(stats.clone(), QpiadConfig::default().with_k(10));
        let mut sig: Vec<String> = Vec::new();
        for query in &queries {
            let answer = qpiad
                .answer(&source, query)
                .expect("source accepts rewrites");
            sig.push(format!("{query:?}"));
            sig.extend(answer_signature(&answer));
        }
        assert!(
            sig.iter().any(|s| s.starts_with("possible")),
            "fixture must exercise rewriting"
        );
        signatures.push(sig);
    }
    assert_eq!(signatures[0], signatures[1]);
}

#[test]
fn tane_discovers_identical_afds_at_any_thread_count() {
    let _pin = PinnedPool::acquire();
    let ground = CarsConfig::default().with_rows(4_000).generate(61);
    let (ed, _) = corrupt(&ground, &CorruptionConfig::default().with_seed(1));
    let sample = uniform_sample(&ed, 0.20, 2);

    let mut signatures = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let result = discover(&sample, &TaneConfig::default());
        assert!(!result.afds.is_empty());
        // akey_conf is a HashMap: project it to sorted order before
        // comparing, its Debug iteration order is not meaningful.
        let mut akey_conf: Vec<(Vec<qpiad::db::AttrId>, u64)> = result
            .akey_conf
            .iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect();
        akey_conf.sort();
        signatures.push(format!(
            "{:?} {:?} {:?}",
            result.afds, result.akeys, akey_conf
        ));
    }
    assert_eq!(signatures[0], signatures[1]);
}

#[test]
fn mining_is_identical_at_any_thread_count() {
    let _pin = PinnedPool::acquire();
    let ground = CarsConfig::default().with_rows(4_000).generate(61);
    let (ed, _) = corrupt(&ground, &CorruptionConfig::default().with_seed(1));
    let sample = uniform_sample(&ed, 0.20, 2);

    let mut signatures = Vec::new();
    for threads in [1usize, 8] {
        par::set_thread_override(Some(threads));
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        // AfdSet is keyed by a HashMap internally: read it out per attribute
        // in schema order so the signature is iteration-order independent.
        let per_attr: Vec<String> = sample
            .schema()
            .attr_ids()
            .map(|a| format!("{a:?}: {:?}", stats.afds().for_attr(a)))
            .collect();
        signatures.push(format!("{per_attr:?} {:?}", stats.akeys()));
    }
    assert_eq!(signatures[0], signatures[1]);
}
