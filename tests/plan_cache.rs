//! Plan-cache lifecycle and EXPLAIN guarantees.
//!
//! The mediation-plan cache memoizes each source's candidate rewrite list
//! per (query template, knowledge version). These tests pin down its
//! contract end to end:
//!
//! 1. **Hit** — a repeated query template against unchanged knowledge is
//!    served from the cache (counted on the source's meter) and produces
//!    the same answer as the cold pass.
//! 2. **Invalidation on re-mine** — [`MediatorNetwork::refresh_member`]
//!    bumps the member's knowledge version, silently orphaning its cached
//!    plans.
//! 3. **Invalidation on drift** — a [`DriftVerdict`] demotes the member's
//!    knowledge, which must also orphan cached plans: they were ranked
//!    with precision estimates the verdict just discredited.
//! 4. **EXPLAIN is free** — rendering the network's plan issues zero
//!    source queries while still enumerating every admitted and skipped
//!    rewrite.
//! 5. **EXPLAIN names the route the pass takes** — direct, certain-only,
//!    through a correlated member, or unreachable, per member, at any
//!    thread count.

use std::sync::Arc;

use qpiad::core::network::{MediatorNetwork, NetworkAnswer, SourceOutcome};
use qpiad::core::{par, AnswerSet, PlanCache, Qpiad, QpiadConfig};
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{
    AutonomousSource, Predicate, Relation, SelectQuery, SkewInjector, SkewPlan, Value, WebSource,
};
use qpiad::learn::drift::{DriftConfig, DriftRegistry};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};
use qpiad::learn::store::KnowledgeStore;

fn fixture() -> (Relation, SourceStats) {
    let ground = CarsConfig::default().with_rows(5_000).generate(91);
    let (ed, _) = corrupt(&ground, &CorruptionConfig::default().with_seed(1));
    let stats = SourceStats::mine(
        &uniform_sample(&ed, 0.10, 2),
        ed.len(),
        &MiningConfig::default(),
    );
    (ed, stats)
}

/// Everything rank-order-sensitive about an answer set, bit-exact.
fn signature(a: &AnswerSet) -> Vec<String> {
    a.certain
        .iter()
        .map(|t| format!("certain {:?}", t.id()))
        .chain(a.possible.iter().map(|r| {
            format!(
                "possible {:?} conf={:016x} prec={:016x} q={}",
                r.tuple.id(),
                r.confidence.to_bits(),
                r.query_precision.to_bits(),
                r.query_index
            )
        }))
        .chain(a.issued.iter().map(|rq| format!("issued {:?}", rq.query)))
        .collect()
}

#[test]
fn repeated_templates_hit_the_cache_and_answer_identically() {
    let (ed, stats) = fixture();
    let body = ed.schema().expect_attr("body_style");
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let source = WebSource::new("cars.com", ed.clone());
    let cache = Arc::new(PlanCache::new());
    let qpiad =
        Qpiad::new(stats, QpiadConfig::default().with_k(8)).with_plan_cache(Arc::clone(&cache), 0);

    let cold = qpiad.answer(&source, &q).unwrap();
    assert!(!cold.possible.is_empty(), "fixture must exercise rewriting");
    assert_eq!(source.meter().plan_cache_misses, 1);
    assert_eq!(source.meter().plan_cache_hits, 0);
    assert_eq!(cache.len(), 1);

    let warm = qpiad.answer(&source, &q).unwrap();
    assert_eq!(source.meter().plan_cache_misses, 1);
    assert_eq!(source.meter().plan_cache_hits, 1);
    assert_eq!(
        signature(&cold),
        signature(&warm),
        "a cached plan must not change the answer"
    );

    // A different template is its own cache entry.
    let q2 = SelectQuery::new(vec![Predicate::eq(body, "SUV")]);
    qpiad.answer(&source, &q2).unwrap();
    assert_eq!(source.meter().plan_cache_misses, 2);
    assert_eq!(cache.len(), 2);
}

#[test]
fn refresh_member_invalidates_cached_plans() {
    let (ed, stats) = fixture();
    let global = ed.schema().clone();
    let cars = WebSource::new("cars.com", ed.clone());
    let cache = Arc::new(PlanCache::new());
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .with_plan_cache(Arc::clone(&cache))
        .add_supporting(&cars, stats.clone());
    let v0 = network.member_knowledge_version("cars.com");

    let body = global.expect_attr("body_style");
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    network.answer(&q).unwrap();
    network.answer(&q).unwrap();
    assert_eq!(cars.meter().plan_cache_misses, 1);
    assert_eq!(cars.meter().plan_cache_hits, 1);

    network
        .refresh_member("cars.com", |_| Ok(stats.clone()), None)
        .unwrap();
    assert!(network.member_knowledge_version("cars.com") > v0);

    network.answer(&q).unwrap();
    assert_eq!(
        cars.meter().plan_cache_misses,
        2,
        "a refresh must orphan plans built on the old knowledge"
    );
    network.answer(&q).unwrap();
    assert_eq!(
        cars.meter().plan_cache_hits,
        2,
        "the re-planned template caches again"
    );
}

#[test]
fn a_drift_verdict_invalidates_cached_plans() {
    let (ed, stats) = fixture();
    let global = ed.schema().clone();
    let make = global.expect_attr("make");
    let body = global.expect_attr("body_style");

    // Content-keyed skew: ~90% of returned tuples report make=Monopoly,
    // a value the mined sample never saw — the first pass's responses
    // alone cross the drift threshold.
    let cars = SkewInjector::new(
        WebSource::new("cars.com", ed.clone()),
        SkewPlan::new(make, Value::str("Monopoly"), 0.9, 77),
    );
    let registry = Arc::new(DriftRegistry::new(
        DriftConfig::default()
            .with_min_observations(20)
            .with_threshold(0.35),
    ));
    let cache = Arc::new(PlanCache::new());
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .with_drift(registry.clone())
        .with_plan_cache(Arc::clone(&cache))
        .add_supporting(&cars, stats);
    let v0 = network.member_knowledge_version("cars.com");

    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let first = network.answer(&q).unwrap();
    assert_eq!(
        first.drift_verdicts.len(),
        1,
        "the skewed pass must fire a verdict"
    );
    assert_eq!(cars.meter().plan_cache_misses, 1);

    // The verdict demoted the member's knowledge: its version moved, so
    // the next pass re-plans instead of serving the discredited ranking.
    assert!(network.member_knowledge_version("cars.com") > v0);
    network.answer(&q).unwrap();
    assert_eq!(
        cars.meter().plan_cache_misses,
        2,
        "a drift demotion must orphan the cached plan"
    );
    assert_eq!(cars.meter().plan_cache_hits, 0);
}

#[test]
fn explain_issues_zero_source_queries() {
    let (ed, stats) = fixture();
    let global = ed.schema().clone();
    let cars = WebSource::new("cars.com", ed.clone());

    // A deficient member too, so the correlated plan renders as well.
    let keep: Vec<_> = global
        .attr_ids()
        .filter(|a| global.attr(*a).name() != "body_style")
        .collect();
    let yahoo_local = CarsConfig::default()
        .with_rows(5_000)
        .generate(92)
        .project_to("yahoo_autos", &keep);
    let yahoo = WebSource::new("yahoo_autos", yahoo_local);

    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .add_supporting(&cars, stats)
        .add_deficient(&yahoo);
    let body = global.expect_attr("body_style");
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    let text = network.explain(&q);
    assert!(text.contains("plan for source `cars.com`"), "{text}");
    assert!(text.contains("rewrites (rank order):"), "{text}");
    assert!(text.contains("ADMIT"), "{text}");
    assert!(text.contains("F="), "{text}");
    assert!(text.contains("cannot bind the query"), "{text}");

    let cars_meter = cars.meter();
    let yahoo_meter = yahoo.meter();
    assert_eq!(cars_meter.queries, 0, "EXPLAIN must not query any source");
    assert_eq!(cars_meter.failures, 0);
    assert_eq!(yahoo_meter.queries, 0);
    assert_eq!(yahoo_meter.failures, 0);
}

/// How a member was served for one query.
#[derive(Debug, Clone, PartialEq)]
enum Route {
    Direct,
    CertainOnly,
    Correlated(String),
    Unreachable,
}

/// The route each member's EXPLAIN section names, in registration order.
fn explained_routes(text: &str, members: usize) -> Vec<Route> {
    let sections: Vec<&str> = text.split("\n\n").skip(1).collect();
    assert_eq!(sections.len(), members, "one section per member:\n{text}");
    sections
        .into_iter()
        .map(|section| {
            if let Some(rest) = section.split("plan built from correlated source `").nth(1) {
                Route::Correlated(rest.split('`').next().unwrap_or_default().to_string())
            } else if section.contains("no usable correlated source") {
                Route::Unreachable
            } else if section.contains("note: certain answers only") {
                Route::CertainOnly
            } else {
                assert!(section.contains("rewrites (rank order):"), "{section}");
                Route::Direct
            }
        })
        .collect()
}

/// The route each member's contribution to `answer` shows.
fn answered_routes(answer: &NetworkAnswer) -> Vec<Route> {
    answer
        .per_source
        .iter()
        .map(|part| match &part.via_correlated {
            Some(name) => {
                assert!(
                    part.certain.is_empty(),
                    "a correlated member has no certain answers"
                );
                Route::Correlated(name.clone())
            }
            None if !part.possible.is_empty() => Route::Direct,
            None if !part.certain.is_empty() => Route::CertainOnly,
            None => Route::Unreachable,
        })
        .collect()
}

#[test]
fn explain_names_the_route_the_pass_takes() {
    let (ed, stats) = fixture();
    let global = ed.schema().clone();
    let keep: Vec<_> = global
        .attr_ids()
        .filter(|a| global.attr(*a).name() != "body_style")
        .collect();
    let yahoo_local = CarsConfig::default()
        .with_rows(5_000)
        .generate(92)
        .project_to("yahoo_autos", &keep);
    let direct_rows = CarsConfig::default().with_rows(5_000).generate(93);
    let store = {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-plan-cache/explain-routes");
        let _ = std::fs::remove_dir_all(&dir);
        KnowledgeStore::open(dir).unwrap()
    };
    std::fs::write(store.path_for("carsdirect"), "not a snapshot at all").unwrap();
    let body = global.expect_attr("body_style");
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let via_cars = Route::Correlated("cars.com".to_string());

    for threads in [1, 8] {
        par::set_thread_override(Some(threads));
        let cars = WebSource::new("cars.com", ed.clone());
        let yahoo = WebSource::new("yahoo_autos", yahoo_local.clone());
        let direct = WebSource::new("carsdirect", direct_rows.clone());

        // Supporting, deficient through `cars.com`, and store-failed.
        let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting(&cars, stats.clone())
            .add_deficient(&yahoo)
            .add_supporting_from_store(&direct, &store);
        let explained = explained_routes(&network.explain(&q), 3);
        let answer = network.answer(&q).unwrap();
        assert_eq!(
            explained,
            answered_routes(&answer),
            "at {threads} thread(s)"
        );
        assert_eq!(
            explained,
            [Route::Direct, via_cars.clone(), Route::CertainOnly]
        );
        let SourceOutcome::Degraded(d) = &answer.per_source[2].outcome else {
            panic!(
                "a store-failed member serves degraded: {:?}",
                answer.per_source[2].outcome
            );
        };
        assert_eq!(d.knowledge_unavailable, 1);

        // No member with statistics: the deficient one has no correlate.
        let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
            .add_deficient(&yahoo)
            .add_supporting_from_store(&direct, &store);
        let explained = explained_routes(&network.explain(&q), 2);
        let answer = network.answer(&q).unwrap();
        assert_eq!(
            explained,
            answered_routes(&answer),
            "at {threads} thread(s)"
        );
        assert_eq!(explained, [Route::Unreachable, Route::CertainOnly]);
    }
    par::set_thread_override(None);
}
