//! Mediating one query over a *network* of autonomous sources (the paper's
//! Figure 1/2 deployment): a full-schema source answers directly with
//! QPIAD; sources whose local schemas lack the constrained attribute are
//! reached through correlated-source rewriting.
//!
//! The network is fault-tolerant: two of the sources below are wrapped in
//! [`FaultInjector`]s — one flakes transiently (and recovers under the
//! retry policy), one is permanently down. Mediation still returns every
//! healthy contribution and records the outage as a per-source outcome.
//!
//! A [`HealthRegistry`] watches every member: after the downed source burns
//! through its breaker's failure threshold once, later passes skip it *up
//! front* — the outage stops costing probe attempts at all until the
//! cooldown elapses and a half-open probe checks whether it came back.
//!
//! `network.explain(&query)` renders the whole mediation plan — every
//! member's admitted and skipped rewrites with their F-measure mass —
//! without issuing a single source query. The example prints it twice:
//! before any pass (all breakers closed) and after the outage trips
//! `carsdirect`'s breaker, where the skips show up as per-entry reasons.
//!
//! Finally the network is wrapped in a [`QpiadServer`] and driven from
//! four caller threads replaying duplicate queries: concurrent identical
//! requests coalesce onto one mediation pass (sharing one source
//! fan-out), and the serving metrics report the observed hit rate.
//!
//! The last act floods a bounded server: a batch tenant hammers a tight
//! `batch_queue_limit` (excess is shed with a typed error before any
//! source fan-out) while interactive work walks the degradation ladder
//! rung by rung — fewer rewrites admitted as pressure rises, certain
//! answers only at `Critical` — with EXPLAIN reporting the recall mass
//! each rung sheds as an overload cost.
//!
//! ```text
//! cargo run --release --example multi_source_network
//! ```

use std::sync::Arc;

use qpiad::core::mediator::QpiadConfig;
use qpiad::core::network::{MediatorNetwork, SourceOutcome};
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::PressureLevel;
use qpiad::db::{
    AutonomousSource, BreakerConfig, FaultInjector, FaultPlan, HealthRegistry, Predicate,
    RetryPolicy, SelectQuery, WebSource,
};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};
use qpiad::serve::{QpiadServer, ServeConfig, ServeError, Tenant};

fn main() {
    // cars.com: full global schema, incomplete, with mined statistics.
    let cars_gd = CarsConfig::default().with_rows(15_000).generate(71);
    let global = cars_gd.schema().clone();
    let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(1));
    let stats = SourceStats::mine(
        &uniform_sample(&cars_ed, 0.10, 2),
        cars_ed.len(),
        &MiningConfig::default(),
    );
    let cars = WebSource::new("cars.com", cars_ed);

    // Two independent sources whose local schemas have no body_style.
    let make_deficient = |name: &str, seed: u64| {
        let ground = CarsConfig::default().with_rows(15_000).generate(seed);
        let keep: Vec<_> = global
            .attr_ids()
            .filter(|a| global.attr(*a).name() != "body_style")
            .collect();
        WebSource::new(name, ground.project_to(name, &keep))
    };
    // yahoo_autos is flaky: the first two attempts of every distinct query
    // fail with a retryable outage, so a 3-attempt retry policy still gets
    // its full contribution.
    let yahoo = FaultInjector::new(
        make_deficient("yahoo_autos", 72),
        FaultPlan::healthy().with_fail_first_attempts(2),
    );
    // carsdirect is down for the whole session.
    let carsdirect = FaultInjector::new(
        make_deficient("carsdirect", 73),
        FaultPlan::healthy().with_permanent_outage(),
    );

    let config = QpiadConfig::default()
        .with_k(8)
        .with_retry(RetryPolicy::default().with_max_attempts(3));
    let registry = Arc::new(HealthRegistry::new(
        BreakerConfig::default().with_failure_threshold(3),
    ));
    let network = MediatorNetwork::new(global.clone(), config)
        .with_health(registry.clone())
        .add_supporting(&cars, stats.clone())
        .add_deficient(&yahoo)
        .add_deficient(&carsdirect);

    let body = global.expect_attr("body_style");
    let model = global.expect_attr("model");

    // EXPLAIN before any query runs: every breaker is closed, so the plan
    // shows what a healthy pass would admit — and issues zero queries.
    let convt = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    println!("=== EXPLAIN (before any pass — all breakers closed) ===\n");
    println!("{}", network.explain(&convt));

    // body_style queries reach the deficient sources via correlated
    // rewriting (the downed member degrades: its rewrites are dropped); the
    // model query binds on every source directly, so the downed member
    // fails outright — and is isolated.
    let queries = [
        SelectQuery::new(vec![Predicate::eq(body, "Convt")]),
        SelectQuery::new(vec![Predicate::eq(body, "Truck")]),
        SelectQuery::new(vec![Predicate::eq(model, "Civic")]),
    ];
    for query in queries {
        let answer = network.answer(&query).expect("mediation never aborts");
        println!(
            "\n{} -> {} certain + {} possible answers across {} sources",
            query.display(&global),
            answer.certain_count(),
            answer.possible_count(),
            answer.per_source.len()
        );
        for part in &answer.per_source {
            let outcome = match &part.outcome {
                SourceOutcome::Healthy => "healthy".to_string(),
                SourceOutcome::Degraded(d) if d.breaker_skips > 0 && d.dropped_rewrites == 0 => {
                    format!(
                        "degraded: breaker open, {} planned queries skipped up front",
                        d.breaker_skips
                    )
                }
                SourceOutcome::Degraded(d) => format!(
                    "degraded: dropped {} rewrites, skipped {} ({:.3} F-measure mass)",
                    d.dropped_rewrites, d.breaker_skips, d.dropped_fmeasure
                ),
                SourceOutcome::Failed(e) => format!("FAILED: {e}"),
            };
            match &part.via_correlated {
                Some(via) => println!(
                    "  {:<12} {} possible answers (statistics borrowed from {via}) [{outcome}]",
                    part.source,
                    part.possible.len()
                ),
                None => println!(
                    "  {:<12} {} certain, {} possible answers [{outcome}]",
                    part.source,
                    part.certain.len(),
                    part.possible.len()
                ),
            }
        }
        for (name, err) in answer.failed_sources() {
            println!("  (outage isolated: `{name}` contributed nothing — {err})");
        }
        println!(
            "  breaker states: cars.com {:?}, yahoo_autos {:?}, carsdirect {:?}",
            registry.state("cars.com"),
            registry.state("yahoo_autos"),
            registry.state("carsdirect"),
        );
    }
    // EXPLAIN again, now that the outage tripped carsdirect's breaker:
    // the same plan renders with the member skipped up front — every one
    // of its entries carries a "breaker open" skip reason, and still not
    // one probing query is issued.
    println!("\n=== EXPLAIN (after the outage — carsdirect's breaker is open) ===\n");
    println!("{}", network.explain(&convt));

    println!(
        "\nmeters: yahoo_autos {} retries / {} failures; carsdirect {} failures, \
         {} breaker skips, degraded {}",
        yahoo.meter().retries,
        yahoo.meter().failures,
        carsdirect.meter().failures,
        carsdirect.meter().breaker_skips,
        carsdirect.meter().degraded,
    );

    // The same network, served concurrently. `QpiadServer` takes the
    // network behind `&self`, so any number of caller threads can query
    // it at once; concurrent duplicates of one (template, knowledge
    // epoch, budget) key coalesce onto a single mediation pass and share
    // its answer — and its single source fan-out.
    println!("\n=== concurrent serving (qpiad-serve) ===\n");
    let server = QpiadServer::new(network);
    server.register(Tenant::interactive("dashboard"));
    let queries = [
        SelectQuery::new(vec![Predicate::eq(body, "Convt")]),
        SelectQuery::new(vec![Predicate::eq(body, "Truck")]),
    ];
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                // Every caller replays the same duplicate-heavy mix, so
                // racing threads keep landing on in-flight passes.
                for _ in 0..4 {
                    for query in &queries {
                        let answer = server
                            .query("dashboard", query)
                            .expect("serving never aborts");
                        assert!(answer.possible_count() > 0);
                    }
                }
            });
        }
    });
    let m = server.metrics();
    println!(
        "served {} requests with {} mediation passes — {} coalesced \
         (hit rate {:.2}), {} source queries total",
        m.admitted,
        m.leaders,
        m.coalesced,
        m.coalesce_hit_rate(),
        m.source_queries(),
    );

    // The same mediator behind overload control: batch admission is
    // bounded (excess is shed before any source fan-out) and interactive
    // work descends the degradation ladder instead of being refused.
    println!("\n=== overload: bounded admission + the degradation ladder ===\n");
    let bounded_net = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .add_supporting(&cars, stats);
    let bounded = QpiadServer::new(bounded_net).with_config(
        ServeConfig::default()
            .with_batch_concurrency(1)
            .with_batch_queue_limit(1)
            .with_pressure_capacity(4),
    );
    bounded.register(Tenant::interactive("dashboard"));
    bounded.register(Tenant::batch("crawler"));

    // Walk the ladder rung by rung on one template: rising pressure
    // clamps the admitted rewrite mass to a shrinking top-ranked prefix,
    // and every shed rewrite's F-measure recall mass is charged to the
    // answer's degradation report. Certain answers survive every rung.
    let rungs = [
        PressureLevel::Normal,
        PressureLevel::Elevated,
        PressureLevel::High,
        PressureLevel::Critical,
    ];
    for rung in rungs {
        let answer = bounded
            .query_under("dashboard", &convt, rung)
            .expect("the ladder never refuses");
        let (sheds, mass) = answer
            .per_source
            .iter()
            .map(|part| match &part.outcome {
                SourceOutcome::Degraded(d) => (d.overload_sheds, d.dropped_fmeasure),
                _ => (0, 0.0),
            })
            .fold((0, 0.0), |(s, m), (ds, dm)| (s + ds, m + dm));
        println!(
            "  {:<8} -> {} certain + {:>2} possible answers  \
             ({} rewrites shed by the ladder, {:.3} recall mass)",
            rung.label(),
            answer.certain_count(),
            answer.possible_count(),
            sheds,
            mass,
        );
    }

    // EXPLAIN under pressure: the plan renders with every clamped entry
    // carrying an overload skip reason and its forgone recall mass —
    // still without issuing a single source query.
    println!("\n=== EXPLAIN (pinned at High pressure — ladder skips visible) ===\n");
    println!(
        "{}",
        bounded
            .explain_under(&convt, PressureLevel::High)
            .expect("valid template")
    );

    // Flood the batch gate from six crawler threads while the dashboard
    // keeps querying: batch work past the queue limit is refused with a
    // typed shed *before* any source fan-out; interactive work always
    // completes. The accounting balances exactly afterwards.
    std::thread::scope(|scope| {
        for caller in 0..6 {
            let bounded = &bounded;
            let queries = &queries;
            scope.spawn(move || {
                for round in 0..8 {
                    match bounded.query("crawler", &queries[(caller + round) % queries.len()]) {
                        Ok(_) | Err(ServeError::Shed { .. }) => {}
                        Err(e) => panic!("flood rejections are typed sheds: {e}"),
                    }
                }
            });
        }
        for _ in 0..4 {
            bounded
                .query("dashboard", &convt)
                .expect("interactive work is never shed");
        }
    });
    let m = bounded.metrics();
    println!(
        "flood: {} admitted, {} completed, {} shed (shed rate {:.2}); \
         accounting conserves: {}",
        m.admitted,
        m.completed,
        m.shed,
        m.shed_rate(),
        m.conserves(),
    );
}
