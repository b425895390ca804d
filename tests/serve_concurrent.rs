//! Concurrent-serving stress tests for `qpiad-serve`.
//!
//! Three properties of the serving layer are pinned here:
//!
//! * **byte-identity** — answers served concurrently are byte-identical
//!   (via `Debug` rendering) to the same queries executed serially on an
//!   identically constructed network;
//! * **coalescing** — N concurrent identical requests incur exactly one
//!   source fan-out, meter-verified against a serial twin;
//! * **non-starvation** — an interactive-class tenant completes while a
//!   batch-class flood holds every batch slot.
//!
//! Determinism is engineered, not assumed: a `GateSource` wrapper lets the
//! test hold a mediation pass in flight until the exact concurrent state
//! it wants to assert about (followers parked, batch slots saturated) is
//! observable through the server's metrics.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qpiad::core::mediator::QpiadConfig;
use qpiad::core::network::MediatorNetwork;
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{
    AttrId, AutonomousSource, Predicate, PressureLevel, QueryBudget, Relation, Schema, SelectQuery,
    SourceError, Tuple, Value, WebSource,
};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};
use qpiad::serve::{QpiadServer, ServeConfig, ServeError, Tenant};

/// A source wrapper whose `query` blocks on selected queries until the
/// test opens the gate — turning "while a pass is in flight" from a race
/// into a deterministic, observable state.
struct GateSource<S> {
    inner: S,
    open: Mutex<bool>,
    opened: Condvar,
    /// Only queries containing one of these (attr, value) equality
    /// predicates block; everything else passes straight through.
    gated: Vec<(AttrId, Value)>,
}

impl<S> GateSource<S> {
    fn new(inner: S, gated: Vec<(AttrId, Value)>) -> Self {
        GateSource {
            inner,
            open: Mutex::new(false),
            opened: Condvar::new(),
            gated,
        }
    }

    /// Gate every query.
    fn all(inner: S) -> Self {
        GateSource::new(inner, Vec::new())
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn is_gated(&self, q: &SelectQuery) -> bool {
        self.gated.is_empty()
            || q.predicates().iter().any(|p| {
                self.gated.iter().any(|(attr, value)| {
                    p.attr == *attr && matches!(&p.op, qpiad::db::PredOp::Eq(v) if v == value)
                })
            })
    }

    fn wait_open(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }
}

impl<S: AutonomousSource> AutonomousSource for GateSource<S> {
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
        if self.is_gated(q) {
            self.wait_open();
        }
        self.inner.query(q)
    }
}

/// One incomplete cars source plus its mined statistics, identically
/// reconstructible: same seeds, same relation, same knowledge.
fn cars_source(name: &str) -> (WebSource, SourceStats, Arc<Schema>) {
    let ground = CarsConfig::default().with_rows(4_000).generate(71);
    let global = ground.schema().clone();
    let (incomplete, _) = corrupt(&ground, &CorruptionConfig::default().with_seed(1));
    let stats = mine(&incomplete);
    (WebSource::new(name, incomplete), stats, global)
}

fn mine(relation: &Relation) -> SourceStats {
    SourceStats::mine(
        &uniform_sample(relation, 0.10, 2),
        relation.len(),
        &MiningConfig::default(),
    )
}

/// Polls `probe` until it holds or ten seconds elapse (a clear failure
/// instead of a wedged test run).
fn await_state(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::yield_now();
    }
}

#[test]
fn coalesced_duplicates_share_one_fanout_and_one_answer() {
    const CALLERS: usize = 6;

    let (cars, stats, global) = cars_source("cars.com");
    let gated = GateSource::all(cars);
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(6))
        .add_supporting(&gated, stats);
    let server = QpiadServer::new(network);
    server.register(Tenant::interactive("web"));

    let body = global.expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| scope.spawn(|| server.query("web", &query)))
            .collect();
        // Deterministic overlap: the leader is held inside the gated
        // source until every other caller is parked on its flight.
        await_state("1 leader + N-1 parked followers", || {
            let m = server.metrics();
            m.leaders == 1 && m.coalesce_waiters == CALLERS - 1
        });
        gated.open();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect()
    });

    // Every caller got the very same shared answer.
    for other in &answers[1..] {
        assert!(
            Arc::ptr_eq(&answers[0], other),
            "coalesced callers must share one Arc"
        );
    }
    let m = server.metrics();
    assert_eq!(m.admitted, CALLERS);
    assert_eq!(m.leaders, 1);
    assert_eq!(m.coalesced, CALLERS - 1);
    assert_eq!(m.coalesce_waiters, 0);
    assert_eq!(
        m.in_flight, 0,
        "live gauge must drain to zero at quiescence"
    );
    assert_eq!(m.errors, 0);
    assert!(
        m.conserves(),
        "admitted == completed + shed + deadline_refused + errors"
    );

    // Meter-verified: N coalesced callers cost exactly the fan-out of ONE
    // pass on a serial twin, and the answer is byte-identical to it.
    let (twin, twin_stats, twin_global) = cars_source("cars.com");
    let twin_network = MediatorNetwork::new(twin_global, QpiadConfig::default().with_k(6))
        .add_supporting(&twin, twin_stats);
    let serial = twin_network.answer(&query).unwrap();
    assert_eq!(
        gated.meter().queries,
        twin.meter().queries,
        "coalesced group must charge one pass's source queries"
    );
    assert_eq!(format!("{:?}", *answers[0]), format!("{serial:?}"));
}

#[test]
fn concurrent_mixed_workload_matches_serial_execution_byte_for_byte() {
    let (cars, stats, global) = cars_source("cars.com");
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(6))
        .add_supporting(&cars, stats);
    let server = QpiadServer::new(network);
    server.register(Tenant::interactive("web"));

    let body = global.expect_attr("body_style");
    let model = global.expect_attr("model");
    let queries: Vec<SelectQuery> = vec![
        SelectQuery::new(vec![Predicate::eq(body, "Convt")]),
        SelectQuery::new(vec![Predicate::eq(body, "Truck")]),
        SelectQuery::new(vec![Predicate::eq(model, "Civic")]),
        SelectQuery::new(vec![Predicate::eq(model, "F150")]),
    ];

    // Serial reference on an identically constructed twin.
    let (twin, twin_stats, twin_global) = cars_source("cars.com");
    let twin_network = MediatorNetwork::new(twin_global, QpiadConfig::default().with_k(6))
        .add_supporting(&twin, twin_stats);
    let reference: Vec<String> = queries
        .iter()
        .map(|q| format!("{:?}", twin_network.answer(q).unwrap()))
        .collect();

    // Concurrent: every query issued from four threads at once (a mix of
    // identical and distinct in flight at any moment).
    let rendered: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    queries
                        .iter()
                        .map(|q| format!("{:?}", server.query("web", q).unwrap()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for per_thread in &rendered {
        assert_eq!(
            per_thread, &reference,
            "concurrent answers must be byte-identical to serial"
        );
    }
    let m = server.metrics();
    assert_eq!(m.admitted, 4 * queries.len());
    assert_eq!(
        m.leaders + m.coalesced,
        m.admitted,
        "racing callers each lead a flight or join one"
    );
    assert!(m.conserves());
}

#[test]
fn interactive_tenants_are_never_starved_by_batch_floods() {
    const BATCH_CALLERS: usize = 4;

    let (cars, stats, global) = cars_source("cars.com");
    let model = global.expect_attr("model");
    // Gate only the batch workload's model-equality queries; everything
    // else (the interactive query, rewrites) passes through.
    let batch_models = ["F150", "Ram", "Silvrdo", "Tacoma"];
    let gated = GateSource::new(
        cars,
        batch_models
            .iter()
            .map(|m| (model, Value::str(*m)))
            .collect(),
    );
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(4))
        .add_supporting(&gated, stats);
    let server =
        QpiadServer::new(network).with_config(ServeConfig::default().with_batch_concurrency(1));
    server.register(Tenant::interactive("web"));
    server.register(Tenant::batch("nightly"));

    std::thread::scope(|scope| {
        let handles: Vec<_> = batch_models
            .iter()
            .map(|m| {
                scope.spawn(|| {
                    let q = SelectQuery::new(vec![Predicate::eq(model, *m)]);
                    server.query("nightly", &q)
                })
            })
            .collect();
        // Wait until the batch flood is fully admitted and one batch pass
        // is wedged inside the gated source (the other three queue on the
        // single batch slot).
        await_state("batch flood admitted and one pass in flight", || {
            let m = server.metrics();
            m.batch == BATCH_CALLERS && m.batch_in_flight_peak >= 1
        });

        // The interactive query must complete *while* the flood holds the
        // batch slot — if batch work could starve it, this call would hang
        // until the test times out.
        let q = SelectQuery::new(vec![Predicate::eq(model, "Civic")]);
        let answer = server
            .query("web", &q)
            .expect("interactive query must be served");
        assert!(answer.certain_count() > 0);

        gated.open();
        for h in handles {
            h.join().unwrap().unwrap();
        }
    });

    let m = server.metrics();
    assert_eq!(m.batch, BATCH_CALLERS);
    assert_eq!(m.interactive, 1);
    assert_eq!(
        m.batch_in_flight_peak, 1,
        "batch concurrency cap must bound concurrent batch passes"
    );
    assert_eq!(
        m.in_flight, 0,
        "live gauge must drain to zero at quiescence"
    );
    assert!(m.conserves());
}

#[test]
fn admission_rejects_unknown_tenants_and_malformed_queries_gracefully() {
    let (cars, stats, global) = cars_source("cars.com");
    let network =
        MediatorNetwork::new(global.clone(), QpiadConfig::default()).add_supporting(&cars, stats);
    let server = QpiadServer::new(network);
    server.register(Tenant::interactive("web"));

    let body = global.expect_attr("body_style");
    let good = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    // Unknown tenant: refused, not served.
    assert!(matches!(
        server.query("nobody", &good),
        Err(ServeError::UnknownTenant { .. })
    ));

    // An attribute outside the global schema would index out of tuple
    // bounds deep inside predicate matching; admission validation turns
    // it into a graceful error instead of a panic.
    let malformed = SelectQuery::new(vec![Predicate::eq(AttrId(99), "Convt")]);
    assert!(matches!(
        server.query("web", &malformed),
        Err(ServeError::MalformedQuery { .. })
    ));
    assert!(matches!(
        server.explain(&malformed),
        Err(ServeError::MalformedQuery { .. })
    ));

    // The server keeps serving after rejections.
    let answer = server.query("web", &good).unwrap();
    assert!(answer.certain_count() > 0);
    let m = server.metrics();
    assert_eq!(m.rejected, 2);
    assert_eq!(m.admitted, 1);
    assert!(
        m.conserves(),
        "rejected requests sit outside the conservation equation"
    );
}

#[test]
fn batch_work_past_the_queue_limit_is_shed_before_any_fanout() {
    let (cars, stats, global) = cars_source("cars.com");
    let model = global.expect_attr("model");
    let gated = GateSource::new(cars, vec![(model, Value::str("F150"))]);
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(4))
        .add_supporting(&gated, stats);
    let server = QpiadServer::new(network).with_config(
        ServeConfig::default()
            .with_batch_concurrency(1)
            .with_batch_queue_limit(1),
    );
    server.register(Tenant::batch("nightly"));

    std::thread::scope(|scope| {
        let wedged = scope.spawn(|| {
            let q = SelectQuery::new(vec![Predicate::eq(model, "F150")]);
            server.query("nightly", &q)
        });
        await_state("one batch pass wedged in flight", || {
            server.metrics().in_flight == 1
        });

        // The class is at its bound: the next batch request is refused
        // with a typed error before any source is contacted.
        let fanout_before = gated.meter().queries;
        let q = SelectQuery::new(vec![Predicate::eq(model, "Civic")]);
        let refused = server.query("nightly", &q);
        assert!(
            matches!(
                refused,
                Err(ServeError::Shed {
                    in_flight: 2,
                    limit: 1
                })
            ),
            "expected a typed shed, got {refused:?}"
        );
        assert_eq!(
            gated.meter().queries,
            fanout_before,
            "shed must precede all source fan-out"
        );

        gated.open();
        wedged
            .join()
            .unwrap()
            .expect("the admitted batch pass must still complete");
    });

    let m = server.metrics();
    assert_eq!(m.shed, 1);
    assert_eq!(m.completed, 1);
    assert_eq!(m.in_flight, 0);
    assert!(m.conserves());
}

#[test]
fn unfundable_deadlines_are_refused_at_the_cheapest_layer() {
    let (cars, stats, global) = cars_source("cars.com");
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(4))
        .add_supporting(&cars, stats);
    let server = QpiadServer::new(network)
        .with_config(ServeConfig::default().with_deadline(Duration::from_millis(5)));
    server.register(Tenant::interactive("web"));
    server.register(
        Tenant::interactive("slow")
            .with_budget(QueryBudget::unlimited().with_query_cost(Duration::from_millis(50))),
    );

    let body = global.expect_attr("body_style");
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    // A pass modeled at 50ms per source query cannot finish inside the
    // 5ms server-wide deadline: refused at admission, zero source cost.
    let fanout_before = cars.meter().queries;
    assert!(matches!(
        server.query("slow", &q),
        Err(ServeError::DeadlineRefused)
    ));
    assert_eq!(
        cars.meter().queries,
        fanout_before,
        "refusal must not touch any source"
    );

    // A tenant whose stamped budget still funds an attempt is served.
    assert!(server.query("web", &q).is_ok());

    let m = server.metrics();
    assert_eq!(m.deadline_refused, 1);
    assert_eq!(m.completed, 1);
    assert!(m.conserves());
}

#[test]
fn the_ladder_degrades_interactive_work_instead_of_refusing_it() {
    let (cars, stats, global) = cars_source("cars.com");
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(6))
        .add_supporting(&cars, stats);
    let server = QpiadServer::new(network);
    server.register(Tenant::interactive("web"));

    let body = global.expect_attr("body_style");
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    let normal = server
        .query_under("web", &q, PressureLevel::Normal)
        .unwrap();
    let critical = server
        .query_under("web", &q, PressureLevel::Critical)
        .unwrap();

    // The top rung keeps every certain answer and sheds every rewrite —
    // degraded recall, never a refusal.
    assert_eq!(critical.certain_count(), normal.certain_count());
    assert!(
        normal.possible_count() > 0,
        "fixture must produce possible answers at Normal"
    );
    assert_eq!(
        critical.possible_count(),
        0,
        "Critical serves certain answers only"
    );
    // The recall cost is declared, not silent: the member reports itself
    // degraded and its meter carries the shed rewrites.
    assert_eq!(critical.degraded_count(), 1);
    assert!(
        cars.meter().shed > 0,
        "shed rewrites must be charged to the source meter"
    );

    let m = server.metrics();
    assert_eq!(m.completed, 2);
    assert!(m.conserves());
}

#[test]
fn pressure_derives_from_the_live_in_flight_gauge() {
    const CALLERS: usize = 4;

    let (cars, stats, global) = cars_source("cars.com");
    let gated = GateSource::all(cars);
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(4))
        .add_supporting(&gated, stats);
    let server = QpiadServer::new(network)
        .with_config(ServeConfig::default().with_pressure_capacity(CALLERS));
    server.register(Tenant::interactive("web"));

    let body = global.expect_attr("body_style");
    assert_eq!(
        server.pressure(),
        PressureLevel::Normal,
        "an idle server is at Normal"
    );

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
                    server.query("web", &q)
                })
            })
            .collect();
        // With every pass wedged inside the gated source, the live load
        // equals the configured capacity: the ladder reads Critical.
        await_state("all callers in flight", || {
            server.metrics().in_flight == CALLERS
        });
        assert_eq!(server.pressure(), PressureLevel::Critical);
        gated.open();
        for h in handles {
            h.join().unwrap().unwrap();
        }
    });

    assert_eq!(
        server.pressure(),
        PressureLevel::Normal,
        "pressure releases with the load"
    );
    let m = server.metrics();
    assert_eq!(m.in_flight, 0);
    assert!(m.conserves());
}
