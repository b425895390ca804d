//! Knowledge lifecycle robustness: durable snapshots, drift detection,
//! and safe re-mining.
//!
//! The mined knowledge a QPIAD mediator runs on is itself a failure
//! domain: snapshot files rot on disk, and live sources evolve away from
//! the sample they were mined from. These scenarios check three
//! properties end to end:
//!
//! 1. **Containment** — a snapshot that fails to load (missing, corrupt,
//!    truncated, version-mismatched, or mined against another schema)
//!    degrades that member to certain-answers-only, charged to
//!    `Degradation::knowledge_unavailable`, instead of failing the
//!    network.
//! 2. **Detection** — a seeded, content-keyed skew of a source's live
//!    responses ([`SkewInjector`]) drives the drift statistic over the
//!    threshold and emits exactly one [`DriftVerdict`]; later passes
//!    demote the drifted member's possible answers until it is re-mined.
//! 3. **Determinism** — drift observation follows the same sequential
//!    snapshot → pass-local probe → sequential absorb protocol as breaker
//!    health, so verdicts, demotions, and post-refresh answers replay
//!    byte-identically at 1 and 8 worker threads.
//! 4. **Maintenance under traffic** — a refresh killed mid-persist
//!    (fault-injected crash between temp write and rename) leaves the
//!    store loadable at the prior version and the old epoch serving;
//!    `QpiadServer::maintain` heals a drifted member while concurrent
//!    queries flow (no refused or torn answer, exact conservation); a
//!    failed refresh backs off across passes and keeps the old
//!    generation serving byte-identically until it heals.
//!
//! The thread override is process-global; tests serialize on a mutex and
//! restore the default on drop, mirroring `fault_tolerance.rs`.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use qpiad::core::network::{MediatorNetwork, MemberFold, NetworkAnswer, SourceOutcome};
use qpiad::core::{par, QpiadConfig};
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{
    AutonomousSource, Predicate, Relation, SelectQuery, SkewInjector, SkewPlan, Value, WebSource,
};
use qpiad::learn::drift::{DriftConfig, DriftRegistry, DriftVerdict};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};
use qpiad::learn::persist::StatsSnapshot;
use qpiad::learn::store::{encode_snapshot, KnowledgeStore, PersistFault};
use qpiad::serve::{QpiadServer, ServeConfig, Tenant};

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

/// A fresh scratch store under `target/` (never outside the repo).
fn scratch_store(name: &str) -> KnowledgeStore {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/test-knowledge-lifecycle")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    KnowledgeStore::open(dir).unwrap()
}

struct Fixture {
    cars_ed: Relation,
    cars_stats: SourceStats,
    config: MiningConfig,
}

fn fixture() -> Fixture {
    let cars_gd = CarsConfig::default().with_rows(5_000).generate(91);
    let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(1));
    let config = MiningConfig::default();
    let cars_stats = SourceStats::mine(&uniform_sample(&cars_ed, 0.10, 2), cars_ed.len(), &config);
    Fixture {
        cars_ed,
        cars_stats,
        config,
    }
}

/// Everything order- and rank-sensitive about a network answer, with float
/// bits compared exactly. Outcomes (including knowledge / drift
/// degradation accounting) are part of the signature.
fn signature(answer: &NetworkAnswer) -> Vec<String> {
    answer
        .per_source
        .iter()
        .flat_map(|part| {
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
            .collect::<Vec<_>>()
        })
        .chain(answer.drift_verdicts.iter().map(|v| {
            format!(
                "verdict {} stat={:016x} value={:016x} afd={:016x} observed={}",
                v.source,
                v.statistic.to_bits(),
                v.value_divergence.to_bits(),
                v.afd_divergence.to_bits(),
                v.observed
            )
        }))
        .collect()
}

// ---------------------------------------------------------------------------
// 1. Containment: every load-failure class serves certain answers only.
// ---------------------------------------------------------------------------

#[test]
fn every_load_failure_class_degrades_to_certain_answers_only() {
    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let good = encode_snapshot(&StatsSnapshot::capture(&f.cars_stats, &f.config));

    // A snapshot mined against a narrower schema (body_style dropped):
    // decodes fine, but does not match the source it is loaded for.
    let keep: Vec<_> = global
        .attr_ids()
        .filter(|a| global.attr(*a).name() != "body_style")
        .collect();
    let narrow = f.cars_ed.project_to("cars.com", &keep);
    let narrow_stats =
        SourceStats::mine(&uniform_sample(&narrow, 0.10, 2), narrow.len(), &f.config);
    let narrow_text = encode_snapshot(&StatsSnapshot::capture(&narrow_stats, &f.config));

    let cases: [(&str, Option<String>, &str); 5] = [
        ("missing", None, "missing"),
        (
            "garbage",
            Some("not a snapshot at all".to_string()),
            "corrupt",
        ),
        (
            "truncated",
            Some(good[..good.len() / 2].to_string()),
            "corrupt",
        ),
        (
            "future-version",
            Some(good.replacen(" v1 ", " v9 ", 1)),
            "version-mismatch",
        ),
        ("other-schema", Some(narrow_text), "schema-mismatch"),
    ];

    let body = global.expect_attr("body_style");
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    for (name, contents, expected_kind) in cases {
        let store = scratch_store(name);
        if let Some(text) = contents {
            std::fs::write(store.path_for("cars.com"), text).unwrap();
        }
        let cars = WebSource::new("cars.com", f.cars_ed.clone());
        let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting_from_store(&cars, &store);

        let failures = network.knowledge_failures();
        assert_eq!(failures.len(), 1, "case `{name}`");
        assert_eq!(failures[0].1.kind(), expected_kind, "case `{name}`");

        let answer = network.answer(&q).unwrap();
        let part = &answer.per_source[0];
        assert!(
            !part.certain.is_empty(),
            "case `{name}`: certain answers must survive"
        );
        assert!(
            part.possible.is_empty(),
            "case `{name}`: no statistics, no possible answers"
        );
        match &part.outcome {
            SourceOutcome::Degraded(d) => {
                assert_eq!(d.knowledge_unavailable, 1, "case `{name}`");
                assert!(d.is_degraded(), "case `{name}`");
            }
            other => panic!("case `{name}`: expected degraded outcome, got {other:?}"),
        }
        assert_eq!(cars.meter().knowledge_unavailable, 1, "case `{name}`");
    }
}

#[test]
fn a_healthy_snapshot_round_trips_through_the_store() {
    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let store = scratch_store("round-trip");
    store
        .save(
            "cars.com",
            &StatsSnapshot::capture(&f.cars_stats, &f.config),
        )
        .unwrap();

    let cars = WebSource::new("cars.com", f.cars_ed.clone());
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .add_supporting_from_store(&cars, &store);
    assert!(network.knowledge_failures().is_empty());

    let body = global.expect_attr("body_style");
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let restored = network.answer(&q).unwrap();

    // Byte-identical to a network running on the live-mined statistics.
    let live = MediatorNetwork::new(global, QpiadConfig::default().with_k(8))
        .add_supporting(&cars, f.cars_stats.clone());
    let live_answer = live.answer(&q).unwrap();
    assert_eq!(signature(&restored), signature(&live_answer));
    assert!(restored.per_source[0].outcome.is_healthy());
}

// ---------------------------------------------------------------------------
// 2 + 3. Detection and determinism: skewed responses fire one verdict,
// demote the member, and re-mining restores full byte-identical service.
// ---------------------------------------------------------------------------

/// Runs the full drift lifecycle at a given thread count and returns the
/// signatures of the four passes (pre-verdict, verdict, demoted,
/// refreshed) for cross-thread-count comparison.
fn drift_lifecycle(f: &Fixture, threads: usize) -> [Vec<String>; 3] {
    par::set_thread_override(Some(threads));

    let global = f.cars_ed.schema().clone();
    let make = global.expect_attr("make");
    let body = global.expect_attr("body_style");

    // Content-keyed skew: ~90% of returned tuples report make=Monopoly.
    // The mined sample never saw that value, so the make distribution's
    // total-variation distance shoots toward 1.
    let plan = SkewPlan::new(make, Value::str("Monopoly"), 0.9, 77);
    let cars = SkewInjector::new(WebSource::new("cars.com", f.cars_ed.clone()), plan);

    let registry = Arc::new(DriftRegistry::new(
        DriftConfig::default()
            .with_min_observations(20)
            .with_threshold(0.35),
    ));
    let store = scratch_store(&format!("drift-{threads}"));
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .with_drift(registry.clone())
        .add_supporting(&cars, f.cars_stats.clone());

    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    // Pass 1: the skewed base response alone crosses the threshold — the
    // verdict fires in this pass's sequential absorb phase, so the
    // answers themselves are not yet demoted.
    let first = network.answer(&q).unwrap();
    assert_eq!(first.drift_verdicts.len(), 1, "threads={threads}");
    let verdict: &DriftVerdict = &first.drift_verdicts[0];
    assert_eq!(verdict.source, "cars.com");
    assert!(verdict.statistic >= verdict.threshold);
    assert!(registry.is_drifted("cars.com"));
    assert_eq!(registry.pending_refresh(), vec!["cars.com".to_string()]);
    assert!(cars.meter().drift_events >= 1);

    // Pass 2: the sticky verdict demotes this pass up front. The verdict
    // is not re-issued.
    let demoted = network.answer(&q).unwrap();
    assert!(demoted.drift_verdicts.is_empty());
    match &demoted.per_source[0].outcome {
        SourceOutcome::Degraded(d) => assert!(d.drift_demoted, "threads={threads}"),
        other => panic!("expected drift-demoted outcome, got {other:?}"),
    }
    // Demotion scales every possible answer's precision by the factor.
    for (before, after) in first.per_source[0]
        .possible
        .iter()
        .zip(&demoted.per_source[0].possible)
    {
        assert_eq!(
            after.query_precision.to_bits(),
            (before.query_precision * 0.5).to_bits()
        );
    }

    // Re-mine from what the source returns *now* (the skewed
    // distribution) and atomically swap it in, persisting the snapshot.
    let skewed_rows: Vec<_> = f
        .cars_ed
        .tuples()
        .iter()
        .map(|t| {
            if t.value(make).is_null() {
                t.clone()
            } else {
                t.with_value(make, Value::str("Monopoly"))
            }
        })
        .collect();
    let skewed_ed = Relation::new(global.clone(), skewed_rows);
    let fresh_stats = SourceStats::mine(
        &uniform_sample(&skewed_ed, 0.10, 2),
        skewed_ed.len(),
        &f.config,
    );
    network
        .refresh_member(
            "cars.com",
            |_| Ok(fresh_stats.clone()),
            Some((&store, &f.config)),
        )
        .unwrap();
    assert!(!registry.is_drifted("cars.com"), "threads={threads}");
    assert!(registry.pending_refresh().is_empty());
    assert!(store.load_for("cars.com", cars.schema()).is_ok());

    // Pass 3: full service again on knowledge that matches the live
    // distribution — no demotion, no new verdict.
    let refreshed = network.answer(&q).unwrap();
    assert!(refreshed.drift_verdicts.is_empty());
    assert!(!refreshed.per_source[0].possible.is_empty());
    match &refreshed.per_source[0].outcome {
        SourceOutcome::Healthy => {}
        SourceOutcome::Degraded(d) => {
            assert!(
                !d.drift_demoted,
                "threads={threads}: refresh must clear the demotion"
            )
        }
        other => panic!("unexpected outcome after refresh: {other:?}"),
    }

    [
        signature(&first),
        signature(&demoted),
        signature(&refreshed),
    ]
}

#[test]
fn skewed_responses_fire_one_verdict_and_refresh_restores_service() {
    let _guard = PinnedPool::acquire();
    let f = fixture();
    let [first, demoted, refreshed] = drift_lifecycle(&f, 1);
    assert_ne!(first, demoted, "demotion must change the answer");
    assert_ne!(demoted, refreshed, "refresh must change the answer");
}

#[test]
fn drift_lifecycle_replays_identically_at_1_and_8_threads() {
    let _guard = PinnedPool::acquire();
    let f = fixture();
    let sequential = drift_lifecycle(&f, 1);
    let parallel = drift_lifecycle(&f, 8);
    assert_eq!(sequential, parallel);
}

// ---------------------------------------------------------------------------
// Mixed-lifecycle network: broken knowledge, drifting knowledge, and a
// deficient member all in one pass, replayed across thread counts.
// ---------------------------------------------------------------------------

fn mixed_network_passes(f: &Fixture, threads: usize) -> Vec<Vec<String>> {
    par::set_thread_override(Some(threads));
    let global = f.cars_ed.schema().clone();
    let make = global.expect_attr("make");
    let body = global.expect_attr("body_style");

    let cars = SkewInjector::new(
        WebSource::new("cars.com", f.cars_ed.clone()),
        SkewPlan::new(make, Value::str("Monopoly"), 0.9, 77),
    );

    // auctions: supporting, but its snapshot is corrupt on disk.
    let store = scratch_store(&format!("mixed-{threads}"));
    std::fs::write(store.path_for("auctions"), "garbage").unwrap();
    let auctions_gd = CarsConfig::default().with_rows(5_000).generate(93);
    let (auctions_ed, _) = corrupt(&auctions_gd, &CorruptionConfig::default().with_seed(3));
    let auctions_ed = auctions_ed.project_to("auctions", &global.attr_ids().collect::<Vec<_>>());
    let auctions = WebSource::new("auctions", auctions_ed);

    // yahoo: deficient (no body_style), served through the correlated
    // supporting member.
    let keep: Vec<_> = global
        .attr_ids()
        .filter(|a| global.attr(*a).name() != "body_style")
        .collect();
    let yahoo_local = CarsConfig::default()
        .with_rows(5_000)
        .generate(92)
        .project_to("yahoo_autos", &keep);
    let yahoo = WebSource::new("yahoo_autos", yahoo_local);

    let registry = Arc::new(DriftRegistry::new(
        DriftConfig::default().with_min_observations(20),
    ));
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .with_drift(registry)
        .add_supporting(&cars, f.cars_stats.clone())
        .add_supporting_from_store(&auctions, &store)
        .add_deficient(&yahoo);
    assert_eq!(network.knowledge_failures().len(), 1);

    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    (0..3)
        .map(|_| signature(&network.answer(&q).unwrap()))
        .collect()
}

#[test]
fn mixed_lifecycle_network_replays_identically_across_thread_counts() {
    let _guard = PinnedPool::acquire();
    let f = fixture();
    let sequential = mixed_network_passes(&f, 1);
    let parallel = mixed_network_passes(&f, 8);
    assert_eq!(sequential, parallel);

    // The corrupt-store member keeps serving certain answers in every
    // pass, and the drifted member's demotion shows up from pass 2 on.
    assert!(sequential[0].iter().any(|l| l.contains("verdict cars.com")));
    assert!(sequential[1]
        .iter()
        .any(|l| l.contains("drift_demoted: true")));
    assert!(sequential[2]
        .iter()
        .any(|l| l.contains("source auctions") && l.contains("knowledge_unavailable: 1")));
}

// ---------------------------------------------------------------------------
// 4. Crash safety: a refresh killed mid-persist leaves the store loadable
// at the prior version, the old generation serving, and a restart sweeps
// the debris.
// ---------------------------------------------------------------------------

#[test]
fn crash_mid_persist_leaves_store_loadable_at_prior_version() {
    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let store = scratch_store("crash-mid-persist");
    store
        .save(
            "cars.com",
            &StatsSnapshot::capture(&f.cars_stats, &f.config),
        )
        .unwrap();

    let cars = WebSource::new("cars.com", f.cars_ed.clone());
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .add_supporting_from_store(&cars, &store);
    assert!(network.knowledge_failures().is_empty());

    let body = global.expect_attr("body_style");
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let before = signature(&network.answer(&q).unwrap());
    let prior = store.load_for("cars.com", cars.schema()).unwrap();

    // Fresh statistics that would replace the snapshot — but the process
    // "dies" after writing the temp file, before the rename.
    let fresh = SourceStats::mine(
        &uniform_sample(&f.cars_ed, 0.10, 7),
        f.cars_ed.len(),
        &f.config,
    );
    store.inject_persist_fault("cars.com", PersistFault::CrashBeforeRename);
    let err = network.refresh_member("cars.com", |_| Ok(fresh.clone()), Some((&store, &f.config)));
    assert!(err.is_err(), "a crashed persist must fail the refresh");
    assert_eq!(cars.meter().refresh_failures, 1);
    assert_eq!(cars.meter().refreshes, 0);

    // The crash left debris (temp file + journal) next to the snapshot...
    let tmp_debris = store.path_for("cars.com").with_extension("qks.tmp");
    assert!(
        tmp_debris.exists(),
        "crash-before-rename must leave the temp file"
    );

    // ...yet the store still loads the *prior* version, and the old
    // generation keeps serving byte-identically — nothing was published.
    let loaded = store.load_for("cars.com", cars.schema()).unwrap();
    assert_eq!(encode_snapshot(&loaded), encode_snapshot(&prior));
    assert_eq!(signature(&network.answer(&q).unwrap()), before);
    assert_eq!(network.member_epochs(), vec![("cars.com".to_string(), 0)]);

    // A restart — reopening the store — runs the recovery sweep: the
    // orphaned temp file and journal are removed, the snapshot survives.
    let reopened = KnowledgeStore::open(store.root().to_path_buf()).unwrap();
    assert!(!tmp_debris.exists(), "reopen must sweep crash debris");
    let reloaded = reopened.load_for("cars.com", cars.schema()).unwrap();
    assert_eq!(encode_snapshot(&reloaded), encode_snapshot(&prior));

    // With the fault consumed, the same refresh now lands: durable first,
    // then published, epoch bumped.
    network
        .refresh_member(
            "cars.com",
            |_| Ok(fresh.clone()),
            Some((&reopened, &f.config)),
        )
        .unwrap();
    assert_eq!(network.member_epochs(), vec![("cars.com".to_string(), 1)]);
    assert_eq!(cars.meter().refreshes, 1);
    let healed = reopened.load_for("cars.com", cars.schema()).unwrap();
    assert_ne!(encode_snapshot(&healed), encode_snapshot(&prior));
}

// ---------------------------------------------------------------------------
// 5. Maintenance under live traffic: drift fires, maintain() heals the
// member while concurrent queries keep flowing, and no request is ever
// refused or served a torn answer.
// ---------------------------------------------------------------------------

#[test]
fn maintain_heals_a_drifted_member_under_concurrent_traffic() {
    let _guard = PinnedPool::acquire();
    par::set_thread_override(Some(4));

    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let make = global.expect_attr("make");
    let body = global.expect_attr("body_style");

    let plan = SkewPlan::new(make, Value::str("Monopoly"), 0.9, 77);
    let cars = SkewInjector::new(WebSource::new("cars.com", f.cars_ed.clone()), plan);
    let registry = Arc::new(DriftRegistry::new(
        DriftConfig::default()
            .with_min_observations(20)
            .with_threshold(0.35),
    ));
    let store = scratch_store("maintain-under-traffic");
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .with_drift(registry.clone())
        .add_supporting(&cars, f.cars_stats.clone());
    // The incremental fast path is pinned off: this scenario checks the
    // *full* re-mine under racing traffic, and whether a fold's delta
    // crosses the bound would depend on how many rows the query threads
    // have streamed by the time maintenance runs.
    let server = QpiadServer::new(network)
        .with_config(
            ServeConfig::default()
                .with_refresh_retries(2)
                .with_prefer_incremental(false),
        )
        .with_knowledge_store(store, f.config.clone());
    server.register(Tenant::interactive("t"));

    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    // Pass 1 fires the drift verdict; the member is queued for refresh.
    server.query("t", &q).unwrap();
    assert_eq!(server.metrics().pending_refresh, 1);

    // What the source serves now: the skewed distribution, re-mined.
    let skewed_rows: Vec<_> = f
        .cars_ed
        .tuples()
        .iter()
        .map(|t| {
            if t.value(make).is_null() {
                t.clone()
            } else {
                t.with_value(make, Value::str("Monopoly"))
            }
        })
        .collect();
    let skewed_ed = Relation::new(global.clone(), skewed_rows);
    let fresh = SourceStats::mine(
        &uniform_sample(&skewed_ed, 0.10, 2),
        skewed_ed.len(),
        &f.config,
    );

    // Maintenance races a four-thread query flood. Every request must
    // settle — completed, never refused, never torn.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..25 {
                    let answer = server.query("t", &q).unwrap();
                    assert!(!answer.per_source[0].certain.is_empty());
                }
            });
        }
        scope.spawn(|| {
            let report = server.maintain(|name, _| {
                assert_eq!(name, "cars.com");
                Ok(fresh.clone())
            });
            assert_eq!(report.refreshed, vec!["cars.com".to_string()]);
            assert!(report.failed.is_empty());
        });
    });

    let m = server.metrics();
    assert!(
        m.conserves(),
        "every admitted request must settle exactly once"
    );
    assert_eq!(m.errors, 0, "no request may fail across the swap");
    assert_eq!(m.refresh_success, 1);
    assert_eq!(m.refresh_failure, 0);
    assert_eq!(m.last_refresh_pass, 1);
    assert_eq!(m.knowledge_epochs, vec![("cars.com".to_string(), 1)]);
    assert_eq!(
        m.pending_refresh, 0,
        "the healed member leaves the refresh queue"
    );
    assert!(!registry.is_drifted("cars.com"));

    // EXPLAIN now reports the provenance of the serving generation.
    let explain = server.explain(&q).unwrap();
    assert!(
        explain.contains("knowledge refreshed at pass 1 (epoch 1)"),
        "EXPLAIN must surface the refresh: {explain}"
    );

    // A second maintenance pass finds nothing to do.
    let idle = server.maintain(|_, _| Ok(fresh.clone()));
    assert!(idle.is_idle());
    assert_eq!(idle.pass, 2);
}

// ---------------------------------------------------------------------------
// 6. Failed refreshes under maintain(): bounded retries, cross-pass
// backoff, and the old generation never stops serving.
// ---------------------------------------------------------------------------

#[test]
fn failed_refresh_backs_off_and_keeps_the_old_generation_serving() {
    let _guard = PinnedPool::acquire();
    par::set_thread_override(Some(1));

    let f = fixture();
    let global = f.cars_ed.schema().clone();
    let make = global.expect_attr("make");
    let body = global.expect_attr("body_style");

    let plan = SkewPlan::new(make, Value::str("Monopoly"), 0.9, 77);
    let cars = SkewInjector::new(WebSource::new("cars.com", f.cars_ed.clone()), plan);
    let registry = Arc::new(DriftRegistry::new(
        DriftConfig::default()
            .with_min_observations(20)
            .with_threshold(0.35),
    ));
    let store = scratch_store("maintain-backoff");
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .with_drift(registry.clone())
        .add_supporting(&cars, f.cars_stats.clone());
    let server = QpiadServer::new(network)
        .with_config(
            ServeConfig::default()
                .with_refresh_retries(2)
                .with_refresh_backoff_base(2),
        )
        .with_knowledge_store(store, f.config.clone());
    server.register(Tenant::interactive("t"));

    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    server.query("t", &q).unwrap();
    assert!(registry.is_drifted("cars.com"));
    let before = signature(&server.query("t", &q).unwrap());

    // Pass 1: mining fails both attempts — the member keeps its old
    // (drift-demoted) generation and backs off for two passes.
    let report = server.maintain(|_, _| Err(qpiad::db::SourceError::Timeout { waited_ms: 5 }));
    assert_eq!(report.pass, 1);
    assert_eq!(report.failed.len(), 1);
    assert_eq!(report.retries, 1, "one extra in-pass attempt");
    let m = server.metrics();
    assert_eq!(m.refresh_failure, 1);
    assert_eq!(m.refresh_retries, 1);
    assert_eq!(m.last_refresh_pass, 0, "no refresh ever succeeded");
    assert_eq!(m.knowledge_epochs, vec![("cars.com".to_string(), 0)]);

    // Pass 2: still inside the backoff window — deferred, not retried.
    let deferred = server.maintain(|_, _| panic!("a deferred candidate must not be mined"));
    assert_eq!(deferred.deferred, vec!["cars.com".to_string()]);
    assert!(deferred.failed.is_empty() && deferred.refreshed.is_empty());

    // The old generation kept serving byte-identically throughout.
    assert_eq!(signature(&server.query("t", &q).unwrap()), before);

    // Pass 3: the window elapsed; a now-healthy mine heals the member.
    let fresh = SourceStats::mine(
        &uniform_sample(&f.cars_ed, 0.10, 7),
        f.cars_ed.len(),
        &f.config,
    );
    let healed = server.maintain(|_, _| Ok(fresh.clone()));
    assert_eq!(healed.pass, 3);
    assert_eq!(healed.refreshed, vec!["cars.com".to_string()]);
    let m = server.metrics();
    assert_eq!(m.refresh_success, 1);
    assert_eq!(m.last_refresh_pass, 3);
    assert_eq!(m.knowledge_epochs, vec![("cars.com".to_string(), 1)]);
    assert!(m.conserves());
}

// ---------------------------------------------------------------------------
// 7. Incremental maintenance: validated live rows stream into the sample,
// maintain() folds them without a full re-mine, and the whole path replays
// byte-identically across thread counts.
// ---------------------------------------------------------------------------

/// Dataset seed for the incremental scenarios, env-overridable so the CI
/// matrix (`QPIAD_CHAOS_SEED`) exercises different generated worlds.
fn chaos_seed() -> u64 {
    std::env::var("QPIAD_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn seeded_fixture() -> Fixture {
    let cars_gd = CarsConfig::default()
        .with_rows(5_000)
        .generate(chaos_seed());
    let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(1));
    let config = MiningConfig::default();
    let cars_stats = SourceStats::mine(&uniform_sample(&cars_ed, 0.10, 2), cars_ed.len(), &config);
    Fixture {
        cars_ed,
        cars_stats,
        config,
    }
}

#[test]
fn maintenance_folds_streamed_rows_without_a_full_remine() {
    let _guard = PinnedPool::acquire();
    par::set_thread_override(Some(4));

    let f = seeded_fixture();
    let global = f.cars_ed.schema().clone();
    let body = global.expect_attr("body_style");

    // An un-skewed source with a hair-trigger drift threshold: the first
    // observed pass queues the member for refresh, but the live rows it
    // streamed are genuine — their folded confidence deltas stay tiny, so
    // the incremental path can serve the refresh.
    let cars = WebSource::new("cars.com", f.cars_ed.clone());
    let registry = Arc::new(DriftRegistry::new(
        DriftConfig::default()
            .with_min_observations(10)
            .with_threshold(0.0),
    ));
    let store = scratch_store("maintain-incremental");
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .with_drift(registry.clone())
        .add_supporting(&cars, f.cars_stats.clone());
    let server = QpiadServer::new(network)
        .with_config(ServeConfig::default().with_refold_bound(0.5))
        .with_knowledge_store(store, f.config.clone());
    server.register(Tenant::interactive("t"));

    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    server.query("t", &q).unwrap();
    let m = server.metrics();
    assert_eq!(
        m.pending_refresh, 1,
        "the hair-trigger verdict must queue the member"
    );
    assert!(
        m.stream.pending > 0,
        "validated live rows must be streaming"
    );
    assert!(m.stream.collected > 0);

    // Maintenance folds the streamed rows; the full-mine closure must
    // never run.
    let report = server.maintain(|_, _| panic!("an incremental fold must not re-mine"));
    assert_eq!(report.folded, vec!["cars.com".to_string()]);
    assert!(report.refreshed.is_empty() && report.failed.is_empty());
    assert!(!report.is_idle());

    let m = server.metrics();
    assert_eq!(m.refresh_success, 1);
    assert_eq!(m.refresh_incremental, 1);
    assert_eq!(m.refresh_full, 0);
    assert_eq!(m.last_refresh_pass, 1);
    assert_eq!(m.knowledge_epochs, vec![("cars.com".to_string(), 1)]);
    assert_eq!(
        m.pending_refresh, 0,
        "the folded member leaves the refresh queue"
    );
    assert!(m.stream.folded > 0, "consumed rows are charged to the fold");
    assert_eq!(m.stream.pending, 0, "the fold drains the stream");
    assert!(!registry.is_drifted("cars.com"));

    // EXPLAIN names the kind of refresh that produced the serving
    // generation.
    let explain = server.explain(&q).unwrap();
    assert!(
        explain.contains("knowledge refreshed at pass 1 (epoch 1) via incremental fold"),
        "EXPLAIN must surface the fold: {explain}"
    );

    // Service continues on the folded generation.
    let answer = server.query("t", &q).unwrap();
    assert!(!answer.per_source[0].certain.is_empty());
    assert!(server.metrics().conserves());
}

/// Runs verdict → incremental fold → post-fold pass at a given thread
/// count and returns everything observable: both answers' signatures plus
/// the fold's row count and exact max delta.
fn incremental_lifecycle(f: &Fixture, threads: usize) -> Vec<Vec<String>> {
    par::set_thread_override(Some(threads));

    let global = f.cars_ed.schema().clone();
    let body = global.expect_attr("body_style");
    let cars = WebSource::new("cars.com", f.cars_ed.clone());
    let registry = Arc::new(DriftRegistry::new(
        DriftConfig::default()
            .with_min_observations(10)
            .with_threshold(0.0),
    ));
    let store = scratch_store(&format!("incremental-{threads}"));
    let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
        .with_drift(registry.clone())
        .add_supporting(&cars, f.cars_stats.clone());

    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let first = network.answer(&q).unwrap();
    assert_eq!(
        registry.pending_refresh(),
        vec!["cars.com".to_string()],
        "threads={threads}"
    );

    let fold = network
        .refresh_member_incremental_at(
            "cars.com",
            &f.config,
            Some((&store, &f.config)),
            0.5,
            Some(1),
        )
        .unwrap();
    let fold_line = match fold {
        MemberFold::Folded { rows, max_delta } => {
            format!("folded rows={rows} max_delta={:016x}", max_delta.to_bits())
        }
        other => panic!("threads={threads}: expected a fold, got {other:?}"),
    };
    assert_eq!(network.member_epochs(), vec![("cars.com".to_string(), 1)]);
    assert!(
        store.load_for("cars.com", cars.schema()).is_ok(),
        "fold persists before publishing"
    );

    let after = network.answer(&q).unwrap();
    vec![signature(&first), vec![fold_line], signature(&after)]
}

#[test]
fn incremental_fold_replays_identically_at_1_and_8_threads() {
    let _guard = PinnedPool::acquire();
    let f = seeded_fixture();
    let sequential = incremental_lifecycle(&f, 1);
    let parallel = incremental_lifecycle(&f, 8);
    assert_eq!(sequential, parallel);
    assert_ne!(
        sequential[0], sequential[2],
        "the folded generation must actually change the served answer's provenance"
    );
}
