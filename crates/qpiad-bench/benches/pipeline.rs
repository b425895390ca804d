//! Sequential-vs-parallel wall times for the mediation pipeline.
//!
//! Runs the parallelized stages — statistics mining, single-source
//! `Qpiad::answer`, multi-source `MediatorNetwork::answer`, the
//! fault-injected network, the breaker-guarded faulted network, the
//! knowledge lifecycle (snapshot persist + store load + drift-watched
//! answer), the concurrent serving front end (`qpiad-serve` with request
//! coalescing), a knowledge refresh under live traffic (drift-triggered
//! `maintain()`: re-mine + persist + epoch swap while callers flood), an
//! incremental maintenance fold (streamed validated rows folded into the
//! 1M-row fixture's knowledge without a TANE re-run, timed against the
//! full re-mine), and a 1M-row cold-answer scale probe — at
//! `bench_scale()` with the worker pool pinned to 1 thread and then to the
//! machine's hardware parallelism, and writes the timings to
//! `BENCH_pipeline.json` at the repository root.
//!
//! `QPIAD_BENCH_QUICK=1` runs a reduced-scale smoke pass (CI) and writes
//! the JSON under `target/` instead of the repo root, so committed numbers
//! only ever come from a full run.
//!
//! Not a criterion harness: the thread override is process-global, so the
//! sequential and parallel passes must run in a controlled order.

use std::time::Instant;

use qpiad_bench::bench_scale;
use qpiad_core::network::MediatorNetwork;
use qpiad_core::par;
use qpiad_core::{Degradation, PlanCache, Qpiad, QpiadConfig, QueryContext};
use std::sync::Arc;

use qpiad_db::{
    AutonomousSource, BreakerConfig, FaultInjector, FaultPlan, HealthRegistry, Predicate, Relation,
    RetryPolicy, SelectQuery, SelectionEngine, Value, WebSource,
};
use qpiad_eval::experiments::common::cars_world;
use qpiad_learn::drift::{DriftConfig, DriftRegistry};
use qpiad_learn::knowledge::{FoldOutcome, MiningConfig, SourceStats};
use qpiad_learn::persist::StatsSnapshot;
use qpiad_learn::store::KnowledgeStore;
use qpiad_serve::{QpiadServer, ServeConfig, ServeError, Tenant};

struct Run {
    name: &'static str,
    threads: usize,
    secs_mean: f64,
    secs_min: f64,
}

fn time<F: FnMut()>(name: &'static str, threads: usize, reps: usize, mut f: F) -> Run {
    par::set_thread_override(Some(threads));
    // Warm-up rep: fault in lazily built indexes so they don't skew rep 1.
    // (The scale stage deliberately rebuilds its engine inside the closure,
    // so for it every rep — including this one — is a full cold answer.)
    f();
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        secs.push(t0.elapsed().as_secs_f64());
    }
    par::set_thread_override(None);
    let secs_mean = secs.iter().sum::<f64>() / secs.len() as f64;
    let secs_min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("{name:>8} threads={threads}: mean {secs_mean:.4}s  min {secs_min:.4}s");
    Run {
        name,
        threads,
        secs_mean,
        secs_min,
    }
}

fn main() {
    let quick = std::env::var("QPIAD_BENCH_QUICK").is_ok_and(|v| v == "1" || v == "true");
    let mut scale = bench_scale();
    if quick {
        // Match `Scale::quick()`'s cars sizing: small enough for a CI smoke
        // run, large enough that mined statistics stay out of the
        // small-sample regime that trips the drift watcher.
        scale.cars_rows = 5_000;
    }
    let reps = if quick { 1 } else { 5 };
    let scale_rows = if quick { 50_000 } else { 1_000_000 };
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let par_threads = hw.max(2);
    println!(
        "pipeline bench at {} rows{} — {hw} hardware thread(s)",
        scale.cars_rows,
        if quick { " (QPIAD_BENCH_QUICK)" } else { "" }
    );

    let world = cars_world(&scale);
    let sample = qpiad_data::sample::uniform_sample(&world.ed, scale.sample_fraction, scale.seed);
    let source = world.web_source("cars.com");
    let body = world.ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    // Deficient second source for the network stage: same schema family,
    // different instance, body_style projected away.
    let yahoo_ground = qpiad_data::cars::CarsConfig::default()
        .with_rows(scale.cars_rows / 2)
        .generate(scale.seed.wrapping_add(9));
    let keep: Vec<_> = world
        .ed
        .schema()
        .attr_ids()
        .filter(|a| world.ed.schema().attr(*a).name() != "body_style")
        .collect();
    let yahoo = WebSource::new("yahoo_autos", yahoo_ground.project_to("yahoo_autos", &keep));

    // Fault-tolerance stage: the same network with the deficient source
    // flaking on every first attempt (recovered by one retry) plus a
    // permanently-down third member — measures the cost of the retry
    // boundary and per-member isolation on top of the healthy path.
    let flaky_yahoo = FaultInjector::new(
        WebSource::new("yahoo_autos", yahoo_ground.project_to("yahoo_autos", &keep)),
        FaultPlan::healthy().with_fail_first_attempts(1),
    );
    let all_attrs: Vec<_> = world.ed.schema().attr_ids().collect();
    let down = FaultInjector::new(
        WebSource::new("down", yahoo_ground.project_to("down", &all_attrs)),
        FaultPlan::healthy().with_permanent_outage(),
    );

    // Knowledge stage inputs: the mined snapshot and a scratch store under
    // `target/` (inside the repo, recreated per run).
    let snapshot = StatsSnapshot::capture(&world.stats, &MiningConfig::default());
    let store_dir = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/qpiad-bench-store"
    );

    // Plan-cache stage inputs: a materialized base set (planning input,
    // retrieved once so neither pass pays for it) and the shared cache the
    // warm pass is served from.
    let base = source.query(&query).expect("base query");
    let plan_cache = Arc::new(PlanCache::new());

    // Posting-memory check: each row lands in exactly one posting list per
    // indexed attribute (the null list is postings[0]), so total entries
    // across an attribute's lists equal the row count — the index stores
    // every posting once, with no duplicate eq/range structures.
    let posting_entries = {
        let engine = SelectionEngine::new();
        for attr in world.ed.schema().attr_ids() {
            engine.select(&world.ed, &SelectQuery::new(vec![Predicate::is_null(attr)]));
        }
        let entries = engine.posting_entries();
        assert_eq!(
            entries,
            engine.built_indexes() * world.ed.len(),
            "postings must be stored exactly once per (attribute, row)"
        );
        entries
    };

    let mut runs: Vec<Run> = Vec::new();
    for threads in [1usize, par_threads] {
        runs.push(time("mine", threads, reps, || {
            let stats = SourceStats::mine(&sample, world.ed.len(), &MiningConfig::default());
            assert!(!stats.afds().is_empty());
        }));
        runs.push(time("answer", threads, reps, || {
            let qpiad = Qpiad::new(world.stats.clone(), QpiadConfig::default().with_k(10));
            let ans = qpiad
                .answer(&source, &query)
                .expect("web source accepts rewrites");
            assert!(!ans.possible.is_empty());
        }));
        // Plan-cache stage: the planning half alone (rewrite generation,
        // F-measure ranking, admission), 32 repeats per pass. Cold plans
        // from scratch every time; warm serves the same template from a
        // shared plan cache — the knowledge-versioned memoization win.
        runs.push(time("plan_cold", threads, reps, || {
            let qpiad = Qpiad::new(world.stats.clone(), QpiadConfig::default().with_k(10));
            for _ in 0..32 {
                let mut ctx = QueryContext::unbounded();
                let mut degraded = Degradation::default();
                let plan = qpiad.plan(&source, &query, &base, &mut ctx, &mut degraded);
                assert!(plan.admitted_len() > 0);
            }
        }));
        runs.push(time("plan_warm", threads, reps, || {
            let qpiad = Qpiad::new(world.stats.clone(), QpiadConfig::default().with_k(10))
                .with_plan_cache(Arc::clone(&plan_cache), 0);
            for _ in 0..32 {
                let mut ctx = QueryContext::unbounded();
                let mut degraded = Degradation::default();
                let plan = qpiad.plan(&source, &query, &base, &mut ctx, &mut degraded);
                assert!(plan.admitted_len() > 0);
            }
        }));
        runs.push(time("network", threads, reps, || {
            let network =
                MediatorNetwork::new(world.ed.schema().clone(), QpiadConfig::default().with_k(10))
                    .add_supporting(&source, world.stats.clone())
                    .add_deficient(&yahoo);
            let ans = network.answer(&query).expect("network answers");
            assert!(ans.possible_count() > 0);
        }));
        runs.push(time("faulted", threads, reps, || {
            flaky_yahoo.reset_meter();
            down.reset_meter();
            let network = MediatorNetwork::new(
                world.ed.schema().clone(),
                QpiadConfig::default()
                    .with_k(10)
                    .with_retry(RetryPolicy::default().with_max_attempts(2)),
            )
            .add_supporting(&source, world.stats.clone())
            .add_deficient(&flaky_yahoo)
            .add_deficient(&down);
            let ans = network.answer(&query).expect("mediation never aborts");
            assert!(ans.possible_count() > 0);
            assert_eq!(ans.failed_sources().len(), 1);
        }));
        runs.push(time("breakered", threads, reps, || {
            // Same faulted network with a health registry: pass 1 trips the
            // downed member's breaker, pass 2 skips it up front — measures
            // the availability layer's overhead plus the amortized cost of
            // an outage.
            flaky_yahoo.reset_meter();
            down.reset_meter();
            let registry = Arc::new(HealthRegistry::new(
                BreakerConfig::default().with_failure_threshold(1),
            ));
            let network = MediatorNetwork::new(
                world.ed.schema().clone(),
                QpiadConfig::default()
                    .with_k(10)
                    .with_retry(RetryPolicy::default().with_max_attempts(2)),
            )
            .with_health(registry)
            .add_supporting(&source, world.stats.clone())
            .add_deficient(&flaky_yahoo)
            .add_deficient(&down);
            for _ in 0..2 {
                let ans = network.answer(&query).expect("mediation never aborts");
                assert!(ans.possible_count() > 0);
            }
            assert_eq!(
                down.meter().breaker_skips,
                1,
                "pass 2 must skip the downed member"
            );
        }));
        runs.push(time("knowledge", threads, reps, || {
            // Knowledge lifecycle: persist the mined snapshot, rebuild the
            // network from the durable store, and run one drift-watched
            // pass — measures the snapshot codec (checksum + JSON + re-mine
            // on restore) and the paired drift observation on top of the
            // network path.
            let store = KnowledgeStore::open(store_dir).expect("open bench store");
            store.save("cars.com", &snapshot).expect("persist snapshot");
            let registry = Arc::new(DriftRegistry::new(DriftConfig::default()));
            let network =
                MediatorNetwork::new(world.ed.schema().clone(), QpiadConfig::default().with_k(10))
                    .with_drift(registry.clone())
                    .add_supporting_from_store(&source, &store)
                    .add_deficient(&yahoo);
            assert!(network.knowledge_failures().is_empty());
            let ans = network.answer(&query).expect("network answers");
            assert!(ans.possible_count() > 0);
            assert!(
                ans.drift_verdicts.is_empty(),
                "an undrifted source must stay quiet"
            );
            assert!(registry.observed_rows("cars.com") > 0);
        }));
    }

    // Serving stage: a `QpiadServer` over the two-member network, driven
    // by caller threads replaying the same duplicate-heavy template mix —
    // callers racing on one template coalesce onto a single mediation pass
    // and share one source fan-out. The thread knob pins callers and the
    // worker pool together (a deployment scales both with the core count),
    // so the single-caller pass is the serial baseline and the speedup
    // folds in both parallel mediation and coalescing.
    let serve_requests = if quick { 4 } else { 16 };
    let serve_styles = ["Convt", "Sedan", "Coupe", "Truck"];
    let serve_hit_rate = std::cell::Cell::new(0.0_f64);
    for threads in [1usize, par_threads] {
        runs.push(time("serve", threads, reps, || {
            let network =
                MediatorNetwork::new(world.ed.schema().clone(), QpiadConfig::default().with_k(10))
                    .add_supporting(&source, world.stats.clone())
                    .add_deficient(&yahoo);
            let server = QpiadServer::new(network);
            server.register(Tenant::interactive("bench"));
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        for round in 0..serve_requests {
                            let style = serve_styles[round % serve_styles.len()];
                            let q = SelectQuery::new(vec![Predicate::eq(body, style)]);
                            let ans = server.query("bench", &q).expect("serving never aborts");
                            assert!(ans.possible_count() > 0);
                        }
                    });
                }
            });
            let m = server.metrics();
            assert_eq!(m.admitted, threads * serve_requests);
            assert_eq!(m.leaders + m.coalesced, m.admitted);
            serve_hit_rate.set(m.coalesce_hit_rate());
        }));
    }

    // Overload stage: the same two-member network behind a tight batch
    // queue limit and a finite pressure capacity, flooded with twice as
    // many batch callers as interactive ones. Batch work past the limit is
    // shed with a typed error before any source fan-out and interactive
    // work descends the degradation ladder instead of queueing, so the
    // figures of merit are the shed rate and the completed throughput the
    // server sustains *under* the flood — not the raw wall time.
    let flood_callers = par_threads * 2;
    let overload_shed_rate = std::cell::Cell::new(0.0_f64);
    let overload_completed = std::cell::Cell::new(0usize);
    runs.push(time("serve_overload", par_threads, reps, || {
        let network =
            MediatorNetwork::new(world.ed.schema().clone(), QpiadConfig::default().with_k(10))
                .add_supporting(&source, world.stats.clone())
                .add_deficient(&yahoo);
        let server = QpiadServer::new(network).with_config(
            ServeConfig::default()
                .with_batch_concurrency(1)
                .with_batch_queue_limit(2)
                .with_pressure_capacity(par_threads.max(2)),
        );
        server.register(Tenant::interactive("web"));
        server.register(Tenant::batch("flood"));
        std::thread::scope(|scope| {
            for _ in 0..par_threads {
                scope.spawn(|| {
                    for round in 0..serve_requests {
                        let style = serve_styles[round % serve_styles.len()];
                        let q = SelectQuery::new(vec![Predicate::eq(body, style)]);
                        server
                            .query("web", &q)
                            .expect("interactive work degrades, never sheds");
                    }
                });
            }
            for _ in 0..flood_callers {
                scope.spawn(|| {
                    for round in 0..serve_requests {
                        let style = serve_styles[round % serve_styles.len()];
                        let q = SelectQuery::new(vec![Predicate::eq(body, style)]);
                        match server.query("flood", &q) {
                            Ok(_) | Err(ServeError::Shed { .. }) => {}
                            Err(e) => panic!("flood rejections must be typed sheds: {e}"),
                        }
                    }
                });
            }
        });
        let m = server.metrics();
        assert!(
            m.conserves(),
            "overload accounting must balance when quiesced"
        );
        overload_shed_rate.set(m.shed_rate());
        overload_completed.set(m.completed);
    }));

    // Knowledge-refresh stage: a drifted member is re-mined, persisted to
    // the store, and epoch-swapped by `maintain()` while caller threads
    // keep replaying the serving mix — the figures of merit are the
    // refresh latency itself (mine + persist + publish) and the
    // served-query throughput the server sustains across the swap.
    let refresh_store_dir = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/qpiad-bench-refresh"
    );
    let make = world.ed.schema().expect_attr("make");
    let refresh_latency = std::cell::Cell::new(0.0_f64);
    let refresh_served = std::cell::Cell::new(0usize);
    runs.push(time("knowledge_refresh", par_threads, reps, || {
        let _ = std::fs::remove_dir_all(refresh_store_dir);
        let store = KnowledgeStore::open(refresh_store_dir).expect("open refresh store");
        let registry = Arc::new(DriftRegistry::new(
            DriftConfig::default()
                .with_min_observations(50)
                .with_threshold(0.3),
        ));
        let network =
            MediatorNetwork::new(world.ed.schema().clone(), QpiadConfig::default().with_k(10))
                .with_drift(Arc::clone(&registry))
                .add_supporting(&source, world.stats.clone())
                .add_deficient(&yahoo);
        let server = QpiadServer::new(network).with_knowledge_store(store, MiningConfig::default());
        server.register(Tenant::interactive("bench"));

        // Fire the drift verdict synthetically (a hand-fed skewed probe),
        // so the timed span measures the refresh, not drift accumulation.
        let reference_rows: Vec<_> = world.ed.tuples().iter().take(200).cloned().collect();
        let skewed_rows: Vec<_> = reference_rows
            .iter()
            .map(|t| t.with_value(make, Value::str("Drifted")))
            .collect();
        let mut probe = registry
            .probe("cars.com")
            .expect("member registered for drift");
        probe.observe(&reference_rows, &skewed_rows);
        assert!(
            registry.absorb("cars.com", probe).is_some(),
            "verdict must fire"
        );

        std::thread::scope(|scope| {
            for _ in 0..par_threads {
                scope.spawn(|| {
                    for round in 0..serve_requests {
                        let style = serve_styles[round % serve_styles.len()];
                        let q = SelectQuery::new(vec![Predicate::eq(body, style)]);
                        let ans = server
                            .query("bench", &q)
                            .expect("serving never aborts across a swap");
                        assert!(ans.possible_count() > 0);
                    }
                });
            }
            let maintainer = scope.spawn(|| {
                let t0 = Instant::now();
                let report = server.maintain(|_, _| {
                    Ok(SourceStats::mine(
                        &sample,
                        world.ed.len(),
                        &MiningConfig::default(),
                    ))
                });
                assert_eq!(report.refreshed.len(), 1, "the drifted member must heal");
                t0.elapsed().as_secs_f64()
            });
            refresh_latency.set(maintainer.join().expect("maintenance must not panic"));
        });
        let m = server.metrics();
        assert!(
            m.conserves(),
            "refresh accounting must balance when quiesced"
        );
        assert_eq!(m.errors, 0, "no request may fail across the swap");
        refresh_served.set(m.completed);
    }));

    // Scale stage, isolated at the end: a 1M-row corrupted source
    // (dictionary + columnar image built once at `Relation` construction,
    // untimed) with knowledge mined from a small sample. Built only after
    // every pipeline stage has been timed so its working set doesn't sit
    // resident under the smaller fixtures' measurements.
    let big_ed = {
        let ground = qpiad_data::cars::CarsConfig::default()
            .with_rows(scale_rows)
            .generate(scale.seed.wrapping_add(21));
        let (ed, _prov) = qpiad_data::corrupt::corrupt(
            &ground,
            &qpiad_data::corrupt::CorruptionConfig::default()
                .with_seed(scale.seed.wrapping_add(22)),
        );
        ed
    };
    let big_sample =
        qpiad_data::sample::uniform_sample(&big_ed, 12_000.0 / scale_rows as f64, scale.seed);
    let big_stats = SourceStats::mine(&big_sample, big_ed.len(), &MiningConfig::default());
    for threads in [1usize, par_threads] {
        runs.push(time("scale_1m", threads, reps, || {
            // Cold mediated answer against the big source: a fresh
            // `WebSource` per rep means a fresh `SelectionEngine`, so the
            // timed span covers lazy posting-index construction over every
            // attribute the rewrites touch plus the retrieval itself. Only
            // the dictionary/columnar image (a property of the relation,
            // not the query path) is reused across reps.
            let big_source = WebSource::new("cars1m", big_ed.clone());
            let qpiad = Qpiad::new(big_stats.clone(), QpiadConfig::default().with_k(10));
            let ans = qpiad
                .answer(&big_source, &query)
                .expect("web source accepts rewrites");
            assert!(!ans.possible.is_empty());
        }));
    }

    // Incremental-maintenance stage, on the scale fixture: a hair-trigger
    // drift threshold streams the first pass's validated rows into the
    // member's sample stream. Figures of merit: the bare fold latency vs
    // the batch refresh (merge + full TANE re-mine over the same merged
    // sample) on identical inputs — that ratio is the point of the
    // incremental path — and the served throughput while `maintain()`
    // folds the stream under live caller traffic.
    let fold_store_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/qpiad-bench-fold");
    let fold_latency = std::cell::Cell::new(0.0_f64);
    let remine_latency = std::cell::Cell::new(0.0_f64);
    let fold_served = std::cell::Cell::new(0usize);
    let fold_rows = std::cell::Cell::new(0usize);
    let traffic_secs = std::cell::Cell::new(0.0_f64);
    let fold_requests = if quick { 5 } else { 20 };
    runs.push(time("knowledge_incremental", par_threads, reps, || {
        let _ = std::fs::remove_dir_all(fold_store_dir);
        let store = KnowledgeStore::open(fold_store_dir).expect("open fold store");
        let registry = Arc::new(DriftRegistry::new(
            DriftConfig::default()
                .with_min_observations(10)
                .with_threshold(0.0),
        ));
        let big_source = WebSource::new("cars1m", big_ed.clone());
        let network =
            MediatorNetwork::new(big_ed.schema().clone(), QpiadConfig::default().with_k(10))
                .with_drift(Arc::clone(&registry))
                .add_supporting(&big_source, big_stats.clone());
        let server = QpiadServer::new(network)
            .with_config(ServeConfig::default().with_refold_bound(0.5))
            .with_knowledge_store(store, MiningConfig::default());
        server.register(Tenant::interactive("bench"));

        // The priming pass fires the verdict and streams the validated
        // rows it retrieved, so the traffic span below measures the fold
        // under load, not drift accumulation.
        server.query("bench", &query).expect("priming pass");
        let primed = server.metrics();
        assert!(
            primed.pending_refresh >= 1,
            "the hair-trigger verdict must queue the member"
        );
        assert!(
            primed.stream.pending > 0,
            "validated rows must be streaming"
        );
        fold_rows.set(primed.stream.pending);

        // The latency pair, timed bare over the exact streamed rows: the
        // delta fold vs what the same refresh costs done the batch way
        // (merge + full TANE re-mine over the merged sample). The traffic
        // scope below exists to measure served throughput, not to time
        // the fold — on a small machine the maintainer thread's wall time
        // is dominated by scheduler contention with the caller threads.
        let (streamed, _through) = registry
            .stream_snapshot("cars1m")
            .expect("streamed rows must be queued");
        let probe = Relation::new(big_ed.schema().clone(), streamed);
        let mining = MiningConfig::default();
        let t0 = Instant::now();
        let folded = big_stats
            .fold(&probe, &mining, 0.5)
            .expect("fold accepts the probe");
        fold_latency.set(t0.elapsed().as_secs_f64());
        assert!(
            matches!(folded, FoldOutcome::Folded { .. }),
            "genuine rows must fold without a re-mine"
        );
        let t0 = Instant::now();
        let remined = big_stats
            .refresh(
                &probe,
                big_stats.selectivity().smpl_ratio(),
                big_stats.selectivity().per_inc(),
                &mining,
            )
            .expect("batch refresh accepts the probe");
        remine_latency.set(t0.elapsed().as_secs_f64());
        assert!(
            !remined.afds().is_empty(),
            "the comparator re-mine must produce knowledge"
        );

        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..par_threads {
                scope.spawn(|| {
                    for _ in 0..fold_requests {
                        let ans = server
                            .query("bench", &query)
                            .expect("serving never aborts across a fold");
                        assert!(ans.possible_count() > 0);
                    }
                });
            }
            let maintainer = scope.spawn(|| {
                let report =
                    server.maintain(|_, _| panic!("the fold must not fall back to a re-mine"));
                assert_eq!(report.folded.len(), 1, "the drifted member must fold");
            });
            maintainer.join().expect("maintenance must not panic");
        });
        traffic_secs.set(t0.elapsed().as_secs_f64());
        let m = server.metrics();
        assert!(m.conserves(), "fold accounting must balance when quiesced");
        assert_eq!(m.refresh_incremental, 1);
        assert_eq!(m.refresh_full, 0);
        fold_served.set(par_threads * fold_requests);
    }));

    let speedup = |name: &str| -> f64 {
        let seq = runs
            .iter()
            .find(|r| r.name == name && r.threads == 1)
            .unwrap();
        let par = runs
            .iter()
            .find(|r| r.name == name && r.threads != 1)
            .unwrap();
        seq.secs_min / par.secs_min
    };

    // Thread-scaling ratios are only meaningful when the machine can
    // actually run the parallel pass in parallel.
    let scaling_unreliable = hw < par_threads;

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"pipeline\",\n");
    json.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    json.push_str(&format!("  \"parallel_threads\": {par_threads},\n"));
    json.push_str(&format!(
        "  \"scale\": {{ \"cars_rows\": {}, \"scale_1m_rows\": {scale_rows}, \
         \"sample_fraction\": {} }},\n",
        scale.cars_rows, scale.sample_fraction
    ));
    json.push_str(&format!(
        "  \"posting_memory\": {{ \"indexed_attrs\": {}, \"rows\": {}, \
         \"posting_entries\": {}, \"entries_per_attr_row\": 1.0 }},\n",
        world.ed.schema().arity(),
        world.ed.len(),
        posting_entries
    ));
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"threads\": {}, \"secs_mean\": {:.6}, \"secs_min\": {:.6} }}{}\n",
            r.name,
            r.threads,
            r.secs_mean,
            r.secs_min,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    // Serving throughput: requests per wall second at each caller count,
    // plus the coalesce hit rate observed on the concurrent pass. The
    // concurrent pass serves `par_threads`× as many requests as the serial
    // one, so the meaningful scaling figure is the throughput ratio, not
    // the wall-time ratio the `speedups` block uses for the other stages.
    let serve_throughput_scaling = {
        let serial = runs
            .iter()
            .find(|r| r.name == "serve" && r.threads == 1)
            .unwrap();
        let conc = runs
            .iter()
            .find(|r| r.name == "serve" && r.threads != 1)
            .unwrap();
        let qps_serial = serve_requests as f64 / serial.secs_min;
        let qps_concurrent = (par_threads * serve_requests) as f64 / conc.secs_min;
        json.push_str(&format!(
            "  \"serve\": {{ \"callers\": {par_threads}, \"requests_per_caller\": {serve_requests}, \
             \"throughput_qps_serial\": {qps_serial:.1}, \
             \"throughput_qps_concurrent\": {qps_concurrent:.1}, \
             \"coalesce_hit_rate\": {:.3} }},\n",
            serve_hit_rate.get()
        ));
        qps_concurrent / qps_serial
    };
    // Overload figures: what fraction of admitted work the server shed
    // (typed batch sheds + deadline refusals over admissions) and the
    // completed-request throughput it sustained while the flood ran.
    {
        let overload = runs
            .iter()
            .find(|r| r.name == "serve_overload")
            .expect("overload stage ran");
        let qps_under_flood = overload_completed.get() as f64 / overload.secs_min;
        json.push_str(&format!(
            "  \"serve_overload\": {{ \"interactive_callers\": {par_threads}, \
             \"flood_callers\": {flood_callers}, \"requests_per_caller\": {serve_requests}, \
             \"shed_rate\": {:.3}, \"completed_under_flood\": {}, \
             \"completed_qps_under_flood\": {qps_under_flood:.1} }},\n",
            overload_shed_rate.get(),
            overload_completed.get()
        ));
    }
    // Refresh figures: how long the drift-triggered refresh itself took
    // (re-mine + crash-safe persist + epoch publication) and the
    // completed-request throughput the server sustained while the swap
    // landed under live traffic.
    {
        let refresh = runs
            .iter()
            .find(|r| r.name == "knowledge_refresh")
            .expect("refresh stage ran");
        let qps_during_refresh = refresh_served.get() as f64 / refresh.secs_min;
        json.push_str(&format!(
            "  \"knowledge_refresh\": {{ \"callers\": {par_threads}, \
             \"requests_per_caller\": {serve_requests}, \
             \"refresh_latency_secs\": {:.6}, \"served_during_refresh\": {}, \
             \"served_qps_during_refresh\": {qps_during_refresh:.1} }},\n",
            refresh_latency.get(),
            refresh_served.get()
        ));
    }
    // Incremental-maintenance figures: the bare fold latency, the batch
    // refresh (merge + full TANE re-mine over the same merged sample)
    // latency on the identical input, their ratio (the maintenance saving
    // the incremental path exists for), and the served throughput the
    // server sustained while `maintain()` folded under traffic.
    {
        runs.iter()
            .find(|r| r.name == "knowledge_incremental")
            .expect("incremental stage ran");
        let qps_during_fold = fold_served.get() as f64 / traffic_secs.get().max(1e-9);
        let maintenance_speedup = remine_latency.get() / fold_latency.get().max(1e-9);
        assert!(
            maintenance_speedup >= 10.0,
            "an incremental fold must be at least 10x cheaper than a full re-mine \
             over the same merged sample, measured {maintenance_speedup:.1}x \
             (fold {:.6}s vs re-mine {:.6}s)",
            fold_latency.get(),
            remine_latency.get()
        );
        json.push_str(&format!(
            "  \"knowledge_incremental\": {{ \"callers\": {par_threads}, \
             \"requests_per_caller\": {fold_requests}, \"fold_rows\": {}, \
             \"fold_latency_secs\": {:.6}, \"full_remine_latency_secs\": {:.6}, \
             \"maintenance_speedup_fold_over_remine\": {maintenance_speedup:.1}, \
             \"served_during_fold\": {}, \"served_qps_during_fold\": {qps_during_fold:.1} }},\n",
            fold_rows.get(),
            fold_latency.get(),
            remine_latency.get(),
            fold_served.get()
        ));
    }
    // The plan cache's win is warm-over-cold at the same thread count, not
    // a thread-scaling ratio: planning is sequential either way.
    let plan_cache_speedup = {
        let cold = runs
            .iter()
            .find(|r| r.name == "plan_cold" && r.threads == 1)
            .unwrap();
        let warm = runs
            .iter()
            .find(|r| r.name == "plan_warm" && r.threads == 1)
            .unwrap();
        cold.secs_min / warm.secs_min
    };
    let unreliable_field = if scaling_unreliable {
        " \"unreliable\": true,"
    } else {
        ""
    };
    json.push_str(&format!(
        "  \"speedups\": {{{unreliable_field} \"mine\": {:.3}, \"answer\": {:.3}, \
         \"network\": {:.3}, \"faulted\": {:.3}, \"breakered\": {:.3}, \
         \"knowledge\": {:.3}, \"scale_1m\": {:.3}, \
         \"plan_cache_warm_over_cold\": {:.3}, \
         \"serve_throughput_scaling\": {serve_throughput_scaling:.3} }},\n",
        speedup("mine"),
        speedup("answer"),
        speedup("network"),
        speedup("faulted"),
        speedup("breakered"),
        speedup("knowledge"),
        speedup("scale_1m"),
        plan_cache_speedup
    ));
    let scaling_note = if scaling_unreliable {
        format!(
            "UNRELIABLE: only {hw} hardware thread(s) are available, so the \
             {par_threads}-thread pass time-slices on one core and the thread-scaling \
             ratios measure scheduler overhead, not parallel speedup. \
             `plan_cache_warm_over_cold` is thread-independent and remains valid."
        )
    } else {
        format!("Measured with real parallelism ({hw} hardware threads).")
    };
    json.push_str(&format!(
        "  \"note\": \"Speedups are min-over-min wall-time ratios (1 thread vs {par_threads}). \
         {scaling_note} Re-run `cargo bench --bench pipeline` on a multi-core host to \
         measure scaling.\"\n"
    ));
    json.push_str("}\n");

    let path = if quick {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_pipeline_quick.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json")
    };
    std::fs::write(path, &json).expect("write pipeline bench JSON");
    println!("wrote {path}");
}
