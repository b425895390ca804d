//! Deterministic chaos soak over the serving stack.
//!
//! A seeded [`ChaosSchedule`] composes every failure mode the repo models
//! — source outages, semantic skew, knowledge-snapshot corruption,
//! breaker trips, and tenant floods — over hundreds of logical-clock
//! passes against a live [`QpiadServer`]. Two suites split the work along
//! what can honestly be asserted:
//!
//! * [`chaos_soak_replays_byte_identically_and_stays_sound`] issues the
//!   pass workload serially (the `QPIAD_THREADS` override only toggles
//!   *internal* mediation parallelism) and checks, after **every** pass:
//!   certain answers are a subset of the unchaosed run, metrics conserve,
//!   no flight is left wedged — and that the full per-pass answer digest
//!   is byte-identical between worker pools of 1 and 8. Every ~16th pass
//!   it additionally re-runs the query one ladder rung higher on an
//!   isolated twin and checks lattice monotonicity.
//! * [`chaos_floods_conserve_and_never_wedge`] storms the same world with
//!   genuinely concurrent multi-tenant traffic and scheduled batch
//!   floods; thread timing makes answers race-dependent, so it asserts
//!   the robustness invariants that must survive any interleaving:
//!   typed sheds only, interactive work never shed, certain answers
//!   sound, conservation exact at every quiescent point, zero wedged
//!   waiters.
//! * [`refresh_soak_heals_drift_and_replays_byte_identically`] adds the
//!   knowledge lifecycle to the serial soak: scheduled skew drives drift
//!   verdicts, a sequential [`QpiadServer::maintain_at`] between passes
//!   drains the refresh queue against a real [`KnowledgeStore`] with
//!   scheduled persist faults, and the per-pass digest — answers,
//!   maintenance outcomes, epochs — must be byte-identical between 1 and
//!   8 mediation workers.
//! * [`refresh_under_flood_heals_and_never_refuses`] races maintenance
//!   against the concurrent flood: epoch swaps and persist failures land
//!   mid-storm, and no interleaving may invent a certain answer, refuse
//!   interactive work, break conservation, or leave the store unloadable.
//!
//! The chaos seed is `QPIAD_CHAOS_SEED` (default 42); CI soaks two fixed
//! seeds so a regression cannot hide behind one lucky schedule.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use qpiad::core::mediator::QpiadConfig;
use qpiad::core::network::{MediatorNetwork, NetworkAnswer};
use qpiad::core::par;
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{
    BreakerConfig, ChaosConfig, ChaosSchedule, ChaosSource, HealthRegistry, MediationClock,
    Observation, PassCell, Predicate, PressureLevel, QueryBudget, Relation, Schema, SelectQuery,
    TupleId, Value, WebSource,
};
use qpiad::learn::drift::{DriftConfig, DriftRegistry};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};
use qpiad::learn::persist::StatsSnapshot;
use qpiad::learn::store::{decode_snapshot, encode_snapshot, KnowledgeStore, PersistFault};
use qpiad::serve::{QpiadServer, ServeConfig, ServeError, Tenant};

/// The thread override is process-global; the two byte-identity suites
/// serialize on this lock so their pinned pool sizes cannot interleave.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

const PASSES: u64 = 220;
const MEMBERS: [&str; 2] = ["cars.com", "auctions"];
const STYLES: [&str; 8] = [
    "Sedan",
    "Coupe",
    "Convt",
    "SUV",
    "Hatchback",
    "Truck",
    "Van",
    "Wagon",
];
const RUNGS: [PressureLevel; 4] = [
    PressureLevel::Normal,
    PressureLevel::Elevated,
    PressureLevel::High,
    PressureLevel::Critical,
];

fn chaos_seed() -> u64 {
    std::env::var("QPIAD_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn schedule() -> Arc<ChaosSchedule> {
    Arc::new(ChaosSchedule::new(
        ChaosConfig::calm(MEMBERS.len())
            .with_seed(chaos_seed())
            .with_outage_rate(0.12)
            .with_skew_rate(0.12)
            .with_corrupt_rate(0.06)
            .with_trip_rate(0.05)
            .with_flood(0.5, 6),
    ))
}

/// One member's incomplete relation and mined statistics: every member is
/// a differently-corrupted view of the *same* ground relation (the QPIAD
/// multi-source setting), fully determined by the member index, so every
/// run reconstructs the same world.
fn member_world(member: usize) -> (Relation, SourceStats) {
    let ground = CarsConfig::default().with_rows(3_000).generate(71);
    let (incomplete, _) = corrupt(
        &ground,
        &CorruptionConfig::default().with_seed(1 + member as u64),
    );
    let stats = SourceStats::mine(
        &uniform_sample(&incomplete, 0.10, 2),
        incomplete.len(),
        &MiningConfig::default(),
    );
    (incomplete, stats)
}

fn soak_query(global: &Arc<Schema>, pass: u64) -> SelectQuery {
    SelectQuery::new(vec![Predicate::eq(
        global.expect_attr("body_style"),
        STYLES[(pass as usize) % STYLES.len()],
    )])
}

/// Certain-answer tuple ids from an unchaosed serial run, one federation
/// union per query template — the soundness reference every chaosed pass
/// is checked against. The union (not per-member sets) is the sound bound
/// because hedging may legitimately re-attribute a recovering member's
/// retrieval to its partner source.
fn unchaosed_reference(
    worlds: &[(Relation, SourceStats)],
    global: &Arc<Schema>,
) -> Vec<HashSet<TupleId>> {
    let sources: Vec<WebSource> = worlds
        .iter()
        .zip(MEMBERS)
        .map(|((relation, _), name)| WebSource::new(name, relation.clone()))
        .collect();
    let mut network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(6))
        .with_clock(MediationClock::logical());
    for (source, (_, stats)) in sources.iter().zip(worlds) {
        network = network.add_supporting(source, stats.clone());
    }
    (0..STYLES.len() as u64)
        .map(|pass| {
            let answer = network.answer(&soak_query(global, pass)).unwrap();
            answer
                .per_source
                .iter()
                .flat_map(|s| s.certain.iter().map(|t| t.id()))
                .collect()
        })
        .collect()
}

/// Bit-exact digest of everything rank- and float-sensitive in an answer.
fn digest(pass: u64, pressure: PressureLevel, answer: &NetworkAnswer) -> String {
    use std::fmt::Write;
    let mut line = format!("pass={pass} rung={}", pressure.label());
    for s in &answer.per_source {
        let outcome = match &s.outcome {
            qpiad::core::network::SourceOutcome::Healthy => "healthy".to_string(),
            qpiad::core::network::SourceOutcome::Degraded(d) => format!(
                "degraded(sheds={} mass={:016x})",
                d.overload_sheds,
                d.dropped_fmeasure.to_bits()
            ),
            qpiad::core::network::SourceOutcome::Failed(e) => format!("failed({e})"),
        };
        write!(line, " | {} {outcome} certain=[", s.source).unwrap();
        for t in &s.certain {
            write!(line, "{:?},", t.id()).unwrap();
        }
        write!(line, "] possible=[").unwrap();
        for r in &s.possible {
            write!(
                line,
                "({:?},q{},c{:016x}),",
                r.tuple.id(),
                r.query_index,
                r.confidence.to_bits()
            )
            .unwrap();
        }
        write!(line, "]").unwrap();
    }
    line
}

/// Runs the serial soak with `threads` mediation workers and returns the
/// per-pass digest log. Panics on any violated invariant.
fn run_soak(threads: usize) -> Vec<String> {
    struct PoolReset;
    impl Drop for PoolReset {
        fn drop(&mut self) {
            par::set_thread_override(None);
        }
    }
    let _reset = PoolReset;
    par::set_thread_override(Some(threads));

    let schedule = schedule();
    let worlds: Vec<(Relation, SourceStats)> = (0..MEMBERS.len()).map(member_world).collect();
    let global = worlds[0].0.schema().clone();
    let reference = unchaosed_reference(&worlds, &global);
    let model = global.expect_attr("model");

    let cell = PassCell::new();
    let chaotic: Vec<ChaosSource<WebSource>> = worlds
        .iter()
        .zip(MEMBERS)
        .enumerate()
        .map(|(m, ((relation, _), name))| {
            ChaosSource::new(
                WebSource::new(name, relation.clone()),
                m,
                Arc::clone(&schedule),
                Arc::clone(&cell),
            )
            .with_skew(model, Value::str("Drifted"))
        })
        .collect();
    let health = Arc::new(HealthRegistry::new(BreakerConfig::default()));
    let mut network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(6))
        .with_clock(MediationClock::logical())
        .with_health(Arc::clone(&health));
    for (source, (_, stats)) in chaotic.iter().zip(&worlds) {
        network = network.add_supporting(source, stats.clone());
    }
    let server = QpiadServer::new(network);
    server.register(Tenant::interactive("web"));

    // A healthy snapshot whose corrupted variants the corruption events
    // feed to the decoder — it must always fail closed, never panic.
    let snapshot = encode_snapshot(&StatsSnapshot::capture(
        &worlds[0].1,
        &MiningConfig::default(),
    ));

    let mut log = Vec::with_capacity(PASSES as usize);
    for pass in 0..PASSES {
        cell.set(pass);
        let chaos = schedule.pass(pass);

        // Harness-level chaos: scheduled breaker trips and knowledge
        // corruption land before the pass's serve traffic.
        for &member in &chaos.tripped {
            health.absorb(MEMBERS[member], &[Observation::Failure; 3]);
        }
        for &member in &chaos.corrupted {
            let mut bytes = snapshot.clone().into_bytes();
            let at = (pass as usize * 131 + member * 17) % bytes.len();
            bytes[at] ^= 0x5a;
            match decode_snapshot(&String::from_utf8_lossy(&bytes)) {
                Ok(restored) => assert!(restored.restore().schema().arity() > 0),
                Err(e) => assert!(!e.kind().is_empty(), "corruption must classify, not panic"),
            }
        }

        let pressure = RUNGS[(pass % 4) as usize];
        let query = soak_query(&global, pass);
        let answer = server
            .query_under("web", &query, pressure)
            .expect("a soak pass never aborts: members fail, the network degrades");

        // Soundness: chaos may *lose* certain answers (outages, open
        // breakers) and hedging may re-attribute them between members,
        // but the federation can never invent one.
        let expected = &reference[(pass as usize) % STYLES.len()];
        for s in &answer.per_source {
            for t in &s.certain {
                assert!(
                    expected.contains(&t.id()),
                    "pass {pass}: chaos invented certain answer {:?} on {}",
                    t.id(),
                    s.source
                );
            }
        }

        // Lattice monotonicity spot-check: one rung higher on an isolated
        // twin (same chaos pass, fresh breakers) must answer with a
        // subset of the possible answers and identical certain answers.
        if pass % 16 == 0 && pressure < PressureLevel::Critical {
            let higher = RUNGS[(pass % 4) as usize + 1];
            // Hedging off in the twins: it is a separate rescue axis (the
            // ladder disables it at High) that can legitimately move
            // certain answers between rungs; the lattice law being pinned
            // here is the rank-prefix plan clamp.
            let twin = |rung: PressureLevel| -> NetworkAnswer {
                let mut net =
                    MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(6))
                        .with_clock(MediationClock::logical())
                        .with_hedging(false);
                for (source, (_, stats)) in chaotic.iter().zip(&worlds) {
                    net = net.add_supporting(source, stats.clone());
                }
                net.answer_under(&query, QueryBudget::unlimited(), rung)
                    .unwrap()
            };
            let lo = twin(pressure);
            let hi = twin(higher);
            let lo_certain: Vec<TupleId> = lo
                .per_source
                .iter()
                .flat_map(|s| s.certain.iter().map(|t| t.id()))
                .collect();
            let hi_certain: Vec<TupleId> = hi
                .per_source
                .iter()
                .flat_map(|s| s.certain.iter().map(|t| t.id()))
                .collect();
            assert_eq!(
                lo_certain, hi_certain,
                "pass {pass}: certain answers moved with pressure"
            );
            let lo_possible: HashSet<(TupleId, usize)> = lo
                .per_source
                .iter()
                .flat_map(|s| s.possible.iter().map(|r| (r.tuple.id(), r.query_index)))
                .collect();
            for s in &hi.per_source {
                for r in &s.possible {
                    assert!(
                        lo_possible.contains(&(r.tuple.id(), r.query_index)),
                        "pass {pass}: answer at {higher:?} not served at {pressure:?}"
                    );
                }
            }
        }

        // Accounting: exact conservation and zero wedged flights after
        // every pass.
        let m = server.metrics();
        assert!(
            m.conserves(),
            "pass {pass}: admitted {} != completed {} + shed {} + refused {} + errors {}",
            m.admitted,
            m.completed,
            m.shed,
            m.deadline_refused,
            m.errors
        );
        assert_eq!(m.in_flight, 0, "pass {pass}: request left in flight");
        assert_eq!(
            server.inflight(),
            0,
            "pass {pass}: wedged singleflight entry"
        );

        log.push(digest(pass, pressure, &answer));
    }
    log
}

#[test]
fn chaos_soak_replays_byte_identically_and_stays_sound() {
    let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let serial = run_soak(1);
    assert_eq!(serial.len(), PASSES as usize);
    let parallel = run_soak(8);
    for (pass, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s, p,
            "pass {pass} diverged between 1 and 8 mediation workers"
        );
    }
}

#[test]
fn chaos_floods_conserve_and_never_wedge() {
    const FLOOD_PASSES: u64 = 48;

    let schedule = schedule();
    let worlds: Vec<(Relation, SourceStats)> = (0..MEMBERS.len()).map(member_world).collect();
    let global = worlds[0].0.schema().clone();
    let reference = unchaosed_reference(&worlds, &global);

    let cell = PassCell::new();
    let chaotic: Vec<ChaosSource<WebSource>> = worlds
        .iter()
        .zip(MEMBERS)
        .enumerate()
        .map(|(m, ((relation, _), name))| {
            ChaosSource::new(
                WebSource::new(name, relation.clone()),
                m,
                Arc::clone(&schedule),
                Arc::clone(&cell),
            )
        })
        .collect();
    let health = Arc::new(HealthRegistry::new(BreakerConfig::default()));
    let mut network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(6))
        .with_clock(MediationClock::logical())
        .with_health(Arc::clone(&health));
    for (source, (_, stats)) in chaotic.iter().zip(&worlds) {
        network = network.add_supporting(source, stats.clone());
    }
    let server = QpiadServer::new(network).with_config(
        ServeConfig::default()
            .with_batch_concurrency(1)
            .with_batch_queue_limit(2)
            .with_pressure_capacity(4),
    );
    server.register(Tenant::interactive("web"));
    server.register(Tenant::batch("nightly"));

    // `template_pass` is the pass value the caller derived its query
    // from — flood callers fan out over neighbouring templates.
    let check_sound = |answer: &Arc<NetworkAnswer>, template_pass: u64| {
        let expected = &reference[(template_pass as usize) % STYLES.len()];
        for s in &answer.per_source {
            for t in &s.certain {
                assert!(
                    expected.contains(&t.id()),
                    "flood invented a certain answer"
                );
            }
        }
    };

    for pass in 0..FLOOD_PASSES {
        cell.set(pass);
        let chaos = schedule.pass(pass);
        for &member in &chaos.tripped {
            health.absorb(MEMBERS[member], &[Observation::Failure; 3]);
        }

        // Concurrent multi-tenant traffic: two interactive callers plus a
        // batch wave whose size the schedule storms up to a flood.
        let batch_callers = 2 + chaos.flood;
        std::thread::scope(|scope| {
            let interactive: Vec<_> = (0..2u64)
                .map(|i| {
                    let query = soak_query(&global, pass + i);
                    let server = &server;
                    (pass + i, scope.spawn(move || server.query("web", &query)))
                })
                .collect();
            let batch: Vec<_> = (0..batch_callers as u64)
                .map(|i| {
                    let query = soak_query(&global, pass + i);
                    let server = &server;
                    (
                        pass + i,
                        scope.spawn(move || server.query("nightly", &query)),
                    )
                })
                .collect();

            for (template_pass, h) in interactive {
                // Interactive work is never shed — it degrades instead.
                match h.join().expect("interactive caller must not panic") {
                    Ok(answer) => check_sound(&answer, template_pass),
                    Err(ServeError::Shed { .. }) => panic!("interactive request was shed"),
                    Err(ServeError::Source(_)) => {}
                    Err(other) => panic!("unexpected admission failure: {other}"),
                }
            }
            for (template_pass, h) in batch {
                match h.join().expect("batch caller must not panic") {
                    Ok(answer) => check_sound(&answer, template_pass),
                    // Overload sheds are typed and carry the observed load.
                    Err(ServeError::Shed { in_flight, limit }) => {
                        assert!(in_flight > limit, "shed must report load above the limit");
                        assert_eq!(limit, 2);
                    }
                    Err(ServeError::Source(_)) => {}
                    Err(other) => panic!("unexpected admission failure: {other}"),
                }
            }
        });

        // Quiescent after every wave: exact conservation, nothing wedged.
        let m = server.metrics();
        assert!(m.conserves(), "pass {pass}: conservation violated: {m:?}");
        assert_eq!(m.in_flight, 0, "pass {pass}: request left in flight");
        assert_eq!(m.coalesce_waiters, 0, "pass {pass}: waiter left parked");
        assert_eq!(
            server.inflight(),
            0,
            "pass {pass}: wedged singleflight entry"
        );
    }

    let m = server.metrics();
    assert_eq!(
        m.admitted,
        m.completed + m.shed + m.deadline_refused + m.errors,
        "final conservation must be exact"
    );
    assert!(m.completed > 0, "the flood must not have starved all work");
}

// ---------------------------------------------------------------------------
// Knowledge lifecycle under chaos: drift → maintain() → heal cycles, with
// scheduled persist faults against a real store.
// ---------------------------------------------------------------------------

/// A fresh scratch store under `target/` (never outside the repo).
fn scratch_store(name: &str) -> KnowledgeStore {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/test-chaos-soak")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    KnowledgeStore::open(dir).unwrap()
}

/// The refresh soak's schedule: skew heavy enough that drift verdicts
/// keep firing (driving repeated refresh cycles), plus scheduled
/// persist failures against the maintenance passes.
fn refresh_schedule() -> Arc<ChaosSchedule> {
    Arc::new(ChaosSchedule::new(
        ChaosConfig::calm(MEMBERS.len())
            .with_seed(chaos_seed())
            .with_skew_rate(0.45)
            .with_trip_rate(0.05)
            .with_persist_fail_rate(0.2),
    ))
}

/// Re-mines a member's statistics from its true incomplete relation —
/// a pure function of the member, so every run (and both worker-pool
/// sizes) publishes identical refreshed generations.
fn remine(worlds: &[(Relation, SourceStats)], name: &str) -> SourceStats {
    let m = MEMBERS
        .iter()
        .position(|&n| n == name)
        .expect("mine called for unknown member");
    let (relation, _) = &worlds[m];
    SourceStats::mine(
        &uniform_sample(relation, 0.10, 5 + m as u64),
        relation.len(),
        &MiningConfig::default(),
    )
}

/// Arms this pass's scheduled persist faults. Alternating the fault kind
/// by pass parity walks both cleanup rungs: `Refused`/`DiskFull` leave
/// zero debris, `CrashBeforeRename` leaves journal + temp for the next
/// recovery sweep — either way the prior snapshot must stay loadable.
fn arm_persist_faults(store: &KnowledgeStore, persist_failing: &[usize], pass: u64) {
    for &member in persist_failing {
        let fault = if pass.is_multiple_of(2) {
            PersistFault::Refused
        } else {
            PersistFault::CrashBeforeRename
        };
        store.inject_persist_fault(MEMBERS[member], fault);
    }
}

/// Runs the refresh soak with `threads` mediation workers and returns the
/// per-pass digest log — answers, maintenance outcomes, and epochs.
fn run_refresh_soak(threads: usize) -> Vec<String> {
    use std::fmt::Write;

    struct PoolReset;
    impl Drop for PoolReset {
        fn drop(&mut self) {
            par::set_thread_override(None);
        }
    }
    let _reset = PoolReset;
    par::set_thread_override(Some(threads));

    const REFRESH_PASSES: u64 = 160;

    let schedule = refresh_schedule();
    let worlds: Vec<(Relation, SourceStats)> = (0..MEMBERS.len()).map(member_world).collect();
    let global = worlds[0].0.schema().clone();
    let reference = unchaosed_reference(&worlds, &global);
    let model = global.expect_attr("model");

    let cell = PassCell::new();
    let chaotic: Vec<ChaosSource<WebSource>> = worlds
        .iter()
        .zip(MEMBERS)
        .enumerate()
        .map(|(m, ((relation, _), name))| {
            ChaosSource::new(
                WebSource::new(name, relation.clone()),
                m,
                Arc::clone(&schedule),
                Arc::clone(&cell),
            )
            .with_skew(model, Value::str("Drifted"))
        })
        .collect();
    let health = Arc::new(HealthRegistry::new(BreakerConfig::default()));
    let drift = Arc::new(DriftRegistry::new(
        DriftConfig::default()
            .with_threshold(0.25)
            .with_min_observations(40),
    ));
    let store = scratch_store(&format!("refresh-soak-{threads}"));
    let mut network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(6))
        .with_clock(MediationClock::logical())
        .with_health(Arc::clone(&health))
        .with_drift(Arc::clone(&drift));
    for (source, (_, stats)) in chaotic.iter().zip(&worlds) {
        network = network.add_supporting(source, stats.clone());
    }
    // The harness keeps its own store handle: clones share the root and
    // the armed fault set with the server's copy.
    // A single attempt per pass: an armed persist fault fails the whole
    // refresh (the in-pass retry rung is the flood suite's job), so the
    // soak walks the cross-pass ladder — failure, backoff, deferral, heal.
    let server = QpiadServer::new(network)
        .with_config(
            ServeConfig::default()
                .with_refresh_retries(1)
                .with_refresh_backoff_base(2),
        )
        .with_knowledge_store(store.clone(), MiningConfig::default());
    server.register(Tenant::interactive("web"));

    let mut log = Vec::with_capacity(REFRESH_PASSES as usize);
    for pass in 0..REFRESH_PASSES {
        cell.set(pass);
        let chaos = schedule.pass(pass);
        for &member in &chaos.tripped {
            health.absorb(MEMBERS[member], &[Observation::Failure; 3]);
        }

        let pressure = RUNGS[(pass % 4) as usize];
        let query = soak_query(&global, pass);
        let answer = server
            .query_under("web", &query, pressure)
            .expect("a refresh-soak pass never aborts: members fail, the network degrades");

        // Soundness across every swap: a refreshed generation changes
        // ranking, never invents certain answers.
        let expected = &reference[(pass as usize) % STYLES.len()];
        for s in &answer.per_source {
            for t in &s.certain {
                assert!(
                    expected.contains(&t.id()),
                    "pass {pass}: refresh soak invented certain answer {:?} on {}",
                    t.id(),
                    s.source
                );
            }
        }

        // Scheduled persist faults land, then maintenance drains the
        // refresh queue sequentially between passes — the same protocol
        // slot as the breaker/drift sequential absorb.
        arm_persist_faults(&store, &chaos.persist_failing, pass);
        let report = server.maintain_at(pass + 1, |name, _| Ok(remine(&worlds, name)));

        let m = server.metrics();
        assert!(m.conserves(), "pass {pass}: conservation violated: {m:?}");
        assert_eq!(m.in_flight, 0, "pass {pass}: request left in flight");
        assert_eq!(
            server.inflight(),
            0,
            "pass {pass}: wedged singleflight entry"
        );
        let epochs = server.network().member_epochs();
        assert_eq!(
            epochs.iter().map(|(_, e)| *e as usize).sum::<usize>(),
            m.refresh_success,
            "pass {pass}: every successful refresh bumps exactly one epoch"
        );

        // Digest: the answer plus everything the maintenance pass decided.
        let mut line = digest(pass, pressure, &answer);
        write!(line, " || maint refreshed={:?} failed=[", report.refreshed).unwrap();
        for (name, _) in &report.failed {
            write!(line, "{name},").unwrap();
        }
        write!(
            line,
            "] deferred={:?} retries={} epochs={epochs:?} pending={}",
            report.deferred, report.retries, m.pending_refresh
        )
        .unwrap();
        log.push(line);
    }

    // The lifecycle must have actually cycled: drift fired, refreshes
    // published, scheduled persist faults failed some of them.
    let m = server.metrics();
    assert!(m.refresh_success > 0, "the soak never published a refresh");
    assert!(
        m.refresh_failure > 0,
        "the scheduled persist faults never landed"
    );
    // Whatever the fault schedule did, every persisted snapshot must load.
    for name in MEMBERS {
        if store.contains(name) {
            store
                .load_for(name, &global)
                .unwrap_or_else(|e| panic!("store unloadable for `{name}` after soak: {e}"));
        }
    }
    log
}

#[test]
fn refresh_soak_heals_drift_and_replays_byte_identically() {
    let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let serial = run_refresh_soak(1);
    let parallel = run_refresh_soak(8);
    for (pass, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s, p,
            "pass {pass} diverged between 1 and 8 mediation workers"
        );
    }
}

#[test]
fn refresh_under_flood_heals_and_never_refuses() {
    const FLOOD_PASSES: u64 = 48;

    let schedule = Arc::new(ChaosSchedule::new(
        ChaosConfig::calm(MEMBERS.len())
            .with_seed(chaos_seed())
            .with_skew_rate(0.6)
            .with_trip_rate(0.05)
            .with_persist_fail_rate(0.2)
            .with_flood(0.5, 6),
    ));
    let worlds: Vec<(Relation, SourceStats)> = (0..MEMBERS.len()).map(member_world).collect();
    let global = worlds[0].0.schema().clone();
    let reference = unchaosed_reference(&worlds, &global);
    let model = global.expect_attr("model");

    let cell = PassCell::new();
    let chaotic: Vec<ChaosSource<WebSource>> = worlds
        .iter()
        .zip(MEMBERS)
        .enumerate()
        .map(|(m, ((relation, _), name))| {
            ChaosSource::new(
                WebSource::new(name, relation.clone()),
                m,
                Arc::clone(&schedule),
                Arc::clone(&cell),
            )
            .with_skew(model, Value::str("Drifted"))
        })
        .collect();
    let health = Arc::new(HealthRegistry::new(BreakerConfig::default()));
    let drift = Arc::new(DriftRegistry::new(
        DriftConfig::default()
            .with_threshold(0.25)
            .with_min_observations(40),
    ));
    let store = scratch_store("refresh-flood");
    let mut network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(6))
        .with_clock(MediationClock::logical())
        .with_health(Arc::clone(&health))
        .with_drift(Arc::clone(&drift));
    for (source, (_, stats)) in chaotic.iter().zip(&worlds) {
        network = network.add_supporting(source, stats.clone());
    }
    let server = QpiadServer::new(network)
        .with_config(
            ServeConfig::default()
                .with_batch_concurrency(1)
                .with_batch_queue_limit(2)
                .with_pressure_capacity(4)
                .with_refresh_retries(2),
        )
        .with_knowledge_store(store.clone(), MiningConfig::default());
    server.register(Tenant::interactive("web"));
    server.register(Tenant::batch("nightly"));

    let check_sound = |answer: &Arc<NetworkAnswer>, template_pass: u64| {
        let expected = &reference[(template_pass as usize) % STYLES.len()];
        for s in &answer.per_source {
            for t in &s.certain {
                assert!(
                    expected.contains(&t.id()),
                    "refresh flood invented a certain answer"
                );
            }
        }
    };

    for pass in 0..FLOOD_PASSES {
        cell.set(pass);
        let chaos = schedule.pass(pass);
        for &member in &chaos.tripped {
            health.absorb(MEMBERS[member], &[Observation::Failure; 3]);
        }
        arm_persist_faults(&store, &chaos.persist_failing, pass);

        // Maintenance races the storm: epoch swaps and persist failures
        // land while interactive and batch callers are mid-pass.
        let batch_callers = 2 + chaos.flood;
        std::thread::scope(|scope| {
            let interactive: Vec<_> = (0..2u64)
                .map(|i| {
                    let query = soak_query(&global, pass + i);
                    let server = &server;
                    (pass + i, scope.spawn(move || server.query("web", &query)))
                })
                .collect();
            let batch: Vec<_> = (0..batch_callers as u64)
                .map(|i| {
                    let query = soak_query(&global, pass + i);
                    let server = &server;
                    (
                        pass + i,
                        scope.spawn(move || server.query("nightly", &query)),
                    )
                })
                .collect();
            let maintainer =
                scope.spawn(|| server.maintain_at(pass + 1, |name, _| Ok(remine(&worlds, name))));

            for (template_pass, h) in interactive {
                match h.join().expect("interactive caller must not panic") {
                    Ok(answer) => check_sound(&answer, template_pass),
                    Err(ServeError::Shed { .. }) => panic!("interactive request was shed"),
                    Err(ServeError::Source(_)) => {}
                    Err(other) => panic!("unexpected admission failure: {other}"),
                }
            }
            for (template_pass, h) in batch {
                match h.join().expect("batch caller must not panic") {
                    Ok(answer) => check_sound(&answer, template_pass),
                    Err(ServeError::Shed { in_flight, limit }) => {
                        assert!(in_flight > limit, "shed must report load above the limit");
                        assert_eq!(limit, 2);
                    }
                    Err(ServeError::Source(_)) => {}
                    Err(other) => panic!("unexpected admission failure: {other}"),
                }
            }
            maintainer
                .join()
                .expect("maintenance must not panic under flood");
        });

        // Quiescent after every wave: exact conservation, nothing wedged,
        // epoch accounting intact.
        let m = server.metrics();
        assert!(m.conserves(), "pass {pass}: conservation violated: {m:?}");
        assert_eq!(m.in_flight, 0, "pass {pass}: request left in flight");
        assert_eq!(m.coalesce_waiters, 0, "pass {pass}: waiter left parked");
        assert_eq!(
            server.inflight(),
            0,
            "pass {pass}: wedged singleflight entry"
        );
        assert_eq!(
            m.knowledge_epochs
                .iter()
                .map(|(_, e)| *e as usize)
                .sum::<usize>(),
            m.refresh_success,
            "pass {pass}: every successful refresh bumps exactly one epoch"
        );
    }

    let m = server.metrics();
    assert!(m.conserves(), "final conservation must be exact");
    assert!(m.completed > 0, "the flood must not have starved all work");
    assert!(
        m.refresh_success > 0,
        "drift-triggered maintenance never healed a member"
    );
    for name in MEMBERS {
        if store.contains(name) {
            store
                .load_for(name, &global)
                .unwrap_or_else(|e| panic!("store unloadable for `{name}` after flood: {e}"));
        }
    }
}
