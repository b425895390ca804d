//! One benchmark run: set-up, the deterministic prefix, the timed phase,
//! and the metrics taken from them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qpiad_core::network::MediatorNetwork;
use qpiad_core::{par, Degradation, NetworkAnswer, PlanCache, Qpiad, QueryContext};
use qpiad_db::health::MediationClock;
use qpiad_db::{
    AutonomousSource, Relation, SelectQuery, SelectionEngine, SourceError, SourceMeter, Tuple,
};
use qpiad_learn::drift::{DriftConfig, DriftRegistry};
use qpiad_learn::knowledge::{MiningConfig, SourceStats};
use qpiad_learn::persist::StatsSnapshot;
use qpiad_learn::store::KnowledgeStore;
use qpiad_serve::{QpiadServer, ServeConfig, ServeError, Tenant};

use crate::check::{self, Gate, Record};
use crate::fixture::{qpiad_config, Fixture, Inputs, Scale, Workload, CARS, MAINTAIN_EVERY};
use crate::sys;
use crate::trace::{child_ns, Span, TimedSource, Tracer};

const TENANT: &str = "bench";
/// Largest confidence shift a fold may publish on `drift_12k` before the
/// pass falls back to a full re-mine.
const REFOLD_BOUND: f64 = 0.3;
/// Streamed rows a `drift_12k` fold may merge into the 1.2k-row sample.
const STREAM_CAPACITY: usize = 600;
/// Timed requests served between two correctness checks. Each check scans
/// every member's rows once, so larger blocks spend more of the timed phase
/// serving.
const BLOCK: usize = 256;
/// Prefix requests served between two correctness checks. Answers wait for
/// their check in memory, and `peak_rss_mb` is read at the end of the
/// prefix, so few of them are held at a time there.
const PREFIX_BLOCK: usize = 32;
/// Fewest requests the timed phase serves, however long they take.
const MIN_MEASURED: usize = 64;
/// Source calls recorded in the prefix for the index replay.
const REPLAY_CALLS: usize = 4_000;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Serve through timing wrappers and report per-layer metrics.
    pub trace: bool,
    /// Sizes ([`Scale::of`] on the command line).
    pub scale: Scale,
    /// Directory for the drift workload's knowledge store; removed on exit.
    pub scratch: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunOutput {
    /// Digest of every answer in the deterministic prefix.
    pub digest: u64,
    /// Requests served.
    pub attempted: usize,
    /// Requests that returned `Err`.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Count and quality metrics of the prefix: identical at one seed.
    pub counts: Vec<Metric>,
    /// Every member's meter at the end of the prefix.
    pub prefix_meters: Vec<(String, SourceMeter)>,
    /// Failed requests and degraded members, by kind.
    pub errors: BTreeMap<String, usize>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Every span of a traced run (empty when untraced).
    pub spans: Vec<Span>,
    /// Source calls the timing wrappers counted during traced requests.
    pub traced_calls: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile (0 for an empty list).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ns_of(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Builds the serving stack over the given member sources.
fn server<'a>(
    cars: &'a dyn AutonomousSource,
    yahoo: Option<&'a dyn AutonomousSource>,
    fixture: &Fixture,
    inputs: &Inputs,
    store: Option<&Path>,
) -> (QpiadServer<'a>, Arc<PlanCache>, Option<Arc<DriftRegistry>>) {
    let cache = Arc::new(PlanCache::new());
    let mut network = MediatorNetwork::new(inputs.global.clone(), qpiad_config())
        .with_clock(MediationClock::logical())
        .with_plan_cache(Arc::clone(&cache));
    let drift = (inputs.workload == Workload::Drift12k).then(|| {
        Arc::new(DriftRegistry::new(
            DriftConfig::default()
                .with_threshold(0.05)
                .with_min_observations(20)
                .with_stream_capacity(STREAM_CAPACITY),
        ))
    });
    if let Some(d) = &drift {
        network = network.with_drift(Arc::clone(d));
    }
    network = network.add_supporting(cars, fixture.stats.clone());
    if let Some(y) = yahoo {
        network = network.add_deficient(y);
    }
    let mut server = QpiadServer::new(network)
        .with_config(ServeConfig::default().with_refold_bound(REFOLD_BOUND));
    if let Some(dir) = store {
        let store = KnowledgeStore::open(dir).expect("open the scratch knowledge store");
        server = server.with_knowledge_store(store, MiningConfig::default());
    }
    server.register(Tenant::interactive(TENANT));
    (server, cache, drift)
}

/// One served request awaiting its correctness check.
struct Served {
    index: u64,
    phase: usize,
    query: SelectQuery,
    result: Result<Arc<NetworkAnswer>, ServeError>,
}

/// Timings of the timed phase.
#[derive(Default)]
struct Timed {
    latency_ns: Vec<f64>,
    traced_ns: Vec<f64>,
    untraced_ns: Vec<f64>,
    /// Request and maintenance wall time; the checks between blocks are
    /// left out.
    serving_ns: u64,
    /// Process CPU time over the serving blocks.
    cpu_ns: u64,
    /// Wrapper source calls made during traced requests.
    traced_calls: usize,
    maintain_ms: Vec<f64>,
    fold_ms: Vec<f64>,
}

/// Deterministic maintenance counts of the prefix.
#[derive(Default)]
struct MaintainCounts {
    folds: usize,
    remines: usize,
    refreshes: usize,
    bytes_written: u64,
    observed_rows: u64,
}

struct Serving<'r, 'a> {
    opts: &'r Options,
    inputs: &'r Inputs,
    fixture: &'r Fixture,
    server: &'r QpiadServer<'a>,
    drift: Option<&'r DriftRegistry>,
    store_dir: &'r Path,
    tracer: &'r Tracer,
    /// Source calls through the timing wrappers so far (0 when untraced).
    wrapper_calls: &'r dyn Fn() -> usize,
    requests: crate::fixture::Requests,
    next: u64,
    pending: Vec<Served>,
    gate: Gate,
    timed: Timed,
    maint: MaintainCounts,
    mine_ms: RefCell<Vec<f64>>,
}

impl Serving<'_, '_> {
    fn serve(&mut self, measured: bool) {
        let i = self.next;
        self.next += 1;
        let phase = self.inputs.phase_of(i);
        self.fixture.cars.set_phase(phase);
        let query = self.requests.next_query();
        let traced = self.opts.trace && measured && i.is_multiple_of(2);
        self.tracer.begin_request(i, traced);
        let calls0 = (self.wrapper_calls)();
        let span = self.tracer.enter("request");
        let t0 = Instant::now();
        let result = self.server.query(TENANT, &query);
        let ns = ns_of(t0.elapsed());
        self.tracer.exit(span);
        if traced {
            self.timed.traced_calls += (self.wrapper_calls)() - calls0;
        }
        if measured {
            self.timed.latency_ns.push(ns as f64);
            self.timed.serving_ns += ns;
            if self.opts.trace {
                if traced {
                    &mut self.timed.traced_ns
                } else {
                    &mut self.timed.untraced_ns
                }
                .push(ns as f64);
            }
        }
        self.pending.push(Served {
            index: i,
            phase,
            query,
            result,
        });
        if self.drift.is_some() && (i + 1).is_multiple_of(MAINTAIN_EVERY) {
            self.maintain(i, phase, measured);
        }
    }

    fn maintain(&mut self, i: u64, phase: usize, measured: bool) {
        let drift = self.drift.expect("maintenance runs on the drift workload");
        if !measured {
            self.maint.observed_rows += drift.observed_rows(CARS);
        }
        let sample = &self.inputs.remine_samples[phase];
        let rows = self.inputs.scale.rows;
        let (tracer, mine_ms) = (self.tracer, &self.mine_ms);
        let mine = |name: &str, _: &dyn AutonomousSource| {
            if name != CARS {
                return Err(SourceError::Internal {
                    message: format!("no re-mine for `{name}`"),
                });
            }
            let span = tracer.enter("mine");
            let t0 = Instant::now();
            let stats = SourceStats::mine(sample, rows, &MiningConfig::default());
            let took = t0.elapsed();
            tracer.exit(span);
            if measured {
                mine_ms.borrow_mut().push(took.as_secs_f64() * 1e3);
            }
            Ok(stats)
        };
        self.tracer.begin_request(i, self.opts.trace && measured);
        let span = self.tracer.enter("maintain");
        let t0 = Instant::now();
        let report = self.server.maintain_at((i + 1) / MAINTAIN_EVERY, mine);
        let ns = ns_of(t0.elapsed());
        self.tracer.exit(span);
        for (name, e) in &report.failed {
            self.gate.violations.push(format!(
                "maintenance pass {}: `{name}` failed: {e}",
                report.pass
            ));
        }
        if measured {
            self.timed.serving_ns += ns;
            if !report.is_idle() {
                self.timed.maintain_ms.push(ms(ns));
            }
            if !report.folded.is_empty() {
                self.timed.fold_ms.push(ms(ns));
            }
        } else {
            self.maint.folds += report.folded.len();
            self.maint.remines += report.refreshed.len();
            if !report.is_idle() {
                self.maint.refreshes += 1;
                let store = KnowledgeStore::open(self.store_dir).expect("reopen the scratch store");
                self.maint.bytes_written += std::fs::metadata(store.path_for(CARS))
                    .map(|m| m.len())
                    .unwrap_or(0);
            }
        }
    }

    /// Checks every pending request. The prefix is also scored against the
    /// oracle; the prefix and the first [`MIN_MEASURED`] timed requests,
    /// which every run serves, feed the digest.
    fn check(&mut self) {
        let prefix = self.opts.scale.prefix;
        let pending = std::mem::take(&mut self.pending);
        let mut phases: Vec<usize> = pending.iter().map(|s| s.phase).collect();
        phases.dedup();
        for phase in phases {
            let batch: Vec<&Served> = pending.iter().filter(|s| s.phase == phase).collect();
            let queries: Vec<&SelectQuery> = batch.iter().map(|s| &s.query).collect();
            let mut members = vec![&self.inputs.cars[phase]];
            members.extend(self.inputs.yahoo.as_ref());
            let scans: Vec<_> = members
                .iter()
                .map(|m| check::scan(&m.stored, &queries))
                .collect();
            for (k, s) in batch.iter().enumerate() {
                let scanned: Vec<Vec<&Tuple>> = scans.iter().map(|per| per[k].clone()).collect();
                self.gate.check(
                    &s.query,
                    &s.result,
                    &members,
                    &scanned,
                    Record {
                        digest: s.index < prefix + MIN_MEASURED as u64,
                        score: s.index < prefix,
                        index: s.index,
                    },
                );
            }
        }
    }
}

/// Runs one workload end to end. `Err` carries every correctness violation.
pub fn run(opts: &Options) -> Result<RunOutput, Vec<String>> {
    par::set_thread_override(Some(1));
    let inputs = Inputs::generate(opts.workload, opts.scale, opts.seed);
    // Everything resident now is the benchmark's own copy of the data;
    // `peak_rss_mb` covers only what the program allocates from here on.
    let (rss_baseline_mb, peak_reset) = sys::reset_peak_rss();
    let drifting = opts.workload == Workload::Drift12k;
    let store_dir = opts.scratch.join("store");
    let store = drifting.then_some(store_dir.as_path());

    // Set-up, repeated: from generated rows in memory to a server whose
    // posting indexes are built. Row clones happen before the clock starts.
    let mut setup_s = Vec::new();
    let (mut relation_ms, mut mine_ms, mut index_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut fixture = None;
    for _ in 0..opts.scale.setups.max(1) {
        drop(fixture.take());
        let _ = std::fs::remove_dir_all(&store_dir);
        let raw = inputs.raw_rows();
        let t0 = Instant::now();
        let fx = Fixture::build(&inputs, raw);
        drop(server(
            fx.cars.source(),
            fx.yahoo.as_ref().map(|y| y as &dyn AutonomousSource),
            &fx,
            &inputs,
            store,
        ));
        setup_s.push(t0.elapsed().as_secs_f64());
        relation_ms.push(fx.relation_ms);
        mine_ms.push(fx.mine_ms);
        index_ms.push(fx.index_ms);
        fixture = Some(fx);
    }
    let fixture = fixture.expect("at least one set-up");
    let _ = std::fs::remove_dir_all(&store_dir);

    let tracer = Arc::new(Tracer::default());
    let timed_cars = TimedSource::new(fixture.cars.source(), Arc::clone(&tracer), 0);
    let timed_yahoo = fixture
        .yahoo
        .as_ref()
        .map(|y| TimedSource::new(y, Arc::clone(&tracer), 1));
    let (cars_src, yahoo_src): (&dyn AutonomousSource, Option<&dyn AutonomousSource>) =
        if opts.trace {
            (
                &timed_cars,
                timed_yahoo.as_ref().map(|y| y as &dyn AutonomousSource),
            )
        } else {
            (
                fixture.cars.source(),
                fixture.yahoo.as_ref().map(|y| y as &dyn AutonomousSource),
            )
        };
    let (server, cache, drift) = server(cars_src, yahoo_src, &fixture, &inputs, store);
    let wrapper_calls = || timed_cars.counts().0 + timed_yahoo.as_ref().map_or(0, |y| y.counts().0);

    let mut s = Serving {
        opts,
        inputs: &inputs,
        fixture: &fixture,
        server: &server,
        drift: drift.as_deref(),
        store_dir: &store_dir,
        tracer: &tracer,
        wrapper_calls: &wrapper_calls,
        requests: inputs.prefix_requests.clone(),
        next: 0,
        pending: Vec::new(),
        gate: Gate::default(),
        timed: Timed::default(),
        maint: MaintainCounts::default(),
        mine_ms: RefCell::new(Vec::new()),
    };

    // The deterministic prefix: every count and quality metric, and the
    // digest, come from these requests only.
    tracer.record_calls(if opts.trace { REPLAY_CALLS } else { 0 });
    while s.next < opts.scale.prefix {
        s.serve(false);
        if s.pending.len() >= PREFIX_BLOCK {
            s.check();
        }
    }
    s.check();
    // Memory is read here, after a request sequence every seed shares: over
    // the timed phase it would grow with how many requests a run serves.
    let peak_rss_mb = sys::peak_rss_mb() - rss_baseline_mb;
    tracer.record_calls(0);
    s.requests = inputs.requests.clone();
    let prefix_metrics = server.metrics();
    let prefix_meters = prefix_metrics.per_source.clone();
    let prefix_cache_entries = cache.len();
    let wrapper_counts: Vec<(usize, usize)> = std::iter::once(timed_cars.counts())
        .chain(timed_yahoo.as_ref().map(|y| y.counts()))
        .collect();

    // The timed phase: blocks of requests, each followed by its checks.
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    while start.elapsed() < budget || s.timed.latency_ns.len() < MIN_MEASURED {
        let cpu0 = sys::process_cpu_ns();
        for _ in 0..BLOCK {
            s.serve(true);
        }
        s.timed.cpu_ns += sys::process_cpu_ns() - cpu0;
        s.check();
    }
    let end_metrics = server.metrics();
    if !end_metrics.conserves() {
        s.gate
            .violations
            .push("ServeMetrics::conserves() does not hold at the end".into());
    }
    if !s.gate.violations.is_empty() {
        return Err(std::mem::take(&mut s.gate.violations));
    }

    let prefix = opts.scale.prefix as f64;
    let sum = |f: fn(&SourceMeter) -> usize| {
        prefix_meters.iter().map(|(_, m)| f(m)).sum::<usize>() as f64
    };
    let q = s.gate.quality;
    let hits = sum(|m| m.plan_cache_hits);
    let hit_rate = ratio(hits, hits + sum(|m| m.plan_cache_misses));
    let counts = vec![
        metric(
            "precision",
            ratio(q.relevant_returned as f64, q.returned as f64),
            "share",
        ),
        metric(
            "recall",
            ratio(q.relevant_returned as f64, q.relevant_total as f64),
            "share",
        ),
        metric(
            "source_queries_per_request",
            sum(|m| m.queries) / prefix,
            "count",
        ),
        metric(
            "tuples_per_relevant",
            ratio(sum(|m| m.tuples_returned), q.relevant_returned as f64),
            "count",
        ),
        metric("plan.cache_hit_rate", hit_rate, "share"),
        metric("plan.cache_entries", prefix_cache_entries as f64, "count"),
        metric("learn.folds", s.maint.folds as f64, "count"),
        metric("learn.remines", s.maint.remines as f64, "count"),
        metric(
            "learn.stream_rows_folded",
            prefix_metrics.stream.folded as f64,
            "count",
        ),
        metric(
            "store.bytes_written_per_refresh",
            ratio(s.maint.bytes_written as f64, s.maint.refreshes as f64),
            "bytes",
        ),
        metric(
            "drift.verdicts",
            prefix_meters
                .iter()
                .map(|(_, m)| m.drift_events)
                .sum::<usize>() as f64,
            "count",
        ),
        metric("drift.observed_rows", s.maint.observed_rows as f64, "count"),
        metric("validate.quarantined", sum(|m| m.quarantined), "count"),
    ];
    let attempted = s.next as usize;
    let error_rate = ratio(s.gate.failed as f64, attempted as f64);

    let t = &s.timed;
    let measured = t.latency_ns.len();
    let mut notes = vec![
        format!("workload {} seed {} trace {}", opts.workload.name(), opts.seed, u8::from(opts.trace)),
        format!("digest {:016x}", s.gate.digest.value()),
        format!(
            "prefix {} requests over {} templates; timed phase {measured} requests (p99 has {} samples above it)",
            opts.scale.prefix,
            inputs.requests.templates_len(),
            measured - (0.99 * measured as f64).ceil() as usize,
        ),
        format!(
            "peak_rss_mb over a baseline of {rss_baseline_mb:.1} MB{}",
            if peak_reset { "" } else { " (peak not reset: includes data generation)" }
        ),
        format!(
            "plan-cache hit share: prefix {hit_rate:.4}, whole run {:.4}",
            {
                let m = |f: fn(&SourceMeter) -> usize| end_metrics.per_source.iter().map(|(_, m)| f(m)).sum::<usize>() as f64;
                ratio(m(|m| m.plan_cache_hits), m(|m| m.plan_cache_hits) + m(|m| m.plan_cache_misses))
            }
        ),
        format!("failed requests {} of {attempted}; kinds {:?}", s.gate.failed, s.gate.errors),
    ];
    if drifting {
        notes.push(format!(
            "timed phase: {} non-idle maintenance passes, {} folds, {} re-mines",
            t.maintain_ms.len(),
            t.fold_ms.len(),
            s.mine_ms.borrow().len(),
        ));
    }
    for c in &counts {
        notes.push(format!("count {} = {} {}", c.name, c.value, c.unit));
    }

    let metrics = if !opts.trace {
        let mut m = vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("latency_p50_ms", quantile(&t.latency_ns, 0.5) / 1e6, "ms"),
            metric("latency_p99_ms", quantile(&t.latency_ns, 0.99) / 1e6, "ms"),
            metric(
                "throughput_qps",
                measured as f64 / (t.serving_ns as f64 / 1e9),
                "1/s",
            ),
            metric("cpu_ms_per_request", ms(t.cpu_ns) / measured as f64, "ms"),
        ];
        m.extend(counts.iter().take(4).cloned());
        m.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
        m
    } else {
        let layers = layer_metrics(
            &s,
            &inputs,
            &fixture,
            &tracer,
            &wrapper_counts,
            &store_dir,
            opts,
        );
        let mut m = vec![
            metric("relation.build_ms", median(&relation_ms), "ms"),
            metric("index.build_ms", median(&index_ms), "ms"),
            metric("learn.mine_ms", median(&mine_ms), "ms"),
            metric("error_rate", error_rate, "share"),
        ];
        m.extend(layers);
        m.extend(counts.iter().skip(4).cloned());
        m
    };
    Ok(RunOutput {
        digest: s.gate.digest.value(),
        attempted,
        failed: s.gate.failed,
        metrics,
        counts,
        prefix_meters,
        errors: std::mem::take(&mut s.gate.errors),
        notes,
        spans: tracer.spans(),
        traced_calls: s.timed.traced_calls,
    })
}

/// Per-layer timings: span self times, the index and planning replays, and
/// the persistence replay.
fn layer_metrics(
    s: &Serving<'_, '_>,
    inputs: &Inputs,
    fixture: &Fixture,
    tracer: &Tracer,
    wrapper_counts: &[(usize, usize)],
    store_dir: &Path,
    opts: &Options,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let children = child_ns(&spans);
    let (mut req_n, mut req_ns, mut src_ns) = (0usize, 0u64, 0u64);
    let mut call_us = Vec::new();
    for (i, sp) in spans.iter().enumerate() {
        match sp.name {
            "request" => {
                req_n += 1;
                req_ns += sp.dur_ns();
                src_ns += children[i];
            }
            "source.query" if sp.parent.is_some_and(|p| spans[p].name == "request") => {
                call_us.push(sp.dur_ns() as f64 / 1e3)
            }
            _ => {}
        }
    }
    let self_ns = req_ns - src_ns;
    let per_req = |ns: u64| ratio(ms(ns), req_n as f64);
    let (calls, tuples) = wrapper_counts
        .iter()
        .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));

    // Index replay: the prefix's issued calls against a benchmark-side
    // engine over the same stored rows, warmed by one untimed pass.
    let recorded = tracer.calls();
    let relation_of = |member: usize, request: u64| -> &Relation {
        if member == 0 {
            fixture.cars.relation(inputs.phase_of(request))
        } else {
            fixture
                .yahoo
                .as_ref()
                .expect("member 1 is the deficient source")
                .relation()
        }
    };
    let engines: Vec<SelectionEngine> = (0..inputs.cars.len() + 1)
        .map(|_| SelectionEngine::new())
        .collect();
    let engine_of = |member: usize, request: u64| {
        if member == 0 {
            &engines[inputs.phase_of(request)]
        } else {
            &engines[inputs.cars.len()]
        }
    };
    let valid: Vec<_> = recorded
        .iter()
        .filter(|c| !c.query.requires_null_binding() && !c.query.predicates().is_empty())
        .collect();
    let mut rows = 0usize;
    for c in &valid {
        rows += engine_of(c.member, c.request).count(relation_of(c.member, c.request), &c.query);
    }
    let (mut select_us, mut full_us) = (Vec::new(), Vec::new());
    for c in &valid {
        let (engine, rel) = (
            engine_of(c.member, c.request),
            relation_of(c.member, c.request),
        );
        let t0 = Instant::now();
        std::hint::black_box(engine.count(rel, std::hint::black_box(&c.query)));
        let count_us = t0.elapsed().as_secs_f64() * 1e6;
        let t0 = Instant::now();
        std::hint::black_box(engine.select(rel, std::hint::black_box(&c.query)));
        full_us.push(t0.elapsed().as_secs_f64() * 1e6);
        select_us.push(count_us);
    }

    // Planning replay: the first distinct templates of the stream, planned
    // against a fresh cache (cold) and again against the filled one (warm).
    let qpiad_src = fixture.cars.source();
    fixture.cars.set_phase(0);
    let mut stream = inputs.prefix_requests.clone();
    let mut templates: Vec<SelectQuery> = Vec::new();
    for _ in 0..512 {
        let q = stream.next_query();
        if !templates.contains(&q) {
            templates.push(q);
        }
        if templates.len() == 24 {
            break;
        }
    }
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    for q in &templates {
        let certain = qpiad_src
            .query(q)
            .expect("template query on the supporting member");
        let qpiad = Qpiad::new(fixture.stats.clone(), qpiad_config())
            .with_plan_cache(Arc::new(PlanCache::new()), 0);
        for out in [&mut cold_ms, &mut warm_ms] {
            let t0 = Instant::now();
            let plan = qpiad.plan(
                qpiad_src,
                q,
                &certain,
                &mut QueryContext::unbounded(),
                &mut Degradation::default(),
            );
            out.push(t0.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(plan);
        }
    }

    // Persistence replay: each phase's re-mined knowledge, mined untimed,
    // then captured and saved to a scratch store the way a refresh
    // persists it.
    let mut persist_ms = Vec::new();
    if !inputs.remine_samples.is_empty() {
        let replay = KnowledgeStore::open(store_dir.join("replay")).expect("open the replay store");
        let mined: Vec<SourceStats> = inputs
            .remine_samples
            .iter()
            .map(|sample| SourceStats::mine(sample, inputs.scale.rows, &MiningConfig::default()))
            .collect();
        for stats in mined.iter().cycle().take(8) {
            let t0 = Instant::now();
            let snapshot = StatsSnapshot::capture(stats, &MiningConfig::default());
            replay.save(CARS, &snapshot).expect("replay save");
            persist_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    let t = &s.timed;
    let traced_p50 = median(&t.traced_ns);
    let prefix = opts.scale.prefix as f64;
    vec![
        metric("request.traced_ms_per_request", per_req(req_ns), "ms"),
        metric("source.calls_per_request", calls as f64 / prefix, "count"),
        metric("source.ms_per_request", per_req(src_ns), "ms"),
        metric("source.us_per_call_p50", median(&call_us), "us"),
        metric(
            "source.tuples_per_call",
            ratio(tuples as f64, calls as f64),
            "count",
        ),
        metric("index.select_us_per_call_p50", median(&select_us), "us"),
        metric(
            "index.rows_per_call",
            ratio(rows as f64, valid.len() as f64),
            "count",
        ),
        metric(
            "source.materialize_us_per_call_p50",
            (median(&full_us) - median(&select_us)).max(0.0),
            "us",
        ),
        metric("plan.cold_ms_p50", median(&cold_ms), "ms"),
        metric("plan.warm_ms_p50", median(&warm_ms), "ms"),
        metric("mediation.self_ms_per_request", per_req(self_ns), "ms"),
        metric(
            "mediation.self_share",
            ratio(self_ns as f64, req_ns as f64),
            "share",
        ),
        metric("maintain_p50_ms", median(&t.maintain_ms), "ms"),
        metric("learn.fold_ms_p50", median(&t.fold_ms), "ms"),
        metric("learn.remine_ms_p50", median(&s.mine_ms.borrow()), "ms"),
        metric("store.persist_ms_p50", median(&persist_ms), "ms"),
        metric(
            "trace.overhead_share",
            ratio(traced_p50, median(&t.untraced_ns)) - 1.0,
            "share",
        ),
        metric("trace.spans", spans.len() as f64, "count"),
    ]
}
