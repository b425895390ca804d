//! The serving front end proper: admission → coalesce → plan → execute.
//!
//! [`QpiadServer`] wraps a [`MediatorNetwork`] for long-lived, concurrent
//! use. Every request flows through four stages:
//!
//! 1. **Admission** — the tenant is resolved (unknown callers are
//!    refused) and the query is validated against the global schema, so a
//!    malformed request is a graceful [`ServeError::MalformedQuery`]
//!    instead of an out-of-bounds panic deep inside predicate matching.
//! 2. **Overload control** — admitted work is bounded. Batch-class
//!    requests past [`ServeConfig::batch_queue_limit`] are refused with a
//!    typed [`ServeError::Shed`] *before any source fan-out*; interactive
//!    work is never refused but descends a degradation ladder instead: the
//!    current [`PressureLevel`] (derived from the live in-flight gauge
//!    against [`ServeConfig::pressure_capacity`]) clamps how much of the
//!    ranked rewrite plan the pass may admit, disables hedging, and at the
//!    top rung falls back to certain answers only — every shed rewrite is
//!    charged to the answer's `Degradation` so EXPLAIN and metrics state
//!    the recall mass given up. A server-wide deadline
//!    ([`ServeConfig::deadline`]) is stamped into the pass budget; a
//!    request that can no longer fund one attempt is refused with
//!    [`ServeError::DeadlineRefused`] — the cheapest possible layer.
//! 3. **Coalesce** — the request joins the singleflight group for its
//!    (query template, knowledge epoch, budget, pressure) key: the first
//!    caller leads, concurrent duplicates park and share the leader's
//!    answer — and its *single* source fan-out (see [`crate::coalesce`]).
//! 4. **Schedule** — a batch-class leader takes one of
//!    [`ServeConfig::batch_concurrency`] batch slots before executing;
//!    interactive leaders never queue, so a batch flood cannot starve
//!    them.
//! 5. **Execute** — one budgeted mediation pass runs on the network
//!    (which installs its own [`MediationClock`] around the pass), and
//!    the answer is published to the whole group.
//!
//! Every admitted request settles exactly once — completed, shed,
//! deadline-refused, or errored — even across panic unwinds (a request
//! guard charges an unsettled unwind to `errors`), so the metrics obey
//! `admitted == completed + shed + deadline_refused + errors` whenever
//! the server is quiesced.
//!
//! The server is `Sync`: callers invoke [`QpiadServer::query`] from as
//! many threads as they like. All answers are shared via `Arc` — the
//! determinism protocol underneath guarantees they are byte-identical to
//! a serial execution of the same requests.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use qpiad_core::network::{MediatorNetwork, MemberFold, NetworkAnswer};
use qpiad_db::health::{MediationClock, PressureLevel, QueryBudget};
use qpiad_db::{AutonomousSource, SelectQuery, SourceError};
use qpiad_learn::{KnowledgeStore, MiningConfig, SourceStats};

use crate::coalesce::{Flight, FlightKey, Role, SharedAnswer, Singleflight};
use crate::metrics::{MetricCells, ServeMetrics};
use crate::tenant::{Tenant, TenantClass};

/// Serving knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Most batch-class mediation passes allowed to execute at once;
    /// further batch leaders queue. Interactive passes are never gated.
    pub batch_concurrency: usize,
    /// Most batch-class requests allowed in flight at once (executing
    /// *or* queued on the batch gate); further batch work is refused with
    /// [`ServeError::Shed`] before any source fan-out. Default
    /// `usize::MAX` — unbounded, batch leaders queue instead of shedding.
    pub batch_queue_limit: usize,
    /// In-flight request count at which the overload ladder reaches
    /// [`PressureLevel::Critical`]. Intermediate rungs engage at 1/2 and
    /// 3/4 of this capacity (see [`PressureLevel::from_load`]). Default
    /// `0` — the ladder is disabled and every pass runs at
    /// [`PressureLevel::Normal`].
    pub pressure_capacity: usize,
    /// Server-wide deadline stamped into every pass budget (the stricter
    /// of this and the tenant's own deadline wins). A request whose
    /// stamped budget cannot fund one mediation attempt is refused with
    /// [`ServeError::DeadlineRefused`] at admission. Default `None` — no
    /// server-side deadline.
    pub deadline: Option<Duration>,
    /// Most mine/persist attempts one [`QpiadServer::maintain`] pass
    /// spends per refresh candidate before giving up for the pass (the
    /// member keeps serving its old knowledge generation). Default 2.
    pub refresh_retries: usize,
    /// Base of the exponential backoff (counted in maintenance passes) a
    /// candidate waits after a fully failed refresh pass: after `f`
    /// consecutive failed passes the member is deferred for
    /// `min(refresh_backoff_base << (f - 1), 64)` passes. Default 1.
    pub refresh_backoff_base: u64,
    /// Whether a maintenance pass first tries to fold a candidate's
    /// streamed validated rows into its existing knowledge (an
    /// incremental delta publication) before falling back to a full
    /// re-mine. Default `true`.
    pub prefer_incremental: bool,
    /// Largest AFD/AKey confidence shift an incremental fold may publish
    /// without a TANE re-run; a fold whose worst delta crosses this
    /// bound is abandoned and the candidate is fully re-mined instead
    /// (dependency *membership* could have changed, not just
    /// confidence). Default `0.05`.
    pub refold_bound: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_concurrency: 2,
            batch_queue_limit: usize::MAX,
            pressure_capacity: 0,
            deadline: None,
            refresh_retries: 2,
            refresh_backoff_base: 1,
            prefer_incremental: true,
            refold_bound: 0.05,
        }
    }
}

impl ServeConfig {
    /// Overrides the batch concurrency cap (at least 1).
    pub fn with_batch_concurrency(mut self, n: usize) -> Self {
        self.batch_concurrency = n.max(1);
        self
    }

    /// Bounds batch-class work in flight; excess is shed.
    pub fn with_batch_queue_limit(mut self, n: usize) -> Self {
        self.batch_queue_limit = n;
        self
    }

    /// Sets the in-flight capacity the overload ladder is scaled against
    /// (`0` disables the ladder).
    pub fn with_pressure_capacity(mut self, n: usize) -> Self {
        self.pressure_capacity = n;
        self
    }

    /// Sets the server-wide deadline stamped into every pass budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets how many mine/persist attempts a maintenance pass spends per
    /// refresh candidate (at least 1).
    pub fn with_refresh_retries(mut self, n: usize) -> Self {
        self.refresh_retries = n.max(1);
        self
    }

    /// Sets the refresh backoff base, in maintenance passes (at least 1).
    pub fn with_refresh_backoff_base(mut self, base: u64) -> Self {
        self.refresh_backoff_base = base.max(1);
        self
    }

    /// Enables or disables the incremental-fold fast path in maintenance.
    pub fn with_prefer_incremental(mut self, enabled: bool) -> Self {
        self.prefer_incremental = enabled;
        self
    }

    /// Sets the confidence-delta bound past which a fold escalates to a
    /// full re-mine (clamped to be non-negative).
    pub fn with_refold_bound(mut self, bound: f64) -> Self {
        self.refold_bound = bound.max(0.0);
        self
    }
}

/// Why the server refused or failed a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No tenant with this name is registered.
    UnknownTenant {
        /// The name presented at admission.
        name: String,
    },
    /// The query failed admission validation against the global schema.
    MalformedQuery {
        /// What was wrong, for diagnostics.
        reason: String,
    },
    /// Batch-class work refused because the class's in-flight bound
    /// ([`ServeConfig::batch_queue_limit`]) was already full. No source
    /// was contacted; retry after backing off.
    Shed {
        /// Batch requests in flight when this one was refused
        /// (including it).
        in_flight: usize,
        /// The configured bound it exceeded.
        limit: usize,
    },
    /// The stamped deadline (the stricter of the tenant's and
    /// [`ServeConfig::deadline`]) could no longer fund a single mediation
    /// attempt, so the request was refused at admission — the cheapest
    /// possible layer.
    DeadlineRefused,
    /// The mediation pass itself failed.
    Source(SourceError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant { name } => write!(f, "unknown tenant `{name}`"),
            ServeError::MalformedQuery { reason } => write!(f, "malformed query: {reason}"),
            ServeError::Shed { in_flight, limit } => write!(
                f,
                "shed: {in_flight} batch requests in flight exceed the limit of {limit}"
            ),
            ServeError::DeadlineRefused => {
                write!(
                    f,
                    "deadline refused: budget cannot fund a single mediation attempt"
                )
            }
            ServeError::Source(e) => write!(f, "mediation failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Locks a mutex, recovering from poisoning: every guarded state here is
/// valid at each instant, so a panicking peer must not wedge the server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Counting gate bounding concurrent batch-class passes.
#[derive(Debug, Default)]
struct BatchGate {
    used: Mutex<usize>,
    freed: Condvar,
}

impl BatchGate {
    fn acquire(&self, cap: usize) {
        let mut used = lock(&self.used);
        while *used >= cap {
            used = self
                .freed
                .wait(used)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        *used += 1;
    }

    fn release(&self) {
        *lock(&self.used) -= 1;
        self.freed.notify_one();
    }
}

/// Per-candidate refresh backoff: how many consecutive maintenance passes
/// have failed for the member, and the first pass it becomes eligible
/// again.
#[derive(Debug, Clone, Copy, Default)]
struct RefreshBackoff {
    failures: u32,
    next_eligible: u64,
}

/// The maintenance side of the server: the logical maintenance-pass
/// counter and each failing candidate's backoff state. Guarded by one
/// mutex — maintenance passes are expected to be driven by one background
/// thread, but nothing breaks if several run concurrently (each candidate
/// settles under the lock).
#[derive(Debug, Default)]
struct MaintenanceState {
    pass: u64,
    backoff: BTreeMap<String, RefreshBackoff>,
}

/// What one [`QpiadServer::maintain`] pass did, per candidate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaintenanceReport {
    /// The maintenance pass this report describes.
    pub pass: u64,
    /// Members whose knowledge was re-mined, persisted, and published
    /// via the full path (probe → TANE → classifiers from scratch).
    pub refreshed: Vec<String>,
    /// Members whose knowledge was updated by an incremental fold of
    /// streamed validated rows (delta count updates; no full re-mine),
    /// persisted, and published.
    pub folded: Vec<String>,
    /// Members whose refresh failed every in-pass attempt (old knowledge
    /// keeps serving; the candidate backs off), with the last error.
    pub failed: Vec<(String, SourceError)>,
    /// Members skipped this pass because their backoff window from an
    /// earlier failed pass has not elapsed yet.
    pub deferred: Vec<String>,
    /// Extra attempts spent after first in-pass failures, summed over all
    /// candidates.
    pub retries: usize,
}

impl MaintenanceReport {
    /// `true` iff the pass had nothing to do (no candidates at all).
    pub fn is_idle(&self) -> bool {
        self.refreshed.is_empty()
            && self.folded.is_empty()
            && self.failed.is_empty()
            && self.deferred.is_empty()
    }
}

/// A long-lived, thread-safe serving front end over a [`MediatorNetwork`].
pub struct QpiadServer<'a> {
    network: MediatorNetwork<'a>,
    config: ServeConfig,
    tenants: Mutex<HashMap<String, Tenant>>,
    flights: Singleflight,
    batch_gate: BatchGate,
    metrics: MetricCells,
    maintenance: Mutex<MaintenanceState>,
    /// Where [`Self::maintain`] persists refreshed knowledge before
    /// publishing it. `None` — refreshes publish in-memory only.
    store: Option<(KnowledgeStore, MiningConfig)>,
}

impl<'a> QpiadServer<'a> {
    /// Wraps `network` for serving. If the network carries no
    /// [`MediationClock`] yet, a wall clock is attached, so no pass served
    /// here inherits whatever clock the calling thread has installed in
    /// `qpiad_db::health`'s thread-local slot.
    pub fn new(network: MediatorNetwork<'a>) -> Self {
        let network = if network.clock().is_none() {
            network.with_clock(MediationClock::wall())
        } else {
            network
        };
        QpiadServer {
            network,
            config: ServeConfig::default(),
            tenants: Mutex::new(HashMap::new()),
            flights: Singleflight::default(),
            batch_gate: BatchGate::default(),
            metrics: MetricCells::default(),
            maintenance: Mutex::new(MaintenanceState::default()),
            store: None,
        }
    }

    /// Overrides the serving knobs.
    pub fn with_config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches the durable [`KnowledgeStore`] (and the mining config its
    /// snapshots are captured under) that [`Self::maintain`] persists
    /// refreshed knowledge to *before* publishing it. Without a store,
    /// refreshes publish in-memory only.
    pub fn with_knowledge_store(mut self, store: KnowledgeStore, config: MiningConfig) -> Self {
        self.store = Some((store, config));
        self
    }

    /// Registers (or replaces) a tenant.
    pub fn register(&self, tenant: Tenant) {
        lock(&self.tenants).insert(tenant.name().to_string(), tenant);
    }

    /// The wrapped network (read-only: meters, EXPLAIN, epochs).
    pub fn network(&self) -> &MediatorNetwork<'a> {
        &self.network
    }

    /// Runs one knowledge-maintenance pass **under live traffic**: drains
    /// the network's refresh candidates (drift verdicts plus contained
    /// knowledge-load failures). Each candidate is first offered the
    /// incremental path (when [`ServeConfig::prefer_incremental`] is on):
    /// its streamed validated rows are folded into the existing knowledge
    /// as delta count updates and published without a TANE re-run, unless
    /// the fold's worst confidence shift crosses
    /// [`ServeConfig::refold_bound`]. Candidates the fold cannot serve
    /// fall back to a full re-mine through `mine`, with bounded in-pass
    /// retries ([`ServeConfig::refresh_retries`]) and cross-pass
    /// exponential backoff ([`ServeConfig::refresh_backoff_base`]).
    ///
    /// Each successful candidate is persisted to the attached
    /// [`KnowledgeStore`] *first* (crash-safe: journal + temp-file +
    /// rename) and then published atomically into the member's knowledge
    /// cell — in-flight query passes keep their pinned generation, later
    /// passes see the new one whole, and the bumped epoch orphans the
    /// member's cached plans. A candidate whose every attempt fails keeps
    /// its old generation serving (a failed refresh can never produce a
    /// torn or empty answer) and is deferred for a growing number of
    /// passes.
    ///
    /// `mine` receives the candidate's name and its source; it typically
    /// re-probes the source and re-mines (or incrementally refreshes) its
    /// statistics. Takes `&self`: maintenance runs concurrently with
    /// [`Self::query`] callers.
    pub fn maintain(
        &self,
        mine: impl Fn(&str, &dyn AutonomousSource) -> Result<SourceStats, SourceError>,
    ) -> MaintenanceReport {
        let pass = {
            let mut state = lock(&self.maintenance);
            state.pass += 1;
            state.pass
        };
        self.maintain_pass(pass, mine)
    }

    /// [`Self::maintain`] at an explicit pass number — deterministic
    /// harnesses drive the maintenance clock from their own schedule. The
    /// internal pass counter is advanced to `pass` (never rewound), so
    /// interleaving with [`Self::maintain`] stays monotonic.
    pub fn maintain_at(
        &self,
        pass: u64,
        mine: impl Fn(&str, &dyn AutonomousSource) -> Result<SourceStats, SourceError>,
    ) -> MaintenanceReport {
        {
            let mut state = lock(&self.maintenance);
            state.pass = state.pass.max(pass);
        }
        self.maintain_pass(pass, mine)
    }

    fn maintain_pass(
        &self,
        pass: u64,
        mine: impl Fn(&str, &dyn AutonomousSource) -> Result<SourceStats, SourceError>,
    ) -> MaintenanceReport {
        let mut report = MaintenanceReport {
            pass,
            ..MaintenanceReport::default()
        };
        let mining_config = self
            .store
            .as_ref()
            .map(|(_, c)| c.clone())
            .unwrap_or_default();
        // Candidates come back in name order, so a pass's work list — and
        // with a deterministic `mine`, its outcome — is reproducible.
        for name in self.network.refresh_candidates() {
            let eligible = {
                let state = lock(&self.maintenance);
                state
                    .backoff
                    .get(&name)
                    .is_none_or(|b| pass >= b.next_eligible)
            };
            if !eligible {
                report.deferred.push(name);
                continue;
            }
            // Cheap path first: fold the member's streamed validated rows
            // into its existing knowledge. Any reason the fold cannot or
            // must not publish — no stream, no statistics, confidence
            // drift past the bound, a persist fault — falls through to
            // the full re-mine below.
            if self.config.prefer_incremental {
                if let Ok(MemberFold::Folded { .. }) = self.network.refresh_member_incremental_at(
                    &name,
                    &mining_config,
                    self.store.as_ref().map(|(s, c)| (s, c)),
                    self.config.refold_bound,
                    Some(pass),
                ) {
                    lock(&self.maintenance).backoff.remove(&name);
                    MetricCells::bump(&self.metrics.refresh_success);
                    MetricCells::bump(&self.metrics.refresh_incremental);
                    self.metrics
                        .last_refresh_pass
                        .fetch_max(pass, Ordering::Relaxed);
                    report.folded.push(name);
                    continue;
                }
            }
            let mut last_err = None;
            for attempt in 0..self.config.refresh_retries.max(1) {
                if attempt > 0 {
                    MetricCells::bump(&self.metrics.refresh_retries);
                    report.retries += 1;
                }
                match self.network.refresh_member_at(
                    &name,
                    |src| mine(&name, src),
                    self.store.as_ref().map(|(s, c)| (s, c)),
                    Some(pass),
                ) {
                    Ok(()) => {
                        last_err = None;
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            match last_err {
                None => {
                    lock(&self.maintenance).backoff.remove(&name);
                    MetricCells::bump(&self.metrics.refresh_success);
                    MetricCells::bump(&self.metrics.refresh_full);
                    self.metrics
                        .last_refresh_pass
                        .fetch_max(pass, Ordering::Relaxed);
                    report.refreshed.push(name);
                }
                Some(e) => {
                    {
                        let mut state = lock(&self.maintenance);
                        let b = state.backoff.entry(name.clone()).or_default();
                        b.failures += 1;
                        // Exponential in failed passes, capped at 64 so a
                        // long outage cannot exile a member forever.
                        let shift = u64::from(b.failures - 1).min(6);
                        let wait = (self.config.refresh_backoff_base.max(1) << shift).min(64);
                        b.next_eligible = pass + wait;
                    }
                    MetricCells::bump(&self.metrics.refresh_failure);
                    report.failed.push((name, e));
                }
            }
        }
        report
    }

    /// Serves one query for `tenant`: admission, overload control,
    /// coalescing, scheduling, then a budgeted mediation pass funded from
    /// the tenant's [`QueryBudget`]. The ladder rung is derived from live
    /// load; use [`Self::query_under`] to pin it.
    pub fn query(
        &self,
        tenant: &str,
        query: &SelectQuery,
    ) -> Result<Arc<NetworkAnswer>, ServeError> {
        self.serve(tenant, query, None)
    }

    /// [`Self::query`] at an explicitly pinned [`PressureLevel`],
    /// bypassing load derivation. Deterministic harnesses use this to
    /// drive the ladder from a schedule instead of live thread timing.
    pub fn query_under(
        &self,
        tenant: &str,
        query: &SelectQuery,
        pressure: PressureLevel,
    ) -> Result<Arc<NetworkAnswer>, ServeError> {
        self.serve(tenant, query, Some(pressure))
    }

    /// The overload-ladder rung the server is at right now, derived from
    /// the live in-flight gauge against [`ServeConfig::pressure_capacity`].
    pub fn pressure(&self) -> PressureLevel {
        PressureLevel::from_load(
            self.metrics.in_flight.load(Ordering::Relaxed),
            self.config.pressure_capacity,
        )
    }

    fn serve(
        &self,
        tenant: &str,
        query: &SelectQuery,
        pinned: Option<PressureLevel>,
    ) -> Result<Arc<NetworkAnswer>, ServeError> {
        let spec = match lock(&self.tenants).get(tenant) {
            Some(t) => t.clone(),
            None => {
                MetricCells::bump(&self.metrics.rejected);
                return Err(ServeError::UnknownTenant {
                    name: tenant.to_string(),
                });
            }
        };
        if let Err(reason) = self.validate(query) {
            MetricCells::bump(&self.metrics.rejected);
            return Err(ServeError::MalformedQuery { reason });
        }
        MetricCells::bump(&self.metrics.admitted);
        MetricCells::bump(match spec.class() {
            TenantClass::Interactive => &self.metrics.interactive,
            TenantClass::Batch => &self.metrics.batch,
        });
        // From here every path must settle exactly once; the guard charges
        // an unsettled unwind to `errors` and keeps the gauges exact.
        let guard = RequestGuard::begin(&self.metrics, spec.class());

        // Bounded admission: batch work past the class limit is shed
        // before any source fan-out. Interactive work is never shed — it
        // descends the degradation ladder below instead.
        if spec.class() == TenantClass::Batch {
            let live = self.metrics.batch_live.load(Ordering::Relaxed);
            if live > self.config.batch_queue_limit {
                MetricCells::bump(&self.metrics.shed);
                guard.settle();
                return Err(ServeError::Shed {
                    in_flight: live,
                    limit: self.config.batch_queue_limit,
                });
            }
        }

        let pressure = pinned.unwrap_or_else(|| self.pressure());

        // Deadline propagation: the stricter of the tenant's deadline and
        // the server-wide one funds the pass. A budget that cannot fund
        // one attempt is refused here — nothing cheaper exists.
        let mut budget = spec.budget();
        if let Some(deadline) = self.config.deadline {
            budget.deadline = budget.deadline.min(deadline);
        }
        if budget.is_exhausted() {
            MetricCells::bump(&self.metrics.deadline_refused);
            guard.settle();
            return Err(ServeError::DeadlineRefused);
        }

        let key = FlightKey {
            query: query.clone(),
            epoch: self.network.knowledge_epoch(),
            budget: budget.into(),
            pressure,
        };
        let result = match self.flights.join(
            &key,
            || MetricCells::bump(&self.metrics.coalesce_waiters),
            || MetricCells::lower_gauge(&self.metrics.coalesce_waiters),
        ) {
            Role::Follower(result) => {
                MetricCells::bump(&self.metrics.coalesced);
                result
            }
            Role::Leader(flight) => self.lead(&key, &flight, &spec, query, budget, pressure),
        };

        match result {
            Ok(answer) => {
                MetricCells::bump(&self.metrics.completed);
                guard.settle();
                Ok(answer)
            }
            Err(e) => {
                MetricCells::bump(&self.metrics.errors);
                guard.settle();
                Err(ServeError::Source(e))
            }
        }
    }

    /// Renders the network's EXPLAIN for a validated query.
    pub fn explain(&self, query: &SelectQuery) -> Result<String, ServeError> {
        self.validate(query)
            .map_err(|reason| ServeError::MalformedQuery { reason })?;
        Ok(self.network.explain(query))
    }

    /// Renders EXPLAIN as it would plan under `pressure`: the overload
    /// header plus every rewrite the ladder would shed, with its recall
    /// mass, marked `shed by overload ladder`.
    pub fn explain_under(
        &self,
        query: &SelectQuery,
        pressure: PressureLevel,
    ) -> Result<String, ServeError> {
        self.validate(query)
            .map_err(|reason| ServeError::MalformedQuery { reason })?;
        Ok(self.network.explain_under(query, pressure))
    }

    /// A snapshot of the serving counters, every member's meter, and the
    /// knowledge-lifecycle state (per-member epochs, refresh outcomes,
    /// pending refresh queue depth).
    pub fn metrics(&self) -> ServeMetrics {
        self.metrics.snapshot(
            self.network.member_meters(),
            self.network.member_epochs(),
            self.network.refresh_candidates().len(),
            self.network
                .drift()
                .map(|d| d.stream_stats())
                .unwrap_or_default(),
        )
    }

    /// Number of mediation passes currently in flight in the coalescing
    /// layer (distinct keys being led right now).
    pub fn inflight(&self) -> usize {
        self.flights.inflight_len()
    }

    /// Runs one scheduled, budgeted mediation pass at the given ladder
    /// rung as the group's leader and publishes it to every follower; a
    /// panic along the way publishes an [`SourceError::Internal`] instead
    /// of wedging them.
    fn lead(
        &self,
        key: &FlightKey,
        flight: &Flight,
        spec: &Tenant,
        query: &SelectQuery,
        budget: QueryBudget,
        pressure: PressureLevel,
    ) -> SharedAnswer {
        MetricCells::bump(&self.metrics.leaders);
        let mut publish = LeaderPublish {
            flights: &self.flights,
            key,
            flight,
            published: false,
        };
        let permit = (spec.class() == TenantClass::Batch).then(|| {
            self.batch_gate.acquire(self.config.batch_concurrency);
            MetricCells::raise_gauge(
                &self.metrics.batch_in_flight,
                &self.metrics.batch_in_flight_peak,
            );
            BatchPermit {
                gate: &self.batch_gate,
                metrics: &self.metrics,
            }
        });
        let result = self
            .network
            .answer_under(query, budget, pressure)
            .map(Arc::new);
        drop(permit);
        publish.publish(result)
    }

    /// Admission-time validation: every constrained attribute must exist
    /// in the global schema. Member-local concerns (unsupported
    /// attributes, null binding) are *not* rejected here — the mediator
    /// degrades those per member — but an attribute outside the global
    /// schema can satisfy no source and would index out of tuple bounds.
    fn validate(&self, query: &SelectQuery) -> Result<(), String> {
        let global = self.network.global_schema();
        for p in query.predicates() {
            if p.attr.index() >= global.arity() {
                return Err(format!(
                    "attribute {} out of range for global schema `{}` (arity {})",
                    p.attr,
                    global.name(),
                    global.arity()
                ));
            }
        }
        Ok(())
    }
}

/// Publishes the leader's result on the happy path, and an `Internal`
/// error if the leader unwinds first — followers must always wake.
struct LeaderPublish<'s> {
    flights: &'s Singleflight,
    key: &'s FlightKey,
    flight: &'s Flight,
    published: bool,
}

impl LeaderPublish<'_> {
    fn publish(&mut self, result: SharedAnswer) -> SharedAnswer {
        self.flights.complete(self.key, self.flight, result.clone());
        self.published = true;
        result
    }
}

impl Drop for LeaderPublish<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.flights.complete(
                self.key,
                self.flight,
                Err(SourceError::Internal {
                    message: "mediation pass aborted before publishing its answer".into(),
                }),
            );
        }
    }
}

/// RAII batch slot: releases the gate and lowers the gauge on drop (also
/// on unwind, so a panicking batch pass cannot leak its slot).
struct BatchPermit<'s> {
    gate: &'s BatchGate,
    metrics: &'s MetricCells,
}

impl Drop for BatchPermit<'_> {
    fn drop(&mut self) {
        MetricCells::lower_gauge(&self.metrics.batch_in_flight);
        self.gate.release();
    }
}

/// Accounting guard for one admitted request: raises the live gauges at
/// admission, lowers them on every exit, and — if the request unwinds
/// before settling into completed/shed/deadline_refused/errors — charges
/// it to `errors`, so the conservation equation survives panics.
struct RequestGuard<'s> {
    metrics: &'s MetricCells,
    batch: bool,
    settled: bool,
}

impl<'s> RequestGuard<'s> {
    fn begin(metrics: &'s MetricCells, class: TenantClass) -> Self {
        MetricCells::raise_gauge(&metrics.in_flight, &metrics.in_flight_peak);
        let batch = class == TenantClass::Batch;
        if batch {
            metrics.batch_live.fetch_add(1, Ordering::Relaxed);
        }
        RequestGuard {
            metrics,
            batch,
            settled: false,
        }
    }

    /// Marks the request's outcome as already counted; the drop that
    /// follows only lowers the gauges.
    fn settle(mut self) {
        self.settled = true;
    }
}

impl Drop for RequestGuard<'_> {
    fn drop(&mut self) {
        if !self.settled {
            MetricCells::bump(&self.metrics.errors);
        }
        if self.batch {
            MetricCells::lower_gauge(&self.metrics.batch_live);
        }
        MetricCells::lower_gauge(&self.metrics.in_flight);
    }
}
