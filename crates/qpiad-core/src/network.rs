//! Multi-source mediation: one global schema, many autonomous sources.
//!
//! The paper's mediator (Figures 1–2) fronts several web databases at once:
//! some support every global attribute, others lack a few. For each query,
//! [`MediatorNetwork::answer`] gathers certain and possible answers from
//! *every* registered source:
//!
//! * a source supporting all constrained attributes is served by the plain
//!   QPIAD pipeline with its own mined statistics;
//! * a source lacking a constrained attribute is served via the best
//!   **correlated source** per Definition 4 — the supporting source whose
//!   AFD for the missing attribute has the highest confidence and whose
//!   determining set the deficient source can bind.
//!
//! Mediation is **fault-isolated per member**: sources are autonomous and
//! flaky, so a member that fails (after retries) contributes a recorded
//! [`SourceOutcome::Failed`] instead of poisoning every other source's
//! answers, and a member whose rewrite plan partially failed is marked
//! [`SourceOutcome::Degraded`] with the dropped F-measure mass.
//!
//! On top of that isolation sits the **availability layer**
//! ([`qpiad_db::health`]): with a [`HealthRegistry`] attached
//! ([`MediatorNetwork::with_health`]), every pass snapshots each member's
//! circuit breaker sequentially, threads a pass-local probe through the
//! member's retrieval, and absorbs the observation logs in registration
//! order afterwards — so an Open member is skipped up front (its planned
//! work charged to [`Degradation::breaker_skips`]) and all breaker
//! decisions replay byte-identically at any thread count.
//! [`MediatorNetwork::answer_under`] additionally funds the pass from a
//! caller-supplied [`QueryBudget`] at an overload [`PressureLevel`], and
//! slow or recovering members get their rewrites **hedged** to the best
//! correlated supporting member.
//!
//! Answer and EXPLAIN share one sequential pass set-up (clock, knowledge
//! pin, breaker views, hedge partners) and one per-member routing
//! decision, so EXPLAIN always names the route the pass takes.
//!
//! The **knowledge lifecycle** closes the loop on mined statistics:
//! members can be registered straight from a durable
//! [`KnowledgeStore`] ([`MediatorNetwork::add_supporting_from_store`]) —
//! a snapshot that fails to load (missing, corrupt, wrong version, wrong
//! schema) degrades that member to certain-answers-only instead of
//! failing the network, charged to
//! [`Degradation::knowledge_unavailable`]. With a [`DriftRegistry`]
//! attached ([`MediatorNetwork::with_drift`]), every pass folds each
//! member's validated live responses into a pass-local [`DriftProbe`]
//! (snapshotted sequentially before the fan-out, absorbed sequentially
//! after it, like breaker state); a member whose responses have drifted
//! past the threshold has its possible answers demoted and is queued for
//! re-mining via [`MediatorNetwork::refresh_member`], which atomically
//! swaps in freshly mined statistics without disturbing in-flight passes.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use qpiad_db::health::{
    install_clock, BreakerProbe, BreakerState, BreakerView, ClockGuard, HealthRegistry,
    MediationClock, Observation, PressureLevel, QueryBudget,
};
use qpiad_db::par;
use qpiad_db::{
    AttrId, AutonomousSource, Relation, Schema, SelectQuery, SourceBinding, SourceError,
    SourceMeter, Tuple,
};
use qpiad_learn::afd::AfdSet;
use qpiad_learn::drift::{DriftProbe, DriftRegistry, DriftVerdict};
use qpiad_learn::epoch::{KnowledgeCell, MemberKnowledge, RefreshKind};
use qpiad_learn::knowledge::{FoldOutcome, MiningConfig, SourceStats};
use qpiad_learn::persist::{PersistError, StatsSnapshot};
use qpiad_learn::store::KnowledgeStore;

use crate::correlated::{
    answer_from_correlated_planned, is_correlated_source_usable, plan_from_correlated_speculative,
};
use crate::mediator::{Degradation, Qpiad, QpiadConfig, QueryContext, RankedAnswer};
use crate::plan::{
    self, AdmissionMode, BaseGate, CacheStatus, EntryStatus, MediationPlan, PlanCache, SkipReason,
};
use crate::rank::RankConfig;

/// One registered source.
struct Member<'a> {
    source: &'a dyn AutonomousSource,
    binding: SourceBinding,
    /// The member's mined knowledge — statistics plus provenance flags
    /// (stale snapshot, contained load failure) — behind an epoch-swapped
    /// [`KnowledgeCell`]. Every pass pins the cell once at admission and
    /// uses that pinned generation throughout; a concurrent
    /// [`MediatorNetwork::refresh_member`] publishes a replacement without
    /// disturbing the pin, so a pass can never observe a torn mix of two
    /// knowledge generations.
    knowledge: KnowledgeCell,
}

/// Every member's knowledge pinned for one pass, snapshotted sequentially
/// at pass admission — the read side of the epoch swap. `pins[i]` is
/// member `i`'s pinned generation; `versions[i]` is the plan-cache
/// knowledge version the pass plans member `i` under (drift clock plus
/// pinned epoch), so a cached plan can never be keyed by one generation
/// and executed against another.
struct PassKnowledge {
    pins: Vec<Arc<MemberKnowledge>>,
    versions: Vec<u64>,
}

/// The sequential pre-pass shared by an answer pass and EXPLAIN: the
/// network clock installed for the pass, every member's pinned knowledge,
/// the breaker snapshot, the hedge partners picked from it, and the
/// overload rung the pass runs at.
struct PassSetup {
    _clock: ClockGuard,
    pk: PassKnowledge,
    views: Vec<BreakerView>,
    hedges: Vec<Option<usize>>,
    pressure: PressureLevel,
}

/// How one member is served for one query: the routing decision answer
/// and EXPLAIN share.
#[derive(Clone, Copy)]
enum Route<'p> {
    /// Binds every constrained attribute and has pinned statistics: direct
    /// rewriting from the member's own knowledge (§4.2).
    Direct(&'p SourceStats),
    /// Binds every constrained attribute but has no statistics: certain
    /// answers only.
    CertainOnly,
    /// Cannot bind the query: rewrites planned from correlated member
    /// `j`'s statistics and base set (§4.3, Definition 4) and issued to
    /// this member. `j` is itself routed [`Route::Direct`], so its base
    /// retrieval runs earlier in the same pass.
    Correlated(usize, &'p SourceStats),
    /// Cannot bind the query and no member correlates: an empty
    /// contribution.
    Unreachable,
}

/// One member's drift state for a single pass, snapshotted sequentially
/// before the fan-out: the empty pass-local probe to fill and whether the
/// sticky verdict already demotes this pass — demotion decisions must not
/// depend on which worker finishes first.
#[derive(Default)]
struct MemberDrift {
    probe: Option<DriftProbe>,
    demoted: bool,
}

/// One member's share of an answer pass, held for the sequential absorb
/// phase: its answers, its breaker probe's observation log and its drift
/// probe.
struct MemberPass {
    result: Result<SourceAnswers, SourceError>,
    observations: Vec<Observation>,
    drift: Option<DriftProbe>,
    /// Set iff the member was routed [`Route::Direct`] and its base query
    /// was answered and validated: `result`'s certain set is then the base
    /// that members routed [`Route::Correlated`] through it plan from. An
    /// explicit flag, because an empty certain set is a valid base.
    base_validated: bool,
}

impl MemberPass {
    /// The validated base set this member retrieved this pass, in the
    /// global schema, or `None` if it validated none.
    fn validated_base(&self) -> Option<&[Tuple]> {
        match &self.result {
            Ok(answers) if self.base_validated => Some(&answers.certain),
            _ => None,
        }
    }
}

/// What [`MediatorNetwork::refresh_member_incremental_at`] did for one
/// member.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberFold {
    /// Streamed rows were folded and the new generation published.
    Folded {
        /// How many queued rows the fold consumed.
        rows: usize,
        /// Worst AFD/AKey confidence drift from the full-mine anchor.
        max_delta: f64,
    },
    /// The incremental path does not apply (no drift tracking, no mined
    /// statistics, or nothing streamed); the caller decides whether a
    /// full refresh is warranted.
    NotApplicable {
        /// Why the fold could not run.
        reason: &'static str,
    },
    /// Confidence drift crossed the re-mine bound; a full refresh must
    /// re-decide AFD membership.
    RemineRequired {
        /// Worst absolute confidence drift observed.
        max_delta: f64,
        /// The configured bound it crossed.
        bound: f64,
    },
}

/// How one member's contribution to a network answer went.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SourceOutcome {
    /// Full contribution: every planned query was answered.
    #[default]
    Healthy,
    /// Partial contribution: some rewritten queries were dropped after
    /// exhausting retries; the degradation records what was lost.
    Degraded(Degradation),
    /// No contribution: the member's base retrieval failed after retries.
    /// The other members' answers are unaffected.
    Failed(SourceError),
}

impl SourceOutcome {
    /// `true` iff the member contributed everything it was asked for.
    pub fn is_healthy(&self) -> bool {
        matches!(self, SourceOutcome::Healthy)
    }

    /// `true` iff the member contributed nothing because it failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, SourceOutcome::Failed(_))
    }

    /// `true` iff the member's contribution is partial.
    pub fn is_degraded(&self) -> bool {
        matches!(self, SourceOutcome::Degraded(_))
    }

    fn from_degradation(d: Degradation) -> Self {
        if d.is_degraded() {
            SourceOutcome::Degraded(d)
        } else {
            SourceOutcome::Healthy
        }
    }
}

/// Answers contributed by one source.
#[derive(Debug, Clone)]
pub struct SourceAnswers {
    /// The contributing source's name.
    pub source: String,
    /// Certain answers (global schema).
    pub certain: Vec<Tuple>,
    /// Ranked possible answers (global schema).
    pub possible: Vec<RankedAnswer>,
    /// Name of the correlated source whose statistics drove retrieval, if
    /// this source could not bind the query directly.
    pub via_correlated: Option<String>,
    /// How this member's retrieval went (healthy, degraded, or failed).
    pub outcome: SourceOutcome,
}

impl SourceAnswers {
    /// A contribution with no answers, served directly.
    fn empty(source: &dyn AutonomousSource, outcome: SourceOutcome) -> Self {
        SourceAnswers {
            source: source.name().to_string(),
            certain: Vec::new(),
            possible: Vec::new(),
            via_correlated: None,
            outcome,
        }
    }
}

/// The combined mediation result.
#[derive(Debug, Clone, Default)]
pub struct NetworkAnswer {
    /// Per-source contributions, in registration order.
    pub per_source: Vec<SourceAnswers>,
    /// Drift verdicts *newly* issued during this pass (a detector fires
    /// once; verdicts from earlier passes are queried on the registry).
    pub drift_verdicts: Vec<DriftVerdict>,
}

impl NetworkAnswer {
    /// Total certain answers across sources.
    pub fn certain_count(&self) -> usize {
        self.per_source.iter().map(|s| s.certain.len()).sum()
    }

    /// Total possible answers across sources.
    pub fn possible_count(&self) -> usize {
        self.per_source.iter().map(|s| s.possible.len()).sum()
    }

    /// `true` iff every member contributed its full answer set.
    pub fn fully_healthy(&self) -> bool {
        self.per_source.iter().all(|s| s.outcome.is_healthy())
    }

    /// The members that failed outright, with their errors.
    pub fn failed_sources(&self) -> Vec<(&str, &SourceError)> {
        self.per_source
            .iter()
            .filter_map(|s| match &s.outcome {
                SourceOutcome::Failed(e) => Some((s.source.as_str(), e)),
                _ => None,
            })
            .collect()
    }

    /// Number of members whose contribution was degraded (partial).
    pub fn degraded_count(&self) -> usize {
        self.per_source
            .iter()
            .filter(|s| s.outcome.is_degraded())
            .count()
    }
}

/// A mediator over several autonomous sources sharing a global schema.
pub struct MediatorNetwork<'a> {
    global: Arc<Schema>,
    members: Vec<Member<'a>>,
    config: QpiadConfig,
    /// Circuit-breaker registry shared across passes (and, if the caller
    /// wants, across networks). `None` disables health management.
    health: Option<Arc<HealthRegistry>>,
    /// Drift registry shared across passes: tracks how far each member's
    /// live responses have diverged from its mined sample. `None`
    /// disables drift detection.
    drift: Option<Arc<DriftRegistry>>,
    /// Whether slow / recovering members get their rewrites hedged.
    hedging: bool,
    /// Shared mediation-plan cache: each supporting member's candidate
    /// rewrites are memoized per (query template, knowledge version).
    /// `None` disables plan caching.
    plan_cache: Option<Arc<PlanCache>>,
    /// Network-scoped mediation clock, installed around every pass so
    /// retry backoff and injected latency sleep on *this* network's clock
    /// rather than another network's. `None` defers to whatever clock the
    /// calling thread has installed (wall time if none).
    clock: Option<Arc<MediationClock>>,
}

impl<'a> MediatorNetwork<'a> {
    /// Creates an empty network over the global schema.
    pub fn new(global: Arc<Schema>, config: QpiadConfig) -> Self {
        MediatorNetwork {
            global,
            members: Vec::new(),
            config,
            health: None,
            drift: None,
            hedging: true,
            plan_cache: None,
            clock: None,
        }
    }

    /// Attaches a network-scoped [`MediationClock`]. Every answer and
    /// EXPLAIN pass installs it for the pass's duration (fan-out workers
    /// inherit it), so concurrent callers against *other* networks can
    /// never warp this network's backoff or injected-latency accounting.
    pub fn with_clock(mut self, clock: Arc<MediationClock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// The attached mediation clock, if any.
    pub fn clock(&self) -> Option<&Arc<MediationClock>> {
        self.clock.as_ref()
    }

    /// Attaches a circuit-breaker registry. Breaker state persists across
    /// passes: a member that keeps failing is skipped up front until its
    /// cooldown elapses and a half-open probe succeeds.
    pub fn with_health(mut self, health: Arc<HealthRegistry>) -> Self {
        self.health = Some(health);
        self
    }

    /// Enables or disables hedged queries (default: enabled). Hedging only
    /// activates for members whose breaker is half-open or whose metered
    /// latency sits in the slowest decile, so healthy networks never pay
    /// for it.
    pub fn with_hedging(mut self, enabled: bool) -> Self {
        self.hedging = enabled;
        self
    }

    /// Attaches a drift registry. Must be called **before** sources are
    /// registered (like [`Self::with_health`]): each supporting member's
    /// detector is seeded from its mined statistics at registration time.
    pub fn with_drift(mut self, drift: Arc<DriftRegistry>) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Attaches a shared plan cache: repeated query templates against a
    /// member skip rewrite generation and ranking until the member's
    /// knowledge version moves ([`Self::refresh_member`] or a drift
    /// verdict). Hits and misses are counted on each source's
    /// [`SourceMeter`].
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// The attached plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// The knowledge version a member's cached plans are keyed by: the sum
    /// of the drift registry's counter (bumped on registration, drift
    /// verdicts, and refreshes) and the member's [`KnowledgeCell`] epoch
    /// (bumped by every publication, so refreshes invalidate even without
    /// a drift registry attached). Monotonic — any bump on either clock
    /// orphans the member's cached plans.
    pub fn member_knowledge_version(&self, name: &str) -> u64 {
        let epoch = self
            .members
            .iter()
            .find(|m| m.source.name() == name)
            .map_or(0, |m| m.knowledge.epoch());
        self.knowledge_version(name, epoch)
    }

    /// The plan-cache knowledge version of member `name` at knowledge
    /// `epoch`: the drift registry's counter plus the epoch.
    fn knowledge_version(&self, name: &str, epoch: u64) -> u64 {
        self.drift.as_ref().map_or(0, |d| d.knowledge_version(name)) + epoch
    }

    /// Every member's current knowledge epoch, in registration order: 0
    /// until its first [`Self::refresh_member`] publication, +1 per
    /// publication since. The serving layer's metrics surface reports
    /// these per member.
    pub fn member_epochs(&self) -> Vec<(String, u64)> {
        self.members
            .iter()
            .map(|m| (m.source.name().to_string(), m.knowledge.epoch()))
            .collect()
    }

    /// The members whose knowledge wants refreshing, in name order: every
    /// member the drift registry has queued for re-mining
    /// ([`DriftRegistry::pending_refresh`]) plus every member currently
    /// running without usable knowledge (a contained snapshot-load
    /// failure). The serving layer's maintenance pass drains this list.
    pub fn refresh_candidates(&self) -> Vec<String> {
        let mut pending: BTreeSet<String> = self
            .drift
            .as_ref()
            .map(|d| d.pending_refresh().into_iter().collect())
            .unwrap_or_default();
        for m in &self.members {
            if m.knowledge.pin().unavailable {
                pending.insert(m.source.name().to_string());
            }
        }
        pending.into_iter().collect()
    }

    /// Pins every member's knowledge for one pass (sequential, at pass
    /// admission) and computes the per-member plan-cache versions from the
    /// pinned epochs — the version and the statistics travel together from
    /// here on, so a concurrent refresh cannot tear them apart.
    fn pin_pass(&self) -> PassKnowledge {
        let pins: Vec<Arc<MemberKnowledge>> =
            self.members.iter().map(|m| m.knowledge.pin()).collect();
        let versions = self
            .members
            .iter()
            .zip(&pins)
            .map(|(m, pin)| self.knowledge_version(m.source.name(), pin.epoch))
            .collect();
        PassKnowledge { pins, versions }
    }

    /// The global mediated schema.
    pub fn global_schema(&self) -> &Arc<Schema> {
        &self.global
    }

    /// A snapshot of every member's access meter, in registration order.
    /// The serving layer's metrics surface reads these without resetting.
    pub fn member_meters(&self) -> Vec<(String, SourceMeter)> {
        self.members
            .iter()
            .map(|m| (m.source.name().to_string(), m.source.meter()))
            .collect()
    }

    /// A single scalar summarizing the network's knowledge state: the sum
    /// of every member's [`Self::member_knowledge_version`]. Any re-mine
    /// or drift demotion moves it, so two passes with equal epochs planned
    /// against identical knowledge — the serving layer keys request
    /// coalescing on it.
    pub fn knowledge_epoch(&self) -> u64 {
        self.members
            .iter()
            .map(|m| self.member_knowledge_version(m.source.name()))
            .sum()
    }

    /// The attached health registry, if any.
    pub fn health(&self) -> Option<&Arc<HealthRegistry>> {
        self.health.as_ref()
    }

    /// The attached drift registry, if any.
    pub fn drift(&self) -> Option<&Arc<DriftRegistry>> {
        self.drift.as_ref()
    }

    /// Registers a member that must bind every global attribute.
    fn push_full(mut self, source: &'a dyn AutonomousSource, knowledge: MemberKnowledge) -> Self {
        let binding = SourceBinding::by_name(source.name(), &self.global, source.schema());
        for g in self.global.attr_ids() {
            assert!(
                binding.supports(g),
                "source `{}` lacks global attribute `{}`; register it with add_deficient",
                source.name(),
                self.global.attr(g).name()
            );
        }
        self.members.push(Member {
            source,
            binding,
            knowledge: KnowledgeCell::new(knowledge),
        });
        self
    }

    fn push_supporting(
        self,
        source: &'a dyn AutonomousSource,
        stats: SourceStats,
        stale: bool,
    ) -> Self {
        if let Some(d) = &self.drift {
            d.register(source.name(), &stats);
        }
        let knowledge = if stale {
            MemberKnowledge::restored(stats)
        } else {
            MemberKnowledge::mined(stats)
        };
        self.push_full(source, knowledge)
    }

    /// Registers a source that supports the full global schema, together
    /// with its mined statistics.
    ///
    /// # Panics
    ///
    /// Panics if the source's schema does not cover every global attribute
    /// by name.
    pub fn add_supporting(self, source: &'a dyn AutonomousSource, stats: SourceStats) -> Self {
        self.push_supporting(source, stats, false)
    }

    /// Registers a supporting source whose statistics are mined live by
    /// `mine`, falling back to a persisted [`StatsSnapshot`] when the
    /// source cannot be mined right now: if the source's breaker is
    /// already Open, `mine` is not even attempted; if mining fails with a
    /// source failure, the failure is recorded against the breaker and the
    /// snapshot restored instead. A member running on restored statistics
    /// is **stale** — every answer it serves is tagged
    /// [`Degradation::stale_knowledge`] so callers can see the knowledge
    /// may be out of date. With no snapshot to fall back on, the error (or
    /// [`SourceError::CircuitOpen`]) propagates.
    ///
    /// # Panics
    ///
    /// Panics if the source's schema does not cover every global attribute
    /// by name (same contract as [`Self::add_supporting`]).
    pub fn add_supporting_or_stale(
        self,
        source: &'a dyn AutonomousSource,
        mine: impl FnOnce(&'a dyn AutonomousSource) -> Result<SourceStats, SourceError>,
        snapshot: Option<&StatsSnapshot>,
    ) -> Result<Self, SourceError> {
        let open = self
            .health
            .as_ref()
            .is_some_and(|h| h.state(source.name()) == BreakerState::Open);
        if open {
            return match snapshot {
                Some(snap) => Ok(self.push_supporting(source, snap.restore(), true)),
                None => Err(SourceError::CircuitOpen),
            };
        }
        match mine(source) {
            Ok(stats) => Ok(self.push_supporting(source, stats, false)),
            Err(e) if e.is_failure() => {
                if let Some(h) = &self.health {
                    h.absorb(source.name(), &[Observation::Failure]);
                }
                match snapshot {
                    Some(snap) => Ok(self.push_supporting(source, snap.restore(), true)),
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Registers a supporting source whose statistics come from a durable
    /// [`KnowledgeStore`]. The load path is **fault-contained**: a
    /// snapshot that is missing, corrupt, version-mismatched, or mined
    /// against a different schema degrades the member to
    /// **certain-answers-only** (it has no statistics to rewrite with, so
    /// every answer it serves is tagged
    /// [`Degradation::knowledge_unavailable`]) instead of failing the
    /// network. The classified load error is kept for diagnostics
    /// ([`Self::knowledge_failures`]) and the member heals on the next
    /// successful [`Self::refresh_member`].
    ///
    /// # Panics
    ///
    /// Panics if the source's schema does not cover every global attribute
    /// by name (same contract as [`Self::add_supporting`]).
    pub fn add_supporting_from_store(
        self,
        source: &'a dyn AutonomousSource,
        store: &KnowledgeStore,
    ) -> Self {
        match store.load_for(source.name(), source.schema()) {
            Ok(snapshot) => self.push_supporting(source, snapshot.restore(), false),
            Err(e) => self.push_full(source, MemberKnowledge::unavailable(e)),
        }
    }

    /// Registers a source whose local schema lacks some global attributes;
    /// queries on those attributes are served through a correlated source.
    pub fn add_deficient(mut self, source: &'a dyn AutonomousSource) -> Self {
        let binding = SourceBinding::by_name(source.name(), &self.global, source.schema());
        self.members.push(Member {
            source,
            binding,
            knowledge: KnowledgeCell::new(MemberKnowledge::absent()),
        });
        self
    }

    /// The members currently running without usable knowledge, with the
    /// classified load error that put them there.
    pub fn knowledge_failures(&self) -> Vec<(String, PersistError)> {
        self.members
            .iter()
            .filter_map(|m| {
                let pinned = m.knowledge.pin();
                pinned
                    .error
                    .clone()
                    .map(|e| (m.source.name().to_string(), e))
            })
            .collect()
    }

    /// Re-mines one member's knowledge and atomically publishes it.
    ///
    /// `mine` produces fresh statistics from the live source (typically
    /// [`SourceStats::refresh`] on the old bundle, or a full re-mine). On
    /// success the new statistics are persisted to `persist`'s store
    /// *first* (journal + temp-file + rename, so a crash never leaves a
    /// torn snapshot and the store stays loadable at the prior version),
    /// the new generation is published into the member's
    /// [`KnowledgeCell`] — clearing any stale / knowledge-unavailable
    /// degradation and bumping the member's knowledge version so cached
    /// plans built on the old statistics can never be served again — and
    /// the member's drift detector is re-seeded. On *any* failure — mining or persistence —
    /// the old generation keeps serving, the failure is recorded against
    /// the member's breaker, and the source's refresh-failure meter is
    /// bumped: a refresh can fail, but it can never publish torn or empty
    /// knowledge.
    ///
    /// Takes `&self`: in-flight [`Self::answer`] passes pinned their
    /// knowledge at admission and are unaffected; passes admitted after
    /// the publication see the new generation whole.
    pub fn refresh_member(
        &self,
        name: &str,
        mine: impl FnOnce(&'a dyn AutonomousSource) -> Result<SourceStats, SourceError>,
        persist: Option<(&KnowledgeStore, &MiningConfig)>,
    ) -> Result<(), SourceError> {
        self.refresh_member_at(name, mine, persist, None)
    }

    /// [`Self::refresh_member`] stamped with the maintenance pass that
    /// requested it, so EXPLAIN can report when a member's knowledge was
    /// last refreshed.
    pub fn refresh_member_at(
        &self,
        name: &str,
        mine: impl FnOnce(&'a dyn AutonomousSource) -> Result<SourceStats, SourceError>,
        persist: Option<(&KnowledgeStore, &MiningConfig)>,
        pass: Option<u64>,
    ) -> Result<(), SourceError> {
        let idx = self.member_index(name)?;
        let source = self.members[idx].source;
        match mine(source) {
            Ok(stats) => {
                let reseed = |stats: &SourceStats| {
                    if let Some(d) = &self.drift {
                        d.note_refreshed(name, stats);
                    }
                };
                self.publish_persisted(idx, stats, RefreshKind::Full, persist, pass, reseed)
            }
            Err(e) => {
                if e.is_failure() {
                    if let Some(h) = &self.health {
                        h.absorb(name, &[Observation::Failure]);
                    }
                }
                source.note_refresh_failure();
                Err(e)
            }
        }
    }

    /// Attempts to refresh one member's knowledge *incrementally*, by
    /// folding the validated live rows queued in the drift registry's
    /// sample stream into the retained sample
    /// ([`SourceStats::fold`]) — no source probe, no TANE re-run, no
    /// classifier retraining where the feature choice survived.
    ///
    /// The decision ladder:
    ///
    /// * No drift tracking, no mined statistics to fold into, or nothing
    ///   streamed → [`MemberFold::NotApplicable`] — the caller falls back
    ///   to a full [`Self::refresh_member_at`] (or skips).
    /// * Folded confidences drifted past `bound` from their full-mine
    ///   anchors → [`MemberFold::RemineRequired`] — AFD membership may
    ///   have changed, only a full re-mine can re-decide it. The streamed
    ///   rows stay queued; the full refresh that follows supersedes them.
    /// * Otherwise the fold publishes exactly like a full refresh:
    ///   persist-first into `persist`'s store, new generation published
    ///   with [`RefreshKind::Incremental`] (cached plans orphaned via the
    ///   knowledge-version bump), drift detector re-seeded (consuming the
    ///   folded rows up to the snapshot watermark).
    pub fn refresh_member_incremental_at(
        &self,
        name: &str,
        config: &MiningConfig,
        persist: Option<(&KnowledgeStore, &MiningConfig)>,
        bound: f64,
        pass: Option<u64>,
    ) -> Result<MemberFold, SourceError> {
        let idx = self.member_index(name)?;
        let Some(drift) = &self.drift else {
            return Ok(MemberFold::NotApplicable {
                reason: "drift tracking disabled",
            });
        };
        let pinned = self.members[idx].knowledge.pin();
        let Some(stats) = pinned.stats.as_ref() else {
            return Ok(MemberFold::NotApplicable {
                reason: "no mined statistics to fold into",
            });
        };
        let Some((rows, through)) = drift.stream_snapshot(name) else {
            return Ok(MemberFold::NotApplicable {
                reason: "no streamed rows pending",
            });
        };
        let folded_rows = rows.len();
        let fresh = Relation::new(stats.schema().clone(), rows);
        match stats.fold(&fresh, config, bound) {
            // Streamed rows were arity-checked at probe time against the
            // same schema the bundle holds, so skew here means a logic
            // error, not a misbehaving source.
            Err(e) => Err(SourceError::Internal {
                message: format!("incremental fold for `{name}`: {e}"),
            }),
            Ok(FoldOutcome::RemineRequired { max_delta, bound }) => {
                Ok(MemberFold::RemineRequired { max_delta, bound })
            }
            Ok(FoldOutcome::Folded {
                stats: folded,
                max_delta,
            }) => {
                let reseed = |folded: &SourceStats| drift.note_folded(name, folded, through);
                let kind = RefreshKind::Incremental;
                self.publish_persisted(idx, folded, kind, persist, pass, reseed)?;
                Ok(MemberFold::Folded {
                    rows: folded_rows,
                    max_delta,
                })
            }
        }
    }

    /// The registration index of member `name`.
    fn member_index(&self, name: &str) -> Result<usize, SourceError> {
        self.members
            .iter()
            .position(|m| m.source.name() == name)
            .ok_or_else(|| SourceError::Internal {
                message: format!("no member named `{name}`"),
            })
    }

    /// Publishes a refreshed generation of member `idx`'s knowledge,
    /// persist-first: the snapshot is saved to `persist`'s store before
    /// anything else moves. A generation that is not durable is never
    /// published — a crash after the swap would restart the mediator on
    /// the *old* snapshot while caches were keyed by the new epoch — so a
    /// failed save records a breaker failure and a refresh failure and
    /// keeps the old generation serving. On success the new generation is
    /// published, then `reseed` re-seeds the member's drift detector
    /// (bumping its knowledge version). In that order, a pass whose drift
    /// probe carries the new version has pinned the new generation: passes
    /// snapshot their probes before they pin.
    fn publish_persisted(
        &self,
        idx: usize,
        stats: SourceStats,
        kind: RefreshKind,
        persist: Option<(&KnowledgeStore, &MiningConfig)>,
        pass: Option<u64>,
        reseed: impl FnOnce(&SourceStats),
    ) -> Result<(), SourceError> {
        let source = self.members[idx].source;
        let name = source.name();
        if let Some((store, config)) = persist {
            if let Err(e) = store.save(name, &StatsSnapshot::capture(&stats, config)) {
                if let Some(h) = &self.health {
                    h.absorb(name, &[Observation::Failure]);
                }
                source.note_refresh_failure();
                let what = match kind {
                    RefreshKind::Full => "refreshed",
                    RefreshKind::Incremental => "folded",
                };
                return Err(SourceError::Internal {
                    message: format!("persisting {what} knowledge for `{name}`: {e}"),
                });
            }
        }
        let mut next = MemberKnowledge::mined(stats.clone());
        next.refreshed_at_pass = pass;
        next.refresh_kind = Some(kind);
        self.members[idx].knowledge.publish(next);
        reseed(&stats);
        source.note_refresh();
        Ok(())
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` iff no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Picks the best correlated member for a query against a deficient
    /// member (Definition 4): among members routed [`Route::Direct`] for
    /// the query (statistics, and a web form that binds every constrained
    /// attribute — the base set must be retrievable from them) whose best
    /// AFD for each constrained attribute has a determining set the
    /// deficient member supports, the one with the highest
    /// (minimum-over-attributes) AFD confidence. A candidate missing an AFD
    /// for *any* constrained attribute is disqualified — ignoring the gap
    /// would inflate its minimum-confidence score.
    fn correlated_for<'p>(
        &self,
        target: usize,
        query: &SelectQuery,
        pk: &'p PassKnowledge,
    ) -> Option<(usize, &'p SourceStats)> {
        let target_binding = &self.members[target].binding;
        let mut best: Option<(f64, usize, &SourceStats)> = None;
        for (j, m) in self.members.iter().enumerate() {
            if j == target || !Self::member_supports_all(m, query) {
                continue;
            }
            let Some(stats) = pk.pins[j].stats.as_ref() else {
                continue;
            };
            if !is_correlated_source_usable(stats, target_binding, query) {
                continue;
            }
            let Some(conf) = min_afd_confidence(stats.afds(), &query.constrained_attrs()) else {
                continue;
            };
            // A drifted candidate's AFDs may no longer describe what it
            // returns: demote its score so an un-drifted alternative wins.
            let conf = conf * self.drift_weight(m.source.name());
            if best.as_ref().map(|(c, ..)| conf > *c).unwrap_or(true) {
                best = Some((conf, j, stats));
            }
        }
        best.map(|(_, j, stats)| (j, stats))
    }

    /// Routes member `index` for `query` under the pass's pinned
    /// knowledge. Answer, EXPLAIN and hedge selection all take this one
    /// decision, so EXPLAIN names the route the pass takes.
    fn route<'p>(&self, index: usize, query: &SelectQuery, pk: &'p PassKnowledge) -> Route<'p> {
        if Self::member_supports_all(&self.members[index], query) {
            return match pk.pins[index].stats.as_ref() {
                Some(stats) => Route::Direct(stats),
                None => Route::CertainOnly,
            };
        }
        match self.correlated_for(index, query, pk) {
            Some((j, stats)) => Route::Correlated(j, stats),
            None => Route::Unreachable,
        }
    }

    /// The drift demotion factor for a source: 1.0 while its live
    /// responses match its mined sample, the registry's demote factor
    /// once a drift verdict has been issued (until re-mining resets it).
    fn drift_weight(&self, source: &str) -> f64 {
        self.drift.as_ref().map(|d| d.weight(source)).unwrap_or(1.0)
    }

    /// `true` iff the member can bind every constrained attribute of the
    /// query: the binding carries it AND the source's web form actually
    /// exposes a field for it (local schemas may store attributes they
    /// expose no field for).
    fn member_supports_all(member: &Member<'a>, query: &SelectQuery) -> bool {
        query.predicates().iter().all(|p| {
            member
                .binding
                .local_attr(p.attr)
                .is_some_and(|local| member.source.supports(local))
        })
    }

    /// Picks hedge partners for this pass, sequentially, from the breaker
    /// snapshot and the meters' latency history. `partners[i]` is the
    /// member index whose source doubles member `i`'s rewrites, or `None`.
    ///
    /// A member is hedge-*eligible* when it is routed direct for this
    /// query ([`Route::Direct`]) and is either recovering (breaker
    /// HalfOpen) or slow — its mean metered latency per query sits in the
    /// slowest decile of members with any latency history. The *partner*
    /// is the best correlated member (highest minimum AFD confidence over
    /// the constrained attributes) that is itself routed direct, whose
    /// breaker is Closed and whose local schema aligns positionally with
    /// the member's, so the same local rewrite is valid on both.
    fn hedge_partners(
        &self,
        query: &SelectQuery,
        views: &[BreakerView],
        pk: &PassKnowledge,
    ) -> Vec<Option<usize>> {
        let n = self.members.len();
        let mut partners: Vec<Option<usize>> = vec![None; n];
        if !self.hedging || n < 2 {
            return partners;
        }
        let avgs: Vec<u64> = self
            .members
            .iter()
            .map(|m| {
                let meter: SourceMeter = m.source.meter();
                let issued = meter.queries + meter.failures;
                if issued == 0 {
                    0
                } else {
                    meter.latency_ns / issued as u64
                }
            })
            .collect();
        let mut nonzero: Vec<u64> = avgs.iter().copied().filter(|a| *a > 0).collect();
        nonzero.sort_unstable();
        // The slowest-decile floor: ceil((len-1) * 0.9). With no latency
        // history at all, nothing qualifies as slow.
        let slow_floor = match nonzero.len() {
            0 => u64::MAX,
            len => nonzero[((len - 1) * 9).div_ceil(10)],
        };
        for (i, avg) in avgs.iter().enumerate() {
            let slow = *avg > 0 && *avg >= slow_floor;
            if views[i].state() != BreakerState::HalfOpen && !slow {
                continue;
            }
            if matches!(self.route(i, query, pk), Route::Direct(_)) {
                partners[i] = self.hedge_partner_for(i, query, views, pk);
            }
        }
        partners
    }

    /// The best hedge partner for member `i`, by Definition-4-style AFD
    /// confidence over the constrained attributes.
    fn hedge_partner_for(
        &self,
        i: usize,
        query: &SelectQuery,
        views: &[BreakerView],
        pk: &PassKnowledge,
    ) -> Option<usize> {
        let target = &self.members[i];
        let mut best: Option<(f64, usize)> = None;
        for (j, m) in self.members.iter().enumerate() {
            if j == i
                || views[j].state() != BreakerState::Closed
                || !schemas_aligned(target.source.schema(), m.source.schema())
            {
                continue;
            }
            let Route::Direct(stats) = self.route(j, query, pk) else {
                continue;
            };
            let conf = min_afd_confidence(stats.afds(), &query.constrained_attrs()).unwrap_or(0.0)
                * self.drift_weight(m.source.name());
            if best.as_ref().map(|(c, _)| conf > *c).unwrap_or(true) {
                best = Some((conf, j));
            }
        }
        best.map(|(_, j)| j)
    }

    /// The sequential pre-pass of an answer or EXPLAIN pass: installs the
    /// network clock (fan-out workers inherit it via `par`), pins every
    /// member's knowledge generation, snapshots the breaker views and
    /// picks hedge partners under the pressure gate. The knowledge pin is
    /// the admission point of the epoch protocol: a refresh published
    /// after it is invisible to this pass and fully visible to the next.
    /// Only an answer pass ticks the breaker pass clock (`tick`,
    /// half-opening cooled breakers), so EXPLAIN stays side-effect-free.
    fn setup_pass(&self, query: &SelectQuery, pressure: PressureLevel, tick: bool) -> PassSetup {
        let clock = install_clock(self.clock.clone().or_else(qpiad_db::health::current_clock));
        if let (true, Some(h)) = (tick, &self.health) {
            h.begin_pass();
        }
        let pk = self.pin_pass();
        let views: Vec<BreakerView> = self
            .members
            .iter()
            .map(|m| match &self.health {
                Some(h) => h.view(m.source.name()),
                None => BreakerView::disabled(),
            })
            .collect();
        let hedges = if pressure.allows_hedging() {
            self.hedge_partners(query, &views, &pk)
        } else {
            vec![None; self.members.len()]
        };
        PassSetup {
            _clock: clock,
            pk,
            views,
            hedges,
            pressure,
        }
    }

    /// Serves one member along `route` under the availability layer: an
    /// Open breaker skips it up front; otherwise a pass-local probe and a
    /// per-member copy of the budget gate every query. `shared_base` is
    /// the correlated member's validated base set for a
    /// [`Route::Correlated`] member (see [`MemberPass::validated_base`]).
    /// Returns the answer plus the probe's observation log and the drift
    /// probe's accumulated observations, both for the sequential absorb
    /// phase.
    #[allow(clippy::too_many_arguments)]
    fn answer_member(
        &self,
        index: usize,
        route: Route<'_>,
        query: &SelectQuery,
        pass: &PassSetup,
        budget: QueryBudget,
        drift: MemberDrift,
        pass_cache: &Arc<PlanCache>,
        shared_base: Option<&[Tuple]>,
    ) -> MemberPass {
        let MemberDrift {
            probe: drift_probe,
            demoted: drifted,
        } = drift;
        let member = &self.members[index];
        let knowledge = &pass.pk.pins[index];
        let view = pass.views[index];
        if view.state() == BreakerState::Open {
            member.source.note_breaker_skip();
            let d = Degradation {
                breaker_skips: 1,
                last_error: Some(SourceError::CircuitOpen),
                ..Degradation::default()
            };
            return MemberPass {
                result: Ok(SourceAnswers::empty(
                    member.source,
                    SourceOutcome::Degraded(d),
                )),
                observations: Vec::new(),
                drift: drift_probe,
                base_validated: false,
            };
        }
        let mut ctx = QueryContext::unbounded()
            .with_budget(budget)
            .with_probe(BreakerProbe::new(view))
            .with_pressure(pass.pressure);
        if let Some(probe) = drift_probe {
            ctx = ctx.with_drift(probe);
        }
        let result =
            self.answer_member_in(index, route, query, pass, &mut ctx, pass_cache, shared_base);
        let base_validated = matches!(route, Route::Direct(_)) && result.is_ok();
        let observations = ctx.probe.take_observations();
        let drift_probe = ctx.drift.take();
        let result = result.map(|mut answers| {
            if knowledge.stale {
                answers.outcome = tag_degradation(answers.outcome, |d| d.stale_knowledge = true);
            }
            if knowledge.unavailable {
                member.source.note_knowledge_unavailable();
                answers.outcome =
                    tag_degradation(answers.outcome, |d| d.knowledge_unavailable += 1);
            }
            if drifted {
                // The member's knowledge no longer matches what it
                // returns: demote the precision of every possible answer
                // it contributed and flag the degradation, so callers see
                // the answers survive but carry less weight until the
                // source is re-mined.
                let w = self.drift_weight(member.source.name());
                for a in &mut answers.possible {
                    a.query_precision *= w;
                }
                answers.outcome = tag_degradation(answers.outcome, |d| d.drift_demoted = true);
            }
            answers
        });
        MemberPass {
            result,
            observations,
            drift: drift_probe,
            base_validated,
        }
    }

    /// The per-member mediator for one pass: the member's *pinned*
    /// statistics under the network config, with the *pass-local* plan
    /// cache attached at the pinned knowledge version. When the network
    /// has no configured cache, the pass cache is an ephemeral one created
    /// per `answer` call, so a supporting member and a deficient member
    /// served through it still plan each (source, template) pair exactly
    /// once within the pass.
    fn member_qpiad_in_pass(
        &self,
        index: usize,
        stats: &SourceStats,
        pass_cache: &Arc<PlanCache>,
        pk: &PassKnowledge,
    ) -> Qpiad {
        Qpiad::new(stats.clone(), self.config)
            .with_plan_cache(Arc::clone(pass_cache), pk.versions[index])
    }

    /// The pre-availability-layer body of `answer_member`: serves one
    /// member along its [`Route`], under the context's probe and budget.
    #[allow(clippy::too_many_arguments)]
    fn answer_member_in(
        &self,
        index: usize,
        route: Route<'_>,
        query: &SelectQuery,
        pass: &PassSetup,
        ctx: &mut QueryContext,
        pass_cache: &Arc<PlanCache>,
        shared_base: Option<&[Tuple]>,
    ) -> Result<SourceAnswers, SourceError> {
        let member = &self.members[index];
        let pk = &pass.pk;
        let answers = match route {
            Route::Direct(stats) => {
                // Direct QPIAD. Statistics and query share the global
                // schema; supporting members map attributes 1:1. A hedged
                // member's queries are doubled to the partner source.
                let local = member.binding.translate_query(query)?;
                let qpiad = self.member_qpiad_in_pass(index, stats, pass_cache, pk);
                let set = match pass.hedges[index] {
                    Some(j) => {
                        let hedged = HedgedSource {
                            primary: member.source,
                            fallback: self.members[j].source,
                        };
                        qpiad.answer_in(&hedged, &local, ctx)?
                    }
                    None => qpiad.answer_in(member.source, &local, ctx)?,
                };
                let outcome = SourceOutcome::from_degradation(set.degraded);
                SourceAnswers {
                    certain: set
                        .certain
                        .iter()
                        .map(|t| member.binding.lift_tuple(t))
                        .collect(),
                    possible: set
                        .possible
                        .into_iter()
                        .map(|mut a| {
                            a.tuple = member.binding.lift_tuple(&a.tuple);
                            a
                        })
                        .collect(),
                    ..SourceAnswers::empty(member.source, outcome)
                }
            }
            Route::CertainOnly => {
                // Certain answers only, still under admission and
                // validation — the same base gate the direct pipeline runs
                // through.
                let local = member.binding.translate_query(query)?;
                let mut d = Degradation::default();
                let kept = plan::execute_base(
                    member.source,
                    &local,
                    &self.config.retry,
                    ctx,
                    &mut d,
                    BaseGate::Guarded,
                )?;
                SourceAnswers {
                    certain: kept.iter().map(|t| member.binding.lift_tuple(t)).collect(),
                    ..SourceAnswers::empty(member.source, SourceOutcome::from_degradation(d))
                }
            }
            Route::Correlated(j, stats) => {
                // The context's probe tracks the *target* (this member);
                // the correlated member's own breaker was vetted in its
                // own direct retrieval, which also supplies the base set.
                // Plan through the correlated member's own mediator: its
                // direct retrieval stored this template's candidate list
                // in the pass cache, so planning from its shared base is a
                // cache hit.
                let correlated = &self.members[j];
                let planner = self.member_qpiad_in_pass(j, stats, pass_cache, pk);
                let mut result = answer_from_correlated_planned(
                    correlated.source,
                    &planner,
                    member.source,
                    &member.binding,
                    query,
                    &self.config.retry,
                    shared_base,
                    ctx,
                )?;
                if pk.pins[j].stale {
                    result.degraded.stale_knowledge = true;
                }
                SourceAnswers {
                    possible: result.possible,
                    via_correlated: Some(correlated.source.name().to_string()),
                    ..SourceAnswers::empty(
                        member.source,
                        SourceOutcome::from_degradation(result.degraded),
                    )
                }
            }
            Route::Unreachable => SourceAnswers::empty(member.source, SourceOutcome::Healthy),
        };
        Ok(answers)
    }

    /// Answers a global-schema query against every registered source.
    ///
    /// Sources that can neither bind the query nor be reached through a
    /// correlated source contribute an empty answer set (exactly what a
    /// conventional mediator would return for them).
    ///
    /// Sources are interrogated concurrently on the [`par`] worker pool
    /// (meters and lazy indexes sit behind locks) in at most two waves:
    /// every member not routed through a correlated source first, then the
    /// members that are, each planning from the base set its correlated
    /// member validated in the first wave — one base retrieval per
    /// (source, query) per pass. Contributions are assembled in
    /// registration order, identical to sequential mediation.
    ///
    /// **Failures are isolated per member**: a member whose retrieval fails
    /// (after the configured retries) contributes an empty answer set with
    /// [`SourceOutcome::Failed`] recorded, instead of aborting the whole
    /// mediation — the best partial answer the network can certify is
    /// always returned. The `Result` return type is kept for API stability;
    /// the current implementation always returns `Ok`.
    pub fn answer(&self, query: &SelectQuery) -> Result<NetworkAnswer, SourceError> {
        self.answer_under(query, QueryBudget::unlimited(), PressureLevel::Normal)
    }

    /// [`Self::answer`] under a per-member [`QueryBudget`] and an overload
    /// [`PressureLevel`].
    ///
    /// Each member receives its own copy of the budget (members are
    /// interrogated concurrently, so a shared pool would make admission
    /// racy — a *per-member* budget keeps every decision deterministic).
    ///
    /// One pass of the availability protocol runs around the fan-out: the
    /// pass clock ticks and each member's breaker is snapshotted
    /// *sequentially before* the fan-out (an Open member is skipped up
    /// front, charging [`Degradation::breaker_skips`]); hedge partners are
    /// picked from the same snapshot; after the fan-out the members'
    /// observation logs are absorbed into the registry in registration
    /// order. Mediator-side refusals ([`SourceError::CircuitOpen`] /
    /// [`SourceError::BudgetExhausted`]) degrade the member instead of
    /// failing it — no query reached the source.
    ///
    /// The level is the serving layer's degradation ladder, applied
    /// uniformly to every member of this pass: a non-`Normal` level clamps
    /// each member's admitted rewrite plan to its rank-ordered top
    /// fraction (shed entries charge [`Degradation::overload_sheds`] and
    /// the member's [`SourceMeter::shed`](qpiad_db::SourceMeter) cell),
    /// and at `High` or above hedging is disabled outright — a hedge
    /// doubles source queries, the first expense to cut when capacity is
    /// scarce. Certain answers are never shed: `Critical` still executes
    /// every member's base query.
    pub fn answer_under(
        &self,
        query: &SelectQuery,
        budget: QueryBudget,
        pressure: PressureLevel,
    ) -> Result<NetworkAnswer, SourceError> {
        // Snapshot each member's drift state sequentially: an empty
        // pass-local probe plus the sticky drifted flag — demotion
        // decisions must not depend on which worker finishes first. Each
        // worker takes its member's snapshot out of its slot. The snapshot
        // precedes the knowledge pin: a refresh landing between the two
        // then moves the knowledge version past the probe's stamp, and
        // absorb drops the probe's statistic instead of pairing statistics
        // this pass never saw with the reset detector.
        let drift_states: Vec<Mutex<MemberDrift>> = self
            .members
            .iter()
            .map(|m| {
                Mutex::new(MemberDrift {
                    probe: self.drift.as_ref().and_then(|d| d.probe(m.source.name())),
                    demoted: self
                        .drift
                        .as_ref()
                        .is_some_and(|d| d.is_drifted(m.source.name())),
                })
            })
            .collect();
        let pass = self.setup_pass(query, pressure, true);

        // The pass-local plan cache: the configured cache when one is
        // attached, an ephemeral one otherwise. Either way, a supporting
        // member and a deficient member served through it plan each
        // (source, template) pair at most once per pass: the supporting
        // member plans in the first wave, the deficient member looks the
        // plan up in the second. Passes racing on a shared cache only cost
        // a duplicate computation — the cached artifact is a pure function
        // of (query, base, knowledge, α, k), so answers stay
        // thread-count-independent.
        let pass_cache: Arc<PlanCache> = match &self.plan_cache {
            Some(cache) => Arc::clone(cache),
            None => Arc::new(PlanCache::new()),
        };

        let serve = |i: usize, route: Route<'_>, shared_base: Option<&[Tuple]>| {
            let drift = std::mem::take(&mut *drift_states[i].lock());
            self.answer_member(
                i,
                route,
                query,
                &pass,
                budget,
                drift,
                &pass_cache,
                shared_base,
            )
        };
        let results: Vec<(usize, MemberPass)> = if self
            .members
            .iter()
            .all(|m| Self::member_supports_all(m, query))
        {
            // No member can be routed through a correlated source: one
            // wave, each worker routing its own member.
            par::parallel_map_indexed(self.members.len(), |i| {
                (i, serve(i, self.route(i, query, &pass.pk), None))
            })
        } else {
            self.answer_in_waves(query, &pass.pk, serve)
        };

        // Sequential post-pass: absorb observation logs and drift probes
        // in registration order, then assemble contributions.
        let mut out = NetworkAnswer::default();
        for (i, member_pass) in results {
            let member = &self.members[i];
            let MemberPass {
                result,
                observations,
                drift,
                ..
            } = member_pass;
            if let Some(h) = &self.health {
                h.absorb(member.source.name(), &observations);
            }
            if let (Some(d), Some(probe)) = (&self.drift, drift) {
                if let Some(verdict) = d.absorb(member.source.name(), probe) {
                    member.source.note_drift();
                    out.drift_verdicts.push(verdict);
                }
            }
            out.per_source.push(match result {
                Ok(answers) => {
                    // Charge ladder-shed rewrites to the member's meter so
                    // overload cost is visible next to breaker skips.
                    if let SourceOutcome::Degraded(d) = &answers.outcome {
                        if d.overload_sheds > 0 {
                            member.source.note_shed(d.overload_sheds);
                        }
                    }
                    answers
                }
                Err(e @ (SourceError::CircuitOpen | SourceError::BudgetExhausted)) => {
                    // Mediator-side refusal: the member was skipped whole,
                    // not failed — no query reached the source.
                    let mut d = Degradation::default();
                    match e {
                        SourceError::CircuitOpen => d.breaker_skips = 1,
                        _ => {
                            // The deadline could not fund even this
                            // member's base query: refused at the cheapest
                            // layer, before any fan-out.
                            member.source.note_deadline_refused();
                            d.budget_skips = 1;
                        }
                    }
                    d.last_error = Some(e);
                    SourceAnswers::empty(member.source, SourceOutcome::Degraded(d))
                }
                Err(e) => {
                    member.source.note_degraded();
                    SourceAnswers::empty(member.source, SourceOutcome::Failed(e))
                }
            });
        }
        Ok(out)
    }

    /// The fan-out of a pass some member of which cannot bind the query,
    /// in two deterministic waves over [`par`]. Wave 1 serves every member
    /// not routed [`Route::Correlated`]; wave 2 serves the correlated
    /// members, each handed the validated base set its correlated member
    /// `j` retrieved in wave 1 (`j` is routed [`Route::Direct`], so it
    /// always runs in wave 1). A member whose `j` validated no base issues
    /// the base itself. Returns every member's share tagged with its index,
    /// in registration order.
    fn answer_in_waves<F>(
        &self,
        query: &SelectQuery,
        pk: &PassKnowledge,
        serve: F,
    ) -> Vec<(usize, MemberPass)>
    where
        F: Fn(usize, Route<'_>, Option<&[Tuple]>) -> MemberPass + Sync,
    {
        let routes: Vec<Route<'_>> = (0..self.members.len())
            .map(|i| self.route(i, query, pk))
            .collect();
        let (second, first): (Vec<usize>, Vec<usize>) =
            (0..routes.len()).partition(|&i| matches!(routes[i], Route::Correlated(..)));
        let wave1: Vec<(usize, MemberPass)> =
            par::parallel_map(&first, |&i| (i, serve(i, routes[i], None)));
        let wave2: Vec<(usize, MemberPass)> = par::parallel_map(&second, |&i| {
            let shared_base = match routes[i] {
                Route::Correlated(j, _) => wave1
                    .binary_search_by_key(&j, |(k, _)| *k)
                    .ok()
                    .and_then(|at| wave1[at].1.validated_base()),
                _ => None,
            };
            (i, serve(i, routes[i], shared_base))
        });
        let mut results = wave1;
        results.extend(wave2);
        results.sort_unstable_by_key(|(i, _)| *i);
        results
    }

    /// Renders the network's full mediation plan for `query` — EXPLAIN —
    /// without issuing a single source query.
    ///
    /// Mirrors one [`Self::answer`] pass: the same pass set-up (breaker
    /// snapshot read without ticking the pass clock, so explaining is
    /// side-effect-free; the same hedge partners) and the same per-member
    /// route: the direct QPIAD plan (speculative: the base set is
    /// approximated from the mined sample, and the plan cache is
    /// bypassed), a certain-answers-only plan, the plan a deficient member
    /// is served through its best correlated source, or an empty
    /// contribution. Breaker refusals show up as per-entry skip reasons.
    pub fn explain(&self, query: &SelectQuery) -> String {
        self.explain_under(query, PressureLevel::Normal)
    }

    /// [`Self::explain`] under an overload [`PressureLevel`]: renders the
    /// plan a pass at that rung would run — ladder-shed entries show as
    /// per-entry `SKIP — shed by overload ladder` lines with their
    /// F-measure mass, and hedge partners disappear once the rung disables
    /// hedging — still issuing zero source queries.
    pub fn explain_under(&self, query: &SelectQuery, pressure: PressureLevel) -> String {
        use std::fmt::Write as _;
        let pass = self.setup_pass(query, pressure, false);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "EXPLAIN over {} member(s) — query {}",
            self.members.len(),
            query.display(&self.global)
        );
        if pressure != PressureLevel::Normal {
            let _ = writeln!(
                out,
                "  overload pressure: {} (rewrite fraction {:.2}, hedging {})",
                pressure.label(),
                pressure.rewrite_fraction(),
                if pressure.allows_hedging() {
                    "on"
                } else {
                    "off"
                }
            );
        }
        for i in 0..self.members.len() {
            let _ = writeln!(out);
            out.push_str(&self.explain_member(i, query, &pass));
        }
        out
    }

    /// One member's section of [`Self::explain`], along its [`Route`].
    fn explain_member(&self, index: usize, query: &SelectQuery, pass: &PassSetup) -> String {
        use std::fmt::Write as _;
        let member = &self.members[index];
        let knowledge = &pass.pk.pins[index];
        let name = member.source.name();
        let view = pass.views[index];
        let mut ctx = QueryContext::unbounded()
            .with_probe(BreakerProbe::new(view))
            .with_pressure(pass.pressure);
        let untranslatable =
            || format!("plan for source `{name}` — query untranslatable to local schema\n");
        match self.route(index, query, &pass.pk) {
            Route::Direct(stats) => {
                let Ok(local) = member.binding.translate_query(query) else {
                    return untranslatable();
                };
                let mut plan = Qpiad::new(stats.clone(), self.config).plan_speculative(
                    member.source,
                    &local,
                    &mut ctx,
                );
                // Name the cache key the pass plans under when the network
                // shares a plan cache.
                plan.knowledge_version = self.plan_cache.as_ref().map(|_| pass.pk.versions[index]);
                plan.hedge = pass.hedges[index].map(|j| self.members[j].source.name().to_string());
                let mut out = plan.render(member.source.schema());
                if knowledge.stale {
                    let _ = writeln!(
                        out,
                        "  note: statistics restored from a snapshot (stale knowledge)"
                    );
                }
                if let Some(pass) = knowledge.refreshed_at_pass {
                    let _ = write!(
                        out,
                        "  note: knowledge refreshed at pass {pass} (epoch {})",
                        knowledge.epoch
                    );
                    if let Some(kind) = knowledge.refresh_kind {
                        let _ = write!(out, " via {kind}");
                    }
                    let _ = writeln!(out);
                }
                out
            }
            Route::CertainOnly => {
                let Ok(local) = member.binding.translate_query(query) else {
                    return untranslatable();
                };
                // Render the base-only plan with the same admission preview.
                let mut base_plan =
                    MediationPlan::new(name, local, self.config.retry, AdmissionMode::PlanTime);
                base_plan.cache = CacheStatus::Speculative;
                base_plan.base_status = if view.state() == BreakerState::Open {
                    EntryStatus::Skipped(SkipReason::BreakerOpen)
                } else {
                    EntryStatus::Admitted(self.config.retry)
                };
                let mut out = base_plan.render(member.source.schema());
                let why = if knowledge.unavailable {
                    "knowledge unavailable"
                } else {
                    "no mined statistics"
                };
                let _ = writeln!(
                    out,
                    "  note: certain answers only ({why}; nothing to rewrite with)"
                );
                out
            }
            Route::Correlated(j, stats) => {
                // The plan lives on the correlated source's statistics;
                // rewrites are issued to this member. The base set is the
                // one the correlated member's direct retrieval validates
                // this pass, unless its breaker skips it up front.
                let correlated = self.members[j].source.name();
                let base_shared = pass.views[j].state() != BreakerState::Open;
                let plan = plan_from_correlated_speculative(
                    stats,
                    name,
                    &member.binding,
                    query,
                    &RankConfig {
                        alpha: self.config.alpha,
                        k: self.config.k,
                    },
                    &self.config.retry,
                    base_shared,
                    &mut ctx,
                );
                let mut out = format!(
                    "(member `{name}` cannot bind the query — plan built from correlated \
                     source `{correlated}`'s statistics)\n"
                );
                out.push_str(&plan.render(&self.global));
                if base_shared {
                    let _ = writeln!(
                        out,
                        "  note: base set shared from `{correlated}`'s direct retrieval this \
                         pass (issued here only if that retrieval validates none)"
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "  note: base set issued here to `{correlated}` (its breaker is open: \
                         it retrieves no base this pass)"
                    );
                }
                out
            }
            Route::Unreachable => format!(
                "plan for source `{name}` — no usable correlated source; empty contribution\n"
            ),
        }
    }
}

/// Applies a degradation tag to an outcome: a Healthy outcome becomes
/// Degraded iff the tag actually degrades it, a Degraded outcome gains the
/// tag, a Failed outcome is left alone (the member contributed nothing to
/// tag).
fn tag_degradation(outcome: SourceOutcome, tag: impl FnOnce(&mut Degradation)) -> SourceOutcome {
    match outcome {
        SourceOutcome::Healthy => {
            let mut d = Degradation::default();
            tag(&mut d);
            SourceOutcome::from_degradation(d)
        }
        SourceOutcome::Degraded(mut d) => {
            tag(&mut d);
            SourceOutcome::Degraded(d)
        }
        failed => failed,
    }
}

/// `true` iff the two schemas agree positionally on attribute names and
/// types, so a query phrased against one is valid verbatim against the
/// other. Hedging requires this: the same local rewrite goes to both
/// sources.
fn schemas_aligned(a: &Schema, b: &Schema) -> bool {
    a.arity() == b.arity()
        && a.attr_ids()
            .all(|id| a.attr(id).name() == b.attr(id).name() && a.attr(id).ty() == b.attr(id).ty())
}

/// A primary source doubled by a correlated fallback for one mediation
/// pass (hedged queries). Every query is issued to *both* sources — in
/// parallel when workers are available, primary first otherwise, so meters
/// accrue identically at any thread count — and the primary's response is
/// preferred deterministically. Only when the primary *fails* (not a
/// rejection) and the fallback serves does the fallback's response stand
/// in, deduplicated by tuple id and counted on the primary's meter as a
/// hedge.
struct HedgedSource<'a> {
    primary: &'a dyn AutonomousSource,
    fallback: &'a dyn AutonomousSource,
}

impl AutonomousSource for HedgedSource<'_> {
    fn name(&self) -> &str {
        self.primary.name()
    }

    fn schema(&self) -> &Arc<Schema> {
        self.primary.schema()
    }

    // Planning is the primary's: the hedge must not change which rewrites
    // are generated or admitted, only who ends up serving them.
    fn supports(&self, attr: AttrId) -> bool {
        self.primary.supports(attr)
    }

    fn allows_null_binding(&self) -> bool {
        self.primary.allows_null_binding()
    }

    fn has_query_budget(&self) -> bool {
        // Either budget makes issue order significant: serve sequentially.
        self.primary.has_query_budget() || self.fallback.has_query_budget()
    }

    fn query(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError> {
        let hedgeable = q
            .predicates()
            .iter()
            .all(|p| self.fallback.supports(p.attr))
            && (!q.requires_null_binding() || self.fallback.allows_null_binding());
        if !hedgeable {
            return self.primary.query(q);
        }
        let lost = || SourceError::Internal {
            message: "hedge fan-out lost a result".into(),
        };
        let mut results = par::parallel_map_indexed(2, |i| {
            if i == 0 {
                self.primary.query(q)
            } else {
                self.fallback.query(q)
            }
        });
        let fallback = results.pop().unwrap_or_else(|| Err(lost()));
        let primary = results.pop().unwrap_or_else(|| Err(lost()));
        match primary {
            Ok(tuples) => Ok(tuples),
            Err(e) if e.is_failure() => match fallback {
                Ok(mut tuples) => {
                    self.primary.note_hedge();
                    let mut seen: HashSet<qpiad_db::TupleId> = HashSet::new();
                    tuples.retain(|t| seen.insert(t.id()));
                    Ok(tuples)
                }
                Err(_) => Err(e),
            },
            Err(e) => Err(e),
        }
    }

    fn meter(&self) -> SourceMeter {
        self.primary.meter()
    }

    fn reset_meter(&self) {
        self.primary.reset_meter();
    }

    fn note_retries(&self, n: usize) {
        self.primary.note_retries(n);
    }

    fn note_failure(&self) {
        self.primary.note_failure();
    }

    fn note_degraded(&self) {
        self.primary.note_degraded();
    }

    fn note_quarantined(&self, n: usize) {
        self.primary.note_quarantined(n);
    }

    fn note_hedge(&self) {
        self.primary.note_hedge();
    }

    fn note_breaker_skip(&self) {
        self.primary.note_breaker_skip();
    }

    fn note_shed(&self, n: usize) {
        self.primary.note_shed(n);
    }

    fn note_deadline_refused(&self) {
        self.primary.note_deadline_refused();
    }

    fn note_knowledge_unavailable(&self) {
        self.primary.note_knowledge_unavailable();
    }

    fn note_plan_cache_hit(&self) {
        self.primary.note_plan_cache_hit();
    }

    fn note_plan_cache_miss(&self) {
        self.primary.note_plan_cache_miss();
    }

    fn note_drift(&self) {
        self.primary.note_drift();
    }

    fn note_refresh(&self) {
        self.primary.note_refresh();
    }

    fn note_refresh_failure(&self) {
        self.primary.note_refresh_failure();
    }

    fn note_latency(&self, d: std::time::Duration) {
        self.primary.note_latency(d);
    }
}

/// The Definition-4 score component: the minimum best-AFD confidence over
/// the given attributes, or `None` when any attribute has no AFD at all —
/// a candidate correlated source that cannot explain every constrained
/// attribute must be disqualified, not scored on the attributes it happens
/// to cover.
fn min_afd_confidence(afds: &AfdSet, attrs: &[AttrId]) -> Option<f64> {
    let mut conf = f64::INFINITY;
    for a in attrs {
        conf = conf.min(afds.best(*a)?.confidence);
    }
    conf.is_finite().then_some(conf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::{Predicate, Relation, Value, WebSource};
    use qpiad_learn::knowledge::MiningConfig;

    fn mined(ed: &Relation, seed: u64) -> SourceStats {
        let sample = uniform_sample(ed, 0.10, seed);
        SourceStats::mine(&sample, ed.len(), &MiningConfig::default())
    }

    struct Fixture {
        global: Arc<Schema>,
        cars: WebSource,
        cars_stats: SourceStats,
        yahoo: WebSource,
        yahoo_ground: Relation,
    }

    fn fixture() -> Fixture {
        let cars_gd = CarsConfig::default().with_rows(6_000).generate(61);
        let global = cars_gd.schema().clone();
        let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(1));
        let cars_stats = mined(&cars_ed, 2);
        let cars = WebSource::new("cars.com", cars_ed);

        let yahoo_ground = CarsConfig::default().with_rows(6_000).generate(62);
        let keep: Vec<_> = global
            .attr_ids()
            .filter(|a| global.attr(*a).name() != "body_style")
            .collect();
        let yahoo_local = yahoo_ground.project_to("yahoo_autos", &keep);
        let yahoo = WebSource::new("yahoo_autos", yahoo_local);

        Fixture {
            global,
            cars,
            cars_stats,
            yahoo,
            yahoo_ground,
        }
    }

    #[test]
    fn network_answers_from_all_sources() {
        let f = fixture();
        let network = MediatorNetwork::new(f.global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting(&f.cars, f.cars_stats.clone())
            .add_deficient(&f.yahoo);
        assert_eq!(network.len(), 2);

        let body = f.global.expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let answer = network.answer(&q).unwrap();
        assert_eq!(answer.per_source.len(), 2);

        // Cars.com contributes certain + possible answers directly.
        let cars_part = &answer.per_source[0];
        assert_eq!(cars_part.source, "cars.com");
        assert!(cars_part.via_correlated.is_none());
        assert!(!cars_part.certain.is_empty());
        assert!(!cars_part.possible.is_empty());

        // Yahoo contributes possible answers via the correlated source.
        let yahoo_part = &answer.per_source[1];
        assert_eq!(yahoo_part.source, "yahoo_autos");
        assert_eq!(yahoo_part.via_correlated.as_deref(), Some("cars.com"));
        assert!(yahoo_part.certain.is_empty());
        assert!(!yahoo_part.possible.is_empty());
        // All lifted to the global schema with a null on body_style.
        for a in &yahoo_part.possible {
            assert_eq!(a.tuple.arity(), f.global.arity());
            assert!(a.tuple.value(body).is_null());
        }
        assert!(answer.certain_count() > 0);
        assert!(answer.possible_count() > cars_part.possible.len());
    }

    #[test]
    fn correlated_answers_are_mostly_relevant() {
        let f = fixture();
        let network = MediatorNetwork::new(f.global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting(&f.cars, f.cars_stats.clone())
            .add_deficient(&f.yahoo);
        let body = f.global.expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "SUV")]);
        let answer = network.answer(&q).unwrap();
        let yahoo_part = &answer.per_source[1];
        let hits = yahoo_part
            .possible
            .iter()
            .filter(|a| {
                f.yahoo_ground
                    .by_id(a.tuple.id())
                    .map(|t| t.value(body) == &Value::str("SUV"))
                    .unwrap_or(false)
            })
            .count();
        let precision = hits as f64 / yahoo_part.possible.len().max(1) as f64;
        assert!(precision > 0.6, "correlated precision {precision}");
    }

    #[test]
    fn queries_on_supported_attrs_hit_deficient_sources_directly() {
        let f = fixture();
        let network = MediatorNetwork::new(f.global.clone(), QpiadConfig::default())
            .add_supporting(&f.cars, f.cars_stats.clone())
            .add_deficient(&f.yahoo);
        let model = f.global.expect_attr("model");
        let q = SelectQuery::new(vec![Predicate::eq(model, "Civic")]);
        let answer = network.answer(&q).unwrap();
        // Yahoo supports model: it serves certain answers itself (no stats →
        // no possible answers from it).
        let yahoo_part = &answer.per_source[1];
        assert!(yahoo_part.via_correlated.is_none());
        assert!(!yahoo_part.certain.is_empty());
    }

    #[test]
    fn unreachable_queries_yield_empty_contributions() {
        let f = fixture();
        // Network with ONLY the deficient source: no correlated member.
        let network =
            MediatorNetwork::new(f.global.clone(), QpiadConfig::default()).add_deficient(&f.yahoo);
        let body = f.global.expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let answer = network.answer(&q).unwrap();
        assert_eq!(answer.certain_count(), 0);
        assert_eq!(answer.possible_count(), 0);
    }

    #[test]
    fn missing_afd_disqualifies_a_correlated_candidate() {
        // Regression for the Definition-4 scoring bug: a candidate with an
        // AFD for only one of two constrained attributes used to be scored
        // on that one attribute alone (the gap was silently filtered out),
        // inflating its minimum-confidence score. A missing AFD must
        // disqualify the candidate outright.
        use qpiad_learn::afd::Afd;
        let a0 = AttrId(0);
        let a1 = AttrId(1);
        let a2 = AttrId(2);
        let afds = AfdSet::new(vec![Afd::new(vec![a0], a1, 0.9)]);
        // Fully covered: the single attribute's best AFD scores it.
        assert_eq!(min_afd_confidence(&afds, &[a1]), Some(0.9));
        // a2 has no AFD: the candidate is disqualified, not scored 0.9.
        assert_eq!(min_afd_confidence(&afds, &[a1, a2]), None);
        // No constrained attributes: nothing to certify, disqualified.
        assert_eq!(min_afd_confidence(&afds, &[]), None);
        // Minimum over attributes, not average or maximum.
        let afds = AfdSet::new(vec![
            Afd::new(vec![a0], a1, 0.9),
            Afd::new(vec![a0], a2, 0.4),
        ]);
        assert_eq!(min_afd_confidence(&afds, &[a1, a2]), Some(0.4));
    }

    #[test]
    fn a_form_that_cannot_bind_the_query_is_no_correlated_source() {
        // `cars.blind` stores body_style and has statistics mentioning it,
        // but its web form exposes no body_style field: it cannot retrieve
        // the base set, so it must not be picked as yahoo's correlated
        // source — even registered first, with statistics tying the
        // bindable `cars.com`'s.
        let f = fixture();
        let body = f.global.expect_attr("body_style");
        let bindable: Vec<AttrId> = f.global.attr_ids().filter(|a| *a != body).collect();
        let blind =
            WebSource::new("cars.blind", f.cars.relation().clone()).with_queryable(&bindable);
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

        let alone = MediatorNetwork::new(f.global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting(&blind, f.cars_stats.clone())
            .add_deficient(&f.yahoo);
        let answer = alone.answer(&q).unwrap();
        // Neither member can be served: empty contributions, no query
        // reaches the blind form, no failure is recorded.
        assert!(answer.fully_healthy(), "{:?}", answer.per_source);
        assert_eq!(answer.per_source[1].via_correlated, None);
        assert_eq!(answer.possible_count(), 0);
        assert_eq!(blind.meter().rejected, 0);
        assert_eq!(blind.meter().queries, 0);

        let both = MediatorNetwork::new(f.global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting(&blind, f.cars_stats.clone())
            .add_supporting(&f.cars, f.cars_stats.clone())
            .add_deficient(&f.yahoo);
        let answer = both.answer(&q).unwrap();
        let yahoo_part = &answer.per_source[2];
        assert_eq!(yahoo_part.via_correlated.as_deref(), Some("cars.com"));
        assert!(yahoo_part.outcome.is_healthy(), "{:?}", yahoo_part.outcome);
        assert!(!yahoo_part.possible.is_empty());
        assert_eq!(blind.meter().rejected, 0);
        assert!(both.explain(&q).contains("correlated source `cars.com`"));
    }

    #[test]
    fn healthy_network_reports_healthy_outcomes() {
        let f = fixture();
        let network = MediatorNetwork::new(f.global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting(&f.cars, f.cars_stats.clone())
            .add_deficient(&f.yahoo);
        let body = f.global.expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let answer = network.answer(&q).unwrap();
        assert!(answer.fully_healthy());
        assert!(answer.failed_sources().is_empty());
        assert_eq!(answer.degraded_count(), 0);
    }

    #[test]
    #[should_panic(expected = "lacks global attribute")]
    fn add_supporting_rejects_partial_schemas() {
        let f = fixture();
        let _ = MediatorNetwork::new(f.global.clone(), QpiadConfig::default())
            .add_supporting(&f.yahoo, f.cars_stats.clone());
    }

    fn scratch_store(name: &str) -> KnowledgeStore {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-knowledge-store")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        KnowledgeStore::open(dir).unwrap()
    }

    #[test]
    fn corrupt_snapshot_degrades_member_to_certain_answers_only() {
        let f = fixture();
        let store = scratch_store("network-corrupt");
        std::fs::write(store.path_for("cars.com"), "not a snapshot at all").unwrap();

        let network = MediatorNetwork::new(f.global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting_from_store(&f.cars, &store);
        let failures = network.knowledge_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "cars.com");
        assert_eq!(failures[0].1.kind(), "corrupt");

        let body = f.global.expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        f.cars.reset_meter();
        let answer = network.answer(&q).unwrap();
        let part = &answer.per_source[0];
        // Certain answers survive; with no statistics there is nothing to
        // rewrite with, so no possible answers — and the loss is charged.
        assert!(!part.certain.is_empty());
        assert!(part.possible.is_empty());
        match &part.outcome {
            SourceOutcome::Degraded(d) => {
                assert_eq!(d.knowledge_unavailable, 1);
                assert!(d.is_degraded());
            }
            other => panic!("expected degraded outcome, got {other:?}"),
        }
        assert_eq!(f.cars.meter().knowledge_unavailable, 1);
    }

    #[test]
    fn refresh_member_heals_a_knowledge_unavailable_member() {
        let f = fixture();
        let store = scratch_store("network-heal");
        std::fs::write(store.path_for("cars.com"), "QPIAD-KNOWLEDGE v1 truncated").unwrap();

        let network = MediatorNetwork::new(f.global.clone(), QpiadConfig::default().with_k(8))
            .add_supporting_from_store(&f.cars, &store);
        assert_eq!(network.knowledge_failures().len(), 1);

        let config = MiningConfig::default();
        network
            .refresh_member(
                "cars.com",
                |_| Ok(f.cars_stats.clone()),
                Some((&store, &config)),
            )
            .unwrap();
        assert!(network.knowledge_failures().is_empty());
        // The refreshed knowledge was persisted and loads cleanly now.
        assert!(store.load_for("cars.com", f.cars.schema()).is_ok());

        let body = f.global.expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let answer = network.answer(&q).unwrap();
        let part = &answer.per_source[0];
        assert!(!part.certain.is_empty());
        assert!(!part.possible.is_empty());
        assert!(part.outcome.is_healthy());
    }

    #[test]
    fn refresh_member_requires_a_registered_member() {
        let f = fixture();
        let network = MediatorNetwork::new(f.global.clone(), QpiadConfig::default())
            .add_supporting(&f.cars, f.cars_stats.clone());
        let err = network.refresh_member("nope.example", |_| Ok(f.cars_stats.clone()), None);
        assert!(err.is_err());
        // A failing mine keeps the old knowledge in place.
        let err = network.refresh_member(
            "cars.com",
            |_| Err(SourceError::Timeout { waited_ms: 10 }),
            None,
        );
        assert!(err.is_err());
        let body = f.global.expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let answer = network.answer(&q).unwrap();
        assert!(!answer.per_source[0].possible.is_empty());
    }
}
