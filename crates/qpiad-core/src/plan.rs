//! The plan/execute split: an explicit mediation-plan IR, the one shared
//! executor every answer path runs on, and a knowledge-versioned plan
//! cache.
//!
//! QPIAD's §5.3 cost model treats rewriting as a *plan* — a ranked list of
//! rewritten queries, each carrying its expected F-measure mass — that is
//! then *executed* against the source. This module makes that split
//! explicit:
//!
//! * [`MediationPlan`] is the IR: the base query plus the rank-ordered
//!   rewrite list, each entry carrying its issuable query, F-measure mass,
//!   and admission verdict ([`EntryStatus`]) — an admitted entry holds the
//!   clamped [`RetryPolicy`] the budget funded, a skipped entry holds its
//!   [`SkipReason`].
//! * [`execute`] is the single retrieval loop. It runs any plan either
//!   sequentially or fanned out over the [`par`] worker pool, always
//!   absorbing results in rank order, so the answer is byte-identical at
//!   any thread count. Every entry-point module (mediator, network,
//!   correlated, join, aggregate) routes its retrievals through this one
//!   function; none of them fan out on their own.
//! * [`PlanCache`] memoizes the expensive planning half (rewrite
//!   generation + classifier-backed ranking) keyed by query template and
//!   per-source *knowledge version* (see
//!   [`qpiad_db::version::KnowledgeVersionClock`]); a re-mine or a drift
//!   demotion bumps the version and silently orphans every stale plan.
//! * [`MediationPlan::render`] is the EXPLAIN half: a human-readable dump
//!   of the admitted plan — rank, F-measure, precision, policy, hedge,
//!   skip reason — produced without issuing a single source query.
//!
//! ## Admission disciplines
//!
//! Two disciplines coexist, chosen per plan via [`AdmissionMode`]:
//!
//! * **Plan-time** ([`AdmissionMode::PlanTime`]): every entry consults the
//!   breaker probe and the budget up front, in rank order, before any
//!   fan-out ([`MediationPlan::admit`]). The admitted plan — and therefore
//!   the answer — is identical whether execution then runs sequentially or
//!   concurrently. This is the mediator's discipline.
//! * **Interleaved** ([`AdmissionMode::Interleaved`]): entries stay
//!   [`EntryStatus::Deferred`] and the executor re-checks probe and budget
//!   as its strictly sequential loop reaches each entry, so a breaker that
//!   trips mid-plan skips the tail. This is the correlated-source
//!   discipline, where admission feedback from earlier queries must gate
//!   later ones.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use qpiad_db::fault::{query_fingerprint, RetryPolicy};
use qpiad_db::health::PressureLevel;
use qpiad_db::validate::query_validated;
use qpiad_db::{par, AutonomousSource, Schema, SelectQuery, SourceError, Tuple, ValidationReport};
use qpiad_learn::knowledge::SourceStats;

use crate::mediator::{Degradation, QueryContext};
use crate::rank::ScoredRewrite;
use crate::rewrite::RewrittenQuery;

/// Why a plan entry (or the base query) was not issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The source's circuit breaker did not admit the query.
    BreakerOpen,
    /// The caller's query budget could not fund a single attempt.
    BudgetExhausted,
    /// The rewritten query constrains an attribute the source's web form
    /// does not expose.
    Unsupported,
    /// The rewritten query could not be translated into the target
    /// source's local schema (correlated-source plans only).
    Untranslatable,
    /// The overload degradation ladder clamped the plan: the pass ran
    /// under a non-`Normal` [`PressureLevel`] whose rewrite fraction this
    /// entry's rank exceeded. Shed mass is charged to
    /// [`Degradation::overload_sheds`].
    Overload,
}

impl SkipReason {
    /// Short human-readable label for EXPLAIN output.
    pub fn label(&self) -> &'static str {
        match self {
            SkipReason::BreakerOpen => "breaker open",
            SkipReason::BudgetExhausted => "budget exhausted",
            SkipReason::Unsupported => "attribute unsupported by source",
            SkipReason::Untranslatable => "untranslatable to local schema",
            SkipReason::Overload => "shed by overload ladder",
        }
    }
}

/// The rank-order prefix of an `n`-entry plan the given pressure rung
/// still admits: `ceil(n · rewrite_fraction)`. Monotone nonincreasing in
/// pressure, so the answer lattice shrinks as load rises and never grows.
fn pressure_cap(total: usize, pressure: PressureLevel) -> usize {
    let fraction = pressure.rewrite_fraction();
    if fraction >= 1.0 {
        total
    } else {
        (total as f64 * fraction).ceil() as usize
    }
}

/// A plan entry's admission verdict.
#[derive(Debug, Clone)]
pub enum EntryStatus {
    /// Admitted at plan time; the budget clamped the retry schedule to
    /// this policy.
    Admitted(RetryPolicy),
    /// Admission deferred to execution time (interleaved discipline): the
    /// executor consults probe and budget when its sequential loop reaches
    /// this entry.
    Deferred,
    /// Skipped; never issued.
    Skipped(SkipReason),
}

/// One rewritten query in a mediation plan.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// The rewrite in the planning schema (carries precision, estimated
    /// selectivity, and the explaining AFD).
    pub rewrite: RewrittenQuery,
    /// The query actually issued to the executing source — equal to
    /// `rewrite.query` except in correlated plans, where it is the
    /// translation into the target's local schema.
    pub issue: SelectQuery,
    /// The entry's F-measure mass over the selected plan (what a degraded
    /// answer reports losing if this entry is dropped).
    pub fmeasure: f64,
    /// The admission verdict.
    pub status: EntryStatus,
}

/// Which admission discipline governs a plan (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Whole plan admitted up front; eligible for concurrent execution.
    PlanTime,
    /// Admission re-checked per entry during strictly sequential execution.
    Interleaved,
}

/// How the plan's candidate list was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// No plan cache attached.
    Bypassed,
    /// Candidates served from the plan cache.
    Hit,
    /// Candidates planned from scratch and inserted into the cache.
    Miss,
    /// Speculative (EXPLAIN) planning: the cache is deliberately not
    /// consulted or populated, because the base result set is approximated
    /// from the mined sample rather than retrieved.
    Speculative,
}

impl CacheStatus {
    fn label(&self) -> &'static str {
        match self {
            CacheStatus::Bypassed => "bypassed (no cache attached)",
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss (planned from scratch, now cached)",
            CacheStatus::Speculative => "bypassed (speculative plan)",
        }
    }
}

/// The explicit mediation-plan IR: the base query plus the admitted,
/// rank-ordered rewrite list. Produced by the planning half of every
/// answer path and consumed by [`execute`] (or rendered by
/// [`MediationPlan::render`] without executing).
#[derive(Debug, Clone)]
pub struct MediationPlan {
    /// Name of the source this plan executes against.
    pub source: String,
    /// The base (certain-answer) query.
    pub base: SelectQuery,
    /// The base query's admission verdict. `Deferred` when the plan was
    /// built after the base already ran (the ordinary answer path).
    pub base_status: EntryStatus,
    /// The unclamped retry policy entries are admitted under.
    pub retry: RetryPolicy,
    /// The admission discipline.
    pub mode: AdmissionMode,
    /// The rank-ordered rewrite entries.
    pub entries: Vec<PlanEntry>,
    /// How the candidate list was obtained.
    pub cache: CacheStatus,
    /// The knowledge version the plan was built against (when a plan cache
    /// is attached; part of the cache key).
    pub knowledge_version: Option<u64>,
    /// Name of the hedge partner that shadows slow or recovering queries
    /// against this source, if the network assigned one.
    pub hedge: Option<String>,
}

impl MediationPlan {
    /// An empty plan for `source` with the given base query and policy.
    pub fn new(
        source: impl Into<String>,
        base: SelectQuery,
        retry: RetryPolicy,
        mode: AdmissionMode,
    ) -> Self {
        MediationPlan {
            source: source.into(),
            base,
            base_status: EntryStatus::Deferred,
            retry,
            mode,
            entries: Vec::new(),
            cache: CacheStatus::Bypassed,
            knowledge_version: None,
            hedge: None,
        }
    }

    /// Appends a rank-ordered entry.
    pub fn push(&mut self, entry: PlanEntry) {
        self.entries.push(entry);
    }

    /// Plan-time admission, in rank order: each [`EntryStatus::Deferred`]
    /// entry consults the overload ladder first (a shed query must charge
    /// neither probe nor budget), then the breaker probe (a skipped query
    /// must not charge the budget), then the budget, which clamps the
    /// retry policy so the whole admitted plan fits the deadline. Skips
    /// charge their F-measure mass to `degraded`.
    ///
    /// The ladder clamp is a *rank-order prefix*: under pressure only the
    /// top `ceil(n · fraction)` entries may be admitted, which is what
    /// keeps the answer lattice monotone as pressure rises — a higher rung
    /// admits a prefix of what a lower rung admits.
    pub fn admit(&mut self, ctx: &mut QueryContext, degraded: &mut Degradation) {
        let cap = pressure_cap(self.entries.len(), ctx.pressure);
        let mut admitted = self
            .entries
            .iter()
            .filter(|e| matches!(e.status, EntryStatus::Admitted(_)))
            .count();
        for entry in &mut self.entries {
            if !matches!(entry.status, EntryStatus::Deferred) {
                continue;
            }
            if admitted >= cap {
                degraded.record_overload_shed(entry.fmeasure);
                entry.status = EntryStatus::Skipped(SkipReason::Overload);
                continue;
            }
            if !ctx.probe.admits() {
                degraded.record_breaker_skip(entry.fmeasure);
                entry.status = EntryStatus::Skipped(SkipReason::BreakerOpen);
                continue;
            }
            match ctx
                .budget
                .admit(&self.retry, query_fingerprint(&entry.issue))
            {
                Some(policy) => {
                    ctx.probe.note_issued();
                    admitted += 1;
                    entry.status = EntryStatus::Admitted(policy);
                }
                None => {
                    degraded.record_budget_skip(entry.fmeasure);
                    entry.status = EntryStatus::Skipped(SkipReason::BudgetExhausted);
                }
            }
        }
    }

    /// Marks every not-yet-skipped entry skipped for `reason` (used when
    /// the base query itself is not admitted: nothing downstream runs).
    pub fn skip_all(&mut self, reason: SkipReason) {
        for entry in &mut self.entries {
            if !matches!(entry.status, EntryStatus::Skipped(_)) {
                entry.status = EntryStatus::Skipped(reason);
            }
        }
    }

    /// Number of admitted entries.
    pub fn admitted_len(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.status, EntryStatus::Admitted(_)))
            .count()
    }

    /// Renders the plan for human inspection (EXPLAIN): one line per
    /// rewrite in rank order with its verdict, F-measure mass, precision,
    /// clamped policy or skip reason, and explaining AFD. Issues no
    /// queries — rendering a plan is free.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan for source `{}` — query {}",
            self.source,
            self.base.display(schema)
        );
        let mode = match self.mode {
            AdmissionMode::PlanTime => "plan-time",
            AdmissionMode::Interleaved => "interleaved (re-checked per query)",
        };
        let _ = write!(
            out,
            "  admission: {mode}; plan cache: {}",
            self.cache.label()
        );
        if let Some(v) = self.knowledge_version {
            let _ = write!(out, "; knowledge version {v}");
        }
        let _ = writeln!(out);
        if let Some(partner) = &self.hedge {
            let _ = writeln!(out, "  hedge partner: {partner}");
        }
        let _ = writeln!(
            out,
            "  base: {} — certain answers{}",
            self.base.display(schema),
            match &self.base_status {
                EntryStatus::Admitted(p) => format!(", {}", policy_label(p)),
                EntryStatus::Deferred => String::new(),
                EntryStatus::Skipped(r) => format!(" — SKIP: {}", r.label()),
            }
        );
        if self.entries.is_empty() {
            let _ = writeln!(out, "  rewrites: none");
            return out;
        }
        let _ = writeln!(out, "  rewrites (rank order):");
        for (rank, e) in self.entries.iter().enumerate() {
            let verdict = match &e.status {
                EntryStatus::Admitted(_) => "ADMIT",
                EntryStatus::Deferred => "DEFER",
                EntryStatus::Skipped(_) => "SKIP ",
            };
            let _ = write!(
                out,
                "    {:>3}. {verdict}  F={:.3} P={:.3}  {}",
                rank + 1,
                e.fmeasure,
                e.rewrite.precision,
                e.rewrite.query.display(schema)
            );
            match &e.status {
                EntryStatus::Admitted(p) => {
                    let _ = write!(out, "  [{}]", policy_label(p));
                }
                EntryStatus::Deferred => {}
                EntryStatus::Skipped(r) => {
                    let _ = write!(out, "  — {}", r.label());
                }
            }
            if let Some(afd) = &e.rewrite.afd {
                let _ = write!(out, "  via {}", afd.display(schema));
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn policy_label(p: &RetryPolicy) -> String {
    if p.max_attempts <= 1 {
        "single attempt".to_string()
    } else {
        format!("up to {} attempts", p.max_attempts)
    }
}

/// Whether the base query and the rewrites would be admitted or skipped.
/// Gate selection for [`execute_base`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseGate {
    /// Breaker-gated and budget-funded, with full probe bookkeeping — the
    /// mediator's and the network's discipline.
    Guarded,
    /// Budget-funded only; the probe belongs to a different source (the
    /// correlated path queries the *correlated* source for its base while
    /// the probe guards the *target*).
    BudgetOnly,
}

/// Executes a plan's base query: admission, validated retrieval, and
/// probe/quarantine bookkeeping. Returns the kept (certain) tuples, or the
/// admission/source error — a failed base is fatal to the pass, unlike a
/// failed rewrite.
pub fn execute_base(
    source: &dyn AutonomousSource,
    query: &SelectQuery,
    retry: &RetryPolicy,
    ctx: &mut QueryContext,
    degraded: &mut Degradation,
    gate: BaseGate,
) -> Result<Vec<Tuple>, SourceError> {
    match gate {
        BaseGate::Guarded => {
            if !ctx.probe.admits() {
                return Err(SourceError::CircuitOpen);
            }
            let Some(policy) = ctx.budget.admit(retry, query_fingerprint(query)) else {
                return Err(SourceError::BudgetExhausted);
            };
            ctx.probe.note_issued();
            match query_validated(source, query, &policy) {
                Ok(report) => {
                    settle(ctx, degraded, &report);
                    Ok(report.kept)
                }
                Err(e) => {
                    if e.is_failure() {
                        ctx.probe.record_failure();
                    }
                    Err(e)
                }
            }
        }
        BaseGate::BudgetOnly => {
            let Some(policy) = ctx.budget.admit(retry, query_fingerprint(query)) else {
                return Err(SourceError::BudgetExhausted);
            };
            let report = query_validated(source, query, &policy)?;
            degraded.quarantined += report.quarantined_count();
            Ok(report.kept)
        }
    }
}

/// Probe and quarantine bookkeeping for one validated response.
fn settle(ctx: &mut QueryContext, degraded: &mut Degradation, report: &ValidationReport) {
    if report.is_clean() {
        ctx.probe.record_success();
    } else {
        degraded.quarantined += report.quarantined_count();
        ctx.probe.record_failure();
    }
}

/// The one shared retrieval loop: executes a plan's rewrite entries
/// against `source` and hands each validated result to `absorb` in rank
/// order.
///
/// Against a budget-free source, a fully plan-time-admitted plan
/// prefetches its retrievals over the [`par`] worker pool — the *only*
/// place in the codebase that does — and then feeds them through the same
/// sequential absorb loop in rank order, which makes the answer
/// byte-identical to a single-threaded run. Budgeted sources, and plans
/// with [`EntryStatus::Deferred`] entries (interleaved admission), issue
/// each query inside that loop, because which queries are admitted
/// depends on issue order; so does a one-worker pool, where queries and
/// absorbs interleave.
///
/// Error discipline, in the one absorb loop:
///
/// * a clean response records a probe success; a quarantined one counts
///   its dropped tuples and records a probe failure (repeated drift
///   eventually opens the breaker);
/// * `QueryLimitExceeded` ends retrieval — the source's own budget ran
///   out mid-plan — and the F-measure mass of every entry that would
///   still have run (the truncating entry and the un-issued tail) is
///   charged to `degraded`, so the answer reports what the cutoff cost;
/// * any other error drops just that entry: a probe failure if it was a
///   real source failure, plus the entry's mass in `degraded`.
///
/// `absorb` receives the entry's rank index, the entry, the validated
/// tuples, and the live context (for per-response drift observation).
///
/// The tuples flowing through fan-in, dedup-against-base, and rank merge
/// are shared-slice handles (`Tuple` wraps `Arc<[Value]>`): retrieval
/// resolves row ids against the source's columnar store once, and every
/// subsequent move or clone up to the answer boundary is a reference-count
/// bump, never a per-value copy.
pub fn execute<F>(
    source: &dyn AutonomousSource,
    plan: &MediationPlan,
    ctx: &mut QueryContext,
    degraded: &mut Degradation,
    mut absorb: F,
) where
    F: FnMut(usize, &PlanEntry, Vec<Tuple>, &mut QueryContext),
{
    let admitted: Vec<(usize, &PlanEntry, &RetryPolicy)> = plan
        .entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match &e.status {
            EntryStatus::Admitted(p) => Some((i, e, p)),
            _ => None,
        })
        .collect();
    let has_deferred = plan
        .entries
        .iter()
        .any(|e| matches!(e.status, EntryStatus::Deferred));

    let concurrent =
        !has_deferred && !source.has_query_budget() && admitted.len() > 1 && par::num_threads() > 1;

    // Fan the admitted retrievals out (each worker retries its own query
    // under its clamped policy); the loop below absorbs them in rank
    // order. Probe outcomes are recorded there, so the observation log is
    // identical to a sequential run.
    let mut prefetched: Vec<Option<Result<ValidationReport, SourceError>>> = Vec::new();
    if concurrent {
        prefetched.resize_with(plan.entries.len(), || None);
        let results = par::parallel_map(&admitted, |(_, entry, policy)| {
            query_validated(source, &entry.issue, policy)
        });
        for ((rank, ..), result) in admitted.iter().zip(results) {
            prefetched[*rank] = Some(result);
        }
    }

    // Interleaved admission honors the same overload clamp as plan-time
    // admission: entries beyond the rung's rank-order prefix are shed, not
    // issued. Plan-time-admitted entries were already clamped in `admit`.
    let overload_cap = pressure_cap(plan.entries.len(), ctx.pressure);
    let mut issued = admitted.len();
    for rank in 0..plan.entries.len() {
        let entry = &plan.entries[rank];
        let policy = match &entry.status {
            EntryStatus::Skipped(_) => continue, // charged at admission
            EntryStatus::Admitted(p) => *p,
            EntryStatus::Deferred => {
                // Interleaved admission: the overload ladder first (a shed
                // query charges neither probe nor budget), then the probe
                // (a skipped query must not charge the budget), then the
                // budget.
                if issued >= overload_cap {
                    degraded.record_overload_shed(entry.fmeasure);
                    continue;
                }
                if !ctx.probe.admits() {
                    degraded.record_breaker_skip(entry.fmeasure);
                    continue;
                }
                match ctx
                    .budget
                    .admit(&plan.retry, query_fingerprint(&entry.issue))
                {
                    Some(p) => {
                        ctx.probe.note_issued();
                        issued += 1;
                        p
                    }
                    None => {
                        degraded.record_budget_skip(entry.fmeasure);
                        continue;
                    }
                }
            }
        };
        let result = match prefetched.get_mut(rank).and_then(Option::take) {
            Some(result) => result,
            None => query_validated(source, &entry.issue, &policy),
        };
        match result {
            Ok(report) => {
                settle(ctx, degraded, &report);
                absorb(rank, entry, report.kept, ctx);
            }
            Err(e @ SourceError::QueryLimitExceeded { .. }) => {
                // The source's own query budget ran out mid-plan: charge
                // the truncating entry and every entry that would still
                // have run, so the degraded answer reports the lost mass.
                for tail in &plan.entries[rank..] {
                    if !matches!(tail.status, EntryStatus::Skipped(_)) {
                        degraded.record(tail.fmeasure, e.clone());
                    }
                }
                break;
            }
            Err(e) => {
                if e.is_failure() {
                    ctx.probe.record_failure();
                }
                degraded.record(entry.fmeasure, e);
            }
        }
    }
}

/// One cached planning candidate: the scored rewrite plus whether the
/// source can answer it. Unsupported candidates are kept (they render as
/// skipped entries in EXPLAIN) but never issued, and the supported
/// candidates' masses are normalized over the supported subset only.
#[derive(Debug, Clone)]
pub struct PlanCandidate {
    /// The selected, scored rewrite.
    pub scored: ScoredRewrite,
    /// Whether every constrained attribute is queryable at the source.
    pub supported: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    source: String,
    template: SelectQuery,
    version: u64,
    /// `alpha` as raw bits: the ranking parameters are part of the
    /// template identity.
    alpha_bits: u64,
    k: usize,
}

/// A shared cache of planning candidates, keyed by (source, query
/// template, knowledge version, ranking parameters).
///
/// The cached artifact is the *candidate list* — the output of rewrite
/// generation, classifier-backed scoring, top-K selection, and the
/// supported-attribute filter — which is the expensive, knowledge-derived
/// half of planning. Admission (breaker, budget) is pass-local and always
/// re-runs, so a cached plan still honors the current availability state.
///
/// Stale plans cannot be served: the knowledge version in the key is
/// bumped by re-mining (`MediatorNetwork::refresh_member`) and by drift
/// demotion (a fired `DriftVerdict`), which orphans every entry built
/// from the replaced knowledge. Hits and misses are metered per source
/// ([`qpiad_db::SourceMeter::plan_cache_hits`] /
/// [`qpiad_db::SourceMeter::plan_cache_misses`]).
///
/// # Concurrency
///
/// The map is split into [`PLAN_CACHE_SHARDS`] shards selected by key
/// hash, each behind its own `parking_lot::Mutex`: concurrent lookups for
/// different templates proceed without contending, and a panicking caller
/// can never poison the cache for everyone else (`parking_lot` mutexes do
/// not poison). Two threads racing to fill the same cold key both compute
/// the candidates; last insert wins, and both handles are valid — the
/// lists are deterministic functions of the key.
#[derive(Debug)]
pub struct PlanCache {
    shards: [Mutex<HashMap<PlanKey, Arc<Vec<PlanCandidate>>>>; PLAN_CACHE_SHARDS],
}

/// Shard count for [`PlanCache`]; a power of two so shard selection is a
/// mask of the key hash.
pub const PLAN_CACHE_SHARDS: usize = 16;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    fn shard(&self, key: &PlanKey) -> &Mutex<HashMap<PlanKey, Arc<Vec<PlanCandidate>>>> {
        let mut hasher = qpiad_db::FxHasher::default();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (PLAN_CACHE_SHARDS - 1)]
    }

    /// The cached candidate list for the key, if present.
    pub fn lookup(
        &self,
        source: &str,
        template: &SelectQuery,
        version: u64,
        alpha: f64,
        k: usize,
    ) -> Option<Arc<Vec<PlanCandidate>>> {
        let key = PlanKey {
            source: source.to_string(),
            template: template.clone(),
            version,
            alpha_bits: alpha.to_bits(),
            k,
        };
        self.shard(&key).lock().get(&key).cloned()
    }

    /// Inserts a candidate list and returns the shared handle.
    pub fn insert(
        &self,
        source: &str,
        template: &SelectQuery,
        version: u64,
        alpha: f64,
        k: usize,
        candidates: Vec<PlanCandidate>,
    ) -> Arc<Vec<PlanCandidate>> {
        let key = PlanKey {
            source: source.to_string(),
            template: template.clone(),
            version,
            alpha_bits: alpha.to_bits(),
            k,
        };
        let arc = Arc::new(candidates);
        self.shard(&key).lock().insert(key, Arc::clone(&arc));
        arc
    }

    /// Number of cached candidate lists.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// `true` iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The mined-sample tuples certainly matching `query` — the planner's
/// zero-query stand-in for a base result set (speculative EXPLAIN plans
/// and correlated-source routing). Served through the estimator's
/// posting-list index; the returned tuples are shared-slice handles, so
/// this materializes nothing beyond the `Vec` itself.
pub(crate) fn stats_sample_matches(stats: &SourceStats, query: &SelectQuery) -> Vec<Tuple> {
    stats.selectivity().sample_matches(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrId, AttrType, Predicate};

    fn query() -> SelectQuery {
        SelectQuery::new(vec![Predicate::eq(AttrId(0), "Convt")])
    }

    fn entry(tag: i64, fmeasure: f64, status: EntryStatus) -> PlanEntry {
        let q = SelectQuery::new(vec![Predicate::eq(AttrId(1), tag)]);
        PlanEntry {
            rewrite: RewrittenQuery {
                query: q.clone(),
                target_attr: AttrId(0),
                precision: fmeasure,
                est_selectivity: 1.0,
                afd: None,
            },
            issue: q,
            fmeasure,
            status,
        }
    }

    #[test]
    fn plan_time_admission_consumes_probe_and_budget_in_rank_order() {
        use qpiad_db::QueryBudget;
        let mut plan = MediationPlan::new(
            "cars.com",
            query(),
            RetryPolicy::none(),
            AdmissionMode::PlanTime,
        );
        plan.push(entry(1, 0.9, EntryStatus::Deferred));
        plan.push(entry(2, 0.7, EntryStatus::Deferred));
        plan.push(entry(3, 0.5, EntryStatus::Deferred));
        // Budget funds exactly two single-attempt queries.
        let mut ctx =
            QueryContext::unbounded().with_budget(QueryBudget::unlimited().with_max_attempts(2));
        let mut degraded = Degradation::default();
        plan.admit(&mut ctx, &mut degraded);
        assert_eq!(plan.admitted_len(), 2);
        assert!(matches!(plan.entries[0].status, EntryStatus::Admitted(_)));
        assert!(matches!(plan.entries[1].status, EntryStatus::Admitted(_)));
        assert!(matches!(
            plan.entries[2].status,
            EntryStatus::Skipped(SkipReason::BudgetExhausted)
        ));
        assert_eq!(degraded.budget_skips, 1);
        assert!((degraded.dropped_fmeasure - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overload_ladder_clamps_admission_to_a_rank_prefix() {
        let build = || {
            let mut plan = MediationPlan::new(
                "cars.com",
                query(),
                RetryPolicy::none(),
                AdmissionMode::PlanTime,
            );
            for (i, f) in [0.9, 0.7, 0.5, 0.3].iter().enumerate() {
                plan.push(entry(i as i64, *f, EntryStatus::Deferred));
            }
            plan
        };
        let admit_at = |pressure: PressureLevel| {
            let mut plan = build();
            let mut ctx = QueryContext::unbounded().with_pressure(pressure);
            let mut degraded = Degradation::default();
            plan.admit(&mut ctx, &mut degraded);
            (plan, degraded)
        };

        let (normal, d) = admit_at(PressureLevel::Normal);
        assert_eq!(normal.admitted_len(), 4);
        assert_eq!(d.overload_sheds, 0);

        // Elevated: top half (ceil(4·0.5) = 2), the rest shed and charged.
        let (elevated, d) = admit_at(PressureLevel::Elevated);
        assert_eq!(elevated.admitted_len(), 2);
        assert!(matches!(
            elevated.entries[0].status,
            EntryStatus::Admitted(_)
        ));
        assert!(matches!(
            elevated.entries[2].status,
            EntryStatus::Skipped(SkipReason::Overload)
        ));
        assert_eq!(d.overload_sheds, 2);
        assert!((d.dropped_fmeasure - 0.8).abs() < 1e-12);
        assert!(d.is_degraded());

        // High: top quarter (ceil(4·0.25) = 1).
        let (high, d) = admit_at(PressureLevel::High);
        assert_eq!(high.admitted_len(), 1);
        assert_eq!(d.overload_sheds, 3);

        // Critical: certain answers only — every rewrite shed.
        let (critical, d) = admit_at(PressureLevel::Critical);
        assert_eq!(critical.admitted_len(), 0);
        assert_eq!(d.overload_sheds, 4);
        assert!((d.dropped_fmeasure - 2.4).abs() < 1e-12);
    }

    #[test]
    fn overload_skips_render_in_explain_output() {
        let schema = Schema::of(
            "cars",
            &[
                ("body", AttrType::Categorical),
                ("model", AttrType::Categorical),
            ],
        );
        let mut plan = MediationPlan::new(
            "cars.com",
            SelectQuery::new(vec![Predicate::eq(schema.expect_attr("body"), "Convt")]),
            RetryPolicy::default(),
            AdmissionMode::PlanTime,
        );
        plan.push(entry(1, 0.9, EntryStatus::Deferred));
        plan.push(entry(2, 0.7, EntryStatus::Deferred));
        let mut ctx = QueryContext::unbounded().with_pressure(PressureLevel::High);
        let mut degraded = Degradation::default();
        plan.admit(&mut ctx, &mut degraded);
        let text = plan.render(&schema);
        assert!(text.contains("shed by overload ladder"), "{text}");
    }

    #[test]
    fn render_lists_every_entry_with_verdict_and_mass() {
        let schema = Schema::of(
            "cars",
            &[
                ("body", AttrType::Categorical),
                ("model", AttrType::Categorical),
            ],
        );
        let mut plan = MediationPlan::new(
            "cars.com",
            SelectQuery::new(vec![Predicate::eq(schema.expect_attr("body"), "Convt")]),
            RetryPolicy::default(),
            AdmissionMode::PlanTime,
        );
        plan.push(entry(1, 0.9, EntryStatus::Admitted(RetryPolicy::default())));
        plan.push(entry(2, 0.7, EntryStatus::Skipped(SkipReason::BreakerOpen)));
        plan.hedge = Some("yahoo_autos".to_string());
        let text = plan.render(&schema);
        assert!(text.contains("plan for source `cars.com`"), "{text}");
        assert!(text.contains("ADMIT"), "{text}");
        assert!(text.contains("SKIP"), "{text}");
        assert!(text.contains("F=0.900"), "{text}");
        assert!(text.contains("breaker open"), "{text}");
        assert!(text.contains("hedge partner: yahoo_autos"), "{text}");
    }

    #[test]
    fn plan_cache_distinguishes_versions_and_parameters() {
        let cache = PlanCache::new();
        let q = query();
        assert!(cache.lookup("s", &q, 0, 0.0, 10).is_none());
        cache.insert("s", &q, 0, 0.0, 10, Vec::new());
        assert!(cache.lookup("s", &q, 0, 0.0, 10).is_some());
        // A version bump orphans the entry without explicit eviction.
        assert!(cache.lookup("s", &q, 1, 0.0, 10).is_none());
        // Ranking parameters are part of the template identity.
        assert!(cache.lookup("s", &q, 0, 1.0, 10).is_none());
        assert!(cache.lookup("s", &q, 0, 0.0, 5).is_none());
        // So is the source name.
        assert!(cache.lookup("t", &q, 0, 0.0, 10).is_none());
        assert_eq!(cache.len(), 1);
    }
}
