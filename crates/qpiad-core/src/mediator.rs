//! The end-to-end QPIAD mediator for selection queries (§4.2).

use qpiad_db::hash::FastHashSet;
use std::sync::Arc;

use qpiad_db::fault::{query_fingerprint, RetryPolicy};
use qpiad_db::health::{BreakerProbe, PressureLevel, QueryBudget};
use qpiad_db::{AutonomousSource, SelectQuery, SourceError, Tuple, TupleId, Value};
use qpiad_learn::afd::Afd;
use qpiad_learn::cache::PredictionCache;
use qpiad_learn::drift::DriftProbe;
use qpiad_learn::knowledge::SourceStats;

use crate::plan::{
    self, AdmissionMode, BaseGate, CacheStatus, EntryStatus, MediationPlan, PlanCache,
    PlanCandidate, PlanEntry, SkipReason,
};
use crate::rank::{order_rewrites, rescore, RankConfig};
use crate::rewrite::{generate_rewrites, RewrittenQuery};

/// Mediator configuration.
#[derive(Debug, Clone, Copy)]
pub struct QpiadConfig {
    /// F-measure α for rewritten-query ordering.
    pub alpha: f64,
    /// Maximum number of rewritten queries to issue per user query.
    pub k: usize,
    /// Possible answers below this confidence are suppressed (Figure 9's
    /// user-side filter); 0 disables filtering.
    pub confidence_threshold: f64,
    /// How transient source failures are retried at the query-issue
    /// boundary (autonomous sources are flaky; §4.1's access constraints
    /// mean the mediator cannot do better than retry and degrade).
    pub retry: RetryPolicy,
}

impl Default for QpiadConfig {
    fn default() -> Self {
        QpiadConfig {
            alpha: 0.0,
            k: 10,
            confidence_threshold: 0.0,
            retry: RetryPolicy::default(),
        }
    }
}

impl QpiadConfig {
    /// Overrides α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Overrides the query budget K.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Overrides the confidence threshold.
    pub fn with_confidence_threshold(mut self, t: f64) -> Self {
        self.confidence_threshold = t;
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// A possible answer with its relevance assessment.
#[derive(Debug, Clone)]
pub struct RankedAnswer {
    /// The retrieved incomplete tuple.
    pub tuple: Tuple,
    /// The answer's assessed degree of relevance: the probability that its
    /// missing constrained value(s) satisfy the query.
    pub confidence: f64,
    /// The expected precision of the rewritten query that retrieved the
    /// tuple — all tuples of one query share this rank (§4.2 step 2d).
    pub query_precision: f64,
    /// Index of the retrieving query in [`AnswerSet::issued`].
    pub query_index: usize,
    /// The AFD justifying the assessment (§6.1's explanation).
    pub explanation: Option<Afd>,
}

/// What a retrieval pass lost to source failures: rewritten queries that
/// still failed after retries are *skipped*, not fatal, and their planned
/// contribution is accounted for here so a degraded answer quantifies what
/// it is missing. The availability layer adds its own loss accounting:
/// rewrites skipped by an open circuit breaker or an exhausted
/// [`QueryBudget`] also charge their F-measure mass here, quarantined
/// response tuples are counted, and answers served from stale (snapshot)
/// statistics are flagged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Degradation {
    /// Rewritten queries dropped after exhausting retries.
    pub dropped_rewrites: usize,
    /// The F-measure mass of all lost queries (dropped, breaker-skipped,
    /// or budget-skipped), scored like [`crate::rank::order_rewrites`]
    /// against the issued plan's cumulative throughput.
    pub dropped_fmeasure: f64,
    /// Rewritten queries skipped up front because the source's circuit
    /// breaker did not admit them.
    pub breaker_skips: usize,
    /// Rewritten queries skipped because the caller's [`QueryBudget`]
    /// could not fund even a single attempt.
    pub budget_skips: usize,
    /// Rewritten queries shed by the overload degradation ladder: the
    /// pass ran under a non-`Normal`
    /// [`PressureLevel`], which clamped
    /// the admitted plan to its top-ranked fraction. Shed entries charge
    /// their F-measure mass to `dropped_fmeasure` exactly like breaker
    /// skips, so EXPLAIN and metrics state what recall mass overload cost.
    pub overload_sheds: usize,
    /// Returned tuples quarantined by response validation.
    pub quarantined: usize,
    /// `true` iff this answer was produced from snapshot statistics
    /// because the source could not be mined live (its breaker was open or
    /// mining failed).
    pub stale_knowledge: bool,
    /// Mediation passes served certain-answers-only because the source's
    /// persisted knowledge failed to load (missing, corrupt, wrong
    /// version, or wrong schema — see `qpiad_learn::store`). With no
    /// statistics there is nothing to rewrite with, so every such pass
    /// loses its whole possible-answer contribution.
    pub knowledge_unavailable: usize,
    /// `true` iff the source's mined knowledge has drifted past the
    /// configured threshold (see `qpiad_learn::drift`) and awaits
    /// re-mining; the answers' precision weight was demoted accordingly.
    pub drift_demoted: bool,
    /// The last error that caused a drop (diagnostics).
    pub last_error: Option<SourceError>,
}

impl Degradation {
    /// `true` iff any planned retrieval was lost, any response tuple was
    /// quarantined, or the answer rests on stale, unavailable, or drifted
    /// knowledge.
    pub fn is_degraded(&self) -> bool {
        self.dropped_rewrites > 0
            || self.breaker_skips > 0
            || self.budget_skips > 0
            || self.overload_sheds > 0
            || self.quarantined > 0
            || self.stale_knowledge
            || self.knowledge_unavailable > 0
            || self.drift_demoted
    }

    pub(crate) fn record(&mut self, fmeasure: f64, error: SourceError) {
        self.dropped_rewrites += 1;
        self.dropped_fmeasure += fmeasure;
        self.last_error = Some(error);
    }

    pub(crate) fn record_breaker_skip(&mut self, fmeasure: f64) {
        self.breaker_skips += 1;
        self.dropped_fmeasure += fmeasure;
        self.last_error = Some(SourceError::CircuitOpen);
    }

    pub(crate) fn record_budget_skip(&mut self, fmeasure: f64) {
        self.budget_skips += 1;
        self.dropped_fmeasure += fmeasure;
        self.last_error = Some(SourceError::BudgetExhausted);
    }

    pub(crate) fn record_overload_shed(&mut self, fmeasure: f64) {
        self.overload_sheds += 1;
        self.dropped_fmeasure += fmeasure;
    }
}

/// Per-pass availability state threaded through one mediation pass against
/// one source: the caller's [`QueryBudget`] and the source's local
/// [`BreakerProbe`] (built from a sequentially taken snapshot; see
/// [`qpiad_db::health`] for the determinism protocol). The default context
/// is fully transparent — unlimited budget, disabled probe — so
/// [`Qpiad::answer`] behaves exactly as before the availability layer.
#[derive(Debug)]
pub struct QueryContext {
    /// Remaining deadline/attempt budget for this pass.
    pub budget: QueryBudget,
    /// The source's pass-local circuit-breaker probe.
    pub probe: BreakerProbe,
    /// Pass-local drift probe: every *validated* live response observed
    /// during this pass is folded into it, giving the drift detector an
    /// unbiased view of what the source actually returns
    /// (see [`qpiad_learn::drift`]). `None` disables observation.
    pub drift: Option<DriftProbe>,
    /// The overload pressure this pass runs under. A non-`Normal` level
    /// clamps plan admission to the rank-ordered top fraction the rung
    /// allows ([`PressureLevel::rewrite_fraction`]); clamped entries are
    /// charged to [`Degradation::overload_sheds`]. Defaults to `Normal` —
    /// no clamping, mediation exactly as unmanaged.
    pub pressure: PressureLevel,
}

impl QueryContext {
    /// Unlimited budget, no breaker: mediation exactly as unmanaged.
    pub fn unbounded() -> Self {
        QueryContext {
            budget: QueryBudget::unlimited(),
            probe: BreakerProbe::disabled(),
            drift: None,
            pressure: PressureLevel::Normal,
        }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the breaker probe.
    pub fn with_probe(mut self, probe: BreakerProbe) -> Self {
        self.probe = probe;
        self
    }

    /// Installs a drift probe; validated responses observed during the
    /// pass accumulate into it.
    pub fn with_drift(mut self, probe: DriftProbe) -> Self {
        self.drift = Some(probe);
        self
    }

    /// Sets the overload pressure the pass runs under.
    pub fn with_pressure(mut self, pressure: PressureLevel) -> Self {
        self.pressure = pressure;
        self
    }
}

impl Default for QueryContext {
    fn default() -> Self {
        QueryContext::unbounded()
    }
}

/// The mediator's reply to a selection query.
#[derive(Debug, Clone, Default)]
pub struct AnswerSet {
    /// Certain answers (the base result set), returned first.
    pub certain: Vec<Tuple>,
    /// Relevant possible answers in retrieval (= rank) order.
    pub possible: Vec<RankedAnswer>,
    /// Tuples with more than one null among the constrained attributes —
    /// output unranked after the ranked answers (paper, Assumptions).
    pub deferred: Vec<Tuple>,
    /// The rewritten queries that were issued, in issue order.
    pub issued: Vec<RewrittenQuery>,
    /// What the retrieval pass lost to source failures (empty when every
    /// planned query was answered).
    pub degraded: Degradation,
}

/// The QPIAD mediator for one source.
#[derive(Debug, Clone)]
pub struct Qpiad {
    stats: SourceStats,
    config: QpiadConfig,
    /// Shared plan cache; `None` plans from scratch every pass.
    plan_cache: Option<Arc<PlanCache>>,
    /// The knowledge version the cache key is stamped with — whoever
    /// attaches the cache must bump this whenever `stats` changes meaning
    /// (re-mine, drift demotion), or stale plans would be served.
    knowledge_version: u64,
}

impl Qpiad {
    /// Creates a mediator from mined statistics.
    pub fn new(stats: SourceStats, config: QpiadConfig) -> Self {
        Qpiad {
            stats,
            config,
            plan_cache: None,
            knowledge_version: 0,
        }
    }

    /// Attaches a shared plan cache, stamping this mediator's entries with
    /// `version` (the source's current knowledge version).
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>, version: u64) -> Self {
        self.plan_cache = Some(cache);
        self.knowledge_version = version;
        self
    }

    /// The mined statistics.
    pub fn stats(&self) -> &SourceStats {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &QpiadConfig {
        &self.config
    }

    /// Answers a selection query: certain answers plus ranked relevant
    /// possible answers (§4.2 steps 1–2).
    ///
    /// Every query is issued through the retry boundary
    /// ([`qpiad_db::fault::query_with_retry`], configured by
    /// [`QpiadConfig::retry`]). Retrieval degrades rather than aborts:
    /// retrieval stops gracefully when the source's query budget runs out,
    /// and a rewritten query that still fails after retries is *skipped* —
    /// its planned contribution is recorded in [`AnswerSet::degraded`] so
    /// the caller knows what the answer is missing. Only a failure of the
    /// *base* query (no certain answers at all) propagates as an error.
    ///
    /// Against a budget-free source the rewritten queries are issued
    /// concurrently over the [`crate::par`] worker pool; the results are then
    /// merged sequentially in rank order, which makes the answer set
    /// byte-identical to single-threaded retrieval. Budgeted sources are
    /// always served sequentially, because which queries fit under the
    /// budget depends on issue order.
    pub fn answer(
        &self,
        source: &dyn AutonomousSource,
        query: &SelectQuery,
    ) -> Result<AnswerSet, SourceError> {
        self.answer_in(source, query, &mut QueryContext::unbounded())
    }

    /// [`Self::answer`] under an explicit availability context: the
    /// caller's [`QueryBudget`] funds (and clamps) every query's retry
    /// schedule, and the source's [`BreakerProbe`] gates admission.
    ///
    /// Admission happens at *plan time*, in rank order, before any fan-out:
    /// each candidate deducts its worst-case cost from the budget and
    /// consumes a probe slot, so the admitted plan — and therefore the
    /// answer — is identical whether retrieval then runs sequentially or
    /// concurrently. Candidates the budget cannot fund, or the breaker
    /// does not admit, charge their F-measure mass to
    /// [`AnswerSet::degraded`] instead. Every response is validated
    /// against the source schema and the issued query; quarantined tuples
    /// are dropped, counted, and fed to the probe as failures.
    pub fn answer_in(
        &self,
        source: &dyn AutonomousSource,
        query: &SelectQuery,
        ctx: &mut QueryContext,
    ) -> Result<AnswerSet, SourceError> {
        // Step 1: base result set (certain answers), under admission.
        let mut degraded = Degradation::default();
        let certain = plan::execute_base(
            source,
            query,
            &self.config.retry,
            ctx,
            &mut degraded,
            BaseGate::Guarded,
        )?;
        if let Some(dp) = &mut ctx.drift {
            dp.observe(&self.stats, query, &certain);
        }

        // Steps 2a–2c: build the plan — candidate rewrites (served from
        // the plan cache when the template and knowledge version match)
        // plus plan-time admission in rank order.
        let plan = self.plan(source, query, &certain, ctx, &mut degraded);

        // Steps 2d–2e: execute the plan and merge results in rank order.
        // The classifier memo lives for exactly this query (§5.3 cost: one
        // classification per distinct determining-set combination).
        let cache = PredictionCache::new();
        let mut merge = AnswerMerge {
            seen: certain.iter().map(Tuple::id).collect(),
            constrained: query.constrained_attrs(),
            possible: Vec::new(),
            deferred: Vec::new(),
            issued: Vec::new(),
        };
        plan::execute(source, &plan, ctx, &mut degraded, |_, entry, kept, ctx| {
            if let Some(dp) = &mut ctx.drift {
                dp.observe(&self.stats, &entry.rewrite.query, &kept);
            }
            self.merge_retrieval(query, &entry.rewrite, kept, &mut merge, &cache);
        });
        if degraded.is_degraded() {
            source.note_degraded();
        }

        let mut possible = merge.possible;
        if self.config.confidence_threshold > 0.0 {
            possible.retain(|a| a.confidence >= self.config.confidence_threshold);
        }

        Ok(AnswerSet {
            certain,
            possible,
            deferred: merge.deferred,
            issued: merge.issued,
            degraded,
        })
    }

    /// Builds the admitted [`MediationPlan`] for `query`: candidate
    /// rewrites (from the plan cache when the (template, knowledge
    /// version) key matches, re-planned and cached otherwise) followed by
    /// plan-time admission against the context's probe and budget.
    pub fn plan(
        &self,
        source: &dyn AutonomousSource,
        query: &SelectQuery,
        certain: &[Tuple],
        ctx: &mut QueryContext,
        degraded: &mut Degradation,
    ) -> MediationPlan {
        let (candidates, cache_status) = self.candidate_set(source, query, certain);
        let mut plan = self.plan_from_candidates(source, query, &candidates);
        plan.cache = cache_status;
        plan.admit(ctx, degraded);
        plan
    }

    /// A *speculative* plan for EXPLAIN: the base result set is
    /// approximated by the mined sample's certain matches, the plan cache
    /// is deliberately bypassed (a sample-based candidate list must never
    /// be served to a real pass), and admission runs against the given
    /// context without charging any degradation record. Issues zero
    /// source queries.
    pub fn plan_speculative(
        &self,
        source: &dyn AutonomousSource,
        query: &SelectQuery,
        ctx: &mut QueryContext,
    ) -> MediationPlan {
        let certain = plan::stats_sample_matches(&self.stats, query);
        let candidates = self.compute_candidates(source, query, &certain);
        let mut plan = self.plan_from_candidates(source, query, &candidates);
        plan.cache = CacheStatus::Speculative;
        // Base admission is simulated first, mirroring the real pass: a
        // base the breaker or budget refuses means nothing at all runs.
        if !ctx.probe.admits() {
            plan.base_status = EntryStatus::Skipped(SkipReason::BreakerOpen);
            plan.skip_all(SkipReason::BreakerOpen);
            return plan;
        }
        match ctx
            .budget
            .admit(&self.config.retry, query_fingerprint(query))
        {
            Some(policy) => {
                ctx.probe.note_issued();
                plan.base_status = EntryStatus::Admitted(policy);
            }
            None => {
                plan.base_status = EntryStatus::Skipped(SkipReason::BudgetExhausted);
                plan.skip_all(SkipReason::BudgetExhausted);
                return plan;
            }
        }
        let mut scratch = Degradation::default();
        plan.admit(ctx, &mut scratch);
        plan
    }

    /// Renders the admitted plan for `query` against `source` without
    /// issuing a single source query (EXPLAIN).
    pub fn explain(&self, source: &dyn AutonomousSource, query: &SelectQuery) -> String {
        self.plan_speculative(source, query, &mut QueryContext::unbounded())
            .render(source.schema())
    }

    /// Wraps a candidate list as an unadmitted plan (all supported entries
    /// deferred, unsupported ones skipped).
    fn plan_from_candidates(
        &self,
        source: &dyn AutonomousSource,
        query: &SelectQuery,
        candidates: &[PlanCandidate],
    ) -> MediationPlan {
        let mut plan = MediationPlan::new(
            source.name().to_string(),
            query.clone(),
            self.config.retry,
            AdmissionMode::PlanTime,
        );
        if self.plan_cache.is_some() {
            plan.knowledge_version = Some(self.knowledge_version);
        }
        for c in candidates {
            plan.push(PlanEntry {
                issue: c.scored.rewrite.query.clone(),
                rewrite: c.scored.rewrite.clone(),
                fmeasure: c.scored.fmeasure,
                status: if c.supported {
                    EntryStatus::Deferred
                } else {
                    EntryStatus::Skipped(SkipReason::Unsupported)
                },
            });
        }
        plan
    }

    /// The candidate rewrites for `query`, served from the plan cache when
    /// one is attached and the (source, template, knowledge version, α, k)
    /// key matches; planned from scratch (and inserted) otherwise. Hits
    /// and misses are metered on the source.
    ///
    /// `pub(crate)`: the correlated-retrieval path plans through the
    /// correlated member's mediator so a network pass computes each
    /// (source, template) candidate list at most once.
    pub(crate) fn candidate_set(
        &self,
        source: &dyn AutonomousSource,
        query: &SelectQuery,
        certain: &[Tuple],
    ) -> (Arc<Vec<PlanCandidate>>, CacheStatus) {
        if let Some(cache) = &self.plan_cache {
            if let Some(hit) = cache.lookup(
                source.name(),
                query,
                self.knowledge_version,
                self.config.alpha,
                self.config.k,
            ) {
                source.note_plan_cache_hit();
                return (hit, CacheStatus::Hit);
            }
            source.note_plan_cache_miss();
            let computed = self.compute_candidates(source, query, certain);
            let arc = cache.insert(
                source.name(),
                query,
                self.knowledge_version,
                self.config.alpha,
                self.config.k,
                computed,
            );
            (arc, CacheStatus::Miss)
        } else {
            (
                Arc::new(self.compute_candidates(source, query, certain)),
                CacheStatus::Bypassed,
            )
        }
    }

    /// The planning half proper: generate rewrites from the certain
    /// answers, select and order the top K (step 2a–2c), mark candidates
    /// the source's web form cannot answer (the determining set came from
    /// global statistics, so such queries exist; they are skipped, not
    /// fatal), and normalize the issuable candidates' F-measure masses
    /// over the supported subset.
    fn compute_candidates(
        &self,
        source: &dyn AutonomousSource,
        query: &SelectQuery,
        certain: &[Tuple],
    ) -> Vec<PlanCandidate> {
        let rewrites = generate_rewrites(query, certain, &self.stats);
        let selected = order_rewrites(
            rewrites,
            &RankConfig {
                alpha: self.config.alpha,
                k: self.config.k,
            },
        );
        let mut candidates: Vec<PlanCandidate> = selected
            .into_iter()
            .map(|scored| {
                let supported = scored
                    .rewrite
                    .query
                    .predicates()
                    .iter()
                    .all(|p| source.supports(p.attr));
                PlanCandidate { scored, supported }
            })
            .collect();
        let mut issuable: Vec<_> = candidates
            .iter()
            .filter(|c| c.supported)
            .map(|c| c.scored.clone())
            .collect();
        rescore(&mut issuable, self.config.alpha);
        // Pair positionally with `zip`-style exhaustion instead of an
        // `expect`: rescoring is in-place and length-preserving, but a
        // serving process must degrade (keep the pre-rescore score) rather
        // than abort if that invariant is ever violated.
        let mut rescored = issuable.into_iter();
        for c in candidates.iter_mut().filter(|c| c.supported) {
            if let Some(scored) = rescored.next() {
                c.scored = scored;
            }
        }
        candidates
    }

    /// Folds one rewritten query's result into the answer under
    /// construction: dedup against earlier (higher-ranked) retrievals,
    /// post-filter, defer multi-null tuples, assess confidence (§4.2 steps
    /// 2d–2e). Always called in rank order, whether retrieval ran
    /// sequentially or concurrently.
    fn merge_retrieval(
        &self,
        query: &SelectQuery,
        rq: &RewrittenQuery,
        tuples: Vec<Tuple>,
        merge: &mut AnswerMerge,
        cache: &PredictionCache,
    ) {
        let query_index = merge.issued.len();
        for t in tuples {
            if !merge.seen.insert(t.id()) {
                continue; // already retrieved by a higher-ranked query
            }
            if query.matches(&t) {
                // A certain answer the base query already covers; the
                // source returned it again because the rewritten query
                // subsumes it. Post-filtering drops it (§4.2 step 2e).
                continue;
            }
            if !query.possibly_matches(&t) {
                // Non-null constrained value contradicting the query.
                continue;
            }
            if t.null_count_among(&merge.constrained) > 1 {
                merge.deferred.push(t);
                continue;
            }
            let confidence = self.tuple_confidence_cached(cache, query, &t);
            merge.possible.push(RankedAnswer {
                tuple: t,
                confidence,
                query_precision: rq.precision,
                query_index,
                explanation: rq.afd.clone(),
            });
        }
        merge.issued.push(rq.clone());
    }

    /// The assessed relevance of a possible answer: the product, over every
    /// constrained attribute the tuple is missing, of the classifier
    /// probability that the missing value satisfies the predicate.
    pub fn tuple_confidence(&self, query: &SelectQuery, tuple: &Tuple) -> f64 {
        let mut confidence = 1.0;
        for p in query.predicates() {
            if tuple.value(p.attr).is_null() {
                confidence *= self.stats.predictor().prob_matching(p.attr, tuple, &p.op);
            }
        }
        confidence
    }

    /// [`Self::tuple_confidence`] through a per-query memo: tuples sharing
    /// a determining-set combination are classified once.
    fn tuple_confidence_cached(
        &self,
        cache: &PredictionCache,
        query: &SelectQuery,
        tuple: &Tuple,
    ) -> f64 {
        let mut confidence = 1.0;
        for p in query.predicates() {
            if tuple.value(p.attr).is_null() {
                confidence *= cache.prob_matching(self.stats.predictor(), p.attr, tuple, &p.op);
            }
        }
        confidence
    }
}

/// Working state of an answer merge, fed one rewritten query at a time in
/// rank order.
struct AnswerMerge {
    seen: FastHashSet<TupleId>,
    constrained: Vec<qpiad_db::AttrId>,
    possible: Vec<RankedAnswer>,
    deferred: Vec<Tuple>,
    issued: Vec<RewrittenQuery>,
}

/// Convenience: flattens an answer set into the user-visible order —
/// certain answers, then ranked possible answers, then deferred tuples.
pub fn flatten_answers(answers: &AnswerSet) -> Vec<&Tuple> {
    answers
        .certain
        .iter()
        .chain(answers.possible.iter().map(|a| &a.tuple))
        .chain(answers.deferred.iter())
        .collect()
}

/// Renders a short human-readable justification of a possible answer, e.g.
/// `confidence 0.91 via {model} ⇝ body_style (0.88)` (§6.1).
pub fn explain(answer: &RankedAnswer, schema: &qpiad_db::Schema) -> String {
    match &answer.explanation {
        Some(afd) => format!(
            "confidence {:.3} via {}",
            answer.confidence,
            afd.display(schema)
        ),
        None => format!(
            "confidence {:.3} (no AFD; all-attribute classifier)",
            answer.confidence
        ),
    }
}

/// Reusable check used by tests and the evaluation harness: `true` iff the
/// possible answer's tuple is missing exactly one constrained value and
/// contradicts no predicate.
pub fn is_well_formed_possible(query: &SelectQuery, tuple: &Tuple) -> bool {
    let constrained = query.constrained_attrs();
    tuple.null_count_among(&constrained) == 1 && query.possibly_matches(tuple)
}

/// A value-level helper the aggregate and join modules share: the most
/// likely completion of `attr` for a tuple, or the actual value when
/// present.
pub fn value_or_predicted(
    stats: &SourceStats,
    attr: qpiad_db::AttrId,
    tuple: &Tuple,
) -> Option<(Value, f64)> {
    let v = tuple.value(attr);
    if !v.is_null() {
        return Some((v.clone(), 1.0));
    }
    stats.predictor().predict(attr, tuple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::{Predicate, WebSource};
    use qpiad_learn::knowledge::MiningConfig;

    fn setup() -> (WebSource, Qpiad) {
        let ground = CarsConfig::default().with_rows(8_000).generate(41);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 17);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        (
            WebSource::new("cars.com", ed),
            Qpiad::new(stats, QpiadConfig::default()),
        )
    }

    fn convt_query(source: &WebSource) -> SelectQuery {
        let body = source.schema().expect_attr("body_style");
        SelectQuery::new(vec![Predicate::eq(body, "Convt")])
    }

    #[test]
    fn returns_certain_and_possible_answers() {
        let (source, qpiad) = setup();
        let q = convt_query(&source);
        let answers = qpiad.answer(&source, &q).unwrap();
        assert!(!answers.certain.is_empty());
        assert!(!answers.possible.is_empty());
        assert!(answers.issued.len() <= qpiad.config().k);
        // Certain answers certainly match; possible answers possibly match.
        assert!(answers.certain.iter().all(|t| q.matches(t)));
        assert!(answers
            .possible
            .iter()
            .all(|a| is_well_formed_possible(&q, &a.tuple)));
    }

    #[test]
    fn possible_answers_have_null_on_constrained_attr() {
        let (source, qpiad) = setup();
        let q = convt_query(&source);
        let body = source.schema().expect_attr("body_style");
        let answers = qpiad.answer(&source, &q).unwrap();
        for a in &answers.possible {
            assert!(a.tuple.value(body).is_null());
            assert!((0.0..=1.0).contains(&a.confidence));
            assert!(a.explanation.is_some());
        }
    }

    #[test]
    fn possible_answers_arrive_in_query_precision_order() {
        let (source, qpiad) = setup();
        let q = convt_query(&source);
        let answers = qpiad.answer(&source, &q).unwrap();
        let precisions: Vec<f64> = answers.possible.iter().map(|a| a.query_precision).collect();
        for w in precisions.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "precision order violated: {w:?}");
        }
    }

    #[test]
    fn no_duplicate_tuples_across_answers() {
        let (source, qpiad) = setup();
        let q = convt_query(&source);
        let answers = qpiad.answer(&source, &q).unwrap();
        let mut ids: Vec<TupleId> = flatten_answers(&answers).iter().map(|t| t.id()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn respects_source_query_limit() {
        let ground = CarsConfig::default().with_rows(4_000).generate(43);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 19);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        // 1 base query + 3 rewritten queries allowed.
        let source = WebSource::new("limited", ed).with_query_limit(4);
        let qpiad = Qpiad::new(stats, QpiadConfig::default().with_k(100));
        let q = convt_query(&source);
        let answers = qpiad.answer(&source, &q).unwrap();
        assert_eq!(answers.issued.len(), 3);
        assert_eq!(source.meter().queries, 4);
    }

    #[test]
    fn confidence_threshold_filters_answers() {
        let (source, qpiad) = setup();
        let q = convt_query(&source);
        let all = qpiad.answer(&source, &q).unwrap();
        let strict = Qpiad::new(
            qpiad.stats().clone(),
            QpiadConfig::default().with_confidence_threshold(0.9),
        );
        source.reset_meter();
        let filtered = strict.answer(&source, &q).unwrap();
        assert!(filtered.possible.len() <= all.possible.len());
        assert!(filtered.possible.iter().all(|a| a.confidence >= 0.9));
    }

    #[test]
    fn multi_null_tuples_are_deferred() {
        let ground = CarsConfig::default().with_rows(8_000).generate(44);
        // Corrupt aggressively so two-null tuples exist across body & year.
        let body = ground.schema().expect_attr("body_style");
        let year = ground.schema().expect_attr("year");
        let (ed1, _) = corrupt(
            &ground,
            &CorruptionConfig::default()
                .with_fraction(0.25)
                .with_attrs(vec![body])
                .with_seed(1),
        );
        let (ed, _) = corrupt(
            &ed1,
            &CorruptionConfig::default()
                .with_fraction(0.25)
                .with_attrs(vec![year])
                .with_seed(2),
        );
        let sample = uniform_sample(&ed, 0.10, 23);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        let source = WebSource::new("cars.com", ed);
        let qpiad = Qpiad::new(stats, QpiadConfig::default().with_k(30));
        let q = SelectQuery::new(vec![
            Predicate::eq(body, "Sedan"),
            Predicate::eq(year, 2003i64),
        ]);
        let answers = qpiad.answer(&source, &q).unwrap();
        for t in &answers.deferred {
            assert_eq!(t.null_count_among(&[body, year]), 2);
        }
        for a in &answers.possible {
            assert_eq!(a.tuple.null_count_among(&[body, year]), 1);
        }
        assert!(!answers.deferred.is_empty() || !answers.possible.is_empty());
    }

    #[test]
    fn value_or_predicted_prefers_stored_values() {
        let (source, qpiad) = setup();
        let schema = source.relation().schema().clone();
        let body = schema.expect_attr("body_style");
        let model = schema.expect_attr("model");
        // Stored value: returned verbatim with probability 1.
        let stored = source
            .relation()
            .tuples()
            .iter()
            .find(|t| !t.value(body).is_null())
            .unwrap();
        let (v, p) = value_or_predicted(qpiad.stats(), body, stored).unwrap();
        assert_eq!(&v, stored.value(body));
        assert_eq!(p, 1.0);
        // Missing value: predicted from the model evidence.
        let missing = stored
            .with_value(body, qpiad_db::Value::Null)
            .with_value(model, qpiad_db::Value::str("Miata"));
        let (v, p) = value_or_predicted(qpiad.stats(), body, &missing).unwrap();
        assert_eq!(v, qpiad_db::Value::str("Convt"));
        assert!(p < 1.0 && p > 0.3);
    }

    #[test]
    fn unsupported_rewrite_attributes_are_skipped_not_fatal() {
        let ground = CarsConfig::default().with_rows(4_000).generate(45);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 21);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        let schema = ed.schema().clone();
        let body = schema.expect_attr("body_style");
        let model = schema.expect_attr("model");
        // The web form only exposes body_style and year: model-based
        // rewrites cannot be issued there.
        let year = schema.expect_attr("year");
        let source = WebSource::new("narrow", ed).with_queryable(&[body, year]);
        let qpiad = Qpiad::new(stats, QpiadConfig::default().with_k(20));
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let answers = qpiad.answer(&source, &q).expect("must not error");
        for rq in &answers.issued {
            assert!(rq.query.predicate_on(model).is_none());
        }
    }

    #[test]
    fn explain_renders_confidence_and_afd() {
        let (source, qpiad) = setup();
        let q = convt_query(&source);
        let answers = qpiad.answer(&source, &q).unwrap();
        let text = explain(&answers.possible[0], source.schema());
        assert!(text.contains("confidence"), "{text}");
        assert!(text.contains("body_style"), "{text}");
    }
}
