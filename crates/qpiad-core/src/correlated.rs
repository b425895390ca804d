//! Retrieving possible answers from sources that do not support the
//! constrained attribute (§4.3).
//!
//! A mediator's global schema may contain attributes some local schemas
//! lack — e.g. Yahoo! Autos has no `Body Style`. For a query on such an
//! attribute, a conventional mediator returns *nothing* from that source.
//! QPIAD instead uses a **correlated source** (Definition 4): a source that
//! (i) supports the attribute, (ii) has an AFD determining it, and (iii)
//! whose AFD's determining set the deficient source does support. The base
//! set and statistics come from the correlated source; the rewritten
//! queries go to the deficient source; *every* returned tuple is a possible
//! answer (the source simply has no value for the attribute), ranked by the
//! retrieving query's precision.

use qpiad_db::hash::FastHashSet;

use qpiad_db::fault::{query_fingerprint, RetryPolicy};
use qpiad_db::{AutonomousSource, SelectQuery, SourceBinding, SourceError, Tuple, TupleId};
use qpiad_learn::knowledge::SourceStats;

use crate::mediator::{Degradation, Qpiad, QueryContext, RankedAnswer};
use crate::plan::{
    self, AdmissionMode, BaseGate, CacheStatus, EntryStatus, MediationPlan, PlanEntry, SkipReason,
};
use crate::rank::{order_rewrites, RankConfig, ScoredRewrite};
use crate::rewrite::generate_rewrites;

/// Checks Definition 4: can `correlated_stats` (learned from a source that
/// supports every query attribute) drive retrieval from the deficient
/// source described by `binding`? All determining-set attributes of every
/// constrained attribute must be supported by the deficient source.
pub fn is_correlated_source_usable(
    correlated_stats: &SourceStats,
    binding: &SourceBinding,
    query: &SelectQuery,
) -> bool {
    query
        .constrained_attrs()
        .iter()
        .all(|attr| match correlated_stats.determining_set(*attr) {
            Some(dtr) => dtr.iter().all(|a| binding.supports(*a)),
            None => false,
        })
}

/// The result of a correlated-source retrieval: ranked possible answers
/// plus an account of what the plan lost to target-source failures.
#[derive(Debug, Clone, Default)]
pub struct CorrelatedAnswers {
    /// Ranked possible answers, lifted to the global schema.
    pub possible: Vec<RankedAnswer>,
    /// Rewritten queries dropped after exhausting retries against the
    /// target source (empty when the run was healthy).
    pub degraded: Degradation,
}

/// Answers a query on a global-schema attribute from a source whose local
/// schema does not support it.
///
/// * `correlated_source` — the source supporting the attribute (supplies
///   the base set); its schema must equal the global schema the query and
///   `correlated_stats` use.
/// * `target_source` + `binding` — the deficient source and its global→
///   local attribute mapping.
///
/// Returns ranked possible answers **lifted to the global schema** (the
/// unsupported attributes are null). Queries are issued through the retry
/// boundary; a rewritten query the target still fails after retries is
/// skipped and recorded in [`CorrelatedAnswers::degraded`] — only a failure
/// of the base retrieval from the correlated source is an error.
///
/// The context's breaker probe belongs to the *target* source and is
/// consulted per candidate, interleaved with retrieval: this loop is
/// inherently sequential (the dedup set orders it), so a probe tripped by
/// the first `failure_threshold` failed rewrites skips every remaining
/// candidate — a permanently down target costs at most `failure_threshold`
/// probe attempts across the whole plan, at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn answer_from_correlated(
    correlated_source: &dyn AutonomousSource,
    correlated_stats: &SourceStats,
    target_source: &dyn AutonomousSource,
    binding: &SourceBinding,
    query: &SelectQuery,
    config: &RankConfig,
    retry: &RetryPolicy,
    ctx: &mut QueryContext,
) -> Result<CorrelatedAnswers, SourceError> {
    // Step 1 (modified): base set from the correlated source. Only the
    // budget gates it — the probe tracks the target's health, and the
    // correlated member's own breaker already vetted it this pass.
    let mut degraded = Degradation::default();
    let base = plan::execute_base(
        correlated_source,
        query,
        retry,
        ctx,
        &mut degraded,
        BaseGate::BudgetOnly,
    )?;

    // Step 2: an interleaved-admission plan — rewrites from the correlated
    // source's statistics, translated onto the target's local schema at
    // plan time. Deferred entries are admitted by the executor one at a
    // time, immediately before issue (the dedup set orders this loop, so
    // it is inherently sequential).
    let ranked = order_rewrites(generate_rewrites(query, &base, correlated_stats), config);
    let plan = build_plan(target_source.name(), binding, query, retry, ranked);
    Ok(collect_possible(
        target_source,
        binding,
        query,
        &plan,
        ctx,
        degraded,
    ))
}

/// [`answer_from_correlated`] inside a network pass: the base set is the
/// one the correlated member's direct retrieval already validated this
/// pass, and the planning half is served through the correlated member's
/// own mediator (and therefore through its plan cache, where that direct
/// retrieval just stored the candidate list for this template).
///
/// `shared_base` is that validated certain set, in the global schema.
/// `None` means the correlated member validated no base this pass (its
/// breaker was Open, its base failed, or its budget refused it): only then
/// is the base issued here, budget-gated and charged to *this* member's
/// context, exactly as [`answer_from_correlated`] does. A shared base
/// charges nothing here — neither budget nor quarantine — because this
/// member did not issue it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn answer_from_correlated_planned(
    correlated_source: &dyn AutonomousSource,
    planner: &Qpiad,
    target_source: &dyn AutonomousSource,
    binding: &SourceBinding,
    query: &SelectQuery,
    retry: &RetryPolicy,
    shared_base: Option<&[Tuple]>,
    ctx: &mut QueryContext,
) -> Result<CorrelatedAnswers, SourceError> {
    let mut degraded = Degradation::default();
    let issued;
    let base = match shared_base {
        Some(base) => base,
        None => {
            issued = plan::execute_base(
                correlated_source,
                query,
                retry,
                ctx,
                &mut degraded,
                BaseGate::BudgetOnly,
            )?;
            &issued[..]
        }
    };
    let (candidates, _cache) = planner.candidate_set(correlated_source, query, base);
    // The candidates' `supported` flag describes the *correlated* source's
    // web form, while these queries go to the target: each candidate is
    // admitted or skipped purely on whether the target's binding can
    // translate it.
    let ranked = candidates.iter().map(|c| c.scored.clone());
    let plan = build_plan(target_source.name(), binding, query, retry, ranked);
    Ok(collect_possible(
        target_source,
        binding,
        query,
        &plan,
        ctx,
        degraded,
    ))
}

/// Executes a correlated plan against the target source and lifts every
/// kept tuple into the global schema as a possible answer.
fn collect_possible(
    target_source: &dyn AutonomousSource,
    binding: &SourceBinding,
    query: &SelectQuery,
    plan: &MediationPlan,
    ctx: &mut QueryContext,
    mut degraded: Degradation,
) -> CorrelatedAnswers {
    let mut possible: Vec<RankedAnswer> = Vec::new();
    let mut seen: FastHashSet<TupleId> = FastHashSet::default();
    plan::execute(
        target_source,
        plan,
        ctx,
        &mut degraded,
        |rank, entry, kept, _ctx| {
            for local_tuple in kept {
                if !seen.insert(local_tuple.id()) {
                    continue;
                }
                // Lift into the global schema; the constrained attribute comes
                // back null (the source does not store it), making the tuple a
                // possible answer by construction.
                let tuple = binding.lift_tuple(&local_tuple);
                if !query.possibly_matches(&tuple) {
                    continue;
                }
                possible.push(RankedAnswer {
                    tuple,
                    confidence: entry.rewrite.precision,
                    query_precision: entry.rewrite.precision,
                    query_index: rank,
                    explanation: entry.rewrite.afd.clone(),
                });
            }
        },
    );
    if degraded.is_degraded() {
        target_source.note_degraded();
    }
    CorrelatedAnswers { possible, degraded }
}

/// Builds the (unadmitted) interleaved plan for a correlated retrieval:
/// F-measure-ordered rewrites, translated onto the target's local schema
/// at plan time. An untranslatable rewrite becomes a skipped entry, not an
/// error.
fn build_plan(
    target_name: &str,
    binding: &SourceBinding,
    query: &SelectQuery,
    retry: &RetryPolicy,
    ranked: impl IntoIterator<Item = ScoredRewrite>,
) -> MediationPlan {
    let mut plan = MediationPlan::new(
        target_name.to_string(),
        query.clone(),
        *retry,
        AdmissionMode::Interleaved,
    );
    for scored in ranked {
        let (issue, status) = match binding.translate_query(&scored.rewrite.query) {
            Ok(local) => (local, EntryStatus::Deferred),
            Err(_) => (
                scored.rewrite.query.clone(),
                EntryStatus::Skipped(SkipReason::Untranslatable),
            ),
        };
        plan.push(PlanEntry {
            rewrite: scored.rewrite,
            issue,
            fmeasure: scored.fmeasure,
            status,
        });
    }
    plan
}

/// A *speculative* correlated plan for EXPLAIN: the base result set is
/// approximated by the correlated source's mined sample and admission is
/// previewed against `ctx` without charging any degradation record. Issues
/// zero source queries against either source.
///
/// `base_shared` previews where the base comes from: `true` when the
/// correlated member's own direct retrieval supplies it this pass (the
/// base then charges nothing to `ctx` and renders unadmitted), `false`
/// when this member must issue it itself (budget-gated, as
/// [`answer_from_correlated`] does).
#[allow(clippy::too_many_arguments)]
pub fn plan_from_correlated_speculative(
    correlated_stats: &SourceStats,
    target_name: &str,
    binding: &SourceBinding,
    query: &SelectQuery,
    config: &RankConfig,
    retry: &RetryPolicy,
    base_shared: bool,
    ctx: &mut QueryContext,
) -> MediationPlan {
    let base = plan::stats_sample_matches(correlated_stats, query);
    let ranked = order_rewrites(generate_rewrites(query, &base, correlated_stats), config);
    let mut plan = build_plan(target_name, binding, query, retry, ranked);
    plan.cache = CacheStatus::Speculative;
    // An issued base is gated by the budget only — the probe belongs to
    // the target source and is never consulted for the base.
    if !base_shared {
        match ctx.budget.admit(retry, query_fingerprint(query)) {
            Some(policy) => plan.base_status = EntryStatus::Admitted(policy),
            None => {
                plan.base_status = EntryStatus::Skipped(SkipReason::BudgetExhausted);
                plan.skip_all(SkipReason::BudgetExhausted);
                return plan;
            }
        }
    }
    // Preview interleaved admission: consume the probe and budget in the
    // same order the executor would, so a breaker-open target shows every
    // remaining candidate as skipped.
    let mut scratch = Degradation::default();
    plan.admit(ctx, &mut scratch);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::{Predicate, Relation, WebSource};
    use qpiad_learn::knowledge::MiningConfig;

    /// Builds the paper's Figure 2 scenario: Cars.com supports body_style,
    /// a Yahoo!-Autos-like source stores the same kind of data but its
    /// local schema has no body_style column.
    fn setup() -> (WebSource, SourceStats, WebSource, SourceBinding, Relation) {
        let global = CarsConfig::default().with_rows(6_000).generate(81);

        // Cars.com: incomplete, full schema.
        let (cars_ed, _) = corrupt(&global, &CorruptionConfig::default().with_seed(5));
        let stats = SourceStats::mine(
            &uniform_sample(&cars_ed, 0.10, 7),
            cars_ed.len(),
            &MiningConfig::default(),
        );
        let cars = WebSource::new("cars.com", cars_ed);

        // Yahoo! Autos: *different* car instances (fresh generation), local
        // schema without body_style. We keep the full-schema ground truth
        // around to judge precision in the evaluation crate.
        let yahoo_ground = CarsConfig::default().with_rows(6_000).generate(82);
        let schema = yahoo_ground.schema().clone();
        let keep: Vec<_> = schema
            .attr_ids()
            .filter(|a| schema.attr(*a).name() != "body_style")
            .collect();
        let yahoo_local = yahoo_ground.project_to("yahoo_autos", &keep);
        let binding = SourceBinding::by_name("yahoo", &schema, yahoo_local.schema());
        let yahoo = WebSource::new("yahoo", yahoo_local);

        (cars, stats, yahoo, binding, yahoo_ground)
    }

    #[test]
    fn definition4_check() {
        let (_, stats, yahoo, binding, _) = setup();
        let body = stats.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        // dtrSet(body_style) is model-based, which Yahoo supports.
        assert!(is_correlated_source_usable(&stats, &binding, &q));
        // The binding knows Yahoo has no body_style column (the raw global
        // AttrId would alias a different local column — see the
        // direct_query test below).
        assert!(!binding.supports(body));
        let _ = yahoo;
    }

    #[test]
    fn retrieves_possible_answers_from_deficient_source() {
        let (cars, stats, yahoo, binding, yahoo_ground) = setup();
        let body = stats.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

        let answers = answer_from_correlated(
            &cars,
            &stats,
            &yahoo,
            &binding,
            &q,
            &RankConfig { alpha: 0.0, k: 10 },
            &RetryPolicy::default(),
            &mut QueryContext::unbounded(),
        )
        .unwrap();
        assert!(!answers.degraded.is_degraded());
        let answers = answers.possible;
        assert!(!answers.is_empty());
        // Every answer is a possible answer: null body_style after lifting.
        for a in &answers {
            assert!(a.tuple.value(body).is_null());
            assert!(a.explanation.is_some());
        }
        // Precision of the top answers against the hidden ground truth
        // should be high (this is Figure 11's measurement).
        let top = &answers[..answers.len().min(25)];
        let hits = top
            .iter()
            .filter(|a| {
                yahoo_ground
                    .by_id(a.tuple.id())
                    .map(|t| t.value(body) == &qpiad_db::Value::str("Convt"))
                    .unwrap_or(false)
            })
            .count();
        let precision = hits as f64 / top.len() as f64;
        assert!(precision > 0.6, "top-25 precision {precision}");
    }

    #[test]
    fn direct_query_to_deficient_source_fails() {
        let (_, stats, yahoo, _, _) = setup();
        let body = stats.schema().expect_attr("body_style");
        // The global attribute id does not even exist locally, or maps to a
        // different column — the binding's translate is the only safe path.
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        // body_style has global index 5; yahoo's local schema has 6 attrs
        // (indices 0..=5) where 5 is `certified`, so the raw query silently
        // asks the wrong column — exactly the bug the binding prevents.
        let raw = yahoo.query(&q).unwrap();
        assert!(raw.is_empty(), "certified=Convt matches nothing");
    }

    #[test]
    fn answers_are_ordered_by_query_precision() {
        let (cars, stats, yahoo, binding, _) = setup();
        let body = stats.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let answers = answer_from_correlated(
            &cars,
            &stats,
            &yahoo,
            &binding,
            &q,
            &RankConfig { alpha: 0.0, k: 10 },
            &RetryPolicy::default(),
            &mut QueryContext::unbounded(),
        )
        .unwrap();
        for w in answers.possible.windows(2) {
            assert!(w[0].query_precision >= w[1].query_precision - 1e-12);
        }
    }
}
