//! Rewritten-query generation (§4.1, §4.2 step 2a, multi-attribute
//! extension).
//!
//! For each constrained attribute `Ai` with a mined determining set
//! `dtrSet(Ai)`, project the base set onto `dtrSet(Ai)`; every distinct
//! (null-free) value combination yields one rewritten query:
//!
//! * drop the original predicate on `Ai`,
//! * keep every other original predicate,
//! * add `Ax = t.vx` for each `Ax ∈ dtrSet(Ai)` (replacing any original
//!   predicate on `Ax` — the combination came from a certain answer, so the
//!   equality is a refinement of it).
//!
//! Each rewritten query carries its expected **precision** — the classifier
//! probability that a tuple with these determining-set values has a missing
//! `Ai` satisfying the original predicate — and its estimated
//! **selectivity** (expected number of incomplete tuples it retrieves).

use qpiad_db::hash::FastHashMap;

use qpiad_db::{AttrId, Predicate, Relation, SelectQuery, Tuple, Value};
use qpiad_learn::afd::Afd;
use qpiad_learn::knowledge::SourceStats;

/// A rewritten query, ready for ordering and retrieval.
#[derive(Debug, Clone)]
pub struct RewrittenQuery {
    /// The query to issue to the source.
    pub query: SelectQuery,
    /// The constrained attribute whose missing values this query chases.
    pub target_attr: AttrId,
    /// Expected precision: `P(target satisfies the original predicate |
    /// determining-set values)`.
    pub precision: f64,
    /// Estimated number of incomplete tuples the query retrieves (§5.4).
    pub est_selectivity: f64,
    /// The AFD that produced the determining set (the answer explanation).
    pub afd: Option<Afd>,
}

/// Generates rewritten queries for a (possibly multi-attribute) selection
/// query from its base set, per §4.2 step 2(a).
///
/// Returns an empty vector when no constrained attribute has a usable AFD
/// or the base set offers no null-free determining-set combinations.
///
/// ```
/// use qpiad_core::generate_rewrites;
/// use qpiad_data::{cars::CarsConfig, corrupt::{corrupt, CorruptionConfig}, sample::uniform_sample};
/// use qpiad_db::{Predicate, SelectQuery};
/// use qpiad_learn::knowledge::{MiningConfig, SourceStats};
///
/// let ground = CarsConfig::default().with_rows(3_000).generate(7);
/// let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
/// let stats = SourceStats::mine(&uniform_sample(&ed, 0.1, 1), ed.len(), &MiningConfig::default());
///
/// let body = ed.schema().expect_attr("body_style");
/// let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
/// let base = ed.select(&query);
/// for rq in generate_rewrites(&query, &base, &stats) {
///     // the whole point: rewritten queries never constrain the target
///     assert!(rq.query.predicate_on(body).is_none());
/// }
/// ```
pub fn generate_rewrites(
    query: &SelectQuery,
    base_set: &[Tuple],
    stats: &SourceStats,
) -> Vec<RewrittenQuery> {
    let mut out: Vec<RewrittenQuery> = Vec::new();
    // Dedup across iterations: a structurally identical rewritten query can
    // arise from different constrained attributes. With a single
    // constrained attribute distinct combinations already yield distinct
    // queries (each differs in at least one determining-set equality), so
    // the map — and its per-candidate query hashing — is skipped.
    let targets = query.constrained_attrs();
    let needs_dedup = targets.len() > 1;
    let mut seen: FastHashMap<SelectQuery, usize> = FastHashMap::default();

    for target in targets {
        let Some(dtr) = stats.determining_set(target) else {
            continue;
        };
        let dtr: Vec<AttrId> = dtr.to_vec();
        // The original predicate on the target. `constrained_attrs` is
        // derived from the predicate list, so this is always present; if
        // that coupling ever breaks, skipping the attribute degrades the
        // rewrite plan instead of panicking mid-mediation.
        let Some(target_pred) = query.predicate_on(target).cloned() else {
            continue;
        };
        let afd = stats.afds().best(target).cloned();

        // Hoisted out of the per-combination loop: the predicates every
        // rewrite for this target keeps, and the evidence template for
        // precision scoring — per combination only the determining-set
        // slots change (values are interned, so these clones are refcount
        // bumps, not string copies).
        let kept_preds: Vec<Predicate> = query
            .predicates()
            .iter()
            .filter(|p| p.attr != target && !dtr.contains(&p.attr))
            .cloned()
            .collect();
        let mut evidence = vec![Value::Null; stats.schema().arity()];
        for p in query.predicates() {
            if p.attr == target {
                continue;
            }
            if let qpiad_db::PredOp::Eq(v) = &p.op {
                evidence[p.attr.index()] = v.clone();
            }
        }

        // Reusable scorer seeded with the evidence template. Every
        // combination overwrites every determining-set slot, so state never
        // carries over; only the touched feature re-resolves its
        // log-likelihood table instead of re-hashing the whole row.
        let mut scorer = stats.predictor().row_matcher(target, &evidence);
        for combo in Relation::distinct_projections(base_set, &dtr) {
            // Build the rewritten predicate list.
            let mut preds = kept_preds.clone();
            for (ax, vx) in dtr.iter().zip(combo.iter()) {
                preds.push(Predicate::eq(*ax, vx.clone()));
            }
            let rewritten = SelectQuery::new(preds);
            if &rewritten == query {
                continue;
            }

            for (ax, vx) in dtr.iter().zip(combo.iter()) {
                scorer.set(*ax, vx);
            }
            let precision = scorer.prob_matching(&target_pred.op);
            let est_selectivity = stats.selectivity().estimate_smoothed(&rewritten);

            if needs_dedup {
                if let Some(&idx) = seen.get(&rewritten) {
                    // Keep the higher-precision interpretation.
                    if precision > out[idx].precision {
                        out[idx].precision = precision;
                        out[idx].target_attr = target;
                        out[idx].afd = afd.clone();
                    }
                    continue;
                }
                seen.insert(rewritten.clone(), out.len());
            }
            out.push(RewrittenQuery {
                query: rewritten,
                target_attr: target,
                precision,
                est_selectivity,
                afd: afd.clone(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::{PredOp, Relation};
    use qpiad_learn::knowledge::MiningConfig;

    fn setup() -> (Relation, SourceStats) {
        let ground = CarsConfig::default().with_rows(8_000).generate(31);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 13);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        (ed, stats)
    }

    #[test]
    fn single_attribute_rewrites_follow_the_paper_example() {
        let (ed, stats) = setup();
        let body = ed.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let base = ed.select(&q);
        let rewrites = generate_rewrites(&q, &base, &stats);
        assert!(!rewrites.is_empty());
        for rq in &rewrites {
            // No rewritten query may constrain the target attribute —
            // that is the whole point (it must retrieve null targets).
            assert!(rq.query.predicate_on(body).is_none());
            assert_eq!(rq.target_attr, body);
            assert!((0.0..=1.0).contains(&rq.precision));
            assert!(rq.est_selectivity >= 0.0);
            assert!(rq.afd.is_some());
        }
        // Every distinct model among the certain answers produced a query
        // (the determining set includes model).
        let dtr = stats.determining_set(body).unwrap().to_vec();
        let combos = Relation::distinct_projections(&base, &dtr);
        assert_eq!(rewrites.len(), combos.len());
    }

    #[test]
    fn convertible_models_score_higher_precision() {
        let (ed, stats) = setup();
        let body = ed.schema().expect_attr("body_style");
        let model = ed.schema().expect_attr("model");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let base = ed.select(&q);
        let rewrites = generate_rewrites(&q, &base, &stats);
        let precision_of = |m: &str| {
            rewrites
                .iter()
                .find(|rq| {
                    rq.query.predicate_on(model).map(|p| &p.op) == Some(&PredOp::Eq(Value::str(m)))
                })
                .map(|rq| rq.precision)
        };
        // Solara is a dedicated convertible with decent popularity; Mustang
        // is mostly a coupe that enters the base set through body-style
        // noise.
        let solara = precision_of("Solara").expect("Solara rewrite");
        assert!(solara > 0.6, "Solara precision {solara}");
        if let Some(mustang) = precision_of("Mustang") {
            assert!(solara > mustang);
        }
    }

    #[test]
    fn multi_attribute_rewrites_drop_one_constraint_each() {
        let (ed, stats) = setup();
        let body = ed.schema().expect_attr("body_style");
        let year = ed.schema().expect_attr("year");
        let q = SelectQuery::new(vec![
            Predicate::eq(body, "Sedan"),
            Predicate::eq(year, 2003i64),
        ]);
        let base = ed.select(&q);
        let rewrites = generate_rewrites(&q, &base, &stats);
        assert!(!rewrites.is_empty());
        for rq in &rewrites {
            // The target attribute is unconstrained; at least one original
            // non-target predicate (or its refinement) survives.
            assert!(rq.query.predicate_on(rq.target_attr).is_none());
            assert!(!rq.query.predicates().is_empty());
        }
        // Both constrained attributes should be rewriting targets (year is
        // determined by {model, price}-ish sets; body by model).
        let targets: std::collections::BTreeSet<AttrId> =
            rewrites.iter().map(|r| r.target_attr).collect();
        assert!(targets.contains(&body));
    }

    #[test]
    fn no_afd_means_no_rewrites() {
        let (ed, stats) = setup();
        // certified is weakly correlated; if it has no AFD the query yields
        // nothing — otherwise rewrites must still avoid constraining it.
        let cert = ed.schema().expect_attr("certified");
        let q = SelectQuery::new(vec![Predicate::eq(cert, "Yes")]);
        let base = ed.select(&q);
        let rewrites = generate_rewrites(&q, &base, &stats);
        for rq in &rewrites {
            assert!(rq.query.predicate_on(cert).is_none());
        }
    }

    #[test]
    fn empty_base_set_generates_nothing() {
        let (ed, stats) = setup();
        let model = ed.schema().expect_attr("model");
        let q = SelectQuery::new(vec![Predicate::eq(model, "Batmobile")]);
        let base = ed.select(&q);
        assert!(base.is_empty());
        assert!(generate_rewrites(&q, &base, &stats).is_empty());
    }

    #[test]
    fn rewrites_are_unique() {
        let (ed, stats) = setup();
        let body = ed.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let base = ed.select(&q);
        let rewrites = generate_rewrites(&q, &base, &stats);
        let mut queries: Vec<&SelectQuery> = rewrites.iter().map(|r| &r.query).collect();
        let before = queries.len();
        queries.sort_by_key(|q| format!("{q:?}"));
        queries.dedup();
        assert_eq!(queries.len(), before);
    }

    #[test]
    fn between_predicates_use_range_probability() {
        let (ed, stats) = setup();
        let price = ed.schema().expect_attr("price");
        let q = SelectQuery::new(vec![Predicate::between(price, 15_000i64, 20_000i64)]);
        let base = ed.select(&q);
        assert!(!base.is_empty());
        let rewrites = generate_rewrites(&q, &base, &stats);
        // Price has a {year, model}-flavoured determining set; rewrites
        // must exist and have meaningful precision.
        assert!(!rewrites.is_empty());
        assert!(rewrites.iter().any(|r| r.precision > 0.3));
    }
}
