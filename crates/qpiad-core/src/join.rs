//! Join queries over two incomplete autonomous sources (§4.5).
//!
//! A join query posed to the mediator splits into one selection per
//! relation. Each side contributes its *complete* query (the original
//! selection) plus rewritten queries; the mediator then scores every
//! **query pair** — precision `p1·p2`, selectivity from the expected overlap
//! of the two sides' join-attribute value distributions — orders pairs by
//! F-measure, issues the top-K pairs' component queries (each component only
//! once), and joins the results, predicting missing join-attribute values
//! with the classifiers.

use std::collections::{HashMap, HashSet};

use qpiad_db::fault::RetryPolicy;
use qpiad_db::{
    AttrId, AutonomousSource, JoinQuery, PredOp, SelectQuery, SourceError, Tuple, TupleId, Value,
};
use qpiad_learn::knowledge::SourceStats;

use crate::mediator::{Degradation, QueryContext};
use crate::plan::{self, AdmissionMode, BaseGate, EntryStatus, MediationPlan, PlanEntry};
use crate::rank::f_measure;
use crate::rewrite::{generate_rewrites, RewrittenQuery};

/// Join processing configuration.
#[derive(Debug, Clone, Copy)]
pub struct JoinConfig {
    /// F-measure α for pair ordering. The paper recommends α > 0 here:
    /// pure precision ordering tends to starve one side of possible
    /// answers (§6.6).
    pub alpha: f64,
    /// Number of query pairs to issue.
    pub k_pairs: usize,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            alpha: 0.5,
            k_pairs: 10,
        }
    }
}

/// One side of the join: the source and its mined statistics.
pub struct JoinSide<'a> {
    /// The autonomous source.
    pub source: &'a dyn AutonomousSource,
    /// Statistics mined from the source's sample.
    pub stats: &'a SourceStats,
}

/// A joined result tuple.
#[derive(Debug, Clone)]
pub struct JoinedTuple {
    /// The left tuple.
    pub left: Tuple,
    /// The right tuple.
    pub right: Tuple,
    /// The join-attribute value the pair agreed on.
    pub join_value: Value,
    /// Combined relevance: product of both sides' tuple confidences and of
    /// any predicted-join-value probabilities.
    pub confidence: f64,
    /// Rank of the issuing query pair.
    pub pair_index: usize,
    /// Whether the left tuple is a certain answer of the left selection
    /// (with a stored, non-predicted join value).
    pub left_certain: bool,
    /// Whether the right tuple is a certain answer of the right selection.
    pub right_certain: bool,
}

impl JoinedTuple {
    /// `true` iff both sides certainly match and no join value was
    /// predicted — the joined tuple a conventional mediator would also
    /// produce.
    pub fn is_certain(&self) -> bool {
        self.left_certain && self.right_certain
    }
}

/// The join answer: joined tuples in pair-rank order.
#[derive(Debug, Clone, Default)]
pub struct JoinAnswer {
    /// Joined tuples (certain joins first — they come from the
    /// highest-precision pair).
    pub results: Vec<JoinedTuple>,
    /// How many query pairs were issued.
    pub pairs_issued: usize,
}

/// One side's candidate query with everything pair scoring needs.
struct Candidate {
    query: SelectQuery,
    precision: f64,
    est_size: f64,
    /// Distribution over join-attribute values among the tuples this query
    /// is expected to retrieve.
    join_dist: HashMap<Value, f64>,
}

/// A per-tuple record after side-local post-filtering.
struct Qualified {
    tuple: Tuple,
    confidence: f64,
    join_value: Value,
    /// Certain answer of the side's selection with a stored join value.
    certain: bool,
}

/// Answers a join query over two incomplete sources.
pub fn answer_join(
    left: &JoinSide<'_>,
    right: &JoinSide<'_>,
    config: &JoinConfig,
    query: &JoinQuery,
) -> Result<JoinAnswer, SourceError> {
    // Step 1: base sets. Joins run unguarded (no breaker/budget of their
    // own), so the shared executor sees an unbounded context and a
    // single-attempt policy throughout.
    let retry = RetryPolicy::none();
    let base_l = {
        let mut ctx = QueryContext::unbounded();
        let mut degraded = Degradation::default();
        plan::execute_base(
            left.source,
            &query.left,
            &retry,
            &mut ctx,
            &mut degraded,
            BaseGate::Guarded,
        )?
    };
    let base_r = {
        let mut ctx = QueryContext::unbounded();
        let mut degraded = Degradation::default();
        plan::execute_base(
            right.source,
            &query.right,
            &retry,
            &mut ctx,
            &mut degraded,
            BaseGate::Guarded,
        )?
    };

    // Steps 2–3: candidate queries with join-value distributions.
    let cands_l = candidates(left, &query.left, &base_l, query.left_attr);
    let cands_r = candidates(right, &query.right, &base_r, query.right_attr);

    // Step 3c: pair scoring.
    let mut pairs: Vec<(f64, f64, usize, usize)> = Vec::new(); // (F placeholder via sel, precision, i, j)
    let mut sels: Vec<f64> = Vec::new();
    for (i, cl) in cands_l.iter().enumerate() {
        for (j, cr) in cands_r.iter().enumerate() {
            let sel = pair_selectivity(cl, cr);
            let precision = cl.precision * cr.precision;
            pairs.push((sel, precision, i, j));
            sels.push(sel);
        }
    }
    let total_sel: f64 = sels.iter().sum();

    // Step 4: F-measure ordering, top-K, precision re-ordering.
    let mut scored: Vec<(f64, f64, usize, usize)> = pairs
        .into_iter()
        .map(|(sel, precision, i, j)| {
            let recall = if total_sel > 0.0 {
                sel / total_sel
            } else {
                0.0
            };
            let f = if total_sel > 0.0 {
                f_measure(precision, recall, config.alpha)
            } else {
                precision
            };
            (f, precision, i, j)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| b.1.total_cmp(&a.1))
            .then_with(|| (a.2, a.3).cmp(&(b.2, b.3)))
    });
    scored.truncate(config.k_pairs);
    scored.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then_with(|| (a.2, a.3).cmp(&(b.2, b.3)))
    });

    // Step 5: issue each component query once, per side, in first-needed
    // pair order — one batch plan per side through the shared executor, so
    // the issue order (and any budget cutoff) is exactly what the pair
    // loop would have produced on demand.
    let order_l = first_needed(&scored, |s| s.2);
    let order_r = first_needed(&scored, |s| s.3);
    let cache_l = retrieve_components(
        left,
        &query.left,
        query.left_attr,
        &base_l,
        &cands_l,
        &order_l,
    );
    let cache_r = retrieve_components(
        right,
        &query.right,
        query.right_attr,
        &base_r,
        &cands_r,
        &order_r,
    );
    let mut joined: Vec<JoinedTuple> = Vec::new();
    let mut seen: HashSet<(TupleId, TupleId)> = HashSet::new();
    let mut pairs_issued = 0usize;

    for (pair_index, (_, _, i, j)) in scored.into_iter().enumerate() {
        // A component missing from a side's cache means its query budget
        // ran out before the component could be issued.
        let (Some(lhs), Some(rhs)) = (cache_l.get(&i), cache_r.get(&j)) else {
            continue;
        };
        pairs_issued += 1;

        // Step 6: hash join on (actual or predicted) join values.
        let mut by_value: HashMap<&Value, Vec<&Qualified>> = HashMap::new();
        for q in rhs {
            by_value.entry(&q.join_value).or_default().push(q);
        }
        for ql in lhs {
            let Some(matches) = by_value.get(&ql.join_value) else {
                continue;
            };
            for qr in matches {
                if !seen.insert((ql.tuple.id(), qr.tuple.id())) {
                    continue;
                }
                joined.push(JoinedTuple {
                    left: ql.tuple.clone(),
                    right: qr.tuple.clone(),
                    join_value: ql.join_value.clone(),
                    confidence: ql.confidence * qr.confidence,
                    pair_index,
                    left_certain: ql.certain,
                    right_certain: qr.certain,
                });
            }
        }
    }

    Ok(JoinAnswer {
        results: joined,
        pairs_issued,
    })
}

/// Builds one side's candidate queries: the complete query plus rewrites.
fn candidates(
    side: &JoinSide<'_>,
    select: &SelectQuery,
    base: &[Tuple],
    join_attr: AttrId,
) -> Vec<Candidate> {
    let mut out = Vec::new();

    // The complete query: precision 1, true cardinality, empirical join
    // distribution over its (already retrieved) base set.
    let mut dist: HashMap<Value, f64> = HashMap::new();
    let mut n = 0f64;
    for t in base {
        let v = t.value(join_attr);
        if !v.is_null() {
            *dist.entry(v.clone()).or_default() += 1.0;
            n += 1.0;
        }
    }
    if n > 0.0 {
        for p in dist.values_mut() {
            *p /= n;
        }
    }
    out.push(Candidate {
        query: select.clone(),
        precision: 1.0,
        est_size: base.len() as f64,
        join_dist: dist,
    });

    // Rewritten queries: classifier-based join distribution given the
    // query's equality constraints (point mass when the join attribute is
    // itself constrained).
    for rq in generate_rewrites(select, base, side.stats) {
        let join_dist = match rq.query.predicate_on(join_attr).map(|p| &p.op) {
            Some(PredOp::Eq(v)) => {
                let mut d = HashMap::new();
                d.insert(v.clone(), 1.0);
                d
            }
            _ => {
                let pseudo = pseudo_tuple(side.stats.schema().arity(), &rq.query);
                side.stats
                    .predictor()
                    .distribution(join_attr, &pseudo)
                    .into_iter()
                    .collect()
            }
        };
        out.push(Candidate {
            query: rq.query,
            precision: rq.precision,
            est_size: rq.est_selectivity,
            join_dist,
        });
    }
    out
}

/// A tuple carrying exactly the equality constraints of a query (evidence
/// for the join-value classifier).
fn pseudo_tuple(arity: usize, query: &SelectQuery) -> Tuple {
    let mut values = vec![Value::Null; arity];
    for p in query.predicates() {
        if let PredOp::Eq(v) = &p.op {
            values[p.attr.index()] = v.clone();
        }
    }
    Tuple::new(TupleId(u32::MAX), values)
}

/// Expected number of joined tuples a pair produces (§4.5 step 3):
/// `Σ_v EstSel(q1, v) · EstSel(q2, v)` with
/// `EstSel(q, v) = precision(q) · selectivity(q) · P_q(join = v)`.
fn pair_selectivity(l: &Candidate, r: &Candidate) -> f64 {
    let (small, large) = if l.join_dist.len() <= r.join_dist.len() {
        (l, r)
    } else {
        (r, l)
    };
    small
        .join_dist
        .iter()
        .filter_map(|(v, p_small)| {
            large.join_dist.get(v).map(|p_large| {
                (small.precision * small.est_size * p_small)
                    * (large.precision * large.est_size * p_large)
            })
        })
        .sum()
}

/// The distinct candidate indices of one side, in the order the pair loop
/// first needs them.
fn first_needed<F>(scored: &[(f64, f64, usize, usize)], pick: F) -> Vec<usize>
where
    F: Fn(&(f64, f64, usize, usize)) -> usize,
{
    let mut seen: HashSet<usize> = HashSet::new();
    let mut order = Vec::new();
    for s in scored {
        let i = pick(s);
        if seen.insert(i) {
            order.push(i);
        }
    }
    order
}

/// Issues one side's component queries (each once, in first-needed order)
/// through the shared executor and post-filters the results into qualified
/// join inputs. A component the side's query budget cut off is simply
/// absent from the returned map; index 0 (the complete query) reuses the
/// already-retrieved base set.
fn retrieve_components(
    side: &JoinSide<'_>,
    select: &SelectQuery,
    join_attr: AttrId,
    base: &[Tuple],
    cands: &[Candidate],
    order: &[usize],
) -> HashMap<usize, Vec<Qualified>> {
    let mut cache: HashMap<usize, Vec<Qualified>> = HashMap::new();
    let mut ctx = QueryContext::unbounded();
    let mut degraded = Degradation::default();
    let retry = RetryPolicy::none();
    let mut side_plan = MediationPlan::new(
        side.source.name().to_string(),
        select.clone(),
        retry,
        AdmissionMode::PlanTime,
    );
    // Plan rank → candidate index (index 0 never enters the plan).
    let mut slots: Vec<usize> = Vec::new();
    for &i in order {
        if i == 0 {
            cache.insert(0, qualify(side, select, join_attr, base.to_vec()));
            continue;
        }
        let cand = &cands[i];
        side_plan.push(PlanEntry {
            rewrite: RewrittenQuery {
                query: cand.query.clone(),
                target_attr: join_attr,
                precision: cand.precision,
                est_selectivity: cand.est_size,
                afd: None,
            },
            issue: cand.query.clone(),
            fmeasure: cand.precision,
            status: EntryStatus::Deferred,
        });
        slots.push(i);
    }
    side_plan.admit(&mut ctx, &mut degraded);
    plan::execute(
        side.source,
        &side_plan,
        &mut ctx,
        &mut degraded,
        |rank, _, tuples, _| {
            cache.insert(slots[rank], qualify(side, select, join_attr, tuples));
        },
    );
    cache
}

/// Post-filters one component query's tuples into qualified join inputs.
fn qualify(
    side: &JoinSide<'_>,
    select: &SelectQuery,
    join_attr: AttrId,
    tuples: Vec<Tuple>,
) -> Vec<Qualified> {
    let constrained = select.constrained_attrs();
    let mut qualified = Vec::with_capacity(tuples.len());
    for t in tuples {
        let certain = select.matches(&t);
        if !certain {
            if !select.possibly_matches(&t) {
                continue;
            }
            if t.null_count_among(&constrained) > 1 {
                continue;
            }
        }
        // Tuple-level relevance confidence.
        let mut confidence = 1.0;
        for p in select.predicates() {
            if t.value(p.attr).is_null() {
                confidence *= side.stats.predictor().prob_matching(p.attr, &t, &p.op);
            }
        }
        // Join value: actual, or the completion implied by the possible-
        // answer hypothesis. When the selection constrains the join
        // attribute itself (e.g. `model = Grand Cherokee` joined on model),
        // a tuple missing that value only answers the query if the missing
        // value *is* the queried one — its confidence already carries that
        // probability — so the join value is pinned, not predicted.
        // Otherwise the most likely completion is used (§4.5 step 6).
        let join_is_stored = !t.value(join_attr).is_null();
        let (join_value, join_prob) = {
            let v = t.value(join_attr);
            if !v.is_null() {
                (v.clone(), 1.0)
            } else if let Some(PredOp::Eq(pinned)) = select.predicate_on(join_attr).map(|p| &p.op) {
                (pinned.clone(), 1.0)
            } else {
                match side.stats.predictor().predict(join_attr, &t) {
                    Some((v, p)) => (v, p),
                    None => continue,
                }
            }
        };
        qualified.push(Qualified {
            tuple: t,
            confidence: confidence * join_prob,
            join_value,
            certain: certain && join_is_stored,
        });
    }
    qualified
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::complaints::ComplaintsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::{Predicate, Relation, WebSource};
    use qpiad_learn::knowledge::{MiningConfig, SourceStats};

    fn setup() -> (
        Relation,
        Relation,
        WebSource,
        WebSource,
        SourceStats,
        SourceStats,
    ) {
        let cars_gd = CarsConfig::default().with_rows(6_000).generate(71);
        let comp_gd = ComplaintsConfig { rows: 8_000 }.generate(72);
        let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(1));
        let (comp_ed, _) = corrupt(&comp_gd, &CorruptionConfig::default().with_seed(2));
        let cars_stats = SourceStats::mine(
            &uniform_sample(&cars_ed, 0.10, 3),
            cars_ed.len(),
            &MiningConfig::default(),
        );
        let comp_stats = SourceStats::mine(
            &uniform_sample(&comp_ed, 0.10, 4),
            comp_ed.len(),
            &MiningConfig::default(),
        );
        (
            cars_gd,
            comp_gd,
            WebSource::new("cars.com", cars_ed),
            WebSource::new("complaints", comp_ed),
            cars_stats,
            comp_stats,
        )
    }

    fn paper_query(cars: &WebSource, comps: &WebSource) -> JoinQuery {
        // Figure 13(a): Model = Grand Cherokee ⋈ General Component =
        // Engine and Engine Cooling.
        let model_l = cars.schema().expect_attr("model");
        let model_r = comps.schema().expect_attr("model");
        let gc = comps.schema().expect_attr("general_component");
        JoinQuery {
            left: SelectQuery::new(vec![Predicate::eq(model_l, "Grand Cherokee")]),
            right: SelectQuery::new(vec![Predicate::eq(gc, "Engine and Engine Cooling")]),
            left_attr: model_l,
            right_attr: model_r,
        }
    }

    #[test]
    fn join_produces_certain_and_possible_results() {
        let (_, _, cars, comps, cs, ps) = setup();
        let jq = paper_query(&cars, &comps);
        let ans = answer_join(
            &JoinSide {
                source: &cars,
                stats: &cs,
            },
            &JoinSide {
                source: &comps,
                stats: &ps,
            },
            &JoinConfig::default(),
            &jq,
        )
        .unwrap();
        assert!(!ans.results.is_empty());
        assert!(ans.pairs_issued > 0 && ans.pairs_issued <= 10);
        let certain = ans.results.iter().filter(|j| j.is_certain()).count();
        assert!(certain > 0, "certain ⋈ certain pairs must join");
        // All joined tuples agree on the join value.
        for j in &ans.results {
            assert!(!j.join_value.is_null());
            assert!((0.0..=1.0 + 1e-9).contains(&j.confidence));
        }
    }

    #[test]
    fn join_values_agree_with_tuples_or_predictions() {
        let (_, _, cars, comps, cs, ps) = setup();
        let jq = paper_query(&cars, &comps);
        let ans = answer_join(
            &JoinSide {
                source: &cars,
                stats: &cs,
            },
            &JoinSide {
                source: &comps,
                stats: &ps,
            },
            &JoinConfig::default(),
            &jq,
        )
        .unwrap();
        for j in &ans.results {
            let lv = j.left.value(jq.left_attr);
            let rv = j.right.value(jq.right_attr);
            if !lv.is_null() {
                assert_eq!(lv, &j.join_value);
            }
            if !rv.is_null() {
                assert_eq!(rv, &j.join_value);
            }
        }
    }

    #[test]
    fn no_duplicate_joined_pairs() {
        let (_, _, cars, comps, cs, ps) = setup();
        let jq = paper_query(&cars, &comps);
        let ans = answer_join(
            &JoinSide {
                source: &cars,
                stats: &cs,
            },
            &JoinSide {
                source: &comps,
                stats: &ps,
            },
            &JoinConfig {
                alpha: 2.0,
                k_pairs: 20,
            },
            &jq,
        )
        .unwrap();
        let mut keys: Vec<(TupleId, TupleId)> = ans
            .results
            .iter()
            .map(|j| (j.left.id(), j.right.id()))
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn alpha_zero_is_precision_heavy() {
        let (_, _, cars, comps, cs, ps) = setup();
        let jq = paper_query(&cars, &comps);
        let precise = answer_join(
            &JoinSide {
                source: &cars,
                stats: &cs,
            },
            &JoinSide {
                source: &comps,
                stats: &ps,
            },
            &JoinConfig {
                alpha: 0.0,
                k_pairs: 10,
            },
            &jq,
        )
        .unwrap();
        cars.reset_meter();
        comps.reset_meter();
        let recallful = answer_join(
            &JoinSide {
                source: &cars,
                stats: &cs,
            },
            &JoinSide {
                source: &comps,
                stats: &ps,
            },
            &JoinConfig {
                alpha: 2.0,
                k_pairs: 10,
            },
            &jq,
        )
        .unwrap();
        // Higher α admits lower-precision, higher-throughput pairs, so it
        // should never return fewer results here.
        assert!(recallful.results.len() >= precise.results.len());
    }

    #[test]
    fn join_survives_source_query_budgets() {
        let (_, _, cars, comps, cs, ps) = setup();
        let jq = paper_query(&cars, &comps);
        // Rebuild the complaints source with a tight budget: base query + 2.
        let limited = WebSource::new("complaints", comps.relation().clone()).with_query_limit(3);
        let ans = answer_join(
            &JoinSide {
                source: &cars,
                stats: &cs,
            },
            &JoinSide {
                source: &limited,
                stats: &ps,
            },
            &JoinConfig {
                alpha: 0.5,
                k_pairs: 10,
            },
            &jq,
        )
        .expect("budget exhaustion is not fatal");
        // Certain pairs still come through (the base sets were retrieved).
        assert!(ans.results.iter().any(|j| j.is_certain()));
    }

    #[test]
    fn pair_selectivity_requires_overlap() {
        let a = Candidate {
            query: SelectQuery::all(),
            precision: 1.0,
            est_size: 10.0,
            join_dist: [(Value::str("x"), 1.0)].into_iter().collect(),
        };
        let b = Candidate {
            query: SelectQuery::all(),
            precision: 1.0,
            est_size: 10.0,
            join_dist: [(Value::str("y"), 1.0)].into_iter().collect(),
        };
        assert_eq!(pair_selectivity(&a, &b), 0.0);
        let c = Candidate {
            query: SelectQuery::all(),
            precision: 0.5,
            est_size: 10.0,
            join_dist: [(Value::str("x"), 0.5), (Value::str("y"), 0.5)]
                .into_iter()
                .collect(),
        };
        // a ⋈ c on "x": (1·10·1) · (0.5·10·0.5) = 25.
        assert!((pair_selectivity(&a, &c) - 25.0).abs() < 1e-9);
    }
}
