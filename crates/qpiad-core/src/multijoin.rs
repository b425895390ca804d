//! Multi-way (chain) joins over incomplete autonomous sources.
//!
//! §4.5's footnote notes that the two-way techniques "are applicable to
//! cases involving multi-way joins"; this module is that generalization
//! for left-deep chains `R1 ⋈ R2 ⋈ ... ⋈ Rn`, each hop an equi-join
//! between adjacent relations.
//!
//! Stage `i` retrieves relation `R_{i+1}`'s certain answers plus the
//! possible answers of its top-K rewritten queries (ordered by F-measure,
//! as in the two-way case), predicts missing join values with the side's
//! classifiers — pinning them when the selection constrains the join
//! attribute itself — and hash-joins against the accumulated intermediate
//! result. Confidences multiply along the chain.

use std::collections::HashMap;

use qpiad_db::fault::RetryPolicy;
use qpiad_db::{AttrId, PredOp, SelectQuery, SourceError, Tuple, TupleId, Value};

use crate::join::JoinSide;
use crate::mediator::{Degradation, QueryContext};
use crate::plan::{self, AdmissionMode, BaseGate, EntryStatus, MediationPlan, PlanEntry};
use crate::rank::{order_rewrites, RankConfig};
use crate::rewrite::generate_rewrites;

/// A left-deep chain join query.
#[derive(Debug, Clone)]
pub struct ChainJoinQuery {
    /// One selection per relation, in chain order.
    pub selects: Vec<SelectQuery>,
    /// One hop per adjacent pair: `(attr in relation i, attr in relation
    /// i+1)`. Must have `selects.len() - 1` entries.
    pub hops: Vec<(AttrId, AttrId)>,
}

/// One joined row of the chain: a tuple per relation.
#[derive(Debug, Clone)]
pub struct ChainRow {
    /// One tuple from each relation, in chain order.
    pub tuples: Vec<Tuple>,
    /// Product of per-tuple relevance confidences (1.0 when every tuple is
    /// a certain answer with stored join values).
    pub confidence: f64,
    /// `true` iff every component is a certain answer with a stored join
    /// value.
    pub certain: bool,
}

/// The chain-join answer.
#[derive(Debug, Clone, Default)]
pub struct ChainJoinAnswer {
    /// Joined rows, certain-heavy prefixes first (sides are retrieved in
    /// precision order).
    pub rows: Vec<ChainRow>,
}

/// Per-side retrieval configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChainJoinConfig {
    /// F-measure α for per-side rewritten-query ordering.
    pub alpha: f64,
    /// Rewritten queries issued per side.
    pub k_per_side: usize,
}

impl Default for ChainJoinConfig {
    fn default() -> Self {
        ChainJoinConfig {
            alpha: 0.5,
            k_per_side: 8,
        }
    }
}

/// One retrieved tuple with its relevance confidence and certainty flag.
struct SideTuple {
    tuple: Tuple,
    confidence: f64,
    certain: bool,
}

/// Retrieves a side's certain answers plus the possible answers of its
/// top-K rewrites, with confidences.
fn retrieve_side(
    side: &JoinSide<'_>,
    select: &SelectQuery,
    config: &ChainJoinConfig,
) -> Result<Vec<SideTuple>, SourceError> {
    // Chain joins run unguarded (no breaker/budget of their own), so the
    // shared executor sees an unbounded context and a single-attempt
    // policy; a rewrite the source still fails is degraded, not fatal.
    let mut ctx = QueryContext::unbounded();
    let mut degraded = Degradation::default();
    let retry = RetryPolicy::none();
    let base = plan::execute_base(
        side.source,
        select,
        &retry,
        &mut ctx,
        &mut degraded,
        BaseGate::Guarded,
    )?;
    let mut seen: HashMap<TupleId, ()> = base.iter().map(|t| (t.id(), ())).collect();
    let mut out: Vec<SideTuple> = base
        .into_iter()
        .map(|tuple| SideTuple {
            tuple,
            confidence: 1.0,
            certain: true,
        })
        .collect();

    let rewrites = generate_rewrites(
        select,
        &out.iter().map(|s| s.tuple.clone()).collect::<Vec<_>>(),
        side.stats,
    );
    let ordered = order_rewrites(
        rewrites,
        &RankConfig {
            alpha: config.alpha,
            k: config.k_per_side,
        },
    );
    let mut plan = MediationPlan::new(
        side.source.name().to_string(),
        select.clone(),
        retry,
        AdmissionMode::PlanTime,
    );
    for scored in ordered {
        plan.push(PlanEntry {
            issue: scored.rewrite.query.clone(),
            rewrite: scored.rewrite,
            fmeasure: scored.fmeasure,
            status: EntryStatus::Deferred,
        });
    }
    plan.admit(&mut ctx, &mut degraded);

    let constrained = select.constrained_attrs();
    plan::execute(
        side.source,
        &plan,
        &mut ctx,
        &mut degraded,
        |_, _, result, _| {
            for t in result {
                if seen.insert(t.id(), ()).is_some() {
                    continue;
                }
                if select.matches(&t) {
                    out.push(SideTuple {
                        tuple: t,
                        confidence: 1.0,
                        certain: true,
                    });
                    continue;
                }
                if !select.possibly_matches(&t) || t.null_count_among(&constrained) > 1 {
                    continue;
                }
                let mut confidence = 1.0;
                for p in select.predicates() {
                    if t.value(p.attr).is_null() {
                        confidence *= side.stats.predictor().prob_matching(p.attr, &t, &p.op);
                    }
                }
                out.push(SideTuple {
                    tuple: t,
                    confidence,
                    certain: false,
                });
            }
        },
    );
    Ok(out)
}

/// The join key of one tuple: actual value, pinned selection value, or most
/// likely completion — mirroring the two-way semantics.
fn join_key(
    side: &JoinSide<'_>,
    select: &SelectQuery,
    join_attr: AttrId,
    tuple: &Tuple,
) -> Option<(Value, f64, bool)> {
    let v = tuple.value(join_attr);
    if !v.is_null() {
        return Some((v.clone(), 1.0, true));
    }
    if let Some(PredOp::Eq(pinned)) = select.predicate_on(join_attr).map(|p| &p.op) {
        // The possible-answer hypothesis already carries the probability.
        return Some((pinned.clone(), 1.0, false));
    }
    side.stats
        .predictor()
        .predict(join_attr, tuple)
        .map(|(v, p)| (v, p, false))
}

/// Answers a left-deep chain join.
///
/// # Panics
///
/// Panics if `sides`, `query.selects` and `query.hops` lengths are
/// inconsistent or fewer than two relations are given.
pub fn answer_chain_join(
    sides: &[JoinSide<'_>],
    config: &ChainJoinConfig,
    query: &ChainJoinQuery,
) -> Result<ChainJoinAnswer, SourceError> {
    assert!(
        sides.len() >= 2,
        "a chain join needs at least two relations"
    );
    assert_eq!(
        sides.len(),
        query.selects.len(),
        "one selection per relation"
    );
    assert_eq!(
        sides.len() - 1,
        query.hops.len(),
        "one hop per adjacent pair"
    );

    // Seed: relation 0.
    let first = retrieve_side(&sides[0], &query.selects[0], config)?;
    let mut rows: Vec<ChainRow> = first
        .into_iter()
        .map(|s| ChainRow {
            tuples: vec![s.tuple],
            confidence: s.confidence,
            certain: s.certain,
        })
        .collect();

    for (hop, (left_attr, right_attr)) in query.hops.iter().enumerate() {
        let side = &sides[hop + 1];
        let select = &query.selects[hop + 1];
        let right = retrieve_side(side, select, config)?;

        // Bucket the new side by join key.
        let mut by_key: HashMap<Value, Vec<(usize, f64, bool)>> = HashMap::new();
        let mut keyed: Vec<SideTuple> = Vec::with_capacity(right.len());
        for s in right {
            if let Some((key, prob, stored)) = join_key(side, select, *right_attr, &s.tuple) {
                by_key.entry(key).or_default().push((
                    keyed.len(),
                    s.confidence * prob,
                    s.certain && stored,
                ));
                keyed.push(s);
            }
        }

        // Extend each intermediate row.
        let left_side = &sides[hop];
        let left_select = &query.selects[hop];
        let mut next: Vec<ChainRow> = Vec::new();
        for row in rows {
            // Rows are seeded with one tuple and only ever grow; an empty
            // row would be a construction bug — drop it, don't panic.
            let Some(left_tuple) = row.tuples.last() else {
                continue;
            };
            let Some((key, prob, stored)) =
                join_key(left_side, left_select, *left_attr, left_tuple)
            else {
                continue;
            };
            let Some(matches) = by_key.get(&key) else {
                continue;
            };
            for (idx, right_conf, right_certain) in matches {
                let mut tuples = row.tuples.clone();
                tuples.push(keyed[*idx].tuple.clone());
                next.push(ChainRow {
                    tuples,
                    confidence: row.confidence * prob * right_conf,
                    certain: row.certain && stored && *right_certain,
                });
            }
        }
        rows = next;
    }

    // Certain rows first, then by confidence.
    rows.sort_by(|a, b| {
        b.certain
            .cmp(&a.certain)
            .then_with(|| b.confidence.total_cmp(&a.confidence))
    });
    Ok(ChainJoinAnswer { rows })
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

    fn mine(ed: &Relation, seed: u64) -> SourceStats {
        SourceStats::mine(
            &uniform_sample(ed, 0.10, seed),
            ed.len(),
            &MiningConfig::default(),
        )
    }

    /// Chain: Cars ⋈_model Complaints ⋈_model Cars' (a second car source) —
    /// "cars of a model with engine complaints, listed on both markets".
    #[test]
    fn three_way_chain_joins() {
        let cars_gd = CarsConfig::default().with_rows(4_000).generate(81);
        let comp_gd = ComplaintsConfig { rows: 6_000 }.generate(82);
        let cars2_gd = CarsConfig::default().with_rows(4_000).generate(83);
        let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(1));
        let (comp_ed, _) = corrupt(&comp_gd, &CorruptionConfig::default().with_seed(2));
        let (cars2_ed, _) = corrupt(&cars2_gd, &CorruptionConfig::default().with_seed(3));
        let s1 = mine(&cars_ed, 4);
        let s2 = mine(&comp_ed, 5);
        let s3 = mine(&cars2_ed, 6);
        let cars = WebSource::new("cars", cars_ed);
        let comps = WebSource::new("complaints", comp_ed);
        let cars2 = WebSource::new("cars2", cars2_ed);

        let model_c = cars.relation().schema().expect_attr("model");
        let model_k = comps.relation().schema().expect_attr("model");
        let gc = comps.relation().schema().expect_attr("general_component");
        let body = cars.relation().schema().expect_attr("body_style");

        let query = ChainJoinQuery {
            selects: vec![
                SelectQuery::new(vec![Predicate::eq(body, "Truck")]),
                SelectQuery::new(vec![Predicate::eq(gc, "Power Train")]),
                SelectQuery::all(),
            ],
            hops: vec![(model_c, model_k), (model_k, model_c)],
        };
        let sides = [
            JoinSide {
                source: &cars,
                stats: &s1,
            },
            JoinSide {
                source: &comps,
                stats: &s2,
            },
            JoinSide {
                source: &cars2,
                stats: &s3,
            },
        ];
        let ans = answer_chain_join(&sides, &ChainJoinConfig::default(), &query).unwrap();
        assert!(!ans.rows.is_empty());

        for row in &ans.rows {
            assert_eq!(row.tuples.len(), 3);
            assert!((0.0..=1.0 + 1e-9).contains(&row.confidence));
            // Stored join values must agree along the chain.
            let m0 = row.tuples[0].value(model_c);
            let m1 = row.tuples[1].value(model_k);
            let m2 = row.tuples[2].value(model_c);
            for pair in [(m0, m1), (m1, m2)] {
                if !pair.0.is_null() && !pair.1.is_null() {
                    assert_eq!(pair.0, pair.1);
                }
            }
        }
        // Certain rows exist and are sorted first with confidence 1.
        assert!(ans.rows[0].certain);
        assert!((ans.rows[0].confidence - 1.0).abs() < 1e-9);
        let first_uncertain = ans.rows.iter().position(|r| !r.certain);
        if let Some(idx) = first_uncertain {
            assert!(ans.rows[idx..].iter().all(|r| !r.certain));
        }
    }

    #[test]
    fn two_way_chain_agrees_with_certain_join_semantics() {
        let cars_gd = CarsConfig::default().with_rows(3_000).generate(84);
        let comp_gd = ComplaintsConfig { rows: 4_000 }.generate(85);
        let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(7));
        let (comp_ed, _) = corrupt(&comp_gd, &CorruptionConfig::default().with_seed(8));
        let s1 = mine(&cars_ed, 9);
        let s2 = mine(&comp_ed, 10);
        let model_c = cars_ed.schema().expect_attr("model");
        let model_k = comp_ed.schema().expect_attr("model");
        let gc = comp_ed.schema().expect_attr("general_component");

        // Certain part of the chain join must equal the nested-loop join of
        // the two certain answer sets.
        let left_q = SelectQuery::new(vec![Predicate::eq(model_c, "F150")]);
        let right_q = SelectQuery::new(vec![Predicate::eq(gc, "Brakes")]);
        let expected: usize = {
            let l = cars_ed.select(&left_q);
            let r = comp_ed.select(&right_q);
            l.iter()
                .map(|lt| {
                    r.iter()
                        .filter(|rt| {
                            !lt.value(model_c).is_null() && lt.value(model_c) == rt.value(model_k)
                        })
                        .count()
                })
                .sum()
        };

        let cars = WebSource::new("cars", cars_ed);
        let comps = WebSource::new("complaints", comp_ed);
        let query = ChainJoinQuery {
            selects: vec![left_q, right_q],
            hops: vec![(model_c, model_k)],
        };
        let sides = [
            JoinSide {
                source: &cars,
                stats: &s1,
            },
            JoinSide {
                source: &comps,
                stats: &s2,
            },
        ];
        let ans = answer_chain_join(&sides, &ChainJoinConfig::default(), &query).unwrap();
        let certain = ans.rows.iter().filter(|r| r.certain).count();
        assert_eq!(certain, expected);
    }

    #[test]
    fn pinned_join_keys_follow_the_selection_hypothesis() {
        // A side whose selection constrains the join attribute itself: its
        // null-join-value possible answers must join under the *pinned*
        // selection value, never a classifier argmax pointing elsewhere.
        let cars_gd = CarsConfig::default().with_rows(6_000).generate(87);
        let comp_gd = ComplaintsConfig { rows: 8_000 }.generate(88);
        let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(12));
        let (comp_ed, _) = corrupt(&comp_gd, &CorruptionConfig::default().with_seed(13));
        let s1 = mine(&cars_ed, 14);
        let s2 = mine(&comp_ed, 15);
        let model_c = cars_ed.schema().expect_attr("model");
        let model_k = comp_ed.schema().expect_attr("model");
        let cars = WebSource::new("cars", cars_ed);
        let comps = WebSource::new("complaints", comp_ed);

        let query = ChainJoinQuery {
            selects: vec![
                SelectQuery::new(vec![Predicate::eq(model_c, "F150")]),
                SelectQuery::all(),
            ],
            hops: vec![(model_c, model_k)],
        };
        let sides = [
            JoinSide {
                source: &cars,
                stats: &s1,
            },
            JoinSide {
                source: &comps,
                stats: &s2,
            },
        ];
        let ans = answer_chain_join(&sides, &ChainJoinConfig::default(), &query).unwrap();
        for row in &ans.rows {
            // Any left tuple with a stored model is F150; any with a null
            // model must have been joined under the pinned hypothesis, so
            // its right partner is an F150 complaint.
            let left_model = row.tuples[0].value(model_c);
            let right_model = row.tuples[1].value(model_k);
            if left_model.is_null() {
                if !right_model.is_null() {
                    assert_eq!(right_model, &qpiad_db::Value::str("F150"));
                }
            } else {
                assert_eq!(left_model, &qpiad_db::Value::str("F150"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_relation_chains() {
        let cars_gd = CarsConfig::default().with_rows(100).generate(86);
        let stats = mine(&cars_gd, 11);
        let cars = WebSource::new("cars", cars_gd.clone());
        let query = ChainJoinQuery {
            selects: vec![SelectQuery::all()],
            hops: vec![],
        };
        let _ = answer_chain_join(
            &[JoinSide {
                source: &cars,
                stats: &stats,
            }],
            &ChainJoinConfig::default(),
            &query,
        );
    }
}
