//! TANE-style levelwise discovery of AFDs and AKeys (§5.1, [12, 19]).
//!
//! The search enumerates determining sets level by level (size 1, 2, ...,
//! `max_lhs`), computing each set's stripped partition as a product of the
//! previous level's partition with a single-attribute partition. For every
//! candidate `X → A` the confidence is `1 − g3(X → A)`; for every candidate
//! set `X` the AKey confidence is `1 − g3_key(X)`.
//!
//! Two standard reductions keep the output useful:
//!
//! * **Minimality** — since `g3` is monotone (adding lhs attributes never
//!   decreases confidence), unconstrained search would always prefer the
//!   widest determining set. An AFD `X → A` is emitted only if it improves
//!   on every immediate subset by at least `minimality_epsilon`.
//! * **Superkey pruning** — a set whose partition is all singletons is a
//!   key; its supersets determine everything trivially and are never useful
//!   for prediction, so they are not expanded.
//!
//! Within a level every candidate's partition product and `g3` errors are
//! independent, so they are evaluated across the [`qpiad_db::par`] worker
//! pool. Candidate enumeration and all pruning/minimality decisions stay in
//! sequential passes over the index-ordered results, which makes the output
//! byte-identical at any thread count.

use std::collections::HashMap;

use qpiad_db::par;
use qpiad_db::{AttrId, Relation};

use crate::afd::{AKey, Afd};
use crate::partition::StrippedPartition;

/// Parameters of the levelwise search.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TaneConfig {
    /// Minimum confidence β for an AFD to be reported.
    pub min_conf: f64,
    /// Maximum determining-set size.
    pub max_lhs: usize,
    /// Minimum confidence improvement over every immediate subset for a
    /// wider determining set to be reported.
    pub minimality_epsilon: f64,
    /// Minimum confidence for an AKey to be reported.
    pub akey_min_conf: f64,
    /// Near-key suppression: a set whose AKey confidence reaches this
    /// threshold is never used as a determining set and never expanded —
    /// its value combinations are mostly unique, so a classifier built on
    /// it cannot generalize (the in-search form of the §5.1 pruning rule).
    pub near_key_conf: f64,
}

impl Default for TaneConfig {
    fn default() -> Self {
        TaneConfig {
            min_conf: 0.3,
            max_lhs: 3,
            minimality_epsilon: 0.05,
            akey_min_conf: 0.8,
            near_key_conf: 0.5,
        }
    }
}

/// The discovery output.
#[derive(Debug, Clone, Default)]
pub struct TaneResult {
    /// All minimal AFDs with confidence ≥ β.
    pub afds: Vec<Afd>,
    /// All attribute sets (up to `max_lhs`) with AKey confidence ≥ the
    /// configured threshold.
    pub akeys: Vec<AKey>,
    /// AKey confidence of every evaluated attribute set (used by the
    /// pruning rule).
    pub akey_conf: HashMap<Vec<AttrId>, f64>,
}

impl TaneResult {
    /// AKey confidence of a set, falling back to the best evaluated subset
    /// (monotone lower bound) when the exact set was pruned from the search.
    pub fn akey_confidence(&self, attrs: &[AttrId]) -> f64 {
        if let Some(c) = self.akey_conf.get(attrs) {
            return *c;
        }
        // Monotone lower bound over single attributes.
        attrs
            .iter()
            .filter_map(|a| self.akey_conf.get(std::slice::from_ref(a)))
            .fold(0.0, |acc, c| acc.max(*c))
    }
}

/// Runs the levelwise search over a (sampled) relation.
/// One candidate set's parallel evaluation: its product partition, AKey
/// confidence, and (unless near-key-suppressed) each rhs's g3 confidence.
type CandidateEval = (StrippedPartition, f64, Vec<(AttrId, f64)>);

pub fn discover(relation: &Relation, config: &TaneConfig) -> TaneResult {
    let attrs: Vec<AttrId> = relation.schema().attr_ids().collect();
    let n = relation.len();
    let mut result = TaneResult::default();
    if n == 0 || attrs.is_empty() {
        return result;
    }

    // Single-attribute partitions and lookups, reused throughout. Each
    // column's partition is independent work.
    let singles: Vec<StrippedPartition> =
        par::parallel_map(&attrs, |a| StrippedPartition::from_column(relation, *a));
    let lookups: Vec<Vec<u32>> = par::parallel_map(&singles, StrippedPartition::lookup);

    // conf[(lhs, rhs)] for the minimality check.
    let mut conf_map: HashMap<(Vec<AttrId>, AttrId), f64> = HashMap::new();

    // Level-1 g3 errors: one unit of work per (lhs attribute, rhs attribute)
    // pair, evaluated in parallel, consumed in attribute order below.
    let single_confs: Vec<Vec<f64>> = par::parallel_map_indexed(attrs.len(), |i| {
        (0..attrs.len())
            .map(|j| {
                if i == j {
                    0.0
                } else {
                    1.0 - singles[i].g3_error(&lookups[j])
                }
            })
            .collect()
    });

    // Current level: (sorted attr set, partition). Level 1 seeds it.
    let mut level: Vec<(Vec<AttrId>, StrippedPartition)> = Vec::new();
    for (i, a) in attrs.iter().enumerate() {
        let set = vec![*a];
        let key_conf = 1.0 - singles[i].g3_key_error();
        result.akey_conf.insert(set.clone(), key_conf);
        if key_conf >= config.akey_min_conf {
            result.akeys.push(AKey::new(set.clone(), key_conf));
        }
        if key_conf >= config.near_key_conf {
            continue; // near-key attribute: useless determining set
        }
        for (j, rhs) in attrs.iter().enumerate() {
            if i == j {
                continue;
            }
            let conf = single_confs[i][j];
            conf_map.insert((set.clone(), *rhs), conf);
            if conf >= config.min_conf {
                result.afds.push(Afd::new(set.clone(), *rhs, conf));
            }
        }
        if !singles[i].classes().is_empty() {
            level.push((set, singles[i].clone()));
        }
    }

    for _ in 2..=config.max_lhs {
        // Enumerate the level's candidates sequentially (the dedup depends
        // on enumeration order) before any evaluation.
        let mut candidates: Vec<(usize, usize, Vec<AttrId>)> = Vec::new();
        let mut seen: HashMap<Vec<AttrId>, ()> = HashMap::new();
        for (parent, (set, _)) in level.iter().enumerate() {
            let last = *set.last().expect("non-empty set");
            for (k, extend) in attrs.iter().enumerate() {
                // Extend with attributes after the last one to enumerate
                // each combination once.
                if *extend <= last {
                    continue;
                }
                let mut new_set = set.clone();
                new_set.push(*extend);
                if seen.insert(new_set.clone(), ()).is_some() {
                    continue;
                }
                candidates.push((parent, k, new_set));
            }
        }

        // Independent per candidate: the partition product, its AKey
        // confidence, and (unless near-key-suppressed) every rhs's g3
        // confidence.
        let evaluated: Vec<CandidateEval> =
            par::parallel_map(&candidates, |(parent, k, new_set)| {
                let p = level[*parent].1.product(&lookups[*k]);
                let key_conf = 1.0 - p.g3_key_error();
                let rhs_confs = if key_conf >= config.near_key_conf {
                    Vec::new() // pruned below; skip the rhs scans
                } else {
                    attrs
                        .iter()
                        .enumerate()
                        .filter(|(_, rhs)| !new_set.contains(rhs))
                        .map(|(j, rhs)| (*rhs, 1.0 - p.g3_error(&lookups[j])))
                        .collect()
                };
                (p, key_conf, rhs_confs)
            });

        // Emit in enumeration order. Minimality only consults immediate
        // subsets, which are one level down and thus already in conf_map.
        let mut next: Vec<(Vec<AttrId>, StrippedPartition)> = Vec::new();
        for ((_, _, new_set), (p, key_conf, rhs_confs)) in candidates.into_iter().zip(evaluated) {
            result.akey_conf.insert(new_set.clone(), key_conf);
            if key_conf >= config.akey_min_conf {
                result.akeys.push(AKey::new(new_set.clone(), key_conf));
            }
            if key_conf >= config.near_key_conf {
                continue; // near-key set: neither emit nor expand
            }
            for (rhs, conf) in rhs_confs {
                conf_map.insert((new_set.clone(), rhs), conf);
                if conf < config.min_conf {
                    continue;
                }
                // Minimality: every immediate subset must be beaten by at
                // least epsilon.
                let minimal = immediate_subsets(&new_set).all(|sub| {
                    conf_map
                        .get(&(sub, rhs))
                        .map(|c| conf - c >= config.minimality_epsilon)
                        .unwrap_or(true)
                });
                if minimal {
                    result.afds.push(Afd::new(new_set.clone(), rhs, conf));
                }
            }
            if !p.classes().is_empty() {
                next.push((new_set, p));
            }
        }
        level = next;
        if level.is_empty() {
            break;
        }
    }

    result
}

fn immediate_subsets(set: &[AttrId]) -> impl Iterator<Item = Vec<AttrId>> + '_ {
    (0..set.len()).map(move |skip| {
        set.iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, a)| *a)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrType, Schema, Tuple, TupleId, Value};

    /// Builds a relation where:
    /// * `model → make` holds exactly,
    /// * `model → body` holds with one violation,
    /// * `vin` is a key.
    fn fixture() -> Relation {
        let schema = Schema::of(
            "cars",
            &[
                ("vin", AttrType::Categorical),
                ("make", AttrType::Categorical),
                ("model", AttrType::Categorical),
                ("body", AttrType::Categorical),
            ],
        );
        let rows = [
            ("v1", "Honda", "Civic", "Sedan"),
            ("v2", "Honda", "Civic", "Sedan"),
            ("v3", "Honda", "Civic", "Sedan"),
            ("v4", "Honda", "Civic", "Coupe"), // the violation
            ("v5", "Honda", "Accord", "Sedan"),
            ("v6", "Honda", "Accord", "Sedan"),
            ("v7", "BMW", "Z4", "Convt"),
            ("v8", "BMW", "Z4", "Convt"),
            ("v9", "BMW", "Z4", "Convt"),
            ("v10", "BMW", "Z4", "Convt"),
        ];
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(i, (v, mk, md, b))| {
                Tuple::new(
                    TupleId(i as u32),
                    vec![Value::str(v), Value::str(mk), Value::str(md), Value::str(b)],
                )
            })
            .collect();
        Relation::new(schema, tuples)
    }

    fn find<'a>(afds: &'a [Afd], lhs: &[usize], rhs: usize) -> Option<&'a Afd> {
        let lhs: Vec<AttrId> = lhs.iter().map(|i| AttrId(*i)).collect();
        afds.iter().find(|a| a.lhs == lhs && a.rhs == AttrId(rhs))
    }

    #[test]
    fn finds_exact_and_approximate_dependencies() {
        let r = fixture();
        let res = discover(&r, &TaneConfig::default());
        // model → make exact.
        let afd = find(&res.afds, &[2], 1).expect("model → make");
        assert!((afd.confidence - 1.0).abs() < 1e-12);
        // model → body with one violation out of 10 rows.
        let afd = find(&res.afds, &[2], 3).expect("model → body");
        assert!((afd.confidence - 0.9).abs() < 1e-12);
    }

    #[test]
    fn reports_keys_as_akeys() {
        let r = fixture();
        let res = discover(&r, &TaneConfig::default());
        let vin_key = res
            .akeys
            .iter()
            .find(|k| k.attrs == vec![AttrId(0)])
            .expect("vin AKey");
        assert!((vin_key.confidence - 1.0).abs() < 1e-12);
        assert_eq!(res.akey_confidence(&[AttrId(0)]), 1.0);
    }

    #[test]
    fn akey_confidence_falls_back_to_subsets() {
        let r = fixture();
        let res = discover(&r, &TaneConfig::default());
        // {vin, make} was never expanded (vin is a key) but the fallback
        // still reports a high lower bound.
        assert!(res.akey_confidence(&[AttrId(0), AttrId(1)]) >= 1.0 - 1e-12);
    }

    #[test]
    fn minimality_suppresses_redundant_supersets() {
        let r = fixture();
        let res = discover(&r, &TaneConfig::default());
        // {model, make} → body adds nothing over {model} → body.
        assert!(find(&res.afds, &[1, 2], 3).is_none());
    }

    #[test]
    fn respects_max_lhs() {
        let r = fixture();
        let res = discover(
            &r,
            &TaneConfig {
                max_lhs: 1,
                ..Default::default()
            },
        );
        assert!(res.afds.iter().all(|a| a.lhs.len() == 1));
    }

    #[test]
    fn empty_relation_yields_nothing() {
        let schema = Schema::of("e", &[("a", AttrType::Integer)]);
        let r = Relation::empty(schema);
        let res = discover(&r, &TaneConfig::default());
        assert!(res.afds.is_empty());
        assert!(res.akeys.is_empty());
    }

    #[test]
    fn two_attribute_determining_sets_emerge_when_needed() {
        // body is determined only by {make, seats} jointly.
        let schema = Schema::of(
            "t",
            &[
                ("make", AttrType::Categorical),
                ("seats", AttrType::Integer),
                ("body", AttrType::Categorical),
            ],
        );
        let rows: Vec<(&str, i64, &str)> = vec![
            ("Honda", 2, "Coupe"),
            ("Honda", 2, "Coupe"),
            ("Honda", 4, "Sedan"),
            ("Honda", 4, "Sedan"),
            ("BMW", 2, "Convt"),
            ("BMW", 2, "Convt"),
            ("BMW", 4, "Wagon"),
            ("BMW", 4, "Wagon"),
        ];
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, (mk, s, b))| {
                Tuple::new(
                    TupleId(i as u32),
                    vec![Value::str(mk), Value::int(s), Value::str(b)],
                )
            })
            .collect();
        let r = Relation::new(schema, tuples);
        // The tiny fixture's {make, seats} classes are size 2, i.e. AKey
        // confidence 0.5 — relax near-key suppression, which targets
        // realistic samples.
        let res = discover(
            &r,
            &TaneConfig {
                near_key_conf: 0.9,
                ..Default::default()
            },
        );
        let afd = find(&res.afds, &[0, 1], 2).expect("{make, seats} → body");
        assert!((afd.confidence - 1.0).abs() < 1e-12);
        // Each single attribute alone reaches confidence 0.5 only.
        let single = find(&res.afds, &[0], 2).unwrap();
        assert!((single.confidence - 0.5).abs() < 1e-12);
    }
}
