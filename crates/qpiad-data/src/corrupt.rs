//! Incompleteness injection with provenance (§6.2).
//!
//! The paper builds its experimental datasets by taking a *ground truth
//! dataset* (GD) of complete tuples, randomly choosing a fraction of tuples
//! (10% in the paper) and nulling one randomly selected attribute in each.
//! The evaluation oracle later needs the true value of each injected null;
//! [`Provenance`] records it.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qpiad_db::{AttrId, Relation, TupleId, Value};

/// How to corrupt a ground-truth relation.
#[derive(Debug, Clone)]
pub struct CorruptionConfig {
    /// Fraction of tuples made incomplete (paper: 0.10).
    pub fraction: f64,
    /// Attributes eligible for nulling; `None` means all attributes.
    pub attrs: Option<Vec<AttrId>>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorruptionConfig {
    fn default() -> Self {
        CorruptionConfig {
            fraction: 0.10,
            attrs: None,
            seed: 0xC0FFEE,
        }
    }
}

impl CorruptionConfig {
    /// Overrides the corrupted fraction.
    pub fn with_fraction(mut self, fraction: f64) -> Self {
        self.fraction = fraction;
        self
    }

    /// Restricts nulling to the given attributes.
    pub fn with_attrs(mut self, attrs: Vec<AttrId>) -> Self {
        self.attrs = Some(attrs);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The record of which values were nulled and what they were.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    truth: HashMap<(TupleId, AttrId), Value>,
}

impl Provenance {
    /// The true (pre-corruption) value of the given cell, if it was nulled.
    pub fn true_value(&self, id: TupleId, attr: AttrId) -> Option<&Value> {
        self.truth.get(&(id, attr))
    }

    /// Number of injected nulls.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// `true` iff nothing was corrupted.
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// Iterates over all `(tuple, attribute, true value)` records.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, AttrId, &Value)> {
        self.truth.iter().map(|((id, a), v)| (*id, *a, v))
    }

    /// Ids of the tuples corrupted on the given attribute.
    pub fn corrupted_on(&self, attr: AttrId) -> impl Iterator<Item = (TupleId, &Value)> {
        self.truth
            .iter()
            .filter(move |((_, a), _)| *a == attr)
            .map(|((id, _), v)| (*id, v))
    }
}

/// Corrupts a ground-truth relation per the configuration, returning the
/// experimental dataset (ED) plus provenance.
///
/// Each selected tuple gets exactly one null, on a uniformly chosen eligible
/// attribute — matching the paper's procedure.
pub fn corrupt(ground: &Relation, config: &CorruptionConfig) -> (Relation, Provenance) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let eligible: Vec<AttrId> = match &config.attrs {
        Some(attrs) => attrs.clone(),
        None => ground.schema().attr_ids().collect(),
    };
    assert!(
        !eligible.is_empty(),
        "no attributes eligible for corruption"
    );

    let mut relation = ground.clone();
    let mut provenance = Provenance::default();
    for t in relation.tuples_mut() {
        if !rng.gen_bool(config.fraction) {
            continue;
        }
        let attr = eligible[rng.gen_range(0..eligible.len())];
        let old = t.value(attr).clone();
        if old.is_null() {
            continue; // already missing; nothing to record
        }
        *t = t.with_value(attr, Value::Null);
        provenance.truth.insert((t.id(), attr), old);
    }
    (relation, provenance)
}

/// Corrupts attributes *independently*: each listed attribute of each tuple
/// is nulled with its own probability. Unlike [`corrupt`], a tuple may lose
/// several values — this models heavily incomplete sources like the
/// Google-Base column of the paper's Table 1.
pub fn corrupt_per_attribute(
    ground: &Relation,
    probs: &[(AttrId, f64)],
    seed: u64,
) -> (Relation, Provenance) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut relation = ground.clone();
    let mut provenance = Provenance::default();
    for t in relation.tuples_mut() {
        for (attr, p) in probs {
            if !rng.gen_bool(*p) {
                continue;
            }
            let old = t.value(*attr).clone();
            if old.is_null() {
                continue;
            }
            *t = t.with_value(*attr, Value::Null);
            provenance.truth.insert((t.id(), *attr), old);
        }
    }
    (relation, provenance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cars::CarsConfig;

    #[test]
    fn corrupts_requested_fraction() {
        let ground = CarsConfig::default().with_rows(10_000).generate(1);
        let (ed, prov) = corrupt(&ground, &CorruptionConfig::default());
        let incomplete = ed.tuples().iter().filter(|t| !t.is_complete()).count();
        assert_eq!(incomplete, prov.len());
        let frac = incomplete as f64 / ed.len() as f64;
        assert!((0.08..0.12).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn exactly_one_null_per_corrupted_tuple() {
        let ground = CarsConfig::default().with_rows(2_000).generate(2);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        for t in ed.tuples() {
            assert!(t.null_attrs().count() <= 1);
        }
    }

    #[test]
    fn provenance_round_trips() {
        let ground = CarsConfig::default().with_rows(2_000).generate(3);
        let (ed, prov) = corrupt(&ground, &CorruptionConfig::default());
        for (id, attr, true_value) in prov.iter() {
            // ED has the null...
            assert!(ed.by_id(id).unwrap().value(attr).is_null());
            // ...and the recorded truth matches GD.
            assert_eq!(ground.by_id(id).unwrap().value(attr), true_value);
        }
    }

    #[test]
    fn attrs_restriction_respected() {
        let ground = CarsConfig::default().with_rows(2_000).generate(4);
        let body = ground.schema().expect_attr("body_style");
        let cfg = CorruptionConfig::default().with_attrs(vec![body]);
        let (ed, prov) = corrupt(&ground, &cfg);
        for (_, attr, _) in prov.iter() {
            assert_eq!(attr, body);
        }
        for t in ed.tuples() {
            for a in t.null_attrs() {
                assert_eq!(a, body);
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let ground = CarsConfig::default().with_rows(1_000).generate(5);
        let (a, _) = corrupt(&ground, &CorruptionConfig::default().with_seed(9));
        let (b, _) = corrupt(&ground, &CorruptionConfig::default().with_seed(9));
        assert_eq!(a.tuples(), b.tuples());
        let (c, _) = corrupt(&ground, &CorruptionConfig::default().with_seed(10));
        assert_ne!(a.tuples(), c.tuples());
    }

    #[test]
    fn per_attribute_corruption_is_independent() {
        let ground = CarsConfig::default().with_rows(5_000).generate(7);
        let body = ground.schema().expect_attr("body_style");
        let mileage = ground.schema().expect_attr("mileage");
        let (ed, prov) = corrupt_per_attribute(&ground, &[(body, 0.5), (mileage, 0.9)], 3);
        let stats = ed.incompleteness();
        assert!((stats.missing_fraction[body.index()] - 0.5).abs() < 0.03);
        assert!((stats.missing_fraction[mileage.index()] - 0.9).abs() < 0.03);
        // Multi-null tuples exist.
        assert!(ed.tuples().iter().any(|t| t.null_attrs().count() == 2));
        // Provenance covers every injected null.
        let nulls: usize = ed.tuples().iter().map(|t| t.null_attrs().count()).sum();
        assert_eq!(nulls, prov.len());
    }

    #[test]
    fn corrupted_on_filters_by_attribute() {
        let ground = CarsConfig::default().with_rows(3_000).generate(6);
        let (_, prov) = corrupt(&ground, &CorruptionConfig::default());
        let body = ground.schema().expect_attr("body_style");
        let on_body = prov.corrupted_on(body).count();
        assert!(on_body > 0);
        assert!(on_body < prov.len());
        let lookup_ok = prov
            .corrupted_on(body)
            .all(|(id, v)| prov.true_value(id, body) == Some(v));
        assert!(lookup_ok);
    }
}
