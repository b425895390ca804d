//! Census records generator (UCI Census / Adult stand-in).
//!
//! Schema (paper §6.2): `Census(age, workclass, education, marital_status,
//! occupation, relationship, race, sex, capital_gain, capital_loss,
//! hours_per_week, native_country)`.
//!
//! Records are drawn from a small set of latent household *profiles*; the
//! profile correlates marital status, age bracket, sex and relationship, so
//! that `{Marital Status, Age} → Relationship` (and with sex added, an even
//! stronger dependency) is mineable as an AFD — the structure behind the
//! paper's `Family Relation = Own Child` query (Figure 4). `Education →
//! Occupation` holds approximately as a secondary dependency.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qpiad_db::{AttrType, Relation, Schema, Tuple, TupleId, Value};

/// Configuration for the Census generator.
#[derive(Debug, Clone)]
pub struct CensusConfig {
    /// Number of tuples to generate.
    pub rows: usize,
    /// Probability that a record's relationship deviates from its profile's
    /// deterministic value. Controls the confidence of the mined
    /// `{Marital Status, Age, Sex} → Relationship` AFD.
    pub relationship_noise: f64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        CensusConfig {
            rows: 30_000,
            relationship_noise: 0.08,
        }
    }
}

/// Ages are snapped to 5-year brackets so the attribute has a compact
/// categorical domain (needed for both TANE and NBC).
const AGE_BRACKETS: [i64; 14] = [15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80];

const RELATIONSHIPS: [&str; 6] = [
    "Own-child",
    "Husband",
    "Wife",
    "Not-in-family",
    "Unmarried",
    "Other-relative",
];

const EDUCATIONS: [&str; 7] = [
    "HS-grad",
    "Some-college",
    "Bachelors",
    "Masters",
    "Doctorate",
    "11th",
    "Assoc-voc",
];

/// Per-education dominant occupation (the `Education → Occupation` AFD).
const EDU_OCCUPATION: [(&str, &str); 7] = [
    ("HS-grad", "Craft-repair"),
    ("Some-college", "Adm-clerical"),
    ("Bachelors", "Prof-specialty"),
    ("Masters", "Exec-managerial"),
    ("Doctorate", "Prof-specialty"),
    ("11th", "Handlers-cleaners"),
    ("Assoc-voc", "Tech-support"),
];

const OCCUPATIONS: [&str; 8] = [
    "Craft-repair",
    "Adm-clerical",
    "Prof-specialty",
    "Exec-managerial",
    "Handlers-cleaners",
    "Tech-support",
    "Sales",
    "Other-service",
];

const RACES: [&str; 5] = [
    "White",
    "Black",
    "Asian-Pac-Islander",
    "Amer-Indian-Eskimo",
    "Other",
];
const COUNTRIES: [&str; 5] = ["United-States", "Mexico", "Philippines", "Germany", "India"];
const WORKCLASSES: [&str; 5] = [
    "Private",
    "Self-emp",
    "Federal-gov",
    "State-gov",
    "Local-gov",
];

#[derive(Debug, Clone, Copy)]
struct Profile {
    weight: u32,
    marital: &'static str,
    age_lo: usize, // index into AGE_BRACKETS
    age_hi: usize,
    sex: Option<&'static str>, // None = either
    relationship: fn(sex: &str) -> &'static str,
    hours: (i64, i64), // multiples of 5
}

fn rel_own_child(_: &str) -> &'static str {
    "Own-child"
}
fn rel_spouse(sex: &str) -> &'static str {
    if sex == "Male" {
        "Husband"
    } else {
        "Wife"
    }
}
fn rel_not_in_family(_: &str) -> &'static str {
    "Not-in-family"
}
fn rel_unmarried(_: &str) -> &'static str {
    "Unmarried"
}

const PROFILES: [Profile; 5] = [
    // Teenagers / young adults living with parents.
    Profile {
        weight: 20,
        marital: "Never-married",
        age_lo: 0,
        age_hi: 2,
        sex: None,
        relationship: rel_own_child,
        hours: (10, 30),
    },
    // Young singles on their own.
    Profile {
        weight: 15,
        marital: "Never-married",
        age_lo: 2,
        age_hi: 5,
        sex: None,
        relationship: rel_not_in_family,
        hours: (35, 45),
    },
    // Married couples.
    Profile {
        weight: 40,
        marital: "Married-civ-spouse",
        age_lo: 3,
        age_hi: 10,
        sex: None,
        relationship: rel_spouse,
        hours: (35, 55),
    },
    // Divorced adults.
    Profile {
        weight: 15,
        marital: "Divorced",
        age_lo: 4,
        age_hi: 11,
        sex: None,
        relationship: rel_unmarried,
        hours: (30, 50),
    },
    // Widowed seniors.
    Profile {
        weight: 10,
        marital: "Widowed",
        age_lo: 10,
        age_hi: 13,
        sex: None,
        relationship: rel_not_in_family,
        hours: (10, 25),
    },
];

impl CensusConfig {
    /// Generates a complete ground-truth census relation.
    pub fn generate(&self, seed: u64) -> Relation {
        let schema = census_schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let total_weight: u32 = PROFILES.iter().map(|p| p.weight).sum();

        let mut tuples = Vec::with_capacity(self.rows);
        for id in 0..self.rows {
            let profile = {
                let mut ticket = rng.gen_range(0..total_weight);
                let mut chosen = &PROFILES[0];
                for p in &PROFILES {
                    if ticket < p.weight {
                        chosen = p;
                        break;
                    }
                    ticket -= p.weight;
                }
                chosen
            };
            let sex = profile
                .sex
                .unwrap_or(if rng.gen_bool(0.5) { "Male" } else { "Female" });
            let age = AGE_BRACKETS[rng.gen_range(profile.age_lo..=profile.age_hi)];
            let relationship = if rng.gen_bool(self.relationship_noise) {
                RELATIONSHIPS[rng.gen_range(0..RELATIONSHIPS.len())]
            } else {
                (profile.relationship)(sex)
            };
            let education = EDUCATIONS[rng.gen_range(0..EDUCATIONS.len())];
            // Education → Occupation with 80% confidence.
            let occupation = if rng.gen_bool(0.8) {
                EDU_OCCUPATION
                    .iter()
                    .find(|(e, _)| *e == education)
                    .map(|(_, o)| *o)
                    .unwrap_or("Other-service")
            } else {
                OCCUPATIONS[rng.gen_range(0..OCCUPATIONS.len())]
            };
            let hours_lo = profile.hours.0 / 5;
            let hours_hi = profile.hours.1 / 5;
            let hours = rng.gen_range(hours_lo..=hours_hi) * 5;
            let capital_gain = if rng.gen_bool(0.08) {
                rng.gen_range(1..=10) * 1_000
            } else {
                0
            };
            let capital_loss = if rng.gen_bool(0.04) {
                rng.gen_range(1..=4) * 500
            } else {
                0
            };
            let race = RACES[weighted_index(&mut rng, &[70, 12, 8, 4, 6])];
            let country = COUNTRIES[weighted_index(&mut rng, &[88, 5, 3, 2, 2])];
            let workclass = WORKCLASSES[weighted_index(&mut rng, &[70, 12, 6, 6, 6])];

            tuples.push(Tuple::new(
                TupleId(id as u32),
                vec![
                    Value::int(age),
                    Value::str(workclass),
                    Value::str(education),
                    Value::str(profile.marital),
                    Value::str(occupation),
                    Value::str(relationship),
                    Value::str(race),
                    Value::str(sex),
                    Value::int(capital_gain),
                    Value::int(capital_loss),
                    Value::int(hours),
                    Value::str(country),
                ],
            ));
        }
        Relation::new(schema, tuples)
    }
}

fn weighted_index(rng: &mut StdRng, weights: &[u32]) -> usize {
    let total: u32 = weights.iter().sum();
    let mut ticket = rng.gen_range(0..total);
    for (i, w) in weights.iter().enumerate() {
        if ticket < *w {
            return i;
        }
        ticket -= w;
    }
    weights.len() - 1
}

/// The Census schema (12 attributes, paper order).
pub fn census_schema() -> Arc<Schema> {
    Schema::of(
        "census",
        &[
            ("age", AttrType::Integer),
            ("workclass", AttrType::Categorical),
            ("education", AttrType::Categorical),
            ("marital_status", AttrType::Categorical),
            ("occupation", AttrType::Categorical),
            ("relationship", AttrType::Categorical),
            ("race", AttrType::Categorical),
            ("sex", AttrType::Categorical),
            ("capital_gain", AttrType::Integer),
            ("capital_loss", AttrType::Integer),
            ("hours_per_week", AttrType::Integer),
            ("native_country", AttrType::Categorical),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> Relation {
        CensusConfig {
            rows: 5_000,
            ..Default::default()
        }
        .generate(11)
    }

    #[test]
    fn generates_complete_rows() {
        let r = small();
        assert_eq!(r.len(), 5_000);
        assert!(r.tuples().iter().all(Tuple::is_complete));
        assert_eq!(r.schema().arity(), 12);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = CensusConfig {
            rows: 300,
            ..Default::default()
        }
        .generate(3);
        let b = CensusConfig {
            rows: 300,
            ..Default::default()
        }
        .generate(3);
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn marital_age_sex_determine_relationship_approximately() {
        let r = small();
        let marital = r.schema().expect_attr("marital_status");
        let age = r.schema().expect_attr("age");
        let sex = r.schema().expect_attr("sex");
        let rel = r.schema().expect_attr("relationship");
        let mut counts: HashMap<Vec<Value>, HashMap<Value, usize>> = HashMap::new();
        for t in r.tuples() {
            let key = t.project(&[marital, age, sex]);
            *counts
                .entry(key)
                .or_default()
                .entry(t.value(rel).clone())
                .or_default() += 1;
        }
        let (agree, total): (usize, usize) = counts.values().fold((0, 0), |(a, t), dist| {
            let max = dist.values().copied().max().unwrap_or(0);
            let sum: usize = dist.values().sum();
            (a + max, t + sum)
        });
        let confidence = agree as f64 / total as f64;
        assert!(
            confidence > 0.85,
            "relationship dependency too weak: {confidence}"
        );
    }

    #[test]
    fn own_child_records_are_young_never_married() {
        let r = small();
        let marital = r.schema().expect_attr("marital_status");
        let age = r.schema().expect_attr("age");
        let rel = r.schema().expect_attr("relationship");
        let own_child: Vec<_> = r
            .tuples()
            .iter()
            .filter(|t| t.value(rel) == &Value::str("Own-child"))
            .collect();
        assert!(own_child.len() > 300, "need a sizeable Own-child class");
        let consistent = own_child
            .iter()
            .filter(|t| {
                t.value(marital) == &Value::str("Never-married")
                    && t.value(age).as_int().unwrap() <= 25
            })
            .count();
        // The profile generates Own-child deterministically; only the noise
        // term produces inconsistent ones.
        assert!(consistent as f64 / own_child.len() as f64 > 0.7);
    }

    #[test]
    fn ages_are_bracketed() {
        let r = small();
        let age = r.schema().expect_attr("age");
        for t in r.tuples() {
            let a = t.value(age).as_int().unwrap();
            assert!(AGE_BRACKETS.contains(&a));
        }
    }

    #[test]
    fn hours_on_grid() {
        let r = small();
        let hours = r.schema().expect_attr("hours_per_week");
        for t in r.tuples() {
            assert_eq!(t.value(hours).as_int().unwrap() % 5, 0);
        }
    }
}
