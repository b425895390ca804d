//! Housing listings generator (Realtor.com stand-in).
//!
//! The paper's introduction lists Realtor.com among the autonomous web
//! databases whose forms reject null binding. This generator provides a
//! third selection domain with its own dependency structure, useful for
//! exercising the pipeline beyond the two evaluation datasets:
//!
//! * `Neighborhood → City` and `Neighborhood → Zip` are exact,
//! * `Neighborhood → Style` holds approximately (subdivisions are built in
//!   waves of one style),
//! * `{Bedrooms, Neighborhood} → Price` holds approximately on a $10k grid,
//! * `Sqft` tracks bedrooms.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qpiad_db::{AttrType, Relation, Schema, Tuple, TupleId, Value};

/// One neighborhood in the fixed catalog.
struct Neighborhood {
    name: &'static str,
    city: &'static str,
    zip: i64,
    dominant_style: &'static str,
    /// $ per bedroom, before the city factor.
    base_price: i64,
    popularity: u32,
}

const STYLES: [&str; 6] = [
    "Ranch",
    "Colonial",
    "Craftsman",
    "Condo",
    "Townhouse",
    "Victorian",
];

const NEIGHBORHOODS: [Neighborhood; 12] = [
    Neighborhood {
        name: "Willow Glen",
        city: "San Jose",
        zip: 95125,
        dominant_style: "Craftsman",
        base_price: 280_000,
        popularity: 7,
    },
    Neighborhood {
        name: "Almaden",
        city: "San Jose",
        zip: 95120,
        dominant_style: "Ranch",
        base_price: 260_000,
        popularity: 6,
    },
    Neighborhood {
        name: "Downtown SJ",
        city: "San Jose",
        zip: 95113,
        dominant_style: "Condo",
        base_price: 190_000,
        popularity: 5,
    },
    Neighborhood {
        name: "Tempe Lakes",
        city: "Tempe",
        zip: 85281,
        dominant_style: "Ranch",
        base_price: 110_000,
        popularity: 8,
    },
    Neighborhood {
        name: "Maple-Ash",
        city: "Tempe",
        zip: 85282,
        dominant_style: "Craftsman",
        base_price: 120_000,
        popularity: 5,
    },
    Neighborhood {
        name: "Papago Park",
        city: "Tempe",
        zip: 85288,
        dominant_style: "Townhouse",
        base_price: 100_000,
        popularity: 4,
    },
    Neighborhood {
        name: "Back Bay",
        city: "Boston",
        zip: 2116,
        dominant_style: "Victorian",
        base_price: 350_000,
        popularity: 4,
    },
    Neighborhood {
        name: "Beacon Hill",
        city: "Boston",
        zip: 2108,
        dominant_style: "Colonial",
        base_price: 380_000,
        popularity: 3,
    },
    Neighborhood {
        name: "Southie",
        city: "Boston",
        zip: 2127,
        dominant_style: "Townhouse",
        base_price: 240_000,
        popularity: 6,
    },
    Neighborhood {
        name: "Hyde Park",
        city: "Chicago",
        zip: 60615,
        dominant_style: "Colonial",
        base_price: 170_000,
        popularity: 5,
    },
    Neighborhood {
        name: "Lincoln Park",
        city: "Chicago",
        zip: 60614,
        dominant_style: "Victorian",
        base_price: 290_000,
        popularity: 5,
    },
    Neighborhood {
        name: "The Loop",
        city: "Chicago",
        zip: 60601,
        dominant_style: "Condo",
        base_price: 210_000,
        popularity: 6,
    },
];

/// Configuration for the housing generator.
#[derive(Debug, Clone)]
pub struct HousingConfig {
    /// Number of listings to generate.
    pub rows: usize,
    /// Probability that a listing deviates from its neighborhood's dominant
    /// style.
    pub style_noise: f64,
}

impl Default for HousingConfig {
    fn default() -> Self {
        HousingConfig {
            rows: 20_000,
            style_noise: 0.15,
        }
    }
}

impl HousingConfig {
    /// Generates a complete ground-truth housing relation.
    pub fn generate(&self, seed: u64) -> Relation {
        let schema = housing_schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let total_pop: u32 = NEIGHBORHOODS.iter().map(|n| n.popularity).sum();

        let mut tuples = Vec::with_capacity(self.rows);
        for id in 0..self.rows {
            let hood = {
                let mut ticket = rng.gen_range(0..total_pop);
                let mut chosen = &NEIGHBORHOODS[0];
                for n in &NEIGHBORHOODS {
                    if ticket < n.popularity {
                        chosen = n;
                        break;
                    }
                    ticket -= n.popularity;
                }
                chosen
            };
            let bedrooms = rng.gen_range(1i64..=5);
            let style = if rng.gen_bool(self.style_noise) {
                STYLES[rng.gen_range(0..STYLES.len())]
            } else {
                hood.dominant_style
            };
            // {Bedrooms, Neighborhood} → Price on a $10k grid, one-step
            // noise a quarter of the time.
            let mut price_grid = (hood.base_price + bedrooms * 60_000) / 10_000;
            if rng.gen_bool(0.25) {
                price_grid += if rng.gen_bool(0.5) { 1 } else { -1 };
            }
            let sqft = (bedrooms * 450 + rng.gen_range(-2i64..=2) * 100).max(300);

            tuples.push(Tuple::new(
                TupleId(id as u32),
                vec![
                    Value::str(hood.name),
                    Value::str(hood.city),
                    Value::int(hood.zip),
                    Value::str(style),
                    Value::int(bedrooms),
                    Value::int(price_grid * 10_000),
                    Value::int(sqft),
                ],
            ));
        }
        Relation::new(schema, tuples)
    }
}

/// The housing schema: neighborhood, city, zip, style, bedrooms, price,
/// sqft.
pub fn housing_schema() -> Arc<Schema> {
    Schema::of(
        "housing",
        &[
            ("neighborhood", AttrType::Categorical),
            ("city", AttrType::Categorical),
            ("zip", AttrType::Integer),
            ("style", AttrType::Categorical),
            ("bedrooms", AttrType::Integer),
            ("price", AttrType::Integer),
            ("sqft", AttrType::Integer),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corrupt::{corrupt, CorruptionConfig};
    use crate::sample::uniform_sample;
    use std::collections::HashMap;

    fn small() -> Relation {
        HousingConfig {
            rows: 5_000,
            ..Default::default()
        }
        .generate(13)
    }

    #[test]
    fn generates_complete_rows() {
        let r = small();
        assert_eq!(r.len(), 5_000);
        assert!(r.tuples().iter().all(Tuple::is_complete));
        assert_eq!(r.schema().arity(), 7);
    }

    #[test]
    fn neighborhood_determines_city_and_zip_exactly() {
        let r = small();
        let hood = r.schema().expect_attr("neighborhood");
        for target in ["city", "zip"] {
            let t_attr = r.schema().expect_attr(target);
            let mut map: HashMap<Value, Value> = HashMap::new();
            for t in r.tuples() {
                if let Some(prev) = map.insert(t.value(hood).clone(), t.value(t_attr).clone()) {
                    assert_eq!(prev, t.value(t_attr).clone(), "{target} not functional");
                }
            }
        }
    }

    #[test]
    fn neighborhood_determines_style_approximately() {
        let r = small();
        let hood = r.schema().expect_attr("neighborhood");
        let style = r.schema().expect_attr("style");
        let mut counts: HashMap<Value, HashMap<Value, usize>> = HashMap::new();
        for t in r.tuples() {
            *counts
                .entry(t.value(hood).clone())
                .or_default()
                .entry(t.value(style).clone())
                .or_default() += 1;
        }
        let (agree, total) = counts.values().fold((0usize, 0usize), |(a, n), dist| {
            (
                a + dist.values().copied().max().unwrap_or(0),
                n + dist.values().sum::<usize>(),
            )
        });
        let conf = agree as f64 / total as f64;
        assert!((0.80..0.93).contains(&conf), "style confidence {conf}");
    }

    #[test]
    fn qpiad_pipeline_runs_on_housing() {
        use qpiad_db::{Predicate, SelectQuery};
        // The third domain exercises the full mining pipeline: the style
        // attribute must get a neighborhood-based determining set.
        let ground = HousingConfig {
            rows: 8_000,
            ..Default::default()
        }
        .generate(6);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 5);
        let stats = qpiad_learn::knowledge::SourceStats::mine(
            &sample,
            ed.len(),
            &qpiad_learn::knowledge::MiningConfig::default(),
        );
        let style = ed.schema().expect_attr("style");
        let hood = ed.schema().expect_attr("neighborhood");
        let dtr = stats.determining_set(style).expect("AFD for style");
        assert!(dtr.contains(&hood), "dtrSet(style) = {dtr:?}");

        // And rewriting yields sound queries.
        let q = SelectQuery::new(vec![Predicate::eq(style, "Condo")]);
        let base = ed.select(&q);
        let rewrites = qpiad_core::generate_rewrites(&q, &base, &stats);
        assert!(!rewrites.is_empty());
        for rq in &rewrites {
            assert!(rq.query.predicate_on(style).is_none());
        }
    }
}
