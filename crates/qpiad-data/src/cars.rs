//! Used-car listings generator (Cars.com stand-in).
//!
//! Schema (paper §6.2): `Cars(year, make, model, price, mileage, body_style,
//! certified)`. The generator draws a model from the catalog (popularity
//! weighted), a year uniformly in range, and then:
//!
//! * `make` is the catalog make (`Model → Make` exact),
//! * `body_style` is the catalog's dominant style with probability
//!   `1 - body_noise`, otherwise a random other style (`Model → Body Style`
//!   is an AFD with confidence ≈ `1 - body_noise`),
//! * `price` is the base price depreciated by year and snapped to a $500
//!   grid, perturbed one grid step with probability `price_noise`
//!   (`{Year, Model} → Price` is an AFD),
//! * `mileage` tracks age on a 2,500-mile grid,
//! * `certified` is more likely for newer cars.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qpiad_db::{AttrType, Relation, Schema, Tuple, TupleId, Value};

use crate::catalog::{CarCatalog, CarModel, BODY_STYLES, YEAR_RANGE};

/// Configuration for the Cars generator.
#[derive(Debug, Clone)]
pub struct CarsConfig {
    /// Number of tuples to generate.
    pub rows: usize,
    /// Probability that a listing's body style deviates from the model's
    /// dominant style. Controls the confidence of `Model → Body Style`.
    pub body_noise: f64,
    /// Probability that a listing's price deviates one grid step from the
    /// deterministic `{Year, Model}` price.
    pub price_noise: f64,
}

impl Default for CarsConfig {
    fn default() -> Self {
        CarsConfig {
            rows: 30_000,
            body_noise: 0.12,
            price_noise: 0.25,
        }
    }
}

impl CarsConfig {
    /// Overrides the number of rows.
    pub fn with_rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Overrides the body-style noise.
    pub fn with_body_noise(mut self, noise: f64) -> Self {
        self.body_noise = noise;
        self
    }

    /// Generates a complete ground-truth relation with the given seed.
    pub fn generate(&self, seed: u64) -> Relation {
        let schema = cars_schema();
        let catalog = CarCatalog::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let total_pop = catalog.total_popularity();

        let mut tuples = Vec::with_capacity(self.rows);
        for id in 0..self.rows {
            let model = pick_model(&catalog, &mut rng, total_pop);
            let year = rng.gen_range(YEAR_RANGE.0..=YEAR_RANGE.1);
            let body = if rng.gen_bool(self.body_noise) {
                // A non-dominant style: pick uniformly among the others.
                loop {
                    let s = BODY_STYLES[rng.gen_range(0..BODY_STYLES.len())];
                    if s != model.dominant_body {
                        break s;
                    }
                }
            } else {
                model.dominant_body
            };
            let price = listed_price(model, year, self.price_noise, &mut rng);
            let age = YEAR_RANGE.1 - year;
            let miles_raw = age * 12_000 + rng.gen_range(-3i64..=3) * 1_000;
            let mileage = (miles_raw.max(0) / 2_500) * 2_500;
            let certified = if age <= 2 && rng.gen_bool(0.6) {
                "Yes"
            } else {
                "No"
            };

            tuples.push(Tuple::new(
                TupleId(id as u32),
                vec![
                    Value::int(year),
                    Value::str(model.make),
                    Value::str(&model.model),
                    Value::int(price),
                    Value::int(mileage),
                    Value::str(body),
                    Value::str(certified),
                ],
            ));
        }
        Relation::new(schema, tuples)
    }
}

/// The Cars schema, attribute order: year, make, model, price, mileage,
/// body_style, certified.
pub fn cars_schema() -> Arc<Schema> {
    Schema::of(
        "cars",
        &[
            ("year", AttrType::Integer),
            ("make", AttrType::Categorical),
            ("model", AttrType::Categorical),
            ("price", AttrType::Integer),
            ("mileage", AttrType::Integer),
            ("body_style", AttrType::Categorical),
            ("certified", AttrType::Categorical),
        ],
    )
}

fn pick_model<'c>(catalog: &'c CarCatalog, rng: &mut StdRng, total_pop: u32) -> &'c CarModel {
    let mut ticket = rng.gen_range(0..total_pop);
    for m in catalog.models() {
        if ticket < m.popularity {
            return m;
        }
        ticket -= m.popularity;
    }
    unreachable!("popularity mass exhausted")
}

/// Deterministic price for `{Year, Model}` plus optional one-step noise,
/// snapped to a $500 grid.
fn listed_price(model: &CarModel, year: i64, noise: f64, rng: &mut StdRng) -> i64 {
    let age = (YEAR_RANGE.1 - year) as f64;
    let depreciated = model.base_price as f64 * 0.88f64.powf(age);
    let mut grid = (depreciated / 500.0).round() as i64;
    if rng.gen_bool(noise) {
        grid += if rng.gen_bool(0.5) { 1 } else { -1 };
    }
    (grid * 500).max(1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> Relation {
        CarsConfig::default().with_rows(5_000).generate(42)
    }

    #[test]
    fn generates_requested_rows_complete() {
        let r = small();
        assert_eq!(r.len(), 5_000);
        assert!(r.tuples().iter().all(Tuple::is_complete));
        // Dense ids.
        assert_eq!(r.tuples()[17].id(), TupleId(17));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = CarsConfig::default().with_rows(500).generate(7);
        let b = CarsConfig::default().with_rows(500).generate(7);
        assert_eq!(a.tuples(), b.tuples());
        let c = CarsConfig::default().with_rows(500).generate(8);
        assert_ne!(a.tuples(), c.tuples());
    }

    #[test]
    fn model_determines_make_exactly() {
        let r = small();
        let model = r.schema().expect_attr("model");
        let make = r.schema().expect_attr("make");
        let mut seen: HashMap<Value, Value> = HashMap::new();
        for t in r.tuples() {
            let prev = seen.insert(t.value(model).clone(), t.value(make).clone());
            if let Some(prev) = prev {
                assert_eq!(prev, t.value(make).clone());
            }
        }
    }

    #[test]
    fn model_determines_body_style_approximately() {
        let r = small();
        let model = r.schema().expect_attr("model");
        let body = r.schema().expect_attr("body_style");
        // Count agreement with the per-model majority style.
        let mut counts: HashMap<(Value, Value), usize> = HashMap::new();
        for t in r.tuples() {
            *counts
                .entry((t.value(model).clone(), t.value(body).clone()))
                .or_default() += 1;
        }
        let mut per_model: HashMap<Value, (usize, usize)> = HashMap::new(); // (max, total)
        for ((m, _), c) in &counts {
            let e = per_model.entry(m.clone()).or_default();
            e.0 = e.0.max(*c);
            e.1 += c;
        }
        let (agree, total): (usize, usize) = per_model
            .values()
            .fold((0, 0), |(a, t), (mx, tt)| (a + mx, t + tt));
        let confidence = agree as f64 / total as f64;
        // body_noise = 0.12 → confidence ≈ 0.88.
        assert!(
            (0.82..0.94).contains(&confidence),
            "confidence {confidence} outside expected band"
        );
    }

    #[test]
    fn prices_on_grid_and_positive() {
        let r = small();
        let price = r.schema().expect_attr("price");
        for t in r.tuples() {
            let p = t.value(price).as_int().unwrap();
            assert!(p >= 1_000);
            assert_eq!(p % 500, 0);
        }
    }

    #[test]
    fn price_domain_is_coarse() {
        let r = small();
        let price = r.schema().expect_attr("price");
        let dom = r.active_domain(price);
        assert!(
            dom.len() < 150,
            "price domain too large for NBC: {}",
            dom.len()
        );
    }

    #[test]
    fn years_in_range_and_mileage_consistent() {
        let r = small();
        let year = r.schema().expect_attr("year");
        let mileage = r.schema().expect_attr("mileage");
        for t in r.tuples() {
            let y = t.value(year).as_int().unwrap();
            assert!((YEAR_RANGE.0..=YEAR_RANGE.1).contains(&y));
            let m = t.value(mileage).as_int().unwrap();
            assert!(m >= 0);
            assert_eq!(m % 2_500, 0);
        }
    }

    #[test]
    fn has_plenty_of_convertibles() {
        let r = small();
        let body = r.schema().expect_attr("body_style");
        let convt = r
            .tuples()
            .iter()
            .filter(|t| t.value(body) == &Value::str("Convt"))
            .count();
        // Convertible models exist and carry popularity mass.
        assert!(convt > 100, "only {convt} convertibles in 5000 rows");
    }
}
