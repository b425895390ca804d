//! Vehicle complaints generator (NHTSA ODI stand-in).
//!
//! Schema (paper §6.2): `Complaints(model, year, crash, fail_date, fire,
//! general_component, detailed_component, country, ownership, car_type,
//! market)`. Complaints share the used-car model catalog so that
//! `Cars ⋈_Model Complaints` (Figure 13) joins on real common values.
//!
//! Dependency structure:
//! * `Detailed Component → General Component` is exact by construction (a
//!   subcomponent belongs to one component group), giving the rewriter a
//!   high-confidence determining set for the paper's join queries that
//!   constrain `General Component`.
//! * `Model → Car Type` is exact (catalog).
//! * The component mix depends on the car type (trucks/SUVs skew power
//!   train and suspension), so `Model → General Component` is a weaker AFD.
//! * `crash`/`fire` correlate with the component group.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qpiad_db::{AttrType, Relation, Schema, Tuple, TupleId, Value};

use crate::catalog::{CarCatalog, YEAR_RANGE};

/// One component group and its detailed subcomponents.
pub const COMPONENTS: [(&str, &[&str]); 8] = [
    (
        "Engine and Engine Cooling",
        &[
            "Engine Cooling System",
            "Engine Oil Leak",
            "Engine Stall",
            "Cooling Fan",
        ],
    ),
    (
        "Electrical System",
        &["Wiring", "Battery", "Alternator", "Ignition Switch"],
    ),
    ("Brakes", &["Brake Hydraulic", "Brake Pads", "ABS Module"]),
    ("Suspension", &["Ball Joint", "Control Arm", "Springs"]),
    ("Steering", &["Steering Column", "Power Steering Pump"]),
    ("Airbags", &["Frontal Airbag", "Side Airbag"]),
    ("Fuel System", &["Fuel Pump", "Fuel Tank"]),
    ("Power Train", &["Transmission", "Driveshaft", "Axle"]),
];

/// Configuration for the Complaints generator.
#[derive(Debug, Clone)]
pub struct ComplaintsConfig {
    /// Number of tuples to generate.
    pub rows: usize,
}

impl Default for ComplaintsConfig {
    fn default() -> Self {
        ComplaintsConfig { rows: 60_000 }
    }
}

/// Component-mix weights per car type: passenger cars, SUVs/trucks, vans.
fn component_weights(car_type: &str) -> [u32; 8] {
    match car_type {
        "Truck" | "SUV" => [12, 10, 12, 18, 12, 6, 8, 22],
        "Van" => [14, 14, 14, 12, 10, 10, 10, 16],
        _ => [16, 20, 14, 10, 10, 12, 10, 8],
    }
}

impl ComplaintsConfig {
    /// Generates a complete ground-truth complaints relation.
    pub fn generate(&self, seed: u64) -> Relation {
        let schema = complaints_schema();
        let catalog = CarCatalog::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let total_pop = catalog.total_popularity();

        let mut tuples = Vec::with_capacity(self.rows);
        for id in 0..self.rows {
            // Popularity-weighted model choice (popular models attract more
            // complaints).
            let model = {
                let mut ticket = rng.gen_range(0..total_pop);
                let mut chosen = &catalog.models()[0];
                for m in catalog.models() {
                    if ticket < m.popularity {
                        chosen = m;
                        break;
                    }
                    ticket -= m.popularity;
                }
                chosen
            };
            let weights = component_weights(model.car_type);
            let comp_idx = {
                let total: u32 = weights.iter().sum();
                let mut ticket = rng.gen_range(0..total);
                let mut idx = 0;
                for (i, w) in weights.iter().enumerate() {
                    if ticket < *w {
                        idx = i;
                        break;
                    }
                    ticket -= w;
                }
                idx
            };
            let (general, details) = COMPONENTS[comp_idx];
            let detailed = details[rng.gen_range(0..details.len())];

            let year = rng.gen_range(YEAR_RANGE.0..=YEAR_RANGE.1);
            let fail_date = rng.gen_range(year..=YEAR_RANGE.1 + 1);
            let crash_p = match general {
                "Brakes" | "Steering" | "Suspension" => 0.25,
                "Airbags" => 0.35,
                _ => 0.05,
            };
            let fire_p = match general {
                "Fuel System" => 0.30,
                "Electrical System" => 0.15,
                "Engine and Engine Cooling" => 0.10,
                _ => 0.02,
            };
            let crash = if rng.gen_bool(crash_p) { "Yes" } else { "No" };
            let fire = if rng.gen_bool(fire_p) { "Yes" } else { "No" };
            let country = if rng.gen_bool(0.95) { "US" } else { "Canada" };
            let ownership = if rng.gen_bool(0.8) {
                "Consumer"
            } else {
                "Fleet"
            };
            let market = if rng.gen_bool(0.9) {
                "Domestic"
            } else {
                "Import"
            };

            tuples.push(Tuple::new(
                TupleId(id as u32),
                vec![
                    Value::str(&model.model),
                    Value::int(year),
                    Value::str(crash),
                    Value::int(fail_date),
                    Value::str(fire),
                    Value::str(general),
                    Value::str(detailed),
                    Value::str(country),
                    Value::str(ownership),
                    Value::str(model.car_type),
                    Value::str(market),
                ],
            ));
        }
        Relation::new(schema, tuples)
    }
}

/// The Complaints schema (11 attributes, paper order).
pub fn complaints_schema() -> Arc<Schema> {
    Schema::of(
        "complaints",
        &[
            ("model", AttrType::Categorical),
            ("year", AttrType::Integer),
            ("crash", AttrType::Categorical),
            ("fail_date", AttrType::Integer),
            ("fire", AttrType::Categorical),
            ("general_component", AttrType::Categorical),
            ("detailed_component", AttrType::Categorical),
            ("country", AttrType::Categorical),
            ("ownership", AttrType::Categorical),
            ("car_type", AttrType::Categorical),
            ("market", AttrType::Categorical),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> Relation {
        ComplaintsConfig { rows: 5_000 }.generate(7)
    }

    #[test]
    fn generates_complete_rows() {
        let r = small();
        assert_eq!(r.len(), 5_000);
        assert!(r.tuples().iter().all(Tuple::is_complete));
    }

    #[test]
    fn detailed_determines_general_exactly() {
        let r = small();
        let det = r.schema().expect_attr("detailed_component");
        let gen = r.schema().expect_attr("general_component");
        let mut map: HashMap<Value, Value> = HashMap::new();
        for t in r.tuples() {
            if let Some(prev) = map.insert(t.value(det).clone(), t.value(gen).clone()) {
                assert_eq!(prev, t.value(gen).clone());
            }
        }
        assert!(map.len() >= 20, "expect all detailed components to appear");
    }

    #[test]
    fn model_determines_car_type_exactly() {
        let r = small();
        let model = r.schema().expect_attr("model");
        let ct = r.schema().expect_attr("car_type");
        let mut map: HashMap<Value, Value> = HashMap::new();
        for t in r.tuples() {
            if let Some(prev) = map.insert(t.value(model).clone(), t.value(ct).clone()) {
                assert_eq!(prev, t.value(ct).clone());
            }
        }
    }

    #[test]
    fn models_overlap_with_cars_catalog() {
        let r = small();
        let model = r.schema().expect_attr("model");
        let catalog = CarCatalog::new();
        for v in r.active_domain(model) {
            assert!(catalog.model(v.as_str().unwrap()).is_some());
        }
    }

    #[test]
    fn join_targets_exist() {
        // Figure 13's queries need Grand Cherokee + Engine complaints and
        // f150 + Electrical complaints.
        let r = small();
        let model = r.schema().expect_attr("model");
        let gen = r.schema().expect_attr("general_component");
        let gc_engine = r
            .tuples()
            .iter()
            .filter(|t| {
                t.value(model) == &Value::str("Grand Cherokee")
                    && t.value(gen) == &Value::str("Engine and Engine Cooling")
            })
            .count();
        let f150_elec = r
            .tuples()
            .iter()
            .filter(|t| {
                t.value(model) == &Value::str("F150")
                    && t.value(gen) == &Value::str("Electrical System")
            })
            .count();
        assert!(
            gc_engine > 5,
            "Grand Cherokee engine complaints: {gc_engine}"
        );
        assert!(f150_elec > 5, "F150 electrical complaints: {f150_elec}");
    }

    #[test]
    fn fire_correlates_with_fuel_system() {
        let r = small();
        let gen = r.schema().expect_attr("general_component");
        let fire = r.schema().expect_attr("fire");
        let rate = |component: &str| {
            let (yes, total) = r
                .tuples()
                .iter()
                .filter(|t| t.value(gen) == &Value::str(component))
                .fold((0usize, 0usize), |(y, n), t| {
                    (y + (t.value(fire) == &Value::str("Yes")) as usize, n + 1)
                });
            yes as f64 / total.max(1) as f64
        };
        assert!(rate("Fuel System") > rate("Brakes"));
    }
}
