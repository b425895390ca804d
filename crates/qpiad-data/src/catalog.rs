//! The fixed used-car model catalog shared by the Cars and Complaints
//! generators.
//!
//! Each entry fixes a model's make (so `Model → Make` is an exact
//! dependency, as in real automobile data), its *dominant* body style (so
//! `Model → Body Style` is an approximate dependency whose confidence is
//! `1 - body_noise`), a new-price anchor and a popularity weight.

/// One model (base model + trim) in the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct CarModel {
    /// Manufacturer, e.g. `"Honda"`.
    pub make: &'static str,
    /// Full model name including trim, e.g. `"Accord"` or `"Accord EX"`.
    pub model: String,
    /// The body style most listings of this model have.
    pub dominant_body: &'static str,
    /// Vehicle category used by the Complaints generator.
    pub car_type: &'static str,
    /// New-vehicle price anchor in dollars.
    pub base_price: i64,
    /// Relative listing frequency (popular models appear more often).
    pub popularity: u32,
}

/// A base model entry; the catalog expands each into trim variants so the
/// model domain approaches the paper's scale (Cars.com had 416 models).
#[derive(Debug, Clone, Copy, PartialEq)]
struct BaseModel {
    make: &'static str,
    model: &'static str,
    dominant_body: &'static str,
    car_type: &'static str,
    base_price: i64,
    popularity: u32,
}

/// Trim variants: suffix, popularity weight, price multiplier (per mille).
const TRIMS: [(&str, u32, i64); 3] = [("", 5, 1_000), ("LX", 3, 1_060), ("Sport", 2, 1_140)];

/// All body styles in the domain.
pub const BODY_STYLES: [&str; 8] = [
    "Sedan",
    "Coupe",
    "Convt",
    "SUV",
    "Hatchback",
    "Truck",
    "Van",
    "Wagon",
];

/// Model years generated (inclusive). 1998–2006 matches the paper's era.
pub const YEAR_RANGE: (i64, i64) = (1998, 2006);

const BASE_MODELS: [BaseModel; 42] = [
    BaseModel {
        make: "Honda",
        model: "Accord",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 24_000,
        popularity: 9,
    },
    BaseModel {
        make: "Honda",
        model: "Civic",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 18_000,
        popularity: 10,
    },
    BaseModel {
        make: "Honda",
        model: "S2000",
        dominant_body: "Convt",
        car_type: "Passenger Car",
        base_price: 33_000,
        popularity: 2,
    },
    BaseModel {
        make: "Honda",
        model: "Odyssey",
        dominant_body: "Van",
        car_type: "Van",
        base_price: 27_000,
        popularity: 5,
    },
    BaseModel {
        make: "Honda",
        model: "CR-V",
        dominant_body: "SUV",
        car_type: "SUV",
        base_price: 22_000,
        popularity: 6,
    },
    BaseModel {
        make: "Toyota",
        model: "Camry",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 23_000,
        popularity: 10,
    },
    BaseModel {
        make: "Toyota",
        model: "Corolla",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 16_500,
        popularity: 9,
    },
    BaseModel {
        make: "Toyota",
        model: "Solara",
        dominant_body: "Convt",
        car_type: "Passenger Car",
        base_price: 26_000,
        popularity: 3,
    },
    BaseModel {
        make: "Toyota",
        model: "4Runner",
        dominant_body: "SUV",
        car_type: "SUV",
        base_price: 29_000,
        popularity: 5,
    },
    BaseModel {
        make: "Toyota",
        model: "Tacoma",
        dominant_body: "Truck",
        car_type: "Truck",
        base_price: 21_000,
        popularity: 6,
    },
    BaseModel {
        make: "Toyota",
        model: "Sienna",
        dominant_body: "Van",
        car_type: "Van",
        base_price: 25_500,
        popularity: 4,
    },
    BaseModel {
        make: "Ford",
        model: "F150",
        dominant_body: "Truck",
        car_type: "Truck",
        base_price: 24_500,
        popularity: 10,
    },
    BaseModel {
        make: "Ford",
        model: "Mustang",
        dominant_body: "Coupe",
        car_type: "Passenger Car",
        base_price: 25_000,
        popularity: 6,
    },
    BaseModel {
        make: "Ford",
        model: "Taurus",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 20_500,
        popularity: 6,
    },
    BaseModel {
        make: "Ford",
        model: "Explorer",
        dominant_body: "SUV",
        car_type: "SUV",
        base_price: 27_500,
        popularity: 7,
    },
    BaseModel {
        make: "Ford",
        model: "Focus",
        dominant_body: "Hatchback",
        car_type: "Passenger Car",
        base_price: 15_500,
        popularity: 6,
    },
    BaseModel {
        make: "Chevrolet",
        model: "Corvette",
        dominant_body: "Convt",
        car_type: "Passenger Car",
        base_price: 45_000,
        popularity: 2,
    },
    BaseModel {
        make: "Chevrolet",
        model: "Impala",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 22_500,
        popularity: 6,
    },
    BaseModel {
        make: "Chevrolet",
        model: "Silverado",
        dominant_body: "Truck",
        car_type: "Truck",
        base_price: 25_500,
        popularity: 8,
    },
    BaseModel {
        make: "Chevrolet",
        model: "Tahoe",
        dominant_body: "SUV",
        car_type: "SUV",
        base_price: 34_000,
        popularity: 5,
    },
    BaseModel {
        make: "BMW",
        model: "Z4",
        dominant_body: "Convt",
        car_type: "Passenger Car",
        base_price: 40_000,
        popularity: 2,
    },
    BaseModel {
        make: "BMW",
        model: "325i",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 30_000,
        popularity: 4,
    },
    BaseModel {
        make: "BMW",
        model: "X5",
        dominant_body: "SUV",
        car_type: "SUV",
        base_price: 42_000,
        popularity: 3,
    },
    BaseModel {
        make: "Audi",
        model: "A4",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 28_500,
        popularity: 4,
    },
    BaseModel {
        make: "Audi",
        model: "TT",
        dominant_body: "Coupe",
        car_type: "Passenger Car",
        base_price: 35_000,
        popularity: 2,
    },
    BaseModel {
        make: "Porsche",
        model: "Boxster",
        dominant_body: "Convt",
        car_type: "Passenger Car",
        base_price: 44_000,
        popularity: 1,
    },
    BaseModel {
        make: "Porsche",
        model: "911",
        dominant_body: "Coupe",
        car_type: "Passenger Car",
        base_price: 70_000,
        popularity: 1,
    },
    BaseModel {
        make: "Nissan",
        model: "Altima",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 20_000,
        popularity: 7,
    },
    BaseModel {
        make: "Nissan",
        model: "350Z",
        dominant_body: "Coupe",
        car_type: "Passenger Car",
        base_price: 27_500,
        popularity: 3,
    },
    BaseModel {
        make: "Nissan",
        model: "Pathfinder",
        dominant_body: "SUV",
        car_type: "SUV",
        base_price: 26_500,
        popularity: 4,
    },
    BaseModel {
        make: "Jeep",
        model: "Grand Cherokee",
        dominant_body: "SUV",
        car_type: "SUV",
        base_price: 28_000,
        popularity: 6,
    },
    BaseModel {
        make: "Jeep",
        model: "Wrangler",
        dominant_body: "SUV",
        car_type: "SUV",
        base_price: 19_500,
        popularity: 4,
    },
    BaseModel {
        make: "Volkswagen",
        model: "Jetta",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 18_500,
        popularity: 6,
    },
    BaseModel {
        make: "Volkswagen",
        model: "Beetle",
        dominant_body: "Hatchback",
        car_type: "Passenger Car",
        base_price: 17_500,
        popularity: 4,
    },
    BaseModel {
        make: "Volkswagen",
        model: "Cabrio",
        dominant_body: "Convt",
        car_type: "Passenger Car",
        base_price: 21_000,
        popularity: 2,
    },
    BaseModel {
        make: "Dodge",
        model: "Caravan",
        dominant_body: "Van",
        car_type: "Van",
        base_price: 22_500,
        popularity: 6,
    },
    BaseModel {
        make: "Dodge",
        model: "Ram",
        dominant_body: "Truck",
        car_type: "Truck",
        base_price: 24_000,
        popularity: 6,
    },
    BaseModel {
        make: "Mazda",
        model: "Miata",
        dominant_body: "Convt",
        car_type: "Passenger Car",
        base_price: 22_500,
        popularity: 3,
    },
    BaseModel {
        make: "Mazda",
        model: "Mazda6",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 20_500,
        popularity: 4,
    },
    BaseModel {
        make: "Subaru",
        model: "Outback",
        dominant_body: "Wagon",
        car_type: "Passenger Car",
        base_price: 24_500,
        popularity: 4,
    },
    BaseModel {
        make: "Subaru",
        model: "Impreza",
        dominant_body: "Sedan",
        car_type: "Passenger Car",
        base_price: 19_000,
        popularity: 3,
    },
    BaseModel {
        make: "Volvo",
        model: "V70",
        dominant_body: "Wagon",
        car_type: "Passenger Car",
        base_price: 29_500,
        popularity: 2,
    },
];

/// The shared model catalog: every base model expanded into its trim
/// variants (126 distinct model names).
#[derive(Debug, Clone)]
pub struct CarCatalog {
    models: Vec<CarModel>,
}

impl Default for CarCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl CarCatalog {
    /// Builds the expanded catalog.
    pub fn new() -> Self {
        let mut models = Vec::with_capacity(BASE_MODELS.len() * TRIMS.len());
        for base in &BASE_MODELS {
            for (suffix, weight, price_mille) in &TRIMS {
                let model = if suffix.is_empty() {
                    base.model.to_string()
                } else {
                    format!("{} {suffix}", base.model)
                };
                models.push(CarModel {
                    make: base.make,
                    model,
                    dominant_body: base.dominant_body,
                    car_type: base.car_type,
                    base_price: base.base_price * price_mille / 1_000,
                    popularity: base.popularity * weight,
                });
            }
        }
        CarCatalog { models }
    }

    /// All models.
    pub fn models(&self) -> &[CarModel] {
        &self.models
    }

    /// Looks a model up by name.
    pub fn model(&self, name: &str) -> Option<&CarModel> {
        self.models.iter().find(|m| m.model == name)
    }

    /// Total popularity mass (for weighted sampling).
    pub fn total_popularity(&self) -> u32 {
        self.models.iter().map(|m| m.popularity).sum()
    }

    /// Distinct makes, in catalog order.
    pub fn makes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for m in &self.models {
            if !out.contains(&m.make) {
                out.push(m.make);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_are_unique() {
        let c = CarCatalog::new();
        for (i, a) in c.models().iter().enumerate() {
            for b in &c.models()[i + 1..] {
                assert_ne!(a.model, b.model, "duplicate model name {}", a.model);
            }
        }
    }

    #[test]
    fn model_to_make_is_functional() {
        // Uniqueness of model names makes Model → Make exact by construction.
        let c = CarCatalog::new();
        assert_eq!(c.model("Accord").unwrap().make, "Honda");
        assert_eq!(c.model("Z4").unwrap().make, "BMW");
        assert!(c.model("NotACar").is_none());
    }

    #[test]
    fn body_styles_cover_dominants() {
        let c = CarCatalog::new();
        for m in c.models() {
            assert!(
                BODY_STYLES.contains(&m.dominant_body),
                "{} has unknown body style {}",
                m.model,
                m.dominant_body
            );
        }
    }

    #[test]
    fn catalog_has_convertibles_and_trucks() {
        let c = CarCatalog::new();
        let convt = c
            .models()
            .iter()
            .filter(|m| m.dominant_body == "Convt")
            .count();
        let trucks = c
            .models()
            .iter()
            .filter(|m| m.dominant_body == "Truck")
            .count();
        assert!(convt >= 5, "need several convertible models for Figure 3");
        assert!(trucks >= 3);
    }

    #[test]
    fn popularity_positive() {
        let c = CarCatalog::new();
        assert!(c.models().iter().all(|m| m.popularity > 0));
        assert!(c.total_popularity() > 100);
        assert!(c.makes().len() >= 10);
    }
}
