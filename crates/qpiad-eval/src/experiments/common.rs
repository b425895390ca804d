//! Shared experiment infrastructure: dataset "worlds" and helpers.

use qpiad_core::mediator::{AnswerSet, Qpiad, QpiadConfig};
use qpiad_data::cars::CarsConfig;
use qpiad_data::census::CensusConfig;
use qpiad_data::complaints::ComplaintsConfig;
use qpiad_data::corrupt::{corrupt, CorruptionConfig, Provenance};
use qpiad_data::sample::uniform_sample;
use qpiad_db::{Relation, SelectQuery, Tuple, WebSource};
use qpiad_learn::knowledge::{MiningConfig, SourceStats};

use crate::metrics::pr_curve;
use crate::report::Series;
use crate::truth::Oracle;

/// Experiment sizing. The paper uses 55k/45k/200k-tuple datasets; the
/// defaults here are smaller but in the same statistical regime.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the Cars ground truth.
    pub cars_rows: usize,
    /// Rows of the Census ground truth.
    pub census_rows: usize,
    /// Rows of the Complaints ground truth.
    pub complaints_rows: usize,
    /// Training-sample fraction (paper default: 10%).
    pub sample_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// The full configuration the `exp` binary runs at.
    pub fn full() -> Self {
        Scale {
            cars_rows: 25_000,
            census_rows: 25_000,
            complaints_rows: 40_000,
            sample_fraction: 0.10,
            seed: 0x9_1AD,
        }
    }

    /// A reduced configuration for unit tests.
    pub fn quick() -> Self {
        Scale {
            cars_rows: 5_000,
            census_rows: 5_000,
            complaints_rows: 6_000,
            sample_fraction: 0.10,
            seed: 0x9_1AD,
        }
    }
}

/// A ready-to-query experimental world over one dataset.
pub struct World {
    /// Ground truth (GD).
    pub ground: Relation,
    /// The corrupted experimental dataset (ED).
    pub ed: Relation,
    /// Which cells were nulled, and their true values.
    pub provenance: Provenance,
    /// Statistics mined from the training sample.
    pub stats: SourceStats,
}

impl World {
    /// Builds a world from a ground-truth relation.
    pub fn from_ground(ground: Relation, sample_fraction: f64, seed: u64) -> Self {
        let (ed, provenance) = corrupt(&ground, &CorruptionConfig::default().with_seed(seed));
        let sample = uniform_sample(&ed, sample_fraction, seed ^ 0x5A);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        World {
            ground,
            ed,
            provenance,
            stats,
        }
    }

    /// A fresh metered web source over ED.
    pub fn web_source(&self, name: &str) -> WebSource {
        WebSource::new(name, self.ed.clone())
    }

    /// The oracle for this world.
    pub fn oracle(&self) -> Oracle<'_> {
        Oracle::new(&self.ground, &self.ed)
    }
}

/// The Cars world.
pub fn cars_world(scale: &Scale) -> World {
    let ground = CarsConfig::default()
        .with_rows(scale.cars_rows)
        .generate(scale.seed);
    World::from_ground(ground, scale.sample_fraction, scale.seed.wrapping_add(1))
}

/// The Census world.
pub fn census_world(scale: &Scale) -> World {
    let ground = CensusConfig {
        rows: scale.census_rows,
        ..Default::default()
    }
    .generate(scale.seed.wrapping_add(2));
    World::from_ground(ground, scale.sample_fraction, scale.seed.wrapping_add(3))
}

/// The Complaints world (for joins).
pub fn complaints_world(scale: &Scale) -> World {
    let ground = ComplaintsConfig {
        rows: scale.complaints_rows,
    }
    .generate(scale.seed.wrapping_add(4));
    World::from_ground(ground, scale.sample_fraction, scale.seed.wrapping_add(5))
}

/// Runs QPIAD on a world and returns the answer set.
pub fn run_qpiad(
    world: &World,
    source: &WebSource,
    query: &SelectQuery,
    config: QpiadConfig,
) -> AnswerSet {
    let qpiad = Qpiad::new(world.stats.clone(), config);
    qpiad
        .answer(source, query)
        .expect("web source accepts QPIAD's rewritten queries")
}

/// Builds the `(recall, precision)` series for a ranked list of possible
/// answers against the oracle.
pub fn pr_series(
    name: &str,
    world: &World,
    query: &SelectQuery,
    ranked: &[&Tuple],
    max_points: usize,
) -> Series {
    let oracle = world.oracle();
    let relevant = oracle.relevant_possible(query);
    let labels: Vec<bool> = ranked.iter().map(|t| relevant.contains(&t.id())).collect();
    let curve = pr_curve(&labels, relevant.len());
    let pts = crate::metrics::downsample(&curve, max_points);
    Series::new(name, pts.iter().map(|p| (p.recall, p.precision)))
}

/// QPIAD's ranked possible answers as plain tuples.
pub fn possible_tuples(answers: &AnswerSet) -> Vec<&Tuple> {
    answers.possible.iter().map(|a| &a.tuple).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::Predicate;

    #[test]
    fn worlds_build_consistently() {
        let scale = Scale::quick();
        let w = cars_world(&scale);
        assert_eq!(w.ground.len(), scale.cars_rows);
        assert_eq!(w.ed.len(), scale.cars_rows);
        assert!(!w.provenance.is_empty());
        assert!(!w.stats.afds().is_empty());
    }

    #[test]
    fn qpiad_run_on_world_yields_possible_answers() {
        let scale = Scale::quick();
        let w = cars_world(&scale);
        let source = w.web_source("cars.com");
        let body = w.ed.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let answers = run_qpiad(&w, &source, &q, QpiadConfig::default().with_k(20));
        assert!(!answers.possible.is_empty());
        let series = pr_series("QPIAD", &w, &q, &possible_tuples(&answers), 50);
        assert!(!series.points.is_empty());
        // Early ranked answers must clearly beat the base rate (the tail of
        // the curve legitimately decays toward it, as in the paper).
        let early = series.points[0].y;
        assert!(early > 0.5, "early precision {early}");
    }
}
