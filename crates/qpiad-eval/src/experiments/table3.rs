//! Table 3 — null-value prediction accuracy of AFD-enhanced classifiers.
//!
//! For Cars and Census, over 5 runs with fresh corruption/sampling seeds:
//! train predictors with each §5.3 strategy from a 10% sample, predict each
//! injected null from the remaining attribute values, and report the
//! fraction predicted exactly right. We add the Ensemble strategy (the
//! paper discusses it but tabulates only three columns) and the
//! association-rule baseline of \[31\] (§6.5's comparison).

use qpiad_data::cars::CarsConfig;
use qpiad_data::census::CensusConfig;
use qpiad_data::corrupt::{corrupt, CorruptionConfig};
use qpiad_data::sample::uniform_sample;
use qpiad_db::Relation;
use qpiad_learn::assoc::AssocImputer;
use qpiad_learn::knowledge::{MiningConfig, SourceStats};
use qpiad_learn::strategy::FeatureStrategy;
use qpiad_learn::tan::TanClassifier;
use qpiad_learn::tree::{DecisionTree, TreeConfig};

use crate::report::{Report, Series};

use super::common::Scale;

const RUNS: u64 = 5;

/// The tabulated strategies.
pub fn strategies() -> Vec<(&'static str, FeatureStrategy)> {
    vec![
        ("Best AFD", FeatureStrategy::BestAfd),
        ("All Attributes", FeatureStrategy::AllAttributes),
        (
            "Hybrid One-AFD",
            FeatureStrategy::HybridOneAfd { min_conf: 0.5 },
        ),
        ("Ensemble", FeatureStrategy::Ensemble),
    ]
}

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "table3",
        "Table 3: null value prediction accuracy across AFD-enhanced classifiers",
        "dataset (0=Cars, 1=Census)",
        "accuracy",
    );
    report.note(format!("averaged over {RUNS} corruption/sampling runs"));
    report.note("paper (real data): Cars 68.82/66.86/68.82, Census 72/70.51/72 (%)".to_string());

    let cars = CarsConfig::default()
        .with_rows(scale.cars_rows)
        .generate(scale.seed.wrapping_add(200));
    let census = CensusConfig {
        rows: scale.census_rows,
        ..Default::default()
    }
    .generate(scale.seed.wrapping_add(201));

    for (name, strategy) in strategies() {
        let acc_cars = average_accuracy(&cars, strategy, scale);
        let acc_census = average_accuracy(&census, strategy, scale);
        report.push_series(Series::new(name, vec![(0.0, acc_cars), (1.0, acc_census)]));
    }

    // Association-rule baseline (single run per dataset is enough to show
    // the gap the paper describes).
    let assoc_cars = assoc_accuracy(&cars, scale);
    let assoc_census = assoc_accuracy(&census, scale);
    report.push_series(Series::new(
        "Assoc rules [31]",
        vec![(0.0, assoc_cars), (1.0, assoc_census)],
    ));

    // Decision-tree comparator (interaction-capturing but sample-hungry).
    report.push_series(Series::new(
        "Decision tree",
        vec![
            (0.0, tree_accuracy(&cars, scale)),
            (1.0, tree_accuracy(&census, scale)),
        ],
    ));

    // TAN — the restricted Bayes network (§6.5's WEKA comparison stand-in).
    report.push_series(Series::new(
        "TAN Bayes net",
        vec![
            (0.0, tan_accuracy(&cars, scale)),
            (1.0, tan_accuracy(&census, scale)),
        ],
    ));
    report
}

/// Per-attribute Chow–Liu TAN over all other attributes.
fn tan_accuracy(ground: &Relation, scale: &Scale) -> f64 {
    let seed = scale.seed.wrapping_add(300);
    let (ed, prov) = corrupt(ground, &CorruptionConfig::default().with_seed(seed));
    let sample = uniform_sample(&ed, scale.sample_fraction, seed ^ 0xAB);
    let models: Vec<TanClassifier> = ed
        .schema()
        .attr_ids()
        .map(|target| {
            let features = ed.schema().attr_ids().filter(|a| *a != target).collect();
            TanClassifier::train(&sample, target, features, 1.0)
        })
        .collect();
    let mut hits = 0usize;
    let mut n = 0usize;
    for (id, attr, truth) in prov.iter() {
        let tuple = ed.by_id(id).expect("corrupted tuple exists");
        n += 1;
        if let Some((predicted, _)) = models[attr.index()].predict(tuple) {
            if &predicted == truth {
                hits += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        hits as f64 / n as f64
    }
}

/// Per-attribute ID3 trees over all other attributes, bounded depth.
fn tree_accuracy(ground: &Relation, scale: &Scale) -> f64 {
    let seed = scale.seed.wrapping_add(300);
    let (ed, prov) = corrupt(ground, &CorruptionConfig::default().with_seed(seed));
    let sample = uniform_sample(&ed, scale.sample_fraction, seed ^ 0xAB);
    let trees: Vec<DecisionTree> = ed
        .schema()
        .attr_ids()
        .map(|target| {
            let features = ed.schema().attr_ids().filter(|a| *a != target).collect();
            DecisionTree::train(&sample, target, features, &TreeConfig::default())
        })
        .collect();
    let mut hits = 0usize;
    let mut n = 0usize;
    for (id, attr, truth) in prov.iter() {
        let tuple = ed.by_id(id).expect("corrupted tuple exists");
        n += 1;
        if let Some((predicted, _)) = trees[attr.index()].predict(tuple) {
            if &predicted == truth {
                hits += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        hits as f64 / n as f64
    }
}

/// Mean prediction accuracy of one strategy over the corrupted cells.
pub fn average_accuracy(ground: &Relation, strategy: FeatureStrategy, scale: &Scale) -> f64 {
    let mut total = 0.0;
    for run in 0..RUNS {
        let seed = scale.seed.wrapping_add(300 + run);
        let (ed, prov) = corrupt(ground, &CorruptionConfig::default().with_seed(seed));
        let sample = uniform_sample(&ed, scale.sample_fraction, seed ^ 0xAB);
        let stats = SourceStats::mine(
            &sample,
            ed.len(),
            &MiningConfig::default().with_strategy(strategy),
        );
        let mut hits = 0usize;
        let mut n = 0usize;
        for (id, attr, truth) in prov.iter() {
            let tuple = ed.by_id(id).expect("corrupted tuple exists");
            if let Some((predicted, _)) = stats.predictor().predict(attr, tuple) {
                n += 1;
                if &predicted == truth {
                    hits += 1;
                }
            }
        }
        total += if n == 0 { 0.0 } else { hits as f64 / n as f64 };
    }
    total / RUNS as f64
}

fn assoc_accuracy(ground: &Relation, scale: &Scale) -> f64 {
    let seed = scale.seed.wrapping_add(300);
    let (ed, prov) = corrupt(ground, &CorruptionConfig::default().with_seed(seed));
    let sample = uniform_sample(&ed, scale.sample_fraction, seed ^ 0xAB);
    // One imputer per attribute, mirroring how the classifiers are used.
    let imputers: Vec<AssocImputer> = ed
        .schema()
        .attr_ids()
        .map(|a| AssocImputer::train(&sample, a, 0.01, 0.3))
        .collect();
    let mut hits = 0usize;
    let mut n = 0usize;
    for (id, attr, truth) in prov.iter() {
        let tuple = ed.by_id(id).expect("corrupted tuple exists");
        n += 1;
        if let Some((predicted, _)) = imputers[attr.index()].predict(tuple) {
            if &predicted == truth {
                hits += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        hits as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_matches_or_beats_all_attributes() {
        let scale = Scale::quick();
        let report = run(&scale);
        let acc = |name: &str, idx: usize| report.series_named(name).unwrap().points[idx].y;
        for dataset in [0, 1] {
            let hybrid = acc("Hybrid One-AFD", dataset);
            let all = acc("All Attributes", dataset);
            // The paper's headline: Hybrid One-AFD ≥ All Attributes.
            assert!(
                hybrid >= all - 0.02,
                "dataset {dataset}: hybrid {hybrid} vs all {all}"
            );
            // Sanity: well above random guessing.
            assert!(hybrid > 0.3, "dataset {dataset} accuracy {hybrid}");
        }
    }

    #[test]
    fn association_rules_lag_classifiers() {
        let scale = Scale::quick();
        let report = run(&scale);
        let acc = |name: &str, idx: usize| report.series_named(name).unwrap().points[idx].y;
        // §6.5: association rules perform worse on small samples.
        assert!(acc("Assoc rules [31]", 0) <= acc("Hybrid One-AFD", 0) + 0.02);
    }
}
