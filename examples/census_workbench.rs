//! Census workbench: classifier strategies and rewriting quality on the
//! census dataset (the paper's second evaluation domain).
//!
//! ```text
//! cargo run --release --example census_workbench
//! ```
//!
//! Trains each §5.3 feature-selection strategy, reports its null-value
//! prediction accuracy against held-out truth, and then answers the
//! paper's `Relationship = Own-child` query with ranked possible answers.

use qpiad::core::mediator::{Qpiad, QpiadConfig};
use qpiad::data::census::CensusConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{Predicate, SelectQuery, WebSource};
use qpiad::eval::Oracle;
use qpiad::learn::knowledge::{MiningConfig, SourceStats};
use qpiad::learn::strategy::FeatureStrategy;

fn main() {
    let ground = CensusConfig {
        rows: 20_000,
        ..Default::default()
    }
    .generate(5);
    let (ed, provenance) = corrupt(&ground, &CorruptionConfig::default());
    let sample = uniform_sample(&ed, 0.10, 9);
    let schema = ed.schema().clone();

    // --- Strategy shoot-out on the injected nulls. -------------------------
    println!("null-value prediction accuracy by strategy:");
    let strategies = [
        ("Best AFD", FeatureStrategy::BestAfd),
        ("All attributes", FeatureStrategy::AllAttributes),
        (
            "Hybrid One-AFD",
            FeatureStrategy::HybridOneAfd { min_conf: 0.5 },
        ),
        ("Ensemble", FeatureStrategy::Ensemble),
    ];
    for (name, strategy) in strategies {
        let stats = SourceStats::mine(
            &sample,
            ed.len(),
            &MiningConfig::default().with_strategy(strategy),
        );
        let (mut hits, mut n) = (0usize, 0usize);
        for (id, attr, truth) in provenance.iter() {
            let tuple = ed.by_id(id).expect("exists");
            if let Some((predicted, _)) = stats.predictor().predict(attr, tuple) {
                n += 1;
                hits += usize::from(&predicted == truth);
            }
        }
        println!(
            "  {name:<16} {:.3} ({n} cells)",
            hits as f64 / n.max(1) as f64
        );
    }

    // --- The paper's Figure 4 query. ---------------------------------------
    let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
    println!("\nmined determining sets:");
    for attr in schema.attr_ids() {
        if let Some(afd) = stats.afds().best(attr) {
            println!("  {}", afd.display(&schema));
        }
    }

    let rel = schema.expect_attr("relationship");
    let query = SelectQuery::new(vec![Predicate::eq(rel, "Own-child")]);
    let source = WebSource::new("census", ed.clone());
    let qpiad = Qpiad::new(stats, QpiadConfig::default().with_k(25).with_alpha(1.0));
    let answers = qpiad.answer(&source, &query).expect("accepted");

    let oracle = Oracle::new(&ground, &ed);
    let relevant = oracle.relevant_possible(&query);
    let hits = answers
        .possible
        .iter()
        .filter(|a| relevant.contains(&a.tuple.id()))
        .count();
    println!(
        "\n{}: {} certain, {} possible answers, precision {:.3}, recall {:.3}",
        query.display(&schema),
        answers.certain.len(),
        answers.possible.len(),
        hits as f64 / answers.possible.len().max(1) as f64,
        hits as f64 / relevant.len().max(1) as f64
    );
}
