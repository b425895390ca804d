//! Aggregate queries over an incomplete source (§4.4): COUNT and SUM with
//! and without missing-value prediction, compared against the hidden
//! ground truth.
//!
//! ```text
//! cargo run --release --example aggregate_queries
//! ```

use qpiad::core::aggregate::{aggregate_accuracy, answer_aggregate, AggregateConfig};
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{AggregateQuery, Predicate, SelectQuery, WebSource};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};

fn main() {
    let ground = CarsConfig::default().with_rows(20_000).generate(31);
    let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
    let sample = uniform_sample(&ed, 0.10, 5);
    let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
    let source = WebSource::new("cars.com", ed);
    let schema = source.relation().schema().clone();
    let body = schema.expect_attr("body_style");
    let price = schema.expect_attr("price");

    println!(
        "{:<34} {:>12} {:>12} {:>12}  {:>7} {:>7}",
        "query", "truth", "certain", "predicted", "acc(c)", "acc(p)"
    );
    for style in ["Convt", "SUV", "Truck", "Sedan"] {
        let select = SelectQuery::new(vec![Predicate::eq(body, style)]);
        for (label, aq) in [
            (
                format!("Count(*) where body={style}"),
                AggregateQuery::count(select.clone()),
            ),
            (
                format!("Sum(price) where body={style}"),
                AggregateQuery::sum(select.clone(), price),
            ),
        ] {
            let truth = aq.evaluate(ground.tuples().iter().filter(|t| select.matches(t)));
            let ans = answer_aggregate(&stats, &AggregateConfig::default(), &source, &aq)
                .expect("aggregate accepted");
            println!(
                "{label:<34} {truth:>12.0} {:>12.0} {:>12.0}  {:>7.3} {:>7.3}",
                ans.certain,
                ans.with_prediction,
                aggregate_accuracy(ans.certain, truth),
                aggregate_accuracy(ans.with_prediction, truth),
            );
        }
    }
    println!(
        "\n(the `predicted` column folds in incomplete tuples whose most likely \
         completion matches the query — §4.4's gating rule)"
    );
}
