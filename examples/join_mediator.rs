//! Join mediation over two incomplete sources: Cars ⋈_Model Complaints
//! (§4.5, the paper's Figure 13 scenario).
//!
//! ```text
//! cargo run --release --example join_mediator
//! ```

use qpiad::core::join::{answer_join, JoinConfig, JoinSide};
use qpiad::data::cars::CarsConfig;
use qpiad::data::complaints::ComplaintsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{AutonomousSource, JoinQuery, Predicate, SelectQuery, WebSource};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};

fn main() {
    // Two independent incomplete sources.
    let cars_gd = CarsConfig::default().with_rows(15_000).generate(21);
    let comp_gd = ComplaintsConfig { rows: 25_000 }.generate(22);
    let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(1));
    let (comp_ed, _) = corrupt(&comp_gd, &CorruptionConfig::default().with_seed(2));
    let cars_stats = SourceStats::mine(
        &uniform_sample(&cars_ed, 0.10, 3),
        cars_ed.len(),
        &MiningConfig::default(),
    );
    let comp_stats = SourceStats::mine(
        &uniform_sample(&comp_ed, 0.10, 4),
        comp_ed.len(),
        &MiningConfig::default(),
    );
    let cars = WebSource::new("cars.com", cars_ed);
    let comps = WebSource::new("nhtsa_complaints", comp_ed);
    let cars_schema = cars.schema().clone();
    let comp_schema = comps.schema().clone();

    // "Which Grand Cherokees have engine-cooling complaints on file?"
    let model_l = cars_schema.expect_attr("model");
    let model_r = comp_schema.expect_attr("model");
    let gc = comp_schema.expect_attr("general_component");
    let jq = JoinQuery {
        left: SelectQuery::new(vec![Predicate::eq(model_l, "Grand Cherokee")]),
        right: SelectQuery::new(vec![Predicate::eq(gc, "Engine and Engine Cooling")]),
        left_attr: model_l,
        right_attr: model_r,
    };
    println!(
        "join: cars{} ⋈ complaints{} on model",
        jq.left.display(&cars_schema),
        jq.right.display(&comp_schema)
    );

    for alpha in [0.0, 0.5, 2.0] {
        cars.reset_meter();
        comps.reset_meter();
        let answer = answer_join(
            &JoinSide {
                source: &cars,
                stats: &cars_stats,
            },
            &JoinSide {
                source: &comps,
                stats: &comp_stats,
            },
            &JoinConfig { alpha, k_pairs: 10 },
            &jq,
        )
        .expect("join accepted");
        let certain = answer.results.iter().filter(|j| j.is_certain()).count();
        println!(
            "\nalpha={alpha}: {} joined tuples ({certain} certain) from {} query pairs; \
             cost {}+{} source queries",
            answer.results.len(),
            answer.pairs_issued,
            cars.meter().queries,
            comps.meter().queries
        );
        for j in answer.results.iter().take(3) {
            println!(
                "  [conf {:.3}] car {} ⋈ complaint {}",
                j.confidence,
                j.left.display(&cars_schema),
                j.right.display(&comp_schema)
            );
        }
    }
}
