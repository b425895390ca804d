//! A fuller mediator session over used-car sources, exercising:
//!
//! * honest random-probe sampling against the web form (no bulk download),
//! * the α knob trading precision against recall under a query budget,
//! * multi-attribute selection queries,
//! * retrieving possible answers from a source whose local schema does not
//!   support the constrained attribute (§4.3, the paper's Yahoo! Autos
//!   scenario).
//!
//! ```text
//! cargo run --release --example used_car_mediator
//! ```

use qpiad::core::correlated::{answer_from_correlated, is_correlated_source_usable};
use qpiad::core::mediator::{Qpiad, QpiadConfig};
use qpiad::core::rank::RankConfig;
use qpiad::data::cars::CarsConfig;
use qpiad::data::catalog::CarCatalog;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::probe_sample;
use qpiad::db::{
    AutonomousSource, Predicate, RetryPolicy, SelectQuery, SourceBinding, Value, WebSource,
};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};
use qpiad::learn::persist::StatsSnapshot;

fn main() {
    // Cars.com-like source: full schema, incomplete.
    let ground = CarsConfig::default().with_rows(20_000).generate(11);
    let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
    let cars = WebSource::new("cars.com", ed);
    let schema = cars.schema().clone();

    // --- Offline: probe the source through its web form. -----------------
    let model = schema.expect_attr("model");
    let probe_values: Vec<Value> = CarCatalog::new()
        .models()
        .iter()
        .map(|m| Value::str(&m.model))
        .collect();
    let probed = probe_sample(&cars, model, &probe_values, 0.10, usize::MAX, 3);
    println!(
        "probed {} tuples through the web form (SmplRatio {:.1}, PerInc {:.3}); cost: {} probe queries",
        probed.relation.len(),
        probed.smpl_ratio,
        probed.per_inc,
        cars.meter().queries
    );
    let mining_config = MiningConfig::default();
    let stats = SourceStats::mine_probed(
        &probed.relation,
        probed.smpl_ratio,
        probed.per_inc,
        &mining_config,
    );
    cars.reset_meter();

    // Mined knowledge is an offline artifact: snapshot it, pretend the
    // mediator restarted, and restore.
    let snapshot = StatsSnapshot::capture(&stats, &mining_config).to_json();
    let stats = StatsSnapshot::from_json(&snapshot)
        .expect("snapshot parses")
        .restore();
    println!(
        "knowledge snapshot: {} bytes of JSON, {} AFDs restored",
        snapshot.len(),
        stats.afds().len()
    );

    // --- The α knob under a 10-query budget. ------------------------------
    let price = schema.expect_attr("price");
    let query = SelectQuery::new(vec![Predicate::between(price, 18_000i64, 22_000i64)]);
    println!("\nquery {}:", query.display(&schema));
    for alpha in [0.0, 0.5, 2.0] {
        cars.reset_meter();
        let qpiad = Qpiad::new(
            stats.clone(),
            QpiadConfig::default().with_k(10).with_alpha(alpha),
        );
        let answers = qpiad.answer(&cars, &query).expect("accepted");
        println!(
            "  alpha={alpha:<4} -> {} possible answers, mean confidence {:.3}",
            answers.possible.len(),
            answers.possible.iter().map(|a| a.confidence).sum::<f64>()
                / answers.possible.len().max(1) as f64,
        );
    }

    // --- Multi-attribute selection. ---------------------------------------
    let body = schema.expect_attr("body_style");
    let year = schema.expect_attr("year");
    let query = SelectQuery::new(vec![
        Predicate::eq(body, "SUV"),
        Predicate::eq(year, 2004i64),
    ]);
    cars.reset_meter();
    let qpiad = Qpiad::new(
        stats.clone(),
        QpiadConfig::default().with_k(12).with_alpha(1.0),
    );
    let answers = qpiad.answer(&cars, &query).expect("accepted");
    println!(
        "\nmulti-attribute {}: {} certain, {} possible, {} deferred (two nulls)",
        query.display(&schema),
        answers.certain.len(),
        answers.possible.len(),
        answers.deferred.len()
    );

    // --- Correlated-source retrieval (§4.3). -------------------------------
    // A Yahoo!-Autos-like source with different inventory and no body_style
    // column in its local schema.
    let yahoo_ground = CarsConfig::default().with_rows(20_000).generate(12);
    let keep: Vec<_> = schema
        .attr_ids()
        .filter(|a| schema.attr(*a).name() != "body_style")
        .collect();
    let yahoo_local = yahoo_ground.project_to("yahoo_autos", &keep);
    let binding = SourceBinding::by_name("yahoo_autos", &schema, yahoo_local.schema());
    let yahoo = WebSource::new("yahoo_autos", yahoo_local);

    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    assert!(is_correlated_source_usable(&stats, &binding, &query));
    let answers = answer_from_correlated(
        &cars,
        &stats,
        &yahoo,
        &binding,
        &query,
        &RankConfig { alpha: 0.0, k: 8 },
        &RetryPolicy::default(),
        &mut qpiad::core::QueryContext::unbounded(),
    )
    .expect("rewrites expressible on yahoo");
    let answers = answers.possible;
    println!(
        "\ncorrelated retrieval from `{}` (no body_style column): {} possible answers",
        yahoo.name(),
        answers.len()
    );
    // Judge the top answers against Yahoo's hidden ground truth.
    let hits = answers
        .iter()
        .take(25)
        .filter(|a| {
            yahoo_ground
                .by_id(a.tuple.id())
                .map(|t| t.value(body) == &Value::str("Convt"))
                .unwrap_or(false)
        })
        .count();
    println!(
        "  top-25 precision vs hidden truth: {:.2}",
        hits as f64 / answers.len().clamp(1, 25) as f64
    );
}
