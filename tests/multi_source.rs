//! Integration tests for the multi-source features: the global catalog,
//! correlated-source retrieval, joins, and aggregates.

use qpiad::core::aggregate::{answer_aggregate, AggregateConfig};
use qpiad::core::correlated::{answer_from_correlated, is_correlated_source_usable};
use qpiad::core::join::{answer_join, JoinConfig, JoinSide};
use qpiad::core::rank::RankConfig;
use qpiad::data::cars::CarsConfig;
use qpiad::data::complaints::ComplaintsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{
    AggregateQuery, AutonomousSource, GlobalCatalog, JoinQuery, Predicate, Relation, SelectQuery,
    SourceBinding, Value, WebSource,
};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};

fn mine(ed: &Relation, seed: u64) -> SourceStats {
    let sample = uniform_sample(ed, 0.10, seed);
    SourceStats::mine(&sample, ed.len(), &MiningConfig::default())
}

#[test]
fn catalog_routes_queries_between_global_and_local_schemas() {
    let cars = CarsConfig::default().with_rows(1_000).generate(1);
    let global = cars.schema().clone();
    let keep: Vec<_> = global
        .attr_ids()
        .filter(|a| global.attr(*a).name() != "body_style")
        .collect();
    let yahoo_local = cars.project_to("yahoo", &keep);

    let catalog = GlobalCatalog::new(global.clone())
        .with_source("cars.com", &global)
        .with_source("yahoo", yahoo_local.schema());

    let body = global.expect_attr("body_style");
    assert_eq!(catalog.sources_supporting(body).len(), 1);
    assert_eq!(catalog.sources_lacking(body).len(), 1);

    // Queries on supported attributes translate; on missing ones they fail.
    let binding = catalog.binding("yahoo").unwrap();
    let q = SelectQuery::new(vec![Predicate::eq(global.expect_attr("model"), "Civic")]);
    let local_q = binding.translate_query(&q).unwrap();
    assert_eq!(yahoo_local.select(&local_q).len(), {
        // Same result as filtering the full relation.
        cars.select(&q).len()
    });
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    assert!(binding.translate_query(&q).is_err());
}

#[test]
fn correlated_source_pipeline_end_to_end() {
    // Statistics from cars.com, retrieval from a body_style-less source.
    let cars_gd = CarsConfig::default().with_rows(8_000).generate(2);
    let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(1));
    let stats = mine(&cars_ed, 7);
    let cars = WebSource::new("cars.com", cars_ed);

    let other_gd = CarsConfig::default().with_rows(8_000).generate(3);
    let schema = other_gd.schema().clone();
    let keep: Vec<_> = schema
        .attr_ids()
        .filter(|a| schema.attr(*a).name() != "body_style")
        .collect();
    let local = other_gd.project_to("carsdirect", &keep);
    let binding = SourceBinding::by_name("carsdirect", &schema, local.schema());
    let target = WebSource::new("carsdirect", local);

    let body = schema.expect_attr("body_style");
    let q = SelectQuery::new(vec![Predicate::eq(body, "Truck")]);
    assert!(is_correlated_source_usable(&stats, &binding, &q));

    let answers = answer_from_correlated(
        &cars,
        &stats,
        &target,
        &binding,
        &q,
        &RankConfig { alpha: 0.0, k: 10 },
        &qpiad::db::RetryPolicy::default(),
        &mut qpiad::core::QueryContext::unbounded(),
    )
    .unwrap();
    assert!(!answers.degraded.is_degraded());
    let answers = answers.possible;
    assert!(!answers.is_empty());
    // Precision against the hidden truth is far above the truck base rate.
    let hits = answers
        .iter()
        .filter(|a| {
            other_gd
                .by_id(a.tuple.id())
                .map(|t| t.value(body) == &Value::str("Truck"))
                .unwrap_or(false)
        })
        .count();
    let precision = hits as f64 / answers.len() as f64;
    let base_rate = other_gd
        .tuples()
        .iter()
        .filter(|t| t.value(body) == &Value::str("Truck"))
        .count() as f64
        / other_gd.len() as f64;
    assert!(
        precision > base_rate + 0.2,
        "precision {precision:.3} vs base rate {base_rate:.3}"
    );
}

#[test]
fn join_pipeline_recovers_ground_truth_pairs() {
    let cars_gd = CarsConfig::default().with_rows(6_000).generate(4);
    let comp_gd = ComplaintsConfig { rows: 9_000 }.generate(5);
    let (cars_ed, _) = corrupt(&cars_gd, &CorruptionConfig::default().with_seed(6));
    let (comp_ed, _) = corrupt(&comp_gd, &CorruptionConfig::default().with_seed(7));
    let cars_stats = mine(&cars_ed, 8);
    let comp_stats = mine(&comp_ed, 9);
    let cars = WebSource::new("cars", cars_ed);
    let comps = WebSource::new("complaints", comp_ed);

    let model_l = cars.schema().expect_attr("model");
    let model_r = comps.schema().expect_attr("model");
    let gc = comps.schema().expect_attr("general_component");
    let jq = JoinQuery {
        left: SelectQuery::new(vec![Predicate::eq(model_l, "F150")]),
        right: SelectQuery::new(vec![Predicate::eq(gc, "Electrical System")]),
        left_attr: model_l,
        right_attr: model_r,
    };
    let ans = answer_join(
        &JoinSide {
            source: &cars,
            stats: &cars_stats,
        },
        &JoinSide {
            source: &comps,
            stats: &comp_stats,
        },
        &JoinConfig {
            alpha: 0.5,
            k_pairs: 10,
        },
        &jq,
    )
    .unwrap();
    assert!(!ans.results.is_empty());

    // Every certain joined tuple is a true pair.
    for j in ans.results.iter().filter(|j| j.is_certain()) {
        let lt = cars_gd.by_id(j.left.id()).unwrap();
        let rt = comp_gd.by_id(j.right.id()).unwrap();
        assert!(jq.left.matches(lt));
        assert!(jq.right.matches(rt));
        assert_eq!(lt.value(jq.left_attr), rt.value(jq.right_attr));
    }
}

#[test]
fn aggregates_improve_with_prediction_across_styles() {
    let ground = CarsConfig::default().with_rows(10_000).generate(10);
    let (ed, _) = corrupt(&ground, &CorruptionConfig::default().with_seed(11));
    let stats = mine(&ed, 12);
    let source = WebSource::new("cars", ed);
    let body = ground.schema().expect_attr("body_style");

    let mut improved = 0usize;
    let mut total = 0usize;
    for style in ["Sedan", "SUV", "Truck", "Convt", "Coupe", "Van"] {
        let select = SelectQuery::new(vec![Predicate::eq(body, style)]);
        let truth = ground.count(&select) as f64;
        if truth == 0.0 {
            continue;
        }
        let aq = AggregateQuery::count(select);
        let ans = answer_aggregate(&stats, &AggregateConfig::default(), &source, &aq).unwrap();
        total += 1;
        let err_certain = (ans.certain - truth).abs();
        let err_pred = (ans.with_prediction - truth).abs();
        if err_pred <= err_certain {
            improved += 1;
        }
    }
    assert!(
        improved * 2 > total,
        "prediction helped only {improved}/{total} aggregates"
    );
}
