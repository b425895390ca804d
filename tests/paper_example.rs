//! Reproduces the paper's running example end-to-end (§4.1, Tables 2–3):
//! the Table 2 car fragment, the query `Q: σ[Body Style = Convt]`, the
//! mined AFD `Model ⇝ Body Style`, and the rewritten queries
//! `Q'1: σ[Model = A4]`, `Q'2: σ[Model = Z4]`, `Q'3: σ[Model = Boxster]`.

use std::collections::BTreeSet;
use std::sync::Arc;

use qpiad::core::mediator::{Qpiad, QpiadConfig};
use qpiad::core::rewrite::generate_rewrites;
use qpiad::db::{
    AttrType, PredOp, Predicate, Relation, Schema, SelectQuery, Tuple, TupleId, Value, WebSource,
};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};

fn schema() -> Arc<Schema> {
    Schema::of(
        "cars",
        &[
            ("make", AttrType::Categorical),
            ("model", AttrType::Categorical),
            ("year", AttrType::Integer),
            ("body_style", AttrType::Categorical),
        ],
    )
}

/// The exact Table 2 fragment (ids 1–6 in the paper).
fn table2(_schema: &Arc<Schema>) -> Vec<Tuple> {
    let rows: Vec<(&str, &str, i64, Option<&str>)> = vec![
        ("Audi", "A4", 2001, Some("Convt")),
        ("BMW", "Z4", 2002, Some("Convt")),
        ("Porsche", "Boxster", 2005, Some("Convt")),
        ("BMW", "Z4", 2003, None),
        ("Honda", "Civic", 2004, None),
        ("Toyota", "Camry", 2002, Some("Sedan")),
    ];
    rows.into_iter()
        .enumerate()
        .map(|(i, (mk, md, y, b))| {
            Tuple::new(
                TupleId(i as u32),
                vec![
                    Value::str(mk),
                    Value::str(md),
                    Value::int(y),
                    b.map(Value::str).unwrap_or(Value::Null),
                ],
            )
        })
        .collect()
}

/// A training sample exhibiting `Model ⇝ Body Style` (the fragment alone is
/// too small to mine from — the mediator samples the source, §5).
fn training_sample(schema: &Arc<Schema>) -> Relation {
    let mut tuples = Vec::new();
    let mut id = 100u32;
    // Each make sells several models with different body styles, so the
    // mined dependency is Model ⇝ Body Style, not Make ⇝ Body Style.
    let catalog: Vec<(&str, &str, &str)> = vec![
        ("Audi", "A4", "Convt"),
        ("Audi", "TT", "Coupe"),
        ("BMW", "Z4", "Convt"),
        ("BMW", "325i", "Sedan"),
        ("Porsche", "Boxster", "Convt"),
        ("Porsche", "911", "Coupe"),
        ("Honda", "Civic", "Sedan"),
        ("Honda", "Odyssey", "Van"),
        ("Toyota", "Camry", "Sedan"),
        ("Toyota", "Tacoma", "Truck"),
    ];
    for (make, model, body) in catalog {
        for year in [2001i64, 2002, 2003, 2004] {
            for _ in 0..3 {
                tuples.push(Tuple::new(
                    TupleId(id),
                    vec![
                        Value::str(make),
                        Value::str(model),
                        Value::int(year),
                        Value::str(body),
                    ],
                ));
                id += 1;
            }
        }
    }
    // One contrary row keeps the dependency approximate, not exact.
    tuples.push(Tuple::new(
        TupleId(id),
        vec![
            Value::str("BMW"),
            Value::str("Z4"),
            Value::int(2002),
            Value::str("Coupe"),
        ],
    ));
    Relation::new(schema.clone(), tuples)
}

/// §4.2's multi-attribute example: `Q: σ[Model=Accord ∧ Price between
/// 15000 and 20000]` with AFDs `{Make, Body Style} ⇝ Model` and
/// `{Year, Model} ⇝ Price`. The first rewriting iteration replaces the
/// Model constraint with Make/Body-Style equalities (keeping the Price
/// range); the second keeps `Model=Accord` and adds Year equalities
/// (dropping the Price constraint).
#[test]
fn section_4_2_multi_attribute_example() {
    let schema = Schema::of(
        "cars",
        &[
            ("make", AttrType::Categorical),
            ("model", AttrType::Categorical),
            ("year", AttrType::Integer),
            ("body_style", AttrType::Categorical),
            ("price", AttrType::Integer),
        ],
    );
    let make = schema.expect_attr("make");
    let model = schema.expect_attr("model");
    let year = schema.expect_attr("year");
    let body = schema.expect_attr("body_style");
    let price = schema.expect_attr("price");

    // Sample where {make, body_style} determines model and {year, model}
    // determines price (both approximately — one contrary row each).
    let catalog: Vec<(&str, &str, &str)> = vec![
        ("Honda", "Accord", "Sedan"),
        ("Honda", "Civic", "Coupe"),
        ("Honda", "Odyssey", "Van"),
        ("Toyota", "Camry", "Sedan"),
        ("Toyota", "Celica", "Coupe"),
        ("BMW", "325i", "Sedan"),
        ("BMW", "Z4", "Coupe"),
    ];
    let mut tuples = Vec::new();
    let mut id = 0u32;
    for (mi, (mk, md, bd)) in catalog.iter().enumerate() {
        for (yi, yr) in [2001i64, 2002, 2003].iter().enumerate() {
            // Price determined by (year, model) jointly: a model-specific
            // base plus a year step — neither attribute alone suffices.
            let p = 14_000 + (mi as i64) * 1_000 + (yi as i64) * 2_000;
            for _ in 0..3 {
                tuples.push(Tuple::new(
                    TupleId(id),
                    vec![
                        Value::str(*mk),
                        Value::str(*md),
                        Value::int(*yr),
                        Value::str(*bd),
                        Value::int(p),
                    ],
                ));
                id += 1;
            }
        }
    }
    // Contrary rows keep both dependencies approximate.
    tuples.push(Tuple::new(
        TupleId(id),
        vec![
            Value::str("Honda"),
            Value::str("Accord"),
            Value::int(2001),
            Value::str("Sedan"),
            Value::int(99_000),
        ],
    ));
    tuples.push(Tuple::new(
        TupleId(id + 1),
        vec![
            Value::str("Honda"),
            Value::str("Prelude"),
            Value::int(2002),
            Value::str("Sedan"),
            Value::int(16_000),
        ],
    ));
    let sample = Relation::new(schema.clone(), tuples);
    let stats = SourceStats::mine(&sample, 1_000, &MiningConfig::default());

    // The paper's two AFDs (as determining sets).
    let dtr_model: BTreeSet<_> = stats
        .determining_set(model)
        .expect("AFD for model")
        .iter()
        .copied()
        .collect();
    assert_eq!(dtr_model, [make, body].into_iter().collect::<BTreeSet<_>>());
    let dtr_price: BTreeSet<_> = stats
        .determining_set(price)
        .expect("AFD for price")
        .iter()
        .copied()
        .collect();
    assert_eq!(
        dtr_price,
        [model, year].into_iter().collect::<BTreeSet<_>>()
    );

    // Rewrite Q.
    let q = SelectQuery::new(vec![
        Predicate::eq(model, "Accord"),
        Predicate::between(price, 15_000i64, 20_000i64),
    ]);
    let base = sample.select(&q);
    assert!(!base.is_empty());
    let rewrites = generate_rewrites(&q, &base, &stats);
    assert!(!rewrites.is_empty());

    let mut saw_model_iteration = false;
    let mut saw_price_iteration = false;
    for rq in &rewrites {
        if rq.target_attr == model {
            // Q'1-style: Make/Body equalities plus the untouched Price range.
            saw_model_iteration = true;
            assert!(rq.query.predicate_on(model).is_none());
            assert!(matches!(
                rq.query.predicate_on(make).map(|p| &p.op),
                Some(PredOp::Eq(_))
            ));
            assert!(matches!(
                rq.query.predicate_on(body).map(|p| &p.op),
                Some(PredOp::Eq(_))
            ));
            assert!(matches!(
                rq.query.predicate_on(price).map(|p| &p.op),
                Some(PredOp::Between(_, _))
            ));
        } else if rq.target_attr == price {
            // Q'3-style: Model=Accord kept, Year equality added, Price gone.
            saw_price_iteration = true;
            assert!(rq.query.predicate_on(price).is_none());
            assert_eq!(
                rq.query.predicate_on(model).map(|p| &p.op),
                Some(&PredOp::Eq(Value::str("Accord")))
            );
            assert!(matches!(
                rq.query.predicate_on(year).map(|p| &p.op),
                Some(PredOp::Eq(_))
            ));
        }
    }
    assert!(saw_model_iteration, "no rewrites targeting Model");
    assert!(saw_price_iteration, "no rewrites targeting Price");
}

#[test]
fn section_4_1_running_example() {
    let schema = schema();
    let model = schema.expect_attr("model");
    let body = schema.expect_attr("body_style");

    let sample = training_sample(&schema);
    let stats = SourceStats::mine(&sample, 1_000, &MiningConfig::default());

    // The paper's mined AFD: Model ⇝ Body Style.
    let dtr = stats.determining_set(body).expect("AFD for body style");
    assert_eq!(dtr, &[model], "dtrSet(Body Style) = {{Model}}");

    // The base result set of Q: t1, t2, t3.
    let fragment = Relation::new(schema.clone(), table2(&schema));
    let q = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let base = fragment.select(&q);
    assert_eq!(
        base.iter().map(|t| t.id()).collect::<Vec<_>>(),
        vec![TupleId(0), TupleId(1), TupleId(2)]
    );

    // The three rewritten queries of §4.1, one per distinct base-set model.
    let rewrites = generate_rewrites(&q, &base, &stats);
    let rewritten_models: BTreeSet<String> = rewrites
        .iter()
        .map(|rq| {
            let preds = rq.query.predicates();
            assert_eq!(preds.len(), 1, "single-predicate rewrites");
            assert_eq!(preds[0].attr, model);
            match &preds[0].op {
                PredOp::Eq(v) => v.to_string(),
                other => panic!("expected equality, got {other:?}"),
            }
        })
        .collect();
    assert_eq!(
        rewritten_models,
        ["A4", "Z4", "Boxster"]
            .iter()
            .map(|s| s.to_string())
            .collect::<BTreeSet<_>>()
    );

    // End to end: Q'2 retrieves t4 (the null-body Z4) as a ranked possible
    // answer; t5 (Civic, null body) is never retrieved — exactly the
    // paper's point about AllReturned's false positives.
    let source = WebSource::new("cars.com", fragment);
    let qpiad = Qpiad::new(stats, QpiadConfig::default().with_k(10));
    let answers = qpiad.answer(&source, &q).unwrap();
    let possible_ids: Vec<TupleId> = answers.possible.iter().map(|a| a.tuple.id()).collect();
    assert_eq!(possible_ids, vec![TupleId(3)], "t4 and only t4");
    let t4 = &answers.possible[0];
    assert!(t4.confidence > 0.8, "Z4 is almost surely a convertible");
    let explanation = t4.explanation.as_ref().expect("AFD explanation");
    assert_eq!(explanation.lhs, vec![model]);
    assert_eq!(explanation.rhs, body);
}
