//! Property-based tests (proptest) over the core data structures and
//! invariants of the QPIAD pipeline.

use std::sync::Arc;

use proptest::prelude::*;

use qpiad::core::rank::{f_measure, order_rewrites, RankConfig};
use qpiad::core::rewrite::{generate_rewrites, RewrittenQuery};
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{
    AttrId, AttrType, PredOp, Predicate, Relation, Schema, SelectQuery, Tuple, TupleId, Value,
};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};
use qpiad::learn::nbc::NaiveBayes;
use qpiad::learn::partition::StrippedPartition;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A small categorical relation: two columns over bounded domains, with
/// nulls.
fn tiny_relation() -> impl Strategy<Value = Relation> {
    let cell = prop_oneof![
        3 => (0u8..4).prop_map(|v| Value::str(format!("x{v}"))),
        1 => Just(Value::Null),
    ];
    let row = (cell.clone(), cell);
    proptest::collection::vec(row, 1..60).prop_map(|rows| {
        let schema = Schema::of(
            "t",
            &[("a", AttrType::Categorical), ("b", AttrType::Categorical)],
        );
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| Tuple::new(TupleId(i as u32), vec![a, b]))
            .collect();
        Relation::new(schema, tuples)
    })
}

// ---------------------------------------------------------------------------
// Partition / g3 laws
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn g3_error_is_a_fraction(r in tiny_relation()) {
        let pa = StrippedPartition::from_column(&r, AttrId(0));
        let pb = StrippedPartition::from_column(&r, AttrId(1));
        let e = pa.g3_error(&pb.lookup());
        prop_assert!((0.0..=1.0).contains(&e));
        let ek = pa.g3_key_error();
        prop_assert!((0.0..=1.0).contains(&ek));
    }

    #[test]
    fn refinement_never_increases_g3(r in tiny_relation()) {
        // Π_{a,b} refines Π_a, so g3(ab → b) ≤ g3(a → b).
        let pa = StrippedPartition::from_column(&r, AttrId(0));
        let pb = StrippedPartition::from_column(&r, AttrId(1));
        let lkb = pb.lookup();
        let pab = pa.product(&lkb);
        prop_assert!(pab.g3_error(&lkb) <= pa.g3_error(&lkb) + 1e-12);
    }

    #[test]
    fn product_classes_are_within_operand_classes(r in tiny_relation()) {
        let pa = StrippedPartition::from_column(&r, AttrId(0));
        let pb = StrippedPartition::from_column(&r, AttrId(1));
        let lka = pa.lookup();
        let lkb = pb.lookup();
        let pab = pa.product(&lkb);
        for class in pab.classes() {
            let a0 = lka[class[0] as usize];
            let b0 = lkb[class[0] as usize];
            for row in class {
                prop_assert_eq!(lka[*row as usize], a0);
                prop_assert_eq!(lkb[*row as usize], b0);
            }
        }
    }

    #[test]
    fn partition_covers_each_row_at_most_once(r in tiny_relation()) {
        let pa = StrippedPartition::from_column(&r, AttrId(0));
        let mut seen = vec![false; r.len()];
        for class in pa.classes() {
            prop_assert!(class.len() >= 2);
            for row in class {
                prop_assert!(!seen[*row as usize]);
                seen[*row as usize] = true;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Naïve Bayes laws
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn nbc_distribution_is_a_distribution(r in tiny_relation(), probe in 0u8..5) {
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 1.0);
        let t = Tuple::new(TupleId(999), vec![Value::str(format!("x{probe}")), Value::Null]);
        let d = nbc.distribution(&t);
        if !d.is_empty() {
            let sum: f64 = d.iter().map(|(_, p)| p).sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "sums to {sum}");
            prop_assert!(d.iter().all(|(_, p)| (0.0..=1.0 + 1e-9).contains(p)));
        }
    }

    #[test]
    fn nbc_prob_matching_eq_sums_to_one(r in tiny_relation()) {
        let nbc = NaiveBayes::train(&r, AttrId(1), vec![AttrId(0)], 1.0);
        let t = Tuple::new(TupleId(999), vec![Value::str("x0"), Value::Null]);
        if !nbc.classes().is_empty() {
            let total: f64 = nbc
                .classes()
                .to_vec()
                .iter()
                .map(|c| nbc.prob_matching(&t, &PredOp::Eq(c.clone())))
                .sum();
            prop_assert!((total - 1.0).abs() < 1e-6);
        }
    }
}

// ---------------------------------------------------------------------------
// F-measure & ordering laws
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn f_measure_bounded_by_max_component(p in 0.0f64..=1.0, r in 0.0f64..=1.0, alpha in 0.0f64..=4.0) {
        let f = f_measure(p, r, alpha);
        prop_assert!(f >= -1e-12);
        prop_assert!(f <= p.max(r) + 1e-9, "F {f} exceeds max({p},{r})");
    }

    #[test]
    fn alpha_zero_reduces_to_precision(p in 0.01f64..=1.0, r in 0.01f64..=1.0) {
        prop_assert!((f_measure(p, r, 0.0) - p).abs() < 1e-9);
    }

    #[test]
    fn ordering_returns_at_most_k_in_precision_order(
        precisions in proptest::collection::vec((0.0f64..=1.0, 0.0f64..=100.0), 0..25),
        alpha in 0.0f64..=2.0,
        k in 1usize..10,
    ) {
        let rewrites: Vec<RewrittenQuery> = precisions
            .iter()
            .enumerate()
            .map(|(i, (p, s))| RewrittenQuery {
                query: SelectQuery::new(vec![Predicate::eq(AttrId(0), i as i64)]),
                target_attr: AttrId(1),
                precision: *p,
                est_selectivity: *s,
                afd: None,
            })
            .collect();
        let n = rewrites.len();
        let ordered = order_rewrites(rewrites, &RankConfig { alpha, k });
        prop_assert!(ordered.len() <= k.min(n));
        for w in ordered.windows(2) {
            prop_assert!(w[0].rewrite.precision >= w[1].rewrite.precision - 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// Rewriting soundness on the real pipeline (bounded cases)
// ---------------------------------------------------------------------------

fn cars_stats() -> (Relation, SourceStats) {
    let ground = CarsConfig::default().with_rows(4_000).generate(99);
    let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
    let sample = uniform_sample(&ed, 0.15, 1);
    let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
    (ed, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rewrites_never_constrain_their_target(style_idx in 0usize..8) {
        static STYLES: [&str; 8] = [
            "Sedan", "Coupe", "Convt", "SUV", "Hatchback", "Truck", "Van", "Wagon",
        ];
        let (ed, stats) = cars_stats();
        let body = ed.schema().expect_attr("body_style");
        let q = SelectQuery::new(vec![Predicate::eq(body, STYLES[style_idx])]);
        let base = ed.select(&q);
        for rq in generate_rewrites(&q, &base, &stats) {
            prop_assert!(rq.query.predicate_on(rq.target_attr).is_none());
            prop_assert!((0.0..=1.0 + 1e-9).contains(&rq.precision));
            prop_assert!(rq.est_selectivity >= 0.0);
            // Every rewritten query derives from a base-set tuple: some
            // certain answer satisfies all its Eq predicates on the
            // determining set.
            let derivable = base.iter().any(|t| {
                rq.query.predicates().iter().all(|p| match &p.op {
                    PredOp::Eq(v) => t.value(p.attr) == v,
                    _ => true,
                })
            });
            prop_assert!(derivable, "rewrite not grounded in the base set");
        }
    }
}

// ---------------------------------------------------------------------------
// Mediator invariants over randomized queries
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary single-attribute equality queries over the cars world:
    /// the answer set partitions cleanly and every piece obeys its
    /// definition.
    #[test]
    fn mediator_invariants_hold_on_random_queries(
        attr_idx in 0usize..7,
        value_idx in 0usize..200,
        k in 1usize..20,
        alpha in 0.0f64..2.0,
    ) {
        use qpiad::core::mediator::{Qpiad, QpiadConfig};
        use qpiad::db::WebSource;
        let (ed, stats) = cars_stats();
        let attr = AttrId(attr_idx);
        let domain = ed.active_domain(attr);
        let value = domain[value_idx % domain.len()].clone();
        let q = SelectQuery::new(vec![Predicate::eq(attr, value)]);

        let source = WebSource::new("cars", ed.clone());
        let qpiad = Qpiad::new(
            stats.clone(),
            QpiadConfig::default().with_alpha(alpha).with_k(k).with_confidence_threshold(0.0),
        );
        let answers = qpiad.answer(&source, &q).unwrap();

        // Certain answers are exactly the source's certain answers.
        prop_assert_eq!(&answers.certain, &ed.select(&q));
        // Possible answers: one null on the constrained attr, no
        // contradiction, never duplicated, confidence in range.
        let mut seen = std::collections::HashSet::new();
        for a in &answers.possible {
            prop_assert!(a.tuple.value(attr).is_null());
            prop_assert!(q.possibly_matches(&a.tuple));
            prop_assert!(seen.insert(a.tuple.id()));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&a.confidence));
            prop_assert!(a.query_index < answers.issued.len());
        }
        // Budget respected, precision order preserved.
        prop_assert!(answers.issued.len() <= k);
        for w in answers.issued.windows(2) {
            prop_assert!(w[0].precision >= w[1].precision - 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption provenance round-trip
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn corruption_provenance_is_exact(fraction in 0.01f64..0.5, seed in 0u64..1000) {
        let ground = CarsConfig::default().with_rows(500).generate(5);
        let (ed, prov) = corrupt(
            &ground,
            &CorruptionConfig { fraction, attrs: None, seed },
        );
        // Null count equals provenance size; restoring every value yields GD.
        let nulls: usize = ed.tuples().iter().map(|t| t.null_attrs().count()).sum();
        prop_assert_eq!(nulls, prov.len());
        let mut restored = ed.clone();
        for (id, attr, truth) in prov.iter() {
            let idx = restored
                .tuples()
                .iter()
                .position(|t| t.id() == id)
                .expect("tuple exists");
            let t = restored.tuples()[idx].with_value(attr, truth.clone());
            restored.tuples_mut()[idx] = t;
        }
        prop_assert_eq!(restored.tuples(), ground.tuples());
    }
}

// ---------------------------------------------------------------------------
// Query semantics laws
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn certain_and_possible_are_disjoint(r in tiny_relation(), v in 0u8..4) {
        let q = SelectQuery::new(vec![Predicate::eq(AttrId(1), Value::str(format!("x{v}")))]);
        for t in r.tuples() {
            prop_assert!(!(q.matches(t) && q.possibly_matches(t)));
        }
    }

    #[test]
    fn schema_projection_preserves_ids(r in tiny_relation()) {
        let p = r.project_to("p", &[AttrId(1)]);
        prop_assert_eq!(p.len(), r.len());
        for (a, b) in r.tuples().iter().zip(p.tuples()) {
            prop_assert_eq!(a.id(), b.id());
            prop_assert_eq!(a.value(AttrId(1)), b.value(AttrId(0)));
        }
    }
}

// ---------------------------------------------------------------------------
// Index-backed selection equals scan semantics
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn selection_engine_equals_scan(r in tiny_relation(), a in 0u8..4, b in 0u8..4) {
        let engine = qpiad::db::SelectionEngine::new();
        let queries = [
            SelectQuery::new(vec![Predicate::eq(AttrId(0), Value::str(format!("x{a}")))]),
            SelectQuery::new(vec![
                Predicate::eq(AttrId(0), Value::str(format!("x{a}"))),
                Predicate::eq(AttrId(1), Value::str(format!("x{b}"))),
            ]),
            SelectQuery::new(vec![Predicate::is_null(AttrId(1))]),
            SelectQuery::all(),
        ];
        for q in &queries {
            prop_assert_eq!(engine.select(&r, q), r.select(q));
            prop_assert_eq!(engine.count(&r, q), r.count(q));
        }
    }
}

/// A two-column relation mixing a categorical and a numeric column, with
/// nulls in both — the shape `Between` and conjunctive predicates see.
fn mixed_relation() -> impl Strategy<Value = Relation> {
    let cat = prop_oneof![
        3 => (0u8..4).prop_map(|v| Value::str(format!("x{v}"))),
        1 => Just(Value::Null),
    ];
    let num = prop_oneof![
        3 => (0i64..40).prop_map(Value::int),
        1 => Just(Value::Null),
    ];
    proptest::collection::vec((cat, num), 1..60).prop_map(|rows| {
        let schema = Schema::of(
            "m",
            &[("cat", AttrType::Categorical), ("num", AttrType::Integer)],
        );
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| Tuple::new(TupleId(i as u32), vec![a, b]))
            .collect();
        Relation::new(schema, tuples)
    })
}

proptest! {
    /// Posting-list retrieval over the interned columns must agree with the
    /// naive tuple scan for every operator the planner emits — ranges and
    /// conjunctions included, with the range driving the walk or filtering
    /// it, as the list sizes happen to decide.
    #[test]
    fn selection_engine_equals_scan_with_ranges(
        r in mixed_relation(),
        a in 0u8..4,
        lo in 0i64..40,
        width in 0i64..20,
    ) {
        let engine = qpiad::db::SelectionEngine::new();
        let queries = [
            SelectQuery::new(vec![Predicate::between(AttrId(1), lo, lo + width)]),
            SelectQuery::new(vec![
                Predicate::eq(AttrId(0), Value::str(format!("x{a}"))),
                Predicate::between(AttrId(1), lo, lo + width),
            ]),
            SelectQuery::new(vec![
                Predicate::is_null(AttrId(0)),
                Predicate::between(AttrId(1), lo, lo + width),
            ]),
        ];
        for q in &queries {
            prop_assert_eq!(engine.select(&r, q), r.select(q));
            prop_assert_eq!(engine.count(&r, q), r.count(q));
        }
    }
}

/// A four-column relation with nulls in every column: two categorical
/// columns sharing some strings (`x0`, `x1`) and two integer columns sharing
/// values, so a value interned for one column is unseen in another.
fn quad_relation() -> impl Strategy<Value = Relation> {
    // The last draw nulls one column in half of the rows.
    let row = (0u8..4, 0i64..12, 0u8..3, 0i64..12, 0usize..8);
    proptest::collection::vec(row, 1..200).prop_map(|rows| {
        let schema = Schema::of(
            "q",
            &[
                ("a", AttrType::Categorical),
                ("b", AttrType::Integer),
                ("c", AttrType::Categorical),
                ("d", AttrType::Integer),
            ],
        );
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, (a, b, c, d, null_at))| {
                let mut values = vec![
                    Value::str(format!("x{a}")),
                    Value::int(b),
                    Value::str(["x0", "x1", "y2"][c as usize]),
                    Value::int(d * 2),
                ];
                if let Some(cell) = values.get_mut(null_at) {
                    *cell = Value::Null;
                }
                Tuple::new(TupleId(i as u32), values)
            })
            .collect();
        Relation::new(schema, tuples)
    })
}

/// A predicate over `quad_relation`'s columns: mostly well-typed equalities
/// and ranges (bounds on and off the stored values, sometimes inverted),
/// plus `IsNull`, `Eq` on null, on a value unseen in the column and on a
/// value of the other type.
fn quad_predicate() -> impl Strategy<Value = Predicate> {
    fn value(text: bool, s: u8, i: i64) -> Value {
        if text {
            Value::str(format!("x{s}"))
        } else {
            Value::int(i)
        }
    }
    (0usize..4, 0u8..10, 0u8..5, 0i64..16, 0u8..8).prop_map(|(attr, kind, s, i, w)| {
        let (a, text) = (AttrId(attr), attr % 2 == 0);
        match kind {
            0..=3 => Predicate::eq(a, value(text, s, i)),
            4 => Predicate::eq(a, Value::Null),
            5 => Predicate::eq(a, value(!text, s, i)),
            6 => Predicate::is_null(a),
            _ => Predicate::between(
                a,
                value(text, s, i),
                value(text, (s + w) % 5, i + w as i64 - 2),
            ),
        }
    })
}

proptest! {
    /// Conjunctions of 0–4 predicates — repeated attributes, unseen, null
    /// and wrong-typed values, ranges as driver or filter — select and
    /// count exactly what the tuple scan does, and the row-id walk visits
    /// exactly the scan's rows, in relation order.
    #[test]
    fn selection_engine_equals_scan_on_conjunctions(
        r in quad_relation(),
        queries in proptest::collection::vec(proptest::collection::vec(quad_predicate(), 0..5), 1..9),
    ) {
        let engine = qpiad::db::SelectionEngine::new();
        for preds in queries {
            let q = SelectQuery::new(preds);
            prop_assert_eq!(engine.select(&r, &q), r.select(&q), "{:?}", q);
            prop_assert_eq!(engine.count(&r, &q), r.count(&q), "{:?}", q);
            let mut rows = Vec::new();
            engine.for_each_row(&r, &q, |row| rows.push(row));
            let scan: Vec<u32> = (0..r.len() as u32)
                .filter(|&row| q.matches(&r.tuples()[row as usize]))
                .collect();
            prop_assert_eq!(rows, scan, "{:?}", q);
        }
    }
}

/// A row of `quad_relation`'s shape for a delta: it also draws values the
/// relation never holds (`x4`, `x5`, `z3`, integers past 11), and nulls one
/// column in half of the rows.
fn quad_delta_row() -> impl Strategy<Value = Vec<Value>> {
    (0u8..6, 0i64..16, 0u8..4, 0i64..16, 0usize..8).prop_map(|(a, b, c, d, null_at)| {
        let mut values = vec![
            Value::str(format!("x{a}")),
            Value::int(b),
            Value::str(["x0", "x1", "y2", "z3"][c as usize]),
            Value::int(d * 2),
        ];
        if let Some(cell) = values.get_mut(null_at) {
            *cell = Value::Null;
        }
        values
    })
}

proptest! {
    /// A relation extended by replaced and appended rows answers exactly
    /// what `Relation::new` over the merged rows answers: the same tuples,
    /// the same rows, selections and counts for conjunctions of equalities,
    /// ranges and null tests, and every value the rows hold looks up to an
    /// id that resolves back to it. Only the ids differ, and values that
    /// only replaced rows held still look up in the extended dictionary,
    /// where no row holds their id.
    #[test]
    fn extended_image_equals_a_fresh_build_of_the_merged_rows(
        r in quad_relation(),
        replaced in proptest::collection::vec((0usize..200, quad_delta_row()), 0..12),
        appended in proptest::collection::vec(quad_delta_row(), 0..12),
        queries in proptest::collection::vec(proptest::collection::vec(quad_predicate(), 0..4), 1..9),
    ) {
        let replaced: Vec<(usize, Tuple)> = replaced
            .into_iter()
            .filter(|(row, _)| *row < r.len())
            .map(|(row, values)| (row, Tuple::new(r.tuples()[row].id(), values)))
            .collect();
        let n = r.len() as u32;
        let appended: Vec<Tuple> = appended
            .into_iter()
            .enumerate()
            .map(|(i, values)| Tuple::new(TupleId(n + i as u32), values))
            .collect();
        let extended = r.extended(&replaced, &appended);
        let mut merged = r.tuples().to_vec();
        for (row, t) in &replaced {
            merged[*row] = t.clone();
        }
        merged.extend(appended.iter().cloned());
        let fresh = Relation::new(r.schema().clone(), merged);
        prop_assert_eq!(extended.tuples(), fresh.tuples());

        let (image, fresh_image) = (extended.columnar(), fresh.columnar());
        prop_assert_eq!(image.n_rows(), fresh.len());
        prop_assert_eq!(image.arity(), fresh_image.arity());
        let dict = image.dict();
        let mut held = std::collections::HashSet::new();
        for (row, t) in fresh.tuples().iter().enumerate() {
            for a in 0..fresh.schema().arity() {
                let (v, id) = (t.value(AttrId(a)), image.vid_at(row, AttrId(a)));
                prop_assert_eq!(dict.resolve(id), v);
                prop_assert_eq!(dict.lookup(v), Some(id));
                held.insert(id);
            }
        }
        // The old dictionary's ids are kept: every id names what it did.
        let old = r.columnar().dict();
        prop_assert_eq!(&dict.values()[..old.len()], old.values());
        for (id, v) in dict.values().iter().enumerate().skip(1) {
            let id = qpiad::db::ValueId(id as u32);
            prop_assert_eq!(dict.lookup(v), Some(id));
            // A value no row holds is one only replaced rows held.
            prop_assert_eq!(held.contains(&id), fresh_image.dict().lookup(v).is_some(), "{:?}", v);
        }

        let (engine, fresh_engine) =
            (qpiad::db::SelectionEngine::new(), qpiad::db::SelectionEngine::new());
        for preds in queries {
            let q = SelectQuery::new(preds);
            prop_assert_eq!(engine.select(&extended, &q), fresh_engine.select(&fresh, &q), "{:?}", q);
            prop_assert_eq!(engine.count(&extended, &q), fresh.count(&q), "{:?}", q);
            let (mut rows, mut fresh_rows) = (Vec::new(), Vec::new());
            engine.for_each_row(&extended, &q, |row| rows.push(row));
            fresh_engine.for_each_row(&fresh, &q, |row| fresh_rows.push(row));
            prop_assert_eq!(rows, fresh_rows, "{:?}", q);
        }
    }
}

// ---------------------------------------------------------------------------
// Dictionary interning laws
// ---------------------------------------------------------------------------

proptest! {
    /// Interning any value sequence round-trips through `resolve`, nulls
    /// always land on the reserved id 0, equal values share one id, and a
    /// relation's columnar image agrees cell-for-cell with its tuples.
    #[test]
    fn dictionary_intern_resolve_round_trips(
        values in proptest::collection::vec(arb_value(), 0..80)
    ) {
        use qpiad::db::{Dictionary, ValueId};
        let mut dict = Dictionary::new();
        let ids: Vec<ValueId> = values.iter().map(|v| dict.intern(v)).collect();
        let mut first_id: std::collections::HashMap<&Value, ValueId> =
            std::collections::HashMap::new();
        for (v, id) in values.iter().zip(&ids) {
            prop_assert_eq!(dict.resolve(*id), v);
            prop_assert_eq!(id.is_null(), v.is_null());
            if v.is_null() {
                prop_assert_eq!(*id, ValueId::NULL);
            }
            // One id per distinct value, stable across re-interning.
            prop_assert_eq!(*first_id.entry(v).or_insert(*id), *id);
            prop_assert_eq!(dict.lookup(v), Some(*id));
        }
    }

    /// The columnar image built at relation construction resolves back to
    /// exactly the row-major tuple values.
    #[test]
    fn columnar_image_matches_tuples(r in mixed_relation()) {
        let columnar = r.columnar();
        prop_assert_eq!(columnar.n_rows(), r.len());
        prop_assert_eq!(columnar.arity(), r.schema().arity());
        for (row, t) in r.tuples().iter().enumerate() {
            for a in 0..r.schema().arity() {
                let vid = columnar.vid_at(row, AttrId(a));
                prop_assert_eq!(columnar.dict().resolve(vid), t.value(AttrId(a)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CSV round-trips arbitrary relations
// ---------------------------------------------------------------------------

fn csv_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        2 => any::<i64>().prop_map(Value::int),
        // Hostile strings: commas, quotes, newlines, unicode. The empty
        // string and the null token cannot round-trip (they ARE the null
        // encodings), so exclude them.
        3 => "[a-z0-9,\"\n é]{1,12}"
            .prop_filter("null encodings", |s| !s.trim().is_empty()
                && !s.trim().eq_ignore_ascii_case("null")
                && s.trim() == s
                && s.parse::<i64>().is_err())
            .prop_map(Value::str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_round_trips_hostile_relations(
        rows in proptest::collection::vec((csv_cell(), csv_cell()), 1..20)
    ) {
        use qpiad::data::io::{relation_from_csv, relation_to_csv, CsvOptions};
        let schema = Schema::of(
            "t",
            &[("alpha", AttrType::Categorical), ("beta", AttrType::Categorical)],
        );
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| Tuple::new(TupleId(i as u32), vec![a, b]))
            .collect();
        let original = Relation::new(schema, tuples);
        let text = relation_to_csv(&original);
        let back = relation_from_csv(&text, &CsvOptions::default()).unwrap();
        prop_assert_eq!(back.len(), original.len());
        for (x, y) in original.tuples().iter().zip(back.tuples()) {
            for (a, b) in x.values().iter().zip(y.values()) {
                // Integers may come back as ints or (if the column was
                // mixed) as their decimal string — value text must agree.
                match (a, b) {
                    (Value::Null, Value::Null) => {}
                    (a, b) => prop_assert_eq!(a.to_string(), b.to_string()),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Value ordering is total and consistent (hand-rolled Ord)
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::int),
        "[a-z]{0,6}".prop_map(Value::str),
    ]
}

proptest! {
    #[test]
    fn value_ord_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (on this triple).
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert!(a.cmp(&c) != Ordering::Greater);
        }
        // Consistency with Eq.
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
    }
}

// ---------------------------------------------------------------------------
// Knowledge lifecycle invariants: random snapshot corruption never panics,
// the drift statistic is partition- and thread-count invariant, and a
// save → load → refresh cycle preserves answers byte-identically.
// ---------------------------------------------------------------------------

use qpiad::core::network::{MediatorNetwork, NetworkAnswer};
use qpiad::core::{par, QpiadConfig};
use qpiad::db::WebSource;
use qpiad::learn::drift::{DriftConfig, DriftDetector, DriftRegistry};
use qpiad::learn::persist::StatsSnapshot;
use qpiad::learn::store::{decode_snapshot, encode_snapshot, KnowledgeStore};

/// A mined world plus its encoded snapshot, built once — mining is far too
/// expensive to redo per proptest case.
fn lifecycle_world() -> &'static (Relation, SourceStats, MiningConfig, String) {
    static WORLD: std::sync::OnceLock<(Relation, SourceStats, MiningConfig, String)> =
        std::sync::OnceLock::new();
    WORLD.get_or_init(|| {
        let ground = CarsConfig::default().with_rows(2_000).generate(41);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let config = MiningConfig::default();
        let stats = SourceStats::mine(&uniform_sample(&ed, 0.15, 4), ed.len(), &config);
        let encoded = encode_snapshot(&StatsSnapshot::capture(&stats, &config));
        (ed, stats, config, encoded)
    })
}

/// Everything rank- and float-sensitive about a network answer, bit-exact.
fn net_signature(answer: &NetworkAnswer) -> Vec<String> {
    answer
        .per_source
        .iter()
        .flat_map(|part| {
            std::iter::once(format!("source {} outcome={:?}", part.source, part.outcome))
                .chain(part.certain.iter().map(|t| format!("certain {:?}", t.id())))
                .chain(part.possible.iter().map(|r| {
                    format!(
                        "possible {:?} conf={:016x} prec={:016x} q={}",
                        r.tuple.id(),
                        r.confidence.to_bits(),
                        r.query_precision.to_bits(),
                        r.query_index
                    )
                }))
                .collect::<Vec<_>>()
        })
        .chain(
            answer
                .drift_verdicts
                .iter()
                .map(|v| format!("verdict {} stat={:016x}", v.source, v.statistic.to_bits())),
        )
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary byte edits and truncations of an encoded snapshot must
    /// never panic the decoder: every mutation either still decodes (and
    /// then restores to working statistics) or classifies as one of the
    /// documented failure kinds.
    #[test]
    fn snapshot_corruption_never_panics(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
        cut in any::<usize>(),
        truncate in any::<bool>(),
    ) {
        let (_, _, _, encoded) = lifecycle_world();
        let mut bytes = encoded.clone().into_bytes();
        if truncate {
            let keep = cut % (bytes.len() + 1);
            bytes.truncate(keep);
        }
        for (at, b) in &edits {
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] = *b;
            }
        }
        // Mutations may produce invalid UTF-8; a real reader would see the
        // lossy text (or an IO error, which the store classifies itself).
        let text = String::from_utf8_lossy(&bytes);
        match decode_snapshot(&text) {
            // Edits that cancel out (or only touch checksummed-but-ignored
            // bytes) can still decode; the snapshot must then be usable.
            Ok(snapshot) => {
                let restored = snapshot.restore();
                prop_assert!(restored.schema().arity() > 0);
            }
            Err(e) => prop_assert!(
                ["missing", "version-mismatch", "corrupt", "schema-mismatch", "malformed", "io"]
                    .contains(&e.kind()),
                "unclassified failure: {e}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The drift statistic is a function of the absorbed counts only: how
    /// the paired observations are chunked into probes, and in what order
    /// the probes are absorbed, must not move a single bit. The verdict
    /// never fires here: it would freeze the statistic at whichever
    /// absorb crossed the threshold.
    #[test]
    fn drift_statistic_ignores_observation_partitioning(
        chunk in 5usize..80,
        live_offset in 1usize..500,
    ) {
        static STYLES: [&str; 4] = ["Sedan", "Coupe", "Convt", "SUV"];
        let (ed, stats, _, _) = lifecycle_world();
        let tuples = ed.tuples();
        let body_style = ed.schema().expect_attr("body_style");
        // Pair each live chunk with a query cycling through every row and
        // a few body styles, so the two sides genuinely differ.
        let pairs: Vec<(SelectQuery, &[Tuple])> = tuples[live_offset % tuples.len()..]
            .chunks(chunk)
            .enumerate()
            .map(|(i, live)| {
                let query = match STYLES.get(i % (STYLES.len() + 1)) {
                    Some(style) => SelectQuery::new(vec![Predicate::eq(body_style, *style)]),
                    None => SelectQuery::all(),
                };
                (query, live)
            })
            .collect();
        let config = DriftConfig::default().with_threshold(f64::INFINITY);

        let one_probe = {
            let mut d = DriftDetector::new("s", stats, config);
            let mut p = d.probe();
            for (query, live) in &pairs {
                p.observe(stats, query, live);
            }
            d.absorb(p);
            d.statistic()
        };
        let many_probes_reversed = {
            let mut d = DriftDetector::new("s", stats, config);
            for (query, live) in pairs.iter().rev() {
                let mut p = d.probe();
                p.observe(stats, query, live);
                d.absorb(p);
            }
            d.statistic()
        };
        prop_assert!(one_probe.statistic > 0.0);
        prop_assert_eq!(one_probe.statistic.to_bits(), many_probes_reversed.statistic.to_bits());
        prop_assert_eq!(
            one_probe.value_divergence.to_bits(),
            many_probes_reversed.value_divergence.to_bits()
        );
        prop_assert_eq!(
            one_probe.afd_divergence.to_bits(),
            many_probes_reversed.afd_divergence.to_bits()
        );
    }
}

/// Resets the global worker-pool override when dropped, even on assert
/// failure.
struct PoolReset;
impl Drop for PoolReset {
    fn drop(&mut self) {
        par::set_thread_override(None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A drift-watched network pass produces bit-identical answers and
    /// drift statistics at QPIAD_THREADS=1 and at a larger pool size.
    #[test]
    fn drift_statistic_is_deterministic_across_thread_counts(
        threads in 2usize..9,
        style_idx in 0usize..8,
    ) {
        static STYLES: [&str; 8] = [
            "Sedan", "Coupe", "Convt", "SUV", "Hatchback", "Truck", "Van", "Wagon",
        ];
        let (ed, stats, _, _) = lifecycle_world();
        let global = ed.schema().clone();
        let q = SelectQuery::new(vec![Predicate::eq(
            global.expect_attr("body_style"),
            STYLES[style_idx],
        )]);

        let _reset = PoolReset;
        let pass = |n: usize| {
            par::set_thread_override(Some(n));
            let cars = WebSource::new("cars.com", ed.clone());
            let auctions = WebSource::new("auctions", ed.clone());
            let registry = Arc::new(DriftRegistry::new(
                DriftConfig::default().with_min_observations(10),
            ));
            let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(6))
                .with_drift(registry.clone())
                .add_supporting(&cars, stats.clone())
                .add_supporting(&auctions, stats.clone());
            let sig = net_signature(&network.answer(&q).unwrap());
            let stat = registry.statistic("cars.com").unwrap();
            (sig, stat.statistic.to_bits(), registry.observed_rows("cars.com"))
        };
        let sequential = pass(1);
        let parallel = pass(threads);
        prop_assert_eq!(sequential, parallel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Persisting mined knowledge, loading it back through the store, and
    /// atomically refreshing it with an identical re-mine are all
    /// answer-preserving, bit for bit.
    #[test]
    fn save_load_refresh_preserves_answers(style_idx in 0usize..8, k in 1usize..12) {
        static STYLES: [&str; 8] = [
            "Sedan", "Coupe", "Convt", "SUV", "Hatchback", "Truck", "Van", "Wagon",
        ];
        let (ed, stats, config, _) = lifecycle_world();
        let global = ed.schema().clone();
        let q = SelectQuery::new(vec![Predicate::eq(
            global.expect_attr("body_style"),
            STYLES[style_idx],
        )]);
        let cars = WebSource::new("cars.com", ed.clone());

        let live = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(k))
            .add_supporting(&cars, stats.clone());
        let from_live = net_signature(&live.answer(&q).unwrap());

        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-properties-store");
        let store = KnowledgeStore::open(dir).unwrap();
        store.save("cars.com", &StatsSnapshot::capture(stats, config)).unwrap();
        let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(k))
            .add_supporting_from_store(&cars, &store);
        prop_assert!(network.knowledge_failures().is_empty());
        let from_store = net_signature(&network.answer(&q).unwrap());

        network
            .refresh_member("cars.com", |_| Ok(stats.clone()), Some((&store, config)))
            .unwrap();
        let from_refresh = net_signature(&network.answer(&q).unwrap());

        prop_assert_eq!(&from_live, &from_store);
        prop_assert_eq!(&from_store, &from_refresh);
        prop_assert!(store.load_for("cars.com", ed.schema()).is_ok());
    }
}

// ---------------------------------------------------------------------------
// Overload ladder monotonicity under chaos
// ---------------------------------------------------------------------------

use qpiad::db::{
    ChaosConfig, ChaosSchedule, ChaosSource, PassCell, PressureLevel, QueryBudget, TupleId as Tid,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The degradation ladder clamps a rank-ordered *prefix* of the rewrite
    /// plan, so the answer lattice is monotone in pressure: for any chaos
    /// schedule and any two rungs p1 ≤ p2, the possible answers served at
    /// p2 are a subset of those at p1 (same tuples, found by the same
    /// ranked rewrites), and the certain answers are identical — overload
    /// trades recall, never soundness.
    #[test]
    fn overload_ladder_is_monotone_under_chaos(
        seed in 0u64..1_000,
        pass in 0u64..64,
        style_idx in 0usize..8,
        a in 0usize..4,
        b in 0usize..4,
    ) {
        static STYLES: [&str; 8] = [
            "Sedan", "Coupe", "Convt", "SUV", "Hatchback", "Truck", "Van", "Wagon",
        ];
        const RUNGS: [PressureLevel; 4] = [
            PressureLevel::Normal,
            PressureLevel::Elevated,
            PressureLevel::High,
            PressureLevel::Critical,
        ];
        let (p1, p2) = (RUNGS[a.min(b)], RUNGS[a.max(b)]);
        let (ed, stats) = cars_stats();
        let global = ed.schema().clone();
        let q = SelectQuery::new(vec![Predicate::eq(
            global.expect_attr("body_style"),
            STYLES[style_idx],
        )]);

        // One mediation pass at `pressure` under an arbitrary chaos
        // schedule pinned to an arbitrary pass number; both runs see the
        // exact same chaos because the schedule is a pure function of
        // (seed, member, pass).
        let run = |pressure: PressureLevel| -> (Vec<Tid>, Vec<(Tid, usize)>) {
            let schedule = Arc::new(ChaosSchedule::new(
                ChaosConfig::calm(1)
                    .with_seed(seed)
                    .with_outage_rate(0.15)
                    .with_skew_rate(0.3),
            ));
            let cell = PassCell::new();
            cell.set(pass);
            let source = ChaosSource::new(
                WebSource::new("cars.com", ed.clone()),
                0,
                schedule,
                cell,
            );
            let network = MediatorNetwork::new(global.clone(), QpiadConfig::default().with_k(8))
                .add_supporting(&source, stats.clone());
            let answer = network
                .answer_under(&q, QueryBudget::unlimited(), pressure)
                .expect("a single-member pass never fails outright");
            let certain = answer
                .per_source
                .iter()
                .flat_map(|s| s.certain.iter().map(|t| t.id()))
                .collect();
            let possible = answer
                .per_source
                .iter()
                .flat_map(|s| s.possible.iter().map(|r| (r.tuple.id(), r.query_index)))
                .collect();
            (certain, possible)
        };

        let (certain_lo, possible_lo) = run(p1);
        let (certain_hi, possible_hi) = run(p2);

        prop_assert_eq!(&certain_lo, &certain_hi, "certain answers must not move with pressure");
        let lo_set: std::collections::HashSet<_> = possible_lo.iter().collect();
        for entry in &possible_hi {
            prop_assert!(
                lo_set.contains(entry),
                "possible answer {entry:?} served at {p2:?} but not at {p1:?}"
            );
        }
        if p2 == PressureLevel::Critical {
            prop_assert!(possible_hi.is_empty(), "Critical serves certain answers only");
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental knowledge folds
// ---------------------------------------------------------------------------

use qpiad::learn::knowledge::FoldOutcome;

/// A fresh probe over the same two-column shape: row ids overlap the
/// retained sample's (replacements) and extend past it (appends), with the
/// same null rate as [`tiny_relation`]. Ids are deduplicated so the probe
/// is a well-formed relation.
fn probe_rows() -> impl Strategy<Value = Vec<(u32, Value, Value)>> {
    let cell = prop_oneof![
        3 => (0u8..4).prop_map(|v| Value::str(format!("x{v}"))),
        1 => Just(Value::Null),
    ];
    proptest::collection::vec((0u32..80, cell.clone(), cell), 0..30)
}

fn probe_relation(rows: &[(u32, Value, Value)]) -> Relation {
    let mut by_id = std::collections::BTreeMap::new();
    for (id, a, b) in rows {
        by_id.insert(*id, (a.clone(), b.clone()));
    }
    let schema = Schema::of(
        "t",
        &[("a", AttrType::Categorical), ("b", AttrType::Categorical)],
    );
    let tuples = by_id
        .into_iter()
        .map(|(id, (a, b))| Tuple::new(TupleId(id), vec![a, b]))
        .collect();
    Relation::new(schema, tuples)
}

fn fold_stats(stats: &SourceStats, fresh: &Relation, config: &MiningConfig) -> SourceStats {
    match stats.fold(fresh, config, 2.0).expect("same-arity probe") {
        FoldOutcome::Folded { stats, .. } => stats,
        // Confidences live in [0, 1], so no delta can cross a bound of 2.
        FoldOutcome::RemineRequired { .. } => unreachable!("bound 2.0 always folds"),
    }
}

/// Everything the fold maintains, bit-exact: AFD and AKey confidences and
/// every classifier posterior the predictor can produce over the probe
/// domain. Two stats with equal fingerprints are observably identical.
fn fold_fingerprint(stats: &SourceStats) -> Vec<String> {
    let mut out = Vec::new();
    // `AfdSet::iter` walks a per-rhs hash map, so sort the lines: the
    // *set* must be identical, its iteration order carries no meaning.
    let mut afds: Vec<String> = stats
        .afds()
        .iter()
        .map(|afd| {
            format!(
                "afd {:?} -> {:?} {}",
                afd.lhs,
                afd.rhs,
                afd.confidence.to_bits()
            )
        })
        .collect();
    afds.sort();
    out.extend(afds);
    for key in stats.akeys() {
        out.push(format!("akey {:?} {}", key.attrs, key.confidence.to_bits()));
    }
    for attr in [AttrId(0), AttrId(1)] {
        out.push(format!("dtr {:?} {:?}", attr, stats.determining_set(attr)));
        for v in 0u8..4 {
            let known = Value::str(format!("x{v}"));
            let cells = if attr == AttrId(0) {
                vec![Value::Null, known]
            } else {
                vec![known, Value::Null]
            };
            let t = Tuple::new(TupleId(9_000 + u32::from(v)), cells);
            for (value, p) in stats.predictor().distribution(attr, &t) {
                out.push(format!("nbc {:?} x{v} {:?} {}", attr, value, p.to_bits()));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental fold tracks the batch path exactly: every AFD/AKey
    /// present in both the folded bundle and a full `refresh` over the
    /// same probe carries a bit-identical g3 confidence over the merged
    /// sample, and every attribute whose feature choice survived the fold
    /// classifies bit-identically to its from-scratch retrained peer.
    #[test]
    fn fold_matches_batch_remine_over_the_merged_sample(
        old in tiny_relation(),
        probe in probe_rows(),
    ) {
        let config = MiningConfig::default();
        let stats = SourceStats::mine(&old, old.len() * 10, &config);
        let fresh = probe_relation(&probe);
        let folded = fold_stats(&stats, &fresh, &config);
        let remined = stats
            .refresh(
                &fresh,
                stats.selectivity().smpl_ratio(),
                stats.selectivity().per_inc(),
                &config,
            )
            .expect("same-arity probe");

        for afd in folded.afds().iter() {
            if let Some(batch) =
                remined.afds().iter().find(|b| b.lhs == afd.lhs && b.rhs == afd.rhs)
            {
                prop_assert_eq!(
                    afd.confidence.to_bits(),
                    batch.confidence.to_bits(),
                    "folded AFD {:?}->{:?} confidence {} != batch {}",
                    afd.lhs, afd.rhs, afd.confidence, batch.confidence
                );
            }
        }
        for key in folded.akeys() {
            if let Some(batch) = remined.akeys().iter().find(|b| b.attrs == key.attrs) {
                prop_assert_eq!(
                    key.confidence.to_bits(),
                    batch.confidence.to_bits(),
                    "folded AKey {:?} confidence {} != batch {}",
                    key.attrs, key.confidence, batch.confidence
                );
            }
        }
        for attr in [AttrId(0), AttrId(1)] {
            if folded.determining_set(attr) != remined.determining_set(attr) {
                // A confidence shift re-ranked the AFDs; the fold retrained
                // this classifier over a different feature set by design.
                continue;
            }
            for v in 0u8..4 {
                let known = Value::str(format!("x{v}"));
                let cells = if attr == AttrId(0) {
                    vec![Value::Null, known]
                } else {
                    vec![known, Value::Null]
                };
                let t = Tuple::new(TupleId(9_000 + u32::from(v)), cells);
                let a = folded.predictor().distribution(attr, &t);
                let b = remined.predictor().distribution(attr, &t);
                prop_assert_eq!(a.len(), b.len());
                for ((va, pa), (vb, pb)) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(va, vb);
                    prop_assert_eq!(
                        pa.to_bits(),
                        pb.to_bits(),
                        "posterior for {:?}=x{} diverged: folded {} batch {}",
                        attr, v, pa, pb
                    );
                }
            }
        }
    }

    /// A fold is byte-identical at any worker-pool width: its shard merge
    /// and per-attribute rebuild are deterministic, so running under 1
    /// thread and 8 threads produces observably identical bundles.
    #[test]
    fn fold_is_byte_identical_across_thread_counts(
        old in tiny_relation(),
        probe in probe_rows(),
    ) {
        let config = MiningConfig::default();
        let fresh = probe_relation(&probe);
        let run = |threads: usize| {
            par::set_thread_override(Some(threads));
            let stats = SourceStats::mine(&old, old.len() * 10, &config);
            let folded = fold_stats(&stats, &fresh, &config);
            par::set_thread_override(None);
            fold_fingerprint(&folded)
        };
        prop_assert_eq!(run(1), run(8));
    }
}

// ---------------------------------------------------------------------------
// Chained folds
// ---------------------------------------------------------------------------

/// The attributes of the chained-fold relations.
const CHAIN_ATTRS: [AttrId; 3] = [AttrId(0), AttrId(1), AttrId(2)];

type ChainRow = (u32, (Value, Value, Value));

/// A relation over three categorical columns from `(id, cells)` rows; a
/// repeated id keeps its last row.
fn chain_relation(rows: Vec<ChainRow>) -> Relation {
    let by_id: std::collections::BTreeMap<u32, Vec<Value>> = rows
        .into_iter()
        .map(|(id, (a, b, c))| (id, vec![a, b, c]))
        .collect();
    let schema = Schema::of(
        "t",
        &[
            ("a", AttrType::Categorical),
            ("b", AttrType::Categorical),
            ("c", AttrType::Categorical),
        ],
    );
    let tuples = by_id
        .into_iter()
        .map(|(id, cells)| Tuple::new(TupleId(id), cells))
        .collect();
    Relation::new(schema, tuples)
}

/// A cell of the mined sample: the domain `x0..x3`, or null.
fn mined_cell() -> impl Strategy<Value = Value> + Clone {
    prop_oneof![
        3 => (0u8..4).prop_map(|v| Value::str(format!("x{v}"))),
        1 => Just(Value::Null),
    ]
}

/// A cell of fold generation `g ≥ 1`: the mined domain, a null, or a value
/// no mined sample holds — `n{h}v{k}` for any generation `h ≤ g`, so a
/// novel value outlives the generation that brought it in.
fn chain_cell(g: u32) -> impl Strategy<Value = Value> + Clone {
    prop_oneof![
        3 => (0u8..4).prop_map(|v| Value::str(format!("x{v}"))),
        2 => (1..g + 1, 0u8..3).prop_map(|(h, k)| Value::str(format!("n{h}v{k}"))),
        1 => Just(Value::Null),
    ]
}

/// The rows of fold generation `g`. Their ids overlap the mined rows
/// (`0..40`) and earlier generations' appends, so a generation replaces
/// rows carrying novel values as well as appending past them.
fn chain_rows(g: u32) -> impl Strategy<Value = Vec<ChainRow>> {
    let cell = chain_cell(g);
    let row = (0u32..40 + 15 * g, (cell.clone(), cell.clone(), cell));
    proptest::collection::vec(row, 1..25)
}

/// Probe tuples for `target`'s posteriors: every other cell one value of
/// `domain`, or the first of them that value and the rest null.
fn chain_probes(target: AttrId, domain: &[Value]) -> Vec<Tuple> {
    let others: Vec<AttrId> = CHAIN_ATTRS.into_iter().filter(|a| *a != target).collect();
    let mut probes = Vec::new();
    for v in domain {
        for set in [&others[..], &others[..1]] {
            let cells = CHAIN_ATTRS
                .iter()
                .map(|a| {
                    if set.contains(a) {
                        v.clone()
                    } else {
                        Value::Null
                    }
                })
                .collect();
            probes.push(Tuple::new(TupleId(9_000 + probes.len() as u32), cells));
        }
    }
    probes
}

/// `Π_attrs` over `r`.
fn partition_of(r: &Relation, attrs: &[AttrId]) -> StrippedPartition {
    attrs[1..]
        .iter()
        .fold(StrippedPartition::from_column(r, attrs[0]), |p, a| {
            p.product(&StrippedPartition::from_column(r, *a).lookup())
        })
}

/// Asserts that `folded`, generation `g` of a fold chain, holds what batch
/// mining yields over the same merged sample, and returns its observable
/// knowledge: AFD/AKey confidences and the posteriors of `domain`.
///
/// * Every folded AFD and AKey confidence is bit-equal to `1 − g3` over
///   the merged sample, and to the `remined` bundle's wherever that
///   re-discovered the same dependency.
/// * Every classifier whose determining set survived the fold classifies
///   the probes bit-identically to its retrained peer in `remined`.
fn fold_generation_matches_batch(
    folded: &SourceStats,
    remined: &SourceStats,
    domain: &[Value],
    g: usize,
) -> Vec<String> {
    let merged = folded.selectivity().sample();
    assert_eq!(
        merged.tuples(),
        remined.selectivity().sample().tuples(),
        "generation {g}"
    );
    let mut out = Vec::new();
    for afd in folded.afds().iter() {
        let rhs = StrippedPartition::from_column(merged, afd.rhs).lookup();
        let expect = 1.0 - partition_of(merged, &afd.lhs).g3_error(&rhs);
        assert_eq!(
            afd.confidence.to_bits(),
            expect.to_bits(),
            "generation {g}: folded AFD {:?}->{:?} confidence {} != g3 {}",
            afd.lhs,
            afd.rhs,
            afd.confidence,
            expect
        );
        if let Some(batch) = remined
            .afds()
            .iter()
            .find(|b| b.lhs == afd.lhs && b.rhs == afd.rhs)
        {
            assert_eq!(
                afd.confidence.to_bits(),
                batch.confidence.to_bits(),
                "generation {g}"
            );
        }
        out.push(format!(
            "afd {:?} -> {:?} {}",
            afd.lhs,
            afd.rhs,
            afd.confidence.to_bits()
        ));
    }
    out.sort();
    for key in folded.akeys() {
        let expect = 1.0 - partition_of(merged, &key.attrs).g3_key_error();
        assert_eq!(
            key.confidence.to_bits(),
            expect.to_bits(),
            "generation {g}: folded AKey {:?} confidence {} != g3 {}",
            key.attrs,
            key.confidence,
            expect
        );
        if let Some(batch) = remined.akeys().iter().find(|b| b.attrs == key.attrs) {
            assert_eq!(
                key.confidence.to_bits(),
                batch.confidence.to_bits(),
                "generation {g}"
            );
        }
        out.push(format!("akey {:?} {}", key.attrs, key.confidence.to_bits()));
    }
    for attr in CHAIN_ATTRS {
        let survived = folded.determining_set(attr) == remined.determining_set(attr);
        for t in chain_probes(attr, domain) {
            let a = folded.predictor().distribution(attr, &t);
            if survived {
                let b = remined.predictor().distribution(attr, &t);
                assert_eq!(a.len(), b.len(), "generation {g}: {attr:?} classes");
                for ((va, pa), (vb, pb)) in a.iter().zip(&b) {
                    assert_eq!(va, vb, "generation {g}: {attr:?} class order");
                    assert_eq!(
                        pa.to_bits(),
                        pb.to_bits(),
                        "generation {g}: posterior of {attr:?}={va:?} for {t:?}: \
                         folded {pa} batch {pb}"
                    );
                }
            }
            for (value, p) in a {
                out.push(format!(
                    "nbc {attr:?} {:?} {value:?} {}",
                    t.values(),
                    p.to_bits()
                ));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Three folds in a row track the batch path generation by generation.
    /// Each generation brings values the mined sample never held into
    /// every position — determining sets, dependents, keys, classes and
    /// features — and replaces rows that earlier generations brought, so
    /// values outlive the fold that brought them in and values only
    /// replaced rows held stay in the extended dictionary. After each fold,
    /// every confidence and every surviving classifier equals a batch
    /// refresh over the same merged sample, and folding the generation a
    /// second time yields the same knowledge; the whole chain replays
    /// bit-identically at 1 and 8 worker threads.
    #[test]
    fn fold_chain_matches_batch_remine_every_generation(
        mined in proptest::collection::vec(
            (0u32..40, (mined_cell(), mined_cell(), mined_cell())),
            1..40,
        ),
        first in chain_rows(1),
        second in chain_rows(2),
        third in chain_rows(3),
    ) {
        // Without near-key suppression or a minimality margin, two-attribute
        // determining sets and keys are mined too, so novel values also
        // land in wide group keys.
        let mut config = MiningConfig::default().without_akey_pruning();
        config.tane.minimality_epsilon = 0.0;
        let mined = chain_relation(mined);
        let generations = [first, second, third].map(chain_relation);
        let domain: Vec<Value> = (0..4)
            .map(|v| Value::str(format!("x{v}")))
            .chain((1..=3).flat_map(|h| (0..3).map(move |k| Value::str(format!("n{h}v{k}")))))
            .collect();
        let _reset = PoolReset;
        let run = |threads: usize| {
            par::set_thread_override(Some(threads));
            let mut stats = SourceStats::mine(&mined, mined.len() * 10, &config);
            let mut knowledge = Vec::new();
            for (g, fresh) in generations.iter().enumerate() {
                let folded = fold_stats(&stats, fresh, &config);
                // Folded twice, a generation finds the shared count state
                // at the first fold's generation and rebuilds it from its
                // own sample. The chain goes on from the second fold, whose
                // generation the state then describes, so every generation's
                // first fold replays in place.
                let again = fold_stats(&stats, fresh, &config);
                let remined = stats
                    .refresh(
                        fresh,
                        stats.selectivity().smpl_ratio(),
                        stats.selectivity().per_inc(),
                        &config,
                    )
                    .expect("same-arity probe");
                let observed = fold_generation_matches_batch(&folded, &remined, &domain, g);
                assert_eq!(
                    fold_generation_matches_batch(&again, &remined, &domain, g),
                    observed,
                    "generation {g} folded twice"
                );
                knowledge.push(observed);
                stats = again;
            }
            knowledge
        };
        prop_assert_eq!(run(1), run(8));
    }
}

// Silence the unused warning for Arc (used via Schema construction above).
#[allow(dead_code)]
fn _touch(_: Arc<Schema>) {}
