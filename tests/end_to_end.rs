//! End-to-end integration tests: the full QPIAD pipeline over generated
//! incomplete databases, checked against the ground-truth oracle.

use qpiad::core::baselines::{all_ranked, all_returned};
use qpiad::core::mediator::{flatten_answers, Qpiad, QpiadConfig};
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{DirectSource, Predicate, Relation, SelectQuery, TupleId, Value, WebSource};
use qpiad::eval::Oracle;
use qpiad::learn::knowledge::{MiningConfig, SourceStats};

struct Fixture {
    ground: Relation,
    ed: Relation,
    stats: SourceStats,
}

fn fixture(seed: u64) -> Fixture {
    let ground = CarsConfig::default().with_rows(10_000).generate(seed);
    let (ed, _) = corrupt(&ground, &CorruptionConfig::default().with_seed(seed + 1));
    let sample = uniform_sample(&ed, 0.10, seed + 2);
    let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
    Fixture { ground, ed, stats }
}

fn convt_query(ed: &Relation) -> SelectQuery {
    let body = ed.schema().expect_attr("body_style");
    SelectQuery::new(vec![Predicate::eq(body, "Convt")])
}

#[test]
fn answer_sets_partition_cleanly() {
    let f = fixture(1);
    let source = WebSource::new("cars", f.ed.clone());
    let qpiad = Qpiad::new(
        f.stats.clone(),
        QpiadConfig::default().with_k(20).with_alpha(1.0),
    );
    let q = convt_query(&f.ed);
    let answers = qpiad.answer(&source, &q).unwrap();

    // Certain answers match; possible answers have exactly one null among
    // constrained attrs and contradict nothing; no tuple appears twice.
    assert!(!answers.certain.is_empty());
    assert!(!answers.possible.is_empty());
    assert!(answers.certain.iter().all(|t| q.matches(t)));
    for a in &answers.possible {
        assert!(q.possibly_matches(&a.tuple));
        assert!(!q.matches(&a.tuple));
    }
    let mut ids: Vec<TupleId> = flatten_answers(&answers).iter().map(|t| t.id()).collect();
    let n = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), n);
}

#[test]
fn qpiad_beats_all_returned_on_precision() {
    let f = fixture(2);
    let source = WebSource::new("cars", f.ed.clone());
    let direct = DirectSource::new("oracle-access", f.ed.clone());
    let q = convt_query(&f.ed);
    let oracle = Oracle::new(&f.ground, &f.ed);
    let relevant = oracle.relevant_possible(&q);

    let qpiad = Qpiad::new(
        f.stats.clone(),
        QpiadConfig::default().with_k(15).with_alpha(1.0),
    );
    let answers = qpiad.answer(&source, &q).unwrap();
    let qpiad_hits = answers
        .possible
        .iter()
        .filter(|a| relevant.contains(&a.tuple.id()))
        .count();
    let qpiad_precision = qpiad_hits as f64 / answers.possible.len().max(1) as f64;

    let returned = all_returned(&direct, &q).unwrap();
    let base_hits = returned
        .iter()
        .filter(|t| relevant.contains(&t.id()))
        .count();
    let base_precision = base_hits as f64 / returned.len().max(1) as f64;

    assert!(
        qpiad_precision > base_precision + 0.2,
        "QPIAD {qpiad_precision:.3} vs AllReturned {base_precision:.3}"
    );
}

#[test]
fn qpiad_matches_all_ranked_quality_at_lower_cost() {
    let f = fixture(3);
    let source = WebSource::new("cars", f.ed.clone());
    let direct = DirectSource::new("oracle-access", f.ed.clone());
    let q = convt_query(&f.ed);
    let oracle = Oracle::new(&f.ground, &f.ed);
    let relevant = oracle.relevant_possible(&q);

    let qpiad = Qpiad::new(
        f.stats.clone(),
        QpiadConfig::default().with_k(15).with_alpha(0.0),
    );
    let answers = qpiad.answer(&source, &q).unwrap();
    let k = answers.possible.len().clamp(1, 20);
    let qpiad_top: f64 = answers.possible[..k]
        .iter()
        .filter(|a| relevant.contains(&a.tuple.id()))
        .count() as f64
        / k as f64;

    let ranked = all_ranked(&direct, &q, &f.stats).unwrap();
    let ranked_top: f64 = ranked[..k.min(ranked.len())]
        .iter()
        .filter(|a| relevant.contains(&a.tuple.id()))
        .count() as f64
        / k.min(ranked.len()).max(1) as f64;

    // Quality parity (QPIAD uses the same classifiers)...
    assert!(
        (qpiad_top - ranked_top).abs() < 0.4,
        "top-k precision drifted: QPIAD {qpiad_top:.2} vs AllRanked {ranked_top:.2}"
    );
    // ...but AllRanked needed every null-body tuple transferred.
    let body = f.ed.schema().expect_attr("body_style");
    let null_body =
        f.ed.tuples()
            .iter()
            .filter(|t| t.value(body).is_null())
            .count();
    assert_eq!(
        ranked.len(),
        null_body,
        "AllRanked must transfer all null-valued candidates"
    );
}

#[test]
fn certain_answers_never_depend_on_statistics() {
    // Whatever the mining produced, the base set is exactly the source's
    // certain answers.
    let f = fixture(4);
    let source = WebSource::new("cars", f.ed.clone());
    let q = convt_query(&f.ed);
    let qpiad = Qpiad::new(f.stats.clone(), QpiadConfig::default());
    let answers = qpiad.answer(&source, &q).unwrap();
    assert_eq!(answers.certain, f.ed.select(&q));
}

#[test]
fn ranked_confidences_track_ground_truth_frequencies() {
    // Average relevance of high-confidence answers exceeds that of
    // low-confidence ones — the property Figure 9 plots.
    let f = fixture(5);
    let source = WebSource::new("cars", f.ed.clone());
    let q = convt_query(&f.ed);
    let oracle = Oracle::new(&f.ground, &f.ed);
    let relevant = oracle.relevant_possible(&q);
    let qpiad = Qpiad::new(
        f.stats.clone(),
        QpiadConfig::default().with_k(40).with_alpha(1.0),
    );
    let answers = qpiad.answer(&source, &q).unwrap();

    let (mut hi_hit, mut hi_n, mut lo_hit, mut lo_n) = (0usize, 0usize, 0usize, 0usize);
    for a in &answers.possible {
        let rel = relevant.contains(&a.tuple.id()) as usize;
        if a.confidence >= 0.75 {
            hi_hit += rel;
            hi_n += 1;
        } else {
            lo_hit += rel;
            lo_n += 1;
        }
    }
    if hi_n >= 5 && lo_n >= 5 {
        let hi = hi_hit as f64 / hi_n as f64;
        let lo = lo_hit as f64 / lo_n as f64;
        assert!(hi >= lo, "high-confidence {hi:.2} < low-confidence {lo:.2}");
    }
}

#[test]
fn mediator_works_on_multi_attribute_range_queries() {
    let f = fixture(6);
    let source = WebSource::new("cars", f.ed.clone());
    let schema = f.ed.schema().clone();
    let q = SelectQuery::new(vec![
        Predicate::eq(schema.expect_attr("body_style"), "Sedan"),
        Predicate::between(schema.expect_attr("price"), 12_000i64, 18_000i64),
    ]);
    let qpiad = Qpiad::new(
        f.stats.clone(),
        QpiadConfig::default().with_k(20).with_alpha(1.0),
    );
    let answers = qpiad.answer(&source, &q).unwrap();
    assert!(!answers.certain.is_empty());
    // All ranked possible answers are sound.
    for a in &answers.possible {
        assert!(q.possibly_matches(&a.tuple));
    }
    // At least one possible answer chases a missing price and one a missing
    // body style across the run (both attributes have AFDs).
    let body = schema.expect_attr("body_style");
    let have_body_null = answers
        .possible
        .iter()
        .any(|a| a.tuple.value(body).is_null());
    assert!(
        have_body_null || answers.possible.is_empty(),
        "expected body-style possible answers"
    );
}

#[test]
fn empty_result_queries_are_graceful() {
    let f = fixture(7);
    let source = WebSource::new("cars", f.ed.clone());
    let model = f.ed.schema().expect_attr("model");
    let q = SelectQuery::new(vec![Predicate::eq(model, Value::str("DeLorean"))]);
    let qpiad = Qpiad::new(f.stats.clone(), QpiadConfig::default());
    let answers = qpiad.answer(&source, &q).unwrap();
    assert!(answers.certain.is_empty());
    assert!(answers.possible.is_empty());
    assert!(answers.issued.is_empty());
}
