//! Ablations — the design choices DESIGN.md calls out, one series each.
//!
//! Quality checks, not timings, all on the Cars world at the given scale:
//!
//! 1. **AKey pruning** (§5.1 δ-rule + near-key suppression) on/off —
//!    AFDs kept and rewriting precision for `body_style=Convt`.
//! 2. **Classifier combination strategies** (§5.3) — prediction accuracy
//!    (Table 3's axis on a differently seeded Cars world).
//! 3. **Base set vs. sample rewriting** (§4.2) — the share of rewritten
//!    queries kept when rewriting is seeded from the sample's certain
//!    answers instead of the source's base set (x=0 base set, x=1 sample).
//! 4. **Ordering policy** — F-measure vs precision-only vs
//!    selectivity-only: precision of the possible answers the top 10
//!    rewritten queries retrieve.
//! 5. **m-estimate smoothing** (§5.2) — prediction accuracy of the
//!    corrupted cells at different smoothing weights.
//!
//! Each series indexes its settings on x (named in the notes); the
//! m-estimate series uses the weight itself.

use qpiad_core::mediator::{Qpiad, QpiadConfig};
use qpiad_core::rank::{order_rewrites, RankConfig};
use qpiad_core::rewrite::{generate_rewrites, RewrittenQuery};
use qpiad_data::cars::CarsConfig;
use qpiad_data::corrupt::{corrupt, CorruptionConfig};
use qpiad_data::sample::uniform_sample;
use qpiad_db::{AutonomousSource, Predicate, Relation, SelectQuery, WebSource};
use qpiad_learn::knowledge::{MiningConfig, SourceStats};

use crate::report::{Report, Series};
use crate::truth::Oracle;

use super::common::Scale;
use super::table3;

/// Smoothing weights the m-estimate sweep tries.
const M_WEIGHTS: [f64; 5] = [0.0, 0.5, 1.0, 4.0, 16.0];

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "ablations",
        "Ablations: AKey pruning, classifier strategy, rewrite seed, ordering, m-estimate",
        "setting",
        "value",
    );
    let f = Fixture::new(scale);
    akey_pruning(&f, &mut report);
    strategies(&f, scale, &mut report);
    base_set_vs_sample(&f, &mut report);
    ordering(&f, &mut report);
    m_estimate(&f, scale, &mut report);
    report
}

/// The Cars ground truth, its corrupted image, a training sample and the
/// statistics mined from it with the default configuration.
struct Fixture {
    ground: Relation,
    ed: Relation,
    sample: Relation,
    stats: SourceStats,
}

impl Fixture {
    fn new(scale: &Scale) -> Self {
        let ground = CarsConfig::default()
            .with_rows(scale.cars_rows)
            .generate(scale.seed);
        let (ed, _) = corrupt(
            &ground,
            &CorruptionConfig::default().with_seed(scale.seed + 1),
        );
        let sample = uniform_sample(&ed, scale.sample_fraction, scale.seed + 2);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        Fixture {
            ground,
            ed,
            sample,
            stats,
        }
    }

    /// The ablations' query: `body_style = Convt`.
    fn query(&self) -> SelectQuery {
        let body = self.ed.schema().expect_attr("body_style");
        SelectQuery::new(vec![Predicate::eq(body, "Convt")])
    }
}

/// Precision of QPIAD's ranked possible answers, and how many there are.
fn rewriting_precision(f: &Fixture, stats: &SourceStats) -> (f64, usize) {
    let query = f.query();
    let source = WebSource::new("cars", f.ed.clone());
    let qpiad = Qpiad::new(
        stats.clone(),
        QpiadConfig::default().with_k(15).with_alpha(1.0),
    );
    let answers = qpiad.answer(&source, &query).expect("web source answers");
    let relevant = Oracle::new(&f.ground, &f.ed).relevant_possible(&query);
    let hits = answers
        .possible
        .iter()
        .filter(|a| relevant.contains(&a.tuple.id()))
        .count();
    let n = answers.possible.len();
    (hits as f64 / n.max(1) as f64, n)
}

fn akey_pruning(f: &Fixture, report: &mut Report) {
    let unpruned = SourceStats::mine(
        &f.sample,
        f.ed.len(),
        &MiningConfig::default().without_akey_pruning(),
    );
    let mut points = Vec::new();
    for (x, (name, stats)) in [("on", &f.stats), ("off", &unpruned)]
        .into_iter()
        .enumerate()
    {
        let (precision, n) = rewriting_precision(f, stats);
        report.note(format!(
            "AKey pruning {name} (x={x}): {} AFDs kept, rewriting precision {precision:.3} over {n} answers",
            stats.afds().len()
        ));
        points.push((x as f64, precision));
    }
    report.push_series(Series::new("AKey pruning: precision", points));
}

fn strategies(f: &Fixture, scale: &Scale, report: &mut Report) {
    let mut points = Vec::new();
    for (x, (name, strategy)) in table3::strategies().into_iter().enumerate() {
        report.note(format!("strategy x={x}: {name}"));
        points.push((
            x as f64,
            table3::average_accuracy(&f.ground, strategy, scale),
        ));
    }
    report.push_series(Series::new("strategy: accuracy", points));
}

fn base_set_vs_sample(f: &Fixture, report: &mut Report) {
    let query = f.query();
    let counts = [("base set", &f.ed), ("sample", &f.sample)].map(|(name, seed)| {
        let certain = seed.select(&query);
        let rewrites = generate_rewrites(&query, &certain, &f.stats).len();
        report.note(format!(
            "rewrite seed {name}: {} certain answers -> {rewrites} rewritten queries",
            certain.len()
        ));
        rewrites as f64
    });
    let share = |n: f64| n / counts[0].max(1.0);
    report.push_series(Series::new(
        "rewrite seed: share of base-set queries",
        [(0.0, share(counts[0])), (1.0, share(counts[1]))],
    ));
}

fn ordering(f: &Fixture, report: &mut Report) {
    let query = f.query();
    let source = WebSource::new("cars", f.ed.clone());
    let base = source.query(&query).expect("web source answers");
    let rewrites = generate_rewrites(&query, &base, &f.stats);
    let relevant = Oracle::new(&f.ground, &f.ed).relevant_possible(&query);
    let ranked = |alpha: f64| -> Vec<RewrittenQuery> {
        order_rewrites(rewrites.clone(), &RankConfig { alpha, k: 10 })
            .into_iter()
            .map(|s| s.rewrite)
            .collect()
    };
    let by_selectivity = {
        let mut rs = rewrites.clone();
        rs.sort_by(|a, b| b.est_selectivity.total_cmp(&a.est_selectivity));
        rs.truncate(10);
        rs
    };
    let policies = [
        ("F-measure (a=1)", ranked(1.0)),
        ("precision-only", ranked(0.0)),
        ("selectivity-only", by_selectivity),
    ];
    let mut points = Vec::new();
    for (x, (name, ordered)) in policies.into_iter().enumerate() {
        let (mut hits, mut n) = (0usize, 0usize);
        for rq in &ordered {
            for t in source.query(&rq.query).expect("web source answers") {
                if query.possibly_matches(&t) && !query.matches(&t) {
                    n += 1;
                    hits += usize::from(relevant.contains(&t.id()));
                }
            }
        }
        let precision = hits as f64 / n.max(1) as f64;
        report.note(format!(
            "ordering {name} (x={x}): {n} possible answers, precision {precision:.3}"
        ));
        points.push((x as f64, precision));
    }
    report.push_series(Series::new("ordering: precision", points));
}

fn m_estimate(f: &Fixture, scale: &Scale, report: &mut Report) {
    let (ed, prov) = corrupt(
        &f.ground,
        &CorruptionConfig::default().with_seed(scale.seed + 9),
    );
    let sample = uniform_sample(&ed, scale.sample_fraction, scale.seed + 10);
    let points = M_WEIGHTS.map(|m| {
        let config = MiningConfig {
            m_estimate: m,
            ..MiningConfig::default()
        };
        let stats = SourceStats::mine(&sample, ed.len(), &config);
        let (mut hits, mut n) = (0usize, 0usize);
        for (id, attr, truth) in prov.iter() {
            let tuple = ed.by_id(id).expect("corrupted tuple exists");
            if let Some((predicted, _)) = stats.predictor().predict(attr, tuple) {
                n += 1;
                hits += usize::from(&predicted == truth);
            }
        }
        (m, hits as f64 / n.max(1) as f64)
    });
    report.push_series(Series::new("m-estimate: accuracy", points));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ablation_reports_its_settings() {
        let report = run(&Scale::quick());
        let len = |name: &str| report.series_named(name).unwrap().points.len();
        assert_eq!(len("AKey pruning: precision"), 2);
        assert_eq!(len("strategy: accuracy"), table3::strategies().len());
        assert_eq!(len("rewrite seed: share of base-set queries"), 2);
        assert_eq!(len("ordering: precision"), 3);
        assert_eq!(len("m-estimate: accuracy"), M_WEIGHTS.len());
        // The base set holds every certain answer the sample holds, so it
        // seeds at least as many rewritten queries.
        let seed = &report
            .series_named("rewrite seed: share of base-set queries")
            .unwrap()
            .points;
        assert!(seed[1].y <= seed[0].y, "{seed:?}");
    }
}
