//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Quality ablations, not timing benches (`harness = false`):
//!
//! 1. **AKey pruning** (§5.1 δ-rule + near-key suppression) on/off —
//!    classifier accuracy and rewriting precision.
//! 2. **Classifier combination strategies** (§5.3) — accuracy (Table 3's
//!    axis, re-used here at bench scale).
//! 3. **Base set vs. sample rewriting** (§4.2) — how much recall is lost by
//!    rewriting from the sample's certain answers instead of the source's
//!    base set.
//! 4. **Ordering policy** — F-measure vs precision-only vs
//!    selectivity-only: precision of the first 50 possible answers.

use qpiad_core::mediator::{Qpiad, QpiadConfig};
use qpiad_core::rank::{order_rewrites, RankConfig};
use qpiad_core::rewrite::generate_rewrites;
use qpiad_data::cars::CarsConfig;
use qpiad_data::corrupt::{corrupt, CorruptionConfig};
use qpiad_data::sample::uniform_sample;
use qpiad_db::{AutonomousSource, Predicate, Relation, SelectQuery, WebSource};
use qpiad_eval::experiments::common::Scale;
use qpiad_eval::experiments::table3;
use qpiad_eval::Oracle;
use qpiad_learn::knowledge::{MiningConfig, SourceStats};

fn main() {
    let scale = qpiad_bench::bench_scale();
    ablate_akey_pruning(&scale);
    ablate_strategies(&scale);
    ablate_base_set_vs_sample(&scale);
    ablate_ordering(&scale);
    ablate_m_estimate(&scale);
}

struct Fixture {
    ground: Relation,
    ed: Relation,
    sample: Relation,
}

fn fixture(scale: &Scale) -> Fixture {
    let ground = CarsConfig::default()
        .with_rows(scale.cars_rows)
        .generate(scale.seed);
    let (ed, _) = corrupt(
        &ground,
        &CorruptionConfig::default().with_seed(scale.seed + 1),
    );
    let sample = uniform_sample(&ed, scale.sample_fraction, scale.seed + 2);
    Fixture { ground, ed, sample }
}

/// m-estimate smoothing sweep: prediction accuracy of the corrupted cells
/// at different smoothing weights.
fn ablate_m_estimate(scale: &Scale) {
    println!("== ablation: m-estimate smoothing weight (§5.2) ==");
    let ground = CarsConfig::default()
        .with_rows(scale.cars_rows)
        .generate(scale.seed);
    let (ed, prov) = corrupt(
        &ground,
        &CorruptionConfig::default().with_seed(scale.seed + 9),
    );
    let sample = uniform_sample(&ed, scale.sample_fraction, scale.seed + 10);
    for m in [0.0, 0.5, 1.0, 4.0, 16.0] {
        let config = MiningConfig {
            m_estimate: m,
            ..MiningConfig::default()
        };
        let stats = SourceStats::mine(&sample, ed.len(), &config);
        let (mut hits, mut n) = (0usize, 0usize);
        for (id, attr, truth) in prov.iter() {
            let tuple = ed.by_id(id).expect("exists");
            if let Some((predicted, _)) = stats.predictor().predict(attr, tuple) {
                n += 1;
                hits += usize::from(&predicted == truth);
            }
        }
        println!("  m = {m:<5} accuracy {:.3}", hits as f64 / n.max(1) as f64);
    }
    println!();
}

/// Precision of QPIAD's ranked possible answers for body_style=Convt.
fn rewriting_precision(f: &Fixture, stats: &SourceStats) -> (f64, usize) {
    let body = f.ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let source = WebSource::new("cars", f.ed.clone());
    let qpiad = Qpiad::new(
        stats.clone(),
        QpiadConfig::default().with_k(15).with_alpha(1.0),
    );
    let answers = qpiad.answer(&source, &query).unwrap();
    let oracle = Oracle::new(&f.ground, &f.ed);
    let relevant = oracle.relevant_possible(&query);
    let hits = answers
        .possible
        .iter()
        .filter(|a| relevant.contains(&a.tuple.id()))
        .count();
    let n = answers.possible.len().max(1);
    (hits as f64 / n as f64, answers.possible.len())
}

fn ablate_akey_pruning(scale: &Scale) {
    println!("== ablation: AKey pruning (§5.1) ==");
    let f = fixture(scale);
    for (name, config) in [
        ("pruning on ", MiningConfig::default()),
        (
            "pruning off",
            MiningConfig::default().without_akey_pruning(),
        ),
    ] {
        let stats = SourceStats::mine(&f.sample, f.ed.len(), &config);
        let (precision, n) = rewriting_precision(&f, &stats);
        println!(
            "  {name}: {:>3} AFDs kept, rewriting precision {precision:.3} over {n} answers",
            stats.afds().len()
        );
    }
    println!();
}

fn ablate_strategies(scale: &Scale) {
    println!("== ablation: classifier strategies (§5.3) ==");
    let ground = CarsConfig::default()
        .with_rows(scale.cars_rows)
        .generate(scale.seed);
    for (name, strategy) in table3::strategies() {
        let acc = table3::average_accuracy(&ground, strategy, scale);
        println!("  {name:<16} accuracy {acc:.3}");
    }
    println!();
}

fn ablate_base_set_vs_sample(scale: &Scale) {
    println!("== ablation: base set vs sample as rewrite seed (§4.2) ==");
    let f = fixture(scale);
    let stats = SourceStats::mine(&f.sample, f.ed.len(), &MiningConfig::default());
    let body = f.ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);

    let base_full = f.ed.select(&query);
    let base_sample = f.sample.select(&query);
    let from_base = generate_rewrites(&query, &base_full, &stats);
    let from_sample = generate_rewrites(&query, &base_sample, &stats);
    println!(
        "  base set ({} certain answers) -> {} rewritten queries",
        base_full.len(),
        from_base.len()
    );
    println!(
        "  sample   ({} certain answers) -> {} rewritten queries",
        base_sample.len(),
        from_sample.len()
    );
    println!();
}

fn ablate_ordering(scale: &Scale) {
    println!("== ablation: rewritten-query ordering policy ==");
    let f = fixture(scale);
    let stats = SourceStats::mine(&f.sample, f.ed.len(), &MiningConfig::default());
    let body = f.ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    let source = WebSource::new("cars", f.ed.clone());
    let base = source.query(&query).unwrap();
    let rewrites = generate_rewrites(&query, &base, &stats);
    let oracle = Oracle::new(&f.ground, &f.ed);
    let relevant = oracle.relevant_possible(&query);

    let policies: Vec<(&str, Vec<qpiad_core::rewrite::RewrittenQuery>)> = vec![
        (
            "F-measure (a=1)",
            order_rewrites(rewrites.clone(), &RankConfig { alpha: 1.0, k: 10 })
                .into_iter()
                .map(|s| s.rewrite)
                .collect(),
        ),
        (
            "precision-only",
            order_rewrites(rewrites.clone(), &RankConfig { alpha: 0.0, k: 10 })
                .into_iter()
                .map(|s| s.rewrite)
                .collect(),
        ),
        ("selectivity-only", {
            let mut rs = rewrites.clone();
            rs.sort_by(|a, b| b.est_selectivity.total_cmp(&a.est_selectivity));
            rs.truncate(10);
            rs
        }),
    ];
    for (name, ordered) in policies {
        let mut hits = 0usize;
        let mut n = 0usize;
        for rq in &ordered {
            for t in source.query(&rq.query).unwrap() {
                if query.possibly_matches(&t) && !query.matches(&t) {
                    n += 1;
                    if relevant.contains(&t.id()) {
                        hits += 1;
                    }
                }
            }
        }
        let precision = hits as f64 / n.max(1) as f64;
        println!("  {name:<17} {n:>4} possible answers, precision {precision:.3}");
    }
    println!();
}
