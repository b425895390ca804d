//! Micro-benchmarks of the QPIAD query-processing path: rewritten-query
//! generation, F-measure ordering, and the end-to-end mediator answer.

use criterion::{criterion_group, criterion_main, Criterion};

use qpiad_core::mediator::{Qpiad, QpiadConfig};
use qpiad_core::rank::{order_rewrites, RankConfig};
use qpiad_core::rewrite::generate_rewrites;
use qpiad_data::cars::CarsConfig;
use qpiad_data::corrupt::{corrupt, CorruptionConfig};
use qpiad_data::sample::uniform_sample;
use qpiad_db::{AutonomousSource, Predicate, SelectQuery, WebSource};
use qpiad_learn::knowledge::{MiningConfig, SourceStats};

struct Setup {
    source: WebSource,
    stats: SourceStats,
    query: SelectQuery,
}

fn setup() -> Setup {
    let ground = CarsConfig::default().with_rows(15_000).generate(7);
    let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
    let sample = uniform_sample(&ed, 0.10, 3);
    let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
    let body = ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    Setup {
        source: WebSource::new("cars.com", ed),
        stats,
        query,
    }
}

fn bench_rewriting(c: &mut Criterion) {
    let s = setup();
    let base = s.source.query(&s.query).unwrap();
    let mut group = c.benchmark_group("rewrite");
    group.bench_function("generate_rewrites", |b| {
        b.iter(|| generate_rewrites(&s.query, &base, &s.stats));
    });
    let rewrites = generate_rewrites(&s.query, &base, &s.stats);
    group.bench_function("order_rewrites", |b| {
        b.iter(|| order_rewrites(rewrites.clone(), &RankConfig { alpha: 1.0, k: 10 }));
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let s = setup();
    let qpiad = Qpiad::new(s.stats.clone(), QpiadConfig::default().with_k(10));
    let mut group = c.benchmark_group("mediator");
    group.sample_size(20);
    group.bench_function("answer_k10", |b| {
        b.iter(|| {
            s.source.reset_meter();
            qpiad.answer(&s.source, &s.query).unwrap().possible.len()
        });
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // End-to-end mediator latency as the source grows.
    let mut group = c.benchmark_group("mediator_scaling");
    group.sample_size(10);
    for rows in [5_000usize, 20_000, 80_000] {
        let ground = CarsConfig::default().with_rows(rows).generate(7);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 3);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        let body = ed.schema().expect_attr("body_style");
        let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
        let source = WebSource::new("cars.com", ed);
        let qpiad = Qpiad::new(stats, QpiadConfig::default().with_k(10));
        group.bench_function(format!("answer_{rows}_rows"), |b| {
            b.iter(|| {
                source.reset_meter();
                qpiad.answer(&source, &query).unwrap().possible.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rewriting, bench_end_to_end, bench_scaling);
criterion_main!(benches);
