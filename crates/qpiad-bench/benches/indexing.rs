//! Micro-benchmark of the source-side selection engine: lazily built hash
//! indexes vs. full scans, under a QPIAD-shaped workload (many conjunctive
//! equality queries against one relation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qpiad_data::cars::CarsConfig;
use qpiad_data::corrupt::{corrupt, CorruptionConfig};
use qpiad_db::{Predicate, Relation, SelectQuery, SelectionEngine, Value};

fn workload(relation: &Relation) -> Vec<SelectQuery> {
    let model = relation.schema().expect_attr("model");
    let year = relation.schema().expect_attr("year");
    let mut queries = Vec::new();
    for m in relation.active_domain(model).into_iter().take(40) {
        queries.push(SelectQuery::new(vec![Predicate::eq(model, m.clone())]));
        queries.push(SelectQuery::new(vec![
            Predicate::eq(model, m),
            Predicate::eq(year, Value::int(2003)),
        ]));
    }
    queries
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection_80_queries");
    group.sample_size(20);
    for rows in [10_000usize, 40_000] {
        let ground = CarsConfig::default().with_rows(rows).generate(7);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let queries = workload(&ed);

        group.bench_with_input(BenchmarkId::new("scan", rows), &ed, |b, r| {
            b.iter(|| queries.iter().map(|q| r.select(q).len()).sum::<usize>());
        });
        group.bench_with_input(BenchmarkId::new("indexed", rows), &ed, |b, r| {
            // Engine persists across iterations: indexes amortize, matching
            // how sources hold them for a session.
            let engine = SelectionEngine::new();
            b.iter(|| {
                queries
                    .iter()
                    .map(|q| engine.select(r, q).len())
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
