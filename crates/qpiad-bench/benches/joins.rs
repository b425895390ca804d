//! Micro-benchmark of join query processing (§4.5): pair scoring and the
//! mediator-side join.

use criterion::{criterion_group, criterion_main, Criterion};

use qpiad_core::join::{answer_join, JoinConfig, JoinSide};
use qpiad_data::cars::CarsConfig;
use qpiad_data::complaints::ComplaintsConfig;
use qpiad_data::corrupt::{corrupt, CorruptionConfig};
use qpiad_data::sample::uniform_sample;
use qpiad_db::{AutonomousSource, JoinQuery, Predicate, SelectQuery, WebSource};
use qpiad_learn::knowledge::{MiningConfig, SourceStats};

fn bench_join(c: &mut Criterion) {
    let cars_gd = CarsConfig::default().with_rows(10_000).generate(71);
    let comp_gd = ComplaintsConfig { rows: 15_000 }.generate(72);
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
    let comps = WebSource::new("complaints", comp_ed);

    let model_l = cars.relation().schema().expect_attr("model");
    let model_r = comps.relation().schema().expect_attr("model");
    let gc = comps.relation().schema().expect_attr("general_component");
    let jq = JoinQuery {
        left: SelectQuery::new(vec![Predicate::eq(model_l, "Grand Cherokee")]),
        right: SelectQuery::new(vec![Predicate::eq(gc, "Engine and Engine Cooling")]),
        left_attr: model_l,
        right_attr: model_r,
    };

    let mut group = c.benchmark_group("join");
    group.sample_size(10);
    for alpha in [0.0, 0.5, 2.0] {
        group.bench_function(format!("answer_join_alpha_{alpha}"), |b| {
            b.iter(|| {
                cars.reset_meter();
                comps.reset_meter();
                answer_join(
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
                .unwrap()
                .results
                .len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_join);
criterion_main!(benches);
