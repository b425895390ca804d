//! Maintenance cost: an incremental fold must be at least 10× cheaper than
//! the batch refresh of the same merged sample.
//!
//! The fold (`SourceStats::fold`) exists to save the full TANE re-mine a
//! batch refresh (`SourceStats::refresh`) pays, so the ratio of the two on
//! identical input is the point of the incremental path. The fixture is a
//! 50k-row corrupted Cars source with knowledge mined from a 12k-row
//! sample; the folded rows are the validated rows one priming pass streams
//! under a hair-trigger drift threshold. Each side is timed once, after one
//! untimed warm-up pass over a fresh network.
//!
//! A wall-clock ratio means nothing in an unoptimized build, so the test is
//! ignored under `debug_assertions`. Run it with
//! `cargo test --release --test maintenance_cost`.

use std::sync::Arc;
use std::time::Instant;

use qpiad::core::network::MediatorNetwork;
use qpiad::core::{par, QpiadConfig};
use qpiad::data::cars::CarsConfig;
use qpiad::data::corrupt::{corrupt, CorruptionConfig};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{Predicate, Relation, SelectQuery, WebSource};
use qpiad::learn::drift::{DriftConfig, DriftRegistry};
use qpiad::learn::knowledge::{FoldOutcome, MiningConfig, SourceStats};

/// The experiments' bench-scale seed; the fixture derives its own seeds
/// from it.
const SEED: u64 = 0x9_1AD;
const ROWS: usize = 50_000;
const SAMPLE_ROWS: usize = 12_000;

/// Primes a fresh network over `ed` and returns the bare fold and batch
/// refresh wall times, in seconds, over the rows the priming pass streamed.
fn fold_and_remine_secs(ed: &Relation, stats: &SourceStats) -> (f64, f64) {
    let registry = Arc::new(DriftRegistry::new(
        DriftConfig::default()
            .with_min_observations(10)
            .with_threshold(0.0),
    ));
    let source = WebSource::new("cars1m", ed.clone());
    let network = MediatorNetwork::new(ed.schema().clone(), QpiadConfig::default().with_k(10))
        .with_drift(Arc::clone(&registry))
        .add_supporting(&source, stats.clone());

    let body = ed.schema().expect_attr("body_style");
    let query = SelectQuery::new(vec![Predicate::eq(body, "Convt")]);
    network.answer(&query).expect("priming pass");
    assert_eq!(
        registry.pending_refresh(),
        vec!["cars1m".to_string()],
        "the hair-trigger verdict must queue the member"
    );
    assert!(
        registry.stream_pending("cars1m") > 0,
        "validated rows must be streaming"
    );

    let (streamed, _through) = registry
        .stream_snapshot("cars1m")
        .expect("streamed rows must be queued");
    let probe = Relation::new(ed.schema().clone(), streamed);
    let mining = MiningConfig::default();
    let t0 = Instant::now();
    let folded = stats
        .fold(&probe, &mining, 0.5)
        .expect("fold accepts the probe");
    let fold_secs = t0.elapsed().as_secs_f64();
    assert!(
        matches!(folded, FoldOutcome::Folded { .. }),
        "genuine rows must fold without a re-mine"
    );
    let t0 = Instant::now();
    let remined = stats
        .refresh(
            &probe,
            stats.selectivity().smpl_ratio(),
            stats.selectivity().per_inc(),
            &mining,
        )
        .expect("batch refresh accepts the probe");
    let remine_secs = t0.elapsed().as_secs_f64();
    assert!(
        !remined.afds().is_empty(),
        "the comparator re-mine must produce knowledge"
    );
    (fold_secs, remine_secs)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock ratio; run with `cargo test --release`"
)]
fn a_fold_is_ten_times_cheaper_than_a_batch_refresh() {
    // At least two workers, as on a multi-core host.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    par::set_thread_override(Some(hw.max(2)));

    let ground = CarsConfig::default()
        .with_rows(ROWS)
        .generate(SEED.wrapping_add(21));
    let (ed, _prov) = corrupt(
        &ground,
        &CorruptionConfig::default().with_seed(SEED.wrapping_add(22)),
    );
    let sample = uniform_sample(&ed, SAMPLE_ROWS as f64 / ROWS as f64, SEED);
    let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());

    fold_and_remine_secs(&ed, &stats);
    let (fold, remine) = fold_and_remine_secs(&ed, &stats);
    let ratio = remine / fold.max(1e-9);
    assert!(
        ratio >= 10.0,
        "an incremental fold must be at least 10x cheaper than a full re-mine \
         over the same merged sample, measured {ratio:.1}x \
         (fold {fold:.6}s vs re-mine {remine:.6}s)"
    );
}
