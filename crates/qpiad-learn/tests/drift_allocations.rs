//! Allocation regression tests for drift counting, in a binary of their
//! own because they install a counting global allocator.
//!
//! Once a probe has counted a batch and its live-row buffer is full,
//! observing the same batch again only increments existing counts; the
//! reference side is read off the sample's id columns and interns
//! nothing; and a probe handed out after the verdict only tallies rows.
//! None of them may allocate more as the row count grows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qpiad_data::cars::CarsConfig;
use qpiad_data::corrupt::{corrupt, CorruptionConfig};
use qpiad_data::sample::uniform_sample;
use qpiad_db::{Predicate, Relation, SelectQuery};
use qpiad_learn::drift::{DriftConfig, DriftDetector};
use qpiad_learn::knowledge::{MiningConfig, SourceStats};

/// Counts the allocations made on the current thread, so the test
/// harness's own threads cannot disturb a measurement.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The most allocations one `observe` call of already-counted rows may
/// make, whatever its row count: a query with predicates walks the
/// sample's posting lists through two small per-call vectors.
const PER_OBSERVE: u64 = 2;

/// A corrupted cars source and knowledge mined from a sample of it.
fn world() -> (Relation, SourceStats) {
    let ground = CarsConfig::default().with_rows(3_000).generate(23);
    let (source, _) = corrupt(&ground, &CorruptionConfig::default());
    let sample = uniform_sample(&source, 0.15, 7);
    let stats = SourceStats::mine(&sample, source.len(), &MiningConfig::default());
    (source, stats)
}

#[test]
fn re_observing_counted_rows_allocates_independently_of_the_row_count() {
    let (source, stats) = world();
    let schema = source.schema();
    assert!(
        schema
            .attr_ids()
            .any(|a| stats.afds().best(a).is_some_and(|afd| afd.lhs.len() > 1)),
        "some tracked determining set must span several attributes"
    );

    // The live side holds values the sample never did, so novel ids are
    // exercised too; the row buffer holds 8 rows and fills on the first
    // observation.
    let config = DriftConfig::default().with_stream_capacity(8);
    let detector = DriftDetector::new("cars.com", &stats, config);
    let all = SelectQuery::all();
    let mut counted = Vec::new();
    for rows in [50, 500, 3_000] {
        let live = &source.tuples()[..rows];
        let mut probe = detector.probe();
        probe.observe(&stats, &all, live);
        let again = allocations(|| probe.observe(&stats, &all, live));
        assert!(
            again <= PER_OBSERVE,
            "re-observing {rows} live rows allocated {again} times"
        );
        assert_eq!(probe.observed_rows(), 2 * rows as u64);
        counted.push(again);
    }
    assert!(
        counted.windows(2).all(|w| w[0] == w[1]),
        "allocations grew with rows: {counted:?}"
    );
}

#[test]
fn the_reference_side_allocates_independently_of_the_row_count() {
    // Queries selecting ever more sample rows, with no live rows: only the
    // reference side counts, straight off the sample's id columns.
    let (source, stats) = world();
    let sample = stats.selectivity().sample();
    let make = source.schema().expect_attr("make");
    let detector = DriftDetector::new("cars.com", &stats, DriftConfig::default());
    // The sample's makes by how many rows hold them: the rarest, the
    // median and the most common.
    let mut makes: Vec<(usize, qpiad_db::Value)> = Vec::new();
    for t in sample.tuples() {
        let v = t.value(make);
        if v.is_null() || makes.iter().any(|(_, m)| m == v) {
            continue;
        }
        let q = SelectQuery::new(vec![Predicate::eq(make, v.clone())]);
        makes.push((sample.count(&q), v.clone()));
    }
    makes.sort();
    let picks = [&makes[0], &makes[makes.len() / 2], &makes[makes.len() - 1]];
    assert!(
        picks.windows(2).all(|w| w[0].0 < w[1].0),
        "the queries must select ever more rows: {makes:?}"
    );
    let mut counted = Vec::new();
    for (_, value) in picks {
        let q = SelectQuery::new(vec![Predicate::eq(make, value.clone())]);
        let mut probe = detector.probe();
        // The first walk builds the make index and the reference groups.
        probe.observe(&stats, &q, &[]);
        counted.push(allocations(|| probe.observe(&stats, &q, &[])));
    }
    assert!(
        counted.windows(2).all(|w| w[0] == w[1]) && counted[0] <= PER_OBSERVE,
        "reference-side allocations grew with rows: {counted:?}"
    );
}

#[test]
fn a_rows_only_observe_allocates_nothing_once_its_buffer_is_full() {
    let (source, stats) = world();
    let make = source.schema().expect_attr("make");
    let config = DriftConfig::default()
        .with_threshold(0.3)
        .with_min_observations(10)
        .with_stream_capacity(8);
    let mut detector = DriftDetector::new("cars.com", &stats, config);
    let skewed: Vec<_> = source.tuples()[..200]
        .iter()
        .map(|t| t.with_value(make, qpiad_db::Value::str("Monopoly")))
        .collect();
    let mut probe = detector.probe();
    probe.observe(&stats, &SelectQuery::all(), &skewed);
    assert!(detector.absorb(probe).is_some(), "the verdict fires");

    let sedans = SelectQuery::new(vec![Predicate::eq(
        source.schema().expect_attr("body_style"),
        "Sedan",
    )]);
    for rows in [50, 500, 3_000] {
        let live = &source.tuples()[..rows];
        let mut probe = detector.probe();
        // Fills the 8-row buffer.
        probe.observe(&stats, &sedans, live);
        let again = allocations(|| probe.observe(&stats, &sedans, live));
        assert_eq!(again, 0, "a rows-only observe of {rows} rows allocated");
        assert_eq!(probe.observed_rows(), 2 * rows as u64);
    }
}
