//! Allocation regression test for drift counting, in a binary of its own
//! because it installs a counting global allocator.
//!
//! Once a probe has counted a batch and its live-row buffer is full,
//! observing the same batch again only increments existing counts: the
//! number of allocations must not grow with the batch's row count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qpiad_data::cars::CarsConfig;
use qpiad_data::corrupt::{corrupt, CorruptionConfig};
use qpiad_data::sample::uniform_sample;
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
/// make, whatever its row count.
const PER_OBSERVE: u64 = 2;

#[test]
fn re_observing_counted_rows_allocates_independently_of_the_row_count() {
    let ground = CarsConfig::default().with_rows(3_000).generate(23);
    let (source, _) = corrupt(&ground, &CorruptionConfig::default());
    let sample = uniform_sample(&source, 0.15, 7);
    let stats = SourceStats::mine(&sample, source.len(), &MiningConfig::default());
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
    let reference = sample.tuples();
    let mut counted = Vec::new();
    for rows in [50, 500, 3_000] {
        let live = &source.tuples()[..rows];
        let mut probe = detector.probe();
        probe.observe(reference, live);
        let again = allocations(|| probe.observe(reference, live));
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
