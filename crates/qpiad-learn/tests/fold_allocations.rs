//! Allocation regression test for the incremental fold, in a binary of its
//! own because it installs a counting global allocator.
//!
//! A fold replays its delta into the lineage's count state in place, so
//! what it allocates follows the delta, not the state: folding the same
//! delta into a state that holds many more determining-set groups must not
//! allocate more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qpiad_data::cars::CarsConfig;
use qpiad_data::sample::uniform_sample;
use qpiad_db::{Relation, Tuple, TupleId};
use qpiad_learn::knowledge::{FoldOutcome, MiningConfig, SourceStats};
use qpiad_learn::par;
use qpiad_learn::strategy::FeatureStrategy;

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

fn folded(stats: &SourceStats, fresh: &Relation, config: &MiningConfig) -> SourceStats {
    match stats.fold(fresh, config, 2.0).expect("same-arity rows") {
        FoldOutcome::Folded { stats, .. } => stats,
        // Confidences live in [0, 1], so no delta can cross a bound of 2.
        FoldOutcome::RemineRequired { .. } => unreachable!("bound 2.0 always folds"),
    }
}

#[test]
fn a_fold_allocates_independently_of_the_groups_its_state_holds() {
    // One worker: every allocation lands on this thread. Every classifier
    // trains on all other attributes, so both folds rebuild classifiers of
    // one shape whatever their confidences.
    par::set_thread_override(Some(1));
    let config = MiningConfig::default().with_strategy(FeatureStrategy::AllAttributes);

    // A complete cars sample with every row held twice, so taking one copy
    // of a row away empties no group, class or co-occurrence.
    let ground = CarsConfig::default().with_rows(2_000).generate(31);
    let rows = uniform_sample(&ground, 0.15, 9).tuples().to_vec();
    let n = rows.len() as u32;
    let twice = rows
        .iter()
        .chain(&rows)
        .enumerate()
        .map(|(i, t)| Tuple::new(TupleId(i as u32), t.values().to_vec()))
        .collect();
    let sample = Relation::new(ground.schema().clone(), twice);
    let small = SourceStats::mine(&sample, ground.len(), &config);
    assert!(
        small.afds().iter().any(|afd| afd.lhs.len() > 1),
        "some mined determining set must span several attributes"
    );

    // The same knowledge with the sample's values recombined into many
    // rows, which hold no value the sample lacks but valuations of the
    // determining sets it never held: the count state holds many more
    // groups, and no classifier sees a new value.
    let arity = sample.schema().arity();
    let recombined = (0..4 * n)
        .map(|i| {
            let values = (0..arity)
                .map(|a| {
                    let donor = (i as usize * (2 * a + 1) + a * 7) % rows.len();
                    rows[donor].values()[a].clone()
                })
                .collect();
            Tuple::new(TupleId(2 * n + i), values)
        })
        .collect();
    let recombined = Relation::new(sample.schema().clone(), recombined);
    let large = folded(
        &SourceStats::mine(&sample, ground.len(), &config),
        &recombined,
        &config,
    );

    // The delta: the first rows trade contents pairwise. Their second
    // copies stay, so the delta moves counts between existing entries.
    let swapped = (0..16u32)
        .map(|i| Tuple::new(TupleId(i), rows[(i ^ 1) as usize].values().to_vec()))
        .collect();
    let delta = Relation::new(sample.schema().clone(), swapped);

    let mut counted = Vec::new();
    for stats in [&small, &large] {
        let made = allocations(|| drop(folded(stats, &delta, &config)));
        counted.push(made);
    }
    par::set_thread_override(None);
    assert_eq!(
        counted[0], counted[1],
        "a fold's allocations grew with the groups its state holds: {counted:?}"
    );
}
