//! Allocation regression test for index-backed counting, in a binary of its
//! own because it installs a counting global allocator.
//!
//! `SelectionEngine::count` walks the shortest posting list and probes the
//! other predicates' columns, materializing nothing: the number of
//! allocations one call makes must not grow with the driver list's length.
//! A `BETWEEN` driver builds its row list from the lists in range, reserved
//! once at its known length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qpiad_db::{
    AttrId, AttrType, Predicate, Relation, Schema, SelectQuery, SelectionEngine, Tuple, TupleId,
    Value,
};

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

/// 60,000 rows. Column `a` holds "small" in 50 rows and "big" in 50,000;
/// `b` is one value throughout and `c` one value in all but every tenth
/// row, so either `a` list is the shortest and drives. Column `d` spreads
/// the "small" rows over 0..5 and the "big" ones over 100..107, so a range
/// over either spans several posting lists.
fn relation() -> Relation {
    let schema = Schema::of(
        "t",
        &[
            ("a", AttrType::Categorical),
            ("b", AttrType::Categorical),
            ("c", AttrType::Integer),
            ("d", AttrType::Integer),
        ],
    );
    let tuples = (0..60_000u32)
        .map(|i| {
            let (a, d) = match i % 1_200 {
                0 => ("small", i64::from(i % 5)),
                1..=1_000 => ("big", 100 + i64::from(i % 7)),
                _ => ("other", 1_000),
            };
            let c = if i % 10 == 9 {
                Value::Null
            } else {
                Value::int(7)
            };
            let values = vec![Value::str(a), Value::str("b"), c, Value::int(d)];
            Tuple::new(TupleId(i), values)
        })
        .collect();
    Relation::new(schema, tuples)
}

/// Allocations one `engine.count(r, q)` makes, after a first call has built
/// the indexes, checked against the scan's count.
fn count_allocations(engine: &SelectionEngine, r: &Relation, q: &SelectQuery) -> u64 {
    let expected = r.count(q);
    assert_eq!(engine.count(r, q), expected);
    let mut n = 0;
    let made = allocations(|| n = engine.count(r, q));
    assert_eq!(n, expected);
    made
}

#[test]
fn counting_allocates_independently_of_the_driver_length() {
    let r = relation();
    let engine = SelectionEngine::new();
    let query = |a: &str| {
        SelectQuery::new(vec![
            Predicate::eq(AttrId(0), a),
            Predicate::eq(AttrId(1), "b"),
            Predicate::eq(AttrId(2), 7i64),
        ])
    };
    let mut counted = Vec::new();
    for (a, driver_rows) in [("small", 50), ("big", 50_000)] {
        assert_eq!(
            r.count(&SelectQuery::new(vec![Predicate::eq(AttrId(0), a)])),
            driver_rows
        );
        counted.push(count_allocations(&engine, &r, &query(a)));
    }
    assert_eq!(
        counted[0], counted[1],
        "allocations grew with the driver list: {counted:?}"
    );
}

#[test]
fn a_range_driver_allocates_independently_of_its_length() {
    let r = relation();
    let engine = SelectionEngine::new();
    // `b` holds every row, so the range drives.
    let query = |lo: i64, hi: i64| {
        SelectQuery::new(vec![
            Predicate::between(AttrId(3), lo, hi),
            Predicate::eq(AttrId(1), "b"),
        ])
    };
    let mut counted = Vec::new();
    for ((lo, hi), driver_rows) in [((0, 4), 50), ((100, 106), 50_000)] {
        let q = query(lo, hi);
        assert_eq!(r.count(&q), driver_rows);
        counted.push(count_allocations(&engine, &r, &q));
    }
    assert_eq!(
        counted[0], counted[1],
        "allocations grew with the range driver: {counted:?}"
    );
}
