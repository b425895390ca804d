//! Posting-list indexes and index-backed selection.
//!
//! A QPIAD workload hammers a source with conjunctive equality queries (one
//! per rewritten query, per probe, per aggregate gate). Scanning the whole
//! relation for each is O(n·queries); [`SelectionEngine`] lazily builds one
//! posting-list index per touched attribute over the relation's interned
//! [`ColumnarRelation`] — one sorted `Vec<u32>` of row ids per
//! (attribute, value-id), stored exactly once, with the reserved null id 0
//! doubling as the null list. A conjunction walks its shortest posting list
//! (the *driver*) and keeps a row only if every other predicate holds on
//! that row's interned value in its own column: O(|driver| × predicates)
//! instead of O(sum of all lists), with no intermediate row sets.
//!
//! The engine is internally synchronized so sources can stay `&self` in
//! their query path.

use crate::hash::FastHashMap;
use std::borrow::Cow;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::columnar::ColumnarRelation;
use crate::dict::ValueId;
use crate::query::{PredOp, Predicate, SelectQuery};
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::tuple::Tuple;
use crate::value::Value;

/// A posting-list index over one attribute of an interned relation.
///
/// `postings[vid]` holds the ascending row ids whose value interned to
/// `vid`; `postings[0]` (the reserved null id) is the null list. Every row
/// id appears in exactly one list, so the index stores each posting once —
/// there is no duplicate hash/tree copy.
#[derive(Debug)]
pub struct AttrIndex {
    columnar: Arc<ColumnarRelation>,
    /// Row ids per value id, ascending; `[0]` is the null list.
    postings: Vec<Vec<u32>>,
    /// The value ids appearing in this column, sorted by their resolved
    /// [`Value`] — the access path for `BETWEEN` ranges.
    value_order: Vec<ValueId>,
}

impl AttrIndex {
    /// Builds the index for `attr` over a relation.
    pub fn build(relation: &Relation, attr: AttrId) -> Self {
        let columnar = Arc::clone(relation.columnar());
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); columnar.dict().len()];
        for (row, vid) in columnar.column(attr).iter().enumerate() {
            postings[vid.index()].push(row as u32);
        }
        let mut value_order: Vec<ValueId> = (1..postings.len() as u32)
            .map(ValueId)
            .filter(|vid| !postings[vid.index()].is_empty())
            .collect();
        value_order.sort_by(|a, b| columnar.dict().resolve(*a).cmp(columnar.dict().resolve(*b)));
        AttrIndex {
            columnar,
            postings,
            value_order,
        }
    }

    /// The value ids with `lo ≤ value ≤ hi`, in value order (none if
    /// `lo > hi`).
    fn value_range(&self, lo: &Value, hi: &Value) -> &[ValueId] {
        let (dict, order) = (self.columnar.dict(), &self.value_order);
        let start = order.partition_point(|vid| dict.resolve(*vid) < lo);
        let end = order.partition_point(|vid| dict.resolve(*vid) <= hi);
        &order[start..end.max(start)]
    }

    /// Number of distinct non-null values in this column.
    pub fn distinct_values(&self) -> usize {
        self.value_order.len()
    }

    /// Total row ids stored across all posting lists. Equal to the relation's
    /// row count: every row sits in exactly one list, proving postings are
    /// stored once (the old index kept a duplicate `BTreeMap` copy).
    pub fn posting_entries(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
    }
}

/// One predicate resolved against its attribute's index.
struct Probe<'a> {
    index: &'a AttrIndex,
    /// The predicate attribute's own interned column.
    column: &'a [ValueId],
    test: Test<'a>,
    /// How many rows satisfy the predicate.
    len: usize,
}

/// What a row's interned value must pass.
enum Test<'a> {
    /// Equal this id (`Eq`, or `IsNull` as the null id).
    Id(ValueId),
    /// Resolve to a value `op` matches (`Between`); `vids` are the ids in
    /// range, whose posting lists hold the rows.
    Range { op: &'a PredOp, vids: &'a [ValueId] },
}

impl<'a> Probe<'a> {
    /// Resolves a predicate against its index; `None` if no row satisfies
    /// it (an empty list, a null or unseen `Eq` value, an empty range).
    fn new(index: &'a AttrIndex, pred: &'a Predicate) -> Option<Self> {
        let dict = index.columnar.dict();
        let (test, len) = match &pred.op {
            PredOp::Eq(v) => {
                let vid = dict.lookup(v).filter(|id| !id.is_null())?;
                (Test::Id(vid), index.postings[vid.index()].len())
            }
            PredOp::IsNull => (Test::Id(ValueId::NULL), index.postings[0].len()),
            PredOp::Between(lo, hi) => {
                let vids = index.value_range(lo, hi);
                let len = vids.iter().map(|v| index.postings[v.index()].len()).sum();
                (Test::Range { op: &pred.op, vids }, len)
            }
        };
        (len > 0).then_some(Probe {
            index,
            column: index.columnar.column(pred.attr),
            test,
            len,
        })
    }

    /// The predicate's rows, ascending (a range's are built: drivers only).
    fn rows(&self) -> Cow<'a, [u32]> {
        match self.test {
            Test::Id(vid) => Cow::Borrowed(&self.index.postings[vid.index()]),
            Test::Range { vids, .. } => {
                // `len` is the lists' total: reserve it once.
                let mut rows = Vec::with_capacity(self.len);
                for v in vids {
                    rows.extend_from_slice(&self.index.postings[v.index()]);
                }
                rows.sort_unstable();
                Cow::Owned(rows)
            }
        }
    }

    /// Whether `row` satisfies the predicate, read off its own column.
    fn keeps(&self, row: u32) -> bool {
        let vid = self.column[row as usize];
        match self.test {
            Test::Id(want) => vid == want,
            Test::Range { op, .. } => op.matches(self.index.columnar.dict().resolve(vid)),
        }
    }
}

/// Calls `hit` with each row of the first probe (the driver) that every
/// other probe keeps, ascending. A filter sieves a batch of driver rows
/// without branching on their values, so its column reads overlap.
fn drive(probes: &[Probe<'_>], mut hit: impl FnMut(u32)) {
    let (driver, filters) = probes.split_first().expect("a conjunction has a predicate");
    let mut batch = [0u32; 256];
    for chunk in driver.rows().chunks(batch.len()) {
        let mut n = chunk.len();
        batch[..n].copy_from_slice(chunk);
        for f in filters {
            let mut kept = 0;
            for i in 0..n {
                let row = batch[i];
                batch[kept] = row;
                kept += usize::from(f.keeps(row));
            }
            n = kept;
        }
        batch[..n].iter().for_each(|&row| hit(row));
    }
}

/// Lazily indexed selection over a fixed relation.
#[derive(Debug, Default)]
pub struct SelectionEngine {
    indexes: RwLock<FastHashMap<AttrId, Arc<AttrIndex>>>,
}

impl SelectionEngine {
    /// Creates an engine with no indexes built yet.
    pub fn new() -> Self {
        SelectionEngine::default()
    }

    /// Number of indexes built so far (for tests and diagnostics).
    pub fn built_indexes(&self) -> usize {
        self.indexes.read().len()
    }

    /// Total posting entries across built indexes (memory-footprint
    /// diagnostics: must equal built indexes × relation rows).
    pub fn posting_entries(&self) -> usize {
        self.indexes
            .read()
            .values()
            .map(|i| i.posting_entries())
            .sum()
    }

    fn index_for(&self, relation: &Relation, attr: AttrId) -> Arc<AttrIndex> {
        if let Some(idx) = self.indexes.read().get(&attr) {
            return Arc::clone(idx);
        }
        let built = Arc::new(AttrIndex::build(relation, attr));
        let mut write = self.indexes.write();
        Arc::clone(write.entry(attr).or_insert(built))
    }

    /// Calls `hit` with the index of each row certainly matching `query`,
    /// in relation order: the rows [`Self::select`] materializes, as row
    /// ids into `relation` and its columnar image. The shortest posting
    /// list drives, and a row is kept if every other predicate holds on its
    /// value id in that column; a query without predicates walks every row.
    pub fn for_each_row(&self, relation: &Relation, query: &SelectQuery, hit: impl FnMut(u32)) {
        let preds = query.predicates();
        if preds.is_empty() {
            (0..relation.len() as u32).for_each(hit);
            return;
        }
        let indexes: Vec<Arc<AttrIndex>> = preds
            .iter()
            .map(|p| self.index_for(relation, p.attr))
            .collect();
        let mut probes = Vec::with_capacity(preds.len());
        for (p, idx) in preds.iter().zip(&indexes) {
            debug_assert!(Arc::ptr_eq(&idx.columnar, &indexes[0].columnar));
            match Probe::new(idx, p) {
                Some(probe) => probes.push(probe),
                None => return,
            }
        }
        // Shortest first: the driver, then the filters most likely to fail.
        probes.sort_by_key(|p| p.len);
        drive(&probes, hit);
    }

    /// Answers a selection with certain-answer semantics, equivalent to
    /// [`Relation::select`]: the driver's posting list and the column
    /// probes decide every predicate, so no tuple is re-verified. Tuples
    /// materialize only here, as shared-slice handle clones, after the walk:
    /// a reference-count bump inside it would stall the column reads.
    pub fn select(&self, relation: &Relation, query: &SelectQuery) -> Vec<Tuple> {
        let mut rows = Vec::new();
        self.for_each_row(relation, query, |row| rows.push(row));
        let tuples = relation.tuples();
        rows.iter()
            .map(|&row| tuples[row as usize].clone())
            .collect()
    }

    /// Counts the certain answers along the same path as [`Self::select`],
    /// materializing neither rows nor tuples.
    pub fn count(&self, relation: &Relation, query: &SelectQuery) -> usize {
        let mut n = 0;
        self.for_each_row(relation, query, |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};
    use crate::tuple::TupleId;

    fn relation() -> Relation {
        let schema = Schema::of(
            "cars",
            &[
                ("model", AttrType::Categorical),
                ("year", AttrType::Integer),
                ("body", AttrType::Categorical),
            ],
        );
        let rows: Vec<(Option<&str>, i64, Option<&str>)> = vec![
            (Some("A4"), 2001, Some("Sedan")),
            (Some("Z4"), 2002, Some("Convt")),
            (Some("Z4"), 2003, None),
            (None, 2002, Some("Convt")),
            (Some("A4"), 2002, Some("Sedan")),
            (Some("Civic"), 2004, Some("Sedan")),
        ];
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, (m, y, b))| {
                Tuple::new(
                    TupleId(i as u32),
                    vec![
                        m.map(Value::str).unwrap_or(Value::Null),
                        Value::int(y),
                        b.map(Value::str).unwrap_or(Value::Null),
                    ],
                )
            })
            .collect();
        Relation::new(schema, tuples)
    }

    /// The rows `pred` selects on its own, through its probe.
    fn probe_rows(idx: &AttrIndex, pred: &Predicate) -> Vec<u32> {
        Probe::new(idx, pred).map_or_else(Vec::new, |p| p.rows().into_owned())
    }

    #[test]
    fn attr_index_partitions_rows() {
        let r = relation();
        let idx = AttrIndex::build(&r, AttrId(0));
        let model = |v: Value| Predicate::eq(AttrId(0), v);
        assert_eq!(probe_rows(&idx, &model(Value::str("Z4"))), [1, 2]);
        assert_eq!(probe_rows(&idx, &model(Value::str("A4"))), [0, 4]);
        assert!(Probe::new(&idx, &model(Value::str("F150"))).is_none());
        assert!(Probe::new(&idx, &model(Value::Null)).is_none());
        // Interned, but in another column.
        assert!(Probe::new(&idx, &model(Value::str("Sedan"))).is_none());
        assert_eq!(probe_rows(&idx, &Predicate::is_null(AttrId(0))), [3]);
        assert_eq!(idx.distinct_values(), 3);
    }

    #[test]
    fn postings_are_stored_once() {
        let r = relation();
        for a in 0..3 {
            let idx = AttrIndex::build(&r, AttrId(a));
            assert_eq!(idx.posting_entries(), r.len());
        }
    }

    #[test]
    fn range_index_matches_value_order() {
        let r = relation();
        let idx = AttrIndex::build(&r, AttrId(1));
        let year = |lo: i64, hi: i64| probe_rows(&idx, &Predicate::between(AttrId(1), lo, hi));
        assert_eq!(year(2002, 2003), [1, 2, 3, 4]);
        assert_eq!(year(2005, 2010), []);
        // Inverted bounds select nothing.
        assert_eq!(year(2003, 2002), []);
        // Inclusive bounds.
        assert_eq!(year(2004, 2004), [5]);
    }

    #[test]
    fn engine_matches_scan_semantics() {
        let r = relation();
        let engine = SelectionEngine::new();
        let queries = vec![
            SelectQuery::new(vec![Predicate::eq(AttrId(0), "Z4")]),
            SelectQuery::new(vec![
                Predicate::eq(AttrId(0), "Z4"),
                Predicate::eq(AttrId(1), 2002i64),
            ]),
            SelectQuery::new(vec![Predicate::is_null(AttrId(2))]),
            SelectQuery::new(vec![Predicate::between(AttrId(1), 2002i64, 2003i64)]),
            SelectQuery::new(vec![
                Predicate::between(AttrId(1), 2002i64, 2003i64),
                Predicate::eq(AttrId(2), "Convt"),
            ]),
            SelectQuery::all(),
            SelectQuery::new(vec![Predicate::eq(AttrId(0), "F150")]),
        ];
        for q in &queries {
            assert_eq!(engine.select(&r, q), r.select(q), "query {q:?}");
            assert_eq!(engine.count(&r, q), r.count(q), "count {q:?}");
            let mut rows = Vec::new();
            engine.for_each_row(&r, q, |row| rows.push(row));
            let scan: Vec<u32> = (0..r.len() as u32)
                .filter(|&row| q.matches(&r.tuples()[row as usize]))
                .collect();
            assert_eq!(rows, scan, "rows {q:?}");
        }
    }

    #[test]
    fn engine_builds_indexes_lazily() {
        let r = relation();
        let engine = SelectionEngine::new();
        assert_eq!(engine.built_indexes(), 0);
        engine.select(&r, &SelectQuery::new(vec![Predicate::eq(AttrId(0), "Z4")]));
        assert_eq!(engine.built_indexes(), 1);
        // Range queries use the same per-attribute index.
        engine.select(
            &r,
            &SelectQuery::new(vec![Predicate::between(AttrId(1), 0i64, 3000i64)]),
        );
        assert_eq!(engine.built_indexes(), 2);
        engine.select(&r, &SelectQuery::new(vec![Predicate::is_null(AttrId(2))]));
        assert_eq!(engine.built_indexes(), 3);
        // Unindexable queries (no predicates) build nothing further.
        engine.select(&r, &SelectQuery::all());
        assert_eq!(engine.built_indexes(), 3);
        // Built postings hold each row exactly once per attribute.
        assert_eq!(engine.posting_entries(), 3 * r.len());
    }

    #[test]
    fn conjunctions_intersect_exactly() {
        // Disjoint predicate lists must produce the empty result even
        // though each list alone is non-empty: the Civic row has year 2004.
        let r = relation();
        let engine = SelectionEngine::new();
        let q = SelectQuery::new(vec![
            Predicate::eq(AttrId(0), "Civic"),
            Predicate::eq(AttrId(1), 2002i64),
        ]);
        assert!(engine.select(&r, &q).is_empty());
    }

    #[test]
    fn long_drivers_span_several_batches() {
        // Drivers of 273–1,000 rows are walked in several batches, the
        // last one partial; each must keep exactly the scan's rows.
        let schema = Schema::of(
            "t",
            &[
                ("a", AttrType::Integer),
                ("b", AttrType::Integer),
                ("c", AttrType::Integer),
            ],
        );
        let tuples = (0..3000i64)
            .map(|i| {
                let c = if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::int(i % 5)
                };
                Tuple::new(
                    TupleId(i as u32),
                    vec![Value::int(i % 3), Value::int(i % 7), c],
                )
            })
            .collect();
        let r = Relation::new(schema, tuples);
        let engine = SelectionEngine::new();
        let (a, b, c) = (AttrId(0), AttrId(1), AttrId(2));
        let queries = [
            vec![Predicate::eq(a, 1i64)],
            vec![Predicate::eq(a, 0i64), Predicate::eq(b, 1i64)],
            vec![
                Predicate::eq(a, 0i64),
                Predicate::eq(b, 3i64),
                Predicate::eq(c, 2i64),
            ],
            vec![Predicate::is_null(c), Predicate::eq(a, 2i64)],
            vec![Predicate::between(b, 2i64, 6i64), Predicate::eq(a, 2i64)],
            vec![Predicate::between(b, 0i64, 6i64), Predicate::is_null(c)],
        ];
        for preds in queries {
            let q = SelectQuery::new(preds);
            assert!(r.count(&q) > 0, "{q:?}");
            assert_eq!(engine.select(&r, &q), r.select(&q), "{q:?}");
            assert_eq!(engine.count(&r, &q), r.count(&q), "{q:?}");
        }
    }

    /// Every ordering of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for at in 0..n {
                let mut p = rest.clone();
                p.insert(at, n - 1);
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn every_predicate_order_selects_the_same_rows() {
        // Whichever predicate drives and in whichever order the others
        // filter, the rows are the scan's: each predicate serves as the
        // driver and as a filter at every position.
        let schema = Schema::of(
            "t",
            &[
                ("a", AttrType::Categorical),
                ("b", AttrType::Integer),
                ("c", AttrType::Categorical),
                ("d", AttrType::Integer),
            ],
        );
        let mut state = 0x9_1AD_u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let tuples = (0..3_000)
            .map(|i| {
                let mut cell = |m: u64, v: fn(u64) -> Value| match next(m + 1) {
                    0 => Value::Null,
                    x => v(x),
                };
                let values = vec![
                    cell(5, |x| Value::str(format!("a{x}"))),
                    cell(20, |x| Value::int(x as i64)),
                    cell(3, |x| Value::str(format!("c{x}"))),
                    cell(50, |x| Value::int(x as i64)),
                ];
                Tuple::new(TupleId(i), values)
            })
            .collect();
        let r = Relation::new(schema, tuples);
        let idx: Vec<AttrIndex> = (0..4).map(|a| AttrIndex::build(&r, AttrId(a))).collect();
        let (a, b, c, d) = (AttrId(0), AttrId(1), AttrId(2), AttrId(3));
        let queries = [
            vec![
                Predicate::eq(a, "a1"),
                Predicate::between(b, 3i64, 9i64),
                Predicate::eq(c, "c2"),
            ],
            vec![
                Predicate::is_null(a),
                Predicate::eq(c, "c1"),
                Predicate::between(d, 10i64, 30i64),
            ],
            vec![Predicate::between(b, 5i64, 5i64), Predicate::eq(d, 7i64)],
            vec![
                Predicate::eq(a, "a2"),
                Predicate::between(b, 1i64, 12i64),
                Predicate::is_null(c),
                Predicate::between(d, 0i64, 40i64),
            ],
        ];
        for preds in &queries {
            let q = SelectQuery::new(preds.clone());
            let scan: Vec<u32> = (0..r.len() as u32)
                .filter(|&row| q.matches(&r.tuples()[row as usize]))
                .collect();
            assert!(!scan.is_empty(), "{q:?} selects nothing");
            for order in permutations(preds.len()) {
                let probes: Vec<Probe> = order
                    .iter()
                    .map(|&i| Probe::new(&idx[preds[i].attr.index()], &preds[i]).unwrap())
                    .collect();
                let mut rows = Vec::new();
                drive(&probes, |row| rows.push(row));
                assert_eq!(rows, scan, "{q:?} in order {order:?}");
            }
        }
    }
}
