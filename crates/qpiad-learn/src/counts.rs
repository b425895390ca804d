//! Row counting shared by drift detection (`drift`: per-attribute value
//! distributions and AFD evidence) and the incremental fold (`stream`:
//! `g3` group counts and NBC co-occurrences) — the one place rows are
//! counted. Both count interned [`ValueId`]s, never values:
//!
//! * [`ValueIds`] is the id space a drift probe counts in: the ids of the
//!   mined sample's dictionary, then ids handed out to values the sample
//!   never held, numbered on from the dictionary's end. A probe counts in
//!   a space of its own, renamed into the detector's when it is absorbed
//!   ([`ValueIds::adopt`]). The fold needs no novel ids: it counts in the
//!   dictionary of the sample it folds into, which the merged sample's
//!   extended image carries on, so every delta value already has an id
//!   there.
//! * [`ValueCounts`] counts one attribute's ids. A `ValueCounts` holding a
//!   single id keeps it inline and allocates no table of its own, and it
//!   keeps its majority count current.
//! * [`GroupTable`] is the one table per determining set: rows grouped by
//!   their valuation of the set, each group holding its row count and one
//!   `ValueCounts` per target attribute the set serves. Every reader of a
//!   set shares its table: the AFDs over it (one target each), an AKey on
//!   it (its groups alone), a classifier's feature table (the set of the
//!   one feature, with the class as target) and drift's AFD evidence. The
//!   empty set's table holds a single group, so its targets are plain
//!   per-attribute value counts. A set of up to [`INLINE_LHS`] attributes
//!   is keyed by an inline id array, so counting a row clones no value,
//!   and allocates nothing once its groups and values have been counted.
//!   A table keeps each target's `g3` removal total current, so every
//!   confidence is one read with no group walk.
//!
//! An entry exists iff its count is positive, and a `ValueCounts` holds its
//! ids inline iff it holds exactly one, so two tables that counted the same
//! multiset of rows are equal whatever order the adds, removes and merges
//! came in. Everything read off a table is an integer count, reduced by an
//! order-free `max` or `sum` or looked up by key, so no result depends on
//! the tables' iteration order: shard-parallel builds and pass-local
//! probes stay byte-identical at any `QPIAD_THREADS`.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use qpiad_db::{AttrId, ColumnarRelation, Dictionary, FastHashMap, Tuple, Value, ValueId};

/// An id space over a mined sample: the ids of its columnar image's
/// dictionary, then ids for values the sample never held, numbered on
/// from the dictionary's end in the order they were first interned. Ids
/// from two samples' dictionaries are not comparable.
#[derive(Debug, Clone)]
pub(crate) struct ValueIds {
    sample: Arc<ColumnarRelation>,
    /// Values the sample never held: id `base() + i − 1` is
    /// `novel.values()[i]` (slot 0 is the dictionary's reserved null).
    novel: Dictionary,
}

impl Default for ValueIds {
    fn default() -> Self {
        ValueIds::over(Arc::new(ColumnarRelation::build(0, &[])))
    }
}

/// Two spaces are equal iff they extend the same sample with the same
/// novel values in the same order, so they give every value the same id.
impl PartialEq for ValueIds {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.sample, &other.sample) && self.novel.values() == other.novel.values()
    }
}

impl ValueIds {
    /// The space of `sample`'s dictionary, with no novel value yet.
    pub(crate) fn over(sample: Arc<ColumnarRelation>) -> Self {
        ValueIds {
            sample,
            novel: Dictionary::new(),
        }
    }

    /// The sample whose dictionary this space extends.
    pub(crate) fn sample(&self) -> &Arc<ColumnarRelation> {
        &self.sample
    }

    /// The first id past the sample dictionary's.
    fn base(&self) -> u32 {
        self.sample.dict().len() as u32
    }

    /// `v`'s id, handing out the next novel id on a novel value's first
    /// sight. Null is [`ValueId::NULL`].
    pub(crate) fn id(&mut self, v: &Value) -> ValueId {
        match self.sample.dict().lookup(v) {
            Some(id) => id,
            None => ValueId(self.base() - 1 + self.novel.intern(v).0),
        }
    }

    /// Appends the ids of `t`'s cells, in attribute order, to `row`.
    pub(crate) fn intern_row(&mut self, t: &Tuple, row: &mut Vec<ValueId>) {
        row.extend(t.values().iter().map(|v| self.id(v)));
    }

    /// Takes `src`'s novel values into this space, which must be over the
    /// same sample, and returns the renaming of `src`'s ids into it.
    pub(crate) fn adopt(&mut self, src: &ValueIds) -> impl Fn(ValueId) -> ValueId {
        let base = self.base();
        let novel: Vec<ValueId> = src.novel.values()[1..].iter().map(|v| self.id(v)).collect();
        move |id| {
            if id.0 < base {
                id
            } else {
                novel[(id.0 - base) as usize]
            }
        }
    }
}

/// The non-null ids a [`ValueCounts`] holds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum Held {
    /// No non-null id.
    #[default]
    Nothing,
    /// Exactly one, with its count, held inline.
    One(ValueId, u64),
    /// Two or more, all in `by_value`, the largest count among them kept
    /// current so [`ValueCounts::majority`] reads no table.
    Many { majority: u64 },
}

/// Occurrence counts of one attribute's ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ValueCounts {
    held: Held,
    /// The counts while two or more ids are held; unallocated until then.
    by_value: FastHashMap<ValueId, u64>,
    nulls: u64,
}

impl ValueCounts {
    /// Counts one occurrence of `v`.
    fn add(&mut self, v: ValueId) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        match &mut self.held {
            Held::One(only, n) if *only == v => *n += 1,
            Held::Many { majority } => {
                let n = self.by_value.entry(v).or_insert(0);
                *n += 1;
                *majority = (*majority).max(*n);
            }
            _ => self.count(v, 1),
        }
    }

    /// Counts `n` occurrences of the non-null `v`.
    fn count(&mut self, v: ValueId, n: u64) {
        self.held = match self.held {
            Held::Nothing => Held::One(v, n),
            Held::One(only, m) if only == v => Held::One(only, m + n),
            Held::One(only, m) => {
                self.by_value.insert(only, m);
                self.by_value.insert(v, n);
                Held::Many { majority: m.max(n) }
            }
            Held::Many { majority } => {
                let counted = self.by_value.entry(v).or_insert(0);
                *counted += n;
                Held::Many {
                    majority: majority.max(*counted),
                }
            }
        };
    }

    /// Uncounts one occurrence of `v`, which must have been counted.
    fn remove(&mut self, v: ValueId) {
        if v.is_null() {
            self.nulls -= 1;
            return;
        }
        match self.held {
            Held::One(only, n) if only == v => {
                self.held = if n > 1 {
                    Held::One(only, n - 1)
                } else {
                    Held::Nothing
                };
            }
            Held::Many { majority } => {
                let Some(n) = self.by_value.get_mut(&v) else {
                    debug_assert!(false, "removed a value that was never counted");
                    return;
                };
                *n -= 1;
                let was = *n + 1;
                if *n == 0 {
                    self.by_value.remove(&v);
                }
                self.held = if self.by_value.len() == 1 {
                    let (only, n) = self.by_value.drain().next().expect("one id is held");
                    Held::One(only, n)
                } else if was == majority && majority > 1 {
                    // Another id may tie the majority: re-read the table.
                    // (A majority of 1 is every id's count, so it stays.)
                    let majority = self.by_value.values().copied().max().unwrap_or(0);
                    Held::Many { majority }
                } else {
                    Held::Many { majority }
                };
            }
            _ => debug_assert!(false, "removed a value that was never counted"),
        }
    }

    /// Adds `src`'s counts to these, each of its ids renamed by `rename` —
    /// a one-to-one map from `src`'s id space into this one's.
    fn merge_mapped(&mut self, src: Self, rename: impl Fn(ValueId) -> ValueId) {
        self.nulls += src.nulls;
        let only = match src.held {
            Held::One(only, n) => Some((only, n)),
            _ => None,
        };
        for (v, n) in only.into_iter().chain(src.by_value) {
            self.count(rename(v), n);
        }
    }

    /// Occurrences counted, nulls included.
    fn rows(&self) -> u64 {
        self.non_null() + self.nulls
    }

    /// Non-null occurrences counted.
    pub(crate) fn non_null(&self) -> u64 {
        self.iter().map(|(_, n)| n).sum()
    }

    /// The largest single-id count (0 without a non-null id).
    pub(crate) fn majority(&self) -> u64 {
        match self.held {
            Held::Nothing => 0,
            Held::One(_, n) | Held::Many { majority: n } => n,
        }
    }

    /// The rows a `g3` measure keeps of this group: the majority id's, or
    /// one row of a group whose ids are all null; none of an empty one.
    fn kept(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.majority().max(1)
        }
    }

    /// Occurrences of `v` (0 if never counted).
    pub(crate) fn get(&self, v: ValueId) -> u64 {
        match self.held {
            Held::Nothing => 0,
            Held::One(only, n) => {
                if only == v {
                    n
                } else {
                    0
                }
            }
            Held::Many { .. } => self.by_value.get(&v).copied().unwrap_or(0),
        }
    }

    /// The non-null ids with their counts, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ValueId, u64)> + '_ {
        let only = match self.held {
            Held::One(only, n) => Some((only, n)),
            _ => None,
        };
        only.into_iter()
            .chain(self.by_value.iter().map(|(v, n)| (*v, *n)))
    }

    fn is_empty(&self) -> bool {
        self.held == Held::Nothing && self.nulls == 0
    }
}

/// Determining sets up to this size are keyed inline by a [`GroupTable`]:
/// TANE's default `max_lhs`, so every mined set is unless mining was
/// configured wider.
pub(crate) const INLINE_LHS: usize = 3;

/// One group of a [`GroupTable`]: its rows, and each target's ids among
/// them in the table's target order.
#[derive(Debug, Clone, PartialEq)]
struct Group {
    rows: u64,
    targets: Vec<ValueCounts>,
}

impl Group {
    fn new(targets: usize) -> Self {
        Group {
            rows: 0,
            targets: vec![ValueCounts::default(); targets],
        }
    }

    /// Counts a row whose target ids are `ids`, keeping each target's
    /// removal total in `removals` current.
    fn add(&mut self, ids: impl Iterator<Item = ValueId>, removals: &mut [u64]) {
        self.rows += 1;
        for ((counts, removed), id) in self.targets.iter_mut().zip(removals).zip(ids) {
            let kept = counts.kept();
            counts.add(id);
            // One row more, of which the group keeps at most one more.
            *removed += 1 - (counts.kept() - kept);
        }
    }

    /// Uncounts a row whose target ids are `ids`, which must have been
    /// counted.
    fn remove(&mut self, ids: impl Iterator<Item = ValueId>, removals: &mut [u64]) {
        self.rows -= 1;
        for ((counts, removed), id) in self.targets.iter_mut().zip(removals).zip(ids) {
            let kept = counts.kept();
            counts.remove(id);
            // One row fewer, of which the group keeps at most one fewer.
            *removed -= 1 - (kept - counts.kept());
        }
    }

    /// Adds `src`'s rows, its target ids renamed by `rename`.
    fn merge(
        &mut self,
        src: Group,
        removals: &mut [u64],
        rename: impl Fn(ValueId) -> ValueId + Copy,
    ) {
        self.rows += src.rows;
        for ((counts, removed), src) in self.targets.iter_mut().zip(removals).zip(src.targets) {
            let (rows, kept) = (src.rows(), counts.kept());
            counts.merge_mapped(src, rename);
            *removed += rows - (counts.kept() - kept);
        }
    }
}

/// A group's key: a row's valuation of a determining set. A set of up to
/// [`INLINE_LHS`] attributes is keyed by an inline array whose unused
/// slots hold [`ValueId::NULL`] (never a real component), so building its
/// key allocates nothing; a wider set is keyed by a boxed slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    Inline([ValueId; INLINE_LHS]),
    Wide(Box<[ValueId]>),
}

impl GroupKey {
    /// `row`'s valuation of `attrs`, or `None` with a null among them.
    fn of(attrs: &[AttrId], row: &[ValueId]) -> Option<Self> {
        let id = |a: &AttrId| row[a.index()];
        if attrs.iter().any(|a| id(a).is_null()) {
            return None;
        }
        Some(if attrs.len() <= INLINE_LHS {
            let mut key = [ValueId::NULL; INLINE_LHS];
            key.iter_mut()
                .zip(attrs)
                .for_each(|(slot, a)| *slot = id(a));
            GroupKey::Inline(key)
        } else {
            GroupKey::Wide(attrs.iter().map(id).collect())
        })
    }

    /// This key with every id renamed by `rename`, which must fix
    /// [`ValueId::NULL`].
    fn renamed(self, rename: impl Fn(ValueId) -> ValueId) -> Self {
        match self {
            GroupKey::Inline(key) => GroupKey::Inline(key.map(rename)),
            GroupKey::Wide(mut key) => {
                key.iter_mut().for_each(|id| *id = rename(*id));
                GroupKey::Wide(key)
            }
        }
    }

    /// The valuation's ids, one per attribute of a set of `width`.
    fn ids(&self, width: usize) -> &[ValueId] {
        match self {
            GroupKey::Inline(key) => &key[..width],
            GroupKey::Wide(key) => key,
        }
    }
}

/// The rows of one determining set grouped by their valuation of it, each
/// group counting its rows and, per target attribute the set serves, the
/// target's ids (nulls included). A row with a null on the set has no
/// valuation and joins no group.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupTable {
    attrs: Vec<AttrId>,
    /// The targets counted, sorted.
    targets: Vec<AttrId>,
    groups: FastHashMap<GroupKey, Group>,
    /// Rows grouped: the sum of every group's rows.
    rows: u64,
    /// Per target, the rows a `g3` measure removes to make every group
    /// agree on it: each group's rows but those it keeps (see
    /// [`ValueCounts::kept`]). Kept current by every add, remove and
    /// merge, so reading one walks no group.
    removals: Vec<u64>,
}

/// The id rows of `rows`, which holds `arity` ids per row, row-major.
fn id_rows(rows: &[ValueId], arity: usize) -> std::slice::ChunksExact<'_, ValueId> {
    // Without attributes there are no ids, and so no rows to walk.
    rows.chunks_exact(arity.max(1))
}

/// One empty table per distinct set among `sets`, sorted by set, each
/// counting the targets paired with its set (a set paired only with
/// `None` is grouped with no target).
pub(crate) fn tables_over<'a>(
    sets: impl IntoIterator<Item = (&'a [AttrId], Option<AttrId>)>,
) -> Vec<GroupTable> {
    let mut shape: BTreeMap<&[AttrId], BTreeSet<AttrId>> = BTreeMap::new();
    for (attrs, target) in sets {
        shape.entry(attrs).or_default().extend(target);
    }
    shape
        .into_iter()
        .map(|(attrs, targets)| GroupTable::over(attrs.to_vec(), targets.into_iter().collect()))
        .collect()
}

/// The table over `attrs` among `tables`, sorted by set as
/// [`tables_over`] returns them, which must hold it.
pub(crate) fn table<'a>(tables: &'a [GroupTable], attrs: &[AttrId]) -> &'a GroupTable {
    let i = tables.binary_search_by(|t| t.attrs.as_slice().cmp(attrs));
    &tables[i.expect("a table over every counted set")]
}

impl GroupTable {
    /// An empty table grouping valuations of `attrs` and counting
    /// `targets`, which must be sorted.
    fn over(attrs: Vec<AttrId>, targets: Vec<AttrId>) -> Self {
        GroupTable {
            attrs,
            removals: vec![0; targets.len()],
            targets,
            groups: FastHashMap::default(),
            rows: 0,
        }
    }

    /// The determining set grouped on.
    pub(crate) fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// The targets counted, sorted.
    pub(crate) fn targets(&self) -> &[AttrId] {
        &self.targets
    }

    /// Counts `row`, a row's ids in attribute order.
    pub(crate) fn add_row(&mut self, row: &[ValueId]) {
        let Some(key) = GroupKey::of(&self.attrs, row) else {
            return;
        };
        let width = self.targets.len();
        let group = self.groups.entry(key).or_insert_with(|| Group::new(width));
        self.rows += 1;
        let ids = self.targets.iter().map(|t| row[t.index()]);
        group.add(ids, &mut self.removals);
    }

    /// Uncounts `row`, which [`GroupTable::add_row`] counted; a group left
    /// without rows is dropped.
    fn remove_row(&mut self, row: &[ValueId]) {
        let Some(key) = GroupKey::of(&self.attrs, row) else {
            return;
        };
        let Entry::Occupied(mut entry) = self.groups.entry(key) else {
            debug_assert!(false, "removed a row that was never grouped");
            return;
        };
        self.rows -= 1;
        let ids = self.targets.iter().map(|t| row[t.index()]);
        entry.get_mut().remove(ids, &mut self.removals);
        if entry.get().rows == 0 {
            entry.remove();
        }
    }

    /// Counts every id row of `rows`, which holds `arity` ids per row.
    pub(crate) fn add_rows(&mut self, rows: &[ValueId], arity: usize) {
        id_rows(rows, arity).for_each(|row| self.add_row(row));
    }

    /// Uncounts every id row of `rows`, which holds `arity` ids per row
    /// and [`GroupTable::add_rows`] counted.
    pub(crate) fn remove_rows(&mut self, rows: &[ValueId], arity: usize) {
        id_rows(rows, arity).for_each(|row| self.remove_row(row));
    }

    /// Adds `src`, counted over the same set and targets in the same id
    /// space, to these.
    pub(crate) fn merge(&mut self, src: Self) {
        self.merge_renamed(src, |id| id);
    }

    /// Adds `src`, counted over the same set and targets, to these, every
    /// id renamed by `rename` (which must fix [`ValueId::NULL`]).
    pub(crate) fn merge_renamed(&mut self, src: Self, rename: impl Fn(ValueId) -> ValueId + Copy) {
        debug_assert!(self.attrs == src.attrs && self.targets == src.targets);
        self.rows += src.rows;
        let width = self.targets.len();
        for (key, src) in src.groups {
            let group = self.groups.entry(key.renamed(rename));
            let group = group.or_insert_with(|| Group::new(width));
            group.merge(src, &mut self.removals, rename);
        }
    }

    fn target_index(&self, target: AttrId) -> usize {
        let i = self.targets.binary_search(&target);
        i.expect("a target this table counts")
    }

    /// The rows a `g3` measure of `attrs → target` removes (see the
    /// field).
    pub(crate) fn removals(&self, target: AttrId) -> u64 {
        self.removals[self.target_index(target)]
    }

    /// The rows a `g3_key` measure of the set removes: each group's rows
    /// but one.
    pub(crate) fn key_removals(&self) -> u64 {
        self.rows - self.groups.len() as u64
    }

    /// Each group's valuation of the set with its counts of `target`, in
    /// no particular order.
    pub(crate) fn column(
        &self,
        target: AttrId,
    ) -> impl Iterator<Item = (&[ValueId], &ValueCounts)> {
        let (i, width) = (self.target_index(target), self.attrs.len());
        let groups = self.groups.iter();
        groups.map(move |(key, g)| (key.ids(width), &g.targets[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows of six ids, nulls on every attribute: four that group and two
    /// targets.
    const ROWS: [[u32; 6]; 8] = [
        [1, 2, 3, 4, 5, 1],
        [1, 2, 3, 4, 6, 1],
        [1, 2, 3, 4, 5, 0],
        [1, 0, 3, 4, 5, 2],
        [7, 2, 3, 4, 0, 2],
        [7, 2, 3, 4, 5, 0],
        [7, 8, 9, 9, 6, 3],
        [1, 2, 3, 4, 5, 1],
    ];

    const TARGETS: [AttrId; 2] = [AttrId(4), AttrId(5)];

    fn row(ids: [u32; 6]) -> Vec<ValueId> {
        ids.into_iter().map(ValueId).collect()
    }

    /// An inline set of one and of two attributes, and a wide one.
    fn sets() -> [&'static [AttrId]; 3] {
        [
            &[AttrId(0)],
            &[AttrId(0), AttrId(1)],
            &[AttrId(0), AttrId(1), AttrId(2), AttrId(3)],
        ]
    }

    fn counted(attrs: &[AttrId], rows: impl Iterator<Item = usize>) -> GroupTable {
        let mut table = GroupTable::over(attrs.to_vec(), TARGETS.to_vec());
        for i in rows {
            table.add_row(&row(ROWS[i]));
        }
        table
    }

    /// Each group's `(rows, non-null rows, majority)` of `target`, sorted.
    fn totals(table: &GroupTable, target: AttrId) -> Vec<(u64, u64, u64)> {
        let column = table.column(target);
        let mut totals: Vec<_> = column
            .map(|(_, g)| (g.rows(), g.non_null(), g.majority()))
            .collect();
        totals.sort_unstable();
        totals
    }

    #[test]
    fn tables_are_equal_whatever_order_rows_came_in() {
        for attrs in sets() {
            let forward = counted(attrs, 0..ROWS.len());
            assert_eq!(counted(attrs, (0..ROWS.len()).rev()), forward);

            // Split in two and merged.
            let mut front = counted(attrs, 0..3);
            front.merge(counted(attrs, 3..ROWS.len()));
            assert_eq!(front, forward, "over {attrs:?}");

            // With a row counted and uncounted again, and the rows past the
            // third uncounted: no empty entry stays.
            let mut churned = forward.clone();
            churned.add_row(&row([9, 9, 9, 9, 9, 9]));
            churned.remove_row(&row([9, 9, 9, 9, 9, 9]));
            assert_eq!(churned, forward, "over {attrs:?}");
            for ids in &ROWS[3..] {
                churned.remove_row(&row(*ids));
            }
            assert_eq!(churned, counted(attrs, 0..3), "over {attrs:?}");
        }
    }

    #[test]
    fn a_single_value_is_held_inline_however_the_table_got_there() {
        let table = |steps: &[(u32, bool)]| {
            let mut t = ValueCounts::default();
            for &(v, add) in steps {
                if add {
                    t.add(ValueId(v));
                } else {
                    t.remove(ValueId(v));
                }
            }
            t
        };
        let one = table(&[(1, true), (1, true)]);
        assert!(one.by_value.is_empty());
        assert!(matches!(one.held, Held::One(..)));
        assert_eq!(
            (one.non_null(), one.majority(), one.get(ValueId(1))),
            (2, 2, 2)
        );
        // Spilled into the table and back: the same state, inline again.
        let back = table(&[(1, true), (2, true), (1, true), (2, false)]);
        assert_eq!(back, one);
        assert_eq!(table(&[(2, true), (1, true), (1, true), (2, false)]), one);
        // Merged from two single-value tables, equal or not.
        let same = |v| v;
        let mut merged = table(&[(1, true)]);
        merged.merge_mapped(table(&[(1, true)]), same);
        assert_eq!(merged, one);
        merged.merge_mapped(table(&[(3, true)]), same);
        assert_eq!(merged, table(&[(3, true), (1, true), (1, true)]));
        assert_eq!(
            (merged.rows(), merged.majority(), merged.get(ValueId(3))),
            (3, 2, 1)
        );
        // Emptied entirely, nulls aside.
        let mut emptied = table(&[(1, true), (1, false)]);
        emptied.add(ValueId::NULL);
        assert_eq!(
            (emptied.rows(), emptied.non_null(), emptied.iter().count()),
            (1, 0, 0)
        );
        assert_eq!(emptied.held, Held::Nothing);
    }

    #[test]
    fn groups_count_nulls_as_rows_but_never_as_majority() {
        let groups = counted(&[AttrId(0)], 0..ROWS.len());
        // Group 1: first targets 5, 6, 5, 5, 5; group 7: null, 5, 6.
        assert_eq!(totals(&groups, AttrId(4)), vec![(3, 2, 1), (5, 5, 4)]);
        // Group 1: second targets 1, 1, null, 2, 1; group 7: 2, null, 3.
        assert_eq!(totals(&groups, AttrId(5)), vec![(3, 2, 1), (5, 4, 3)]);
        // The empty set groups every row in one group.
        let all = counted(&[], 0..ROWS.len());
        assert_eq!(totals(&all, AttrId(4)), vec![(8, 7, 5)]);
        assert_eq!(all.key_removals(), 7);
    }

    #[test]
    fn merge_renamed_renames_keys_and_targets() {
        // Swap ids 1 and 7, and 5 and 6; null stays null.
        let rename = |id: ValueId| match id.0 {
            1 => ValueId(7),
            7 => ValueId(1),
            5 => ValueId(6),
            6 => ValueId(5),
            _ => id,
        };
        for attrs in sets() {
            let src = counted(attrs, 0..ROWS.len());
            // Into a table already holding the renamed rows.
            let renamed =
                |ids: [u32; 6]| -> Vec<ValueId> { row(ids).into_iter().map(rename).collect() };
            let mut dst = GroupTable::over(attrs.to_vec(), TARGETS.to_vec());
            let mut direct = dst.clone();
            for ids in ROWS {
                dst.add_row(&renamed(ids));
                for _ in 0..2 {
                    direct.add_row(&renamed(ids));
                }
            }
            dst.merge_renamed(src, rename);
            assert_eq!(dst, direct, "over {attrs:?}");
        }
    }

    /// Checks every running total of `table` against one walked group by
    /// group, with every majority re-read off the group's ids.
    fn check_totals(table: &GroupTable) {
        for target in TARGETS {
            let walked = table
                .column(target)
                .map(|(_, g)| g.rows() - g.iter().map(|(_, n)| n).max().unwrap_or(0).max(1))
                .sum();
            assert_eq!(table.removals(target), walked, "over {:?}", table.attrs());
            for (_, g) in table.column(target) {
                assert_eq!(g.majority(), g.iter().map(|(_, n)| n).max().unwrap_or(0));
            }
        }
        let groups = table.column(TARGETS[0]).count() as u64;
        let rows: u64 = table.column(TARGETS[0]).map(|(_, g)| g.rows()).sum();
        assert_eq!(table.key_removals(), rows - groups);
    }

    #[test]
    fn removal_totals_and_majorities_stay_current() {
        // Through adds, removes (majority ids and ties included) and a
        // merge, over a one-attribute, an inline and a wide set.
        for attrs in sets() {
            let mut all = GroupTable::over(attrs.to_vec(), TARGETS.to_vec());
            for ids in ROWS {
                all.add_row(&row(ids));
                check_totals(&all);
            }
            for ids in ROWS.into_iter().rev().step_by(2) {
                all.remove_row(&row(ids));
                check_totals(&all);
            }
            all.merge(counted(attrs, (0..ROWS.len()).step_by(2)));
            check_totals(&all);
        }
    }

    #[test]
    fn wide_sets_group_like_inline_sets() {
        // Four attributes exceed the inline key, three fit it; over the
        // rows whose last grouping attribute repeats the third's grouping,
        // both tables hold the same groups.
        let wide_attrs = [AttrId(0), AttrId(1), AttrId(2), AttrId(3)];
        let inline_attrs = [AttrId(0), AttrId(1), AttrId(2)];
        let rows = || (0..ROWS.len()).filter(|&i| ROWS[i][3] == ROWS[i][2] + 1);
        let (wide, inline) = (counted(&wide_attrs, rows()), counted(&inline_attrs, rows()));
        let keyed = |t: &GroupTable, inline: bool| {
            t.groups
                .keys()
                .all(|k| matches!(k, GroupKey::Inline(_)) == inline)
        };
        assert!(keyed(&wide, false) && keyed(&inline, true));
        for target in TARGETS {
            assert_eq!(totals(&wide, target), totals(&inline, target));
            assert_eq!(wide.removals(target), inline.removals(target));
        }
        // The row with a null in the set joins no group.
        assert_eq!(totals(&wide, AttrId(4)), vec![(2, 1, 1), (4, 4, 3)]);
        assert_eq!(wide.key_removals(), 4);
    }

    #[test]
    fn tables_over_share_one_table_per_set() {
        let (x, y, z) = (AttrId(0), AttrId(1), AttrId(2));
        let tables = tables_over([
            (&[x][..], Some(z)),
            (&[x, y], None),
            (&[x], Some(y)),
            (&[], Some(z)),
            (&[x], Some(z)),
        ]);
        let shape: Vec<(&[AttrId], &[AttrId])> =
            tables.iter().map(|t| (t.attrs(), t.targets())).collect();
        assert_eq!(
            shape,
            vec![(&[][..], &[z][..]), (&[x], &[y, z]), (&[x, y], &[])]
        );
        assert_eq!(table(&tables, &[x]).targets(), &[y, z]);
    }

    #[test]
    fn value_ids_extend_the_sample_dictionary() {
        let sample = [Tuple::new(
            qpiad_db::TupleId(0),
            vec![Value::str("a"), Value::int(1)],
        )];
        let sample = Arc::new(ColumnarRelation::build(2, &sample));
        let mut ids = ValueIds::over(Arc::clone(&sample));
        // Sample values keep their dictionary ids; novel ones number on
        // from its end, in first-sight order, and resolve back.
        assert_eq!(
            ids.id(&Value::str("a")),
            sample.dict().lookup(&Value::str("a")).unwrap()
        );
        assert_eq!(ids.id(&Value::Null), ValueId::NULL);
        let (b, c) = (ids.id(&Value::str("b")), ids.id(&Value::int(2)));
        assert_eq!((b.0, c.0), (3, 4));
        assert_eq!(ids.id(&Value::str("b")), b);
        assert_eq!(ids.id(&Value::int(2)), c);

        // A copy carries the novel ids forward, and equal spaces name
        // every value alike.
        let mut next = ids.clone();
        assert_eq!(next, ids);
        let mut row = Vec::new();
        let t = Tuple::new(qpiad_db::TupleId(1), vec![Value::str("b"), Value::int(9)]);
        next.intern_row(&t, &mut row);
        assert_eq!(row, vec![b, ValueId(5)]);
        assert_ne!(next, ids);

        // Adopting another space's novel values renames its ids.
        let mut other = ValueIds::over(Arc::clone(&sample));
        let (o9, ob) = (other.id(&Value::int(9)), other.id(&Value::str("b")));
        let rename = next.adopt(&other);
        assert_eq!(
            (rename(o9), rename(ob), rename(ValueId(1))),
            (ValueId(5), b, ValueId(1))
        );
    }
}
