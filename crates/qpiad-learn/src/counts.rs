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
//! * [`ValueCounts`] counts one attribute's ids; [`GroupCounts`] counts a
//!   target's ids per determining-set group. [`IdGroupCounts`] keys a set
//!   of up to [`INLINE_LHS`] attributes by an inline id array, so counting
//!   a row clones no value, and allocates nothing once its groups and
//!   values have been counted. A `ValueCounts` holding a single id keeps it
//!   inline: about half of all determining-set groups see one target, and
//!   those allocate no table of their own. A `ValueCounts` keeps its
//!   majority count current, and a `GroupCounts` its `g3` removal total,
//!   so the fold reads its confidences without walking a group.
//!
//! An entry exists iff its count is positive, and a table holds its ids
//! inline iff it holds exactly one, so two tables that counted the same
//! multiset of rows are equal whatever order the adds, removes and merges
//! came in. Everything read off a table is an integer count, reduced by an
//! order-free `max` or `sum` or looked up by key, so no result depends on
//! the tables' iteration order: shard-parallel builds and pass-local
//! probes stay byte-identical at any `QPIAD_THREADS`.

use std::collections::hash_map::Entry;
use std::hash::Hash;
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
    pub(crate) fn add(&mut self, v: ValueId) {
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
    pub(crate) fn remove(&mut self, v: ValueId) {
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

    /// Adds `src`'s counts to these.
    pub(crate) fn merge(&mut self, src: Self) {
        self.merge_mapped(src, |v| v);
    }

    /// Adds `src`'s counts to these, each of its ids renamed by `rename` —
    /// a one-to-one map from `src`'s id space into this one's.
    pub(crate) fn merge_mapped(&mut self, src: Self, rename: impl Fn(ValueId) -> ValueId) {
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
    pub(crate) fn rows(&self) -> u64 {
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

/// Rows grouped by their valuation of a determining set, each group
/// counting a target id. Every key passed to one table values the same
/// determining set; a row with a null on it has no key and joins no group.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupCounts<G: Eq + Hash> {
    groups: FastHashMap<G, ValueCounts>,
    /// The rows a `g3` measure removes to make every group agree on its
    /// target: each group's rows but those it keeps (see
    /// [`ValueCounts::kept`]). Kept current by every add, remove and
    /// merge, so reading it walks no group.
    removals: u64,
}

impl<G: Eq + Hash> Default for GroupCounts<G> {
    fn default() -> Self {
        GroupCounts {
            groups: FastHashMap::default(),
            removals: 0,
        }
    }
}

impl<G: Eq + Hash> GroupCounts<G> {
    /// Counts `target` in the group keyed `key`.
    pub(crate) fn add(&mut self, key: G, target: ValueId) {
        let group = self.groups.entry(key).or_default();
        let kept = group.kept();
        group.add(target);
        // One row more, of which the group keeps at most one more.
        self.removals += 1 - (group.kept() - kept);
    }

    /// Uncounts `target` from the group keyed `key`, where it must have
    /// been counted; a group left without rows is dropped.
    pub(crate) fn remove(&mut self, key: G, target: ValueId) {
        let Entry::Occupied(mut entry) = self.groups.entry(key) else {
            debug_assert!(false, "removed a row that was never grouped");
            return;
        };
        let group = entry.get_mut();
        let kept = group.kept();
        group.remove(target);
        // One row fewer, of which the group keeps at most one fewer.
        self.removals -= 1 - (kept - group.kept());
        if group.is_empty() {
            entry.remove();
        }
    }

    /// Adds `src`'s groups to these.
    pub(crate) fn merge(&mut self, src: Self) {
        self.merge_mapped(src, |key| key, |v| v);
    }

    /// Adds `src`'s groups to these, renaming its keys by `rename_key` and
    /// its target ids by `rename` (one-to-one maps from `src`'s id space
    /// into this one's).
    pub(crate) fn merge_mapped(
        &mut self,
        src: Self,
        rename_key: impl Fn(G) -> G,
        rename: impl Fn(ValueId) -> ValueId + Copy,
    ) {
        for (key, counts) in src.groups {
            let rows = counts.rows();
            let group = self.groups.entry(rename_key(key)).or_default();
            let kept = group.kept();
            group.merge_mapped(counts, rename);
            self.removals += rows - (group.kept() - kept);
        }
    }

    /// The rows a `g3` measure removes from these groups (see the field).
    pub(crate) fn removals(&self) -> u64 {
        self.removals
    }

    /// Each group's target counts, in no particular order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = &ValueCounts> + '_ {
        self.groups.values()
    }

    /// Each group's key with its target counts, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&G, &ValueCounts)> + '_ {
        self.groups.iter()
    }
}

/// Determining sets up to this size are keyed inline by [`IdGroupCounts`]:
/// TANE's default `max_lhs`, so every mined set is unless mining was
/// configured wider.
pub(crate) const INLINE_LHS: usize = 3;

/// [`GroupCounts`] for one determining set. A set of up to [`INLINE_LHS`]
/// attributes is keyed by an inline array whose unused slots hold
/// [`ValueId::NULL`] (never a real component: a row with a null on the set
/// joins no group), so building a key allocates nothing; a wider set is
/// keyed by a boxed slice.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum IdGroupCounts {
    Inline(GroupCounts<[ValueId; INLINE_LHS]>),
    Wide(GroupCounts<Box<[ValueId]>>),
}

/// `row`'s valuation of `attrs` as an inline key, or `None` with a null
/// among them.
fn inline_key(attrs: &[AttrId], row: &[ValueId]) -> Option<[ValueId; INLINE_LHS]> {
    let mut key = [ValueId::NULL; INLINE_LHS];
    for (slot, a) in key.iter_mut().zip(attrs) {
        *slot = row[a.index()];
        if slot.is_null() {
            return None;
        }
    }
    Some(key)
}

/// `row`'s valuation of `attrs` as a boxed key, or `None` with a null
/// among them.
fn wide_key(attrs: &[AttrId], row: &[ValueId]) -> Option<Box<[ValueId]>> {
    let id = |a: &AttrId| row[a.index()];
    (!attrs.iter().any(|a| id(a).is_null())).then(|| attrs.iter().map(id).collect())
}

impl IdGroupCounts {
    /// An empty table for valuations of `attrs`.
    pub(crate) fn over(attrs: &[AttrId]) -> Self {
        if attrs.len() > INLINE_LHS {
            IdGroupCounts::Wide(GroupCounts::default())
        } else {
            IdGroupCounts::Inline(GroupCounts::default())
        }
    }

    /// Counts `target` in the group of `row`'s valuation of `attrs` (the
    /// set this table is over), where `row` holds a row's ids in attribute
    /// order.
    pub(crate) fn add(&mut self, attrs: &[AttrId], row: &[ValueId], target: ValueId) {
        match self {
            IdGroupCounts::Inline(groups) => {
                if let Some(key) = inline_key(attrs, row) {
                    groups.add(key, target);
                }
            }
            IdGroupCounts::Wide(groups) => {
                if let Some(key) = wide_key(attrs, row) {
                    groups.add(key, target);
                }
            }
        }
    }

    /// Uncounts `target` from the group of `row`'s valuation of `attrs`,
    /// where [`IdGroupCounts::add`] counted it.
    pub(crate) fn remove(&mut self, attrs: &[AttrId], row: &[ValueId], target: ValueId) {
        match self {
            IdGroupCounts::Inline(groups) => {
                if let Some(key) = inline_key(attrs, row) {
                    groups.remove(key, target);
                }
            }
            IdGroupCounts::Wide(groups) => {
                if let Some(key) = wide_key(attrs, row) {
                    groups.remove(key, target);
                }
            }
        }
    }

    /// Adds `src`'s groups, counted over the same set in the same id
    /// space, to these.
    pub(crate) fn merge(&mut self, src: Self) {
        self.merge_renamed(src, |id| id);
    }

    /// Adds `src`'s groups, counted over the same set, to these, every id
    /// renamed by `rename` (which must fix [`ValueId::NULL`]).
    pub(crate) fn merge_renamed(&mut self, src: Self, rename: impl Fn(ValueId) -> ValueId + Copy) {
        match (self, src) {
            (IdGroupCounts::Inline(dst), IdGroupCounts::Inline(src)) => {
                dst.merge_mapped(src, |key| key.map(rename), rename);
            }
            (IdGroupCounts::Wide(dst), IdGroupCounts::Wide(src)) => {
                let rename_all = |mut key: Box<[ValueId]>| {
                    key.iter_mut().for_each(|id| *id = rename(*id));
                    key
                };
                dst.merge_mapped(src, rename_all, rename);
            }
            _ => unreachable!("merged group counts over different determining sets"),
        }
    }

    /// The rows a `g3` measure removes from these groups (see
    /// [`GroupCounts::removals`]).
    pub(crate) fn removals(&self) -> u64 {
        match self {
            IdGroupCounts::Inline(groups) => groups.removals(),
            IdGroupCounts::Wide(groups) => groups.removals(),
        }
    }

    /// Each group's target counts, in no particular order.
    pub(crate) fn groups(&self) -> Box<dyn Iterator<Item = &ValueCounts> + '_> {
        match self {
            IdGroupCounts::Inline(groups) => Box::new(groups.groups()),
            IdGroupCounts::Wide(groups) => Box::new(groups.groups()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(group, target)` rows over ids, with nulls on both sides.
    const ROWS: [([u32; 4], u32); 8] = [
        ([1, 2, 3, 4], 5),
        ([1, 2, 3, 4], 6),
        ([1, 2, 3, 4], 5),
        ([1, 0, 3, 4], 5),
        ([7, 2, 3, 4], 0),
        ([7, 2, 3, 4], 5),
        ([7, 8, 9, 9], 6),
        ([1, 2, 3, 4], 5),
    ];

    fn row(ids: [u32; 4]) -> Vec<ValueId> {
        ids.into_iter().map(ValueId).collect()
    }

    /// Each group's `(rows, non-null rows, majority)`, sorted.
    fn totals<'a>(groups: impl Iterator<Item = &'a ValueCounts>) -> Vec<(u64, u64, u64)> {
        let mut totals: Vec<_> = groups
            .map(|g| (g.rows(), g.non_null(), g.majority()))
            .collect();
        totals.sort_unstable();
        totals
    }

    /// The group key of `ids` over their first two attributes, or `None`
    /// with a null among them.
    fn key(ids: [u32; 4]) -> Option<[ValueId; 2]> {
        let key = [ValueId(ids[0]), ValueId(ids[1])];
        key.iter().all(|id| !id.is_null()).then_some(key)
    }

    type Tables = (ValueCounts, GroupCounts<[ValueId; 2]>);

    fn count(rows: impl Iterator<Item = usize>) -> Tables {
        let mut tables = Tables::default();
        for i in rows {
            let (ids, target) = ROWS[i];
            tables.0.add(ValueId(ids[0]));
            if let Some(key) = key(ids) {
                tables.1.add(key, ValueId(target));
            }
        }
        tables
    }

    #[test]
    fn tables_are_equal_whatever_order_rows_came_in() {
        let forward = count(0..ROWS.len());
        assert_eq!(count((0..ROWS.len()).rev()), forward);

        // Split in two and merged.
        let (mut front, back) = (count(0..3), count(3..ROWS.len()));
        front.0.merge(back.0);
        front.1.merge(back.1);
        assert_eq!(front, forward);

        // With a row counted and uncounted again: no empty entry stays.
        let mut churned = count(0..ROWS.len());
        churned.0.add(ValueId(9));
        churned.0.remove(ValueId(9));
        churned.1.add([ValueId(9), ValueId(9)], ValueId(9));
        churned.1.remove([ValueId(9), ValueId(9)], ValueId(9));
        assert_eq!(churned, forward);
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
        let mut merged = table(&[(1, true)]);
        merged.merge(table(&[(1, true)]));
        assert_eq!(merged, one);
        merged.merge(table(&[(3, true)]));
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
        let mut groups = GroupCounts::<[ValueId; 1]>::default();
        for (ids, target) in ROWS {
            groups.add([ValueId(ids[0])], ValueId(target));
        }
        // Group 1: targets 5, 6, 5, 5, 5; group 7: null, 5, 6.
        assert_eq!(totals(groups.groups()), vec![(3, 2, 1), (5, 5, 4)]);
    }

    #[test]
    fn id_groups_uncount_what_they_counted() {
        // An inline and a wide set; rows with a null on the set join no
        // group, so removing them is a no-op too.
        for attrs in [
            &[AttrId(0), AttrId(1)][..],
            &[AttrId(0), AttrId(1), AttrId(2), AttrId(3)],
        ] {
            let mut all = IdGroupCounts::over(attrs);
            let mut front = IdGroupCounts::over(attrs);
            for (i, (ids, target)) in ROWS.into_iter().enumerate() {
                all.add(attrs, &row(ids), ValueId(target));
                if i < 3 {
                    front.add(attrs, &row(ids), ValueId(target));
                }
            }
            for (ids, target) in &ROWS[3..] {
                all.remove(attrs, &row(*ids), ValueId(*target));
            }
            assert_eq!(all, front, "over {attrs:?}");
        }
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
        // An inline and a wide set.
        for attrs in [
            &[AttrId(0), AttrId(2)][..],
            &[AttrId(0), AttrId(1), AttrId(2), AttrId(3)],
        ] {
            let mut src = IdGroupCounts::over(attrs);
            for (ids, target) in ROWS {
                src.add(attrs, &row(ids), ValueId(target));
            }
            // Into a table already holding the renamed rows.
            let mut dst = IdGroupCounts::over(attrs);
            let mut direct = IdGroupCounts::over(attrs);
            for (ids, target) in ROWS {
                let ids: Vec<ValueId> = row(ids).into_iter().map(rename).collect();
                dst.add(attrs, &ids, rename(ValueId(target)));
                for _ in 0..2 {
                    direct.add(attrs, &ids, rename(ValueId(target)));
                }
            }
            dst.merge_renamed(src, rename);
            assert_eq!(dst, direct, "over {attrs:?}");
        }
    }

    /// The `g3` removals of `groups`, walked group by group with every
    /// majority re-read off the group's ids.
    fn walked_removals(groups: &IdGroupCounts) -> u64 {
        groups
            .groups()
            .map(|g| g.rows() - g.iter().map(|(_, n)| n).max().unwrap_or(0).max(1))
            .sum()
    }

    #[test]
    fn removal_totals_and_majorities_stay_current() {
        // Through adds, removes (majority ids and ties included) and a
        // merge, over a one-attribute, an inline and a wide set.
        for attrs in [
            &[AttrId(0)][..],
            &[AttrId(0), AttrId(1)],
            &[AttrId(0), AttrId(1), AttrId(2), AttrId(3)],
        ] {
            let mut table = IdGroupCounts::over(attrs);
            let mut other = IdGroupCounts::over(attrs);
            let check = |t: &IdGroupCounts| {
                assert_eq!(t.removals(), walked_removals(t), "over {attrs:?}");
                for g in t.groups() {
                    let max = g.iter().map(|(_, n)| n).max().unwrap_or(0);
                    assert_eq!(g.majority(), max, "over {attrs:?}");
                }
            };
            for (i, (ids, target)) in ROWS.into_iter().enumerate() {
                table.add(attrs, &row(ids), ValueId(target));
                if i % 2 == 0 {
                    other.add(attrs, &row(ids), ValueId(target));
                }
                check(&table);
            }
            for (ids, target) in ROWS.into_iter().rev().step_by(2) {
                table.remove(attrs, &row(ids), ValueId(target));
                check(&table);
            }
            table.merge(other);
            check(&table);
        }
    }

    #[test]
    fn wide_sets_group_like_inline_sets() {
        // Four attributes exceed the inline key, three fit it; the last
        // attribute repeats the third's grouping, so both tables hold the
        // same groups.
        let wide_attrs = [AttrId(0), AttrId(1), AttrId(2), AttrId(3)];
        let inline_attrs = [AttrId(0), AttrId(1), AttrId(2)];
        let mut wide = IdGroupCounts::over(&wide_attrs);
        let mut inline = IdGroupCounts::over(&inline_attrs);
        assert!(matches!(wide, IdGroupCounts::Wide(_)));
        assert!(matches!(inline, IdGroupCounts::Inline(_)));
        for (ids, target) in ROWS.into_iter().filter(|(ids, _)| ids[3] == ids[2] + 1) {
            wide.add(&wide_attrs, &row(ids), ValueId(target));
            inline.add(&inline_attrs, &row(ids), ValueId(target));
        }
        assert_eq!(totals(wide.groups()), totals(inline.groups()));
        // The row with a null in the set joins no group.
        assert_eq!(totals(wide.groups()), vec![(2, 1, 1), (4, 4, 3)]);
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
