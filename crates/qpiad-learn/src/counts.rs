//! Row counting shared by drift detection (`drift`: per-attribute value
//! distributions and AFD evidence) and the incremental fold (`stream`:
//! `g3` group counts and NBC co-occurrences) — the one place rows are
//! counted. [`ValueCounts`] counts one attribute's values; [`GroupCounts`]
//! counts a target's values per determining-set valuation. Both are hash
//! tables generic over their key, and a `ValueCounts` holding a single
//! value keeps it inline: about half of all determining-set groups see one
//! target, and those allocate no table of their own.
//!
//! * The fold keys by [`Value`] and [`Valuation`], because its count state
//!   outlives every sample dictionary. [`Valuation::of`] clones the
//!   determining values on every add and remove (a reference-count bump
//!   per string value, plus a boxed slice for a multi-attribute set).
//! * The drift probe keys by interned [`ValueId`]s, through
//!   [`IdGroupCounts`]: ids of the mined sample's dictionary, then ids the
//!   probe hands out to values the sample never held. Absorbing a probe
//!   renames its ids into the detector's ([`ValueCounts::merge_mapped`],
//!   [`IdGroupCounts::merge_renamed`]). A determining set of up to
//!   [`INLINE_LHS`] attributes is keyed by an inline id array, so counting
//!   a row clones no value, and allocates nothing once its groups and
//!   values have been counted.
//!
//! An entry exists iff its count is positive, and a table holds its values
//! inline iff it holds exactly one, so two tables that counted the same
//! multiset of rows are equal whatever order the adds, removes and merges
//! came in. Everything read off a table is an integer count, reduced by an
//! order-free `max` or `sum` or looked up by key, so no result depends on
//! the tables' iteration order: shard-parallel builds and pass-local
//! probes stay byte-identical at any `QPIAD_THREADS`.

use std::hash::Hash;

use qpiad_db::{AttrId, FastHashMap, Tuple, Value, ValueId};

/// A counted value: hashable, with a null that is tallied apart.
pub(crate) trait CountKey: Clone + Eq + Hash {
    fn is_null(&self) -> bool;
}

impl CountKey for Value {
    fn is_null(&self) -> bool {
        Value::is_null(self)
    }
}

impl CountKey for ValueId {
    fn is_null(&self) -> bool {
        ValueId::is_null(*self)
    }
}

/// One row's valuation of a determining set, by value. A single-attribute
/// set (every NBC feature, most AFDs) stores its value without a heap
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Valuation {
    One(Value),
    Many(Box<[Value]>),
}

impl Valuation {
    /// `t`'s valuation of `attrs`, or `None` if any of them is null.
    pub(crate) fn of(attrs: &[AttrId], t: &Tuple) -> Option<Self> {
        if attrs.iter().any(|a| t.value(*a).is_null()) {
            return None;
        }
        Some(match attrs {
            [a] => Valuation::One(t.value(*a).clone()),
            _ => Valuation::Many(attrs.iter().map(|a| t.value(*a).clone()).collect()),
        })
    }

    pub(crate) fn values(&self) -> &[Value] {
        match self {
            Valuation::One(v) => std::slice::from_ref(v),
            Valuation::Many(vs) => vs,
        }
    }
}

/// Occurrence counts of one attribute's values.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ValueCounts<K: CountKey = Value> {
    /// The only non-null value counted, while there is exactly one; with
    /// two or more they all live in `by_value`, which stays unallocated
    /// until then.
    only: Option<(K, u64)>,
    by_value: FastHashMap<K, u64>,
    nulls: u64,
}

impl<K: CountKey> Default for ValueCounts<K> {
    fn default() -> Self {
        ValueCounts { only: None, by_value: FastHashMap::default(), nulls: 0 }
    }
}

impl<K: CountKey> ValueCounts<K> {
    /// Counts one occurrence of `v`.
    pub(crate) fn add(&mut self, v: &K) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        match &mut self.only {
            Some((only, n)) if only == v => *n += 1,
            _ => match self.by_value.get_mut(v) {
                Some(n) => *n += 1,
                None => self.count(v.clone(), 1),
            },
        }
    }

    /// Counts `n` occurrences of the non-null `v`.
    fn count(&mut self, v: K, n: u64) {
        if !self.by_value.is_empty() {
            *self.by_value.entry(v).or_insert(0) += n;
            return;
        }
        match self.only.take() {
            None => self.only = Some((v, n)),
            Some((only, m)) if only == v => self.only = Some((only, m + n)),
            Some((only, m)) => {
                self.by_value.insert(only, m);
                self.by_value.insert(v, n);
            }
        }
    }

    /// Uncounts one occurrence of `v`, which must have been counted.
    pub(crate) fn remove(&mut self, v: &K) {
        if v.is_null() {
            self.nulls -= 1;
        } else if let Some((_, n)) = self.only.as_mut().filter(|(only, _)| only == v) {
            *n -= 1;
            if *n == 0 {
                self.only = None;
            }
        } else if let Some(n) = self.by_value.get_mut(v) {
            *n -= 1;
            if *n == 0 {
                self.by_value.remove(v);
                if self.by_value.len() == 1 {
                    self.only = self.by_value.drain().next();
                }
            }
        } else {
            debug_assert!(false, "removed a value that was never counted");
        }
    }

    /// Adds `src`'s counts to these.
    pub(crate) fn merge(&mut self, src: Self) {
        self.merge_mapped(src, |v| v);
    }

    /// Adds `src`'s counts to these, each of its values renamed by
    /// `rename` — a one-to-one map from `src`'s id space into this one's.
    pub(crate) fn merge_mapped(&mut self, src: Self, rename: impl Fn(K) -> K) {
        self.nulls += src.nulls;
        for (v, n) in src.only.into_iter().chain(src.by_value) {
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

    /// The largest single-value count (0 without a non-null value).
    pub(crate) fn majority(&self) -> u64 {
        self.iter().map(|(_, n)| n).max().unwrap_or(0)
    }

    /// Occurrences of `v` (0 if never counted).
    pub(crate) fn get(&self, v: &K) -> u64 {
        match &self.only {
            Some((only, n)) if only == v => *n,
            Some(_) => 0,
            None => self.by_value.get(v).copied().unwrap_or(0),
        }
    }

    /// The non-null values with their counts, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, u64)> + '_ {
        let only = self.only.iter().map(|(v, n)| (v, *n));
        only.chain(self.by_value.iter().map(|(v, n)| (v, *n)))
    }

    fn is_empty(&self) -> bool {
        self.only.is_none() && self.by_value.is_empty() && self.nulls == 0
    }
}

/// Rows grouped by their valuation of a determining set, each group
/// counting a target value. Every key passed to one table values the same
/// determining set; a row with a null on it has no key (`None`) and joins
/// no group.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupCounts<G: Eq + Hash = Valuation, K: CountKey = Value> {
    groups: FastHashMap<G, ValueCounts<K>>,
}

impl<G: Eq + Hash, K: CountKey> Default for GroupCounts<G, K> {
    fn default() -> Self {
        GroupCounts { groups: FastHashMap::default() }
    }
}

impl<G: Eq + Hash, K: CountKey> GroupCounts<G, K> {
    /// Counts `target` in the group keyed `key`.
    pub(crate) fn add(&mut self, key: Option<G>, target: &K) {
        if let Some(key) = key {
            self.groups.entry(key).or_default().add(target);
        }
    }

    /// Uncounts `target` from the group keyed `key`, where it must have
    /// been counted; a group left without rows is dropped.
    pub(crate) fn remove(&mut self, key: Option<G>, target: &K) {
        let Some(key) = key else {
            return;
        };
        let Some(group) = self.groups.get_mut(&key) else {
            debug_assert!(false, "removed a row that was never grouped");
            return;
        };
        group.remove(target);
        if group.is_empty() {
            self.groups.remove(&key);
        }
    }

    /// Adds `src`'s groups to these.
    pub(crate) fn merge(&mut self, src: Self) {
        self.merge_mapped(src, |key| key, |v| v);
    }

    /// Adds `src`'s groups to these, renaming its keys by `rename_key` and
    /// its target values by `rename` (one-to-one maps from `src`'s id
    /// space into this one's).
    pub(crate) fn merge_mapped(
        &mut self,
        src: Self,
        rename_key: impl Fn(G) -> G,
        rename: impl Fn(K) -> K + Copy,
    ) {
        for (key, counts) in src.groups {
            self.groups.entry(rename_key(key)).or_default().merge_mapped(counts, rename);
        }
    }

    /// Each group's target counts, in no particular order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = &ValueCounts<K>> + '_ {
        self.groups.values()
    }

    /// Each group's key with its target counts, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&G, &ValueCounts<K>)> + '_ {
        self.groups.iter()
    }
}

/// Determining sets up to this size are keyed inline by [`IdGroupCounts`]:
/// TANE's default `max_lhs`, so every mined set is unless mining was
/// configured wider.
pub(crate) const INLINE_LHS: usize = 3;

/// [`GroupCounts`] over interned ids, for one determining set. A set of up
/// to [`INLINE_LHS`] attributes is keyed by an inline array whose unused
/// slots hold [`ValueId::NULL`] (never a real component: a row with a null
/// on the set joins no group), so building a key allocates nothing; a
/// wider set is keyed by a boxed slice.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum IdGroupCounts {
    Inline(GroupCounts<[ValueId; INLINE_LHS], ValueId>),
    Wide(GroupCounts<Box<[ValueId]>, ValueId>),
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
        let id = |a: &AttrId| row[a.index()];
        if attrs.iter().any(|a| id(a).is_null()) {
            return;
        }
        match self {
            IdGroupCounts::Inline(groups) => {
                let mut key = [ValueId::NULL; INLINE_LHS];
                for (slot, a) in key.iter_mut().zip(attrs) {
                    *slot = id(a);
                }
                groups.add(Some(key), &target);
            }
            IdGroupCounts::Wide(groups) => {
                groups.add(Some(attrs.iter().map(id).collect()), &target);
            }
        }
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

    /// Each group's target counts, in no particular order.
    pub(crate) fn groups(&self) -> Box<dyn Iterator<Item = &ValueCounts<ValueId>> + '_> {
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
    fn totals<'a, K: CountKey + 'a>(
        groups: impl Iterator<Item = &'a ValueCounts<K>>,
    ) -> Vec<(u64, u64, u64)> {
        let mut totals: Vec<_> = groups.map(|g| (g.rows(), g.non_null(), g.majority())).collect();
        totals.sort_unstable();
        totals
    }

    /// The group key of `ids` over their first two attributes, or `None`
    /// with a null among them.
    fn key(ids: [u32; 4]) -> Option<[ValueId; 2]> {
        let key = [ValueId(ids[0]), ValueId(ids[1])];
        key.iter().all(|id| !id.is_null()).then_some(key)
    }

    type Tables = (ValueCounts<ValueId>, GroupCounts<[ValueId; 2], ValueId>);

    fn count(rows: impl Iterator<Item = usize>) -> Tables {
        let mut tables = Tables::default();
        for i in rows {
            let (ids, target) = ROWS[i];
            tables.0.add(&ValueId(ids[0]));
            tables.1.add(key(ids), &ValueId(target));
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
        churned.0.add(&ValueId(9));
        churned.0.remove(&ValueId(9));
        churned.1.add(key([9, 9, 0, 0]), &ValueId(9));
        churned.1.remove(key([9, 9, 0, 0]), &ValueId(9));
        assert_eq!(churned, forward);
    }

    #[test]
    fn a_single_value_is_held_inline_however_the_table_got_there() {
        let table = |steps: &[(i64, bool)]| {
            let mut t = ValueCounts::<Value>::default();
            for &(v, add) in steps {
                if add {
                    t.add(&Value::int(v));
                } else {
                    t.remove(&Value::int(v));
                }
            }
            t
        };
        let one = table(&[(1, true), (1, true)]);
        assert!(one.by_value.is_empty());
        assert_eq!((one.non_null(), one.majority(), one.get(&Value::int(1))), (2, 2, 2));
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
        assert_eq!((merged.rows(), merged.majority(), merged.get(&Value::int(3))), (3, 2, 1));
        // Emptied entirely, nulls aside.
        let mut emptied = table(&[(1, true), (1, false)]);
        emptied.add(&Value::Null);
        assert_eq!((emptied.rows(), emptied.non_null(), emptied.iter().count()), (1, 0, 0));
        assert_eq!(emptied.only, None);
    }

    #[test]
    fn groups_count_nulls_as_rows_but_never_as_majority() {
        let mut groups = GroupCounts::<[ValueId; 1], ValueId>::default();
        for (ids, target) in ROWS {
            groups.add(Some([ValueId(ids[0])]), &ValueId(target));
        }
        // Group 1: targets 5, 6, 5, 5, 5; group 7: null, 5, 6.
        assert_eq!(totals(groups.groups()), vec![(3, 2, 1), (5, 5, 4)]);
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
        for attrs in [&[AttrId(0), AttrId(2)][..], &[AttrId(0), AttrId(1), AttrId(2), AttrId(3)]] {
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
}
