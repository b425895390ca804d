//! Row counting shared by drift detection (`drift`: per-attribute value
//! distributions and AFD evidence) and the incremental fold (`stream`:
//! `g3` group counts and NBC co-occurrences) — the one place counts are
//! keyed by value. [`ValueCounts`] counts one attribute's values;
//! [`GroupCounts`] counts a target value per determining-set valuation.
//!
//! An entry exists iff its count is positive, so two tables that counted
//! the same multiset of rows are equal whatever order the adds, removes
//! and merges came in: shard-parallel builds and pass-local probes stay
//! byte-identical at any `QPIAD_THREADS`.

use std::collections::BTreeMap;

use qpiad_db::{AttrId, Tuple, Value};

/// One row's valuation of a determining set. A single-attribute set (every
/// NBC feature, most AFDs) stores its value without a heap allocation. A table is
/// always keyed under one determining set, so its keys share a variant and
/// the derived order is the valuation order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Valuation {
    One(Value),
    Many(Box<[Value]>),
}

impl Valuation {
    /// `t`'s valuation of `attrs`, or `None` if any of them is null.
    fn of(attrs: &[AttrId], t: &Tuple) -> Option<Self> {
        if attrs.iter().any(|a| t.value(*a).is_null()) {
            return None;
        }
        Some(match attrs {
            [a] => Valuation::One(t.value(*a).clone()),
            _ => Valuation::Many(attrs.iter().map(|a| t.value(*a).clone()).collect()),
        })
    }

    fn values(&self) -> &[Value] {
        match self {
            Valuation::One(v) => std::slice::from_ref(v),
            Valuation::Many(vs) => vs,
        }
    }
}

/// Occurrence counts of one attribute's values.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ValueCounts {
    by_value: BTreeMap<Value, u64>,
    nulls: u64,
}

impl ValueCounts {
    /// Counts one occurrence of `v`.
    pub(crate) fn add(&mut self, v: &Value) {
        if v.is_null() {
            self.nulls += 1;
        } else if let Some(n) = self.by_value.get_mut(v) {
            *n += 1;
        } else {
            self.by_value.insert(v.clone(), 1);
        }
    }

    /// Uncounts one occurrence of `v`, which must have been counted.
    pub(crate) fn remove(&mut self, v: &Value) {
        if v.is_null() {
            self.nulls -= 1;
        } else if let Some(n) = self.by_value.get_mut(v) {
            *n -= 1;
            if *n == 0 {
                self.by_value.remove(v);
            }
        } else {
            debug_assert!(false, "removed a value that was never counted");
        }
    }

    /// Adds `src`'s counts to these.
    pub(crate) fn merge(&mut self, src: ValueCounts) {
        self.nulls += src.nulls;
        for (v, n) in src.by_value {
            *self.by_value.entry(v).or_insert(0) += n;
        }
    }

    /// Occurrences counted, nulls included.
    pub(crate) fn rows(&self) -> u64 {
        self.non_null() + self.nulls
    }

    /// Non-null occurrences counted.
    pub(crate) fn non_null(&self) -> u64 {
        self.by_value.values().sum()
    }

    /// The largest single-value count (0 without a non-null value).
    pub(crate) fn majority(&self) -> u64 {
        self.by_value.values().copied().max().unwrap_or(0)
    }

    /// Occurrences of `v` (0 if never counted).
    pub(crate) fn get(&self, v: &Value) -> u64 {
        self.by_value.get(v).copied().unwrap_or(0)
    }

    /// The non-null values with their counts, in value order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Value, u64)> + '_ {
        self.by_value.iter().map(|(v, n)| (v, *n))
    }

    fn is_empty(&self) -> bool {
        self.by_value.is_empty() && self.nulls == 0
    }
}

/// Rows grouped by their valuation of a determining set, each group
/// counting a target value. Every call on one table passes the same
/// determining set; a row with a null on it joins no group.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct GroupCounts {
    groups: BTreeMap<Valuation, ValueCounts>,
}

impl GroupCounts {
    /// Counts `target` in `t`'s group under `attrs`.
    pub(crate) fn add(&mut self, attrs: &[AttrId], t: &Tuple, target: &Value) {
        if let Some(key) = Valuation::of(attrs, t) {
            self.groups.entry(key).or_default().add(target);
        }
    }

    /// Uncounts `target` from `t`'s group under `attrs`, which must have
    /// been counted; a group left without rows is dropped.
    pub(crate) fn remove(&mut self, attrs: &[AttrId], t: &Tuple, target: &Value) {
        let Some(key) = Valuation::of(attrs, t) else {
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
    pub(crate) fn merge(&mut self, src: GroupCounts) {
        for (key, counts) in src.groups {
            self.groups.entry(key).or_default().merge(counts);
        }
    }

    /// Each group's target counts, in valuation order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = &ValueCounts> + '_ {
        self.groups.values()
    }

    /// Each group's valuation with its target counts, in valuation order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[Value], &ValueCounts)> + '_ {
        self.groups
            .iter()
            .map(|(key, counts)| (key.values(), counts))
    }
}
