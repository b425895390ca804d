//! Stripped partitions and the `g3` error measure.
//!
//! TANE represents the equivalence classes a set of attributes induces over
//! the rows of a relation as a *stripped partition*: the list of classes
//! with at least two rows (singleton classes carry no dependency
//! information). Partition *products* compute `Π_{X∪Y}` from `Π_X` and a
//! row→class lookup for `Y`.
//!
//! Null handling: a null value matches nothing, including other nulls, so a
//! row with a null on any partitioning attribute forms a singleton class
//! and is stripped. This prevents missing values in the mediator's sample
//! from manufacturing spurious dependencies.

use std::collections::HashMap;

use qpiad_db::{AttrId, Relation};

/// Sentinel class id for rows excluded from a partition (null values).
pub const NO_CLASS: u32 = u32::MAX;

/// A stripped partition of row indices `0..n_rows`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippedPartition {
    n_rows: usize,
    classes: Vec<Vec<u32>>,
}

impl StrippedPartition {
    /// Builds the partition induced by a single attribute's column.
    ///
    /// Rows with null values become (stripped) singletons. Grouping runs
    /// over the relation's interned column — rows bucket by dense value id,
    /// no value hashing — with the same output as value-keyed grouping
    /// (classes ascending within, sorted by first row).
    pub fn from_column(relation: &Relation, attr: AttrId) -> Self {
        let columnar = relation.columnar();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); columnar.dict().len()];
        for (row, vid) in columnar.column(attr).iter().enumerate() {
            if vid.is_null() {
                continue;
            }
            buckets[vid.index()].push(row as u32);
        }
        let mut classes: Vec<Vec<u32>> = buckets.into_iter().filter(|c| c.len() >= 2).collect();
        classes.sort_by_key(|c| c[0]);
        StrippedPartition {
            n_rows: relation.len(),
            classes,
        }
    }

    /// Builds a partition directly from classes (test helper).
    pub fn from_classes(n_rows: usize, mut classes: Vec<Vec<u32>>) -> Self {
        classes.retain(|c| c.len() >= 2);
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort_by_key(|c| c[0]);
        StrippedPartition { n_rows, classes }
    }

    /// Number of rows in the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The non-singleton classes.
    pub fn classes(&self) -> &[Vec<u32>] {
        &self.classes
    }

    /// Total rows covered by non-singleton classes (`||Π||` in TANE).
    pub fn covered_rows(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Number of equivalence classes *including* implicit singletons.
    ///
    /// Rows excluded for nulls count as singletons too, which is consistent
    /// with the null-matches-nothing convention.
    pub fn class_count(&self) -> usize {
        self.n_rows - self.covered_rows() + self.classes.len()
    }

    /// A row→class-id lookup table; [`NO_CLASS`] marks stripped rows.
    pub fn lookup(&self) -> Vec<u32> {
        let mut table = vec![NO_CLASS; self.n_rows];
        for (cid, class) in self.classes.iter().enumerate() {
            for &row in class {
                table[row as usize] = cid as u32;
            }
        }
        table
    }

    /// Partition product `Π_{X∪Y}` from `Π_X` (self) and `Π_Y` (via its
    /// lookup table). Rows stripped in either operand stay stripped.
    pub fn product(&self, other_lookup: &[u32]) -> StrippedPartition {
        debug_assert_eq!(self.n_rows, other_lookup.len());
        let mut classes: Vec<Vec<u32>> = Vec::new();
        let mut sub: HashMap<u32, Vec<u32>> = HashMap::new();
        for class in &self.classes {
            sub.clear();
            for &row in class {
                let other = other_lookup[row as usize];
                if other == NO_CLASS {
                    continue;
                }
                sub.entry(other).or_default().push(row);
            }
            for (_, rows) in sub.drain() {
                if rows.len() >= 2 {
                    classes.push(rows);
                }
            }
        }
        classes.sort_by_key(|c| c[0]);
        StrippedPartition {
            n_rows: self.n_rows,
            classes,
        }
    }

    /// The `g3` error of the dependency `X → A`, where `self` is `Π_X` and
    /// `target_lookup` maps rows to `A`-classes: the minimum fraction of
    /// rows to remove so the dependency holds exactly.
    ///
    /// Within each `X`-class, all rows except those in the majority
    /// `A`-class must be removed; rows with a null `A` (no class) never
    /// agree with anything and count as removals.
    pub fn g3_error(&self, target_lookup: &[u32]) -> f64 {
        debug_assert_eq!(self.n_rows, target_lookup.len());
        if self.n_rows == 0 {
            return 0.0;
        }
        let mut removals = 0usize;
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for class in &self.classes {
            counts.clear();
            let mut nulls = 0usize;
            for &row in class {
                let t = target_lookup[row as usize];
                if t == NO_CLASS {
                    nulls += 1;
                } else {
                    *counts.entry(t).or_default() += 1;
                }
            }
            // Keep the majority A-class; if the whole class is null on A,
            // one row may stay.
            let majority = counts.values().copied().max().unwrap_or(0);
            let keep = majority.max(usize::from(nulls > 0 && majority == 0));
            removals += class.len() - keep;
        }
        removals as f64 / self.n_rows as f64
    }

    /// The `g3` error of `X` as a key: fraction of rows to remove so every
    /// `X`-value is unique.
    pub fn g3_key_error(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let dups: usize = self.classes.iter().map(|c| c.len() - 1).sum();
        dups as f64 / self.n_rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrType, Schema, Tuple, TupleId, Value};

    fn relation(rows: &[(&str, &str)]) -> Relation {
        let schema = Schema::of(
            "t",
            &[("x", AttrType::Categorical), ("y", AttrType::Categorical)],
        );
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(i, (x, y))| {
                let mk = |s: &str| {
                    if s == "-" {
                        Value::Null
                    } else {
                        Value::str(s)
                    }
                };
                Tuple::new(TupleId(i as u32), vec![mk(x), mk(y)])
            })
            .collect();
        Relation::new(schema, tuples)
    }

    #[test]
    fn from_column_groups_equal_values() {
        let r = relation(&[("a", "1"), ("a", "1"), ("b", "2"), ("a", "3"), ("c", "4")]);
        let p = StrippedPartition::from_column(&r, AttrId(0));
        // Only the class {0,1,3} (value "a") survives stripping.
        assert_eq!(p.classes(), &[vec![0, 1, 3]]);
        assert_eq!(p.covered_rows(), 3);
        assert_eq!(p.class_count(), 3); // {a}, {b}, {c}
    }

    #[test]
    fn nulls_are_stripped_singletons() {
        let r = relation(&[("a", "1"), ("-", "1"), ("-", "2"), ("a", "3")]);
        let p = StrippedPartition::from_column(&r, AttrId(0));
        assert_eq!(p.classes(), &[vec![0, 3]]);
        // Nulls count as singleton classes.
        assert_eq!(p.class_count(), 3);
    }

    #[test]
    fn lookup_marks_stripped_rows() {
        let r = relation(&[("a", "1"), ("b", "1"), ("a", "2")]);
        let p = StrippedPartition::from_column(&r, AttrId(0));
        let lk = p.lookup();
        assert_eq!(lk[0], lk[2]);
        assert_eq!(lk[1], NO_CLASS);
    }

    #[test]
    fn product_refines() {
        // X = a,a,a,b,b ; Y = 1,1,2,1,1 → X∪Y classes: {0,1},{3,4}
        let r = relation(&[("a", "1"), ("a", "1"), ("a", "2"), ("b", "1"), ("b", "1")]);
        let px = StrippedPartition::from_column(&r, AttrId(0));
        let py = StrippedPartition::from_column(&r, AttrId(1));
        let pxy = px.product(&py.lookup());
        assert_eq!(pxy.classes(), &[vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn product_with_all_singletons_is_empty() {
        let r = relation(&[("a", "1"), ("a", "2"), ("a", "3")]);
        let px = StrippedPartition::from_column(&r, AttrId(0));
        let py = StrippedPartition::from_column(&r, AttrId(1));
        let pxy = px.product(&py.lookup());
        assert!(pxy.classes().is_empty());
        assert_eq!(pxy.class_count(), 3);
    }

    #[test]
    fn g3_exact_dependency_has_zero_error() {
        // X → Y holds exactly.
        let r = relation(&[("a", "1"), ("a", "1"), ("b", "2"), ("b", "2")]);
        let px = StrippedPartition::from_column(&r, AttrId(0));
        let py = StrippedPartition::from_column(&r, AttrId(1));
        assert_eq!(px.g3_error(&py.lookup()), 0.0);
    }

    #[test]
    fn g3_counts_minority_rows() {
        // X=a rows have Y values 1,1,2 → one removal out of 5 rows.
        let r = relation(&[("a", "1"), ("a", "1"), ("a", "2"), ("b", "3"), ("b", "3")]);
        let px = StrippedPartition::from_column(&r, AttrId(0));
        let py = StrippedPartition::from_column(&r, AttrId(1));
        assert!((px.g3_error(&py.lookup()) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn g3_treats_null_targets_as_removals() {
        // X=a rows: Y = 1, 1, null → the null row must be removed.
        let r = relation(&[("a", "1"), ("a", "1"), ("a", "-"), ("b", "2"), ("b", "2")]);
        let px = StrippedPartition::from_column(&r, AttrId(0));
        let py = StrippedPartition::from_column(&r, AttrId(1));
        assert!((px.g3_error(&py.lookup()) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn g3_key_error() {
        let r = relation(&[("a", "1"), ("a", "1"), ("b", "2"), ("c", "2")]);
        let p = StrippedPartition::from_column(&r, AttrId(0));
        // Value "a" appears twice: 1 removal / 4 rows.
        assert!((p.g3_key_error() - 0.25).abs() < 1e-12);
        // Unique column: key error 0.
        let py = StrippedPartition::from_classes(4, vec![]);
        assert_eq!(py.g3_key_error(), 0.0);
    }

    #[test]
    fn g3_error_monotone_under_refinement() {
        // Adding attributes to the lhs can only shrink classes and thus the
        // error: verify on a fixture.
        let r = relation(&[
            ("a", "1"),
            ("a", "2"),
            ("a", "1"),
            ("b", "1"),
            ("b", "1"),
            ("b", "2"),
        ]);
        let px = StrippedPartition::from_column(&r, AttrId(0));
        let py = StrippedPartition::from_column(&r, AttrId(1));
        let lk = py.lookup();
        let e_x = px.g3_error(&lk);
        let pxy = px.product(&lk);
        let e_xy = pxy.g3_error(&lk);
        assert!(e_xy <= e_x);
    }
}
