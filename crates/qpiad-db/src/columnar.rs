//! Interned columnar mirror of a [`Relation`](crate::relation::Relation).
//!
//! A [`ColumnarRelation`] stores one dense `Vec<ValueId>` column per
//! attribute against a single relation-wide [`Dictionary`]. It is built once
//! at relation construction and shared (behind an `Arc`) by every clone of
//! the relation, so selection engines, classifiers, and partition refinement
//! can run over `u32` ids instead of hashing `Arc<str>` values.

use crate::dict::{Dictionary, ValueId};
use crate::schema::AttrId;
use crate::tuple::Tuple;

/// Column-major, dictionary-encoded image of a relation's tuples.
#[derive(Debug)]
pub struct ColumnarRelation {
    dict: Dictionary,
    /// One column per attribute; `columns[a][row]` is the interned value of
    /// attribute `a` in row `row` (relation order).
    columns: Vec<Vec<ValueId>>,
    n_rows: usize,
}

impl ColumnarRelation {
    /// Builds the columnar image of `tuples` over `arity` attributes.
    ///
    /// Values are interned row-major, so id assignment (and therefore every
    /// downstream id-ordered structure) is deterministic.
    pub fn build(arity: usize, tuples: &[Tuple]) -> Self {
        let mut dict = Dictionary::new();
        let mut columns: Vec<Vec<ValueId>> = (0..arity)
            .map(|_| Vec::with_capacity(tuples.len()))
            .collect();
        for t in tuples {
            for (col, v) in columns.iter_mut().zip(t.values()) {
                col.push(dict.intern(v));
            }
        }
        ColumnarRelation {
            dict,
            columns,
            n_rows: tuples.len(),
        }
    }

    /// The image of this relation with the rows `replaced` names
    /// overwritten (`(row, tuple)` pairs) and `appended` added after its
    /// last row.
    ///
    /// The dictionary is this image's, extended: every id here names the
    /// same value there, and a delta value this dictionary lacks gets the
    /// next free id, interned row-major over `replaced` then `appended`. A
    /// value only overwritten rows held keeps its id though no row holds
    /// it any more. Each delta cell is interned once; the old columns are
    /// copied, not re-interned.
    ///
    /// # Panics
    ///
    /// Panics if a delta tuple's arity differs from this image's, or a
    /// replaced row is out of range.
    pub fn extended(&self, replaced: &[(usize, Tuple)], appended: &[Tuple]) -> Self {
        let n_rows = self.n_rows + appended.len();
        let mut dict = self.dict.clone();
        let mut columns: Vec<Vec<ValueId>> = self
            .columns
            .iter()
            .map(|old| {
                let mut col = Vec::with_capacity(n_rows);
                col.extend_from_slice(old);
                col
            })
            .collect();
        let arity = columns.len();
        for (row, t) in replaced {
            assert_eq!(t.arity(), arity, "replaced row {row} has the wrong arity");
            for (col, v) in columns.iter_mut().zip(t.values()) {
                col[*row] = dict.intern(v);
            }
        }
        for t in appended {
            assert_eq!(t.arity(), arity, "appended row has the wrong arity");
            for (col, v) in columns.iter_mut().zip(t.values()) {
                col.push(dict.intern(v));
            }
        }
        ColumnarRelation {
            dict,
            columns,
            n_rows,
        }
    }

    /// The relation-wide dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The interned column of one attribute, in relation order.
    pub fn column(&self, attr: AttrId) -> &[ValueId] {
        &self.columns[attr.index()]
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The interned value at (`row`, `attr`).
    pub fn vid_at(&self, row: usize, attr: AttrId) -> ValueId {
        self.columns[attr.index()][row]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleId;
    use crate::value::Value;

    fn tuples() -> Vec<Tuple> {
        vec![
            Tuple::new(TupleId(0), vec![Value::str("a"), Value::int(1)]),
            Tuple::new(TupleId(1), vec![Value::Null, Value::int(1)]),
            Tuple::new(TupleId(2), vec![Value::str("a"), Value::Null]),
        ]
    }

    #[test]
    fn columns_mirror_rows() {
        let c = ColumnarRelation::build(2, &tuples());
        assert_eq!(c.n_rows(), 3);
        assert_eq!(c.arity(), 2);
        // Row-major interning: "a" = 1, 1i64 = 2.
        assert_eq!(
            c.column(AttrId(0)),
            &[ValueId(1), ValueId::NULL, ValueId(1)]
        );
        assert_eq!(
            c.column(AttrId(1)),
            &[ValueId(2), ValueId(2), ValueId::NULL]
        );
        assert_eq!(c.vid_at(2, AttrId(0)), ValueId(1));
    }

    #[test]
    fn every_cell_round_trips_through_the_dictionary() {
        let ts = tuples();
        let c = ColumnarRelation::build(2, &ts);
        for (row, t) in ts.iter().enumerate() {
            for a in 0..2 {
                let vid = c.vid_at(row, AttrId(a));
                assert_eq!(c.dict().resolve(vid), t.value(AttrId(a)));
            }
        }
    }
}
