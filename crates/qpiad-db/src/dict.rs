//! Per-relation value interning.
//!
//! A [`Dictionary`] maps each distinct [`Value`] appearing anywhere in a
//! relation to a dense [`ValueId`]. Id 0 is reserved for null, so columnar
//! storage and posting lists can treat "missing" as just another id without
//! ever hashing or comparing a [`Value`] on the hot path.

use crate::hash::FastHashMap;

use crate::value::Value;

/// Dense identifier of a distinct value within one relation's [`Dictionary`].
///
/// Id 0 is reserved for null; every non-null distinct value gets the next
/// free id in first-appearance order (row-major over the relation), which
/// keeps interning deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The reserved id for null.
    pub const NULL: ValueId = ValueId(0);

    /// `true` iff this is the reserved null id.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interning table: distinct values ↔ dense ids, null fixed at id 0.
#[derive(Debug, Clone)]
pub struct Dictionary {
    /// `values[id]` resolves an id back to its value; `values[0]` is null.
    values: Vec<Value>,
    /// Reverse map for non-null values only (null short-circuits to id 0).
    by_value: FastHashMap<Value, ValueId>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary::new()
    }
}

impl Dictionary {
    /// A dictionary holding only the reserved null id.
    pub fn new() -> Self {
        Dictionary {
            values: vec![Value::Null],
            by_value: FastHashMap::default(),
        }
    }

    /// Interns a value, returning its id (allocating the next dense id for
    /// a first appearance). Null always maps to [`ValueId::NULL`].
    pub fn intern(&mut self, v: &Value) -> ValueId {
        if v.is_null() {
            return ValueId::NULL;
        }
        if let Some(&id) = self.by_value.get(v) {
            return id;
        }
        let id = ValueId(self.values.len() as u32);
        self.values.push(v.clone());
        self.by_value.insert(v.clone(), id);
        id
    }

    /// The id of a value, if it was interned. Null resolves to
    /// [`ValueId::NULL`]; an unseen non-null value resolves to `None` (it
    /// cannot match any stored row).
    pub fn lookup(&self, v: &Value) -> Option<ValueId> {
        if v.is_null() {
            Some(ValueId::NULL)
        } else {
            self.by_value.get(v).copied()
        }
    }

    /// Resolves an id back to its value.
    ///
    /// # Panics
    ///
    /// Panics if the id was not allocated by this dictionary.
    pub fn resolve(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Number of allocated ids, *including* the reserved null id.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` iff no non-null value has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.len() == 1
    }

    /// All allocated ids' values, in id order (`[0]` is null).
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_id_zero() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern(&Value::Null), ValueId::NULL);
        assert!(d.intern(&Value::Null).is_null());
        assert_eq!(d.lookup(&Value::Null), Some(ValueId::NULL));
        assert!(d.resolve(ValueId::NULL).is_null());
        assert!(d.is_empty());
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut d = Dictionary::new();
        let a = d.intern(&Value::str("a"));
        let b = d.intern(&Value::int(7));
        assert_eq!(a, ValueId(1));
        assert_eq!(b, ValueId(2));
        assert_eq!(d.intern(&Value::str("a")), a);
        assert_eq!(d.len(), 3);
        assert_eq!(d.resolve(a), &Value::str("a"));
        assert_eq!(d.resolve(b), &Value::int(7));
    }

    #[test]
    fn unseen_values_do_not_resolve() {
        let mut d = Dictionary::new();
        d.intern(&Value::str("a"));
        assert_eq!(d.lookup(&Value::str("zzz")), None);
        assert_eq!(d.lookup(&Value::int(0)), None);
    }
}
