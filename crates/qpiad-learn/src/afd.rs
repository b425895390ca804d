//! Approximate functional dependencies, approximate keys, and the paper's
//! AKey-based pruning rule (§5.1).

use std::collections::HashMap;
use std::fmt;

use qpiad_db::{AttrId, Schema};

/// An approximate functional dependency `X ⇝ A` with confidence
/// `1 − g3(X → A)` (Definition 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Afd {
    /// The determining set `X = dtrSet(A)`, sorted.
    pub lhs: Vec<AttrId>,
    /// The determined attribute `A`.
    pub rhs: AttrId,
    /// `1 − g3`.
    pub confidence: f64,
}

impl Afd {
    /// Creates an AFD, normalizing the determining set order.
    pub fn new(mut lhs: Vec<AttrId>, rhs: AttrId, confidence: f64) -> Self {
        lhs.sort_unstable();
        debug_assert!(!lhs.contains(&rhs), "rhs may not appear in lhs");
        Afd {
            lhs,
            rhs,
            confidence,
        }
    }

    /// Renders the AFD against a schema, e.g. `{Model} ⇝ Body Style (0.88)`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Afd, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{{")?;
                for (i, a) in self.0.lhs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    f.write_str(self.1.attr(*a).name())?;
                }
                write!(
                    f,
                    "}} ⇝ {} ({:.3})",
                    self.1.attr(self.0.rhs).name(),
                    self.0.confidence
                )
            }
        }
        D(self, schema)
    }
}

/// An approximate key `X` with confidence `1 − g3_key(X)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AKey {
    /// The key attributes, sorted.
    pub attrs: Vec<AttrId>,
    /// `1 − g3_key`.
    pub confidence: f64,
}

impl AKey {
    /// Creates an AKey, normalizing attribute order.
    pub fn new(mut attrs: Vec<AttrId>, confidence: f64) -> Self {
        attrs.sort_unstable();
        AKey { attrs, confidence }
    }
}

/// The mined AFDs of one source, indexed by determined attribute.
#[derive(Debug, Clone, Default)]
pub struct AfdSet {
    by_rhs: HashMap<AttrId, Vec<Afd>>,
}

impl AfdSet {
    /// Builds the set from a list of AFDs; per attribute, AFDs are kept in
    /// decreasing confidence order (ties broken towards smaller determining
    /// sets).
    pub fn new(afds: Vec<Afd>) -> Self {
        let mut by_rhs: HashMap<AttrId, Vec<Afd>> = HashMap::new();
        for afd in afds {
            by_rhs.entry(afd.rhs).or_default().push(afd);
        }
        for list in by_rhs.values_mut() {
            list.sort_by(|a, b| {
                b.confidence
                    .total_cmp(&a.confidence)
                    .then_with(|| a.lhs.len().cmp(&b.lhs.len()))
            });
        }
        AfdSet { by_rhs }
    }

    /// All AFDs determining `attr`, best first.
    pub fn for_attr(&self, attr: AttrId) -> &[Afd] {
        self.by_rhs.get(&attr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The highest-confidence AFD determining `attr`.
    pub fn best(&self, attr: AttrId) -> Option<&Afd> {
        self.for_attr(attr).first()
    }

    /// Total number of AFDs.
    pub fn len(&self) -> usize {
        self.by_rhs.values().map(Vec::len).sum()
    }

    /// `true` iff no AFDs were mined.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all AFDs.
    pub fn iter(&self) -> impl Iterator<Item = &Afd> {
        self.by_rhs.values().flatten()
    }
}

/// The paper's AKey pruning rule (§5.1): an AFD whose determining set is
/// (a superset of) a high-confidence approximate key is useless for
/// prediction — its determining-set values are mostly unique, so no other
/// tuple shares them. Prune an AFD when `conf(AFD) − conf(AKey(lhs)) < δ`
/// and the determining set is itself an approximate key with confidence at
/// least `akey_min_conf`.
///
/// `akey_conf_of` must return the AKey confidence of an attribute set
/// (`1 − g3_key`); by monotonicity, the best AKey contained in `lhs` is
/// `lhs` itself, so a single lookup suffices.
pub fn prune_afds(
    afds: Vec<Afd>,
    akey_conf_of: impl Fn(&[AttrId]) -> f64,
    delta: f64,
    akey_min_conf: f64,
) -> Vec<Afd> {
    afds.into_iter()
        .filter(|afd| {
            let key_conf = akey_conf_of(&afd.lhs);
            key_conf < akey_min_conf || afd.confidence - key_conf >= delta
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::AttrType;

    #[test]
    fn afd_normalizes_lhs() {
        let afd = Afd::new(vec![AttrId(3), AttrId(1)], AttrId(0), 0.9);
        assert_eq!(afd.lhs, vec![AttrId(1), AttrId(3)]);
    }

    #[test]
    fn afd_set_orders_by_confidence_then_size() {
        let set = AfdSet::new(vec![
            Afd::new(vec![AttrId(1)], AttrId(0), 0.8),
            Afd::new(vec![AttrId(2)], AttrId(0), 0.95),
            Afd::new(vec![AttrId(1), AttrId(2)], AttrId(0), 0.95),
            Afd::new(vec![AttrId(3)], AttrId(4), 0.5),
        ]);
        let best = set.best(AttrId(0)).unwrap();
        assert_eq!(best.lhs, vec![AttrId(2)]); // smaller set wins the tie
        assert_eq!(set.for_attr(AttrId(0)).len(), 3);
        assert_eq!(set.for_attr(AttrId(4)).len(), 1);
        assert!(set.for_attr(AttrId(9)).is_empty());
        assert!(set.best(AttrId(9)).is_none());
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn pruning_follows_paper_example() {
        // Paper §5.1: AFD {A1,A2} ⇝ A3 with confidence 0.97 and AKey {A1}
        // with confidence 0.95 → pruned (0.97 − 0.95 = 0.02 < δ = 0.3).
        let afd = Afd::new(vec![AttrId(1), AttrId(2)], AttrId(3), 0.97);
        let keep = Afd::new(vec![AttrId(4)], AttrId(3), 0.90);
        let akey_conf = |lhs: &[AttrId]| {
            if lhs.contains(&AttrId(1)) {
                0.96 // {A1,A2} ⊇ {A1}: at least the subset's confidence
            } else {
                0.10
            }
        };
        let pruned = prune_afds(vec![afd, keep.clone()], akey_conf, 0.3, 0.8);
        assert_eq!(pruned, vec![keep]);
    }

    #[test]
    fn pruning_requires_high_akey_confidence() {
        // Low-confidence "keys" do not trigger pruning even if the
        // difference is small.
        let afd = Afd::new(vec![AttrId(1)], AttrId(2), 0.4);
        let pruned = prune_afds(vec![afd.clone()], |_| 0.3, 0.3, 0.8);
        assert_eq!(pruned, vec![afd]);
    }

    #[test]
    fn display_uses_names() {
        let schema = Schema::of(
            "cars",
            &[
                ("make", AttrType::Categorical),
                ("model", AttrType::Categorical),
                ("body_style", AttrType::Categorical),
            ],
        );
        let afd = Afd::new(
            vec![schema.expect_attr("model")],
            schema.expect_attr("body_style"),
            0.883,
        );
        assert_eq!(
            afd.display(&schema).to_string(),
            "{model} ⇝ body_style (0.883)"
        );
    }
}
