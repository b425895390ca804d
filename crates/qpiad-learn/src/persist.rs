//! Offline persistence of mined knowledge.
//!
//! The paper's knowledge-mining module runs *off-line* (Figure 1): a real
//! mediator probes each source once, mines, and then serves queries from
//! the cached artifacts. A [`StatsSnapshot`] captures everything needed to
//! rebuild a [`SourceStats`] — the sample itself, the §5.4 estimates
//! (`SmplRatio`, `PerInc`) and the full [`MiningConfig`] — as JSON.
//! Restoring re-runs the (fast, deterministic) mining pipeline, which keeps
//! the serialized format small and version-tolerant: classifiers and AFDs
//! are derived state, never stored.

use serde::{Deserialize, Serialize};

use qpiad_db::{AttrType, Relation, Schema, Tuple, TupleId, Value};

use crate::knowledge::{MiningConfig, SourceStats};

/// JSON-safe cell representation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
enum Cell {
    /// Missing value.
    Null(()),
    /// Integer value.
    Int(i64),
    /// Categorical value.
    Str(String),
}

impl From<&Value> for Cell {
    fn from(v: &Value) -> Self {
        match v {
            Value::Null => Cell::Null(()),
            Value::Int(i) => Cell::Int(*i),
            Value::Str(s) => Cell::Str(s.to_string()),
        }
    }
}

impl From<&Cell> for Value {
    fn from(c: &Cell) -> Self {
        match c {
            Cell::Null(()) => Value::Null,
            Cell::Int(i) => Value::int(*i),
            Cell::Str(s) => Value::str(s),
        }
    }
}

/// A serializable snapshot of one source's mined knowledge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Relation name.
    pub relation: String,
    /// Attribute `(name, is_integer)` pairs, in schema order.
    pub attributes: Vec<(String, bool)>,
    /// Sample tuple ids (aligned with `rows`).
    ids: Vec<u32>,
    /// Sample rows.
    rows: Vec<Vec<Cell>>,
    /// `SmplRatio(R)`.
    pub smpl_ratio: f64,
    /// `PerInc(R)`.
    pub per_inc: f64,
    /// The mining configuration the stats were (re)built with.
    pub config: MiningConfig,
}

/// Why a persisted snapshot could not be used. The load path of the
/// durable store ([`crate::store::KnowledgeStore`]) classifies every
/// failure so the mediator can degrade the affected source instead of
/// aborting: a `Missing` or `Corrupt` snapshot costs that one source its
/// rewriting knowledge (certain answers keep flowing), never the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// No snapshot exists for the requested source.
    Missing,
    /// The on-disk header declares a format version this build does not
    /// read.
    VersionMismatch {
        /// The version found in the header.
        found: u32,
        /// The version this build writes.
        expected: u32,
    },
    /// The payload does not match its recorded checksum (truncation, bit
    /// rot, a torn write), or the header itself is garbled.
    Corrupt(String),
    /// The snapshot parsed but describes a different schema than the
    /// source it was loaded for.
    SchemaMismatch(String),
    /// The JSON did not parse or did not match the snapshot shape.
    Malformed(String),
    /// The volume ran out of space mid-persist. Classified separately from
    /// generic io failures so a maintenance pass can keep the old epoch and
    /// back off instead of treating the store as broken.
    DiskFull(String),
    /// The store path is not writable by this process.
    PermissionDenied(String),
    /// The underlying file operation failed.
    Io(String),
}

impl PersistError {
    /// The stable classification code: `missing`, `version-mismatch`,
    /// `corrupt`, `schema-mismatch`, `malformed`, `disk-full`,
    /// `permission-denied` or `io`.
    pub fn kind(&self) -> &'static str {
        match self {
            PersistError::Missing => "missing",
            PersistError::VersionMismatch { .. } => "version-mismatch",
            PersistError::Corrupt(_) => "corrupt",
            PersistError::SchemaMismatch(_) => "schema-mismatch",
            PersistError::Malformed(_) => "malformed",
            PersistError::DiskFull(_) => "disk-full",
            PersistError::PermissionDenied(_) => "permission-denied",
            PersistError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Missing => f.write_str("no snapshot stored for this source"),
            PersistError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            PersistError::Corrupt(e) => write!(f, "corrupt stats snapshot: {e}"),
            PersistError::SchemaMismatch(e) => write!(f, "snapshot schema mismatch: {e}"),
            PersistError::Malformed(e) => write!(f, "malformed stats snapshot: {e}"),
            PersistError::DiskFull(e) => write!(f, "snapshot volume full: {e}"),
            PersistError::PermissionDenied(e) => {
                write!(f, "snapshot store not writable: {e}")
            }
            PersistError::Io(e) => write!(f, "snapshot io failure: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl StatsSnapshot {
    /// Captures a snapshot from mined statistics and the config that
    /// produced them.
    pub fn capture(stats: &SourceStats, config: &MiningConfig) -> Self {
        let sample = stats.selectivity().sample();
        let schema = sample.schema();
        StatsSnapshot {
            relation: schema.name().to_string(),
            attributes: schema
                .attributes()
                .iter()
                .map(|a| (a.name().to_string(), a.ty() == AttrType::Integer))
                .collect(),
            ids: sample.tuples().iter().map(|t| t.id().0).collect(),
            rows: sample
                .tuples()
                .iter()
                .map(|t| t.values().iter().map(Cell::from).collect())
                .collect(),
            smpl_ratio: stats.selectivity().smpl_ratio(),
            per_inc: stats.selectivity().per_inc(),
            config: config.clone(),
        }
    }

    /// Rebuilds the sample relation stored in the snapshot.
    pub fn sample(&self) -> Relation {
        let schema = Schema::new(
            self.relation.clone(),
            self.attributes
                .iter()
                .map(|(name, is_int)| {
                    qpiad_db::Attribute::new(
                        name.clone(),
                        if *is_int {
                            AttrType::Integer
                        } else {
                            AttrType::Categorical
                        },
                    )
                })
                .collect(),
        );
        let tuples = self
            .ids
            .iter()
            .zip(&self.rows)
            .map(|(id, row)| Tuple::new(TupleId(*id), row.iter().map(Value::from).collect()))
            .collect();
        Relation::new(schema, tuples)
    }

    /// Re-mines the statistics from the snapshot.
    pub fn restore(&self) -> SourceStats {
        SourceStats::mine_probed(&self.sample(), self.smpl_ratio, self.per_inc, &self.config)
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization cannot fail")
    }

    /// Parses a snapshot from JSON.
    pub fn from_json(json: &str) -> Result<Self, PersistError> {
        let snapshot: StatsSnapshot =
            serde_json::from_str(json).map_err(|e| PersistError::Malformed(e.to_string()))?;
        for (i, row) in snapshot.rows.iter().enumerate() {
            if row.len() != snapshot.attributes.len() {
                return Err(PersistError::Malformed(format!(
                    "row {i} has {} cells, schema has {} attributes",
                    row.len(),
                    snapshot.attributes.len()
                )));
            }
            for (j, ((name, is_int), cell)) in snapshot.attributes.iter().zip(row).enumerate() {
                let ok = match cell {
                    Cell::Null(()) => true,
                    Cell::Int(_) => *is_int,
                    Cell::Str(_) => !*is_int,
                };
                if !ok {
                    return Err(PersistError::Malformed(format!(
                        "row {i} cell {j}: value disagrees with `{name}` declared as {}",
                        if *is_int { "integer" } else { "categorical" }
                    )));
                }
            }
        }
        if snapshot.ids.len() != snapshot.rows.len() {
            return Err(PersistError::Malformed(format!(
                "{} ids for {} rows",
                snapshot.ids.len(),
                snapshot.rows.len()
            )));
        }
        // SelectivityEstimator asserts these invariants; reject here so a
        // doctored snapshot fails classification instead of panicking in
        // `restore`.
        if !(snapshot.smpl_ratio.is_finite() && snapshot.smpl_ratio > 0.0) {
            return Err(PersistError::Malformed(format!(
                "SmplRatio must be finite and positive, got {}",
                snapshot.smpl_ratio
            )));
        }
        if !(snapshot.per_inc.is_finite() && (0.0..=1.0).contains(&snapshot.per_inc)) {
            return Err(PersistError::Malformed(format!(
                "PerInc must lie in [0, 1], got {}",
                snapshot.per_inc
            )));
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::AttrId;

    fn mined() -> (Relation, SourceStats, MiningConfig) {
        let ground = CarsConfig::default().with_rows(4_000).generate(71);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 5);
        let config = MiningConfig::default();
        let stats = SourceStats::mine(&sample, ed.len(), &config);
        (ed, stats, config)
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let (_, stats, config) = mined();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        let json = snapshot.to_json();
        let parsed = StatsSnapshot::from_json(&json).unwrap();
        let restored = parsed.restore();

        // The restored stats are functionally identical: same AFDs...
        assert_eq!(restored.afds().len(), stats.afds().len());
        for attr in restored.schema().attr_ids() {
            match (stats.afds().best(attr), restored.afds().best(attr)) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.lhs, b.lhs);
                    assert!((a.confidence - b.confidence).abs() < 1e-12);
                }
                (None, None) => {}
                other => panic!("AFD mismatch for {attr}: {other:?}"),
            }
        }
        // ...same selectivity parameters...
        assert!(
            (restored.selectivity().smpl_ratio() - stats.selectivity().smpl_ratio()).abs() < 1e-12
        );
        assert!((restored.selectivity().per_inc() - stats.selectivity().per_inc()).abs() < 1e-12);
        // ...and identical predictions.
        let body = stats.schema().expect_attr("body_style");
        let sample = stats.selectivity().sample();
        for t in sample.tuples().iter().take(50) {
            let a = stats.predictor().distribution(body, t);
            let b = restored.predictor().distribution(body, t);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0);
                assert!((x.1 - y.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sample_round_trips_exactly() {
        let (_, stats, config) = mined();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        let rebuilt = snapshot.sample();
        let original = stats.selectivity().sample();
        assert_eq!(rebuilt.len(), original.len());
        assert_eq!(rebuilt.tuples(), original.tuples());
        assert_eq!(rebuilt.schema().name(), original.schema().name());
        for a in original.schema().attr_ids() {
            assert_eq!(
                rebuilt.schema().attr(a).ty(),
                original.schema().attr(a).ty()
            );
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(matches!(
            StatsSnapshot::from_json("{not json"),
            Err(PersistError::Malformed(_))
        ));
        assert!(matches!(
            StatsSnapshot::from_json("{\"relation\": 3}"),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn row_arity_is_validated() {
        let (_, stats, config) = mined();
        let mut snapshot = StatsSnapshot::capture(&stats, &config);
        snapshot.rows[0].pop();
        let json = snapshot.to_json();
        assert!(matches!(
            StatsSnapshot::from_json(&json),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn cell_types_must_match_declared_attributes() {
        let (_, stats, config) = mined();
        let snapshot = StatsSnapshot::capture(&stats, &config);

        // A string cell smuggled into an integer column is rejected...
        let mut bad = snapshot.clone();
        let year = bad
            .attributes
            .iter()
            .position(|(name, is_int)| name == "year" && *is_int)
            .expect("cars schema has an integer `year`");
        bad.rows[0][year] = Cell::Str("not a year".into());
        assert!(matches!(
            StatsSnapshot::from_json(&bad.to_json()),
            Err(PersistError::Malformed(_))
        ));

        // ...and so is an integer cell in a categorical column.
        let mut bad = snapshot.clone();
        let make = bad
            .attributes
            .iter()
            .position(|(name, is_int)| name == "make" && !*is_int)
            .expect("cars schema has a categorical `make`");
        bad.rows[0][make] = Cell::Int(7);
        assert!(matches!(
            StatsSnapshot::from_json(&bad.to_json()),
            Err(PersistError::Malformed(_))
        ));

        // Nulls are fine anywhere.
        let mut ok = snapshot.clone();
        ok.rows[0][year] = Cell::Null(());
        ok.rows[0][make] = Cell::Null(());
        assert!(StatsSnapshot::from_json(&ok.to_json()).is_ok());
    }

    #[test]
    fn selectivity_parameters_are_validated() {
        // These fields feed SelectivityEstimator's asserts; out-of-range
        // values must classify as Malformed, not panic during restore().
        let (_, stats, config) = mined();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        for (ratio, inc) in [
            (0.0, 0.3),
            (-1.0, 0.3),
            (f64::NAN, 0.3),
            (0.1, -0.1),
            (0.1, 1.5),
            (0.1, f64::NAN),
        ] {
            let mut bad = snapshot.clone();
            bad.smpl_ratio = ratio;
            bad.per_inc = inc;
            assert!(
                matches!(
                    StatsSnapshot::from_json(&bad.to_json()),
                    Err(PersistError::Malformed(_))
                ),
                "smpl_ratio={ratio} per_inc={inc} must be rejected"
            );
        }
    }

    #[test]
    fn cell_encoding_distinguishes_types() {
        let cells = [
            Cell::from(&Value::Null),
            Cell::from(&Value::int(42)),
            Cell::from(&Value::str("42")),
        ];
        let json = serde_json::to_string(&cells).unwrap();
        let back: Vec<Cell> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cells);
        assert_eq!(Value::from(&back[0]), Value::Null);
        assert_eq!(Value::from(&back[1]), Value::int(42));
        assert_eq!(Value::from(&back[2]), Value::str("42"));
        let _ = AttrId(0); // silence unused import in some cfgs
    }
}
