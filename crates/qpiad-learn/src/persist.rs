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
//!
//! ## Encoding
//!
//! A capture copies no cell: it holds the bundle's own sample relation.
//! [`StatsSnapshot::to_json`] writes the sample's `ids` and `rows` arrays
//! straight off its columnar image, rendering each dictionary value to
//! JSON once and copying that text into every cell that holds it; only the
//! small fields go through `serde`. The bytes are those the `serde` tree of
//! the wire shape renders, field for field.

use std::fmt::Write;

use serde::Deserialize;

use qpiad_db::{AttrId, AttrType, Relation, Schema, Tuple, TupleId, Value};

use crate::knowledge::{MiningConfig, SourceStats};

/// JSON-safe cell representation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, Deserialize)]
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

/// The snapshot as it is written: the sample as aligned `ids` and `rows`
/// arrays. Loading parses this shape.
#[derive(Debug, Deserialize)]
#[cfg_attr(test, derive(serde::Serialize))]
struct Wire {
    relation: String,
    attributes: Vec<(String, bool)>,
    ids: Vec<u32>,
    rows: Vec<Vec<Cell>>,
    smpl_ratio: f64,
    per_inc: f64,
    config: MiningConfig,
}

/// A serializable snapshot of one source's mined knowledge.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Relation name.
    pub relation: String,
    /// Attribute `(name, is_integer)` pairs, in schema order.
    pub attributes: Vec<(String, bool)>,
    /// The sample: the captured bundle's own relation, or the one a parsed
    /// snapshot's rows rebuilt.
    sample: Relation,
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
    /// produced them. The snapshot shares the bundle's sample relation;
    /// nothing is encoded until [`StatsSnapshot::to_json`].
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
            sample: sample.clone(),
            smpl_ratio: stats.selectivity().smpl_ratio(),
            per_inc: stats.selectivity().per_inc(),
            config: config.clone(),
        }
    }

    /// The sample relation stored in the snapshot.
    pub fn sample(&self) -> Relation {
        self.sample.clone()
    }

    /// Re-mines the statistics from the snapshot.
    pub fn restore(&self) -> SourceStats {
        SourceStats::mine_probed(&self.sample, self.smpl_ratio, self.per_inc, &self.config)
    }

    /// Serializes to JSON: the small fields through `serde`, the sample's
    /// `ids` and `rows` straight off its columnar image, each dictionary
    /// value rendered once (see the module docs).
    pub fn to_json(&self) -> String {
        let json = |v: &dyn serde::Serialize| {
            serde_json::to_string(v).expect("snapshot serialization cannot fail")
        };
        let columnar = self.sample.columnar();
        let cells: Vec<String> = columnar
            .dict()
            .values()
            .iter()
            .map(|v| json(&Cell::from(v)))
            .collect();
        let tuples = self.sample.tuples();
        let arity = columnar.arity();
        let mut out = String::new();
        out.push_str("{\"relation\":");
        out.push_str(&json(&self.relation));
        out.push_str(",\"attributes\":");
        out.push_str(&json(&self.attributes));
        out.push_str(",\"ids\":[");
        for (i, t) in tuples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", t.id().0);
        }
        out.push_str("],\"rows\":[");
        for row in 0..tuples.len() {
            if row > 0 {
                out.push(',');
            }
            out.push('[');
            for a in 0..arity {
                if a > 0 {
                    out.push(',');
                }
                out.push_str(&cells[columnar.vid_at(row, AttrId(a)).index()]);
            }
            out.push(']');
        }
        out.push_str("],\"smpl_ratio\":");
        out.push_str(&json(&self.smpl_ratio));
        out.push_str(",\"per_inc\":");
        out.push_str(&json(&self.per_inc));
        out.push_str(",\"config\":");
        out.push_str(&json(&self.config));
        out.push('}');
        out
    }

    /// Parses a snapshot from JSON.
    pub fn from_json(json: &str) -> Result<Self, PersistError> {
        let wire: Wire =
            serde_json::from_str(json).map_err(|e| PersistError::Malformed(e.to_string()))?;
        for (i, row) in wire.rows.iter().enumerate() {
            if row.len() != wire.attributes.len() {
                return Err(PersistError::Malformed(format!(
                    "row {i} has {} cells, schema has {} attributes",
                    row.len(),
                    wire.attributes.len()
                )));
            }
            for (j, ((name, is_int), cell)) in wire.attributes.iter().zip(row).enumerate() {
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
        if wire.ids.len() != wire.rows.len() {
            return Err(PersistError::Malformed(format!(
                "{} ids for {} rows",
                wire.ids.len(),
                wire.rows.len()
            )));
        }
        // SelectivityEstimator asserts these invariants; reject here so a
        // doctored snapshot fails classification instead of panicking in
        // `restore`.
        if !(wire.smpl_ratio.is_finite() && wire.smpl_ratio > 0.0) {
            return Err(PersistError::Malformed(format!(
                "SmplRatio must be finite and positive, got {}",
                wire.smpl_ratio
            )));
        }
        if !(wire.per_inc.is_finite() && (0.0..=1.0).contains(&wire.per_inc)) {
            return Err(PersistError::Malformed(format!(
                "PerInc must lie in [0, 1], got {}",
                wire.per_inc
            )));
        }
        // `Schema::new` asserts distinct names.
        for (i, (name, _)) in wire.attributes.iter().enumerate() {
            if wire.attributes[..i].iter().any(|(seen, _)| seen == name) {
                return Err(PersistError::Malformed(format!(
                    "attribute `{name}` is declared twice"
                )));
            }
        }
        let schema = Schema::new(
            wire.relation.clone(),
            wire.attributes
                .iter()
                .map(|(name, is_int)| {
                    let ty = if *is_int {
                        AttrType::Integer
                    } else {
                        AttrType::Categorical
                    };
                    qpiad_db::Attribute::new(name.clone(), ty)
                })
                .collect(),
        );
        let tuples = wire
            .ids
            .iter()
            .zip(&wire.rows)
            .map(|(id, row)| Tuple::new(TupleId(*id), row.iter().map(Value::from).collect()))
            .collect();
        Ok(StatsSnapshot {
            relation: wire.relation,
            attributes: wire.attributes,
            sample: Relation::new(schema, tuples),
            smpl_ratio: wire.smpl_ratio,
            per_inc: wire.per_inc,
            config: wire.config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;

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

    /// `snapshot`'s wire form, to doctor before rendering it again.
    fn wire(snapshot: &StatsSnapshot) -> Wire {
        serde_json::from_str(&snapshot.to_json()).unwrap()
    }

    /// Renders a doctored wire form.
    fn render(wire: &Wire) -> String {
        serde_json::to_string(wire).unwrap()
    }

    #[test]
    fn row_arity_is_validated() {
        let (_, stats, config) = mined();
        let mut bad = wire(&StatsSnapshot::capture(&stats, &config));
        bad.rows[0].pop();
        assert!(matches!(
            StatsSnapshot::from_json(&render(&bad)),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn cell_types_must_match_declared_attributes() {
        let (_, stats, config) = mined();
        let snapshot = wire(&StatsSnapshot::capture(&stats, &config));
        let year = snapshot
            .attributes
            .iter()
            .position(|(name, is_int)| name == "year" && *is_int)
            .expect("cars schema has an integer `year`");
        let make = snapshot
            .attributes
            .iter()
            .position(|(name, is_int)| name == "make" && !*is_int)
            .expect("cars schema has a categorical `make`");
        let doctored = |cells: [(usize, Cell); 2]| {
            let mut bad = wire(&StatsSnapshot::capture(&stats, &config));
            for (a, cell) in cells {
                bad.rows[0][a] = cell;
            }
            StatsSnapshot::from_json(&render(&bad))
        };

        // A string cell smuggled into an integer column is rejected...
        let year_text = (year, Cell::Str("not a year".into()));
        assert!(matches!(
            doctored([year_text, (make, Cell::Null(()))]),
            Err(PersistError::Malformed(_))
        ));
        // ...and so is an integer cell in a categorical column.
        assert!(matches!(
            doctored([(year, Cell::Null(())), (make, Cell::Int(7))]),
            Err(PersistError::Malformed(_))
        ));
        // Nulls are fine anywhere.
        assert!(doctored([(year, Cell::Null(())), (make, Cell::Null(()))]).is_ok());
    }

    #[test]
    fn duplicate_attribute_names_are_malformed() {
        let (_, stats, config) = mined();
        let mut bad = wire(&StatsSnapshot::capture(&stats, &config));
        bad.attributes[1].0 = bad.attributes[0].0.clone();
        assert!(matches!(
            StatsSnapshot::from_json(&render(&bad)),
            Err(PersistError::Malformed(_))
        ));
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

    /// The serde-tree encoding the format was defined by: the wire shape
    /// built cell by cell from the sample's tuples, rendered through the
    /// JSON tree. Kept as the reference [`StatsSnapshot::to_json`] must
    /// reproduce byte for byte.
    fn tree_json(snapshot: &StatsSnapshot) -> String {
        let tuples = snapshot.sample.tuples();
        render(&Wire {
            relation: snapshot.relation.clone(),
            attributes: snapshot.attributes.clone(),
            ids: tuples.iter().map(|t| t.id().0).collect(),
            rows: tuples
                .iter()
                .map(|t| t.values().iter().map(Cell::from).collect())
                .collect(),
            smpl_ratio: snapshot.smpl_ratio,
            per_inc: snapshot.per_inc,
            config: snapshot.config.clone(),
        })
    }

    #[test]
    fn encoder_writes_the_serde_tree_bytes_of_a_mined_and_a_folded_sample() {
        let (ed, stats, config) = mined();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        assert_eq!(snapshot.to_json(), tree_json(&snapshot));
        // A folded sample's extended image holds values no row holds any
        // more; they are never written.
        let fresh: Vec<Tuple> = ed.tuples().iter().step_by(7).cloned().collect();
        let fresh = Relation::new(ed.schema().clone(), fresh);
        let folded = match stats.fold(&fresh, &config, 2.0).unwrap() {
            crate::knowledge::FoldOutcome::Folded { stats, .. } => stats,
            other => panic!("bound 2.0 always folds: {other:?}"),
        };
        let snapshot = StatsSnapshot::capture(&folded, &config);
        assert_eq!(snapshot.to_json(), tree_json(&snapshot));
    }

    /// Characters JSON must escape or carry through untouched: quotes,
    /// backslashes, control characters, non-ASCII text.
    const HOSTILE: [char; 14] = [
        'a', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '\u{1f}', '\u{7f}', 'é', '日', '😀',
    ];

    fn hostile_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..HOSTILE.len(), 0..6)
            .prop_map(|chars| chars.into_iter().map(|i| HOSTILE[i]).collect())
    }

    fn hostile_int() -> impl Strategy<Value = i64> {
        prop_oneof![
            -5i64..5,
            any::<i64>(),
            Just(i64::MIN),
            Just(i64::MAX),
            Just((1i64 << 53) - 1),
            Just(1i64 << 53),
            Just((1i64 << 53) + 1),
            Just(-(1i64 << 53) - 1),
        ]
    }

    fn hostile_row() -> impl Strategy<Value = (u32, Value, Value, Value)> {
        let text = prop_oneof![
            3 => hostile_text().prop_map(Value::str),
            1 => Just(Value::Null),
        ];
        let int = prop_oneof![3 => hostile_int().prop_map(Value::int), 1 => Just(Value::Null)];
        (any::<u32>(), text.clone(), int, text)
    }

    /// An integral or a fractional ratio.
    fn ratio() -> impl Strategy<Value = f64> {
        prop_oneof![
            (1u32..2_000).prop_map(f64::from),
            0.0001f64..50.0,
            Just(0.1),
            Just(1.0),
        ]
    }

    fn hostile_relation(rows: Vec<(u32, Value, Value, Value)>) -> Relation {
        let schema = Schema::of(
            "t\"\\é",
            &[
                ("a\n", AttrType::Categorical),
                ("b", AttrType::Integer),
                ("c日", AttrType::Categorical),
            ],
        );
        let tuples = rows
            .into_iter()
            .map(|(id, a, b, c)| Tuple::new(TupleId(id), vec![a, b, c]))
            .collect();
        Relation::new(schema, tuples)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The encoder writes the serde tree's bytes, for a sample built
        /// afresh and for its extension by replaced and appended rows
        /// (whose dictionary keeps values no row holds), and the bytes
        /// parse back to a snapshot that writes them again.
        #[test]
        fn encoder_writes_the_serde_tree_bytes(
            rows in proptest::collection::vec(hostile_row(), 0..10),
            replaced in proptest::collection::vec((0usize..10, hostile_row()), 0..4),
            appended in proptest::collection::vec(hostile_row(), 0..4),
            smpl_ratio in ratio(),
            per_inc in prop_oneof![0.0f64..1.0, Just(0.0), Just(1.0), Just(0.5)],
        ) {
            let base = hostile_relation(rows);
            let replaced: Vec<(usize, Tuple)> = replaced
                .into_iter()
                .filter(|(row, _)| *row < base.len())
                .map(|(row, cells)| (row, hostile_relation(vec![cells]).tuples()[0].clone()))
                .collect();
            let appended = hostile_relation(appended).tuples().to_vec();
            let extended = base.extended(&replaced, &appended);
            for sample in [base, extended] {
                let snapshot = StatsSnapshot {
                    relation: sample.schema().name().to_string(),
                    attributes: sample
                        .schema()
                        .attributes()
                        .iter()
                        .map(|a| (a.name().to_string(), a.ty() == AttrType::Integer))
                        .collect(),
                    sample,
                    smpl_ratio,
                    per_inc,
                    config: MiningConfig::default(),
                };
                let json = snapshot.to_json();
                prop_assert_eq!(&json, &tree_json(&snapshot));
                // Integers past 2^53 pass through an f64 on the way out, so
                // the parsed sample may differ; its bytes may not.
                let parsed = StatsSnapshot::from_json(&json).unwrap();
                prop_assert_eq!(parsed.to_json(), json);
            }
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
    }
}
