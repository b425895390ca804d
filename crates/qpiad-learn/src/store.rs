//! Durable, checksummed on-disk storage for mined knowledge.
//!
//! A long-running mediator cannot afford to re-probe every source at
//! startup, so snapshots ([`StatsSnapshot`]) live on disk between runs —
//! one file per source under a store root. Disk is hostile: files get
//! truncated by full volumes, half-written by crashes, edited by hand, or
//! left behind by older builds. The store therefore wraps every payload in
//! a versioned header with an FNV-1a 64 checksum, writes atomically
//! (journal marker + temp file + `rename`), and classifies every load
//! failure as a [`PersistError`] so the caller can degrade the affected
//! source instead of aborting (see
//! `MediatorNetwork::add_supporting_from_store`).
//!
//! ## Crash safety
//!
//! [`KnowledgeStore::save`] follows a journaled protocol: write a
//! `<source>.qks.journal` marker, write the payload to
//! `<source>.qks.tmp`, `rename` the temp file over the final path, then
//! remove the marker. A process killed at *any* point leaves the final
//! path either untouched (the prior snapshot, still loadable) or fully
//! replaced — never partial — and at most two pieces of debris that
//! [`KnowledgeStore::recover`] (run automatically by
//! [`KnowledgeStore::open`]) sweeps away. Failures mid-write clean up
//! after themselves and classify: a full volume is
//! [`PersistError::DiskFull`], an unwritable root is
//! [`PersistError::PermissionDenied`], anything else
//! [`PersistError::Io`]. For chaos tests,
//! [`KnowledgeStore::inject_persist_fault`] arms a one-shot
//! [`PersistFault`] per source — including a simulated
//! kill-before-rename that deliberately leaves the debris a real crash
//! would.
//!
//! ## File format
//!
//! ```text
//! QPIAD-KNOWLEDGE v1 fnv1a64=b7e151628aed2a6a
//! {"relation":"cars","attributes":[...],...}
//! ```
//!
//! Line 1 is the header: a magic string, the format version, and the
//! checksum of every byte after the first newline. The rest is the
//! snapshot JSON. Header checks run in a fixed order — magic, version,
//! checksum, payload shape — so a future-format file reports
//! `VersionMismatch` rather than `Corrupt` even if the payload encoding
//! changed entirely.
//!
//! A save encodes straight from the captured sample's columnar image
//! ([`StatsSnapshot::to_json`]): no cell is copied into the snapshot and
//! no JSON tree is built for the sample, so a save costs the payload's
//! bytes, each dictionary value rendered once. The bytes are exactly
//! those the `serde` tree of the same snapshot renders, so files written
//! before and after load alike.

use std::collections::BTreeMap;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use qpiad_db::Schema;

use crate::persist::{PersistError, StatsSnapshot};

/// The snapshot format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: &str = "QPIAD-KNOWLEDGE";

/// FNV-1a 64-bit over the payload bytes. Not cryptographic — the threat
/// model is truncation and bit rot, not adversaries — but it is stable
/// across platforms and needs no dependency.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes a snapshot into the store's on-disk text format.
pub fn encode_snapshot(snapshot: &StatsSnapshot) -> String {
    let payload = snapshot.to_json();
    let checksum = fnv1a64(payload.as_bytes());
    format!("{MAGIC} v{FORMAT_VERSION} fnv1a64={checksum:016x}\n{payload}")
}

/// Decodes store-format text back into a snapshot, classifying every
/// failure: a garbled or missing header is `Corrupt`, an unknown format
/// version is `VersionMismatch`, a checksum failure is `Corrupt`, and a
/// payload that checksums correctly but does not parse is `Malformed`.
pub fn decode_snapshot(text: &str) -> Result<StatsSnapshot, PersistError> {
    let (header, payload) = text
        .split_once('\n')
        .ok_or_else(|| PersistError::Corrupt("missing header line".into()))?;
    let rest = header
        .strip_prefix(MAGIC)
        .and_then(|r| r.strip_prefix(" v"))
        .ok_or_else(|| PersistError::Corrupt("bad magic in header".into()))?;
    let (version_text, checksum_field) = rest
        .split_once(' ')
        .ok_or_else(|| PersistError::Corrupt("truncated header".into()))?;
    let found = version_text
        .parse::<u32>()
        .map_err(|_| PersistError::Corrupt(format!("unreadable version `{version_text}`")))?;
    if found != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch {
            found,
            expected: FORMAT_VERSION,
        });
    }
    let checksum_hex = checksum_field
        .strip_prefix("fnv1a64=")
        .ok_or_else(|| PersistError::Corrupt("missing checksum field".into()))?;
    let expected = u64::from_str_radix(checksum_hex.trim(), 16)
        .map_err(|_| PersistError::Corrupt(format!("unreadable checksum `{checksum_hex}`")))?;
    let actual = fnv1a64(payload.as_bytes());
    if actual != expected {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch: header says {expected:016x}, payload hashes to {actual:016x}"
        )));
    }
    StatsSnapshot::from_json(payload)
}

/// Checks a decoded snapshot against the schema of the source it was
/// loaded for: attribute names, order, and types must all agree.
fn check_schema(snapshot: &StatsSnapshot, schema: &Schema) -> Result<(), PersistError> {
    let declared: Vec<(String, bool)> = schema
        .attributes()
        .iter()
        .map(|a| (a.name().to_string(), a.ty() == qpiad_db::AttrType::Integer))
        .collect();
    if snapshot.attributes != declared {
        return Err(PersistError::SchemaMismatch(format!(
            "snapshot attributes {:?} != source attributes {:?}",
            snapshot.attributes, declared
        )));
    }
    Ok(())
}

/// Classifies a filesystem error: a full volume and an unwritable path
/// get their own [`PersistError`] kinds so maintenance can react (keep
/// the old epoch, back off) instead of treating the store as broken.
fn classify_io(e: &std::io::Error) -> PersistError {
    // ENOSPC by raw code: `ErrorKind::StorageFull` is not stable on every
    // toolchain this builds with.
    if e.raw_os_error() == Some(28) {
        return PersistError::DiskFull(e.to_string());
    }
    if e.kind() == ErrorKind::PermissionDenied {
        return PersistError::PermissionDenied(e.to_string());
    }
    PersistError::Io(e.to_string())
}

/// A one-shot injected persistence failure, armed per source via
/// [`KnowledgeStore::inject_persist_fault`]. Exists for chaos and
/// lifecycle tests: each variant exercises one rung of the save
/// protocol's failure ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistFault {
    /// The save is refused before any filesystem work — a classified
    /// [`PersistError::Io`], zero debris.
    Refused,
    /// The volume "fills" after the temp write: classified
    /// [`PersistError::DiskFull`], debris cleaned up by the save itself.
    DiskFull,
    /// The process "dies" after writing journal + temp, before the
    /// rename: the prior snapshot stays loadable and the debris is left
    /// on disk exactly as a real kill would leave it, for
    /// [`KnowledgeStore::recover`] to sweep.
    CrashBeforeRename,
}

/// A directory of per-source knowledge snapshots with atomic writes and
/// classified loads.
///
/// Clones share the store root *and* the armed fault set, so a test can
/// hold one handle while the system under test holds another.
#[derive(Debug, Clone)]
pub struct KnowledgeStore {
    root: PathBuf,
    faults: Arc<Mutex<BTreeMap<String, PersistFault>>>,
}

impl KnowledgeStore {
    /// Opens (creating if necessary) a store rooted at `root`, sweeping
    /// any debris a previous crash-mid-persist left behind
    /// ([`KnowledgeStore::recover`]).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| classify_io(&e))?;
        let store = KnowledgeStore {
            root,
            faults: Arc::default(),
        };
        store.recover()?;
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file a source's snapshot lives in. Source names pass through a
    /// conservative sanitizer so `cars.com` and friends stay filesystem-safe.
    pub fn path_for(&self, source: &str) -> PathBuf {
        let safe: String = source
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.root.join(format!("{safe}.qks"))
    }

    /// Whether a snapshot file exists for `source` (it may still fail to
    /// load — existence says nothing about integrity).
    pub fn contains(&self, source: &str) -> bool {
        self.path_for(source).is_file()
    }

    /// Arms a one-shot [`PersistFault`] for the next
    /// [`KnowledgeStore::save`] of `source` (chaos/lifecycle tests only;
    /// re-arming replaces any pending fault).
    pub fn inject_persist_fault(&self, source: &str, fault: PersistFault) {
        self.faults.lock().insert(source.to_string(), fault);
    }

    /// Persists a snapshot atomically under the journaled protocol:
    /// journal marker, temp-sibling write, `rename` over the final path,
    /// journal removal. Readers see either the old complete file or the
    /// new complete file, never a partial write; every failure path
    /// cleans up its own debris and returns a classified error
    /// ([`PersistError::DiskFull`] / [`PersistError::PermissionDenied`] /
    /// [`PersistError::Io`]).
    pub fn save(&self, source: &str, snapshot: &StatsSnapshot) -> Result<PathBuf, PersistError> {
        let fault = self.faults.lock().remove(source);
        if fault == Some(PersistFault::Refused) {
            return Err(PersistError::Io(format!(
                "injected fault: persist refused for `{source}`"
            )));
        }
        let path = self.path_for(source);
        let tmp = path.with_extension("qks.tmp");
        let journal = path.with_extension("qks.journal");
        let text = encode_snapshot(snapshot);
        // 1. Journal marker: a replacement write is in flight. A crash from
        //    here on leaves at most this marker plus the temp sibling —
        //    never a damaged final file.
        fs::write(&journal, format!("pending {source}\n")).map_err(|e| classify_io(&e))?;
        // 2. Full payload to the temp sibling.
        if let Err(e) = fs::write(&tmp, text.as_bytes()) {
            let _ = fs::remove_file(&tmp);
            let _ = fs::remove_file(&journal);
            return Err(classify_io(&e));
        }
        match fault {
            Some(PersistFault::DiskFull) => {
                let _ = fs::remove_file(&tmp);
                let _ = fs::remove_file(&journal);
                return Err(PersistError::DiskFull(format!(
                    "injected fault: volume full while persisting `{source}`"
                )));
            }
            Some(PersistFault::CrashBeforeRename) => {
                // Simulated kill: journal + temp stay on disk, the prior
                // snapshot stays loadable; recover() sweeps the debris.
                return Err(PersistError::Io(format!(
                    "injected fault: crashed before rename for `{source}`"
                )));
            }
            _ => {}
        }
        // 3. Atomic swap.
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            let _ = fs::remove_file(&journal);
            return Err(classify_io(&e));
        }
        // 4. Retire the journal. Best-effort: a marker that outlives a
        //    completed swap is harmless and recover() removes it.
        let _ = fs::remove_file(&journal);
        Ok(path)
    }

    /// Sweeps debris from interrupted saves: every `*.qks.tmp` and
    /// `*.qks.journal` under the root is removed (final `*.qks` files are
    /// never touched). Returns the removed paths in sorted order. Run
    /// automatically by [`KnowledgeStore::open`]; safe to run any time no
    /// save is concurrently in flight.
    pub fn recover(&self) -> Result<Vec<PathBuf>, PersistError> {
        let mut removed = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| classify_io(&e))?;
        for entry in entries {
            let entry = entry.map_err(|e| classify_io(&e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".qks.tmp") || name.ends_with(".qks.journal") {
                let path = entry.path();
                fs::remove_file(&path).map_err(|e| classify_io(&e))?;
                removed.push(path);
            }
        }
        removed.sort();
        Ok(removed)
    }

    /// Loads and fully classifies a source's snapshot.
    pub fn load(&self, source: &str) -> Result<StatsSnapshot, PersistError> {
        let path = self.path_for(source);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == ErrorKind::NotFound => return Err(PersistError::Missing),
            Err(e) => return Err(PersistError::Io(e.to_string())),
        };
        decode_snapshot(&text)
    }

    /// Like [`KnowledgeStore::load`], additionally rejecting snapshots
    /// whose attributes disagree with `schema` as `SchemaMismatch` — the
    /// classification used when a source evolved its export schema under a
    /// store that still holds the old shape.
    pub fn load_for(&self, source: &str, schema: &Schema) -> Result<StatsSnapshot, PersistError> {
        let snapshot = self.load(source)?;
        check_schema(&snapshot, schema)?;
        Ok(snapshot)
    }

    /// Removes a source's snapshot; removing a missing snapshot is not an
    /// error.
    pub fn remove(&self, source: &str) -> Result<(), PersistError> {
        match fs::remove_file(self.path_for(source)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
            Err(e) => Err(PersistError::Io(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::{MiningConfig, SourceStats};
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;

    fn mined() -> (SourceStats, MiningConfig) {
        let ground = CarsConfig::default().with_rows(2_000).generate(17);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.15, 3);
        let config = MiningConfig::default();
        let stats = SourceStats::mine(&sample, ed.len(), &config);
        (stats, config)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-knowledge-store")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips() {
        let (stats, config) = mined();
        let store = KnowledgeStore::open(scratch("round-trip")).unwrap();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        store.save("cars.com", &snapshot).unwrap();
        assert!(store.contains("cars.com"));
        let loaded = store.load("cars.com").unwrap();
        assert_eq!(loaded.sample().tuples(), snapshot.sample().tuples());
        assert!((loaded.smpl_ratio - snapshot.smpl_ratio).abs() < 1e-15);
        let schema = stats.schema().clone();
        assert!(store.load_for("cars.com", &schema).is_ok());
    }

    #[test]
    fn missing_snapshot_classifies_as_missing() {
        let store = KnowledgeStore::open(scratch("missing")).unwrap();
        assert_eq!(store.load("nobody").unwrap_err(), PersistError::Missing);
        assert!(!store.contains("nobody"));
        store.remove("nobody").unwrap();
    }

    #[test]
    fn truncation_classifies_as_corrupt() {
        let (stats, config) = mined();
        let store = KnowledgeStore::open(scratch("truncated")).unwrap();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        let path = store.save("cars.com", &snapshot).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(
            store.load("cars.com"),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn payload_bit_flip_classifies_as_corrupt() {
        let (stats, config) = mined();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        let mut bytes = encode_snapshot(&snapshot).into_bytes();
        // Replace one payload byte with a different printable character.
        let flip = bytes.len() - 10;
        bytes[flip] = if bytes[flip] == b'x' { b'y' } else { b'x' };
        let text = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            decode_snapshot(&text),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn future_version_classifies_as_version_mismatch() {
        let (stats, config) = mined();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        let text = encode_snapshot(&snapshot);
        let bumped = text.replacen(&format!("v{FORMAT_VERSION} "), "v99 ", 1);
        assert_eq!(
            decode_snapshot(&bumped).unwrap_err(),
            PersistError::VersionMismatch {
                found: 99,
                expected: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn wrong_schema_classifies_as_schema_mismatch() {
        let (stats, config) = mined();
        let store = KnowledgeStore::open(scratch("schema")).unwrap();
        store
            .save("cars.com", &StatsSnapshot::capture(&stats, &config))
            .unwrap();
        // Load the cars snapshot for a source that dropped an attribute.
        let keep: Vec<_> = stats
            .schema()
            .attr_ids()
            .filter(|a| stats.schema().attr(*a).name() != "body_style")
            .collect();
        let narrow = stats.selectivity().sample().project_to("narrow", &keep);
        assert!(matches!(
            store.load_for("cars.com", narrow.schema()),
            Err(PersistError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn garbled_header_classifies_as_corrupt() {
        for text in [
            "",
            "no newline here",
            "WRONG-MAGIC v1 fnv1a64=0\n{}",
            "QPIAD-KNOWLEDGE vX fnv1a64=0\n{}",
            "QPIAD-KNOWLEDGE v1 crc=0\n{}",
            "QPIAD-KNOWLEDGE v1 fnv1a64=zz\n{}",
        ] {
            assert!(
                matches!(decode_snapshot(text), Err(PersistError::Corrupt(_))),
                "{text:?} must classify as corrupt"
            );
        }
    }

    #[test]
    fn atomic_save_replaces_existing_snapshot() {
        let (stats, config) = mined();
        let store = KnowledgeStore::open(scratch("replace")).unwrap();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        let path = store.save("cars.com", &snapshot).unwrap();
        // Corrupt the file, then save again: the rename must fully repair it.
        fs::write(&path, "garbage").unwrap();
        store.save("cars.com", &snapshot).unwrap();
        assert!(store.load("cars.com").is_ok());
        assert!(
            !path.with_extension("qks.tmp").exists(),
            "temp file must not linger"
        );
        assert!(
            !path.with_extension("qks.journal").exists(),
            "journal must not linger"
        );
    }

    #[test]
    fn classify_io_separates_disk_full_and_permission_failures() {
        use std::io;
        assert!(matches!(
            classify_io(&io::Error::from_raw_os_error(28)),
            PersistError::DiskFull(_)
        ));
        assert!(matches!(
            classify_io(&io::Error::new(ErrorKind::PermissionDenied, "nope")),
            PersistError::PermissionDenied(_)
        ));
        assert!(matches!(
            classify_io(&io::Error::new(ErrorKind::UnexpectedEof, "eof")),
            PersistError::Io(_)
        ));
    }

    #[test]
    fn injected_disk_full_classifies_and_leaves_no_debris() {
        let (stats, config) = mined();
        let store = KnowledgeStore::open(scratch("disk-full")).unwrap();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        let path = store.save("cars.com", &snapshot).unwrap();
        let before = fs::read_to_string(&path).unwrap();

        store.inject_persist_fault("cars.com", PersistFault::DiskFull);
        let err = store.save("cars.com", &snapshot).unwrap_err();
        assert_eq!(err.kind(), "disk-full");
        assert!(!path.with_extension("qks.tmp").exists());
        assert!(!path.with_extension("qks.journal").exists());
        // The prior snapshot is untouched and the fault was one-shot.
        assert_eq!(fs::read_to_string(&path).unwrap(), before);
        store.save("cars.com", &snapshot).unwrap();
    }

    #[test]
    fn crash_before_rename_keeps_prior_version_and_recover_sweeps_debris() {
        let (stats, config) = mined();
        let store = KnowledgeStore::open(scratch("crash-mid-persist")).unwrap();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        let path = store.save("cars.com", &snapshot).unwrap();
        let before = fs::read_to_string(&path).unwrap();

        store.inject_persist_fault("cars.com", PersistFault::CrashBeforeRename);
        assert_eq!(store.save("cars.com", &snapshot).unwrap_err().kind(), "io");
        // The kill left real debris behind, but the prior version loads.
        assert!(path.with_extension("qks.tmp").exists());
        assert!(path.with_extension("qks.journal").exists());
        assert_eq!(fs::read_to_string(&path).unwrap(), before);
        assert!(store.load("cars.com").is_ok());

        // Re-opening the store (the restart path) sweeps the debris.
        let reopened = KnowledgeStore::open(store.root()).unwrap();
        assert!(!path.with_extension("qks.tmp").exists());
        assert!(!path.with_extension("qks.journal").exists());
        assert!(reopened.load("cars.com").is_ok());
        assert!(
            reopened.recover().unwrap().is_empty(),
            "nothing left to sweep"
        );
    }

    #[test]
    fn refused_fault_is_one_shot_and_touches_nothing() {
        let (stats, config) = mined();
        let store = KnowledgeStore::open(scratch("refused")).unwrap();
        let snapshot = StatsSnapshot::capture(&stats, &config);
        store.inject_persist_fault("cars.com", PersistFault::Refused);
        assert_eq!(store.save("cars.com", &snapshot).unwrap_err().kind(), "io");
        assert!(!store.contains("cars.com"));
        let path = store.path_for("cars.com");
        assert!(!path.with_extension("qks.tmp").exists());
        assert!(!path.with_extension("qks.journal").exists());
        // One-shot: the next save goes through.
        store.save("cars.com", &snapshot).unwrap();
        assert!(store.load("cars.com").is_ok());
    }
}
