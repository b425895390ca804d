//! Incremental knowledge maintenance: the validated-response sample
//! stream and the delta-maintained count state behind
//! [`SourceStats::fold`](crate::knowledge::SourceStats::fold).
//!
//! A long-running mediator keeps seeing *validated live responses* — the
//! very rows the drift detector pairs against the mined sample. Until
//! now those rows were used once for the drift statistic and discarded;
//! re-mining then re-probed the source and re-ran the whole §5 pipeline
//! from scratch. This module keeps them:
//!
//! * [`SampleStream`] queues validated rows per source (deduplicated by
//!   tuple id, capacity-bounded) until a maintenance pass folds them into
//!   the mined sample.
//! * `FoldState` is the crate-internal count state that makes the mined
//!   artifacts *delta-maintainable*: one group table per distinct
//!   determining set (the crate's `counts::GroupTable`), each group
//!   counting, per target the set serves, exactly the integers behind the
//!   `g3` error, and anchors that say which reads each artifact makes —
//!   an AFD a target's removal total, an AKey the table's groups, a single
//!   NBC its class and feature co-occurrence counts. Folding a probe
//!   subtracts the replaced rows' contributions and adds the new ones —
//!   `O(probe)` integer updates instead of an `O(sample × candidates)`
//!   TANE re-run.
//!
//! ## Exactness
//!
//! The count-based confidences are *bit-identical* to recomputing the
//! stripped-partition `g3` measures over the merged sample:
//!
//! * Grouping rows by their complete determining-set valuation (rows with
//!   a null on any lhs attribute excluded) reproduces `Π_X` exactly;
//!   singleton groups contribute `len − keep = 0` removals, which is why
//!   stripping them from the partition never changed the error.
//! * A target value that is globally unique maps to `NO_CLASS` in the
//!   stripped target lookup and is counted as a removal there; counting
//!   it by value gives it an in-group majority of 1 — and `keep =
//!   max(majority, 1)` in both formulations, so the removal totals agree
//!   integer-for-integer (see `counts_match_partition_g3` below).
//! * The final confidence is computed with the same float expression in
//!   the same order (`1.0 − removals as f64 / n_rows as f64`).
//! * A key's removals are each group's rows but one: the table's grouped
//!   rows minus its group count, so a key needs no target.
//! * Each table keeps every target's removal total current as rows are
//!   added, removed and merged (a group's majorities are kept with it), so
//!   reading every confidence costs one read per AFD or key, not a walk
//!   over every group.
//! * A classifier's tables are read off the same groups: the class counts
//!   off the empty set's one group, each feature's off the classifier's
//!   target in the table over that one feature. A group counts every row
//!   with a complete key, null targets as nulls, so a feature value's
//!   group is skipped when the target has no non-null count there: an
//!   entry exists iff the pair co-occurred, as in batch training, so the
//!   smoothing domain and every posterior are bit-identical.
//!
//! ## Interned counting
//!
//! All counts live in the crate's `counts` group tables — the type the
//! drift probe counts with too — keyed by interned `ValueId`s: the ids of
//! the sample's own dictionary. Every artifact over one determining set
//! reads one table, so a replayed row makes one group lookup per distinct
//! set, not one per AFD, key and classifier feature. The mine-time build
//! reads its ids straight off the sample's columns, with no value hashed or
//! cloned. A fold's merged sample extends that columnar image
//! ([`Relation::extended`](qpiad_db::Relation::extended)): the dictionary
//! keeps every id and numbers the delta's new values on from its end, so
//! the rows a fold removes (read off the old image) and adds (read off the
//! new one) count in one id space, which is the new generation's
//! dictionary. Values only replaced rows held stay in it, naming no row,
//! until a re-mine builds a fresh image. The classifier tables resolve ids
//! back to values only when a fold rebuilds a classifier.
//!
//! ## One count state per lineage
//!
//! A mined generation and every generation folded from it share one
//! `FoldLineage`: the count state and the generation it describes, behind
//! a lock. A fold of that generation replays its delta in place; a refused
//! fold replays it backwards, which leaves every (canonical) table `==` to
//! what it was; an accepted fold moves the state to the new generation. A
//! fold of any other generation — the one still serving after a failed
//! persist, say — first rebuilds the state from that generation's sample.
//! Both paths reach the same counts, so a fold is a pure function of the
//! generation and its rows.
//!
//! The tables are hash tables: two that counted the same rows are equal
//! whatever order they were counted and merged in, and every confidence
//! and classifier table is built from integer counts by order-free sums,
//! maxima and lookups, so shard-parallel accumulation is byte-identical
//! at any `QPIAD_THREADS`.

use std::collections::BTreeMap;
use std::ops::Range;

use parking_lot::{Mutex, MutexGuard};
use qpiad_db::{AttrId, ColumnarRelation, Relation, Tuple, TupleId, Value, ValueId};

use crate::afd::{AKey, Afd, AfdSet};
use crate::counts::{table, tables_over, GroupTable, ValueCounts};

/// Rows per shard of the parallel initial count build. A worker counts a
/// run of whole shards into one partial, and every partial past the first
/// costs a merge, so the build makes at most one run per worker: a sample
/// of one shard, or a pool of one thread, merges nothing.
const SHARD_ROWS: usize = 4096;

// ---------------------------------------------------------------------------
// SampleStream
// ---------------------------------------------------------------------------

/// One queued validated row.
#[derive(Debug, Clone)]
struct StreamedRow {
    tuple: Tuple,
    /// Arrival order of the id's *first* observation — the fold merges
    /// rows in this order, mirroring probe order in `SourceStats::refresh`.
    seq: u64,
    /// Sequence of the most recent push for this id; a row replaced after
    /// a fold snapshot was taken survives `clear_through`.
    touched: u64,
}

/// A capacity-bounded queue of validated live rows awaiting a fold,
/// deduplicated by tuple id.
///
/// Pushing an id already queued replaces the stored tuple (latest
/// observation wins, exactly like the probe merge in
/// [`SourceStats::refresh`](crate::knowledge::SourceStats::refresh)); a
/// folded row enters the sample once however often it was re-observed.
#[derive(Debug)]
pub struct SampleStream {
    rows: BTreeMap<TupleId, StreamedRow>,
    next_seq: u64,
    capacity: usize,
    collected: u64,
    salvaged: u64,
    dropped: u64,
    folded: u64,
    superseded: u64,
}

/// Counter snapshot of one stream (or an aggregate over streams).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Rows currently queued awaiting a fold.
    pub pending: usize,
    /// Rows ever accepted into the stream (including re-observations).
    pub collected: u64,
    /// Accepted rows that arrived on probes outlived by a refresh — rows
    /// whose drift statistic was dropped as stale but whose validated
    /// content was still worth keeping.
    pub salvaged: u64,
    /// Rows refused because the stream was at capacity.
    pub dropped: u64,
    /// Rows consumed by an incremental fold.
    pub folded: u64,
    /// Rows discarded because a full re-mine superseded them.
    pub superseded: u64,
}

impl StreamStats {
    /// Element-wise sum, for aggregating per-source streams.
    pub fn merge(&mut self, other: &StreamStats) {
        self.pending += other.pending;
        self.collected += other.collected;
        self.salvaged += other.salvaged;
        self.dropped += other.dropped;
        self.folded += other.folded;
        self.superseded += other.superseded;
    }
}

impl SampleStream {
    /// An empty stream holding at most `capacity` distinct tuple ids.
    pub fn new(capacity: usize) -> Self {
        SampleStream {
            rows: BTreeMap::new(),
            next_seq: 0,
            capacity,
            collected: 0,
            salvaged: 0,
            dropped: 0,
            folded: 0,
            superseded: 0,
        }
    }

    /// Queues one validated row; `salvaged` marks rows recovered from a
    /// refresh-outlived probe. Returns whether the row was accepted.
    pub fn push(&mut self, tuple: Tuple, salvaged: bool) -> bool {
        if let Some(row) = self.rows.get_mut(&tuple.id()) {
            row.tuple = tuple;
            row.touched = self.next_seq;
            self.next_seq += 1;
        } else if self.rows.len() < self.capacity {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.rows.insert(
                tuple.id(),
                StreamedRow {
                    tuple,
                    seq,
                    touched: seq,
                },
            );
        } else {
            self.dropped += 1;
            return false;
        }
        self.collected += 1;
        if salvaged {
            self.salvaged += 1;
        }
        true
    }

    /// Rows currently queued.
    pub fn pending(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The queued rows in arrival order plus the watermark to pass back to
    /// [`SampleStream::clear_through`] once they have been folded.
    pub fn snapshot(&self) -> (Vec<Tuple>, u64) {
        let mut rows: Vec<(u64, &Tuple)> = self.rows.values().map(|r| (r.seq, &r.tuple)).collect();
        rows.sort_unstable_by_key(|(seq, _)| *seq);
        (
            rows.into_iter().map(|(_, t)| t.clone()).collect(),
            self.next_seq,
        )
    }

    /// Drops rows whose latest push happened before the `through`
    /// watermark of a [`SampleStream::snapshot`] — they are in the folded
    /// sample now. A row re-pushed *after* the snapshot stays queued for
    /// the next fold.
    pub fn clear_through(&mut self, through: u64) {
        let before = self.rows.len();
        self.rows.retain(|_, r| r.touched >= through);
        self.folded += (before - self.rows.len()) as u64;
    }

    /// Drops everything queued: a full re-mine re-probed the source, so
    /// the queued rows are superseded by fresher knowledge.
    pub fn discard(&mut self) {
        self.superseded += self.rows.len() as u64;
        self.rows.clear();
    }

    /// Current counters.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            pending: self.rows.len(),
            collected: self.collected,
            salvaged: self.salvaged,
            dropped: self.dropped,
            folded: self.folded,
            superseded: self.superseded,
        }
    }
}

// ---------------------------------------------------------------------------
// Count state
// ---------------------------------------------------------------------------

/// Appends row `row` of `sample`, in its dictionary's ids, to `out`.
fn push_row(sample: &ColumnarRelation, row: usize, out: &mut Vec<ValueId>) {
    out.extend((0..sample.arity()).map(|a| sample.vid_at(row, AttrId(a))));
}

/// Rows `range` of `sample` as id rows in its dictionary's ids, row-major.
fn sample_rows(sample: &ColumnarRelation, range: Range<usize>) -> Vec<ValueId> {
    let mut rows = Vec::with_capacity(range.len() * sample.arity());
    for r in range {
        push_row(sample, r, &mut rows);
    }
    rows
}

/// `1 − g3` over `n_rows` counted rows, from a removal total a group table
/// keeps current as rows come and go — bit-identical to
/// [`StrippedPartition::g3_error`](crate::partition::StrippedPartition::g3_error)
/// and [`StrippedPartition::g3_key_error`](crate::partition::StrippedPartition::g3_key_error)
/// on the same relation (see the module docs for why).
fn g3_confidence(removals: u64, n_rows: u64) -> f64 {
    if n_rows == 0 {
        return 1.0;
    }
    1.0 - removals as f64 / n_rows as f64
}

/// Batch-training tables derived from delta counts: classes in
/// first-appearance order, their counts, and per-feature conditional
/// rows keyed by feature value — the inputs
/// [`NaiveBayes::from_counts`](crate::nbc::NaiveBayes::from_counts)
/// takes.
pub(crate) type NbcTables = (Vec<Value>, Vec<f64>, Vec<Vec<(Value, Vec<f64>)>>);

/// A single classifier's target and features.
type NbcSpec = (AttrId, Vec<AttrId>);

/// The full delta-maintainable count state of one mined bundle, counted in
/// the ids of its sample's dictionary: one [`GroupTable`] per distinct
/// determining set, and the anchors that read them.
///
/// * An AFD `lhs ⇝ rhs` reads the removal total of target `rhs` in the
///   table over `lhs`.
/// * An AKey reads the `g3_key` removals of the table over its attributes:
///   each group's rows but one, so a key needs no target.
/// * A single classifier of `target` over `features` reads its class
///   counts off the empty set's one group, and each feature's co-occurrence
///   counts off the target's column in the table over that one feature.
///   The tables count every row with a complete key, a null target as a
///   null; a classifier skips a feature value's group when its target has
///   no non-null count there, so an entry exists iff the pair co-occurred
///   — batch training's rule, which keeps the smoothing domain identical.
///
/// The tables are a pure function of the anchors: [`FoldState::build`]
/// from the same AFDs, keys and classifiers gives the same shape.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FoldState {
    /// Ids per row.
    arity: usize,
    /// Rows in the retained sample — the `g3` denominator.
    n_rows: u64,
    /// The mined AFDs, each with its confidence at the last full TANE run
    /// — the anchor the re-mine bound compares folded confidences against
    /// — sorted by `(rhs, lhs)` so the fold path never iterates the
    /// `AfdSet`'s hash map.
    pub(crate) afds: Vec<Afd>,
    /// The mined AKeys with their anchors, sorted by attribute set.
    pub(crate) akeys: Vec<AKey>,
    /// The attributes trained as a single classifier, sorted by target
    /// (ensemble attributes retrain from the merged sample).
    nbc: Vec<NbcSpec>,
    /// One table per distinct set the anchors read, sorted by set.
    tables: Vec<GroupTable>,
}

/// The tables `afds`, `akeys` and the classifiers `nbc` read.
fn tables_for(afds: &[Afd], akeys: &[AKey], nbc: &[NbcSpec]) -> Vec<GroupTable> {
    let afds = afds.iter().map(|afd| (afd.lhs.as_slice(), Some(afd.rhs)));
    let akeys = akeys.iter().map(|key| (key.attrs.as_slice(), None));
    let nbc = nbc.iter().flat_map(|(target, features)| {
        let features = features
            .iter()
            .map(|f| (std::slice::from_ref(f), Some(*target)));
        std::iter::once((&[][..], Some(*target))).chain(features)
    });
    tables_over(afds.chain(akeys).chain(nbc))
}

impl FoldState {
    /// An empty state over `arity` attributes, shaped for `afds`, `akeys`
    /// and the single classifiers `nbc`.
    fn shaped(
        arity: usize,
        mut afds: Vec<Afd>,
        mut akeys: Vec<AKey>,
        mut nbc: Vec<NbcSpec>,
    ) -> Self {
        afds.sort_by(|a, b| a.rhs.cmp(&b.rhs).then_with(|| a.lhs.cmp(&b.lhs)));
        akeys.sort_by(|a, b| a.attrs.cmp(&b.attrs));
        nbc.sort_by_key(|(target, _)| *target);
        FoldState {
            arity,
            n_rows: 0,
            tables: tables_for(&afds, &akeys, &nbc),
            afds,
            akeys,
            nbc,
        }
    }

    /// This empty state counted over `sample`, in its dictionary's id
    /// space, read straight off its columnar image, shard-parallel: runs of
    /// fixed-size row shards accumulate partial counts across the
    /// [`crate::par`] worker pool and merge sequentially in row order (a
    /// sample of one shard spawns no worker). Integer count adds commute
    /// and the tables are canonical, so the result equals one sequential
    /// accumulation at any thread count.
    fn counted(self, sample: &Relation) -> Self {
        let columnar = sample.columnar();
        let n = columnar.n_rows();
        let shards = n.div_ceil(SHARD_ROWS);
        let workers = crate::par::num_threads().min(shards).max(1);
        let run_rows = shards.div_ceil(workers).max(1) * SHARD_ROWS;
        let runs: Vec<usize> = (0..n).step_by(run_rows).collect();
        let mut partials = crate::par::parallel_map(&runs, |&run| {
            let mut partial = self.clone();
            for start in (run..n.min(run + run_rows)).step_by(SHARD_ROWS) {
                let shard = start..n.min(start + SHARD_ROWS);
                partial.add_rows(&sample_rows(columnar, shard.clone()), shard.len());
            }
            partial
        })
        .into_iter();
        let mut state = partials.next().unwrap_or(self);
        for partial in partials {
            state.n_rows += partial.n_rows;
            for (dst, src) in state.tables.iter_mut().zip(partial.tables) {
                dst.merge(src);
            }
        }
        state
    }

    /// Counts `n` id rows, held row-major in `rows`, into every table.
    fn add_rows(&mut self, rows: &[ValueId], n: usize) {
        self.n_rows += n as u64;
        for table in &mut self.tables {
            table.add_rows(rows, self.arity);
        }
    }

    /// The count state of `sample` under its mined AFDs and AKeys (their
    /// confidences the anchors) and the single classifiers `nbc_specs`.
    pub(crate) fn build(
        sample: &Relation,
        afds: &AfdSet,
        akeys: &[AKey],
        nbc_specs: &[NbcSpec],
    ) -> Self {
        let afds = afds.iter().cloned().collect();
        let arity = sample.schema().arity();
        FoldState::shaped(arity, afds, akeys.to_vec(), nbc_specs.to_vec()).counted(sample)
    }

    /// The count state of `sample` under the same AFDs, keys and anchors
    /// as this one, with classifier counts for `nbc_specs`: a
    /// [`FoldState::build`] from scratch.
    fn rebuilt(&self, sample: &Relation, nbc_specs: &[NbcSpec]) -> Self {
        let (afds, akeys) = (self.afds.clone(), self.akeys.clone());
        FoldState::shaped(self.arity, afds, akeys, nbc_specs.to_vec()).counted(sample)
    }

    /// Replays id rows in place across the [`crate::par`] worker pool: the
    /// `leaving` rows leave every table, then the `entering` rows enter it.
    /// The tables are disjoint and the order within each is fixed, so the
    /// result is byte-identical to a sequential replay at any thread count.
    fn replay(&mut self, leaving: &[ValueId], entering: &[ValueId]) {
        let arity = self.arity;
        crate::par::parallel_for_each_mut(&mut self.tables, |table| {
            table.remove_rows(leaving, arity);
            table.add_rows(entering, arity);
        });
    }

    /// Folds `delta` in: its removed rows leave, its added rows enter.
    fn apply(&mut self, delta: &Delta) {
        self.n_rows += delta.appended;
        self.replay(&delta.removed, &delta.added);
    }

    /// Undoes [`FoldState::apply`] of `delta`: the added rows leave and the
    /// removed ones enter again. Every table is canonical (an entry exists
    /// iff its count is positive), so the state comes back `==` to what it
    /// was.
    fn revert(&mut self, delta: &Delta) {
        self.n_rows -= delta.appended;
        self.replay(&delta.added, &delta.removed);
    }

    /// Every AFD's and every AKey's confidence over the counted rows, in
    /// the order of `afds` and `akeys`.
    pub(crate) fn confidences(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.n_rows;
        let afds = self.afds.iter();
        let afds = afds.map(|afd| table(&self.tables, &afd.lhs).removals(afd.rhs));
        let akeys = self.akeys.iter();
        let akeys = akeys.map(|key| table(&self.tables, &key.attrs).key_removals());
        (
            afds.map(|removals| g3_confidence(removals, n)).collect(),
            akeys.map(|removals| g3_confidence(removals, n)).collect(),
        )
    }

    /// The worst absolute drift of the folded confidences (as
    /// [`FoldState::confidences`] returns them) from their last full TANE
    /// run — the quantity the re-mine bound gates on.
    pub(crate) fn max_confidence_delta(&self, afds: &[f64], akeys: &[f64]) -> f64 {
        let anchored = self.afds.iter().map(|afd| afd.confidence).zip(afds);
        let anchored = anchored.chain(self.akeys.iter().map(|key| key.confidence).zip(akeys));
        anchored.fold(0.0f64, |worst, (base, conf)| worst.max((conf - base).abs()))
    }

    /// Moves the single classifiers to `classifiers` — each a target's new
    /// features, or `None` where the target is no longer trained as a
    /// single classifier — and re-shapes the tables to match: a table
    /// whose targets changed is counted anew from the whole merged
    /// `sample`, every other table is kept as it is.
    fn reseed(
        &mut self,
        sample: &ColumnarRelation,
        classifiers: impl IntoIterator<Item = (AttrId, Option<Vec<AttrId>>)>,
    ) {
        let before = self.nbc.clone();
        for (target, features) in classifiers {
            match (
                self.nbc.binary_search_by_key(&target, |(t, _)| *t),
                features,
            ) {
                (Ok(i), Some(features)) => self.nbc[i].1 = features,
                (Ok(i), None) => {
                    self.nbc.remove(i);
                }
                (Err(i), Some(features)) => self.nbc.insert(i, (target, features)),
                (Err(_), None) => {}
            }
        }
        if self.nbc == before {
            return;
        }
        let mut rows = None;
        let mut tables = tables_for(&self.afds, &self.akeys, &self.nbc);
        for table in &mut tables {
            let same = |old: &&mut GroupTable| {
                old.attrs() == table.attrs() && old.targets() == table.targets()
            };
            match self.tables.iter_mut().find(same) {
                Some(old) => std::mem::swap(old, table),
                None => {
                    let rows = rows.get_or_insert_with(|| sample_rows(sample, 0..sample.n_rows()));
                    table.add_rows(rows, self.arity);
                }
            }
        }
        self.tables = tables;
    }

    /// The batch-training tables of `target`'s classifier, if its counts
    /// are delta-maintained over exactly `features`: classes in
    /// first-appearance order over `sample`'s target column — the order
    /// batch training assigns — paired with their counts, plus the
    /// per-feature conditional tables in that class order, every id
    /// resolved back to its value through the sample's dictionary.
    /// `sample` is the columnar image of the merged sample this state
    /// describes, so it holds exactly the counted classes. Feed the result
    /// to [`NaiveBayes::from_counts`](crate::nbc::NaiveBayes::from_counts).
    pub(crate) fn nbc_tables(
        &self,
        target: AttrId,
        features: &[AttrId],
        sample: &ColumnarRelation,
    ) -> Option<NbcTables> {
        let i = self.nbc.binary_search_by_key(&target, |(t, _)| *t).ok()?;
        if self.nbc[i].1 != features {
            return None;
        }
        const UNSEEN: usize = usize::MAX;
        let no_rows = ValueCounts::default();
        let mut all_rows = table(&self.tables, &[]).column(target);
        let by_class = all_rows.next().map_or(&no_rows, |(_, counts)| counts);
        let n_classes = by_class.iter().count();
        let dict = sample.dict();
        // Position of each class in `classes`, by its id.
        let mut index = vec![UNSEEN; dict.len()];
        let mut classes: Vec<Value> = Vec::with_capacity(n_classes);
        let mut class_counts: Vec<f64> = Vec::with_capacity(n_classes);
        for &id in sample.column(target) {
            if classes.len() == n_classes {
                break;
            }
            if id.is_null() || index[id.index()] != UNSEEN {
                continue;
            }
            index[id.index()] = classes.len();
            classes.push(dict.resolve(id).clone());
            class_counts.push(by_class.get(id) as f64);
        }
        debug_assert_eq!(
            classes.len(),
            n_classes,
            "delta class set must match the merged sample's"
        );
        let cond = features.iter().map(|f| {
            let column = table(&self.tables, std::slice::from_ref(f)).column(target);
            column
                .filter(|(_, by_class)| by_class.iter().next().is_some())
                .map(|(value, by_class)| {
                    let mut row = vec![0f64; classes.len()];
                    for (class, n) in by_class.iter() {
                        row[index[class.index()]] = n as f64;
                    }
                    (dict.resolve(value[0]).clone(), row)
                })
                .collect()
        });
        let cond = cond.collect();
        Some((classes, class_counts, cond))
    }
}

/// One fold's delta as id rows in the merged sample's dictionary,
/// row-major: the rows that leave the count state and the rows that enter
/// it.
#[derive(Debug)]
pub(crate) struct Delta {
    removed: Vec<ValueId>,
    added: Vec<ValueId>,
    /// Rows the delta appends to the sample.
    appended: u64,
}

impl Delta {
    /// The delta from sample `old` to `merged`, its extension
    /// ([`ColumnarRelation::extended`]) that overwrote the rows `replaced`
    /// and appended every row past `old`'s last. The extended dictionary
    /// keeps `old`'s ids, so a removed row's ids read off `old` and an
    /// added row's off `merged` count in one id space. A replaced row whose
    /// ids did not change is an exact no-op on every structure (a remove
    /// undone by the same add) and is left out — live refreshes mostly
    /// re-deliver unchanged rows, so this skips the bulk of the replay.
    pub(crate) fn between(
        old: &ColumnarRelation,
        merged: &ColumnarRelation,
        replaced: impl Iterator<Item = usize>,
    ) -> Self {
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        let arity = old.arity();
        for row in replaced {
            let same =
                (0..arity).all(|a| old.vid_at(row, AttrId(a)) == merged.vid_at(row, AttrId(a)));
            if !same {
                push_row(old, row, &mut removed);
                push_row(merged, row, &mut added);
            }
        }
        for row in old.n_rows()..merged.n_rows() {
            push_row(merged, row, &mut added);
        }
        Delta {
            removed,
            added,
            appended: (merged.n_rows() - old.n_rows()) as u64,
        }
    }
}

/// The count state one mined generation and every generation folded from
/// it share, behind a lock, with the generation it describes.
///
/// A fold of that generation replays its delta into the state in place. If
/// the re-mine bound refuses, it replays the delta backwards and the state
/// is what it was; if the fold is accepted, the state moves to the new
/// generation. A fold of any other generation — the one still serving
/// after a failed persist, say — first rebuilds the state from that
/// generation's sample ([`FoldState::build`] under the lineage's anchors).
/// Both paths reach the same counts, so a fold is a pure function of the
/// generation and the rows it folds.
#[derive(Debug)]
pub(crate) struct FoldLineage {
    inner: Mutex<LineageState>,
}

#[derive(Debug)]
struct LineageState {
    state: FoldState,
    /// The generation `state` describes.
    at: u64,
    /// The last generation handed out.
    newest: u64,
}

/// A fold in progress: the lineage locked, its count state at the
/// generation being folded and then replayed through the fold's delta.
/// Dropped without [`FoldTxn::commit`], it undoes the fold; dropped in a
/// panic, it leaves a state the next fold rebuilds.
pub(crate) struct FoldTxn<'a> {
    lineage: MutexGuard<'a, LineageState>,
    /// The delta folded in; `None` once committed.
    delta: Option<Delta>,
}

/// The generation a lineage's state describes after a fold panicked
/// midway: none, so the next fold rebuilds.
const NO_GENERATION: u64 = u64::MAX;

impl FoldLineage {
    /// A lineage whose generation 0 is described by `state`.
    pub(crate) fn new(state: FoldState) -> Self {
        FoldLineage {
            inner: Mutex::new(LineageState {
                state,
                at: 0,
                newest: 0,
            }),
        }
    }

    /// The generation the count state describes, and a copy of it.
    #[cfg(test)]
    pub(crate) fn current(&self) -> (u64, FoldState) {
        let lineage = self.inner.lock();
        (lineage.at, lineage.state.clone())
    }

    /// Starts folding `delta` into generation `generation`, whose sample
    /// is `sample` and whose single classifiers are `nbc_specs`: rebuilds
    /// the count state from `sample` if it describes another generation,
    /// then replays the delta in place.
    pub(crate) fn begin(
        &self,
        generation: u64,
        sample: &Relation,
        nbc_specs: impl FnOnce() -> Vec<(AttrId, Vec<AttrId>)>,
        delta: Delta,
    ) -> FoldTxn<'_> {
        let mut txn = FoldTxn {
            lineage: self.inner.lock(),
            delta: None,
        };
        let lineage = &mut *txn.lineage;
        if lineage.at != generation {
            lineage.state = lineage.state.rebuilt(sample, &nbc_specs());
            lineage.at = generation;
        }
        lineage.state.apply(&delta);
        txn.delta = Some(delta);
        txn
    }
}

impl FoldTxn<'_> {
    /// The count state with the delta folded in.
    pub(crate) fn state(&self) -> &FoldState {
        &self.lineage.state
    }

    /// Accepts the fold: the count state now describes a new generation,
    /// which this returns. Each of `classifiers` moves a target's
    /// classifier to new features (its feature set changed), or drops it
    /// (`None`: the attribute is now trained as an ensemble, which always
    /// retrains in full); the tables whose targets that changes are counted
    /// anew from the whole merged `sample` (see [`FoldState::reseed`]).
    pub(crate) fn commit(
        mut self,
        sample: &ColumnarRelation,
        classifiers: impl IntoIterator<Item = (AttrId, Option<Vec<AttrId>>)>,
    ) -> u64 {
        let lineage = &mut *self.lineage;
        lineage.state.reseed(sample, classifiers);
        self.delta = None;
        lineage.newest += 1;
        lineage.at = lineage.newest;
        lineage.at
    }
}

impl Drop for FoldTxn<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.lineage.at = NO_GENERATION;
        } else if let Some(delta) = self.delta.take() {
            self.lineage.state.revert(&delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nbc::NaiveBayes;
    use crate::partition::StrippedPartition;
    use qpiad_db::{AttrType, Schema, TupleId};

    fn relation(rows: &[(&str, &str)]) -> Relation {
        let schema = Schema::of(
            "t",
            &[("x", AttrType::Categorical), ("y", AttrType::Categorical)],
        );
        let mk = |s: &str| if s == "-" { Value::Null } else { Value::str(s) };
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(i, (x, y))| Tuple::new(TupleId(i as u32), vec![mk(x), mk(y)]))
            .collect();
        Relation::new(schema, tuples)
    }

    #[test]
    fn counts_match_partition_g3() {
        // One determining set `x` serving two AFD targets, an AKey and both
        // classifiers' feature tables. Nulls on every attribute, globally
        // unique target values, all-null groups, and the feature values
        // `c` and `e`, seen only beside a null class of `y`.
        let attr = |name| (name, AttrType::Categorical);
        let schema = Schema::of("t", &[attr("x"), attr("y"), attr("z")]);
        let rows = [
            ["a", "1", "p"],
            ["a", "1", "p"],
            ["a", "2", "-"],
            ["a", "-", "q"],
            ["b", "uniq", "p"],
            ["b", "-", "-"],
            ["-", "1", "p"],
            ["c", "-", "r"],
            ["c", "-", "r"],
            ["d", "3", "-"],
            ["e", "-", "p"],
        ];
        let mk = |s: &str| if s == "-" { Value::Null } else { Value::str(s) };
        let tuples = rows.iter().enumerate();
        let tuples = tuples.map(|(i, row)| Tuple::new(TupleId(i as u32), row.map(mk).to_vec()));
        let r = Relation::new(schema, tuples.collect());
        let (x, y, z) = (AttrId(0), AttrId(1), AttrId(2));
        let afds = AfdSet::new(vec![Afd::new(vec![x], y, 0.0), Afd::new(vec![x], z, 0.0)]);
        let specs = vec![(y, vec![x]), (z, vec![x])];
        let state = FoldState::build(&r, &afds, &[AKey::new(vec![x], 0.0)], &specs);

        // The AFDs sharing `x`, its key and the classifiers' features read
        // one table; the class counts are the empty set's.
        let shape: Vec<_> = state
            .tables
            .iter()
            .map(|t| (t.attrs(), t.targets()))
            .collect();
        assert_eq!(shape, vec![(&[][..], &[y, z][..]), (&[x][..], &[y, z][..])]);

        let px = StrippedPartition::from_column(&r, x);
        let (afd_conf, key_conf) = state.confidences();
        for (got, rhs) in afd_conf.iter().zip([y, z]) {
            let expect = 1.0 - px.g3_error(&StrippedPartition::from_column(&r, rhs).lookup());
            assert_eq!(got.to_bits(), expect.to_bits(), "x -> {rhs:?}");
        }
        assert_eq!(key_conf[0].to_bits(), (1.0 - px.g3_key_error()).to_bits());

        // Each classifier built off the tables is the one batch training
        // gives, down to the posterior bits, for every value of `x` and
        // one it never held.
        for target in [y, z] {
            let (classes, counts, cond) = state.nbc_tables(target, &[x], r.columnar()).unwrap();
            let folded = NaiveBayes::from_counts(target, vec![x], classes, counts, cond, 1.0);
            let trained = NaiveBayes::train(&r, target, vec![x], 1.0);
            assert_eq!(folded.classes(), trained.classes());
            for v in ["a", "b", "c", "d", "e", "unseen"].map(Value::str) {
                let bits = |nbc: &NaiveBayes| -> Vec<u64> {
                    nbc.posterior_of(&[&v])
                        .iter()
                        .map(|p| p.to_bits())
                        .collect()
                };
                assert_eq!(bits(&folded), bits(&trained), "{target:?} given x = {v:?}");
            }
        }
    }

    #[test]
    fn key_counts_match_partition_g3_key() {
        let r = relation(&[("a", "1"), ("a", "1"), ("b", "2"), ("-", "3"), ("c", "4")]);
        let akey = AKey::new(vec![AttrId(0)], 0.0);
        let state = FoldState::build(&r, &AfdSet::default(), &[akey], &[]);
        let p = StrippedPartition::from_column(&r, AttrId(0));
        let expect = 1.0 - p.g3_key_error();
        assert_eq!(state.confidences().1[0].to_bits(), expect.to_bits());
    }

    #[test]
    fn delta_updates_equal_rebuild() {
        let base = relation(&[("a", "1"), ("a", "1"), ("b", "2"), ("b", "2"), ("c", "3")]);
        let afd = Afd::new(vec![AttrId(0)], AttrId(1), 0.0);
        let set = AfdSet::new(vec![afd]);
        let specs = vec![(AttrId(1), vec![AttrId(0)])];
        let built = FoldState::build(&base, &set, &[], &specs);

        // Replace row 1's target with a new value, re-deliver row 2
        // unchanged, and append two rows.
        let replaced = [
            (
                1,
                Tuple::new(TupleId(1), vec![Value::str("a"), Value::str("9")]),
            ),
            (2, base.tuples()[2].clone()),
        ];
        let appended = vec![
            Tuple::new(TupleId(7), vec![Value::str("a"), Value::str("1")]),
            Tuple::new(TupleId(8), vec![Value::Null, Value::str("1")]),
        ];
        let merged = base.extended(&replaced, &appended);
        let delta = Delta::between(base.columnar(), merged.columnar(), [1, 2].into_iter());
        // The unchanged row is left out of the replay.
        assert_eq!((delta.removed.len(), delta.added.len()), (2, 6));
        let mut state = built.clone();
        state.apply(&delta);

        // The extended image keeps the base's ids, so the folded state is
        // the one counted from scratch over it.
        assert_eq!(state, FoldState::build(&merged, &set, &[], &specs));

        // A build over the same rows interned afresh numbers the values
        // otherwise, but counts the same: the same confidence, and tables
        // that resolve to the same values.
        let fresh = Relation::new(base.schema().clone(), merged.tuples().to_vec());
        let rebuilt = FoldState::build(&fresh, &set, &[], &specs);
        assert_eq!(state.n_rows, rebuilt.n_rows);
        assert_eq!(
            state.confidences().0[0].to_bits(),
            rebuilt.confidences().0[0].to_bits()
        );
        let tables = |state: &FoldState, sample: &Relation| {
            let (classes, counts, mut cond) = state
                .nbc_tables(AttrId(1), &[AttrId(0)], sample.columnar())
                .unwrap();
            cond.iter_mut()
                .for_each(|rows| rows.sort_by(|a, b| a.0.cmp(&b.0)));
            (classes, counts, cond)
        };
        assert_eq!(tables(&state, &merged), tables(&rebuilt, &fresh));

        // Replayed backwards, the delta leaves the state as it was.
        state.revert(&delta);
        assert_eq!(state, built);
    }

    #[test]
    fn a_commit_moves_the_classifiers_and_a_refold_rebuilds() {
        let base = relation(&[("a", "1"), ("a", "1"), ("b", "2"), ("-", "2"), ("c", "3")]);
        let set = AfdSet::new(vec![Afd::new(vec![AttrId(0)], AttrId(1), 0.0)]);
        let specs = vec![(AttrId(1), vec![AttrId(0)])];
        let built = FoldState::build(&base, &set, &[], &specs);
        let lineage = FoldLineage::new(built.clone());

        let replaced = [(
            0,
            Tuple::new(TupleId(0), vec![Value::str("d"), Value::str("9")]),
        )];
        let appended = [Tuple::new(TupleId(9), vec![Value::str("b"), Value::Null])];
        let merged = base.extended(&replaced, &appended);
        let delta = Delta::between(base.columnar(), merged.columnar(), [0].into_iter());
        let no_rebuild = || -> Vec<(AttrId, Vec<AttrId>)> { unreachable!("no rebuild") };
        // The fold moves `y`'s classifier off `x` and trains one for `x`.
        let fold = lineage.begin(0, &base, no_rebuild, delta);
        let moved = [(AttrId(1), None), (AttrId(0), Some(vec![AttrId(1)]))];
        let folded = fold.commit(merged.columnar(), moved);
        assert_eq!(
            lineage.current(),
            (
                folded,
                FoldState::build(&merged, &set, &[], &[(AttrId(0), vec![AttrId(1)])])
            )
        );

        // Folding generation 0 again rebuilds its state from its sample.
        let nothing = Delta::between(base.columnar(), base.columnar(), std::iter::empty());
        drop(lineage.begin(0, &base, || specs.clone(), nothing));
        assert_eq!(lineage.current(), (0, built));
    }

    #[test]
    fn a_fold_that_panics_leaves_a_state_the_next_fold_rebuilds() {
        let base = relation(&[("a", "1"), ("a", "2"), ("b", "2")]);
        let set = AfdSet::new(vec![Afd::new(vec![AttrId(0)], AttrId(1), 0.0)]);
        let specs = vec![(AttrId(1), vec![AttrId(0)])];
        let built = FoldState::build(&base, &set, &[], &specs);
        let lineage = FoldLineage::new(built.clone());
        let nothing = || Delta::between(base.columnar(), base.columnar(), std::iter::empty());
        // A generation the state does not describe, whose rebuild panics.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lineage.begin(7, &base, || panic!("mid-fold"), nothing())
        }));
        assert!(panicked.is_err());
        assert_eq!(lineage.current().0, NO_GENERATION);
        drop(lineage.begin(0, &base, || specs.clone(), nothing()));
        assert_eq!(lineage.current(), (0, built));
    }

    #[test]
    fn sharded_build_equals_one_sequential_accumulation() {
        // Three full shards and a partial one, with nulls on every
        // attribute. Eight threads count each shard into a partial of its
        // own and two threads two runs of shards, so every shard boundary,
        // the run boundary and the short tail matter.
        let n = 3 * SHARD_ROWS + 123;
        let schema = Schema::of(
            "t",
            &[
                ("x", AttrType::Categorical),
                ("y", AttrType::Categorical),
                ("z", AttrType::Categorical),
            ],
        );
        let cell = |i: usize, salt: usize, domain: usize| {
            let h = i.wrapping_mul(2_654_435_761).wrapping_add(salt * 97) % 1_000;
            if h.is_multiple_of(11) {
                Value::Null
            } else {
                Value::str(format!("v{}", h % domain))
            }
        };
        let tuples = (0..n)
            .map(|i| {
                let values = vec![cell(i, 1, 7), cell(i / 3, 2, 5), cell(i, 3, 13)];
                Tuple::new(TupleId(i as u32), values)
            })
            .collect();
        let r = Relation::new(schema, tuples);
        let afds = AfdSet::new(vec![
            Afd::new(vec![AttrId(0)], AttrId(1), 0.0),
            Afd::new(vec![AttrId(0), AttrId(2)], AttrId(1), 0.0),
        ]);
        let akeys = [AKey::new(vec![AttrId(0), AttrId(2)], 0.0)];
        let specs = vec![(AttrId(1), vec![AttrId(0), AttrId(2)])];

        // One id row at a time, read off the columnar image.
        let columnar = r.columnar();
        let afd_list = afds.iter().cloned().collect();
        let mut sequential =
            FoldState::shaped(columnar.arity(), afd_list, akeys.to_vec(), specs.clone());
        for row in 0..n {
            sequential.add_rows(&sample_rows(columnar, row..row + 1), 1);
        }

        struct PoolReset;
        impl Drop for PoolReset {
            fn drop(&mut self) {
                crate::par::set_thread_override(None);
            }
        }
        let _reset = PoolReset;
        for threads in [1, 2, 8] {
            crate::par::set_thread_override(Some(threads));
            let sharded = FoldState::build(&r, &afds, &akeys, &specs);
            assert_eq!(sharded, sequential, "sharded build at {threads} threads");
        }
        assert_eq!(sequential.n_rows, n as u64);
    }

    #[test]
    fn stream_dedups_by_id_and_tracks_counters() {
        let mut stream = SampleStream::new(2);
        let t0 = Tuple::new(TupleId(0), vec![Value::str("a")]);
        let t0b = Tuple::new(TupleId(0), vec![Value::str("b")]);
        let t1 = Tuple::new(TupleId(1), vec![Value::str("c")]);
        let t2 = Tuple::new(TupleId(2), vec![Value::str("d")]);
        assert!(stream.push(t0, false));
        assert!(stream.push(t0b.clone(), true));
        assert!(stream.push(t1, false));
        assert!(!stream.push(t2, false)); // over capacity
        let s = stream.stats();
        assert_eq!(s.pending, 2);
        assert_eq!(s.collected, 3);
        assert_eq!(s.salvaged, 1);
        assert_eq!(s.dropped, 1);
        // Latest observation wins for a duplicated id.
        let (rows, through) = stream.snapshot();
        assert_eq!(rows[0].value(AttrId(0)), t0b.value(AttrId(0)));
        stream.clear_through(through);
        assert!(stream.is_empty());
        assert_eq!(stream.stats().folded, 2);
    }

    #[test]
    fn rows_touched_after_a_snapshot_survive_the_clear() {
        let mut stream = SampleStream::new(8);
        stream.push(Tuple::new(TupleId(0), vec![Value::str("a")]), false);
        let (_, through) = stream.snapshot();
        // Re-observed after the snapshot: must stay queued for the next
        // fold, or the newer observation would be lost.
        stream.push(Tuple::new(TupleId(0), vec![Value::str("b")]), false);
        stream.clear_through(through);
        assert_eq!(stream.pending(), 1);
    }

    #[test]
    fn discard_counts_superseded_rows() {
        let mut stream = SampleStream::new(8);
        stream.push(Tuple::new(TupleId(0), vec![Value::str("a")]), false);
        stream.push(Tuple::new(TupleId(1), vec![Value::str("b")]), false);
        stream.discard();
        assert!(stream.is_empty());
        assert_eq!(stream.stats().superseded, 2);
        assert_eq!(stream.stats().folded, 0);
    }
}
