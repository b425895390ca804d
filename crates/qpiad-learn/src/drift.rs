//! Drift detection: is the mined knowledge still describing the source?
//!
//! QPIAD mines AFDs, value distributions, and selectivity estimates from a
//! one-shot probed sample, then serves queries from them indefinitely. An
//! autonomous source keeps evolving underneath — new listings, changed
//! categories, schema-preserving format shifts — and every evolution
//! silently erodes rewrite precision. This module compares the *live*
//! validated responses flowing through `qpiad_db::validate` against the
//! mined sample and raises a [`DriftVerdict`] once the divergence crosses
//! a configurable threshold, at which point the mediator demotes the
//! source's knowledge weight and schedules a re-mine
//! (`MediatorNetwork::refresh_member`).
//!
//! ## The statistic
//!
//! Live responses are **query-conditioned** — a pass that asks for
//! convertibles only ever sees convertibles — so comparing them against
//! the sample's *unconditional* distributions would convict every
//! selective query of drift. The probe therefore accumulates **paired**
//! observations: for each response, the mediator also filters its mined
//! sample by the *same query* (`SelectQuery::matches`, the certain-answer
//! test) and feeds the matching sample tuples in as the reference side.
//! Both sides carry the same conditioning, and both are reduced by the
//! same estimator, so a source that still looks like its sample scores
//! exactly zero. The statistic is
//!
//! ```text
//! drift = max( max_a max_v |p_ref_a(v) − p_live_a(v)|,
//!              max_afd |conf_ref − conf_live| )
//! ```
//!
//! the worst single-value probability shift (L∞ distance — robust to the
//! sampling noise that saturates total variation on high-cardinality
//! attributes) and `conf`, the support-weighted confidence of the mined
//! determining set over each side's counts. The worst attribute decides:
//! one collapsed category or one broken dependency is enough to poison
//! that attribute's rewrites, so averaging across healthy attributes
//! would only hide it.
//!
//! ## Determinism
//!
//! Accumulation follows the same snapshot → pass-local → sequential-absorb
//! protocol as `qpiad_db::health`: each mediation pass takes an empty
//! [`DriftProbe`] per source (sequentially, before fan-out), workers fill
//! their probe in isolation, and the network absorbs probes in
//! registration order after the pass. Both sides count into the crate's
//! `counts` tables, the module the incremental fold ([`crate::stream`])
//! counts with too. They are hash tables, but every number the statistic
//! reads off them is an integer count reduced by an order-free `max` or
//! `sum`, so the statistic — and the pass on which a verdict fires — is
//! byte-identical at any `QPIAD_THREADS`, whatever order the tables
//! iterate in.
//!
//! ## Interned counting
//!
//! A probe counts dense `ValueId`s, not values, in an id space of the kind
//! the fold counts in too (`counts::ValueIds`). Each cell is interned
//! once, through the dictionary of the mined sample's columnar image
//! (`stats.selectivity().sample().columnar()`), which the detector shares
//! with every probe it hands out. A value the sample never held gets a
//! probe-local id numbered past the dictionary's end; absorbing the probe
//! renames those ids into the detector's own. Determining-set groups are
//! keyed by inline id arrays, so counting a row clones no value and
//! allocates nothing once its groups exist. Ids from two samples'
//! dictionaries name different values, so a detector takes no counts from
//! a probe shaped against another sample's — one taken before a
//! [`DriftDetector::reset`] to re-mined statistics, say.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use qpiad_db::version::KnowledgeVersionClock;
use qpiad_db::{AttrId, ColumnarRelation, Tuple, ValueId};

use crate::counts::{IdGroupCounts, ValueCounts, ValueIds};
use crate::knowledge::SourceStats;
use crate::stream::{SampleStream, StreamStats};

/// Multiplier applied to a drifted source's knowledge weight (AFD
/// confidence in correlated-source selection, answer precision) until it
/// is re-mined.
pub const DEMOTE_FACTOR: f64 = 0.5;

/// Tuning knobs for drift detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Statistic value at or above which a [`DriftVerdict`] fires.
    pub threshold: f64,
    /// Minimum live tuples observed before a verdict may fire — small
    /// responses are too noisy to convict a source on.
    pub min_observations: u64,
    /// Maximum validated live rows queued per source awaiting an
    /// incremental fold (see [`SampleStream`]); rows beyond the bound are
    /// dropped (and counted) rather than growing memory unboundedly.
    pub stream_capacity: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            threshold: 0.35,
            min_observations: 50,
            stream_capacity: 4096,
        }
    }
}

impl DriftConfig {
    /// Overrides the verdict threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Overrides the minimum observation count.
    pub fn with_min_observations(mut self, n: u64) -> Self {
        self.min_observations = n;
        self
    }

    /// Overrides the per-source sample-stream capacity.
    pub fn with_stream_capacity(mut self, capacity: usize) -> Self {
        self.stream_capacity = capacity;
        self
    }
}

/// The verdict emitted (once per source, until re-mining resets it) when
/// the divergence statistic crosses the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftVerdict {
    /// The drifted source.
    pub source: String,
    /// The combined statistic that crossed the threshold.
    pub statistic: f64,
    /// Worst per-attribute single-value probability shift component.
    pub value_divergence: f64,
    /// Worst AFD-confidence delta component.
    pub afd_divergence: f64,
    /// The configured threshold at the time the verdict fired.
    pub threshold: f64,
    /// Live tuples observed when the verdict fired.
    pub observed: u64,
}

/// One side of the paired comparison: per-attribute value counts plus
/// AFD evidence (each tracked attribute's non-null values counted per
/// determining-set group), all over interned ids.
#[derive(Debug, Clone, Default)]
struct SideCounts {
    values: Vec<ValueCounts>,
    /// Per attribute, AFD evidence for its tracked set (empty if untracked).
    afds: Vec<IdGroupCounts>,
    rows: u64,
}

impl SideCounts {
    fn shaped(tracked: &[Option<Vec<AttrId>>]) -> Self {
        SideCounts {
            values: vec![ValueCounts::default(); tracked.len()],
            afds: tracked
                .iter()
                .map(|lhs| IdGroupCounts::over(lhs.as_deref().unwrap_or(&[])))
                .collect(),
            rows: 0,
        }
    }

    /// Counts the tuples of the counted arity, interning each cell once
    /// into `ids`; `row` is scratch space for one row's ids.
    fn add_rows(
        &mut self,
        tracked: &[Option<Vec<AttrId>>],
        ids: &mut ValueIds,
        row: &mut Vec<ValueId>,
        tuples: &[Tuple],
    ) {
        let arity = self.values.len();
        for t in tuples.iter().filter(|t| t.arity() == arity) {
            self.rows += 1;
            row.clear();
            ids.intern_row(t, row);
            for (counts, id) in self.values.iter_mut().zip(row.iter()) {
                counts.add(*id);
            }
            for ((groups, lhs), rhs) in self.afds.iter_mut().zip(tracked).zip(row.iter()) {
                let Some(lhs) = lhs else { continue };
                if !rhs.is_null() {
                    groups.add(lhs, row, *rhs);
                }
            }
        }
    }

    /// Adds `src`'s counts to these, its ids renamed by `rename`.
    fn merge(&mut self, src: SideCounts, rename: impl Fn(ValueId) -> ValueId + Copy) {
        self.rows += src.rows;
        for (dst, src) in self.values.iter_mut().zip(src.values) {
            dst.merge_mapped(src, rename);
        }
        for (dst, src) in self.afds.iter_mut().zip(src.afds) {
            dst.merge_renamed(src, rename);
        }
    }
}

/// Support-weighted confidence of a tracked determining set over one
/// side's AFD evidence, or `None` without evidence.
fn afd_confidence(groups: &IdGroupCounts) -> Option<f64> {
    let total: u64 = groups.groups().map(ValueCounts::non_null).sum();
    if total == 0 {
        return None;
    }
    let agree: u64 = groups.groups().map(ValueCounts::majority).sum();
    Some(agree as f64 / total as f64)
}

/// A pass-local accumulator of **paired** observations: validated live
/// response tuples on one side, the mined-sample tuples matching the same
/// query on the other. Cheap to clone while empty; filled by one worker
/// during a mediation pass and absorbed sequentially afterwards.
#[derive(Debug, Clone, Default)]
pub struct DriftProbe {
    live: SideCounts,
    reference: SideCounts,
    /// Determining set per attribute: each attribute's best mined AFD's,
    /// if it has one (copied so the probe can accumulate without holding a
    /// detector borrow).
    tracked: Vec<Option<Vec<AttrId>>>,
    /// The id space both sides count in.
    ids: ValueIds,
    /// One row's ids, reused so counting a row allocates nothing.
    row: Vec<ValueId>,
    /// The source's knowledge version when this probe was snapshotted.
    /// [`DriftRegistry::absorb`] drops the probe if the version has moved
    /// since: its reference side was paired against statistics that a
    /// concurrent refresh has replaced, and merging it into the reset
    /// detector would register the *old-vs-new* gap as live drift.
    version: u64,
    /// The validated live tuples themselves (not just their counts), kept
    /// so [`DriftRegistry::absorb`] can route them into the source's
    /// [`SampleStream`] for incremental folding instead of discarding
    /// them. Capped at `row_capacity`; counts keep accumulating past it.
    live_rows: Vec<Tuple>,
    row_capacity: usize,
}

impl DriftProbe {
    fn shaped(
        tracked: Vec<Option<Vec<AttrId>>>,
        sample: Arc<ColumnarRelation>,
        row_capacity: usize,
    ) -> Self {
        DriftProbe {
            live: SideCounts::shaped(&tracked),
            reference: SideCounts::shaped(&tracked),
            tracked,
            ids: ValueIds::over(sample),
            row: Vec::new(),
            version: 0,
            live_rows: Vec::new(),
            row_capacity,
        }
    }

    /// A detector's accumulator for `stats`, counting in its sample's id
    /// space. It holds no live rows (capacity 0): absorbed rows go to the
    /// stream.
    fn accumulator(stats: &SourceStats) -> Self {
        let sample = stats.selectivity().sample();
        let tracked = sample
            .schema()
            .attr_ids()
            .map(|a| stats.afds().best(a).map(|afd| afd.lhs.clone()))
            .collect();
        DriftProbe::shaped(tracked, Arc::clone(sample.columnar()), 0)
    }

    /// Whether this probe has accumulated nothing.
    pub fn is_empty(&self) -> bool {
        self.live.rows == 0 && self.reference.rows == 0
    }

    /// Live tuples observed so far.
    pub fn observed_rows(&self) -> u64 {
        self.live.rows
    }

    /// Accumulates one paired observation: `reference` is the mined
    /// sample filtered by the query that produced the validated `live`
    /// response, so both sides carry identical query conditioning.
    /// Tuples whose arity disagrees with the mined schema are skipped
    /// (validation already quarantines them; this is belt and braces).
    pub fn observe(&mut self, reference: &[Tuple], live: &[Tuple]) {
        self.reference
            .add_rows(&self.tracked, &mut self.ids, &mut self.row, reference);
        self.live
            .add_rows(&self.tracked, &mut self.ids, &mut self.row, live);
        let arity = self.live.values.len();
        for t in live {
            if self.live_rows.len() >= self.row_capacity {
                break;
            }
            if t.arity() == arity {
                self.live_rows.push(t.clone());
            }
        }
    }

    /// Whether `other` counts the same tracked sets in the same id space,
    /// so its counts may merge into these.
    fn shaped_like(&self, other: &DriftProbe) -> bool {
        Arc::ptr_eq(self.ids.sample(), other.ids.sample()) && self.tracked == other.tracked
    }

    fn merge_into(mut self, dst: &mut DriftProbe) {
        let rename = dst.ids.adopt(&self.ids);
        dst.live.merge(self.live, &rename);
        dst.reference.merge(self.reference, &rename);
        let room = dst.row_capacity.saturating_sub(dst.live_rows.len());
        dst.live_rows.extend(self.live_rows.drain(..).take(room));
    }
}

/// The two components and their combination, as currently accumulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftStatistic {
    /// Worst per-attribute single-value probability shift (L∞ distance)
    /// between the paired reference and live value distributions.
    pub value_divergence: f64,
    /// Worst `|reference − live|` AFD confidence delta, both sides
    /// estimated support-weighted over their accumulated counts.
    pub afd_divergence: f64,
    /// `max(value_divergence, afd_divergence)`.
    pub statistic: f64,
}

/// Worst single-value probability shift between two (unnormalized) count
/// maps — the L∞ distance between the empirical distributions.
///
/// L∞ is used instead of total variation because the reference side is a
/// small probed sample: on high-cardinality attributes (prices,
/// mileages) two honest samples share few exact values, so TV saturates
/// near 1 on sampling noise alone, while every individual value's
/// probability stays tiny under L∞. The drift mode that actually poisons
/// rewrites — a category collapsing or newly dominating — moves one
/// value's probability by a large amount and is caught.
fn value_shift(reference: &ValueCounts, live: &ValueCounts) -> f64 {
    let ref_total = reference.non_null();
    let live_total = live.non_null();
    if ref_total == 0 || live_total == 0 {
        return 0.0;
    }
    let mut worst = 0.0f64;
    for (v, rn) in reference.iter() {
        let rp = rn as f64 / ref_total as f64;
        let lp = live.get(v) as f64 / live_total as f64;
        worst = worst.max((rp - lp).abs());
    }
    for (v, ln) in live.iter() {
        if reference.get(v) == 0 {
            worst = worst.max(ln as f64 / live_total as f64);
        }
    }
    worst
}

/// Drift state for one source: the absorbed paired counts (shaped by the
/// mined stats) and, once crossed, the sticky verdict.
#[derive(Debug)]
pub struct DriftDetector {
    source: String,
    config: DriftConfig,
    /// Holds no live rows (capacity 0): absorbed rows go to the stream.
    accumulated: DriftProbe,
    verdict: Option<DriftVerdict>,
}

impl DriftDetector {
    /// Builds a detector against a source's mined statistics.
    pub fn new(source: impl Into<String>, stats: &SourceStats, config: DriftConfig) -> Self {
        let accumulated = DriftProbe::accumulator(stats);
        DriftDetector {
            source: source.into(),
            config,
            accumulated,
            verdict: None,
        }
    }

    /// An empty pass-local probe shaped like this detector's statistics.
    pub fn probe(&self) -> DriftProbe {
        let tracked = self.accumulated.tracked.clone();
        let sample = Arc::clone(self.accumulated.ids.sample());
        DriftProbe::shaped(tracked, sample, self.config.stream_capacity)
    }

    /// Merges a pass-local probe and re-evaluates the statistic; returns
    /// the verdict if this absorption is the one that crossed the
    /// threshold (verdicts fire once and stay until [`DriftDetector::reset`]).
    ///
    /// A probe shaped against another sample or other tracked sets than
    /// this detector's — one taken before a [`DriftDetector::reset`] to
    /// statistics mined from another sample, say — contributes no counts:
    /// ids from another sample's dictionary name other values.
    pub fn absorb(&mut self, probe: DriftProbe) -> Option<DriftVerdict> {
        if !probe.shaped_like(&self.accumulated) {
            return None;
        }
        probe.merge_into(&mut self.accumulated);
        if self.verdict.is_some() || self.accumulated.live.rows < self.config.min_observations {
            return None;
        }
        let stat = self.statistic();
        if stat.statistic >= self.config.threshold {
            let verdict = DriftVerdict {
                source: self.source.clone(),
                statistic: stat.statistic,
                value_divergence: stat.value_divergence,
                afd_divergence: stat.afd_divergence,
                threshold: self.config.threshold,
                observed: self.accumulated.live.rows,
            };
            self.verdict = Some(verdict.clone());
            return Some(verdict);
        }
        None
    }

    /// The current divergence statistic over everything absorbed so far.
    /// An attribute contributes only when *both* sides have evidence for
    /// it — a query whose conditioning leaves one side empty says nothing
    /// about drift.
    pub fn statistic(&self) -> DriftStatistic {
        let reference = &self.accumulated.reference;
        let live = &self.accumulated.live;

        let mut value_divergence = 0.0;
        for (ref_counts, live_counts) in reference.values.iter().zip(&live.values) {
            value_divergence = value_shift(ref_counts, live_counts).max(value_divergence);
        }

        // Untracked attributes have no AFD evidence on either side.
        let mut afd_divergence = 0.0;
        for (ref_groups, live_groups) in reference.afds.iter().zip(&live.afds) {
            if let (Some(r), Some(l)) = (afd_confidence(ref_groups), afd_confidence(live_groups)) {
                afd_divergence = (r - l).abs().max(afd_divergence);
            }
        }

        DriftStatistic {
            value_divergence,
            afd_divergence,
            statistic: value_divergence.max(afd_divergence),
        }
    }

    /// Whether the verdict has fired and the source awaits re-mining.
    pub fn is_drifted(&self) -> bool {
        self.verdict.is_some()
    }

    /// The sticky verdict, if fired.
    pub fn verdict(&self) -> Option<&DriftVerdict> {
        self.verdict.as_ref()
    }

    /// The knowledge weight: [`DEMOTE_FACTOR`] once drifted, `1.0` before.
    pub fn weight(&self) -> f64 {
        if self.is_drifted() {
            DEMOTE_FACTOR
        } else {
            1.0
        }
    }

    /// Live tuples absorbed so far.
    pub fn observed_rows(&self) -> u64 {
        self.accumulated.live.rows
    }

    /// Rebuilds the tracked shape from freshly mined statistics and clears
    /// the accumulated counts and the verdict — called after a successful
    /// re-mine.
    pub fn reset(&mut self, stats: &SourceStats) {
        self.accumulated = DriftProbe::accumulator(stats);
        self.verdict = None;
    }
}

/// A shared registry of per-source drift detectors, following the same
/// snapshot/probe/absorb discipline as `qpiad_db::health::HealthRegistry`.
///
/// The registry doubles as the authority on *knowledge versions*: every
/// event that changes what the mediator believes about a source — initial
/// registration, a drift verdict demoting the source's estimates, a
/// re-mine swapping in fresh statistics — bumps that source's counter on
/// an internal [`KnowledgeVersionClock`]. Knowledge-derived caches (the
/// mediation plan cache) fold [`DriftRegistry::knowledge_version`] into
/// their keys, so stale plans are orphaned the moment knowledge moves.
#[derive(Debug)]
pub struct DriftRegistry {
    config: DriftConfig,
    inner: Mutex<BTreeMap<String, DriftDetector>>,
    versions: KnowledgeVersionClock,
    /// Per-source queues of validated live rows awaiting an incremental
    /// fold. A separate lock from `inner` — stream pushes happen after the
    /// detector work, never nested, so the two can't deadlock.
    streams: Mutex<BTreeMap<String, SampleStream>>,
}

impl DriftRegistry {
    /// A registry with the given configuration.
    pub fn new(config: DriftConfig) -> Self {
        DriftRegistry {
            config,
            inner: Mutex::new(BTreeMap::new()),
            versions: KnowledgeVersionClock::new(),
            streams: Mutex::new(BTreeMap::new()),
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> DriftConfig {
        self.config
    }

    /// Registers (or re-registers, resetting) a source's detector. Bumps
    /// the source's knowledge version: registration installs the statistics
    /// every plan for this source derives from.
    pub fn register(&self, source: &str, stats: &SourceStats) {
        {
            let mut inner = self.inner.lock();
            inner.insert(
                source.to_string(),
                DriftDetector::new(source, stats, self.config),
            );
            self.versions.bump(source);
        }
        self.streams.lock().insert(
            source.to_string(),
            SampleStream::new(self.config.stream_capacity),
        );
    }

    /// An empty pass-local probe for a registered source, stamped with the
    /// source's current knowledge version.
    pub fn probe(&self, source: &str) -> Option<DriftProbe> {
        let inner = self.inner.lock();
        inner.get(source).map(|d| {
            let mut probe = d.probe();
            probe.version = self.versions.current(source);
            probe
        })
    }

    /// Absorbs a pass-local probe; returns the verdict if this absorption
    /// crossed the threshold. Call sequentially, in registration order.
    ///
    /// A probe snapshotted against a knowledge version that has since moved
    /// (a refresh published mid-pass) contributes nothing to the drift
    /// *statistic*: its reference side was paired with superseded
    /// statistics, and counting the old-vs-new gap as live drift would
    /// re-fire the verdict the refresh just cleared. Its validated live
    /// rows are still real observations of the source, though, so they are
    /// salvaged into the source's [`SampleStream`] (counted as such)
    /// instead of being silently dropped with the counts.
    ///
    /// A fired verdict demotes the source's knowledge, so it also bumps the
    /// source's knowledge version — cached plans built from the now-demoted
    /// estimates must not be served again.
    pub fn absorb(&self, source: &str, mut probe: DriftProbe) -> Option<DriftVerdict> {
        let rows = std::mem::take(&mut probe.live_rows);
        let (stale, verdict) = {
            let mut inner = self.inner.lock();
            let stale = probe.version != self.versions.current(source);
            let verdict = if stale {
                None
            } else {
                inner.get_mut(source).and_then(|d| d.absorb(probe))
            };
            if verdict.is_some() {
                self.versions.bump(source);
            }
            (stale, verdict)
        };
        if !rows.is_empty() {
            let mut streams = self.streams.lock();
            if let Some(stream) = streams.get_mut(source) {
                for t in rows {
                    stream.push(t, stale);
                }
            }
        }
        verdict
    }

    /// Whether the source's verdict has fired.
    pub fn is_drifted(&self, source: &str) -> bool {
        self.inner
            .lock()
            .get(source)
            .is_some_and(DriftDetector::is_drifted)
    }

    /// The source's knowledge weight (1.0 for unregistered sources).
    pub fn weight(&self, source: &str) -> f64 {
        self.inner
            .lock()
            .get(source)
            .map_or(1.0, DriftDetector::weight)
    }

    /// The source's sticky verdict, if fired.
    pub fn verdict(&self, source: &str) -> Option<DriftVerdict> {
        self.inner
            .lock()
            .get(source)
            .and_then(|d| d.verdict().cloned())
    }

    /// The source's current statistic, if registered.
    pub fn statistic(&self, source: &str) -> Option<DriftStatistic> {
        self.inner.lock().get(source).map(DriftDetector::statistic)
    }

    /// Live tuples absorbed for the source so far.
    pub fn observed_rows(&self, source: &str) -> u64 {
        self.inner
            .lock()
            .get(source)
            .map_or(0, DriftDetector::observed_rows)
    }

    /// Sources whose verdict has fired and that await re-mining, in
    /// deterministic (name) order.
    pub fn pending_refresh(&self) -> Vec<String> {
        self.inner
            .lock()
            .iter()
            .filter(|(_, d)| d.is_drifted())
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Resets a source's detector against freshly mined statistics —
    /// called by the re-mining path after an atomic snapshot swap. Bumps
    /// the source's knowledge version: plans built from the replaced
    /// statistics are stale.
    pub fn note_refreshed(&self, source: &str, stats: &SourceStats) {
        {
            let mut inner = self.inner.lock();
            if let Some(d) = inner.get_mut(source) {
                d.reset(stats);
            }
            // Bumped under the detector lock so [`DriftRegistry::absorb`]'s
            // stale-probe check and the reset are one atomic step: no probe
            // snapshotted against the old statistics can slip into the reset
            // detector between the two.
            self.versions.bump(source);
        }
        // A full refresh re-probed the source: queued rows are superseded
        // by the fresher sample it mined from.
        if let Some(stream) = self.streams.lock().get_mut(source) {
            stream.discard();
        }
    }

    /// Resets a source's detector after an *incremental fold* published
    /// `stats`, consuming the streamed rows up to the `through` watermark
    /// of the [`DriftRegistry::stream_snapshot`] the fold was built from.
    /// Rows that arrived after the snapshot stay queued for the next fold.
    /// Bumps the knowledge version like [`DriftRegistry::note_refreshed`].
    pub fn note_folded(&self, source: &str, stats: &SourceStats, through: u64) {
        {
            let mut inner = self.inner.lock();
            if let Some(d) = inner.get_mut(source) {
                d.reset(stats);
            }
            self.versions.bump(source);
        }
        if let Some(stream) = self.streams.lock().get_mut(source) {
            stream.clear_through(through);
        }
    }

    /// The queued validated rows of a source's sample stream (arrival
    /// order) plus the watermark to pass to [`DriftRegistry::note_folded`]
    /// once they are folded. `None` if the source is unregistered or
    /// nothing is queued.
    pub fn stream_snapshot(&self, source: &str) -> Option<(Vec<Tuple>, u64)> {
        let streams = self.streams.lock();
        let stream = streams.get(source)?;
        if stream.is_empty() {
            return None;
        }
        Some(stream.snapshot())
    }

    /// Rows currently queued for a source (0 if unregistered).
    pub fn stream_pending(&self, source: &str) -> usize {
        self.streams
            .lock()
            .get(source)
            .map_or(0, SampleStream::pending)
    }

    /// Aggregate sample-stream counters across all registered sources.
    pub fn stream_stats(&self) -> StreamStats {
        let streams = self.streams.lock();
        let mut total = StreamStats::default();
        for stream in streams.values() {
            total.merge(&stream.stats());
        }
        total
    }

    /// The source's current knowledge version. Monotonic; moves on
    /// registration, on a fired [`DriftVerdict`], and on re-mine
    /// ([`DriftRegistry::note_refreshed`]).
    pub fn knowledge_version(&self, source: &str) -> u64 {
        self.versions.current(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::{MiningConfig, SourceStats};
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::{Relation, Value};

    fn mined() -> (Relation, SourceStats) {
        mined_with(7, &MiningConfig::default())
    }

    /// Knowledge mined from the same corrupted cars source, over the
    /// sample drawn with `sample_seed`.
    fn mined_with(sample_seed: u64, config: &MiningConfig) -> (Relation, SourceStats) {
        let ground = CarsConfig::default().with_rows(2_000).generate(23);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.15, sample_seed);
        let stats = SourceStats::mine(&sample, ed.len(), config);
        (ed, stats)
    }

    /// Knowledge mined with determining sets of up to four attributes,
    /// neither near-key suppression nor a minimality margin, so some
    /// tracked sets are wider than the inline group keys.
    fn mined_wide() -> (Relation, SourceStats) {
        let mut config = MiningConfig::default();
        config.tane.max_lhs = 4;
        config.tane.minimality_epsilon = 0.0;
        config.tane.near_key_conf = f64::INFINITY;
        let world = mined_with(7, &config);
        let tracked = DriftDetector::new("s", &world.1, DriftConfig::default())
            .accumulated
            .tracked;
        assert!(
            tracked
                .iter()
                .flatten()
                .any(|lhs| lhs.len() > crate::counts::INLINE_LHS),
            "the wide world must track a set wider than the inline keys: {tracked:?}"
        );
        world
    }

    /// The drift counting as it stood before the shared count tables: a
    /// naive transcription of the statistic that the proptest below pins
    /// the detector against bit for bit.
    mod naive {
        use std::collections::BTreeMap;

        use qpiad_db::{AttrId, Tuple, Value};

        /// One side of the paired comparison: per-attribute value counts plus
        /// AFD evidence (determining-set valuation → rhs value counts).
        #[derive(Debug, Clone, Default)]
        pub(super) struct SideCounts {
            attr_counts: Vec<BTreeMap<Value, u64>>,
            afd_counts: Vec<BTreeMap<Vec<Value>, BTreeMap<Value, u64>>>,
            rows: u64,
        }

        impl SideCounts {
            pub(super) fn shaped(arity: usize) -> Self {
                SideCounts {
                    attr_counts: vec![BTreeMap::new(); arity],
                    afd_counts: vec![BTreeMap::new(); arity],
                    rows: 0,
                }
            }

            pub(super) fn accumulate(&mut self, tracked: &[Option<Vec<AttrId>>], tuples: &[Tuple]) {
                let arity = self.attr_counts.len();
                for t in tuples {
                    if t.arity() != arity {
                        continue;
                    }
                    self.rows += 1;
                    for (i, v) in t.values().iter().enumerate() {
                        if !v.is_null() {
                            *self.attr_counts[i].entry(v.clone()).or_insert(0u64) += 1;
                        }
                    }
                    for (i, lhs) in tracked.iter().enumerate() {
                        let Some(lhs) = lhs else { continue };
                        let rhs = &t.values()[i];
                        if rhs.is_null() || lhs.iter().any(|a| t.values()[a.index()].is_null()) {
                            continue;
                        }
                        let key: Vec<Value> =
                            lhs.iter().map(|a| t.values()[a.index()].clone()).collect();
                        *self.afd_counts[i]
                            .entry(key)
                            .or_default()
                            .entry(rhs.clone())
                            .or_insert(0u64) += 1;
                    }
                }
            }

            pub(super) fn merge_into(self, dst: &mut SideCounts) {
                dst.rows += self.rows;
                for (dst, src) in dst.attr_counts.iter_mut().zip(self.attr_counts) {
                    for (v, n) in src {
                        *dst.entry(v).or_insert(0) += n;
                    }
                }
                for (dst, src) in dst.afd_counts.iter_mut().zip(self.afd_counts) {
                    for (key, counts) in src {
                        let slot = dst.entry(key).or_default();
                        for (v, n) in counts {
                            *slot.entry(v).or_insert(0) += n;
                        }
                    }
                }
            }

            /// Support-weighted confidence of attribute `i`'s tracked determining
            /// set over this side's counts, or `None` without evidence.
            fn afd_confidence(&self, i: usize) -> Option<f64> {
                let groups = &self.afd_counts[i];
                let total: u64 = groups.values().flat_map(|m| m.values()).sum();
                if total == 0 {
                    return None;
                }
                let agree: u64 = groups
                    .values()
                    .map(|m| m.values().copied().max().unwrap_or(0))
                    .sum();
                Some(agree as f64 / total as f64)
            }
        }

        /// Worst single-value probability shift between two (unnormalized) count
        /// maps — the L∞ distance between the empirical distributions.
        fn value_shift(reference: &BTreeMap<Value, u64>, live: &BTreeMap<Value, u64>) -> f64 {
            let ref_total: u64 = reference.values().sum();
            let live_total: u64 = live.values().sum();
            if ref_total == 0 || live_total == 0 {
                return 0.0;
            }
            let mut worst = 0.0f64;
            for (v, &rn) in reference {
                let rp = rn as f64 / ref_total as f64;
                let lp = live.get(v).map_or(0.0, |&n| n as f64 / live_total as f64);
                worst = worst.max((rp - lp).abs());
            }
            for (v, &ln) in live {
                if !reference.contains_key(v) {
                    worst = worst.max(ln as f64 / live_total as f64);
                }
            }
            worst
        }

        /// `(value_divergence, afd_divergence, statistic)` over two
        /// accumulated sides, as `DriftDetector::statistic` computed it.
        pub(super) fn statistic(
            tracked: &[Option<Vec<AttrId>>],
            reference: &SideCounts,
            live: &SideCounts,
        ) -> (f64, f64, f64) {
            let mut value_divergence = 0.0;
            for (ref_counts, live_counts) in reference.attr_counts.iter().zip(&live.attr_counts) {
                if ref_counts.is_empty() || live_counts.is_empty() {
                    continue;
                }
                value_divergence = value_shift(ref_counts, live_counts).max(value_divergence);
            }
            let mut afd_divergence = 0.0;
            for (i, lhs) in tracked.iter().enumerate() {
                if lhs.is_none() {
                    continue;
                }
                let (Some(ref_conf), Some(live_conf)) =
                    (reference.afd_confidence(i), live.afd_confidence(i))
                else {
                    continue;
                };
                afd_divergence = (ref_conf - live_conf).abs().max(afd_divergence);
            }
            (
                value_divergence,
                afd_divergence,
                value_divergence.max(afd_divergence),
            )
        }
    }

    /// One generated row: a sampled tuple with some attributes swapped for a
    /// donor tuple's and some nulled (or, with `novel`, set to one of a few
    /// values no sample holds, on any attribute, determining-set positions
    /// included); one row in six has the wrong arity.
    type RowSpec = (usize, usize, u64, u64, u8);

    /// The values no mined sample holds: strings and integers, so novel
    /// ids reach attributes of both types.
    fn novel_value(k: usize) -> Value {
        match k % 6 {
            k @ 0..=3 => Value::str(format!("novel-{k}")),
            k => Value::int(-(k as i64)),
        }
    }

    fn spec_row(ed: &Relation, (base, donor, nulls, swaps, shape): RowSpec, novel: bool) -> Tuple {
        let tuples = ed.tuples();
        let donor_values = tuples[donor % tuples.len()].values();
        let mut values = tuples[base % tuples.len()].values().to_vec();
        for (a, v) in values.iter_mut().enumerate() {
            if (swaps >> (2 * a)) & 3 == 0 {
                *v = donor_values[a].clone();
            }
            match (nulls >> (2 * a)) & 3 {
                0 => *v = Value::Null,
                1 if novel => *v = novel_value(donor + a),
                _ => {}
            }
        }
        match shape % 12 {
            0 => {
                values.pop();
            }
            1 => values.push(Value::int(7)),
            _ => {}
        }
        Tuple::new(qpiad_db::TupleId(base as u32), values)
    }

    /// The detector's statistic and the naive transcription's
    /// `(value, afd, statistic)` after absorbing `probes`, each a list of
    /// paired `(reference, live)` observations.
    fn against_naive(
        stats: &SourceStats,
        probes: &[Vec<(&[Tuple], &[Tuple])>],
    ) -> (DriftStatistic, (f64, f64, f64)) {
        let mut detector = DriftDetector::new("s", stats, DriftConfig::default());
        let tracked = detector.accumulated.tracked.clone();
        let arity = tracked.len();
        let mut naive_ref = naive::SideCounts::shaped(arity);
        let mut naive_live = naive::SideCounts::shaped(arity);
        for observations in probes {
            let mut probe = detector.probe();
            let mut probe_ref = naive::SideCounts::shaped(arity);
            let mut probe_live = naive::SideCounts::shaped(arity);
            for (rc, lc) in observations {
                probe.observe(rc, lc);
                probe_ref.accumulate(&tracked, rc);
                probe_live.accumulate(&tracked, lc);
            }
            detector.absorb(probe);
            probe_ref.merge_into(&mut naive_ref);
            probe_live.merge_into(&mut naive_live);
        }
        (
            detector.statistic(),
            naive::statistic(&tracked, &naive_ref, &naive_live),
        )
    }

    fn assert_bit_equal(got: DriftStatistic, (value, afd, stat): (f64, f64, f64)) {
        assert_eq!(got.value_divergence.to_bits(), value.to_bits());
        assert_eq!(got.afd_divergence.to_bits(), afd.to_bits());
        assert_eq!(got.statistic.to_bits(), stat.to_bits());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The detector's statistic is bit-equal to the naive transcription
        /// over random paired batches (nulls, wrong-arity rows and novel
        /// values on either side included), however the observations are
        /// split into probes, and whether the tracked sets fit the inline
        /// group keys or not. Novel values fall on random rows, so probes
        /// see them first in different orders and hand them different
        /// probe-local ids.
        #[test]
        fn statistic_matches_the_naive_transcription(
            reference in proptest::collection::vec(
                (0usize..2_000, 0usize..2_000, proptest::prelude::any::<u64>(),
                 proptest::prelude::any::<u64>(), proptest::prelude::any::<u8>()),
                0..160,
            ),
            live in proptest::collection::vec(
                (0usize..2_000, 0usize..2_000, proptest::prelude::any::<u64>(),
                 proptest::prelude::any::<u64>(), proptest::prelude::any::<u8>()),
                0..160,
            ),
            chunks in proptest::collection::vec(1usize..48, 1..6),
            per_probe in 1usize..4,
            // Bit 0: novel values on the reference side; bit 1: on the live
            // side; bit 2: the world with wide determining sets.
            flags in 0u8..8,
        ) {
            let (novel_ref, novel_live, wide) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            static WORLD: std::sync::OnceLock<(Relation, SourceStats)> = std::sync::OnceLock::new();
            static WIDE: std::sync::OnceLock<(Relation, SourceStats)> = std::sync::OnceLock::new();
            let (ed, stats) =
                if wide { WIDE.get_or_init(mined_wide) } else { WORLD.get_or_init(mined) };
            let reference: Vec<Tuple> =
                reference.into_iter().map(|s| spec_row(ed, s, novel_ref)).collect();
            let live: Vec<Tuple> = live.into_iter().map(|s| spec_row(ed, s, novel_live)).collect();

            // Chunk both sides with the same cycled sizes into paired
            // observations, then group consecutive observations into probes.
            let mut observations: Vec<(&[Tuple], &[Tuple])> = Vec::new();
            let (mut r, mut l) = (&reference[..], &live[..]);
            for size in chunks.iter().cycle() {
                if r.is_empty() && l.is_empty() {
                    break;
                }
                let (rc, rr) = r.split_at((*size).min(r.len()));
                let (lc, lr) = l.split_at((*size).min(l.len()));
                observations.push((rc, lc));
                (r, l) = (rr, lr);
            }
            let probes: Vec<Vec<(&[Tuple], &[Tuple])>> =
                observations.chunks(per_probe).map(<[_]>::to_vec).collect();

            let (got, (value, afd, stat)) = against_naive(stats, &probes);
            proptest::prop_assert_eq!(got.value_divergence.to_bits(), value.to_bits());
            proptest::prop_assert_eq!(got.afd_divergence.to_bits(), afd.to_bits());
            proptest::prop_assert_eq!(got.statistic.to_bits(), stat.to_bits());
        }
    }

    #[test]
    fn novel_values_seen_in_opposite_orders_merge_by_value() {
        // Two probes meet the same three novel makes in opposite orders,
        // so each hands them the same probe-local ids for different
        // values; the detector must count them by value.
        let (ed, stats) = mined();
        let make = ed.schema().expect_attr("make");
        let rows: Vec<Tuple> = ed.tuples().iter().take(90).cloned().collect();
        let relabel = |order: [usize; 3]| -> Vec<Tuple> {
            rows.iter()
                .enumerate()
                .map(|(i, t)| t.with_value(make, novel_value(order[i * 3 / rows.len()])))
                .collect()
        };
        let (forward, backward) = (relabel([0, 1, 2]), relabel([2, 1, 0]));
        let probes = vec![
            vec![(&rows[..], &forward[..])],
            vec![(&rows[..], &backward[..])],
        ];
        let (got, naive) = against_naive(&stats, &probes);
        assert!(got.value_divergence > 0.0);
        assert_bit_equal(got, naive);
    }

    #[test]
    fn statistic_over_wide_determining_sets_matches_the_naive_transcription() {
        // Rows re-delivered with a wide set's target changed to novel
        // values: the wide groups now disagree, and the novel ids land in
        // wide keys and targets alike, first seen by the second probe.
        let (ed, stats) = mined_wide();
        let tracked = DriftDetector::new("s", &stats, DriftConfig::default())
            .accumulated
            .tracked;
        let target = tracked
            .iter()
            .position(|lhs| {
                lhs.as_ref()
                    .is_some_and(|lhs| lhs.len() > crate::counts::INLINE_LHS)
            })
            .map(AttrId)
            .expect("a wide set");
        let rows = &ed.tuples()[..400];
        let changed: Vec<Tuple> = rows
            .iter()
            .enumerate()
            .map(|(i, t)| t.with_value(target, novel_value(i)))
            .collect();
        let probes = vec![vec![(rows, rows)], vec![(rows, &changed[..])]];
        let (got, naive) = against_naive(&stats, &probes);
        assert!(got.afd_divergence > 0.0);
        assert_bit_equal(got, naive);
    }

    #[test]
    fn paired_self_comparison_registers_exactly_zero_drift() {
        let (_, stats) = mined();
        let mut detector = DriftDetector::new("cars.com", &stats, DriftConfig::default());
        let sample: Vec<_> = stats.selectivity().sample().tuples().to_vec();
        let mut probe = detector.probe();
        probe.observe(&sample, &sample);
        assert!(detector.absorb(probe).is_none());
        let stat = detector.statistic();
        // Identical paired sides through identical estimators: exact zero
        // on both components, no estimator bias to tolerate.
        assert_eq!(stat.value_divergence, 0.0);
        assert_eq!(stat.afd_divergence, 0.0);
        assert_eq!(stat.statistic, 0.0);
        assert!(!detector.is_drifted());
        assert_eq!(detector.weight(), 1.0);
    }

    #[test]
    fn skewed_responses_cross_the_threshold_once() {
        let (ed, stats) = mined();
        let make = ed.schema().expect_attr("make");
        let mut detector = DriftDetector::new(
            "cars.com",
            &stats,
            DriftConfig::default()
                .with_threshold(0.3)
                .with_min_observations(10),
        );
        // Live responses where every make collapsed to one value the
        // reference never saw: large TV distance on `make`, broken
        // make-determining AFDs.
        let reference: Vec<_> = ed.tuples().iter().take(200).cloned().collect();
        let skewed: Vec<_> = reference
            .iter()
            .map(|t| t.with_value(make, qpiad_db::Value::str("Monopoly")))
            .collect();
        let mut probe = detector.probe();
        probe.observe(&reference, &skewed);
        let verdict = detector.absorb(probe).expect("verdict fires");
        assert_eq!(verdict.source, "cars.com");
        assert!(verdict.statistic >= 0.3);
        assert_eq!(verdict.observed, 200);
        assert!(detector.is_drifted());
        assert_eq!(detector.weight(), 0.5);

        // The verdict is sticky and fires only once.
        let mut probe = detector.probe();
        probe.observe(&reference, &skewed);
        assert!(detector.absorb(probe).is_none());
        assert!(detector.is_drifted());
    }

    #[test]
    fn absorb_order_does_not_change_the_statistic() {
        let (ed, stats) = mined();
        let tuples = ed.tuples();
        let (front, back) = tuples.split_at(tuples.len() / 3);

        let config = DriftConfig::default();
        let mut forward = DriftDetector::new("s", &stats, config);
        let mut p = forward.probe();
        p.observe(front, back);
        forward.absorb(p);
        let mut p = forward.probe();
        p.observe(back, front);
        forward.absorb(p);

        let mut reverse = DriftDetector::new("s", &stats, config);
        let mut p = reverse.probe();
        p.observe(back, front);
        reverse.absorb(p);
        let mut p = reverse.probe();
        p.observe(front, back);
        reverse.absorb(p);

        let a = forward.statistic();
        let b = reverse.statistic();
        assert_eq!(a.statistic.to_bits(), b.statistic.to_bits());
        assert_eq!(a.value_divergence.to_bits(), b.value_divergence.to_bits());
        assert_eq!(a.afd_divergence.to_bits(), b.afd_divergence.to_bits());
    }

    #[test]
    fn reset_clears_the_verdict_and_live_counts() {
        let (ed, stats) = mined();
        let make = ed.schema().expect_attr("make");
        let mut detector = DriftDetector::new(
            "cars.com",
            &stats,
            DriftConfig::default()
                .with_threshold(0.2)
                .with_min_observations(5),
        );
        let reference: Vec<_> = ed.tuples().iter().take(100).cloned().collect();
        let skewed: Vec<_> = reference
            .iter()
            .map(|t| t.with_value(make, qpiad_db::Value::str("Monopoly")))
            .collect();
        let mut probe = detector.probe();
        probe.observe(&reference, &skewed);
        assert!(detector.absorb(probe).is_some());

        detector.reset(&stats);
        assert!(!detector.is_drifted());
        assert_eq!(detector.observed_rows(), 0);
        assert_eq!(detector.weight(), 1.0);
    }

    #[test]
    fn a_probe_over_another_sample_adds_no_counts() {
        let (ed, stats) = mined();
        let make = ed.schema().expect_attr("make");
        let config = DriftConfig::default()
            .with_threshold(0.2)
            .with_min_observations(5);
        let mut detector = DriftDetector::new("cars.com", &stats, config);
        let reference: Vec<_> = ed.tuples().iter().take(100).cloned().collect();
        let skewed: Vec<_> = reference
            .iter()
            .map(|t| t.with_value(make, Value::str("Monopoly")))
            .collect();

        // Taken, then outlived by a reset to knowledge mined from another
        // sample: its ids index the old sample's dictionary.
        let mut stale = detector.probe();
        stale.observe(&reference, &skewed);
        let (_, remined) = mined_with(8, &MiningConfig::default());
        detector.reset(&remined);
        assert!(detector.absorb(stale).is_none());
        assert_eq!(detector.observed_rows(), 0);
        assert_eq!(detector.statistic().statistic, 0.0);

        // A probe from another detector over the new sample counts: the
        // guard compares the sample image, not the detector.
        let mut foreign = DriftDetector::new("cars.com", &remined, config).probe();
        foreign.observe(&reference, &skewed);
        assert!(detector.absorb(foreign).is_some());
        assert_eq!(detector.observed_rows(), 100);

        // So does a probe from the detector itself.
        let mut fresh = detector.probe();
        fresh.observe(&reference, &skewed);
        assert!(
            detector.absorb(fresh).is_none(),
            "the verdict already fired"
        );
        assert_eq!(detector.observed_rows(), 200);
    }

    #[test]
    fn registry_tracks_pending_refreshes_in_name_order() {
        let (ed, stats) = mined();
        let make = ed.schema().expect_attr("make");
        let registry = DriftRegistry::new(
            DriftConfig::default()
                .with_threshold(0.2)
                .with_min_observations(5),
        );
        registry.register("zeta", &stats);
        registry.register("alpha", &stats);
        assert!(registry.pending_refresh().is_empty());
        assert_eq!(registry.weight("unregistered"), 1.0);

        let reference: Vec<_> = ed.tuples().iter().take(100).cloned().collect();
        let skewed: Vec<_> = reference
            .iter()
            .map(|t| t.with_value(make, qpiad_db::Value::str("Monopoly")))
            .collect();
        for name in ["zeta", "alpha"] {
            let mut probe = registry.probe(name).unwrap();
            probe.observe(&reference, &skewed);
            assert!(registry.absorb(name, probe).is_some());
        }
        assert_eq!(
            registry.pending_refresh(),
            vec!["alpha".to_string(), "zeta".to_string()]
        );

        registry.note_refreshed("alpha", &stats);
        assert_eq!(registry.pending_refresh(), vec!["zeta".to_string()]);
        assert!(registry.verdict("zeta").is_some());
        assert!(registry.verdict("alpha").is_none());
    }

    #[test]
    fn a_probe_outlived_by_a_refresh_is_dropped_not_absorbed() {
        let (ed, stats) = mined();
        let make = ed.schema().expect_attr("make");
        let registry = DriftRegistry::new(
            DriftConfig::default()
                .with_threshold(0.2)
                .with_min_observations(5),
        );
        registry.register("s", &stats);

        // A pass snapshots its probe, then a refresh publishes mid-pass.
        let reference: Vec<_> = ed.tuples().iter().take(100).cloned().collect();
        let skewed: Vec<_> = reference
            .iter()
            .map(|t| t.with_value(make, qpiad_db::Value::str("Monopoly")))
            .collect();
        let mut stale = registry.probe("s").unwrap();
        stale.observe(&reference, &skewed);
        registry.note_refreshed("s", &stats);

        // The stale probe's reference side was paired against replaced
        // statistics — absorbing it would re-fire the verdict the refresh
        // just cleared. Its counts must be dropped whole...
        assert!(registry.absorb("s", stale).is_none());
        assert!(!registry.is_drifted("s"));
        assert_eq!(registry.observed_rows("s"), 0);
        // ...but its validated rows are salvaged into the sample stream:
        // they are real observations regardless of what they were paired
        // against.
        assert_eq!(registry.stream_pending("s"), 100);
        assert_eq!(registry.stream_stats().salvaged, 100);

        // A probe snapshotted after the refresh still detects real drift.
        let mut fresh = registry.probe("s").unwrap();
        fresh.observe(&reference, &skewed);
        assert!(registry.absorb("s", fresh).is_some());
        assert!(registry.is_drifted("s"));
    }

    #[test]
    fn absorbed_probes_feed_the_sample_stream() {
        let (ed, stats) = mined();
        let registry = DriftRegistry::new(DriftConfig::default());
        registry.register("s", &stats);

        let live: Vec<_> = ed.tuples().iter().take(30).cloned().collect();
        let mut probe = registry.probe("s").unwrap();
        probe.observe(&live, &live);
        registry.absorb("s", probe);
        assert_eq!(registry.stream_pending("s"), 30);
        assert_eq!(registry.stream_stats().salvaged, 0);

        // A fold consumes the snapshotted rows.
        let (rows, through) = registry.stream_snapshot("s").unwrap();
        assert_eq!(rows.len(), 30);
        registry.note_folded("s", &stats, through);
        assert_eq!(registry.stream_pending("s"), 0);
        assert_eq!(registry.stream_stats().folded, 30);
        assert!(registry.stream_snapshot("s").is_none());

        // A full refresh supersedes whatever is queued.
        let mut probe = registry.probe("s").unwrap();
        probe.observe(&live, &live);
        registry.absorb("s", probe);
        assert_eq!(registry.stream_pending("s"), 30);
        registry.note_refreshed("s", &stats);
        assert_eq!(registry.stream_pending("s"), 0);
        assert_eq!(registry.stream_stats().superseded, 30);
    }

    #[test]
    fn stream_capacity_bounds_queued_rows() {
        let (ed, stats) = mined();
        let registry = DriftRegistry::new(DriftConfig::default().with_stream_capacity(10));
        registry.register("s", &stats);
        let live: Vec<_> = ed.tuples().iter().take(25).cloned().collect();
        let mut probe = registry.probe("s").unwrap();
        probe.observe(&live, &live);
        registry.absorb("s", probe);
        // The probe itself caps row collection at the capacity, so nothing
        // past it even reaches the stream.
        assert_eq!(registry.stream_pending("s"), 10);
    }
}
