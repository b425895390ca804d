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
//! observations: for each response it also filters the mined sample by
//! the *same query* (the certain-answer test, through the sample's
//! posting-list index) and counts the matching sample rows as the
//! reference side. Both sides carry the same conditioning, and both are
//! reduced by the same estimator, so a source that still looks like its
//! sample scores exactly zero. The statistic is
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
//! A probe counts dense `ValueId`s, not values, in an id space over the
//! dictionary the fold counts in too (`counts::ValueIds`): that of the mined
//! sample's columnar image (`stats.selectivity().sample().columnar()`),
//! which the detector shares with every probe it hands out. The reference
//! side is counted straight off that image's id columns — a matching
//! sample row's ids already are the probe's ids — so it hashes and clones
//! no value. Each live cell is interned once through the dictionary; a
//! value the sample never held gets a probe-local id numbered past the
//! dictionary's end, and absorbing the probe renames those ids into the
//! detector's own. Determining-set groups are keyed by inline id arrays,
//! so counting a row clones no value and allocates nothing once its groups
//! exist. Ids from two samples' dictionaries name different values, so a
//! detector takes no counts from a probe shaped against another sample's —
//! one taken before a [`DriftDetector::reset`] to re-mined statistics, say
//! — and a probe observing under statistics mined from another sample than
//! its own counts nothing.
//!
//! ## Evidence after the verdict
//!
//! A verdict is sticky until a re-mine or a fold resets the detector, and
//! the reset discards the counts. Counting past the verdict therefore
//! moves no decision, so a drifted source's probes only tally live rows
//! (for [`DriftDetector::observed_rows`]) and keep them for the sample
//! stream: they intern nothing and never read the sample. Absorbing adds
//! only that tally. Verdicts, knowledge versions, stream contents and
//! answers are what they would be if every probe counted; the one visible
//! difference is that [`DriftDetector::statistic`] stays at its firing
//! value instead of wandering on.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use qpiad_db::version::KnowledgeVersionClock;
use qpiad_db::{AttrId, ColumnarRelation, SelectQuery, Tuple, ValueId};

use crate::counts::{table, tables_over, GroupTable, ValueCounts, ValueIds};
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

/// One side of the paired comparison, over interned ids: one table per
/// distinct set. The empty set's one group counts every attribute's values;
/// each tracked determining set's groups count the attributes it is the
/// best AFD's set for, the AFD evidence.
#[derive(Debug, Clone, Default)]
struct SideCounts {
    /// Sorted by set.
    tables: Vec<GroupTable>,
    rows: u64,
}

impl SideCounts {
    fn shaped(tracked: &[Option<Vec<AttrId>>]) -> Self {
        let values = (0..tracked.len()).map(|a| (&[][..], Some(AttrId(a))));
        let afds = tracked
            .iter()
            .enumerate()
            .filter_map(|(a, lhs)| lhs.as_deref().map(|lhs| (lhs, Some(AttrId(a)))));
        SideCounts {
            tables: tables_over(values.chain(afds)),
            rows: 0,
        }
    }

    /// Counts one row, given as its ids in attribute order.
    fn add_row(&mut self, row: &[ValueId]) {
        self.rows += 1;
        for table in &mut self.tables {
            table.add_row(row);
        }
    }

    /// Adds `src`'s counts to these, its ids renamed by `rename`.
    fn merge(&mut self, src: SideCounts, rename: impl Fn(ValueId) -> ValueId + Copy) {
        self.rows += src.rows;
        for (dst, src) in self.tables.iter_mut().zip(src.tables) {
            dst.merge_renamed(src, rename);
        }
    }

    /// Attribute `a`'s value counts (`None` before any row).
    fn values(&self, a: AttrId) -> Option<&ValueCounts> {
        table(&self.tables, &[])
            .column(a)
            .next()
            .map(|(_, counts)| counts)
    }

    /// Support-weighted confidence of `lhs` determining `rhs`, a tracked
    /// AFD, over this side's evidence, or `None` without evidence. Rows
    /// with a null `rhs` are no evidence: they add nothing to a group's
    /// non-null rows or its majority.
    fn afd_confidence(&self, lhs: &[AttrId], rhs: AttrId) -> Option<f64> {
        let groups = table(&self.tables, lhs).column(rhs);
        let (total, agree) = groups.fold((0, 0), |(total, agree), (_, g)| {
            (total + g.non_null(), agree + g.majority())
        });
        (total > 0).then(|| agree as f64 / total as f64)
    }
}

/// A pass-local accumulator of **paired** observations: validated live
/// response tuples on one side, the mined-sample rows matching the same
/// query on the other. Cheap to clone while empty; filled by one worker
/// during a mediation pass and absorbed sequentially afterwards.
#[derive(Debug, Clone, Default)]
pub struct DriftProbe {
    live: SideCounts,
    reference: SideCounts,
    /// Whether observations are counted. A probe handed out once the
    /// verdict has fired only tallies live rows: until the reset that
    /// clears the verdict discards them, nothing would read its counts.
    counting: bool,
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
            counting: true,
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

    /// Accumulates one paired observation: the validated `live` response
    /// to `query`, paired with the rows of the mined sample that certainly
    /// match the same query, so both sides carry identical query
    /// conditioning. `stats` are the statistics the pass answers under.
    /// The reference side is read straight off their sample's id columns,
    /// which hold this probe's ids, so it neither materializes nor hashes a
    /// value. Live tuples whose arity disagrees with the mined schema are
    /// skipped (validation already quarantines them; this is belt and
    /// braces).
    ///
    /// The probe only tallies (and keeps) the live rows, and never reads
    /// the sample, when it does not count — it was handed out after the
    /// verdict fired — or when `stats` were mined from another sample than
    /// the probe was shaped against. Then a refresh landed between the
    /// probe's snapshot and the pass's pin: the probe is stale, and
    /// [`DriftRegistry::absorb`] drops whatever it counted.
    pub fn observe(&mut self, stats: &SourceStats, query: &SelectQuery, live: &[Tuple]) {
        let arity = self.tracked.len();
        let selectivity = stats.selectivity();
        let sample = selectivity.sample().columnar();
        let counting = self.counting && Arc::ptr_eq(sample, self.ids.sample());
        for t in live.iter().filter(|t| t.arity() == arity) {
            if counting {
                self.row.clear();
                self.ids.intern_row(t, &mut self.row);
                self.live.add_row(&self.row);
            } else {
                self.live.rows += 1;
            }
            if self.live_rows.len() < self.row_capacity {
                self.live_rows.push(t.clone());
            }
        }
        if counting {
            let (reference, row) = (&mut self.reference, &mut self.row);
            selectivity.for_each_sample_match(query, |r| {
                row.clear();
                row.extend((0..arity).map(|a| sample.vid_at(r as usize, AttrId(a))));
                reference.add_row(row);
            });
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
    /// Once the verdict has fired the probe only tallies live rows: no
    /// count it could take would be read before the next reset.
    pub fn probe(&self) -> DriftProbe {
        let tracked = self.accumulated.tracked.clone();
        let sample = Arc::clone(self.accumulated.ids.sample());
        let mut probe = DriftProbe::shaped(tracked, sample, self.config.stream_capacity);
        probe.counting = !self.is_drifted();
        probe
    }

    /// Merges a pass-local probe and re-evaluates the statistic; returns
    /// the verdict if this absorption is the one that crossed the
    /// threshold (verdicts fire once and stay until [`DriftDetector::reset`]).
    ///
    /// Once the verdict has fired only the probe's live-row tally is
    /// added: the verdict stays until a reset discards the counts, so no
    /// further count could move a decision. A rows-only probe meeting a
    /// detector without a verdict was outlived by such a reset and adds
    /// nothing.
    ///
    /// A probe shaped against another sample or other tracked sets than
    /// this detector's — one taken before a [`DriftDetector::reset`] to
    /// statistics mined from another sample, say — contributes no counts:
    /// ids from another sample's dictionary name other values.
    pub fn absorb(&mut self, probe: DriftProbe) -> Option<DriftVerdict> {
        if !probe.shaped_like(&self.accumulated) {
            return None;
        }
        if self.verdict.is_some() {
            self.accumulated.live.rows += probe.live.rows;
            return None;
        }
        if !probe.counting {
            return None;
        }
        probe.merge_into(&mut self.accumulated);
        if self.accumulated.live.rows < self.config.min_observations {
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

    /// The divergence statistic over the counts absorbed so far. An
    /// attribute contributes only when *both* sides have evidence for it —
    /// a query whose conditioning leaves one side empty says nothing about
    /// drift. Evidence absorbed after the verdict only tallies rows, so
    /// from then on the statistic stays at its firing value until a reset.
    pub fn statistic(&self) -> DriftStatistic {
        let reference = &self.accumulated.reference;
        let live = &self.accumulated.live;

        let mut value_divergence = 0.0;
        let mut afd_divergence = 0.0;
        for (a, lhs) in self.accumulated.tracked.iter().enumerate() {
            let a = AttrId(a);
            if let (Some(r), Some(l)) = (reference.values(a), live.values(a)) {
                value_divergence = value_shift(r, l).max(value_divergence);
            }
            // Untracked attributes have no AFD evidence on either side.
            let Some(lhs) = lhs else { continue };
            let evidence = (
                reference.afd_confidence(lhs, a),
                live.afd_confidence(lhs, a),
            );
            if let (Some(r), Some(l)) = evidence {
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
    /// source's current knowledge version. A drifted source's probe only
    /// tallies live rows (see [`DriftDetector::probe`]).
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

    /// The source's current statistic, if registered: frozen at its
    /// firing value once the verdict has fired, until a re-mine or fold
    /// resets the detector (see [`DriftDetector::statistic`]).
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
    use proptest::prelude::Strategy as _;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::{Predicate, Relation, Value};

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

            pub(super) fn rows(&self) -> u64 {
                self.rows
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

    /// One generated live row: a source tuple with some attributes swapped
    /// for a donor tuple's and some nulled (or, with `novel`, set to one of
    /// a few values no sample holds, on any attribute, determining-set
    /// positions included); one row in six has the wrong arity.
    type RowSpec = (usize, usize, u64, u64, u8);

    /// One generated reference query over the mined sample: `(kind, row,
    /// attr, other)` picks every row, the values one sample row holds on
    /// one or two attributes, a null test, or a value no sample holds.
    type QuerySpec = (u8, usize, usize, usize);

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

    fn spec_query(sample: &Relation, (kind, row, attr, other): QuerySpec) -> SelectQuery {
        let arity = sample.schema().arity();
        let (a, b) = (AttrId(attr % arity), AttrId(other % arity));
        let t = &sample.tuples()[row % sample.len()];
        let eq = |a: AttrId| Predicate::eq(a, t.value(a).clone());
        match kind % 5 {
            0 => SelectQuery::all(),
            1 => SelectQuery::new(vec![eq(a)]),
            2 => SelectQuery::new(vec![eq(a), eq(b)]),
            3 => SelectQuery::new(vec![Predicate::is_null(a)]),
            _ => SelectQuery::new(vec![Predicate::eq(a, novel_value(row))]),
        }
    }

    /// The determining set each attribute of `stats` is tracked by.
    fn tracked(stats: &SourceStats) -> Vec<Option<Vec<AttrId>>> {
        DriftProbe::accumulator(stats).tracked
    }

    /// The detector's statistic and the naive transcription's
    /// `(value, afd, statistic)` after absorbing `probes`, each a list of
    /// paired `(query, live)` observations. The naive side counts the
    /// sample tuples the query selects by scan; the detector reads them
    /// off the sample's id columns.
    fn against_naive(
        stats: &SourceStats,
        probes: &[Vec<(SelectQuery, &[Tuple])>],
    ) -> (DriftStatistic, (f64, f64, f64)) {
        let mut detector = DriftDetector::new("s", stats, never_fires());
        let tracked = tracked(stats);
        let sample = stats.selectivity().sample();
        let arity = tracked.len();
        let mut naive_ref = naive::SideCounts::shaped(arity);
        let mut naive_live = naive::SideCounts::shaped(arity);
        for observations in probes {
            let mut probe = detector.probe();
            let mut probe_ref = naive::SideCounts::shaped(arity);
            let mut probe_live = naive::SideCounts::shaped(arity);
            for (query, live) in observations {
                probe.observe(stats, query, live);
                probe_ref.accumulate(&tracked, &sample.select(query));
                probe_live.accumulate(&tracked, live);
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

    /// A configuration whose verdict never fires, so every absorbed count
    /// stays in the statistic (a verdict freezes it).
    fn never_fires() -> DriftConfig {
        DriftConfig::default().with_threshold(f64::INFINITY)
    }

    fn assert_bit_equal(got: DriftStatistic, (value, afd, stat): (f64, f64, f64)) {
        assert_eq!(got.value_divergence.to_bits(), value.to_bits());
        assert_eq!(got.afd_divergence.to_bits(), afd.to_bits());
        assert_eq!(got.statistic.to_bits(), stat.to_bits());
    }

    /// The default world and the wide one, each mined once.
    fn world(wide: bool) -> &'static (Relation, SourceStats) {
        static WORLD: std::sync::OnceLock<(Relation, SourceStats)> = std::sync::OnceLock::new();
        static WIDE: std::sync::OnceLock<(Relation, SourceStats)> = std::sync::OnceLock::new();
        if wide {
            WIDE.get_or_init(mined_wide)
        } else {
            WORLD.get_or_init(mined)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The detector's statistic — reference side read off the sample's
        /// id columns, live side interned — is bit-equal to the naive
        /// transcription counting the scanned sample tuples and the live
        /// tuples by value, over random queries and live batches (nulls,
        /// wrong-arity rows and novel values included), however the
        /// observations are split into probes, and whether the tracked
        /// sets fit the inline group keys or not. Novel values fall on
        /// random rows, so probes see them first in different orders and
        /// hand them different probe-local ids.
        #[test]
        fn statistic_matches_the_naive_transcription(
            queries in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), 0usize..2_000, 0usize..16, 0usize..16),
                1..12,
            ),
            live in proptest::collection::vec(
                (0usize..2_000, 0usize..2_000, proptest::prelude::any::<u64>(),
                 proptest::prelude::any::<u64>(), proptest::prelude::any::<u8>()),
                0..160,
            ),
            chunks in proptest::collection::vec(1usize..48, 1..6),
            per_probe in 1usize..4,
            // Bit 0: novel values on the live side; bit 1: the world with
            // wide determining sets.
            flags in 0u8..4,
        ) {
            let (novel, wide) = (flags & 1 != 0, flags & 2 != 0);
            let (ed, stats) = world(wide);
            let sample = stats.selectivity().sample();
            let queries: Vec<SelectQuery> =
                queries.into_iter().map(|q| spec_query(sample, q)).collect();
            let live: Vec<Tuple> = live.into_iter().map(|s| spec_row(ed, s, novel)).collect();

            // Pair each query with the next live chunk (sizes cycled) until
            // both run out, then group consecutive observations into probes.
            let mut observations: Vec<(SelectQuery, &[Tuple])> = Vec::new();
            let mut l = &live[..];
            for (i, size) in chunks.iter().cycle().enumerate() {
                if i >= queries.len() && l.is_empty() {
                    break;
                }
                let (chunk, rest) = l.split_at((*size).min(l.len()));
                observations.push((queries[i % queries.len()].clone(), chunk));
                l = rest;
            }
            let probes: Vec<Vec<(SelectQuery, &[Tuple])>> =
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
            vec![(SelectQuery::all(), &forward[..])],
            vec![(SelectQuery::all(), &backward[..])],
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
        let target = tracked(&stats)
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
        let probes = vec![
            vec![(SelectQuery::all(), rows)],
            vec![(SelectQuery::all(), &changed[..])],
        ];
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
        probe.observe(&stats, &SelectQuery::all(), &sample);
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

    /// The first `n` source rows with every make collapsed to one value the
    /// sample never held: a large shift on `make`, broken make-determining
    /// AFDs.
    fn skewed(ed: &Relation, n: usize) -> Vec<Tuple> {
        skewed_rows(ed, &ed.tuples()[..n])
    }

    /// `rows` with every make collapsed as in [`skewed`].
    fn skewed_rows(ed: &Relation, rows: &[Tuple]) -> Vec<Tuple> {
        let make = ed.schema().expect_attr("make");
        rows.iter()
            .map(|t| t.with_value(make, Value::str("Monopoly")))
            .collect()
    }

    #[test]
    fn skewed_responses_cross_the_threshold_once() {
        let (ed, stats) = mined();
        let mut detector = DriftDetector::new(
            "cars.com",
            &stats,
            DriftConfig::default()
                .with_threshold(0.3)
                .with_min_observations(10),
        );
        let skewed = skewed(&ed, 200);
        let mut probe = detector.probe();
        probe.observe(&stats, &SelectQuery::all(), &skewed);
        let verdict = detector.absorb(probe).expect("verdict fires");
        assert_eq!(verdict.source, "cars.com");
        assert!(verdict.statistic >= 0.3);
        assert_eq!(verdict.observed, 200);
        assert!(detector.is_drifted());
        assert_eq!(detector.weight(), 0.5);

        // The verdict is sticky and fires only once. Later probes only
        // tally rows, and the statistic stays at its firing value.
        let mut probe = detector.probe();
        assert!(!probe.counting);
        probe.observe(&stats, &SelectQuery::all(), &ed.tuples()[..300]);
        assert_eq!(probe.reference.rows, 0);
        assert_eq!(probe.observed_rows(), 300);
        assert!(detector.absorb(probe).is_none());
        assert!(detector.is_drifted());
        assert_eq!(detector.observed_rows(), 500);
        assert_eq!(
            detector.statistic().statistic.to_bits(),
            verdict.statistic.to_bits()
        );
    }

    #[test]
    fn a_counting_probe_absorbed_after_the_verdict_adds_only_its_rows() {
        // Handed out before the verdict, absorbed after it: its counts are
        // dropped, its rows tallied.
        let (ed, stats) = mined();
        let config = DriftConfig::default()
            .with_threshold(0.3)
            .with_min_observations(10);
        let mut detector = DriftDetector::new("s", &stats, config);
        let late = detector.probe();
        let mut probe = detector.probe();
        probe.observe(&stats, &SelectQuery::all(), &skewed(&ed, 100));
        let verdict = detector.absorb(probe).expect("verdict fires");
        let mut late = late;
        late.observe(&stats, &SelectQuery::all(), &ed.tuples()[..40]);
        assert!(late.counting && late.reference.rows > 0);
        assert!(detector.absorb(late).is_none());
        assert_eq!(detector.observed_rows(), 140);
        assert_eq!(
            detector.statistic().statistic.to_bits(),
            verdict.statistic.to_bits()
        );
    }

    #[test]
    fn absorb_order_does_not_change_the_statistic() {
        let (ed, stats) = mined();
        let tuples = ed.tuples();
        let (front, back) = tuples.split_at(tuples.len() / 3);
        let sedans = SelectQuery::new(vec![Predicate::eq(
            ed.schema().expect_attr("body_style"),
            "Sedan",
        )]);
        let all = SelectQuery::all();

        let config = never_fires();
        let mut forward = DriftDetector::new("s", &stats, config);
        let mut p = forward.probe();
        p.observe(&stats, &all, back);
        forward.absorb(p);
        let mut p = forward.probe();
        p.observe(&stats, &sedans, front);
        forward.absorb(p);

        let mut reverse = DriftDetector::new("s", &stats, config);
        let mut p = reverse.probe();
        p.observe(&stats, &sedans, front);
        reverse.absorb(p);
        let mut p = reverse.probe();
        p.observe(&stats, &all, back);
        reverse.absorb(p);

        let a = forward.statistic();
        let b = reverse.statistic();
        assert!(a.statistic > 0.0);
        assert_eq!(a.statistic.to_bits(), b.statistic.to_bits());
        assert_eq!(a.value_divergence.to_bits(), b.value_divergence.to_bits());
        assert_eq!(a.afd_divergence.to_bits(), b.afd_divergence.to_bits());
    }

    #[test]
    fn reset_clears_the_verdict_and_live_counts() {
        let (ed, stats) = mined();
        let mut detector = DriftDetector::new(
            "cars.com",
            &stats,
            DriftConfig::default()
                .with_threshold(0.2)
                .with_min_observations(5),
        );
        let mut probe = detector.probe();
        probe.observe(&stats, &SelectQuery::all(), &skewed(&ed, 100));
        assert!(detector.absorb(probe).is_some());

        detector.reset(&stats);
        assert!(!detector.is_drifted());
        assert_eq!(detector.observed_rows(), 0);
        assert_eq!(detector.weight(), 1.0);
        assert!(detector.probe().counting);
    }

    #[test]
    fn a_probe_over_another_sample_adds_no_counts() {
        let (ed, stats) = mined();
        let config = DriftConfig::default()
            .with_threshold(0.2)
            .with_min_observations(5);
        let mut detector = DriftDetector::new("cars.com", &stats, config);
        let skewed = skewed(&ed, 100);
        let all = SelectQuery::all();

        // Taken, then outlived by a reset to knowledge mined from another
        // sample: its ids index the old sample's dictionary.
        let mut stale = detector.probe();
        stale.observe(&stats, &all, &skewed);
        let (_, remined) = mined_with(8, &MiningConfig::default());
        detector.reset(&remined);
        assert!(detector.absorb(stale).is_none());
        assert_eq!(detector.observed_rows(), 0);
        assert_eq!(detector.statistic().statistic, 0.0);

        // A probe from another detector over the new sample counts: the
        // guard compares the sample image, not the detector.
        let mut foreign = DriftDetector::new("cars.com", &remined, config).probe();
        foreign.observe(&remined, &all, &skewed);
        assert!(detector.absorb(foreign).is_some());
        assert_eq!(detector.observed_rows(), 100);

        // So does a probe from the detector itself, rows only now.
        let mut fresh = detector.probe();
        fresh.observe(&remined, &all, &skewed);
        assert!(
            detector.absorb(fresh).is_none(),
            "the verdict already fired"
        );
        assert_eq!(detector.observed_rows(), 200);
    }

    #[test]
    fn a_probe_shaped_before_a_reset_counts_nothing_under_the_new_stats() {
        // The pass snapshots its probe, a refresh lands, then the pass pins
        // the refreshed statistics: their sample is not the probe's.
        let (ed, stats) = mined();
        let (_, remined) = mined_with(8, &MiningConfig::default());
        let mut detector = DriftDetector::new("s", &stats, DriftConfig::default());
        let mut stale = detector.probe();
        detector.reset(&remined);
        stale.observe(&remined, &SelectQuery::all(), &skewed(&ed, 100));
        assert_eq!(stale.reference.rows, 0);
        assert_eq!(stale.live.tables, SideCounts::shaped(&stale.tracked).tables);
        // Its rows are still tallied and kept for the sample stream.
        assert_eq!(stale.observed_rows(), 100);
        assert_eq!(stale.live_rows.len(), 100);
        assert!(detector.absorb(stale).is_none());
        assert_eq!(detector.observed_rows(), 0);
    }

    #[test]
    fn registry_tracks_pending_refreshes_in_name_order() {
        let (ed, stats) = mined();
        let registry = DriftRegistry::new(
            DriftConfig::default()
                .with_threshold(0.2)
                .with_min_observations(5),
        );
        registry.register("zeta", &stats);
        registry.register("alpha", &stats);
        assert!(registry.pending_refresh().is_empty());
        assert_eq!(registry.weight("unregistered"), 1.0);

        let skewed = skewed(&ed, 100);
        for name in ["zeta", "alpha"] {
            let mut probe = registry.probe(name).unwrap();
            probe.observe(&stats, &SelectQuery::all(), &skewed);
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
        let (_, remined) = mined_with(8, &MiningConfig::default());
        let registry = DriftRegistry::new(
            DriftConfig::default()
                .with_threshold(0.2)
                .with_min_observations(5),
        );
        registry.register("s", &stats);

        // A pass snapshots its probe, then a refresh publishes mid-pass and
        // the pass pins the refreshed statistics.
        let skewed = skewed(&ed, 100);
        let mut stale = registry.probe("s").unwrap();
        registry.note_refreshed("s", &remined);
        stale.observe(&remined, &SelectQuery::all(), &skewed);

        // The stale probe was shaped against replaced statistics —
        // absorbing counts from it would re-fire the verdict the refresh
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
        fresh.observe(&remined, &SelectQuery::all(), &skewed);
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
        probe.observe(&stats, &SelectQuery::all(), &live);
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
        probe.observe(&stats, &SelectQuery::all(), &live);
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
        probe.observe(&stats, &SelectQuery::all(), &live);
        registry.absorb("s", probe);
        // The probe itself caps row collection at the capacity, so nothing
        // past it even reaches the stream.
        assert_eq!(registry.stream_pending("s"), 10);
    }

    /// [`DriftRegistry`] for one source as a naive transcription: every
    /// probe counts both sides by value, every fresh probe merges, and the
    /// statistic is re-evaluated on every absorb while no verdict stands.
    struct NaiveRegistry {
        config: DriftConfig,
        tracked: Vec<Option<Vec<AttrId>>>,
        reference: naive::SideCounts,
        live: naive::SideCounts,
        drifted: bool,
        version: u64,
        stream: SampleStream,
    }

    /// A naive probe: both sides counted by value, plus the kept rows.
    struct NaiveProbe {
        version: u64,
        reference: naive::SideCounts,
        live: naive::SideCounts,
        rows: Vec<Tuple>,
    }

    impl NaiveRegistry {
        fn new(config: DriftConfig, stats: &SourceStats, version: u64) -> Self {
            let tracked = tracked(stats);
            let arity = tracked.len();
            NaiveRegistry {
                config,
                tracked,
                reference: naive::SideCounts::shaped(arity),
                live: naive::SideCounts::shaped(arity),
                drifted: false,
                version,
                stream: SampleStream::new(config.stream_capacity),
            }
        }

        fn reset(&mut self, stats: &SourceStats) {
            let stream = std::mem::replace(&mut self.stream, SampleStream::new(0));
            *self = NaiveRegistry {
                stream,
                ..NaiveRegistry::new(self.config, stats, self.version + 1)
            };
        }

        fn probe(&self) -> NaiveProbe {
            let arity = self.tracked.len();
            NaiveProbe {
                version: self.version,
                reference: naive::SideCounts::shaped(arity),
                live: naive::SideCounts::shaped(arity),
                rows: Vec::new(),
            }
        }

        fn observe(
            &self,
            probe: &mut NaiveProbe,
            stats: &SourceStats,
            q: &SelectQuery,
            live: &[Tuple],
        ) {
            let sample = stats.selectivity().sample();
            probe.reference.accumulate(&self.tracked, &sample.select(q));
            probe.live.accumulate(&self.tracked, live);
            let arity = self.tracked.len();
            let room = self.config.stream_capacity.saturating_sub(probe.rows.len());
            probe.rows.extend(
                live.iter()
                    .filter(|t| t.arity() == arity)
                    .take(room)
                    .cloned(),
            );
        }

        /// `(statistic bits, observed rows)` of the verdict this absorb fired.
        fn absorb(&mut self, probe: NaiveProbe) -> Option<(u64, u64)> {
            let stale = probe.version != self.version;
            let mut fired = None;
            if !stale {
                probe.reference.merge_into(&mut self.reference);
                probe.live.merge_into(&mut self.live);
                if !self.drifted && self.live.rows() >= self.config.min_observations {
                    let (_, _, stat) = naive::statistic(&self.tracked, &self.reference, &self.live);
                    if stat >= self.config.threshold {
                        self.drifted = true;
                        self.version += 1;
                        fired = Some((stat.to_bits(), self.live.rows()));
                    }
                }
            }
            for t in probe.rows {
                self.stream.push(t, stale);
            }
            fired
        }
    }

    /// One generated pass: `(query, first live row, live rows, skewed)`
    /// for each of its observations.
    type PassSpec = Vec<(QuerySpec, usize, usize, bool)>;

    /// What the differential replay does next.
    #[derive(Debug, Clone)]
    enum Step {
        /// A pass: probe, observe, absorb.
        Pass(PassSpec),
        /// A pass whose probe is outlived by a re-mine that lands between
        /// its snapshot and its pin.
        Stale(PassSpec),
        /// An incremental fold of the queued rows.
        Fold,
        /// A full re-mine.
        Remine,
    }

    fn pass_spec() -> impl proptest::strategy::Strategy<Value = PassSpec> {
        use proptest::prelude::*;
        proptest::collection::vec(
            (
                (any::<u8>(), 0usize..2_000, 0usize..16, 0usize..16),
                0usize..2_000,
                0usize..48,
                0u8..4,
            ),
            1..4,
        )
        .prop_map(|pass| {
            // One observation in four carries skewed rows.
            pass.into_iter()
                .map(|(query, start, len, skew)| (query, start, len, skew == 0))
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Rows-only probes after a verdict, row-only absorbs past it and
        /// stale probes that count nothing change nothing observable: over
        /// seeded sequences of passes — with a verdict, passes after it, a
        /// fold reset, a re-mine reset and a stale probe in each — the
        /// registry and its naive transcription agree on every verdict,
        /// knowledge version, observed-row tally and queued stream.
        #[test]
        fn post_verdict_probes_change_nothing(
            before in proptest::collection::vec(pass_spec(), 0..3),
            after in proptest::collection::vec(pass_spec(), 1..4),
            tail in proptest::collection::vec(
                proptest::prop_oneof![
                    pass_spec().prop_map(Step::Pass),
                    pass_spec().prop_map(Step::Stale),
                    proptest::strategy::Just(Step::Fold),
                    proptest::strategy::Just(Step::Remine),
                ],
                0..8,
            ),
        ) {
            static OTHER: std::sync::OnceLock<SourceStats> = std::sync::OnceLock::new();
            let (ed, first) = world(false);
            let other = OTHER.get_or_init(|| mined_with(8, &MiningConfig::default()).1);
            let worlds = [first, other];

            // The skewed all-rows pass that fires the verdict.
            let skew: PassSpec = vec![((0, 0, 0, 0), 0, 60, true)];
            let mut steps: Vec<Step> = before.into_iter().map(Step::Pass).collect();
            steps.push(Step::Pass(skew.clone()));
            steps.extend(after.into_iter().map(Step::Pass));
            steps.push(Step::Fold);
            steps.push(Step::Pass(skew.clone()));
            steps.push(Step::Stale(skew));
            steps.push(Step::Remine);
            steps.extend(tail);

            let config = DriftConfig::default()
                .with_threshold(0.3)
                .with_min_observations(20)
                .with_stream_capacity(96);
            let registry = DriftRegistry::new(config);
            registry.register("s", first);
            let mut model = NaiveRegistry::new(config, first, registry.knowledge_version("s"));
            let mut current = 0;
            let mut verdicts = 0;
            let live = |start: usize, len: usize, skew: bool| -> Vec<Tuple> {
                let rows = &ed.tuples()[start..(start + len).min(ed.len())];
                if skew { skewed_rows(ed, rows) } else { rows.to_vec() }
            };
            for step in steps {
                let (spec, stale) = match step {
                    Step::Pass(spec) => (spec, false),
                    Step::Stale(spec) => (spec, true),
                    Step::Fold => {
                        let through = registry.stream_snapshot("s").map_or(0, |(_, through)| through);
                        current = 1 - current;
                        registry.note_folded("s", worlds[current], through);
                        model.stream.clear_through(through);
                        model.reset(worlds[current]);
                        (Vec::new(), false)
                    }
                    Step::Remine => {
                        current = 1 - current;
                        registry.note_refreshed("s", worlds[current]);
                        model.stream.discard();
                        model.reset(worlds[current]);
                        (Vec::new(), false)
                    }
                };
                if !spec.is_empty() {
                    let mut probe = registry.probe("s").unwrap();
                    let mut naive_probe = model.probe();
                    if stale {
                        // The re-mine lands between the snapshot and the pin.
                        current = 1 - current;
                        registry.note_refreshed("s", worlds[current]);
                        model.stream.discard();
                        model.reset(worlds[current]);
                    }
                    let stats = worlds[current];
                    for (query, start, len, skew) in spec {
                        let query = spec_query(stats.selectivity().sample(), query);
                        let rows = live(start, len, skew);
                        probe.observe(stats, &query, &rows);
                        model.observe(&mut naive_probe, stats, &query, &rows);
                    }
                    let got = registry
                        .absorb("s", probe)
                        .map(|v| (v.statistic.to_bits(), v.observed));
                    let want = model.absorb(naive_probe);
                    proptest::prop_assert_eq!(got, want);
                    verdicts += usize::from(got.is_some());
                }
                proptest::prop_assert_eq!(registry.knowledge_version("s"), model.version);
                proptest::prop_assert_eq!(registry.is_drifted("s"), model.drifted);
                proptest::prop_assert_eq!(registry.observed_rows("s"), model.live.rows());
                let queued = (!model.stream.is_empty()).then(|| model.stream.snapshot());
                proptest::prop_assert_eq!(registry.stream_snapshot("s"), queued);
                proptest::prop_assert_eq!(registry.stream_stats(), model.stream.stats());
            }
            proptest::prop_assert!(verdicts > 0);
        }
    }
}
