//! The mined knowledge bundle the mediator holds per source.
//!
//! [`SourceStats::mine`] runs the full §5 pipeline — TANE discovery, AKey
//! pruning, classifier training, selectivity estimation — over a sample and
//! packages the results for the query rewriter.

use std::collections::HashMap;
use std::sync::Arc;

use qpiad_db::{AttrId, Relation, Schema, Tuple};

use crate::afd::{prune_afds, AKey, Afd, AfdSet};
use crate::nbc::NaiveBayes;
use crate::selectivity::SelectivityEstimator;
use crate::strategy::{
    feature_choice, AttrPredictor, FeatureChoice, FeatureStrategy, ValuePredictor,
};
use crate::stream::{Delta, FoldLineage, FoldState};
use crate::tane::{discover, TaneConfig};

/// Why a refresh or fold could not use a probe. Classified (instead of the
/// panic earlier versions used) so a misbehaving source degrades its own
/// knowledge path without aborting mediation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshError {
    /// The probe's schema does not match the mined sample's — the source
    /// changed shape underneath the mediator.
    SchemaSkew {
        /// Arity of the mined sample's schema.
        expected: usize,
        /// Arity of the probe's schema.
        got: usize,
    },
}

impl std::fmt::Display for RefreshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshError::SchemaSkew { expected, got } => write!(
                f,
                "refresh probe schema skew: expected arity {expected}, got {got}"
            ),
        }
    }
}

impl std::error::Error for RefreshError {}

/// What [`SourceStats::fold`] decided about a streamed probe.
#[derive(Debug)]
pub enum FoldOutcome {
    /// The probe was folded incrementally; `stats` is the new bundle and
    /// `max_delta` the worst AFD/AKey confidence drift since the last full
    /// TANE run.
    Folded {
        /// The updated knowledge bundle.
        stats: SourceStats,
        /// Worst absolute confidence drift from the full-mine anchor.
        max_delta: f64,
    },
    /// Confidence drift crossed the re-mine bound: the caller must run a
    /// full refresh (TANE membership may have changed).
    RemineRequired {
        /// Worst absolute confidence drift observed.
        max_delta: f64,
        /// The bound it crossed.
        bound: f64,
    },
}

/// Knobs of the mining pipeline, with the paper's defaults.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MiningConfig {
    /// TANE search parameters (β, max lhs size, minimality).
    pub tane: TaneConfig,
    /// AKey pruning threshold δ (paper: 0.3).
    pub akey_prune_delta: f64,
    /// Minimum AKey confidence for the pruning rule to apply.
    pub akey_min_conf: f64,
    /// Classifier feature-selection strategy (paper adopts Hybrid One-AFD).
    pub strategy: FeatureStrategy,
    /// m-estimate smoothing weight.
    pub m_estimate: f64,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            tane: TaneConfig::default(),
            akey_prune_delta: 0.3,
            akey_min_conf: 0.8,
            strategy: FeatureStrategy::default(),
            m_estimate: 1.0,
        }
    }
}

impl MiningConfig {
    /// Overrides the classifier strategy.
    pub fn with_strategy(mut self, strategy: FeatureStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Disables AKey pruning — both the post-hoc δ-rule and TANE's in-search
    /// near-key suppression (ablation).
    pub fn without_akey_pruning(mut self) -> Self {
        self.akey_prune_delta = 0.0;
        self.akey_min_conf = f64::INFINITY;
        self.tane.near_key_conf = f64::INFINITY;
        self
    }
}

/// Everything QPIAD learned about one source.
///
/// The mined artifacts live behind one shared [`Arc`], so cloning a
/// bundle — which the mediator does on construction and the network does
/// per member — is a reference-count bump rather than a deep copy of the
/// classifiers and the retained sample.
#[derive(Debug, Clone)]
pub struct SourceStats {
    inner: Arc<StatsInner>,
}

#[derive(Debug)]
struct StatsInner {
    schema: Arc<Schema>,
    afds: AfdSet,
    akeys: Vec<AKey>,
    predictor: ValuePredictor,
    selectivity: SelectivityEstimator,
    /// The delta-maintainable count state behind [`SourceStats::fold`],
    /// shared by the mined generation and every generation folded from it.
    /// Built from the sample at mine time (shard-parallel), never persisted
    /// — snapshot restore re-mines and rebuilds it.
    lineage: Arc<FoldLineage>,
    /// This bundle's generation within `lineage`.
    generation: u64,
}

impl SourceStats {
    /// Runs the §5 pipeline on a sample of a database with `db_size` tuples.
    pub fn mine(sample: &Relation, db_size: usize, config: &MiningConfig) -> Self {
        let selectivity = SelectivityEstimator::from_db_size(sample.clone(), db_size);
        Self::mine_with_estimator(sample, selectivity, config)
    }

    /// Like [`Self::mine`], but with externally estimated `SmplRatio` and
    /// `PerInc` (from a probing run, see `qpiad_data::sample::probe_sample`).
    pub fn mine_probed(
        sample: &Relation,
        smpl_ratio: f64,
        per_inc: f64,
        config: &MiningConfig,
    ) -> Self {
        let selectivity = SelectivityEstimator::new(sample.clone(), smpl_ratio, per_inc);
        Self::mine_with_estimator(sample, selectivity, config)
    }

    fn mine_with_estimator(
        sample: &Relation,
        selectivity: SelectivityEstimator,
        config: &MiningConfig,
    ) -> Self {
        let tane_result = discover(sample, &config.tane);
        let pruned = prune_afds(
            tane_result.afds.clone(),
            |lhs| tane_result.akey_confidence(lhs),
            config.akey_prune_delta,
            config.akey_min_conf,
        );
        let afds = AfdSet::new(pruned);
        let predictor = ValuePredictor::train(sample, &afds, config.strategy, config.m_estimate);
        let fold = FoldState::build(
            sample,
            &afds,
            &tane_result.akeys,
            &predictor.single_features(),
        );
        SourceStats {
            inner: Arc::new(StatsInner {
                schema: sample.schema().clone(),
                afds,
                akeys: tane_result.akeys,
                predictor,
                selectivity,
                lineage: Arc::new(FoldLineage::new(fold)),
                generation: 0,
            }),
        }
    }

    /// Incrementally re-mines against a fresh probe of the source. The
    /// retained sample and the fresh tuples are merged — a fresh tuple
    /// replaces the retained tuple with the same id, unseen ids append in
    /// probe order — and the full §5 pipeline re-runs over the merged
    /// sample with the given `SmplRatio`/`PerInc` estimates.
    ///
    /// The result is a *new* `SourceStats`: the caller swaps it in
    /// atomically (see `MediatorNetwork::refresh_member`), so answers
    /// produced mid-refresh keep reading the old bundle. Mining is
    /// deterministic, so the merged-sample order above makes `refresh`
    /// itself deterministic. An empty `fresh` relation degenerates to
    /// re-mining the retained sample, which reproduces the original
    /// bundle bit-for-bit. A probe whose schema does not match the mined
    /// sample's is rejected with [`RefreshError::SchemaSkew`] instead of
    /// panicking — the source degrades, the mediator keeps answering.
    pub fn refresh(
        &self,
        fresh: &Relation,
        smpl_ratio: f64,
        per_inc: f64,
        config: &MiningConfig,
    ) -> Result<SourceStats, RefreshError> {
        let old = self.selectivity().sample();
        let (replaced, appended) = merge_probe(old, fresh)?;
        let mut merged = old.tuples().to_vec();
        for (row, t) in replaced {
            merged[row] = t;
        }
        merged.extend(appended);
        let sample = Relation::new(old.schema().clone(), merged);
        Ok(Self::mine_probed(&sample, smpl_ratio, per_inc, config))
    }

    /// Folds streamed validated rows into the bundle *incrementally*: the
    /// probe merges into the retained sample exactly as in
    /// [`Self::refresh`], but instead of re-running TANE and retraining
    /// every classifier, the mined artifacts are rebuilt from
    /// delta-updated counts — `O(probe)` integer updates plus log-table
    /// rebuilds.
    ///
    /// What a fold can and cannot change:
    ///
    /// * AFD and AKey **confidences** track the merged sample exactly
    ///   (bit-identical to recomputing `g3` over it).
    /// * AFD/AKey **membership** is frozen at the last full TANE run.
    ///   When any confidence drifts more than `bound` from its full-mine
    ///   anchor, the fold refuses ([`FoldOutcome::RemineRequired`]) and
    ///   the caller runs a full [`Self::refresh`], which re-decides
    ///   membership, pruning and minimality from scratch.
    /// * Classifiers whose feature set is unchanged rebuild from
    ///   maintained counts, bit-identical to retraining over the merged
    ///   sample; classifiers whose feature choice shifted (a different
    ///   AFD now wins, or a confidence crossed the Hybrid threshold) and
    ///   ensembles retrain in full over the merged sample.
    ///
    /// `SmplRatio`/`PerInc` carry over from the current bundle — streamed
    /// rows come from answered queries, not a fresh probing run, so they
    /// carry no new cardinality evidence.
    ///
    /// What a fold costs scales with its delta, not with the sample. The
    /// merged sample extends the retained one's columnar image
    /// ([`Relation::extended`]): each delta cell is interned once, and the
    /// count state — one per lineage of folded generations (see
    /// [`crate::stream`]) — replays the delta's id rows in place, undoing
    /// them if the bound refuses. The result is the same whichever
    /// generation the count state last described.
    pub fn fold(
        &self,
        fresh: &Relation,
        config: &MiningConfig,
        bound: f64,
    ) -> Result<FoldOutcome, RefreshError> {
        let old = self.selectivity().sample();
        let (replaced, appended) = merge_probe(old, fresh)?;
        let merged = old.extended(&replaced, &appended);
        let replaced_rows = replaced.iter().map(|(row, _)| *row);
        let delta = Delta::between(old.columnar(), merged.columnar(), replaced_rows);
        let single_features = || self.predictor().single_features();
        let fold = self
            .inner
            .lineage
            .begin(self.inner.generation, old, single_features, delta);
        // One confidence per AFD and AKey, read by both the bound and the
        // rebuild.
        let (afd_confidences, key_confidences) = fold.state().confidences();
        let max_delta = fold
            .state()
            .max_confidence_delta(&afd_confidences, &key_confidences);
        if max_delta > bound {
            // Dropping the uncommitted fold replays the delta backwards.
            return Ok(FoldOutcome::RemineRequired { max_delta, bound });
        }

        // Same membership, folded confidences. `AfdSet::new` re-sorts each
        // attribute's list, so a confidence update can change which AFD is
        // "best" without a re-mine.
        let afds = AfdSet::new(
            fold.state()
                .afds
                .iter()
                .zip(afd_confidences)
                .map(|(c, confidence)| Afd::new(c.lhs.clone(), c.rhs, confidence))
                .collect(),
        );
        let akeys: Vec<AKey> = fold
            .state()
            .akeys
            .iter()
            .zip(key_confidences)
            .map(|(c, confidence)| AKey::new(c.attrs.clone(), confidence))
            .collect();

        // Rebuild the per-attribute classifiers: count-table rebuild where
        // the feature choice survived, full retrain where it shifted.
        enum CountAction {
            Keep,
            Reseed(Vec<AttrId>),
            Drop,
        }
        let all_attrs: Vec<AttrId> = merged.schema().attr_ids().collect();
        let m = config.m_estimate;
        let state = fold.state();
        let rebuilt = crate::par::parallel_map(&all_attrs, |target| {
            match feature_choice(&afds, config.strategy, *target, &all_attrs) {
                FeatureChoice::Single { features, afd } => {
                    match state.nbc_tables(*target, &features, merged.columnar()) {
                        Some((classes, class_counts, cond)) => {
                            let nbc = NaiveBayes::from_counts(
                                *target,
                                features,
                                classes,
                                class_counts,
                                cond,
                                m,
                            );
                            (AttrPredictor::Single { nbc, afd }, CountAction::Keep)
                        }
                        None => {
                            let nbc = NaiveBayes::train(&merged, *target, features.clone(), m);
                            (
                                AttrPredictor::Single { nbc, afd },
                                CountAction::Reseed(features),
                            )
                        }
                    }
                }
                FeatureChoice::Ensemble(members) => {
                    let members: Vec<(f64, NaiveBayes, Afd)> = members
                        .into_iter()
                        .map(|afd| {
                            let nbc = NaiveBayes::train(&merged, *target, afd.lhs.clone(), m);
                            (afd.confidence, nbc, afd)
                        })
                        .collect();
                    (AttrPredictor::Ensemble(members), CountAction::Drop)
                }
            }
        });
        let mut per_attr: HashMap<AttrId, AttrPredictor> = HashMap::new();
        let mut classifiers = Vec::new();
        for (target, (pred, action)) in all_attrs.iter().zip(rebuilt) {
            per_attr.insert(*target, pred);
            match action {
                CountAction::Keep => {}
                CountAction::Reseed(features) => classifiers.push((*target, Some(features))),
                CountAction::Drop => classifiers.push((*target, None)),
            }
        }
        let generation = fold.commit(merged.columnar(), classifiers);
        let predictor = ValuePredictor::from_parts(per_attr, config.strategy);
        let selectivity = SelectivityEstimator::new(
            merged.clone(),
            self.selectivity().smpl_ratio(),
            self.selectivity().per_inc(),
        );
        let stats = SourceStats {
            inner: Arc::new(StatsInner {
                schema: merged.schema().clone(),
                afds,
                akeys,
                predictor,
                selectivity,
                lineage: Arc::clone(&self.inner.lineage),
                generation,
            }),
        };
        Ok(FoldOutcome::Folded { stats, max_delta })
    }

    /// The source's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.inner.schema
    }

    /// The pruned AFD set.
    pub fn afds(&self) -> &AfdSet {
        &self.inner.afds
    }

    /// Discovered approximate keys.
    pub fn akeys(&self) -> &[AKey] {
        &self.inner.akeys
    }

    /// The per-attribute value predictors.
    pub fn predictor(&self) -> &ValuePredictor {
        &self.inner.predictor
    }

    /// The selectivity estimator.
    pub fn selectivity(&self) -> &SelectivityEstimator {
        &self.inner.selectivity
    }

    /// The determining set for an attribute, from its best (pruned) AFD.
    pub fn determining_set(&self, attr: AttrId) -> Option<&[AttrId]> {
        self.inner.afds.best(attr).map(|afd| afd.lhs.as_slice())
    }
}

/// Merges a fresh probe into the retained sample: a fresh tuple replaces
/// the retained tuple with the same id in place, unseen ids append in
/// probe order. Returns the replacements as `(row, new tuple)` pairs in row
/// order, and the appended rows.
#[allow(clippy::type_complexity)]
fn merge_probe(
    old: &Relation,
    fresh: &Relation,
) -> Result<(Vec<(usize, Tuple)>, Vec<Tuple>), RefreshError> {
    if fresh.schema().arity() != old.schema().arity() {
        return Err(RefreshError::SchemaSkew {
            expected: old.schema().arity(),
            got: fresh.schema().arity(),
        });
    }
    let fresh_by_id: HashMap<_, _> = fresh.tuples().iter().map(|t| (t.id(), t)).collect();
    let replaced: Vec<(usize, Tuple)> = old
        .tuples()
        .iter()
        .enumerate()
        .filter_map(|(row, t)| fresh_by_id.get(&t.id()).map(|f| (row, (*f).clone())))
        .collect();
    let retained: std::collections::HashSet<_> = old.tuples().iter().map(|t| t.id()).collect();
    let appended: Vec<Tuple> = fresh
        .tuples()
        .iter()
        .filter(|t| !retained.contains(&t.id()))
        .cloned()
        .collect();
    Ok((replaced, appended))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_data::cars::CarsConfig;
    use qpiad_data::corrupt::{corrupt, CorruptionConfig};
    use qpiad_data::sample::uniform_sample;
    use qpiad_db::{Predicate, SelectQuery, Tuple, TupleId, Value};

    fn mined() -> (Relation, SourceStats) {
        let ground = CarsConfig::default().with_rows(8_000).generate(21);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let sample = uniform_sample(&ed, 0.10, 3);
        let stats = SourceStats::mine(&sample, ed.len(), &MiningConfig::default());
        (ed, stats)
    }

    #[test]
    fn mines_model_as_determining_set_of_body_style() {
        let (ed, stats) = mined();
        let model = ed.schema().expect_attr("model");
        let body = ed.schema().expect_attr("body_style");
        let dtr = stats.determining_set(body).expect("AFD for body_style");
        assert!(
            dtr.contains(&model),
            "determining set of body_style should include model, got {dtr:?}"
        );
        let best = stats.afds().best(body).unwrap();
        assert!(
            (0.75..0.999).contains(&best.confidence),
            "confidence {}",
            best.confidence
        );
    }

    #[test]
    fn model_to_make_is_near_exact() {
        let (ed, stats) = mined();
        let make = ed.schema().expect_attr("make");
        let best = stats.afds().best(make).expect("AFD for make");
        assert!(best.confidence > 0.97, "confidence {}", best.confidence);
    }

    #[test]
    fn predictor_fills_missing_body_style() {
        let (ed, stats) = mined();
        let body = ed.schema().expect_attr("body_style");
        let model = ed.schema().expect_attr("model");
        // A tuple whose model is Z4 with missing body style.
        let mut values = vec![Value::Null; ed.schema().arity()];
        values[model.index()] = Value::str("Z4");
        let t = Tuple::new(TupleId(0), values);
        let (v, p) = stats.predictor().predict(body, &t).unwrap();
        assert_eq!(v, Value::str("Convt"));
        assert!(p > 0.5);
    }

    #[test]
    fn selectivity_tracks_reality() {
        let (ed, stats) = mined();
        let model = ed.schema().expect_attr("model");
        let q = SelectQuery::new(vec![Predicate::eq(model, "Civic")]);
        let est = stats.selectivity().estimate_result_size(&q);
        let real = ed.count(&q) as f64;
        assert!(
            (est - real).abs() / real < 0.5,
            "estimate {est} too far from real {real}"
        );
    }

    #[test]
    fn explanation_available_for_afd_backed_attrs() {
        let (ed, stats) = mined();
        let body = ed.schema().expect_attr("body_style");
        let afd = stats.predictor().explanation(body).expect("explanation");
        assert_eq!(afd.rhs, body);
    }

    #[test]
    fn mining_empty_and_tiny_samples_is_safe() {
        use qpiad_db::Relation;
        let schema = qpiad_data::cars::cars_schema();
        // Empty sample: no AFDs, empty predictions, zero estimates.
        let empty = Relation::empty(schema.clone());
        let stats = SourceStats::mine(&empty, 1_000, &MiningConfig::default());
        assert!(stats.afds().is_empty());
        let t = Tuple::new(TupleId(0), vec![Value::Null; schema.arity()]);
        let body = schema.expect_attr("body_style");
        assert!(stats.predictor().predict(body, &t).is_none());
        assert_eq!(stats.selectivity().estimate(&SelectQuery::all()), 0.0);

        // One-row sample: everything is a (near-)key; no usable AFDs, but
        // nothing panics and the pipeline stays consistent.
        let ground = CarsConfig::default().with_rows(1).generate(1);
        let stats = SourceStats::mine(&ground, 1_000, &MiningConfig::default());
        let _ = stats.predictor().predict(body, &t);
    }

    // -- fold purity -------------------------------------------------------
    //
    // A lineage's count state may describe any of its generations when a
    // fold starts; each case below must fold exactly what a freshly mined
    // copy, whose state describes the folded generation, folds.

    /// A mined cars bundle, how to mine a fresh copy of it, and three
    /// batches of streamed rows: re-deliveries of sample rows, rows the
    /// sample lacks, and both.
    struct Lineage {
        sample: Relation,
        db_size: usize,
        config: MiningConfig,
        batches: [Relation; 3],
    }

    impl Lineage {
        fn new() -> Self {
            let (ed, stats) = mined();
            let sample = stats.selectivity().sample().clone();
            let batch = |ids: &mut dyn Iterator<Item = usize>| {
                let rows = ids.map(|i| ed.tuples()[i].clone()).collect();
                Relation::new(ed.schema().clone(), rows)
            };
            let in_sample: Vec<usize> = sample.tuples().iter().map(|t| t.id().0 as usize).collect();
            let batches = [
                batch(&mut in_sample.iter().copied().step_by(5)),
                batch(&mut (0..ed.len()).step_by(37)),
                batch(
                    &mut in_sample
                        .iter()
                        .copied()
                        .step_by(3)
                        .chain((5..ed.len()).step_by(41)),
                ),
            ];
            Lineage {
                db_size: ed.len(),
                sample,
                config: MiningConfig::default(),
                batches,
            }
        }

        fn mine(&self) -> SourceStats {
            SourceStats::mine(&self.sample, self.db_size, &self.config)
        }

        fn fold(&self, stats: &SourceStats, batch: usize) -> SourceStats {
            match stats.fold(&self.batches[batch], &self.config, 2.0).unwrap() {
                FoldOutcome::Folded { stats, .. } => stats,
                other => panic!("bound 2.0 always folds: {other:?}"),
            }
        }

        /// Folds `batches` in turn into a freshly mined copy.
        fn fresh(&self, batches: &[usize]) -> SourceStats {
            batches
                .iter()
                .fold(self.mine(), |stats, &b| self.fold(&stats, b))
        }
    }

    /// Everything a fold maintains, bit-exact: AFD and AKey confidences,
    /// the posteriors of every attribute for the first sample rows with
    /// that attribute nulled, and the sample's rows.
    fn fingerprint(stats: &SourceStats) -> (Vec<String>, Vec<Tuple>) {
        let mut out: Vec<String> = stats
            .afds()
            .iter()
            .map(|afd| {
                format!(
                    "afd {:?} {:?} {:x}",
                    afd.lhs,
                    afd.rhs,
                    afd.confidence.to_bits()
                )
            })
            .collect();
        out.sort();
        for key in stats.akeys() {
            out.push(format!(
                "akey {:?} {:x}",
                key.attrs,
                key.confidence.to_bits()
            ));
        }
        let sample = stats.selectivity().sample();
        for attr in stats.schema().attr_ids() {
            for t in sample.tuples().iter().take(40) {
                let t = t.with_value(attr, Value::Null);
                for (v, p) in stats.predictor().distribution(attr, &t) {
                    out.push(format!("nbc {attr:?} {:?} {v:?} {:x}", t.id(), p.to_bits()));
                }
            }
        }
        (out, sample.tuples().to_vec())
    }

    #[test]
    fn folding_a_generation_twice_equals_folding_a_fresh_copy() {
        let l = Lineage::new();
        let mined = l.mine();
        let first = l.fold(&mined, 0);
        // The second fold of `mined` finds the count state at `first`'s
        // generation and rebuilds it; the third folds `first` again, after
        // the state moved on to the second's.
        let second = l.fold(&mined, 1);
        assert_eq!(fingerprint(&second), fingerprint(&l.fresh(&[1])));
        let again = l.fold(&first, 2);
        assert_eq!(fingerprint(&again), fingerprint(&l.fresh(&[0, 2])));
        assert_eq!(fingerprint(&first), fingerprint(&l.fresh(&[0])));
    }

    #[test]
    fn a_refused_fold_leaves_the_count_state_as_it_was() {
        let l = Lineage::new();
        let mined = l.mine();
        let before = mined.inner.lineage.current();
        match mined.fold(&l.batches[1], &l.config, 0.0).unwrap() {
            FoldOutcome::RemineRequired { max_delta, .. } => assert!(max_delta > 0.0),
            FoldOutcome::Folded { .. } => panic!("the rows move some confidence"),
        }
        assert_eq!(mined.inner.lineage.current(), before);
        let accepted = l.fold(&mined, 1);
        assert_eq!(fingerprint(&accepted), fingerprint(&l.fresh(&[1])));
    }

    #[test]
    fn a_fold_after_a_failed_persist_equals_folding_a_fresh_copy() {
        use crate::persist::StatsSnapshot;
        use crate::store::{KnowledgeStore, PersistFault};

        let l = Lineage::new();
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-knowledge-store/fold-after-fault");
        let _ = std::fs::remove_dir_all(&dir);
        let store = KnowledgeStore::open(&dir).unwrap();
        let mined = l.mine();
        // The folded generation is never published: its persist fails, and
        // the next pass folds the generation still serving.
        let unpublished = l.fold(&mined, 0);
        store.inject_persist_fault("cars", PersistFault::DiskFull);
        let snapshot = StatsSnapshot::capture(&unpublished, &l.config);
        assert_eq!(
            store.save("cars", &snapshot).unwrap_err().kind(),
            "disk-full"
        );
        drop(unpublished);
        let next = l.fold(&mined, 2);
        assert_eq!(fingerprint(&next), fingerprint(&l.fresh(&[2])));
    }

    #[test]
    fn folds_after_a_rebuild_equal_folding_a_fresh_copy() {
        let l = Lineage::new();
        let mined = l.mine();
        let first = l.fold(&mined, 0);
        let second = l.fold(&first, 1);
        // The state describes `second`: folding `mined` rebuilds it.
        let rebuilt = l.fold(&mined, 2);
        assert_eq!(mined.inner.lineage.current().0, rebuilt.inner.generation);
        assert_eq!(fingerprint(&rebuilt), fingerprint(&l.fresh(&[2])));
        // Rebuilt at `mined` again, then on from there in place.
        let again = l.fold(&mined, 1);
        let onward = l.fold(&again, 0);
        assert_eq!(fingerprint(&onward), fingerprint(&l.fresh(&[1, 0])));
        // And the chain left behind still folds as before.
        let third = l.fold(&second, 2);
        assert_eq!(fingerprint(&third), fingerprint(&l.fresh(&[0, 1, 2])));
    }

    #[test]
    fn akey_pruning_can_be_disabled() {
        let ground = CarsConfig::default().with_rows(4_000).generate(22);
        let sample = uniform_sample(&ground, 0.10, 4);
        let with = SourceStats::mine(&sample, ground.len(), &MiningConfig::default());
        let without = SourceStats::mine(
            &sample,
            ground.len(),
            &MiningConfig::default().without_akey_pruning(),
        );
        assert!(without.afds().len() >= with.afds().len());
    }
}
