//! Statistics mining for QPIAD (paper §5).
//!
//! QPIAD needs three kinds of learned knowledge per autonomous source, all
//! mined off-line from a small probed sample:
//!
//! 1. **Attribute correlations** as Approximate Functional Dependencies —
//!    [`tane`] implements a TANE-style levelwise search over stripped
//!    partitions ([`partition`]) using the `g3` error measure of Kivinen &
//!    Mannila, and [`afd`] implements the paper's AKey-based pruning rule
//!    (§5.1).
//! 2. **Value distributions** as AFD-enhanced Naïve Bayes classifiers —
//!    [`nbc`] implements NBC with m-estimate smoothing, and [`strategy`]
//!    implements the feature-selection strategies of §5.3 (Best-AFD,
//!    Hybrid One-AFD, Ensemble, All-Attributes).
//! 3. **Query selectivity** — [`selectivity`] implements the
//!    `SmplSel · SmplRatio · PerInc` estimator of §5.4.
//!
//! [`persist`] snapshots mined knowledge as JSON (the knowledge-mining
//! module runs offline; a deployed mediator caches its artifacts), and the
//! knowledge-lifecycle layer keeps those artifacts honest over a long-
//! running mediator's lifetime: [`store`] is the durable on-disk snapshot
//! store (versioned header, per-snapshot checksum, atomic writes, and a
//! load path that classifies failures so a corrupt file degrades one
//! source instead of the mediator), [`drift`] accumulates a deterministic
//! divergence statistic between live validated responses and the mined
//! sample and emits a [`drift::DriftVerdict`] when a source's knowledge
//! goes stale, and [`knowledge::SourceStats::refresh`] re-mines
//! incrementally so the mediator can swap in fresh knowledge atomically.
//! [`epoch`] supplies the swap primitive itself: an epoch-stamped
//! [`epoch::KnowledgeCell`] that readers pin once per mediation pass and
//! a maintenance pass publishes into atomically, so a hot refresh can
//! never produce a torn read.
//! [`assoc`] provides the association-rule imputation baseline the paper
//! compares classifiers against (§6.5), [`tree`] adds an ID3-style decision
//! tree and [`tan`] a Chow–Liu tree-augmented Naïve Bayes (the restricted
//! Bayes network the paper benchmarked via WEKA) as further comparators, and [`knowledge`] bundles everything
//! into the [`knowledge::SourceStats`] artifact the mediator holds per
//! source.
//!
//! Mining and classification are parallel where the work is independent:
//! [`tane`] evaluates each level's candidate partitions and [`strategy`]
//! trains per-attribute classifiers across the [`par`] worker pool
//! (re-exported from `qpiad-db`), with byte-identical output at any thread
//! count. [`cache`] adds the per-query memo of classifier posteriors the
//! mediator uses so each determining-set combination is classified once
//! per query instead of once per retrieved tuple.

pub mod afd;
pub mod assoc;
pub mod cache;
mod counts;
pub mod drift;
pub mod epoch;
pub mod knowledge;
pub mod nbc;
pub mod partition;
pub mod persist;
pub mod selectivity;
pub mod store;
pub mod strategy;
pub mod stream;
pub mod tan;
pub mod tane;
pub mod tree;

pub use afd::{AKey, Afd, AfdSet};
pub use cache::PredictionCache;
pub use drift::{DriftConfig, DriftDetector, DriftProbe, DriftRegistry, DriftVerdict};
pub use epoch::{KnowledgeCell, MemberKnowledge, RefreshKind};
pub use knowledge::{FoldOutcome, MiningConfig, RefreshError, SourceStats};
pub use nbc::{NaiveBayes, RowScorer};
pub use persist::{PersistError, StatsSnapshot};
pub use qpiad_db::par;
pub use selectivity::SelectivityEstimator;
pub use store::{KnowledgeStore, PersistFault};
pub use strategy::{FeatureStrategy, RowMatcher, ValuePredictor};
pub use stream::{SampleStream, StreamStats};
