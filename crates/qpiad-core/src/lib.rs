//! The QPIAD mediator (paper §4).
//!
//! Given a user query over an incomplete autonomous database, QPIAD returns
//! the certain answers *plus* relevant possible answers — tuples with a null
//! on a constrained attribute that are likely to satisfy the query — without
//! ever binding nulls and without touching the source's data:
//!
//! * [`rewrite`] — generates rewritten queries from the base (certain)
//!   result set and the mined AFDs (§4.1–4.2), estimating each query's
//!   precision (via the AFD-enhanced classifiers) and selectivity (§5.4).
//! * [`rank`] — orders rewritten queries by expected F-measure, selects the
//!   top-K, and re-orders those by precision so retrieved tuples inherit
//!   their query's rank (§4.2 steps b–d).
//! * [`plan`] — the mediation-plan IR and the one shared executor: each
//!   answer path builds a [`plan::MediationPlan`] (base query plus the
//!   admitted, rank-ordered rewrite list), runs it through
//!   [`plan::execute`], and can render it as EXPLAIN output without
//!   issuing a single source query; candidate lists are cached per
//!   (template, knowledge version) in a [`plan::PlanCache`].
//! * [`mediator`] — the end-to-end engine: base set, rewriting, ordered
//!   retrieval, post-filtering, deferred handling of multi-null tuples, and
//!   per-answer confidence + AFD explanations (§6.1).
//! * [`baselines`] — the paper's AllReturned and AllRanked comparison
//!   methods (require null binding; infeasible on real web sources).
//! * [`aggregate`] — COUNT/SUM/AVG with predicted completions, gated by the
//!   most-likely-value rule (§4.4).
//! * [`join`] — two-way joins over incomplete sources with query-pair
//!   F-measure ordering and join-value prediction (§4.5).
//! * [`correlated`] — retrieving possible answers from sources whose local
//!   schema does not support the constrained attribute, using statistics
//!   learned from a correlated source (§4.3).
//! * [`network`] — the multi-source mediator: one global schema over many
//!   sources, routing each query to direct QPIAD or correlated retrieval
//!   per source (Figures 1–2).
//!
//! The answer path is parallel where work is independent — the network
//! fans out across sources and the mediator issues rewritten queries
//! concurrently against budget-free sources, over the [`par`] worker pool
//! (re-exported from `qpiad-db`, sized by `QPIAD_THREADS`) — while every
//! merge happens sequentially in rank order, so results are byte-identical
//! to single-threaded execution.
//!
//! Mediation is **fault-tolerant**: queries are issued through the retry
//! boundary in [`qpiad_db::fault`], a rewritten query that still fails is
//! dropped and accounted in [`Degradation`], and a network member that
//! fails outright contributes a recorded [`SourceOutcome::Failed`] instead
//! of aborting the whole mediation.
//!
//! The mined knowledge itself has a **lifecycle**: the network can load
//! member statistics from a durable [`qpiad_learn::store::KnowledgeStore`]
//! (a snapshot that fails to load degrades that member to
//! certain-answers-only, charged to [`Degradation::knowledge_unavailable`]),
//! watch each member's live responses for drift against its mined sample
//! ([`qpiad_learn::drift`], demoting drifted members' possible answers),
//! and atomically swap in re-mined statistics with
//! [`network::MediatorNetwork::refresh_member`].

pub mod aggregate;
pub mod baselines;
pub mod correlated;
pub mod join;
pub mod mediator;
pub mod network;
pub mod plan;
pub mod rank;
pub mod rewrite;

pub use correlated::CorrelatedAnswers;
pub use mediator::{AnswerSet, Degradation, Qpiad, QpiadConfig, QueryContext, RankedAnswer};
pub use network::{MediatorNetwork, MemberFold, NetworkAnswer, SourceAnswers, SourceOutcome};
pub use plan::{
    execute, execute_base, AdmissionMode, BaseGate, CacheStatus, EntryStatus, MediationPlan,
    PlanCache, PlanCandidate, PlanEntry, SkipReason,
};
pub use qpiad_db::par;
pub use rank::{order_rewrites, rescore, RankConfig, ScoredRewrite};
pub use rewrite::{generate_rewrites, RewrittenQuery};
