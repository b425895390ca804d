//! Relational substrate for QPIAD.
//!
//! This crate implements everything QPIAD needs *below* the mediator:
//!
//! * [`value`] — nullable attribute values with a total order,
//! * [`dict`] / [`columnar`] — the storage core: per-relation value
//!   interning ([`dict::Dictionary`], null = reserved id 0) and the
//!   dictionary-encoded columnar image ([`columnar::ColumnarRelation`])
//!   every relation builds at construction; posting-list indexes,
//!   classifier training, and partition refinement all run over these
//!   dense `u32` ids,
//! * [`schema`] — typed relation schemas and attribute identifiers,
//! * [`mod@tuple`] / [`relation`] — incomplete tuples and in-memory relations,
//! * [`query`] — conjunctive selection, aggregate, and join query ASTs with
//!   *certain-answer* evaluation semantics over incomplete tuples,
//! * [`source`] — autonomous-source access layers: a [`source::WebSource`]
//!   that models the restricted query interface of a web database (no null
//!   binding, limited attribute support, metered access) and a
//!   [`source::DirectSource`] that allows null binding (used only to
//!   implement the paper's infeasible baselines),
//! * [`catalog`] — the mediator-side global-schema catalog mapping global
//!   attributes onto each source's local schema,
//! * [`fault`] — the failure model: transient-error injection
//!   ([`fault::FaultInjector`], deterministic and seeded, for tests and
//!   benches), semantic response skew ([`fault::SkewInjector`], the
//!   drift-detection counterpart: the source answers, but its value
//!   distributions have shifted), and the retry boundary
//!   ([`fault::RetryPolicy`], [`fault::query_with_retry`]) the mediator
//!   issues queries through,
//! * [`chaos`] — the composition layer over the failure model: a seeded,
//!   pure pass-number → chaos schedule ([`chaos::ChaosSchedule`]) and a
//!   source wrapper enacting it ([`chaos::ChaosSource`]), so soak tests
//!   can storm outages, skew, corruption, breaker trips, and floods
//!   together and still replay byte-identical at any thread count,
//! * [`health`] — the availability layer above retries: per-source circuit
//!   breakers ([`health::HealthRegistry`], deterministic snapshot/absorb
//!   protocol), per-pass deadline/attempt budgets
//!   ([`health::QueryBudget`]), and the injectable logical clock every
//!   mediation-path sleep goes through,
//! * [`validate`] — response validation and quarantine
//!   ([`validate::ResponseValidator`]): drops returned tuples that violate
//!   the source schema or the issued query before they can poison an
//!   answer set,
//! * [`par`] — deterministic fork–join helpers; the mediator and the miner
//!   use them to spread independent work over `QPIAD_THREADS` workers
//!   without changing any result,
//! * [`version`] — per-source monotonic knowledge-version counters
//!   ([`version::KnowledgeVersionClock`]); the learn layer bumps them on
//!   re-mine and drift demotion so knowledge-derived caches (the mediation
//!   plan cache) can never serve stale plans.
//!
//! The design goal is to reproduce the *access-pattern constraints* that
//! motivate QPIAD: a mediator can only issue bound conjunctive selection
//! queries over the attributes a source supports, and can never ask a web
//! form for "tuples where attribute X is null".

pub mod catalog;
pub mod chaos;
pub mod columnar;
pub mod dict;
pub mod error;
pub mod fault;
pub mod hash;
pub mod health;
pub mod index;
pub mod par;
pub mod query;
pub mod relation;
pub mod schema;
pub mod source;
pub mod tuple;
pub mod validate;
pub mod value;
pub mod version;

pub use catalog::{GlobalCatalog, SourceBinding};
pub use chaos::{ChaosConfig, ChaosSchedule, ChaosSource, PassCell, PassChaos};
pub use columnar::ColumnarRelation;
pub use dict::{Dictionary, ValueId};
pub use error::SourceError;
pub use fault::{query_with_retry, FaultInjector, FaultPlan, RetryPolicy, SkewInjector, SkewPlan};
pub use hash::{FastHashMap, FastHashSet, FxHasher};
pub use health::{
    install_clock, BreakerConfig, BreakerProbe, BreakerState, BreakerView, ClockGuard,
    HealthRegistry, MediationClock, Observation, PressureLevel, QueryBudget,
};
pub use index::{AttrIndex, SelectionEngine};
pub use query::{AggFunc, AggregateQuery, JoinQuery, PredOp, Predicate, SelectQuery};
pub use relation::Relation;
pub use schema::{AttrId, AttrType, Attribute, Schema};
pub use source::{AutonomousSource, DirectSource, SourceMeter, WebSource};
pub use tuple::{Tuple, TupleId};
pub use validate::{query_validated, QuarantineReason, ResponseValidator, ValidationReport};
pub use value::Value;
pub use version::KnowledgeVersionClock;
