//! Errors raised by (or on behalf of) autonomous sources.
//!
//! The variants fall into three families the mediation layer treats
//! differently:
//!
//! * **rejections** — the query is inexpressible on this source
//!   ([`SourceError::NullBindingUnsupported`],
//!   [`SourceError::UnsupportedAttribute`]) or the session budget is spent
//!   ([`SourceError::QueryLimitExceeded`]); re-issuing the same query cannot
//!   help;
//! * **failures** — the source failed to serve a valid query
//!   ([`SourceError::Unavailable`], [`SourceError::Timeout`]); transient
//!   ones ([`SourceError::is_transient`]) are worth retrying;
//! * **internal** — a mediator-side invariant broke while serving the
//!   source ([`SourceError::Internal`]); surfaced as a recorded outcome
//!   instead of a panic so one bad member cannot poison a whole answer;
//! * **refusals** — the mediator itself declined to issue the query
//!   because the source's circuit breaker is open
//!   ([`SourceError::CircuitOpen`]) or the caller's query budget is spent
//!   ([`SourceError::BudgetExhausted`]); the source was never contacted,
//!   so these charge neither meters nor the breaker.

use std::fmt;

use crate::schema::AttrId;

/// Why a source rejected or failed to serve a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The query binds a null (`attr IS NULL`) and the source's web-form
    /// interface cannot express that pattern.
    NullBindingUnsupported {
        /// The offending attribute (in the source's local schema).
        attr: AttrId,
    },
    /// The query constrains an attribute the source's local schema does not
    /// support.
    UnsupportedAttribute {
        /// The offending attribute id as used in the query.
        attr: AttrId,
    },
    /// The source's per-session query budget is exhausted (web sources may
    /// limit the number of queries they answer, §4.1).
    QueryLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// The source could not be reached (network fault, overload, outage).
    Unavailable {
        /// `true` for transient conditions worth retrying; `false` for a
        /// hard outage for the rest of the session.
        retryable: bool,
    },
    /// The source did not answer within the deadline. Always transient.
    Timeout {
        /// How long the caller waited before giving up.
        waited_ms: u64,
    },
    /// A mediator-side invariant broke while serving this source (e.g. a
    /// member selected as a correlated source carries no statistics).
    Internal {
        /// What broke, for diagnostics.
        message: String,
    },
    /// The mediator refused to issue the query because the source's
    /// circuit breaker is open (see
    /// [`BreakerState`](crate::health::BreakerState)). No query reached
    /// the source, so this is neither transient nor a source failure — it
    /// must not feed meters or the breaker itself.
    CircuitOpen,
    /// The mediator refused to issue the query because the caller's
    /// [`QueryBudget`](crate::health::QueryBudget) (deadline or attempt
    /// cap) is exhausted. Like [`SourceError::CircuitOpen`], a
    /// mediator-side refusal: neither transient nor a source failure.
    BudgetExhausted,
}

impl SourceError {
    /// `true` for errors a retry can plausibly fix: retryable unavailability
    /// and timeouts. Rejections and hard outages are not transient.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SourceError::Unavailable { retryable: true } | SourceError::Timeout { .. }
        )
    }

    /// `true` for errors that mean the source (or the mediation layer)
    /// *failed* to serve a valid query, as opposed to rejecting an
    /// inexpressible or over-budget one.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            SourceError::Unavailable { .. }
                | SourceError::Timeout { .. }
                | SourceError::Internal { .. }
        )
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::NullBindingUnsupported { attr } => {
                write!(
                    f,
                    "source does not support null binding on attribute {attr}"
                )
            }
            SourceError::UnsupportedAttribute { attr } => {
                write!(f, "source does not support queries on attribute {attr}")
            }
            SourceError::QueryLimitExceeded { limit } => {
                write!(f, "source query limit of {limit} queries exceeded")
            }
            SourceError::Unavailable { retryable: true } => {
                write!(f, "source temporarily unavailable")
            }
            SourceError::Unavailable { retryable: false } => {
                write!(f, "source unavailable (not retryable)")
            }
            SourceError::Timeout { waited_ms } => {
                write!(f, "source timed out after {waited_ms} ms")
            }
            SourceError::Internal { message } => {
                write!(f, "internal mediation error: {message}")
            }
            SourceError::CircuitOpen => {
                write!(f, "query skipped: source circuit breaker is open")
            }
            SourceError::BudgetExhausted => {
                write!(f, "query skipped: query budget exhausted")
            }
        }
    }
}

impl std::error::Error for SourceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = SourceError::NullBindingUnsupported { attr: AttrId(3) };
        assert!(e.to_string().contains("null binding"));
        let e = SourceError::UnsupportedAttribute { attr: AttrId(1) };
        assert!(e.to_string().contains("does not support queries"));
        let e = SourceError::QueryLimitExceeded { limit: 10 };
        assert!(e.to_string().contains("10"));
        let e = SourceError::Unavailable { retryable: true };
        assert!(e.to_string().contains("temporarily"));
        let e = SourceError::Timeout { waited_ms: 250 };
        assert!(e.to_string().contains("250"));
        let e = SourceError::Internal {
            message: "stats missing".into(),
        };
        assert!(e.to_string().contains("stats missing"));
        assert!(SourceError::CircuitOpen
            .to_string()
            .contains("circuit breaker"));
        assert!(SourceError::BudgetExhausted.to_string().contains("budget"));
    }

    #[test]
    fn transient_and_failure_classification() {
        assert!(SourceError::Unavailable { retryable: true }.is_transient());
        assert!(SourceError::Timeout { waited_ms: 1 }.is_transient());
        assert!(!SourceError::Unavailable { retryable: false }.is_transient());
        assert!(!SourceError::QueryLimitExceeded { limit: 1 }.is_transient());
        assert!(!SourceError::Internal {
            message: String::new()
        }
        .is_transient());

        assert!(SourceError::Unavailable { retryable: false }.is_failure());
        assert!(SourceError::Timeout { waited_ms: 1 }.is_failure());
        assert!(SourceError::Internal {
            message: String::new()
        }
        .is_failure());
        assert!(!SourceError::NullBindingUnsupported { attr: AttrId(0) }.is_failure());
        assert!(!SourceError::UnsupportedAttribute { attr: AttrId(0) }.is_failure());
        assert!(!SourceError::QueryLimitExceeded { limit: 1 }.is_failure());

        // Mediator-side refusals: no query reached the source, so they are
        // neither retryable nor chargeable to the source's health.
        assert!(!SourceError::CircuitOpen.is_transient());
        assert!(!SourceError::CircuitOpen.is_failure());
        assert!(!SourceError::BudgetExhausted.is_transient());
        assert!(!SourceError::BudgetExhausted.is_failure());
    }
}
