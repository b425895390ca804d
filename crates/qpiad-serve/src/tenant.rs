//! Tenancy: who is asking, and how much mediation work they may buy.
//!
//! QPIAD's mediator absorbs two very different workloads at once: a human
//! waiting on a result page (latency-sensitive, shallow retry schedules)
//! and offline consumers re-running query batteries against refreshed
//! knowledge (throughput-oriented, happy to queue). A [`Tenant`] names the
//! caller, assigns it a [`TenantClass`], and pins the [`QueryBudget`]
//! every one of its mediation passes is funded from — so a flood of batch
//! work can never spend an interactive caller's deadline, and the server
//! can cap how many batch passes run concurrently without touching
//! interactive admission.

use qpiad_db::QueryBudget;

/// The two service classes the server schedules between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantClass {
    /// Latency-sensitive callers: admitted immediately, never queued
    /// behind batch work.
    Interactive,
    /// Throughput-oriented callers: at most
    /// [`ServeConfig::batch_concurrency`](crate::ServeConfig::batch_concurrency)
    /// of their passes execute at once; the rest queue.
    Batch,
}

impl TenantClass {
    /// Human-readable label (metrics, diagnostics).
    pub fn label(&self) -> &'static str {
        match self {
            TenantClass::Interactive => "interactive",
            TenantClass::Batch => "batch",
        }
    }
}

/// A registered caller: name, service class, and the per-query
/// [`QueryBudget`] its passes are funded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tenant {
    name: String,
    class: TenantClass,
    budget: QueryBudget,
}

impl Tenant {
    /// An interactive tenant with an unlimited per-query budget.
    pub fn interactive(name: impl Into<String>) -> Self {
        Tenant {
            name: name.into(),
            class: TenantClass::Interactive,
            budget: QueryBudget::unlimited(),
        }
    }

    /// A batch tenant with an unlimited per-query budget.
    pub fn batch(name: impl Into<String>) -> Self {
        Tenant {
            name: name.into(),
            class: TenantClass::Batch,
            budget: QueryBudget::unlimited(),
        }
    }

    /// Overrides the per-query budget every pass for this tenant is funded
    /// from. Each pass receives a fresh copy, so one expensive query never
    /// drains a later one.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's service class.
    pub fn class(&self) -> TenantClass {
        self.class
    }

    /// The per-query budget.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn builders_pin_class_and_budget() {
        let t = Tenant::interactive("alice");
        assert_eq!(t.class(), TenantClass::Interactive);
        assert_eq!(t.budget(), QueryBudget::unlimited());

        let b = Tenant::batch("nightly")
            .with_budget(QueryBudget::unlimited().with_deadline(Duration::from_millis(50)));
        assert_eq!(b.class(), TenantClass::Batch);
        assert_eq!(b.budget().deadline, Duration::from_millis(50));
        assert_eq!(TenantClass::Batch.label(), "batch");
        assert_eq!(TenantClass::Interactive.label(), "interactive");
    }
}
