//! A member source whose stored rows shift between seeded phases.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use qpiad_db::{
    AttrId, AutonomousSource, Relation, Schema, SelectQuery, SourceError, SourceMeter, Tuple,
    WebSource,
};

/// Serves one of several [`WebSource`]s — one per drift phase — under a
/// single name. The caller switches phases between requests. Metering
/// hooks go to the phase current when they fire, and the meter reading is
/// the sum over all phases, so counts never jump at a switch.
pub struct PhasedSource {
    phases: Vec<WebSource>,
    current: AtomicUsize,
}

impl PhasedSource {
    /// Wraps the phase sources; they must share one name and schema.
    pub fn new(phases: Vec<WebSource>) -> Self {
        assert!(
            !phases.is_empty(),
            "a phased source needs at least one phase"
        );
        PhasedSource {
            phases,
            current: AtomicUsize::new(0),
        }
    }

    /// Makes `phase` the one served from now on.
    pub fn set_phase(&self, phase: usize) {
        assert!(phase < self.phases.len(), "phase {phase} out of range");
        self.current.store(phase, Ordering::Relaxed);
    }

    /// The stored rows of `phase`.
    pub fn relation(&self, phase: usize) -> &Relation {
        self.phases[phase].relation()
    }

    fn now(&self) -> &WebSource {
        &self.phases[self.current.load(Ordering::Relaxed)]
    }
}

fn add(total: &mut SourceMeter, m: &SourceMeter) {
    total.queries += m.queries;
    total.tuples_returned += m.tuples_returned;
    total.rejected += m.rejected;
    total.failures += m.failures;
    total.retries += m.retries;
    total.degraded += m.degraded;
    total.quarantined += m.quarantined;
    total.hedges += m.hedges;
    total.breaker_skips += m.breaker_skips;
    total.shed += m.shed;
    total.deadline_refused += m.deadline_refused;
    total.knowledge_unavailable += m.knowledge_unavailable;
    total.drift_events += m.drift_events;
    total.refreshes += m.refreshes;
    total.refresh_failures += m.refresh_failures;
    total.latency_ns += m.latency_ns;
    total.plan_cache_hits += m.plan_cache_hits;
    total.plan_cache_misses += m.plan_cache_misses;
}

impl AutonomousSource for PhasedSource {
    fn name(&self) -> &str {
        self.phases[0].name()
    }

    fn schema(&self) -> &Arc<Schema> {
        self.phases[0].schema()
    }

    fn supports(&self, attr: AttrId) -> bool {
        self.now().supports(attr)
    }

    fn allows_null_binding(&self) -> bool {
        self.now().allows_null_binding()
    }

    fn query(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError> {
        self.now().query(q)
    }

    fn meter(&self) -> SourceMeter {
        let mut total = SourceMeter::default();
        for p in &self.phases {
            add(&mut total, &p.meter());
        }
        total
    }

    fn reset_meter(&self) {
        for p in &self.phases {
            p.reset_meter();
        }
    }

    fn note_retries(&self, n: usize) {
        self.now().note_retries(n)
    }

    fn note_failure(&self) {
        self.now().note_failure()
    }

    fn note_degraded(&self) {
        self.now().note_degraded()
    }

    fn note_quarantined(&self, n: usize) {
        self.now().note_quarantined(n)
    }

    fn note_hedge(&self) {
        self.now().note_hedge()
    }

    fn note_breaker_skip(&self) {
        self.now().note_breaker_skip()
    }

    fn note_shed(&self, n: usize) {
        self.now().note_shed(n)
    }

    fn note_deadline_refused(&self) {
        self.now().note_deadline_refused()
    }

    fn note_knowledge_unavailable(&self) {
        self.now().note_knowledge_unavailable()
    }

    fn note_drift(&self) {
        self.now().note_drift()
    }

    fn note_refresh(&self) {
        self.now().note_refresh()
    }

    fn note_refresh_failure(&self) {
        self.now().note_refresh_failure()
    }

    fn note_latency(&self, d: std::time::Duration) {
        self.now().note_latency(d)
    }

    fn note_plan_cache_hit(&self) {
        self.now().note_plan_cache_hit()
    }

    fn note_plan_cache_miss(&self) {
        self.now().note_plan_cache_miss()
    }
}
