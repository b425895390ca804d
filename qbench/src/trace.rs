//! In-memory spans and the timing wrapper around member sources.
//!
//! Spans are taken from outside the program: around `QpiadServer::query`,
//! each wrapped source call, each `maintain_at` pass and the benchmark's own
//! `mine` closure. They are kept in memory and summarised when the run ends.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use qpiad_db::{AttrId, AutonomousSource, Schema, SelectQuery, SourceError, SourceMeter, Tuple};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed: `request`, `source.query`, `maintain` or `mine`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request index the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A source call issued while recording was on: which member, which query.
#[derive(Debug, Clone)]
pub struct IssuedCall {
    /// Request index the call was issued under.
    pub request: u64,
    /// Member slot (registration order) of the wrapped source.
    pub member: usize,
    /// The query as the source received it (local schema).
    pub query: SelectQuery,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    spans_on: bool,
    calls: Vec<IssuedCall>,
    calls_cap: usize,
}

/// Span recorder shared by the runner and every [`TimedSource`].
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer state poisoned by a panicking caller")
    }

    /// Starts request `id`; spans are recorded for it only if `spans_on`.
    pub fn begin_request(&self, id: u64, spans_on: bool) {
        let mut s = self.state();
        s.request = id;
        s.spans_on = spans_on;
    }

    /// Records issued source calls (up to `cap` of them) until called again
    /// with 0.
    pub fn record_calls(&self, cap: usize) {
        self.state().calls_cap = cap;
    }

    /// Opens a span under the innermost open one. `None` when spans are off.
    pub fn enter(&self, name: &'static str) -> Option<usize> {
        let mut s = self.state();
        if !s.spans_on {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let idx = s.spans.len();
        let span = Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: s.open.last().copied(),
            request: s.request,
        };
        s.spans.push(span);
        s.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Self::enter`].
    pub fn exit(&self, idx: Option<usize>) {
        let Some(idx) = idx else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut s = self.state();
        s.spans[idx].end_ns = now;
        let top = s.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    fn note_call(&self, member: usize, query: &SelectQuery) {
        let mut s = self.state();
        if s.calls.len() < s.calls_cap {
            let request = s.request;
            s.calls.push(IssuedCall {
                request,
                member,
                query: query.clone(),
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Every issued call recorded so far.
    pub fn calls(&self) -> Vec<IssuedCall> {
        self.state().calls.clone()
    }
}

/// Sum of each span's direct children's durations, indexed like `spans`.
pub fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut out = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            out[p] += s.dur_ns();
        }
    }
    out
}

/// Transparent timing wrapper: forwards every [`AutonomousSource`] method to
/// the wrapped source and times `query` into a `source.query` span. It also
/// counts calls and returned tuples, so per-call ratios are taken where the
/// work happens.
pub struct TimedSource<'a> {
    inner: &'a dyn AutonomousSource,
    tracer: Arc<Tracer>,
    member: usize,
    calls: AtomicUsize,
    tuples: AtomicUsize,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner`, the member registered in slot `member`.
    pub fn new(inner: &'a dyn AutonomousSource, tracer: Arc<Tracer>, member: usize) -> Self {
        TimedSource {
            inner,
            tracer,
            member,
            calls: AtomicUsize::new(0),
            tuples: AtomicUsize::new(0),
        }
    }

    /// `(calls, tuples returned)` through this wrapper so far.
    pub fn counts(&self) -> (usize, usize) {
        (
            self.calls.load(Ordering::Relaxed),
            self.tuples.load(Ordering::Relaxed),
        )
    }
}

impl AutonomousSource for TimedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn supports(&self, attr: AttrId) -> bool {
        self.inner.supports(attr)
    }

    fn allows_null_binding(&self) -> bool {
        self.inner.allows_null_binding()
    }

    fn query(&self, q: &SelectQuery) -> Result<Vec<Tuple>, SourceError> {
        let span = self.tracer.enter("source.query");
        let result = self.inner.query(q);
        self.tracer.exit(span);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(rows) = &result {
            self.tuples.fetch_add(rows.len(), Ordering::Relaxed);
        }
        self.tracer.note_call(self.member, q);
        result
    }

    fn has_query_budget(&self) -> bool {
        self.inner.has_query_budget()
    }

    fn meter(&self) -> SourceMeter {
        self.inner.meter()
    }

    fn reset_meter(&self) {
        self.inner.reset_meter()
    }

    fn note_retries(&self, n: usize) {
        self.inner.note_retries(n)
    }

    fn note_failure(&self) {
        self.inner.note_failure()
    }

    fn note_degraded(&self) {
        self.inner.note_degraded()
    }

    fn note_quarantined(&self, n: usize) {
        self.inner.note_quarantined(n)
    }

    fn note_hedge(&self) {
        self.inner.note_hedge()
    }

    fn note_breaker_skip(&self) {
        self.inner.note_breaker_skip()
    }

    fn note_shed(&self, n: usize) {
        self.inner.note_shed(n)
    }

    fn note_deadline_refused(&self) {
        self.inner.note_deadline_refused()
    }

    fn note_knowledge_unavailable(&self) {
        self.inner.note_knowledge_unavailable()
    }

    fn note_drift(&self) {
        self.inner.note_drift()
    }

    fn note_refresh(&self) {
        self.inner.note_refresh()
    }

    fn note_refresh_failure(&self) {
        self.inner.note_refresh_failure()
    }

    fn note_latency(&self, d: std::time::Duration) {
        self.inner.note_latency(d)
    }

    fn note_plan_cache_hit(&self) {
        self.inner.note_plan_cache_hit()
    }

    fn note_plan_cache_miss(&self) {
        self.inner.note_plan_cache_miss()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrType, Predicate, Relation, TupleId, Value, WebSource};

    fn source() -> WebSource {
        let schema = Schema::of(
            "s",
            &[("a", AttrType::Categorical), ("b", AttrType::Categorical)],
        );
        let rows = (0..6u32)
            .map(|i| {
                Tuple::new(
                    TupleId(i),
                    vec![Value::str(["x", "y"][i as usize % 2]), Value::str("z")],
                )
            })
            .collect();
        WebSource::new("s", Relation::new(schema, rows))
    }

    /// Calls every metering hook once with a distinct argument.
    fn drive(s: &dyn AutonomousSource) {
        s.note_retries(3);
        s.note_failure();
        s.note_degraded();
        s.note_quarantined(5);
        s.note_hedge();
        s.note_breaker_skip();
        s.note_shed(7);
        s.note_deadline_refused();
        s.note_knowledge_unavailable();
        s.note_drift();
        s.note_refresh();
        s.note_refresh_failure();
        s.note_latency(std::time::Duration::from_nanos(11));
        s.note_plan_cache_hit();
        s.note_plan_cache_miss();
        let a = s.schema().expect_attr("a");
        s.query(&SelectQuery::new(vec![Predicate::eq(a, "x")]))
            .expect("plain query");
        assert!(s
            .query(&SelectQuery::new(vec![Predicate::is_null(a)]))
            .is_err());
    }

    #[test]
    fn wrapper_forwards_every_hook_and_the_meter() {
        let plain = source();
        let inner = source();
        let wrapped = TimedSource::new(&inner, Arc::new(Tracer::default()), 0);
        drive(&plain);
        drive(&wrapped);
        assert_eq!(plain.meter(), wrapped.meter());
        assert_ne!(wrapped.meter(), SourceMeter::default());
        assert_eq!(wrapped.counts(), (2, 3));
        assert_eq!(wrapped.name(), plain.name());
        assert_eq!(wrapped.has_query_budget(), plain.has_query_budget());
        assert_eq!(wrapped.allows_null_binding(), plain.allows_null_binding());
        wrapped.reset_meter();
        assert_eq!(inner.meter(), SourceMeter::default());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::default();
        t.begin_request(1, true);
        let outer = t.enter("request");
        let inner = t.enter("source.query");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let child = child_ns(&spans);
        assert_eq!(child[0], spans[1].dur_ns());
        assert!(spans[0].dur_ns() >= child[0]);
    }
}
