//! Source health management: circuit breakers, logical time, and per-query
//! budgets.
//!
//! The mediator fronts autonomous sources it cannot control (§4.1); PR 2's
//! retry boundary makes a *single* query survive a transient fault, but a
//! multi-rewrite plan against a down source would still burn its whole
//! retry budget on every rewritten query. This module adds the
//! availability layer above retries:
//!
//! * [`HealthRegistry`] + [`BreakerProbe`] — a per-source **circuit
//!   breaker** (`Closed → Open → HalfOpen`). Failures observed at the
//!   query-issue boundary open the breaker after
//!   [`BreakerConfig::failure_threshold`] consecutive failures; while Open,
//!   mediation skips the source up front and charges the skipped work to
//!   `Degradation` instead of the retry budget; after
//!   [`BreakerConfig::cooldown_passes`] mediation passes the breaker
//!   half-opens and admits [`BreakerConfig::probe_limit`] probe queries.
//! * [`QueryBudget`] — a **deadline + attempt budget** for one mediation
//!   pass, decremented through the rewrite loop and clamped onto each
//!   query's [`RetryPolicy`] so backoff never
//!   overshoots the caller's deadline.
//! * [`sleep`] / [`MediationClock`] — an injectable **logical clock**.
//!   Backoff and injected latency sleep through [`sleep`]; on an installed
//!   logical clock (tests, benches) the sleep advances that clock's
//!   counter instead of blocking a worker thread.
//!
//! # Determinism
//!
//! Breaker decisions must replay byte-identically at `QPIAD_THREADS=1`
//! and `8`, so the registry is only ever read and written at *sequential*
//! points of a mediation pass:
//!
//! 1. before fan-out, the caller snapshots each source's breaker into a
//!    [`BreakerView`] (and ticks the pass clock once via
//!    [`HealthRegistry::begin_pass`], which also half-opens cooled-down
//!    breakers);
//! 2. each member pass evolves a *local* [`BreakerProbe`] built from its
//!    view — admission decisions depend only on the snapshot and the
//!    member's own (deterministic) successes and failures, never on what
//!    other threads are doing;
//! 3. after fan-out, the probes' observation logs are absorbed into the
//!    registry in registration order ([`HealthRegistry::absorb`]).
//!
//! Cross-thread interleavings therefore cannot influence any breaker,
//! hedge, or budget decision.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::fault::RetryPolicy;

// ---------------------------------------------------------------------------
// Logical time
// ---------------------------------------------------------------------------

/// An injectable clock for everything on the mediation path that sleeps
/// (retry backoff, injected latency).
///
/// A `MediationClock` is either a **wall** clock (sleeps really block) or a
/// **logical** clock (sleeps bump a per-clock counter instead of blocking a
/// worker thread). The state lives in the clock *instance*: each
/// [`MediatorNetwork`] (or server, or test) owns its own
/// `Arc<MediationClock>`, so one caller's pass advancement can never warp
/// another's backoff schedule.
///
/// The clock reaches the sleep sites through a thread-local slot: callers
/// [`install_clock`] it for the duration of a pass (an RAII guard restores
/// the previous slot value), and `par` workers re-install the spawning
/// thread's clock so fan-out inherits it.
///
/// [`MediatorNetwork`]: ../../qpiad_core/network/struct.MediatorNetwork.html
#[derive(Debug, Default)]
pub struct MediationClock {
    logical: bool,
    nanos: AtomicU64,
}

impl MediationClock {
    /// A wall clock: [`sleep`] really blocks the calling thread.
    pub fn wall() -> Arc<Self> {
        Arc::new(Self {
            logical: false,
            nanos: AtomicU64::new(0),
        })
    }

    /// A logical clock: [`sleep`] advances this clock's counter and returns
    /// immediately. Used by tests, benches, and servers that must not park
    /// worker threads on injected latency.
    pub fn logical() -> Arc<Self> {
        Arc::new(Self {
            logical: true,
            nanos: AtomicU64::new(0),
        })
    }

    /// `true` iff this clock is logical.
    pub fn is_logical(&self) -> bool {
        self.logical
    }

    /// Nanoseconds accumulated by logical sleeps on this clock.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }

    /// Sleeps for `d` on this clock.
    pub fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        if self.logical {
            self.nanos.fetch_add(
                d.as_nanos().min(u128::from(u64::MAX)) as u64,
                Ordering::SeqCst,
            );
        } else {
            std::thread::sleep(d);
        }
    }
}

thread_local! {
    static CURRENT_CLOCK: RefCell<Option<Arc<MediationClock>>> = const { RefCell::new(None) };
}

/// Restores the previously installed clock when dropped.
#[must_use = "dropping the guard immediately uninstalls the clock"]
pub struct ClockGuard {
    previous: Option<Arc<MediationClock>>,
}

impl Drop for ClockGuard {
    fn drop(&mut self) {
        CURRENT_CLOCK.with(|slot| *slot.borrow_mut() = self.previous.take());
    }
}

/// Installs `clock` as the calling thread's mediation clock until the
/// returned guard drops. `None` uninstalls, falling back to wall time.
pub fn install_clock(clock: Option<Arc<MediationClock>>) -> ClockGuard {
    let previous = CURRENT_CLOCK.with(|slot| std::mem::replace(&mut *slot.borrow_mut(), clock));
    ClockGuard { previous }
}

/// The clock installed on the calling thread, if any. `par` captures this
/// before spawning workers so fan-out threads sleep on the caller's clock.
pub fn current_clock() -> Option<Arc<MediationClock>> {
    CURRENT_CLOCK.with(|slot| slot.borrow().clone())
}

/// Sleeps for `d` on the calling thread's installed [`MediationClock`] — a
/// counter bump on a logical clock, a real [`std::thread::sleep`] on a
/// wall clock or with no clock installed. Every sleep in the mediation
/// path (retry backoff, injected latency) goes through here.
pub fn sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    match current_clock() {
        Some(clock) => clock.sleep(d),
        None => std::thread::sleep(d),
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// The classic circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: every query is admitted.
    #[default]
    Closed,
    /// Tripped: the source is skipped up front; no query is issued.
    Open,
    /// Cooling down: up to [`BreakerConfig::probe_limit`] probe queries are
    /// admitted per pass; a success closes the breaker, a failure reopens it.
    HalfOpen,
}

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a Closed breaker.
    pub failure_threshold: u32,
    /// Mediation passes an Open breaker waits before half-opening.
    pub cooldown_passes: u64,
    /// Queries a HalfOpen breaker admits per pass.
    pub probe_limit: u32,
    /// Successes (while HalfOpen) needed to close the breaker again.
    pub success_threshold: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_passes: 2,
            probe_limit: 1,
            success_threshold: 1,
        }
    }
}

impl BreakerConfig {
    /// Overrides the consecutive-failure trip threshold (at least 1).
    pub fn with_failure_threshold(mut self, n: u32) -> Self {
        self.failure_threshold = n.max(1);
        self
    }

    /// Overrides the Open → HalfOpen cooldown, in mediation passes.
    pub fn with_cooldown_passes(mut self, n: u64) -> Self {
        self.cooldown_passes = n;
        self
    }

    /// Overrides the HalfOpen probe allowance per pass (at least 1).
    pub fn with_probe_limit(mut self, n: u32) -> Self {
        self.probe_limit = n.max(1);
        self
    }

    /// Overrides the successes needed to close a HalfOpen breaker (at
    /// least 1).
    pub fn with_success_threshold(mut self, n: u32) -> Self {
        self.success_threshold = n.max(1);
        self
    }
}

/// One success-or-failure outcome observed against a source at the
/// query-issue boundary. Probes log observations locally during a member
/// pass; the registry replays them sequentially afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The query was served (and its response validated clean).
    Success,
    /// The query failed (per
    /// [`SourceError::is_failure`](crate::error::SourceError::is_failure))
    /// or its response was quarantined.
    Failure,
}

/// The persistent per-source breaker record inside the registry.
#[derive(Debug, Clone, Copy, Default)]
struct BreakerCore {
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    /// Pass-clock value when the breaker last opened.
    opened_at: u64,
}

impl BreakerCore {
    fn apply(&mut self, obs: Observation, now: u64, config: &BreakerConfig) {
        match obs {
            Observation::Success => {
                self.consecutive_failures = 0;
                if self.state == BreakerState::HalfOpen {
                    self.half_open_successes += 1;
                    if self.half_open_successes >= config.success_threshold {
                        self.state = BreakerState::Closed;
                        self.half_open_successes = 0;
                    }
                }
            }
            Observation::Failure => {
                self.consecutive_failures += 1;
                self.half_open_successes = 0;
                match self.state {
                    BreakerState::HalfOpen => {
                        self.state = BreakerState::Open;
                        self.opened_at = now;
                    }
                    BreakerState::Closed
                        if self.consecutive_failures >= config.failure_threshold =>
                    {
                        self.state = BreakerState::Open;
                        self.opened_at = now;
                    }
                    _ => {}
                }
            }
        }
    }
}

/// A `Copy` snapshot of one source's breaker, taken sequentially before a
/// fan-out. A disabled view (no registry configured) admits everything and
/// records nothing.
#[derive(Debug, Clone, Copy)]
pub struct BreakerView {
    state: BreakerState,
    config: BreakerConfig,
    enabled: bool,
}

impl BreakerView {
    /// The view of an unmanaged source: always Closed, never recording.
    pub fn disabled() -> Self {
        BreakerView {
            state: BreakerState::Closed,
            config: BreakerConfig::default(),
            enabled: false,
        }
    }

    /// The snapshotted state.
    pub fn state(&self) -> BreakerState {
        self.state
    }
}

/// The local, single-pass evolution of one source's breaker.
///
/// A probe is built from a [`BreakerView`] at the start of a member pass
/// and consulted before every query against that source:
///
/// 1. [`BreakerProbe::admits`] — may another query be issued?
/// 2. [`BreakerProbe::note_issued`] — the caller committed to issuing one
///    (consumes a HalfOpen probe slot);
/// 3. [`BreakerProbe::record_success`] / [`BreakerProbe::record_failure`]
///    (`BreakerProbe::record_failure`) — the outcome, which both evolves
///    the local state (tripping mid-plan after `failure_threshold`
///    consecutive failures) and appends to the observation log the
///    registry absorbs after the pass.
#[derive(Debug)]
pub struct BreakerProbe {
    enabled: bool,
    state: BreakerState,
    config: BreakerConfig,
    consecutive_failures: u32,
    half_open_successes: u32,
    probes_issued: u32,
    log: Vec<Observation>,
}

impl BreakerProbe {
    /// A probe that admits everything and records nothing (no registry).
    pub fn disabled() -> Self {
        BreakerProbe::new(BreakerView::disabled())
    }

    /// Builds the pass-local probe from a sequentially taken snapshot.
    pub fn new(view: BreakerView) -> Self {
        BreakerProbe {
            enabled: view.enabled,
            state: view.state,
            config: view.config,
            consecutive_failures: 0,
            half_open_successes: 0,
            probes_issued: 0,
            log: Vec::new(),
        }
    }

    /// `true` iff another query may be issued against the source right now.
    pub fn admits(&self) -> bool {
        if !self.enabled {
            return true;
        }
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => self.probes_issued < self.config.probe_limit,
        }
    }

    /// Commits one admitted query (consumes a HalfOpen probe slot). Call
    /// after [`Self::admits`] returned `true` and any other admission gate
    /// (e.g. the budget) also passed.
    pub fn note_issued(&mut self) {
        if self.enabled && self.state == BreakerState::HalfOpen {
            self.probes_issued += 1;
        }
    }

    /// Records a served-and-clean query.
    pub fn record_success(&mut self) {
        if !self.enabled {
            return;
        }
        self.log.push(Observation::Success);
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.half_open_successes += 1;
            if self.half_open_successes >= self.config.success_threshold {
                self.state = BreakerState::Closed;
            }
        }
    }

    /// Records a failed (or quarantined) query; trips the local state to
    /// Open after `failure_threshold` consecutive failures, so the rest of
    /// the plan is skipped.
    pub fn record_failure(&mut self) {
        if !self.enabled {
            return;
        }
        self.log.push(Observation::Failure);
        self.consecutive_failures += 1;
        self.half_open_successes = 0;
        match self.state {
            BreakerState::HalfOpen => self.state = BreakerState::Open,
            BreakerState::Closed if self.consecutive_failures >= self.config.failure_threshold => {
                self.state = BreakerState::Open
            }
            _ => {}
        }
    }

    /// The probe's current (local) state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Drains the observation log for [`HealthRegistry::absorb`].
    pub fn take_observations(&mut self) -> Vec<Observation> {
        std::mem::take(&mut self.log)
    }
}

/// The process-visible breaker registry: one `BreakerCore` per source
/// name, plus the pass clock. All mutation happens at sequential points
/// (see the module docs), so a mutex suffices and no decision ever races.
#[derive(Debug)]
pub struct HealthRegistry {
    config: BreakerConfig,
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// The pass clock: incremented once per mediation pass. A logical
    /// clock, not wall time, so cooldowns replay identically everywhere.
    now: u64,
    cores: HashMap<String, BreakerCore>,
}

impl HealthRegistry {
    /// A registry with the given breaker tuning.
    pub fn new(config: BreakerConfig) -> Self {
        HealthRegistry {
            config,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// The breaker tuning.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Starts a mediation pass: ticks the pass clock and half-opens every
    /// Open breaker whose cooldown has elapsed. Must be called at a
    /// sequential point (before any fan-out). Returns the new clock value.
    pub fn begin_pass(&self) -> u64 {
        let mut g = self.inner.lock();
        g.now += 1;
        let now = g.now;
        for core in g.cores.values_mut() {
            if core.state == BreakerState::Open
                && now.saturating_sub(core.opened_at) > self.config.cooldown_passes
            {
                core.state = BreakerState::HalfOpen;
                core.half_open_successes = 0;
            }
        }
        now
    }

    /// Snapshots one source's breaker (sequential point).
    pub fn view(&self, source: &str) -> BreakerView {
        let state = self.state(source);
        BreakerView {
            state,
            config: self.config,
            enabled: true,
        }
    }

    /// The current state of one source's breaker (Closed if unknown).
    pub fn state(&self, source: &str) -> BreakerState {
        self.inner
            .lock()
            .cores
            .get(source)
            .map(|c| c.state)
            .unwrap_or_default()
    }

    /// Replays a member pass's observation log into the registry, in the
    /// order the pass recorded them. Must be called at a sequential point
    /// (after the fan-out), in member-registration order.
    pub fn absorb(&self, source: &str, observations: &[Observation]) {
        if observations.is_empty() {
            return;
        }
        let mut g = self.inner.lock();
        let now = g.now;
        let core = g.cores.entry(source.to_string()).or_default();
        for obs in observations {
            core.apply(*obs, now, &self.config);
        }
    }
}

// ---------------------------------------------------------------------------
// Query budget
// ---------------------------------------------------------------------------

/// A per-mediation-pass budget: how many source attempts the pass may spend
/// and how much time it may commit to backoff (and, when
/// [`Self::with_query_cost`] models per-query latency, to queries).
///
/// The budget is *plan-time* and worst-case: [`QueryBudget::admit`] clamps
/// a [`RetryPolicy`] so that its full retry schedule fits what remains,
/// then deducts that worst case — so admission decisions are identical
/// whether the plan later runs sequentially or concurrently, and backoff
/// can never overshoot the deadline. Exhaustion degrades gracefully:
/// queries already admitted keep their answers; the rest of the plan is
/// skipped and accounted in `Degradation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBudget {
    /// Remaining time budget (worst-case backoff + modeled query cost).
    pub deadline: Duration,
    /// Remaining source attempts (each retry counts).
    pub attempts: u32,
    /// Modeled cost of one query attempt, charged against the deadline.
    /// Zero (the default) makes the deadline a pure backoff budget.
    pub query_cost: Duration,
}

impl QueryBudget {
    /// No limits: every admission passes through the policy unchanged.
    pub fn unlimited() -> Self {
        QueryBudget {
            deadline: Duration::MAX,
            attempts: u32::MAX,
            query_cost: Duration::ZERO,
        }
    }

    /// Caps the pass's cumulative worst-case backoff (+ modeled query cost).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Caps the pass's total source attempts (retries included).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts;
        self
    }

    /// Models a fixed per-attempt latency charged against the deadline.
    pub fn with_query_cost(mut self, cost: Duration) -> Self {
        self.query_cost = cost;
        self
    }

    /// `true` iff no further query can be admitted.
    pub fn is_exhausted(&self) -> bool {
        self.attempts == 0 || self.deadline < self.query_cost
    }

    /// Admits one query: returns `policy` with its attempt cap clamped so
    /// the worst-case retry schedule (deterministic backoff for the given
    /// query fingerprint, plus modeled query cost) fits the remaining
    /// budget, deducting that worst case. Returns `None` — skip the query —
    /// when not even a single attempt fits.
    pub fn admit(&mut self, policy: &RetryPolicy, fingerprint: u64) -> Option<RetryPolicy> {
        if self.is_exhausted() {
            return None;
        }
        let cap = policy.max_attempts.max(1).min(self.attempts);
        let mut granted = 1u32;
        let mut cost = self.query_cost;
        while granted < cap {
            // Retry number `granted` costs its backoff plus one attempt.
            let step = policy
                .backoff(fingerprint, granted - 1)
                .saturating_add(self.query_cost);
            match cost.checked_add(step) {
                Some(c) if c <= self.deadline => {
                    cost = c;
                    granted += 1;
                }
                _ => break,
            }
        }
        self.attempts = self.attempts.saturating_sub(granted);
        self.deadline = self.deadline.saturating_sub(cost);
        Some(policy.with_max_attempts(granted))
    }
}

// ---------------------------------------------------------------------------
// Pressure levels (overload degradation ladder)
// ---------------------------------------------------------------------------

/// How loaded the serving layer is, as seen by one mediation pass.
///
/// Pressure is the overload counterpart of a [`QueryBudget`]: where the
/// budget bounds what *one* pass may spend, pressure bounds what the
/// *mediator as a whole* commits to possible-answer retrieval while many
/// passes are in flight. Each level is a rung of the degradation ladder:
///
/// | level        | admitted rewrite mass | hedging |
/// |--------------|----------------------|---------|
/// | `Normal`     | full plan            | on      |
/// | `Elevated`   | top half (by rank)   | on      |
/// | `High`       | top quarter          | off     |
/// | `Critical`   | none (certain only)  | off     |
///
/// Rewrites clamped off a plan are skipped with
/// `SkipReason::Overload` and charged to `Degradation` exactly like
/// breaker skips, so EXPLAIN and the meters state the recall mass that
/// overload cost. Certain answers (the base query) are never shed: the
/// ladder only trades *possible-answer* recall for throughput, which
/// keeps the answer lattice monotone as pressure rises.
///
/// The ordering derives from declaration order: `Normal < Elevated <
/// High < Critical`, so "at least this loaded" is a plain `>=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PressureLevel {
    /// No overload: the full admitted plan runs.
    #[default]
    Normal,
    /// Load above half capacity: rewrite mass halves, hedging stays on.
    Elevated,
    /// Load above three-quarters capacity: top quarter of the plan only,
    /// hedging disabled (a hedge doubles source queries — the first
    /// thing to go when capacity is scarce).
    High,
    /// At or over capacity: certain answers only.
    Critical,
}

impl PressureLevel {
    /// Derives the level from an instantaneous load over a capacity,
    /// using pure integer math so every thread derives the same level
    /// from the same gauge reading. A zero capacity disables the ladder
    /// (always `Normal`).
    pub fn from_load(load: usize, capacity: usize) -> Self {
        if capacity == 0 {
            return PressureLevel::Normal;
        }
        if load >= capacity {
            PressureLevel::Critical
        } else if load * 4 >= capacity * 3 {
            PressureLevel::High
        } else if load * 2 >= capacity {
            PressureLevel::Elevated
        } else {
            PressureLevel::Normal
        }
    }

    /// Fraction of the rank-ordered rewrite plan this rung still admits.
    pub fn rewrite_fraction(&self) -> f64 {
        match self {
            PressureLevel::Normal => 1.0,
            PressureLevel::Elevated => 0.5,
            PressureLevel::High => 0.25,
            PressureLevel::Critical => 0.0,
        }
    }

    /// Whether hedged (doubled) queries are still allowed at this rung.
    pub fn allows_hedging(&self) -> bool {
        matches!(self, PressureLevel::Normal | PressureLevel::Elevated)
    }

    /// Stable label for EXPLAIN output and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            PressureLevel::Normal => "normal",
            PressureLevel::Elevated => "elevated",
            PressureLevel::High => "high",
            PressureLevel::Critical => "critical",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(config: BreakerConfig) -> HealthRegistry {
        HealthRegistry::new(config)
    }

    #[test]
    fn closed_breaker_trips_after_threshold_consecutive_failures() {
        let reg = registry(BreakerConfig::default().with_failure_threshold(3));
        reg.begin_pass();
        reg.absorb("s", &[Observation::Failure, Observation::Failure]);
        assert_eq!(reg.state("s"), BreakerState::Closed);
        // An interleaved success resets the consecutive count.
        reg.absorb(
            "s",
            &[
                Observation::Success,
                Observation::Failure,
                Observation::Failure,
            ],
        );
        assert_eq!(reg.state("s"), BreakerState::Closed);
        reg.absorb("s", &[Observation::Failure]);
        assert_eq!(reg.state("s"), BreakerState::Open);
    }

    #[test]
    fn open_breaker_half_opens_only_after_the_cooldown() {
        let reg = registry(
            BreakerConfig::default()
                .with_failure_threshold(1)
                .with_cooldown_passes(2),
        );
        reg.begin_pass(); // pass 1
        reg.absorb("s", &[Observation::Failure]);
        assert_eq!(reg.state("s"), BreakerState::Open);
        reg.begin_pass(); // pass 2: 1 pass elapsed < 2
        assert_eq!(reg.state("s"), BreakerState::Open);
        reg.begin_pass(); // pass 3: 2 passes elapsed, still <= cooldown
        assert_eq!(reg.state("s"), BreakerState::Open);
        reg.begin_pass(); // pass 4: cooldown elapsed
        assert_eq!(reg.state("s"), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_probe_success_closes_and_failure_reopens() {
        let config = BreakerConfig::default()
            .with_failure_threshold(1)
            .with_cooldown_passes(0);
        let reg = registry(config);
        reg.begin_pass();
        reg.absorb("s", &[Observation::Failure]);
        reg.begin_pass();
        assert_eq!(reg.state("s"), BreakerState::HalfOpen);
        reg.absorb("s", &[Observation::Failure]);
        assert_eq!(reg.state("s"), BreakerState::Open);
        reg.begin_pass();
        assert_eq!(reg.state("s"), BreakerState::HalfOpen);
        reg.absorb("s", &[Observation::Success]);
        assert_eq!(reg.state("s"), BreakerState::Closed);
    }

    #[test]
    fn success_threshold_requires_multiple_clean_probes() {
        let config = BreakerConfig::default()
            .with_failure_threshold(1)
            .with_cooldown_passes(0)
            .with_success_threshold(2);
        let reg = registry(config);
        reg.begin_pass();
        reg.absorb("s", &[Observation::Failure]);
        reg.begin_pass();
        reg.absorb("s", &[Observation::Success]);
        assert_eq!(reg.state("s"), BreakerState::HalfOpen);
        reg.absorb("s", &[Observation::Success]);
        assert_eq!(reg.state("s"), BreakerState::Closed);
    }

    #[test]
    fn probe_admits_and_trips_locally_mid_plan() {
        let reg = registry(BreakerConfig::default().with_failure_threshold(2));
        reg.begin_pass();
        let mut probe = BreakerProbe::new(reg.view("s"));
        assert!(probe.admits());
        probe.note_issued();
        probe.record_failure();
        assert!(probe.admits(), "one failure is below the threshold");
        probe.note_issued();
        probe.record_failure();
        assert_eq!(probe.state(), BreakerState::Open);
        assert!(!probe.admits(), "local trip must stop the rest of the plan");
        // The registry sees the same story on absorb.
        reg.absorb("s", &probe.take_observations());
        assert_eq!(reg.state("s"), BreakerState::Open);
    }

    #[test]
    fn half_open_probe_limit_caps_admissions_per_pass() {
        // The probe-limit edge: with success_threshold above what one pass
        // can possibly confirm, the breaker stays HalfOpen even though
        // every admitted probe succeeded.
        let config = BreakerConfig::default()
            .with_failure_threshold(1)
            .with_cooldown_passes(0)
            .with_probe_limit(2)
            .with_success_threshold(3);
        let reg = registry(config);
        reg.begin_pass();
        reg.absorb("s", &[Observation::Failure]);
        reg.begin_pass();
        let mut probe = BreakerProbe::new(reg.view("s"));
        assert_eq!(probe.state(), BreakerState::HalfOpen);
        assert!(probe.admits());
        probe.note_issued();
        probe.record_success();
        assert!(probe.admits(), "second probe slot is free");
        probe.note_issued();
        probe.record_success();
        assert!(!probe.admits(), "probe limit reached");
        assert_eq!(probe.state(), BreakerState::HalfOpen);
        reg.absorb("s", &probe.take_observations());
        assert_eq!(reg.state("s"), BreakerState::HalfOpen);
    }

    #[test]
    fn disabled_probe_admits_everything_and_records_nothing() {
        let mut probe = BreakerProbe::disabled();
        for _ in 0..100 {
            assert!(probe.admits());
            probe.note_issued();
            probe.record_failure();
        }
        assert_eq!(probe.state(), BreakerState::Closed);
        assert!(probe.take_observations().is_empty());
    }

    #[test]
    fn budget_clamps_attempts_and_deducts_worst_case() {
        let policy = RetryPolicy::default().with_max_attempts(3);
        let mut budget = QueryBudget::unlimited().with_max_attempts(5);
        let p = budget.admit(&policy, 1).expect("admitted");
        assert_eq!(p.max_attempts, 3);
        assert_eq!(budget.attempts, 2);
        let p = budget.admit(&policy, 2).expect("admitted");
        assert_eq!(p.max_attempts, 2, "only two attempts remain");
        assert!(budget.is_exhausted());
        assert_eq!(budget.admit(&policy, 3), None);
    }

    #[test]
    fn budget_deadline_caps_cumulative_backoff() {
        // Every backoff is 10 ms plus up to 50 % jitter.
        let policy = RetryPolicy::default()
            .with_max_attempts(4)
            .with_backoff(Duration::from_millis(10), Duration::from_millis(10));
        // Deadline below any single backoff: only the (free) first attempt
        // fits, and it costs the deadline nothing.
        let mut tight = QueryBudget::unlimited().with_deadline(Duration::from_millis(5));
        let p = tight
            .admit(&policy, 42)
            .expect("first attempt is always free");
        assert_eq!(p.max_attempts, 1, "no retry's backoff fits a 5 ms deadline");
        assert_eq!(tight.deadline, Duration::from_millis(5));
        // A generous deadline admits the full schedule and deducts its
        // worst case (three retries at >= 10 ms each).
        let mut roomy = QueryBudget::unlimited().with_deadline(Duration::from_millis(100));
        let p = roomy.admit(&policy, 42).expect("admitted");
        assert_eq!(p.max_attempts, 4);
        assert!(
            roomy.deadline <= Duration::from_millis(70),
            "worst case deducted"
        );
    }

    #[test]
    fn budget_query_cost_models_deadline_exhaustion() {
        let policy = RetryPolicy::none();
        let mut budget = QueryBudget::unlimited()
            .with_deadline(Duration::from_millis(10))
            .with_query_cost(Duration::from_millis(4));
        assert!(budget.admit(&policy, 1).is_some()); // 4 ms spent
        assert!(budget.admit(&policy, 2).is_some()); // 8 ms spent
        assert_eq!(budget.admit(&policy, 3), None, "2 ms left < 4 ms per query");
        assert!(budget.is_exhausted());
    }

    #[test]
    fn unlimited_budget_is_transparent() {
        let policy = RetryPolicy::default().with_max_attempts(7);
        let mut budget = QueryBudget::unlimited();
        for fp in 0..1000 {
            assert_eq!(budget.admit(&policy, fp), Some(policy));
        }
        assert!(!budget.is_exhausted());
    }

    #[test]
    fn logical_sleep_advances_the_counter_without_blocking() {
        let clock = MediationClock::logical();
        let _guard = install_clock(Some(clock.clone()));
        let before = std::time::Instant::now();
        sleep(Duration::from_millis(250));
        sleep(Duration::from_millis(250));
        let elapsed = before.elapsed();
        // The counter is the clock's own, so it saw exactly these sleeps.
        assert_eq!(clock.nanos(), 500_000_000, "counter must cover both sleeps");
        assert_eq!(current_clock().map(|c| c.nanos()), Some(500_000_000));
        assert!(
            elapsed < Duration::from_millis(200),
            "logical sleep must not block"
        );
    }

    #[test]
    fn installed_clock_scopes_logical_time_to_the_owner() {
        let mine = MediationClock::logical();
        let theirs = MediationClock::logical();
        {
            let _guard = install_clock(Some(mine.clone()));
            sleep(Duration::from_millis(10));
            assert!(current_clock().is_some_and(|c| c.is_logical()));
            assert_eq!(current_clock().map(|c| c.nanos()), Some(10_000_000));
        }
        {
            let _guard = install_clock(Some(theirs.clone()));
            sleep(Duration::from_millis(3));
        }
        // Each clock only saw its own sleeps: no cross-warp.
        assert_eq!(mine.nanos(), 10_000_000);
        assert_eq!(theirs.nanos(), 3_000_000);
    }

    #[test]
    fn clock_guard_restores_the_previous_clock() {
        let outer = MediationClock::logical();
        let inner = MediationClock::logical();
        let _outer_guard = install_clock(Some(outer.clone()));
        {
            let _inner_guard = install_clock(Some(inner.clone()));
            sleep(Duration::from_millis(1));
        }
        sleep(Duration::from_millis(2));
        assert_eq!(inner.nanos(), 1_000_000);
        assert_eq!(outer.nanos(), 2_000_000);
    }

    #[test]
    fn installed_clock_propagates_through_par_workers() {
        let clock = MediationClock::logical();
        let _guard = install_clock(Some(clock.clone()));
        // Whatever the ambient worker count (QPIAD_THREADS or hardware), every
        // sleep must land on this clock — workers inherit the caller's slot.
        let out = crate::par::parallel_map_indexed(8, |i| {
            sleep(Duration::from_millis(1));
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(
            clock.nanos(),
            8_000_000,
            "every worker sleep lands on the caller's clock"
        );
    }

    #[test]
    fn pressure_levels_are_ordered_and_derive_from_load() {
        assert!(PressureLevel::Normal < PressureLevel::Elevated);
        assert!(PressureLevel::Elevated < PressureLevel::High);
        assert!(PressureLevel::High < PressureLevel::Critical);
        let cap = 8;
        assert_eq!(PressureLevel::from_load(0, cap), PressureLevel::Normal);
        assert_eq!(PressureLevel::from_load(3, cap), PressureLevel::Normal);
        assert_eq!(PressureLevel::from_load(4, cap), PressureLevel::Elevated);
        assert_eq!(PressureLevel::from_load(5, cap), PressureLevel::Elevated);
        assert_eq!(PressureLevel::from_load(6, cap), PressureLevel::High);
        assert_eq!(PressureLevel::from_load(7, cap), PressureLevel::High);
        assert_eq!(PressureLevel::from_load(8, cap), PressureLevel::Critical);
        assert_eq!(PressureLevel::from_load(80, cap), PressureLevel::Critical);
        // Zero capacity disables the ladder entirely.
        assert_eq!(PressureLevel::from_load(1000, 0), PressureLevel::Normal);
    }

    #[test]
    fn pressure_ladder_monotonically_tightens() {
        let rungs = [
            PressureLevel::Normal,
            PressureLevel::Elevated,
            PressureLevel::High,
            PressureLevel::Critical,
        ];
        for pair in rungs.windows(2) {
            assert!(pair[0].rewrite_fraction() > pair[1].rewrite_fraction());
            // Hedging never turns back on as pressure rises.
            assert!(pair[0].allows_hedging() || !pair[1].allows_hedging());
        }
        assert_eq!(PressureLevel::Critical.rewrite_fraction(), 0.0);
        assert!(!PressureLevel::Critical.allows_hedging());
    }
}
