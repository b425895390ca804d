//! In-flight request coalescing (singleflight).
//!
//! Repeated query templates are QPIAD's dominant workload, and a mediation
//! pass is a pure function of (query, knowledge version, budget): two
//! passes over the same key plan the same rewrites, issue the same source
//! queries, and assemble the same answer. So when N callers ask for the
//! same key *while a pass is already in flight*, running N passes buys
//! nothing but N× source cost. This module lets the first caller (the
//! **leader**) run the pass while the rest (**followers**) park on a
//! condvar and share the leader's `Arc`'d answer — the coalesced group
//! charges its source fan-out exactly once.
//!
//! Keying on the [`knowledge epoch`](qpiad_core::network::MediatorNetwork::knowledge_epoch)
//! keeps coalescing sound across re-mining: a refresh bumps the epoch, so
//! a caller racing a knowledge swap can only join a flight planned against
//! the same knowledge it would have used itself. The budget is part of the
//! key for the same reason — different budgets can admit different
//! rewrites, hence different answers.
//!
//! # Poisoning and leader crashes
//!
//! All waiting uses `std::sync::Condvar`; lock poisoning is explicitly
//! recovered (the guarded state is a plain `Option`, valid at every
//! instant), and a leader that unwinds without publishing a result is
//! caught by a drop guard in the server, which publishes an
//! [`Internal`](qpiad_db::SourceError::Internal) error so followers wake
//! instead of waiting forever.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use qpiad_core::network::NetworkAnswer;
use qpiad_db::health::PressureLevel;
use qpiad_db::{QueryBudget, SelectQuery, SourceError};

/// The result one flight publishes to every caller in its group.
pub(crate) type SharedAnswer = Result<Arc<NetworkAnswer>, SourceError>;

/// Locks a mutex, recovering from poisoning: the guarded state is valid at
/// every instant, so a panicking peer must not take the server down.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Identity of one coalescable unit of work.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct FlightKey {
    pub query: SelectQuery,
    /// [`MediatorNetwork::knowledge_epoch`] at admission time.
    ///
    /// [`MediatorNetwork::knowledge_epoch`]: qpiad_core::network::MediatorNetwork::knowledge_epoch
    pub epoch: u64,
    /// The pass budget, flattened to hashable integers.
    pub budget: BudgetKey,
    /// The overload-ladder rung the pass executes under. Different rungs
    /// clamp different rewrite prefixes — their answers differ, so they
    /// must not coalesce.
    pub pressure: PressureLevel,
}

/// [`QueryBudget`] flattened for hashing (`Duration` as nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BudgetKey {
    deadline_nanos: u128,
    attempts: u32,
    query_cost_nanos: u128,
}

impl From<QueryBudget> for BudgetKey {
    fn from(b: QueryBudget) -> Self {
        BudgetKey {
            deadline_nanos: b.deadline.as_nanos(),
            attempts: b.attempts,
            query_cost_nanos: b.query_cost.as_nanos(),
        }
    }
}

/// One in-flight pass: the slot its result is published into, and the
/// condvar followers park on.
#[derive(Debug, Default)]
pub(crate) struct Flight {
    slot: Mutex<Option<SharedAnswer>>,
    done: Condvar,
}

impl Flight {
    /// Parks until the leader publishes, then returns a clone of the
    /// shared result.
    fn wait(&self) -> SharedAnswer {
        let mut slot = lock(&self.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            // A timed wait guards against a lost wakeup ever wedging a
            // follower; the loop re-checks the slot either way.
            let (guard, _) = self
                .done
                .wait_timeout(slot, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slot = guard;
        }
    }

    /// Publishes the result and wakes every follower.
    fn publish(&self, result: SharedAnswer) {
        *lock(&self.slot) = Some(result);
        self.done.notify_all();
    }
}

/// What [`Singleflight::join`] made of a caller.
pub(crate) enum Role {
    /// First in: run the pass, then [`Singleflight::complete`] the key.
    Leader(Arc<Flight>),
    /// Coalesced onto an in-flight pass; the shared result is ready.
    Follower(SharedAnswer),
}

/// The in-flight map: at most one live [`Flight`] per [`FlightKey`].
#[derive(Debug, Default)]
pub(crate) struct Singleflight {
    inflight: Mutex<HashMap<FlightKey, Arc<Flight>>>,
}

impl Singleflight {
    /// Joins the flight for `key`: the first caller becomes the leader
    /// (and must later call [`Self::complete`]); every caller arriving
    /// while that flight is live blocks until the result is published and
    /// returns it as a follower. `on_wait` runs just before a follower
    /// parks (and is balanced by `on_wake` after it returns) so the server
    /// can keep a live waiter gauge.
    pub(crate) fn join(
        &self,
        key: &FlightKey,
        on_wait: impl FnOnce(),
        on_wake: impl FnOnce(),
    ) -> Role {
        let flight = {
            let mut map = lock(&self.inflight);
            match map.get(key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(Flight::default());
                    map.insert(key.clone(), Arc::clone(&flight));
                    return Role::Leader(flight);
                }
            }
        };
        on_wait();
        let result = flight.wait();
        on_wake();
        Role::Follower(result)
    }

    /// Publishes the leader's result and retires the key. Followers
    /// already parked receive this result; callers arriving after the
    /// removal start a fresh flight (the answer may be stale the moment
    /// it is published — coalescing only spans the in-flight window).
    pub(crate) fn complete(&self, key: &FlightKey, flight: &Flight, result: SharedAnswer) {
        lock(&self.inflight).remove(key);
        flight.publish(result);
    }

    /// Number of live flights (diagnostics).
    pub(crate) fn inflight_len(&self) -> usize {
        lock(&self.inflight).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrId, Predicate};

    fn key(marker: &str) -> FlightKey {
        FlightKey {
            query: SelectQuery::new(vec![Predicate::eq(AttrId(0), marker)]),
            epoch: 0,
            budget: QueryBudget::unlimited().into(),
            pressure: PressureLevel::Normal,
        }
    }

    #[test]
    fn leader_then_followers_share_one_result() {
        let sf = Arc::new(Singleflight::default());
        let k = key("Convt");
        let Role::Leader(flight) = sf.join(&k, || {}, || {}) else {
            panic!("first caller must lead");
        };
        assert_eq!(sf.inflight_len(), 1);

        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let (sf, k) = (Arc::clone(&sf), k.clone());
                std::thread::spawn(move || match sf.join(&k, || {}, || {}) {
                    Role::Follower(result) => result,
                    Role::Leader(_) => panic!("in-flight key must coalesce"),
                })
            })
            .collect();

        // Give followers a moment to park, then publish.
        std::thread::sleep(Duration::from_millis(20));
        sf.complete(&k, &flight, Err(SourceError::CircuitOpen));
        for w in waiters {
            assert_eq!(w.join().unwrap().unwrap_err(), SourceError::CircuitOpen);
        }
        assert_eq!(sf.inflight_len(), 0);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf = Singleflight::default();
        let (a, b) = (key("Convt"), key("Sedan"));
        assert!(matches!(sf.join(&a, || {}, || {}), Role::Leader(_)));
        assert!(matches!(sf.join(&b, || {}, || {}), Role::Leader(_)));
        // Same template, different epoch: knowledge moved, no coalescing.
        let refreshed = FlightKey {
            epoch: a.epoch + 1,
            ..a.clone()
        };
        assert!(matches!(sf.join(&refreshed, || {}, || {}), Role::Leader(_)));
        // Same template, different ladder rung: clamped plans answer
        // differently, so pressure is part of the key.
        let pressured = FlightKey {
            pressure: PressureLevel::High,
            ..a.clone()
        };
        assert!(matches!(sf.join(&pressured, || {}, || {}), Role::Leader(_)));
        assert_eq!(sf.inflight_len(), 4);
    }

    #[test]
    fn completed_key_admits_a_fresh_leader() {
        let sf = Singleflight::default();
        let k = key("Convt");
        let Role::Leader(flight) = sf.join(&k, || {}, || {}) else {
            panic!()
        };
        sf.complete(&k, &flight, Err(SourceError::BudgetExhausted));
        assert!(matches!(sf.join(&k, || {}, || {}), Role::Leader(_)));
    }
}
