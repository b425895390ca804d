//! Epoch-swapped handles for a member's mined knowledge.
//!
//! A serving mediator must be able to *replace* a member's knowledge
//! (AFDs, classifiers, selectivity) while queries keep flowing. The
//! hazard is a torn read: a pass that plans against the old statistics
//! and rescores against the new ones, or a plan-cache key paired with
//! the wrong knowledge generation. This module removes that hazard
//! RCU-style:
//!
//! * [`MemberKnowledge`] is an immutable value: statistics plus their
//!   provenance flags (stale snapshot, unavailable, load error) and the
//!   **epoch** they were published at. Once built it never changes.
//! * [`KnowledgeCell`] is the one mutable slot, holding an
//!   `Arc<MemberKnowledge>` behind a reader-writer lock. Readers
//!   [`pin`](KnowledgeCell::pin) the current `Arc` once at pass
//!   admission and use that pinned view for the whole pass; a
//!   publisher swaps in a fully built replacement with
//!   [`publish`](KnowledgeCell::publish), which stamps the next epoch
//!   atomically with the swap.
//!
//! Because the epoch lives *inside* the published `Arc`, a pinned view
//! can never pair statistics from one generation with the version
//! number of another — the pair travels as one pointer. Old epochs stay
//! alive exactly as long as some in-flight pass still holds the `Arc`,
//! then drop; publication never blocks readers beyond the swap itself.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::knowledge::SourceStats;
use crate::persist::PersistError;

/// How a published knowledge generation was produced by maintenance —
/// surfaced in EXPLAIN and the serve metrics so operators can tell cheap
/// incremental folds from full re-mines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshKind {
    /// A full re-probe and re-mine (TANE, pruning, classifier training
    /// from scratch).
    Full,
    /// An incremental fold of streamed validated rows into the retained
    /// sample (delta count updates, no TANE re-run).
    Incremental,
}

impl std::fmt::Display for RefreshKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshKind::Full => write!(f, "full re-mine"),
            RefreshKind::Incremental => write!(f, "incremental fold"),
        }
    }
}

/// One immutable generation of a member's mined knowledge.
///
/// `epoch` is stamped by [`KnowledgeCell::publish`]; constructors leave
/// it at 0 (the generation a member is registered with).
#[derive(Debug, Clone)]
pub struct MemberKnowledge {
    /// Mined statistics; `None` degrades the member to certain answers
    /// only.
    pub stats: Option<SourceStats>,
    /// The statistics were restored from a durable snapshot rather than
    /// mined live (tagged on answers as stale knowledge).
    pub stale: bool,
    /// No usable statistics exist (a load failure was contained).
    pub unavailable: bool,
    /// The classified load failure, when `unavailable`.
    pub error: Option<PersistError>,
    /// Monotonic generation counter; bumped by every publication.
    pub epoch: u64,
    /// The maintenance pass that published this generation, when it was
    /// produced by a scheduled refresh (surfaced in EXPLAIN).
    pub refreshed_at_pass: Option<u64>,
    /// Whether a maintenance refresh produced this generation as a full
    /// re-mine or an incremental fold (None for registration-time
    /// knowledge).
    pub refresh_kind: Option<RefreshKind>,
}

impl MemberKnowledge {
    /// Knowledge mined live at registration.
    pub fn mined(stats: SourceStats) -> Self {
        MemberKnowledge {
            stats: Some(stats),
            stale: false,
            unavailable: false,
            error: None,
            epoch: 0,
            refreshed_at_pass: None,
            refresh_kind: None,
        }
    }

    /// Knowledge restored from a durable snapshot (stale until re-mined).
    pub fn restored(stats: SourceStats) -> Self {
        MemberKnowledge {
            stale: true,
            ..MemberKnowledge::mined(stats)
        }
    }

    /// A contained load failure: the member serves certain answers only.
    pub fn unavailable(error: PersistError) -> Self {
        MemberKnowledge {
            stats: None,
            stale: false,
            unavailable: true,
            error: Some(error),
            epoch: 0,
            refreshed_at_pass: None,
            refresh_kind: None,
        }
    }

    /// A deficient member registered without statistics (answered through
    /// a correlated supporting member, not a failure).
    pub fn absent() -> Self {
        MemberKnowledge {
            stats: None,
            stale: false,
            unavailable: false,
            error: None,
            epoch: 0,
            refreshed_at_pass: None,
            refresh_kind: None,
        }
    }
}

/// The epoch-swapped slot one member's knowledge lives behind.
///
/// Readers pin, publishers swap; the lock is held only for the pointer
/// clone or the pointer swap, never across mining or persistence.
#[derive(Debug)]
pub struct KnowledgeCell {
    current: RwLock<Arc<MemberKnowledge>>,
}

impl KnowledgeCell {
    /// Seeds the cell with a member's registration-time knowledge.
    pub fn new(initial: MemberKnowledge) -> Self {
        KnowledgeCell {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// Pins the current generation. The returned `Arc` stays valid (and
    /// internally consistent, epoch included) for as long as the caller
    /// holds it, regardless of how many publications happen meanwhile.
    pub fn pin(&self) -> Arc<MemberKnowledge> {
        Arc::clone(&self.current.read())
    }

    /// Atomically replaces the current generation, stamping
    /// `next.epoch = current.epoch + 1`. Returns the published epoch.
    ///
    /// Callers must finish all fallible work (mining, persisting) *before*
    /// publishing: a publication is irrevocable for passes admitted after
    /// it.
    pub fn publish(&self, mut next: MemberKnowledge) -> u64 {
        let mut slot = self.current.write();
        next.epoch = slot.epoch + 1;
        let epoch = next.epoch;
        *slot = Arc::new(next);
        epoch
    }

    /// The current generation's epoch (0 until the first publication).
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_views_survive_publication_with_their_epoch() {
        let cell = KnowledgeCell::new(MemberKnowledge::absent());
        let pinned = cell.pin();
        assert_eq!(pinned.epoch, 0);

        let mut next = MemberKnowledge::absent();
        next.refreshed_at_pass = Some(7);
        assert_eq!(cell.publish(next), 1);

        // The old pin still reads its own generation...
        assert_eq!(pinned.epoch, 0);
        assert_eq!(pinned.refreshed_at_pass, None);
        // ...while new pins see the published one, epoch stamped.
        let fresh = cell.pin();
        assert_eq!(fresh.epoch, 1);
        assert_eq!(fresh.refreshed_at_pass, Some(7));
        assert_eq!(cell.epoch(), 1);
    }

    #[test]
    fn publish_stamps_monotonic_epochs_regardless_of_input() {
        let cell = KnowledgeCell::new(MemberKnowledge::absent());
        let mut forged = MemberKnowledge::absent();
        forged.epoch = 99; // ignored: the cell owns the counter
        assert_eq!(cell.publish(forged), 1);
        assert_eq!(cell.publish(MemberKnowledge::absent()), 2);
        assert_eq!(cell.pin().epoch, 2);
    }
}
