//! The server's metrics surface.
//!
//! Serving counters live in lock-free atomic cells ([`MetricCells`],
//! crate-private) and are exported as a plain [`ServeMetrics`] snapshot
//! together with every member source's [`SourceMeter`] — one call captures
//! admission, coalescing, tenancy scheduling, overload shedding, and
//! per-source mediation cost. Snapshots are per-field consistent (a reader
//! racing a live query may see `admitted` bumped before `leaders`);
//! quiesced reads are exact.
//!
//! Quiesced, the counters obey the conservation equation every admitted
//! request must settle exactly once:
//!
//! ```text
//! admitted == completed + shed + deadline_refused + errors
//! ```
//!
//! checked by [`ServeMetrics::conserves`]. The server's request guard
//! enforces the equation even on panic unwinds: a pass that dies before
//! settling is charged to `errors`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use qpiad_db::SourceMeter;
use qpiad_learn::StreamStats;

/// Lock-free accumulation cells behind [`ServeMetrics`].
#[derive(Debug, Default)]
pub(crate) struct MetricCells {
    pub admitted: AtomicUsize,
    pub rejected: AtomicUsize,
    pub completed: AtomicUsize,
    pub shed: AtomicUsize,
    pub deadline_refused: AtomicUsize,
    pub leaders: AtomicUsize,
    pub coalesced: AtomicUsize,
    pub coalesce_waiters: AtomicUsize,
    pub interactive: AtomicUsize,
    pub batch: AtomicUsize,
    pub in_flight: AtomicUsize,
    pub in_flight_peak: AtomicUsize,
    pub batch_live: AtomicUsize,
    pub batch_in_flight: AtomicUsize,
    pub batch_in_flight_peak: AtomicUsize,
    pub errors: AtomicUsize,
    pub refresh_success: AtomicUsize,
    pub refresh_failure: AtomicUsize,
    pub refresh_retries: AtomicUsize,
    pub refresh_full: AtomicUsize,
    pub refresh_incremental: AtomicUsize,
    pub last_refresh_pass: AtomicU64,
}

impl MetricCells {
    pub(crate) fn bump(cell: &AtomicUsize) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises a gauge and folds the new value into its peak cell,
    /// returning the raised value.
    pub(crate) fn raise_gauge(gauge: &AtomicUsize, peak: &AtomicUsize) -> usize {
        let now = gauge.fetch_add(1, Ordering::Relaxed) + 1;
        peak.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Lowers a gauge, saturating at zero. A plain `fetch_sub` would wrap
    /// to `usize::MAX` if an unbalanced lower ever raced a reset — a
    /// wedged-looking gauge is strictly worse than a briefly stale one.
    pub(crate) fn lower_gauge(gauge: &AtomicUsize) {
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    pub(crate) fn snapshot(
        &self,
        per_source: Vec<(String, SourceMeter)>,
        knowledge_epochs: Vec<(String, u64)>,
        pending_refresh: usize,
        stream: StreamStats,
    ) -> ServeMetrics {
        ServeMetrics {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_refused: self.deadline_refused.load(Ordering::Relaxed),
            leaders: self.leaders.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            coalesce_waiters: self.coalesce_waiters.load(Ordering::Relaxed),
            interactive: self.interactive.load(Ordering::Relaxed),
            batch: self.batch.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            in_flight_peak: self.in_flight_peak.load(Ordering::Relaxed),
            batch_in_flight_peak: self.batch_in_flight_peak.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            refresh_success: self.refresh_success.load(Ordering::Relaxed),
            refresh_failure: self.refresh_failure.load(Ordering::Relaxed),
            refresh_retries: self.refresh_retries.load(Ordering::Relaxed),
            refresh_full: self.refresh_full.load(Ordering::Relaxed),
            refresh_incremental: self.refresh_incremental.load(Ordering::Relaxed),
            last_refresh_pass: self.last_refresh_pass.load(Ordering::Relaxed),
            per_source,
            knowledge_epochs,
            pending_refresh,
            stream,
        }
    }
}

/// A point-in-time snapshot of the server's counters plus every member
/// source's access meter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Requests admitted past tenant lookup and query validation.
    pub admitted: usize,
    /// Requests refused at admission (unknown tenant, malformed query).
    pub rejected: usize,
    /// Admitted requests that returned an answer.
    pub completed: usize,
    /// Admitted batch-class requests shed because the class's in-flight
    /// bound ([`ServeConfig::batch_queue_limit`](crate::ServeConfig::batch_queue_limit))
    /// was already full — refused before any source fan-out.
    pub shed: usize,
    /// Admitted requests refused because their stamped deadline could no
    /// longer fund a single mediation attempt.
    pub deadline_refused: usize,
    /// Admitted requests that ran a mediation pass themselves.
    pub leaders: usize,
    /// Admitted requests served by coalescing onto an in-flight pass —
    /// each shared its leader's single source fan-out.
    pub coalesced: usize,
    /// Followers currently parked on an in-flight pass (live gauge).
    pub coalesce_waiters: usize,
    /// Admitted requests from interactive-class tenants.
    pub interactive: usize,
    /// Admitted requests from batch-class tenants.
    pub batch: usize,
    /// Admitted requests currently in flight, all classes (live gauge);
    /// the load the overload ladder's
    /// [`PressureLevel`](qpiad_db::health::PressureLevel) derives from.
    pub in_flight: usize,
    /// Most requests ever in flight at once.
    pub in_flight_peak: usize,
    /// Most batch-class passes ever executing at once — bounded by
    /// [`ServeConfig::batch_concurrency`](crate::ServeConfig::batch_concurrency).
    pub batch_in_flight_peak: usize,
    /// Requests whose mediation pass returned an error (including passes
    /// that died before settling — the request guard charges unwinds
    /// here, so the conservation equation survives panics).
    pub errors: usize,
    /// Members whose knowledge a maintenance pass successfully re-mined,
    /// persisted, and published (counted once per member per
    /// [`QpiadServer::maintain`](crate::QpiadServer::maintain) pass).
    pub refresh_success: usize,
    /// Refresh attempts that exhausted their in-pass retries and left the
    /// member's old knowledge generation serving.
    pub refresh_failure: usize,
    /// Extra refresh attempts spent after a first in-pass failure
    /// (bounded by [`ServeConfig::refresh_retries`](crate::ServeConfig::refresh_retries)).
    pub refresh_retries: usize,
    /// Successful refreshes published as full re-mines (TANE re-run,
    /// classifiers retrained from scratch).
    pub refresh_full: usize,
    /// Successful refreshes published as incremental folds of streamed
    /// validated rows (delta count updates, no TANE re-run). Together
    /// with [`refresh_full`](Self::refresh_full) this partitions
    /// [`refresh_success`](Self::refresh_success).
    pub refresh_incremental: usize,
    /// The most recent maintenance pass that published at least one
    /// refreshed generation (`0` — maintenance passes start at 1 — means
    /// no refresh has ever succeeded).
    pub last_refresh_pass: u64,
    /// Every member source's meter, in registration order.
    pub per_source: Vec<(String, SourceMeter)>,
    /// Every member's current knowledge epoch, in registration order —
    /// 0 until its first published refresh, +1 per publication since.
    pub knowledge_epochs: Vec<(String, u64)>,
    /// Members currently queued for re-mining (drift verdicts plus
    /// contained knowledge-load failures) at snapshot time.
    pub pending_refresh: usize,
    /// Sample-stream counters aggregated across every member's
    /// [`qpiad_learn::SampleStream`]: rows collected from validated live
    /// responses, rows salvaged from refresh-outlived probes, rows folded
    /// into published knowledge, and rows still pending.
    pub stream: StreamStats,
}

impl ServeMetrics {
    /// Fraction of admitted requests served by coalescing, in `[0, 1]`.
    pub fn coalesce_hit_rate(&self) -> f64 {
        if self.admitted == 0 {
            return 0.0;
        }
        self.coalesced as f64 / self.admitted as f64
    }

    /// Fraction of admitted requests shed or deadline-refused, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.admitted == 0 {
            return 0.0;
        }
        (self.shed + self.deadline_refused) as f64 / self.admitted as f64
    }

    /// Total queries issued against all member sources.
    pub fn source_queries(&self) -> usize {
        self.per_source.iter().map(|(_, m)| m.queries).sum()
    }

    /// The conservation equation: quiesced (no request in flight), every
    /// admitted request settled exactly once —
    /// `admitted == completed + shed + deadline_refused + errors`.
    pub fn conserves(&self) -> bool {
        self.admitted == self.completed + self.shed + self.deadline_refused + self.errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_cells_and_rates_divide_safely() {
        let cells = MetricCells::default();
        assert_eq!(
            cells
                .snapshot(Vec::new(), Vec::new(), 0, StreamStats::default())
                .coalesce_hit_rate(),
            0.0
        );
        assert_eq!(
            cells
                .snapshot(Vec::new(), Vec::new(), 0, StreamStats::default())
                .shed_rate(),
            0.0
        );
        for _ in 0..4 {
            MetricCells::bump(&cells.admitted);
        }
        MetricCells::bump(&cells.leaders);
        for _ in 0..3 {
            MetricCells::bump(&cells.coalesced);
        }
        MetricCells::raise_gauge(&cells.batch_in_flight, &cells.batch_in_flight_peak);
        MetricCells::raise_gauge(&cells.batch_in_flight, &cells.batch_in_flight_peak);
        MetricCells::lower_gauge(&cells.batch_in_flight);
        let m = cells.snapshot(
            vec![(
                "s".into(),
                SourceMeter {
                    queries: 7,
                    ..Default::default()
                },
            )],
            vec![("s".into(), 3)],
            1,
            StreamStats::default(),
        );
        assert_eq!(m.admitted, 4);
        assert_eq!(m.leaders, 1);
        assert_eq!(m.coalesced, 3);
        assert_eq!(m.coalesce_hit_rate(), 0.75);
        assert_eq!(m.batch_in_flight_peak, 2);
        assert_eq!(m.source_queries(), 7);
    }

    #[test]
    fn lowering_a_zero_gauge_saturates_instead_of_wrapping() {
        let cells = MetricCells::default();
        MetricCells::lower_gauge(&cells.coalesce_waiters);
        assert_eq!(
            cells
                .snapshot(Vec::new(), Vec::new(), 0, StreamStats::default())
                .coalesce_waiters,
            0
        );
        MetricCells::raise_gauge(&cells.in_flight, &cells.in_flight_peak);
        MetricCells::lower_gauge(&cells.in_flight);
        MetricCells::lower_gauge(&cells.in_flight);
        let m = cells.snapshot(Vec::new(), Vec::new(), 0, StreamStats::default());
        assert_eq!(m.in_flight, 0);
        assert_eq!(m.in_flight_peak, 1);
    }

    #[test]
    fn conservation_accounts_every_settled_outcome() {
        let cells = MetricCells::default();
        for _ in 0..10 {
            MetricCells::bump(&cells.admitted);
        }
        for _ in 0..6 {
            MetricCells::bump(&cells.completed);
        }
        for _ in 0..2 {
            MetricCells::bump(&cells.shed);
        }
        MetricCells::bump(&cells.deadline_refused);
        MetricCells::bump(&cells.errors);
        assert!(cells
            .snapshot(Vec::new(), Vec::new(), 0, StreamStats::default())
            .conserves());
        MetricCells::bump(&cells.admitted);
        assert!(!cells
            .snapshot(Vec::new(), Vec::new(), 0, StreamStats::default())
            .conserves());
    }
}
