//! F-measure ordering of rewritten queries (§4.2 steps 2b–2c).
//!
//! Selecting which K rewritten queries to issue trades precision against
//! recall. QPIAD scores each query with the weighted harmonic mean
//!
//! ```text
//! F(α) = (1 + α) · P · R / (α · P + R)
//! ```
//!
//! where `P` is the query's expected precision and `R` its expected recall:
//! the query's *throughput* (precision × estimated selectivity) normalized
//! by the cumulative throughput of all rewritten queries. With `α = 0` the
//! ordering degenerates to pure precision; growing `α` favours high-recall
//! queries.
//!
//! After the top-K queries are selected by F-measure they are **re-ordered
//! by precision**, so that every tuple a query retrieves can inherit the
//! query's rank without further sorting (§4.2 step 2c).
//!
//! [`order_rewrites`] returns [`ScoredRewrite`]s: each selected query
//! carries its F-measure mass, recomputed over the selected plan's own
//! cumulative throughput. Rank and mass come from the same pass, so the
//! planner and the degradation accounting can never disagree about what a
//! dropped query was worth. If a caller filters the selected list further
//! (e.g. dropping rewrites the source cannot answer), [`rescore`]
//! re-normalizes the masses over the surviving queries.

use crate::rewrite::RewrittenQuery;

/// Ordering parameters.
#[derive(Debug, Clone, Copy)]
pub struct RankConfig {
    /// The F-measure α: 0 = precision only, 1 = balanced, >1 = recall-heavy.
    pub alpha: f64,
    /// Maximum number of rewritten queries to issue.
    pub k: usize,
}

impl Default for RankConfig {
    fn default() -> Self {
        RankConfig { alpha: 0.0, k: 10 }
    }
}

/// A rewritten query selected for a mediation plan, carrying the F-measure
/// mass it was selected with. The mass is the query's share of the plan's
/// expected value; degraded answers report the mass of whatever they drop.
#[derive(Debug, Clone)]
pub struct ScoredRewrite {
    /// The selected rewritten query.
    pub rewrite: RewrittenQuery,
    /// The query's F-measure over the selected list's own cumulative
    /// throughput (precision itself when throughput degenerates to zero).
    pub fmeasure: f64,
}

/// The F-measure of one query given the cumulative throughput of all
/// candidates. Returns 0 when either component is 0.
pub fn f_measure(precision: f64, recall: f64, alpha: f64) -> f64 {
    let denom = alpha * precision + recall;
    if denom <= 0.0 {
        return 0.0;
    }
    (1.0 + alpha) * precision * recall / denom
}

/// The scoring rule shared by selection and re-scoring: F-measure against
/// the given cumulative throughput, precision fallback when throughput is
/// degenerate.
fn score(r: &RewrittenQuery, total_throughput: f64, alpha: f64) -> f64 {
    if total_throughput > 0.0 {
        let recall = r.precision * r.est_selectivity / total_throughput;
        f_measure(r.precision, recall, alpha)
    } else {
        r.precision
    }
}

/// Selects the top-K rewritten queries by F-measure and returns them in
/// decreasing expected-precision order, each carrying its F-measure mass
/// over the *selected* list's cumulative throughput.
pub fn order_rewrites(rewrites: Vec<RewrittenQuery>, config: &RankConfig) -> Vec<ScoredRewrite> {
    // Selection scores are computed against the full candidate pool …
    let total_throughput: f64 = rewrites
        .iter()
        .map(|r| r.precision * r.est_selectivity)
        .sum();

    let mut scored: Vec<(f64, RewrittenQuery)> = rewrites
        .into_iter()
        .map(|r| (score(&r, total_throughput, config.alpha), r))
        .collect();

    // Deterministic order: F desc, precision desc, then structural
    // query order (allocation-free — the old Debug-string tiebreak
    // formatted both queries on every comparison).
    scored.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| b.1.precision.total_cmp(&a.1.precision))
            .then_with(|| a.1.query.structural_cmp(&b.1.query))
    });
    scored.truncate(config.k);

    let mut selected: Vec<ScoredRewrite> = scored
        .into_iter()
        .map(|(_, rewrite)| ScoredRewrite {
            rewrite,
            fmeasure: 0.0,
        })
        .collect();
    selected.sort_by(|a, b| {
        b.rewrite
            .precision
            .total_cmp(&a.rewrite.precision)
            .then_with(|| a.rewrite.query.structural_cmp(&b.rewrite.query))
    });
    // … but the attached masses are normalized over the selected plan, so
    // they sum to the plan's own expected value.
    rescore(&mut selected, config.alpha);
    selected
}

/// Recomputes each entry's F-measure mass over the current list's own
/// cumulative throughput. Call after filtering a selected plan (e.g.
/// dropping rewrites the source cannot answer) so the surviving masses
/// stay normalized over what will actually be issued.
pub fn rescore(selected: &mut [ScoredRewrite], alpha: f64) {
    let total_throughput: f64 = selected
        .iter()
        .map(|s| s.rewrite.precision * s.rewrite.est_selectivity)
        .sum();
    for s in selected.iter_mut() {
        s.fmeasure = score(&s.rewrite, total_throughput, alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpiad_db::{AttrId, Predicate, SelectQuery};

    fn rq(tag: i64, precision: f64, selectivity: f64) -> RewrittenQuery {
        RewrittenQuery {
            query: SelectQuery::new(vec![Predicate::eq(AttrId(0), tag)]),
            target_attr: AttrId(1),
            precision,
            est_selectivity: selectivity,
            afd: None,
        }
    }

    #[test]
    fn f_measure_basics() {
        // α = 0: F = P (when R > 0).
        assert!((f_measure(0.8, 0.3, 0.0) - 0.8).abs() < 1e-12);
        // α = 1: harmonic mean.
        let f = f_measure(0.5, 0.5, 1.0);
        assert!((f - 0.5).abs() < 1e-12);
        // Zero recall ⇒ zero F.
        assert_eq!(f_measure(0.9, 0.0, 1.0), 0.0);
        assert_eq!(f_measure(0.0, 0.9, 1.0), 0.0);
    }

    #[test]
    fn alpha_zero_orders_by_precision() {
        let rewrites = vec![rq(1, 0.9, 1.0), rq(2, 0.5, 100.0), rq(3, 0.7, 50.0)];
        let ordered = order_rewrites(rewrites, &RankConfig { alpha: 0.0, k: 10 });
        let precisions: Vec<f64> = ordered.iter().map(|r| r.rewrite.precision).collect();
        assert_eq!(precisions, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn large_alpha_admits_high_throughput_queries() {
        // With k = 1: α = 0 picks the precise query; α = 2 picks the
        // high-selectivity one.
        let rewrites = vec![rq(1, 0.95, 1.0), rq(2, 0.6, 500.0)];
        let precise = order_rewrites(rewrites.clone(), &RankConfig { alpha: 0.0, k: 1 });
        assert!((precise[0].rewrite.precision - 0.95).abs() < 1e-12);
        let recallful = order_rewrites(rewrites, &RankConfig { alpha: 2.0, k: 1 });
        assert!((recallful[0].rewrite.precision - 0.6).abs() < 1e-12);
    }

    #[test]
    fn truncates_to_k_then_reorders_by_precision() {
        let rewrites = vec![
            rq(1, 0.4, 400.0),
            rq(2, 0.9, 5.0),
            rq(3, 0.6, 100.0),
            rq(4, 0.8, 20.0),
        ];
        let ordered = order_rewrites(rewrites, &RankConfig { alpha: 1.0, k: 2 });
        assert_eq!(ordered.len(), 2);
        // Whatever was selected, the output is precision-descending.
        assert!(ordered[0].rewrite.precision >= ordered[1].rewrite.precision);
    }

    #[test]
    fn zero_throughput_falls_back_to_precision() {
        let rewrites = vec![rq(1, 0.9, 0.0), rq(2, 0.5, 0.0)];
        let ordered = order_rewrites(rewrites, &RankConfig { alpha: 1.0, k: 10 });
        assert_eq!(ordered.len(), 2);
        assert!((ordered[0].rewrite.precision - 0.9).abs() < 1e-12);
        // Degenerate throughput: the attached mass is the precision itself.
        assert!((ordered[0].fmeasure - 0.9).abs() < 1e-12);
        assert!((ordered[1].fmeasure - 0.5).abs() < 1e-12);
    }

    #[test]
    fn k_zero_selects_nothing() {
        let rewrites = vec![rq(1, 0.9, 1.0)];
        assert!(order_rewrites(rewrites, &RankConfig { alpha: 0.0, k: 0 }).is_empty());
    }

    #[test]
    fn attached_masses_match_the_ordering_rule() {
        let rewrites = vec![rq(1, 0.9, 10.0), rq(2, 0.5, 100.0)];
        let ordered = order_rewrites(rewrites, &RankConfig { alpha: 0.0, k: 10 });
        // α = 0 degenerates to precision (recall > 0 for both).
        assert!((ordered[0].fmeasure - 0.9).abs() < 1e-12);
        assert!((ordered[1].fmeasure - 0.5).abs() < 1e-12);
    }

    #[test]
    fn masses_are_normalized_over_the_selected_plan() {
        // Selection sees three candidates; only two survive the cut. The
        // attached masses must be recalls over the *selected* pair's
        // throughput, exactly as if scored on that pair alone.
        let rewrites = vec![rq(1, 0.9, 10.0), rq(2, 0.8, 20.0), rq(3, 0.2, 1.0)];
        let ordered = order_rewrites(rewrites, &RankConfig { alpha: 1.0, k: 2 });
        let total: f64 = ordered
            .iter()
            .map(|s| s.rewrite.precision * s.rewrite.est_selectivity)
            .sum();
        for s in &ordered {
            let recall = s.rewrite.precision * s.rewrite.est_selectivity / total;
            let expect = f_measure(s.rewrite.precision, recall, 1.0);
            assert!((s.fmeasure - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn rescore_renormalizes_after_filtering() {
        let rewrites = vec![rq(1, 0.9, 10.0), rq(2, 0.8, 20.0), rq(3, 0.7, 5.0)];
        let ordered = order_rewrites(rewrites, &RankConfig { alpha: 1.0, k: 10 });
        // Drop the middle query (as an unsupported-attribute filter would)
        // and re-normalize: masses must match scoring the survivors alone.
        let mut filtered: Vec<ScoredRewrite> = ordered
            .iter()
            .filter(|s| (s.rewrite.precision - 0.8).abs() > 1e-12)
            .cloned()
            .collect();
        rescore(&mut filtered, 1.0);
        let alone = order_rewrites(
            filtered.iter().map(|s| s.rewrite.clone()).collect(),
            &RankConfig { alpha: 1.0, k: 10 },
        );
        for (f, a) in filtered.iter().zip(&alone) {
            assert!((f.fmeasure - a.fmeasure).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_on_ties() {
        let rewrites = vec![rq(2, 0.5, 10.0), rq(1, 0.5, 10.0)];
        let a = order_rewrites(rewrites.clone(), &RankConfig::default());
        let b = order_rewrites(rewrites, &RankConfig::default());
        let qa: Vec<String> = a.iter().map(|r| format!("{:?}", r.rewrite.query)).collect();
        let qb: Vec<String> = b.iter().map(|r| format!("{:?}", r.rewrite.query)).collect();
        assert_eq!(qa, qb);
    }
}
