//! The mediator's offline sample (§5, §5.4).
//!
//! QPIAD learns everything — AFDs, classifiers, selectivity — from a small
//! sample of each autonomous database, obtained off-line by *random probing
//! queries* (the mediator cannot download the database). Two samplers are
//! provided:
//!
//! * [`uniform_sample`] — a seeded uniform sample of a relation. Used by
//!   unit tests and experiments where the probing mechanics are not under
//!   study.
//! * [`probe_sample`] — the honest workflow: issue legal `attr = value`
//!   probe queries against an [`AutonomousSource`], keep each returned tuple
//!   with probability `keep`, and estimate the two quantities §5.4 needs:
//!   `SmplRatio(R)` (database size over sample size, estimated by comparing
//!   the cardinalities of calibration queries against source and sample) and
//!   `PerInc(R)` (fraction of incomplete tuples observed while probing).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use qpiad_db::{AttrId, AutonomousSource, Predicate, Relation, SelectQuery, Tuple, TupleId, Value};

/// A probed sample plus the statistics §5.4 derives during sampling.
#[derive(Debug, Clone)]
pub struct ProbeSample {
    /// The sampled tuples (a relation over the source's local schema).
    pub relation: Relation,
    /// Estimated ratio `|R| / |sample|`.
    pub smpl_ratio: f64,
    /// Observed fraction of incomplete tuples.
    pub per_inc: f64,
}

/// Draws a seeded uniform sample containing roughly `fraction` of the
/// relation's tuples.
pub fn uniform_sample(relation: &Relation, fraction: f64, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let tuples: Vec<Tuple> = relation
        .tuples()
        .iter()
        .filter(|_| rng.gen_bool(fraction.clamp(0.0, 1.0)))
        .cloned()
        .collect();
    Relation::new(relation.schema().clone(), tuples)
}

/// Samples a source by random probing.
///
/// `probe_attr` must be queryable on the source; `probe_values` is the
/// mediator's seed knowledge of plausible values for it (e.g. known car
/// models). Probes are issued in random order; each returned tuple is kept
/// with probability `keep`. Returns the deduplicated sample and the §5.4
/// statistics. Probing stops early once `max_probes` queries were issued.
pub fn probe_sample(
    source: &dyn AutonomousSource,
    probe_attr: AttrId,
    probe_values: &[Value],
    keep: f64,
    max_probes: usize,
    seed: u64,
) -> ProbeSample {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<&Value> = probe_values.iter().collect();
    order.shuffle(&mut rng);

    let mut seen: HashSet<TupleId> = HashSet::new();
    let mut kept: Vec<Tuple> = Vec::new();
    let mut observed = 0usize;
    let mut observed_incomplete = 0usize;
    // Cardinalities for the SmplRatio estimate: per probe, (source count,
    // kept count).
    let mut src_card = 0usize;
    let mut smpl_card = 0usize;

    for value in order.into_iter().take(max_probes) {
        let q = SelectQuery::new(vec![Predicate::eq(probe_attr, value.clone())]);
        let Ok(result) = source.query(&q) else {
            continue;
        };
        src_card += result.len();
        for t in result {
            observed += 1;
            if !t.is_complete() {
                observed_incomplete += 1;
            }
            if rng.gen_bool(keep.clamp(0.0, 1.0)) && seen.insert(t.id()) {
                smpl_card += 1;
                kept.push(t);
            }
        }
    }

    let per_inc = if observed == 0 {
        0.0
    } else {
        observed_incomplete as f64 / observed as f64
    };
    let smpl_ratio = if smpl_card == 0 {
        1.0
    } else {
        src_card as f64 / smpl_card as f64
    };
    ProbeSample {
        relation: Relation::new(source.schema().clone(), kept),
        smpl_ratio,
        per_inc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cars::CarsConfig;
    use crate::catalog::CarCatalog;
    use crate::corrupt::{corrupt, CorruptionConfig};
    use qpiad_db::WebSource;

    #[test]
    fn uniform_sample_is_roughly_fractional() {
        let r = CarsConfig::default().with_rows(10_000).generate(1);
        let s = uniform_sample(&r, 0.10, 7);
        let frac = s.len() as f64 / r.len() as f64;
        assert!((0.08..0.12).contains(&frac), "{frac}");
        assert_eq!(s.schema(), r.schema());
    }

    #[test]
    fn uniform_sample_deterministic() {
        let r = CarsConfig::default().with_rows(2_000).generate(2);
        let a = uniform_sample(&r, 0.2, 3);
        let b = uniform_sample(&r, 0.2, 3);
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn probe_sample_estimates_stats() {
        let ground = CarsConfig::default().with_rows(20_000).generate(3);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let true_incompleteness = ed.incompleteness().incomplete_fraction;
        let src = WebSource::new("cars.com", ed);
        let model = src.schema().expect_attr("model");
        let probe_values: Vec<Value> = CarCatalog::new()
            .models()
            .iter()
            .map(|m| Value::str(&m.model))
            .collect();
        let ps = probe_sample(&src, model, &probe_values, 0.10, usize::MAX, 11);

        assert!(!ps.relation.is_empty());
        // Probing every model covers the whole DB, so the ratio should be
        // close to 1/keep = 10.
        assert!(
            (6.0..16.0).contains(&ps.smpl_ratio),
            "smpl_ratio {}",
            ps.smpl_ratio
        );
        assert!(
            (ps.per_inc - true_incompleteness).abs() < 0.03,
            "per_inc {} vs true {}",
            ps.per_inc,
            true_incompleteness
        );
    }

    #[test]
    fn probe_sample_has_no_duplicates() {
        let ground = CarsConfig::default().with_rows(5_000).generate(4);
        let src = WebSource::new("cars.com", ground);
        let model = src.schema().expect_attr("model");
        let probe_values: Vec<Value> = CarCatalog::new()
            .models()
            .iter()
            .map(|m| Value::str(&m.model))
            .collect();
        let ps = probe_sample(&src, model, &probe_values, 0.5, usize::MAX, 5);
        let mut ids: Vec<TupleId> = ps.relation.tuples().iter().map(Tuple::id).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn probing_unsupported_attribute_yields_empty_sample() {
        // A probe attribute the web form does not expose: every probe is
        // rejected, the sample stays empty, the statistics degrade safely.
        let ground = CarsConfig::default().with_rows(1_000).generate(4);
        let model = ground.schema().expect_attr("model");
        let body = ground.schema().expect_attr("body_style");
        let src = WebSource::new("narrow", ground).with_queryable(&[body]);
        let ps = probe_sample(&src, model, &[Value::str("Civic")], 0.5, 10, 5);
        assert!(ps.relation.is_empty());
        assert_eq!(ps.per_inc, 0.0);
        assert_eq!(ps.smpl_ratio, 1.0);
        assert_eq!(src.meter().rejected, 1);
    }

    #[test]
    fn probe_sample_respects_max_probes() {
        let ground = CarsConfig::default().with_rows(5_000).generate(4);
        let src = WebSource::new("cars.com", ground);
        let model = src.schema().expect_attr("model");
        let probe_values: Vec<Value> = CarCatalog::new()
            .models()
            .iter()
            .map(|m| Value::str(&m.model))
            .collect();
        probe_sample(&src, model, &probe_values, 0.5, 3, 5);
        assert_eq!(src.meter().queries, 3);
    }
}
