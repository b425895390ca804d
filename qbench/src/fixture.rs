//! Workload definitions: seeded inputs (generated outside every timed span),
//! the timed set-up that turns them into serving sources, and the request
//! streams.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use qpiad_core::QpiadConfig;
use qpiad_data::cars::CarsConfig;
use qpiad_data::corrupt::{corrupt, CorruptionConfig};
use qpiad_data::sample::uniform_sample;
use qpiad_db::{
    AttrId, AutonomousSource, Predicate, Relation, Schema, SelectQuery, Tuple, Value, WebSource,
};
use qpiad_learn::knowledge::{MiningConfig, SourceStats};

use crate::phased::PhasedSource;

/// The supporting member: every global attribute, mined knowledge.
pub const CARS: &str = "cars.com";
/// The deficient member: `body_style` projected away, no knowledge.
pub const YAHOO: &str = "yahoo_autos";

/// Rewrites per request (the paper's `k`), shared by the network and the
/// planning replay.
pub fn qpiad_config() -> QpiadConfig {
    QpiadConfig::default().with_k(10)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 12k-row cars + deficient member, Zipf mix over 16 templates.
    Hot12k,
    /// 1M-row cars, uniform draws over thousands of two-attribute templates.
    Cold1m,
    /// The `Hot12k` network over rows that shift in phases, with inline
    /// maintenance.
    Drift12k,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Hot12k, Workload::Cold1m, Workload::Drift12k];

    /// Parses a workload name as the command line spells it.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot12k => "hot_12k",
            Workload::Cold1m => "cold_1m",
            Workload::Drift12k => "drift_12k",
        }
    }

    fn has_yahoo(self) -> bool {
        self != Workload::Cold1m
    }
}

/// Drift phases the `drift_12k` source cycles through, with the body-style
/// noise of each phase's generator (phase 0 is the pre-drift data).
pub const PHASE_BODY_NOISE: [f64; 4] = [0.12, 0.40, 0.20, 0.60];
/// Generator seed of the relation the hot templates are drawn from.
const HOT_TEMPLATE_SEED: u64 = 0x9_1AD;
/// Generator seed of every workload's data.
pub const DATA_SEED: u64 = 0xDA7A;
/// Seed of the prefix's request stream.
pub const PREFIX_SEED: u64 = 0x9E5;
/// Generator seed of the relation the cold template pool is drawn from.
const COLD_TEMPLATE_SEED: u64 = 0xC_01D;
/// Requests served per drift phase.
pub const PHASE_LEN: u64 = 120;
/// A maintenance pass runs after every this many requests on `drift_12k`.
pub const MAINTAIN_EVERY: u64 = 20;

/// Sizes of one workload. The command line always uses [`Scale::of`]; the
/// benchmark's tests shrink them.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the cars member (per drift phase).
    pub rows: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests in the deterministic prefix every count and quality metric
    /// is taken over.
    pub prefix: u64,
}

impl Scale {
    /// The benchmark's sizes for `w`.
    pub fn of(w: Workload) -> Self {
        match w {
            Workload::Hot12k => Scale {
                rows: 12_000,
                setups: 15,
                prefix: 1_200,
            },
            Workload::Cold1m => Scale {
                rows: 1_000_000,
                setups: 5,
                prefix: 150,
            },
            Workload::Drift12k => Scale {
                rows: 12_000,
                setups: 15,
                prefix: 480,
            },
        }
    }
}

/// One member's data for one phase.
pub struct MemberData {
    /// Complete ground truth, global schema.
    pub ground: Relation,
    /// What the member stores, lifted to the global schema (attributes it
    /// lacks are null): the reference for certain answers and the oracle.
    pub stored: Relation,
    /// The member's local schema.
    pub schema: Arc<Schema>,
    /// The global attributes the member serves, when it projects some away.
    pub served: Option<Vec<AttrId>>,
}

impl MemberData {
    /// The rows the member serves, in its local schema.
    pub fn local_rows(&self) -> Vec<Tuple> {
        let stored = self.stored.tuples();
        match &self.served {
            None => stored.to_vec(),
            Some(keep) => stored
                .iter()
                .map(|t| Tuple::new(t.id(), t.project(keep)))
                .collect(),
        }
    }
}

/// Everything a run needs, generated outside every timed span.
pub struct Inputs {
    /// Which workload these inputs are for.
    pub workload: Workload,
    /// Sizes.
    pub scale: Scale,
    /// The global (cars) schema.
    pub global: Arc<Schema>,
    /// The cars member, one entry per drift phase (one for the others).
    pub cars: Vec<MemberData>,
    /// The deficient member, absent on `cold_1m`.
    pub yahoo: Option<MemberData>,
    /// Per-phase probe samples the drift workload's re-mine draws from.
    pub remine_samples: Vec<Relation>,
    /// Seed for the mining sample drawn at set-up.
    pub sample_seed: u64,
    /// The prefix's request stream: one fixed sequence for every seed.
    pub prefix_requests: Requests,
    /// The timed phase's request stream, seeded.
    pub requests: Requests,
}

/// Seed mixing (SplitMix64 finaliser), so nearby seeds give unrelated streams.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The share of a source's rows its mining sample holds: the paper's 10%,
/// capped at 12k rows so the 1M-row source mines a sample of the size the
/// 12k-row workloads mine from in full.
pub fn sample_fraction(rows: usize) -> f64 {
    (12_000.0 / rows as f64).min(0.10)
}

impl Inputs {
    /// Generates the inputs of `workload` at `scale`. The data and the
    /// prefix's requests are fixed per workload (from [`DATA_SEED`] and
    /// [`PREFIX_SEED`]); `seed` drives the timed phase's requests.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Self {
        let data = DATA_SEED;
        let phases = if workload == Workload::Drift12k {
            PHASE_BODY_NOISE.len()
        } else {
            1
        };
        let cars: Vec<MemberData> = (0..phases)
            .map(|p| {
                let ground = CarsConfig::default()
                    .with_rows(scale.rows)
                    .with_body_noise(PHASE_BODY_NOISE[p])
                    .generate(mix(data ^ (p as u64 + 1)));
                let (stored, _) = corrupt(
                    &ground,
                    &CorruptionConfig::default().with_seed(mix(data ^ 0xC0 ^ p as u64)),
                );
                let schema = stored.schema().clone();
                MemberData {
                    ground,
                    stored,
                    schema,
                    served: None,
                }
            })
            .collect();
        let global = cars[0].ground.schema().clone();
        let yahoo = workload.has_yahoo().then(|| {
            let ground = CarsConfig::default()
                .with_rows(scale.rows / 2)
                .generate(mix(data ^ 0x9A400));
            let body = global.expect_attr("body_style");
            let keep: Vec<_> = global.attr_ids().filter(|a| *a != body).collect();
            let projected = ground.project_to(YAHOO, &keep);
            let lifted = ground
                .tuples()
                .iter()
                .map(|t| t.with_value(body, Value::Null))
                .collect();
            MemberData {
                stored: Relation::new(global.clone(), lifted),
                schema: projected.schema().clone(),
                served: Some(keep),
                ground,
            }
        });
        let remine_samples = if workload == Workload::Drift12k {
            cars.iter()
                .enumerate()
                .map(|(p, m)| {
                    uniform_sample(
                        &m.stored,
                        sample_fraction(scale.rows),
                        mix(data ^ 0x5A0 ^ p as u64),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        let prefix_requests = match workload {
            Workload::Cold1m => Requests::cold(PREFIX_SEED),
            _ => Requests::hot(PREFIX_SEED),
        };
        let requests = Requests {
            state: mix(seed),
            ..prefix_requests.clone()
        };
        Inputs {
            workload,
            scale,
            global,
            cars,
            yahoo,
            remine_samples,
            sample_seed: mix(data ^ 0x5A),
            prefix_requests,
            requests,
        }
    }

    /// The drift phase request `i` is served under.
    pub fn phase_of(&self, i: u64) -> usize {
        ((i / PHASE_LEN) % self.cars.len() as u64) as usize
    }

    /// The rows set-up starts from, cloned outside the timed span.
    pub fn raw_rows(&self) -> RawRows {
        RawRows {
            cars: self.cars.iter().map(MemberData::local_rows).collect(),
            yahoo: self.yahoo.as_ref().map(MemberData::local_rows),
        }
    }
}

/// Generated rows in memory, the input of one timed set-up.
pub struct RawRows {
    cars: Vec<Vec<Tuple>>,
    yahoo: Option<Vec<Tuple>>,
}

/// The cars member as served: one plain source, or one per drift phase.
pub enum CarsSource {
    /// `hot_12k` and `cold_1m`.
    Plain(Box<WebSource>),
    /// `drift_12k`.
    Phased(PhasedSource),
}

impl CarsSource {
    /// The source the network registers.
    pub fn source(&self) -> &dyn AutonomousSource {
        match self {
            CarsSource::Plain(s) => s.as_ref(),
            CarsSource::Phased(s) => s,
        }
    }

    /// Switches the served phase (no-op for a plain source).
    pub fn set_phase(&self, phase: usize) {
        if let CarsSource::Phased(s) = self {
            s.set_phase(phase);
        }
    }

    /// The stored rows of `phase`.
    pub fn relation(&self, phase: usize) -> &Relation {
        match self {
            CarsSource::Plain(s) => s.relation(),
            CarsSource::Phased(s) => s.relation(phase),
        }
    }
}

/// Serving sources and mined knowledge, built by one timed set-up.
pub struct Fixture {
    /// The supporting member.
    pub cars: CarsSource,
    /// The deficient member.
    pub yahoo: Option<WebSource>,
    /// Knowledge mined from the (pre-drift) sample.
    pub stats: SourceStats,
    /// Wall time of `Relation` construction (dictionary + columnar image).
    pub relation_ms: f64,
    /// Wall time of `SourceStats::mine`.
    pub mine_ms: f64,
    /// Wall time of the posting-index warm-up (one query per attribute).
    pub index_ms: f64,
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Builds every posting index `source` will use by issuing one equality
/// query per attribute, then clears the meter.
fn warm(source: &WebSource) {
    let rel = source.relation();
    for attr in rel.schema().attr_ids() {
        if let Some(v) = rel
            .tuples()
            .iter()
            .map(|t| t.value(attr))
            .find(|v| !v.is_null())
        {
            source
                .query(&SelectQuery::new(vec![Predicate::eq(attr, v.clone())]))
                .expect("warm-up query on a queryable attribute");
        }
    }
    source.reset_meter();
}

impl Fixture {
    /// The timed part of set-up: from generated rows in memory to sources
    /// with built indexes and mined knowledge.
    pub fn build(inputs: &Inputs, raw: RawRows) -> Self {
        let t0 = Instant::now();
        let relations: Vec<Relation> = raw
            .cars
            .into_iter()
            .map(|rows| Relation::new(inputs.global.clone(), rows))
            .collect();
        let yahoo_rel = raw.yahoo.map(|rows| {
            Relation::new(
                inputs.yahoo.as_ref().expect("yahoo inputs").schema.clone(),
                rows,
            )
        });
        let relation_ms = ms(t0);

        let sample = uniform_sample(
            &relations[0],
            sample_fraction(relations[0].len()),
            inputs.sample_seed,
        );
        let t0 = Instant::now();
        let stats = SourceStats::mine(&sample, relations[0].len(), &MiningConfig::default());
        let mine_ms = ms(t0);

        let mut phases: Vec<WebSource> = relations
            .into_iter()
            .map(|r| WebSource::new(CARS, r))
            .collect();
        let yahoo = yahoo_rel.map(|r| WebSource::new(YAHOO, r));
        let t0 = Instant::now();
        phases.iter().chain(yahoo.iter()).for_each(warm);
        let index_ms = ms(t0);
        let cars = if inputs.workload == Workload::Drift12k {
            CarsSource::Phased(PhasedSource::new(phases))
        } else {
            CarsSource::Plain(Box::new(phases.pop().expect("one cars phase")))
        };
        Fixture {
            cars,
            yahoo,
            stats,
            relation_ms,
            mine_ms,
            index_ms,
        }
    }
}

/// A seeded, endless request stream over a fixed template list.
#[derive(Clone)]
pub struct Requests {
    templates: Vec<SelectQuery>,
    order: Order,
    state: u64,
}

/// How a [`Requests`] stream picks its next template.
#[derive(Clone)]
enum Order {
    /// Independent draws; the cumulative distribution over the templates.
    Weighted(Vec<f64>),
    /// Every template once per round, in a seeded order; `next` indexes the
    /// round's next template, and a used-up round is shuffled anew.
    Rounds { order: Vec<usize>, next: usize },
}

impl Requests {
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(1);
        mix(*state)
    }

    fn unit(state: &mut u64) -> f64 {
        (Self::draw(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Distinct templates built from random ground rows: each takes the
    /// row's values on one attribute pattern, so every template has matches.
    fn templates(
        ground: &Relation,
        patterns: &[&[&str]],
        want: usize,
        state: &mut u64,
    ) -> Vec<SelectQuery> {
        let schema = ground.schema();
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for i in 0..want * 4 {
            if out.len() == want {
                break;
            }
            let row = &ground.tuples()[(Self::draw(state) % ground.len() as u64) as usize];
            let pattern = patterns[i % patterns.len()];
            let q = SelectQuery::new(
                pattern
                    .iter()
                    .map(|name| {
                        let a = schema.expect_attr(name);
                        Predicate::eq(a, row.value(a).clone())
                    })
                    .collect(),
            );
            if seen.insert(q.clone()) {
                out.push(q);
            }
        }
        out
    }

    /// Zipf(1) mix over 16 single- and two-attribute templates, drawn from
    /// a fixed-seed ground relation so every seed serves the same mix.
    fn hot(seed: u64) -> Self {
        let ground = CarsConfig::default()
            .with_rows(12_000)
            .generate(HOT_TEMPLATE_SEED);
        let patterns: &[&[&str]] = &[
            &["body_style"],
            &["make", "body_style"],
            &["model"],
            &["year", "body_style"],
            &["make"],
            &["model", "year"],
        ];
        let templates = Self::templates(&ground, patterns, 16, &mut { HOT_TEMPLATE_SEED });
        let weights: Vec<f64> = (0..templates.len()).map(|i| 1.0 / (i + 1) as f64).collect();
        Self::with_weights(templates, &weights, seed)
    }

    /// Rounds over a fixed pool of distinct two-attribute templates, each
    /// round in a seeded order. A run's requests cover nearly the same
    /// templates whatever the seed, so the heavy templates that set the p99
    /// do not depend on it. A template repeats, and hits the plan cache,
    /// only once the pool is used up.
    fn cold(seed: u64) -> Self {
        let ground = CarsConfig::default()
            .with_rows(50_000)
            .generate(COLD_TEMPLATE_SEED);
        let patterns: &[&[&str]] = &[
            &["make", "body_style"],
            &["year", "body_style"],
            &["model", "year"],
            &["make", "year"],
            &["model", "mileage"],
            &["model", "price"],
            &["make", "mileage"],
        ];
        let templates = Self::templates(&ground, patterns, 12_000, &mut { COLD_TEMPLATE_SEED });
        let n = templates.len();
        Requests {
            templates,
            order: Order::Rounds {
                order: (0..n).collect(),
                next: n,
            },
            state: seed,
        }
    }

    fn with_weights(templates: Vec<SelectQuery>, weights: &[f64], state: u64) -> Self {
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Requests {
            templates,
            order: Order::Weighted(cdf),
            state,
        }
    }

    /// The distinct templates requests are drawn from.
    pub fn templates_len(&self) -> usize {
        self.templates.len()
    }

    /// The next request.
    pub fn next_query(&mut self) -> SelectQuery {
        let state = &mut self.state;
        let i = match &mut self.order {
            Order::Weighted(cdf) => {
                let u = Self::unit(state);
                cdf.partition_point(|c| *c < u)
                    .min(self.templates.len() - 1)
            }
            Order::Rounds { order, next } => {
                if *next == order.len() {
                    for k in (1..order.len()).rev() {
                        order.swap(k, (Self::draw(state) % (k as u64 + 1)) as usize);
                    }
                    *next = 0;
                }
                *next += 1;
                order[*next - 1]
            }
        };
        self.templates[i].clone()
    }
}
