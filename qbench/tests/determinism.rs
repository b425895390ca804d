//! Determinism and transparency of the benchmark itself, at reduced sizes.
//!
//! Run with `cargo test --release --manifest-path qbench/Cargo.toml`.

use qbench::fixture::{Scale, Workload};
use qbench::run::{run, Options, RunOutput};

fn opts(workload: Workload, seed: u64, trace: bool, scale: Scale) -> Options {
    let scratch = std::env::temp_dir().join(format!(
        "qbench-test-{}-{}-{seed}-{}",
        std::process::id(),
        workload.name(),
        u8::from(trace)
    ));
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale,
        scratch,
    }
}

fn go(o: &Options) -> RunOutput {
    let out = run(o).unwrap_or_else(|v| panic!("correctness violations: {v:?}"));
    let _ = std::fs::remove_dir_all(&o.scratch);
    out
}

fn small(workload: Workload) -> Scale {
    match workload {
        Workload::Hot12k => Scale {
            rows: 12_000,
            setups: 1,
            prefix: 300,
        },
        Workload::Cold1m => Scale {
            rows: 60_000,
            setups: 1,
            prefix: 40,
        },
        // Two phases' worth of requests: at least one phase shift, so the
        // prefix holds both folds and a re-mine.
        Workload::Drift12k => Scale {
            rows: 12_000,
            setups: 1,
            prefix: 240,
        },
    }
}

/// Two runs at one seed agree on the digest and on every count and quality
/// metric; another seed changes the digest.
fn deterministic(workload: Workload) {
    let scale = small(workload);
    let a = go(&opts(workload, 7, false, scale));
    let b = go(&opts(workload, 7, false, scale));
    assert_eq!(
        a.digest,
        b.digest,
        "{}: digest differs at one seed",
        workload.name()
    );
    assert_eq!(
        a.counts,
        b.counts,
        "{}: counts differ at one seed",
        workload.name()
    );
    assert_eq!(a.prefix_meters, b.prefix_meters);
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.failed, 0, "{}: no request may fail", workload.name());
    let c = go(&opts(workload, 8, false, scale));
    assert_ne!(
        a.digest,
        c.digest,
        "{}: another seed must change the digest",
        workload.name()
    );
}

#[test]
fn hot_is_deterministic() {
    deterministic(Workload::Hot12k);
}

#[test]
fn cold_is_deterministic() {
    deterministic(Workload::Cold1m);
}

#[test]
fn drift_is_deterministic() {
    deterministic(Workload::Drift12k);
    let out = go(&opts(
        Workload::Drift12k,
        7,
        false,
        small(Workload::Drift12k),
    ));
    let count = |name: &str| {
        out.counts
            .iter()
            .find(|m| m.name == name)
            .expect("count reported")
            .value
    };
    assert!(count("learn.folds") > 0.0, "the drift prefix must fold");
    assert!(
        count("learn.remines") > 0.0,
        "a phase shift must force a re-mine"
    );
}

/// Serving through the timing wrappers changes neither the answers nor any
/// meter reading: the traced run serves the same traffic.
#[test]
fn timing_wrappers_are_transparent() {
    for workload in [Workload::Hot12k, Workload::Drift12k] {
        let scale = small(workload);
        let plain = go(&opts(workload, 5, false, scale));
        let traced = go(&opts(workload, 5, true, scale));
        assert_eq!(plain.digest, traced.digest, "{}", workload.name());
        assert_eq!(
            plain.prefix_meters,
            traced.prefix_meters,
            "{}",
            workload.name()
        );
        assert_eq!(plain.counts, traced.counts, "{}", workload.name());
    }
}

/// Every source call of a traced request is timed inside that request's
/// span, so the request's self time (its span minus its source spans) is
/// the mediation time and nothing else. Checked on every workload.
#[test]
fn source_spans_nest_inside_their_requests() {
    for workload in Workload::ALL {
        let name = workload.name();
        let out = go(&opts(workload, 3, true, small(workload)));
        let spans = &out.spans;
        let mut in_requests = 0;
        for (i, sp) in spans.iter().enumerate() {
            if sp.name != "source.query" {
                continue;
            }
            let p = sp
                .parent
                .unwrap_or_else(|| panic!("{name}: source span {i} has no parent"));
            let parent = &spans[p];
            assert!(
                matches!(parent.name, "request" | "maintain"),
                "{name}: source span {i} under `{}`",
                parent.name
            );
            assert_eq!(parent.request, sp.request, "{name}: span {i}");
            assert!(
                parent.start_ns <= sp.start_ns && sp.end_ns <= parent.end_ns,
                "{name}: source span {i} leaves its parent"
            );
            in_requests += usize::from(parent.name == "request");
        }
        assert!(in_requests > 0, "{name}: no source span was recorded");
        assert_eq!(
            in_requests, out.traced_calls,
            "{name}: source spans in requests vs wrapper calls in traced requests"
        );
        // Children of one span never overlap, so subtracting them leaves a
        // nonnegative self time.
        let mut last_end = vec![0u64; spans.len()];
        for (i, sp) in spans.iter().enumerate() {
            if let Some(p) = sp.parent {
                assert!(
                    sp.start_ns >= last_end[p],
                    "{name}: span {i} overlaps its sibling"
                );
                last_end[p] = sp.end_ns;
            }
        }
        let get = |metric: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == metric)
                .unwrap_or_else(|| panic!("{name}: {metric} reported"))
                .value
        };
        assert!(get("source.ms_per_request") > 0.0, "{name}");
        assert!(get("mediation.self_ms_per_request") > 0.0, "{name}");
    }
}
