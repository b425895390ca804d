//! The QPIAD repository benchmark.
//!
//! Three deterministic single-caller workloads drive `QpiadServer::query`
//! in a closed loop with one worker thread and a logical mediation clock.
//! Count and quality metrics come from a fixed prefix of each seeded
//! request stream, so they repeat exactly at one seed; only timings vary.
//! A traced run serves through [`trace::TimedSource`] wrappers and reports
//! per-layer timings taken from outside the program.

pub mod check;
pub mod fixture;
pub mod phased;
pub mod run;
pub mod sys;
pub mod trace;
