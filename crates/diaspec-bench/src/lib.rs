//! # diaspec-bench — experiment harnesses
//!
//! Shared workload builders and measurement harnesses behind the
//! repository's experiments (see `DESIGN.md` for the per-experiment index
//! and `EXPERIMENTS.md` for recorded results):
//!
//! - [`continuum`] — E1: the same design from tens to tens of thousands of
//!   sensors;
//! - [`churn`] — E16: recovery cost under seeded device churn (leases,
//!   retries, standby rebinds);
//! - [`chaossoak`] — E21: byte-identical orchestration under chaos
//!   transport faults (session resends, replay lateness percentiles);
//! - [`delivery`] — E11: message volume and latency of the three data
//!   delivery models;
//! - [`processing`] — E10: serial vs. parallel MapReduce;
//! - [`taskfaults`] — E17: coverage and wall-clock vs injected
//!   task-failure rate;
//! - [`discovery`] — E12: entity discovery latency vs. registry size;
//! - [`fanout`] — E18: subscriber fan-out × payload size (zero-copy
//!   delivery);
//! - [`loadgen`] — E20: open-loop load harness, latency-under-load
//!   percentiles and the throughput knee;
//! - [`share`] — E9: the generated-code fraction.
//!
//! The `experiments` binary prints every table. Layer timings (compiler
//! stages — E13 —, registry, engine, wire, MapReduce phases) are not
//! measured here: they are the per-layer rows of the stand-alone
//! `benchmark/` package, recorded in `BENCH_ledger.json`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaossoak;
pub mod churn;
pub mod continuum;
pub mod delivery;
pub mod discovery;
pub mod fanout;
pub mod loadgen;
pub mod processing;
pub mod share;
pub mod taskfaults;
