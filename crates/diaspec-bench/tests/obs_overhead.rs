//! Test-level bound on the observability-disabled hot path.
//!
//! With observability off (the default, and the tier-1 configuration),
//! every instrumentation site in the engine reduces to one call into
//! `ObsHub::record` that returns after a single branch. This test bounds
//! that cost directly: even at a generous 50 ns per record and ~10
//! record sites per orchestration event, the added cost is < 0.5 µs per
//! event — under 5% of the cheapest E1 event the engine dispatches
//! (~10 µs each; the enabled path is priced by the benchmark's
//! `obs.span_tracing_slowdown` and `harness.trace_overhead` rows).

use diaspec_runtime::obs::{Activity, ObsHub};
use diaspec_runtime::SpanCtx;
use std::hint::black_box;
use std::time::Instant;

#[test]
fn disabled_record_path_is_near_zero() {
    let mut hub = ObsHub::new();
    assert!(!hub.is_enabled(), "recording must be off by default");

    // Warm up, then time a tight loop of disabled records.
    for i in 0..10_000u64 {
        black_box(&mut hub).record(Activity::Delivering, black_box("Ctx"), black_box(i));
    }
    let n = 2_000_000u64;
    let start = Instant::now();
    for i in 0..n {
        black_box(&mut hub).record(Activity::Delivering, black_box("Ctx"), black_box(i));
    }
    let elapsed = start.elapsed();

    let ns_per_call = elapsed.as_nanos() as f64 / n as f64;
    assert!(
        ns_per_call < 50.0,
        "disabled record path costs {ns_per_call:.1} ns/call; expected ~1 ns"
    );
    // Nothing was recorded.
    assert!(hub.histogram(Activity::Delivering).is_empty());
}

#[test]
fn disabled_span_sites_stay_within_the_single_branch_budget() {
    let hub = ObsHub::new();
    assert!(!hub.spans_enabled(), "span tracing must be off by default");

    // With tracing off, a span site in the engine reduces to exactly one
    // of these two checks: the emission entry gate (`spans_enabled`) or
    // the propagated-context gate (`SpanCtx::is_active`, trace_id != 0).
    // No IDs are minted, no labels built, no histograms touched. Bound
    // both branches directly.
    for _ in 0..10_000u64 {
        assert!(!black_box(&hub).spans_enabled());
        assert!(!black_box(SpanCtx::NONE).is_active());
    }
    let n = 2_000_000u64;
    let start = Instant::now();
    for _ in 0..n {
        if black_box(&hub).spans_enabled() {
            unreachable!("tracing is off");
        }
        if black_box(SpanCtx::NONE).is_active() {
            unreachable!("no active span context");
        }
    }
    let elapsed = start.elapsed();

    let ns_per_site = elapsed.as_nanos() as f64 / n as f64;
    assert!(
        ns_per_site < 50.0,
        "disabled span site costs {ns_per_site:.1} ns; expected ~1 ns"
    );
}
