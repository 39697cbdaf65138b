//! The identities the fault plane's goldens rest on.
//!
//! The engine's message injector used to draw from `StdRng`; it now asks
//! [`fate`] for its `k`-th draw. The two are the same function only
//! because the vendored `rand::StdRng` is SplitMix64 — these tests fail
//! loudly if that `rand` is ever swapped for upstream's ChaCha, which
//! would otherwise silently re-key `churn_faulty_trace.txt` and
//! `event_duplicates_trace.txt`.

use diaspec_core::compile_str;
use diaspec_runtime::engine::Orchestrator;
use diaspec_runtime::error::RuntimeError;
use diaspec_runtime::fault::{
    fate, FaultInjector, FaultPlan, MessageFate, TaskFaultPlan, TaskPhase,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SEEDS: [u64; 3] = [0, 42, 0xDEAD_BEEF_CAFE_F00D];

#[test]
fn engine_draws_are_the_std_rng_stream_bit_for_bit() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for ordinal in 1..=1_000 {
            assert_eq!(
                fate(seed, 0, 0, 0, ordinal).to_bits(),
                rng.gen::<f64>().to_bits(),
                "seed {seed} draw {ordinal}"
            );
        }
    }
}

/// The pre-`fate` injector, transcribed: drop, then delay, then
/// duplicate, each consuming a draw only when its probability is > 0.
fn reference_fate(rng: &mut StdRng, plan: &FaultPlan) -> MessageFate {
    if plan.drop_probability > 0.0 && rng.gen::<f64>() < plan.drop_probability {
        return MessageFate::Drop;
    }
    let delayed = plan.delay_probability > 0.0 && rng.gen::<f64>() < plan.delay_probability;
    let duplicated =
        plan.duplicate_probability > 0.0 && rng.gen::<f64>() < plan.duplicate_probability;
    MessageFate::Deliver {
        extra_delay_ms: if delayed { plan.delay_ms } else { 0 },
        duplicated,
    }
}

#[test]
fn injector_consumes_draws_in_the_reference_order() {
    for seed in SEEDS {
        for plan in [
            FaultPlan::seeded(seed)
                .drop_messages(0.2)
                .delay_messages(0.3, 500)
                .duplicate_messages(0.1),
            // Disabled classes must not consume a draw.
            FaultPlan::seeded(seed).duplicate_messages(0.4),
            FaultPlan::seeded(seed)
                .drop_messages(0.5)
                .duplicate_messages(0.5),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut injector = FaultInjector::new(plan.clone());
            for message in 0..1_000 {
                assert_eq!(
                    injector.message_fate(),
                    reference_fate(&mut rng, &plan),
                    "seed {seed} message {message}"
                );
            }
        }
    }
}

#[test]
fn enable_faults_reports_bad_probabilities_instead_of_panicking() {
    let spec = Arc::new(compile_str("device Sensor { source v as Integer; }").unwrap());
    let mut orch = Orchestrator::new(spec);
    for (plan, field) in [
        (FaultPlan::seeded(1).drop_messages(1.5), "message drop"),
        (
            FaultPlan::seeded(1).delay_messages(f64::NAN, 10),
            "message delay",
        ),
        (
            FaultPlan::seeded(1).duplicate_messages(-0.1),
            "message duplicate",
        ),
        (
            FaultPlan::seeded(1).fault_tasks(TaskFaultPlan::seeded(1).lose_workers(2.0)),
            "task lost",
        ),
    ] {
        match orch.enable_faults(plan) {
            Err(RuntimeError::Configuration(message)) => {
                assert!(
                    message.contains(field) && message.contains("outside [0, 1]"),
                    "{message}"
                );
            }
            other => panic!("expected a configuration error naming {field}, got {other:?}"),
        }
    }
    // A rejected plan installs nothing; a valid one still goes in.
    orch.enable_faults(
        FaultPlan::seeded(1)
            .drop_messages(1.0)
            .fault_tasks(TaskFaultPlan::seeded(1).panic_task(TaskPhase::Map, 0, 1)),
    )
    .expect("valid plan accepted");
}
