//! E12 — entity binding and discovery at scale (paper §IV activity 1).
//!
//! Measures attribute-filtered discovery latency as the registry grows
//! and as the filter selectivity varies — the operation behind every
//! generated `whereLocation(...)` facade call.

use diaspec_core::compile_str;
use diaspec_runtime::entity::{AttributeMap, BindingTime};
use diaspec_runtime::registry::Registry;
use diaspec_runtime::value::Value;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const SPEC: &str = r#"
    device Panel {
      attribute zone as String;
      attribute floor as Integer;
      action update(status as String);
    }
"#;

/// Builds a registry of `entities` panels spread over `zones` zones and 4
/// floors.
fn build_registry(entities: usize, zones: usize) -> Registry {
    let spec = Arc::new(compile_str(SPEC).expect("discovery spec compiles"));
    let mut registry = Registry::new(spec);
    for i in 0..entities {
        let mut attrs = AttributeMap::new();
        attrs.insert(
            "zone".to_owned(),
            Value::from(format!("zone-{}", i % zones)),
        );
        attrs.insert("floor".to_owned(), Value::Int((i % 4) as i64));
        registry
            .bind(
                format!("panel-{i}").into(),
                "Panel",
                attrs,
                Box::new(|_: &str, _: u64| Ok(Value::Bool(false))),
                BindingTime::Deployment,
                0,
            )
            .expect("bind succeeds");
    }
    registry
}

/// One row of the discovery experiment.
#[derive(Debug, Clone, Serialize)]
pub struct DiscoveryRow {
    /// Bound entities.
    pub entities: usize,
    /// Distinct zones (controls selectivity: matches ≈ entities / zones).
    pub zones: usize,
    /// Entities matched by the zone filter.
    pub matched: usize,
    /// Mean microseconds per filtered discovery.
    pub mean_us: f64,
}

/// Measures `iters` filtered discoveries against one configuration.
#[must_use]
pub fn run(entities: usize, zones: usize, iters: usize) -> DiscoveryRow {
    let registry = build_registry(entities, zones);
    let zone = Value::from("zone-0");
    // Warm-up + correctness check.
    let matched = registry
        .discover("Panel")
        .with_attribute("zone", &zone)
        .count();
    let start = Instant::now();
    for _ in 0..iters {
        let ids = registry
            .discover("Panel")
            .with_attribute("zone", &zone)
            .ids();
        assert_eq!(ids.len(), matched);
    }
    let mean_us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
    DiscoveryRow {
        entities,
        zones,
        matched,
        mean_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_and_filters_correctly() {
        let registry = build_registry(1000, 10);
        assert_eq!(registry.len(), 1000);
        let zone0 = registry
            .discover("Panel")
            .with_attribute("zone", &Value::from("zone-0"))
            .count();
        assert_eq!(zone0, 100);
        let compound = registry
            .discover("Panel")
            .with_attribute("zone", &Value::from("zone-0"))
            .with_attribute("floor", &Value::Int(0))
            .count();
        // zone-0 (i % 10 == 0) AND floor 0 (i % 4 == 0) => i % 20 == 0.
        assert_eq!(compound, 50);
    }

    #[test]
    fn rows_report_plausible_latency() {
        let row = run(500, 5, 10);
        assert_eq!(row.matched, 100);
        assert!(row.mean_us > 0.0);
    }
}
