//! The paper's §VI research question, answered executably: *"Can design
//! declarations be used to match the requirements of an application with
//! the resources of an infrastructure?"*
//!
//! Extracts the parking application's requirements from its design alone
//! (no code runs) and lints the design against three candidate city
//! infrastructures (`diaspec-gen lint --match`) — one complete, one
//! missing hardware, one whose LoRa network cannot carry the periodic
//! load.
//!
//! Run with: `cargo run -p diaspec-examples --bin capacity_planning`

use diaspec_codegen::lint::{lint_designs, LintOptions};
use diaspec_core::analysis::CountSource;
use diaspec_core::compile_str;
use diaspec_core::requirements::{estimate, Infrastructure};
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = compile_str(diaspec_apps::parking::SPEC)?;
    let requirements = estimate(&spec);

    println!("requirements extracted from specs/parking.spec:");
    for req in requirements.devices.values() {
        println!(
            "  {:<22} {:>5.1} periodic msgs/hour per entity",
            req.device_type, req.periodic_msgs_per_entity_hour
        );
    }
    println!(
        "  processing: {} periodic context(s), {} with MapReduce\n",
        requirements.processing.len(),
        requirements
            .processing
            .iter()
            .filter(|p| p.map_reduce)
            .count()
    );

    let full_city = Infrastructure {
        entities: counts(&[
            ("PresenceSensor", 4000),
            ("ParkingEntrancePanel", 8),
            ("CityEntrancePanel", 4),
            ("Messenger", 1),
        ]),
        msgs_per_hour_capacity: Some(100_000.0),
        parallel_workers: 8,
    };
    let missing_panels = Infrastructure {
        entities: counts(&[("PresenceSensor", 4000), ("Messenger", 1)]),
        msgs_per_hour_capacity: None,
        parallel_workers: 8,
    };
    let starved_network = Infrastructure {
        entities: counts(&[
            ("PresenceSensor", 4000),
            ("ParkingEntrancePanel", 8),
            ("CityEntrancePanel", 4),
            ("Messenger", 1),
        ]),
        // 4000 sensors x (6 + 1 + 6) msgs/hour = 52k/hour > 30k capacity.
        msgs_per_hour_capacity: Some(30_000.0),
        parallel_workers: 1,
    };

    // The full city must deploy; the others must be rejected.
    let input = [(
        "specs/parking.spec".to_owned(),
        diaspec_apps::parking::SPEC.to_owned(),
    )];
    for (name, infra, fits) in [
        ("full city", full_city, true),
        ("missing panels", missing_panels, false),
        ("starved LoRa network", starved_network, false),
    ] {
        println!("=== candidate infrastructure: {name} ===");
        let options = LintOptions {
            counts: CountSource::Infrastructure(infra),
            ..LintOptions::default()
        };
        let outcome = lint_designs(&input, &[], &options)?;
        println!("{}", outcome.rendered);
        assert_eq!(outcome.failed(), !fits, "{name}");
    }
    Ok(())
}

fn counts(pairs: &[(&str, u32)]) -> BTreeMap<String, u32> {
    pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
}
