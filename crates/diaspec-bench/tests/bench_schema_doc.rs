//! Consistency guard for the `BENCH_delivery.json` schema documentation.
//!
//! `docs/OBSERVABILITY.md` names the schema tag and lists the report's
//! fields; nothing ties that prose to `loadgen::LoadReport` at compile
//! time (the doc sat at `v1` while the code shipped `v2`), so this test
//! parses the tag and the field table out of the markdown and compares
//! them with what a real report serialises to.

use diaspec_bench::loadgen::{self, LoadConfig};
use std::collections::BTreeSet;
use std::time::Duration;

const OBSERVABILITY_MD: &str = include_str!("../../../docs/OBSERVABILITY.md");

/// The backticked field names of the table rows whose first column is
/// `level` (`| rate | `messages` | ... |`).
fn documented_fields(level: &str) -> BTreeSet<String> {
    OBSERVABILITY_MD
        .lines()
        .filter_map(|line| {
            let mut cells = line.trim().strip_prefix('|')?.split('|').map(str::trim);
            if cells.next()? != level {
                return None;
            }
            let field = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            Some(field.to_owned())
        })
        .collect()
}

fn keys(object: &serde_json::Value) -> BTreeSet<String> {
    object
        .as_object()
        .expect("a JSON object")
        .iter()
        .map(|(key, _)| key.clone())
        .collect()
}

#[test]
fn documented_schema_matches_the_serialised_report() {
    let tags: BTreeSet<&str> = OBSERVABILITY_MD
        .split(|c: char| c == '`' || c.is_whitespace())
        .filter(|word| word.starts_with("diaspec-bench/delivery/"))
        .collect();
    assert_eq!(
        tags,
        BTreeSet::from([loadgen::SCHEMA]),
        "docs/OBSERVABILITY.md must name exactly the current schema tag"
    );

    let report = loadgen::sweep(
        &LoadConfig {
            rates: vec![2_000, 4_000],
            window: Duration::from_millis(5),
            sensors: 2,
            max_messages: 100,
        },
        true,
    );
    let json: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    let report_fields = documented_fields("report");
    let rate_fields = documented_fields("rate");
    assert!(
        !report_fields.is_empty() && !rate_fields.is_empty(),
        "table parser found nothing — did the doc change format?"
    );
    assert_eq!(report_fields, keys(&json), "top-level fields");
    let rates = json.get("rates").and_then(|r| r.as_array()).unwrap();
    assert_eq!(rate_fields, keys(&rates[0]), "per-rate fields");
}
