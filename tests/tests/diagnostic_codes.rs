//! Consistency guard for the diagnostic-code tables.
//!
//! The stable code set is documented in four places: the checker
//! rustdoc (`diaspec_core::check`), the analysis rustdoc
//! (`diaspec_core::analysis`), the §VI matching rustdoc
//! (`diaspec_core::requirements`), and the user-facing reference
//! (`docs/LANGUAGE.md`). Nothing ties them together at compile time, so
//! this test parses the markdown tables out of all four and fails the
//! build the moment they drift apart.

use diaspec_core::analysis::analyze;
use diaspec_core::span::Span;
use std::collections::BTreeSet;
use std::path::PathBuf;

const CHECK_RS: &str = include_str!("../../crates/diaspec-core/src/check.rs");
const ANALYSIS_RS: &str = include_str!("../../crates/diaspec-core/src/analysis/mod.rs");
const REQUIREMENTS_RS: &str = include_str!("../../crates/diaspec-core/src/requirements.rs");
const LANGUAGE_MD: &str = include_str!("../../docs/LANGUAGE.md");

/// Extracts every diagnostic code that appears as the first column of a
/// markdown table row (`| E0401 | ... |`), in plain markdown or behind
/// `//!` doc-comment markers.
fn codes_in(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim_start();
        let line = line.strip_prefix("//!").unwrap_or(line).trim();
        if !line.starts_with('|') {
            continue;
        }
        let mut cells = line.split('|').map(str::trim);
        cells.next(); // text before the leading `|` is empty
        if let Some(cell) = cells.next() {
            if cell.len() == 5
                && (cell.starts_with('E') || cell.starts_with('W'))
                && cell[1..].chars().all(|c| c.is_ascii_digit())
            {
                out.insert(cell.to_owned());
            }
        }
    }
    out
}

#[test]
fn code_tables_never_drift_apart() {
    let checker = codes_in(CHECK_RS);
    let analysis = codes_in(ANALYSIS_RS);
    let matching = codes_in(REQUIREMENTS_RS);
    let reference = codes_in(LANGUAGE_MD);
    assert!(
        !checker.is_empty() && !analysis.is_empty() && !matching.is_empty(),
        "table parser found nothing — did a module doc change format?"
    );
    let tables = [&checker, &analysis, &matching];
    for (i, first) in tables.iter().enumerate() {
        for second in &tables[i + 1..] {
            let shared: Vec<_> = first.intersection(second).collect();
            assert!(
                shared.is_empty(),
                "codes documented by two rustdoc tables: {shared:?}"
            );
        }
    }
    let rustdoc: BTreeSet<_> = tables.into_iter().flatten().cloned().collect();
    let missing: Vec<_> = rustdoc.difference(&reference).collect();
    let stale: Vec<_> = reference.difference(&rustdoc).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "docs/LANGUAGE.md disagrees with the rustdoc tables — \
         missing from LANGUAGE.md: {missing:?}, only in LANGUAGE.md: {stale:?}"
    );
}

#[test]
fn analysis_table_lists_exactly_the_emitted_codes() {
    let analysis = codes_in(ANALYSIS_RS);
    let expected: BTreeSet<String> = [
        "E0401", "W0401", "W0402", "W0403", "W0404", "W0405", "W0406", "W0407", "E0501", "E0502",
        "E0503", "W0501", "E0601", "W0601", "W0602", "E0602", "E0604", "W0605",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    assert_eq!(analysis, expected);
    // The budget codes are the one budget pass's.
    let rates = include_str!("../../crates/diaspec-core/src/analysis/rates.rs");
    for code in ["W0407", "W0602", "E0604", "W0605"] {
        assert!(
            rates.contains(&format!("\"{code}\"")),
            "{code} is not emitted by the budget pass"
        );
    }
}

#[test]
fn requirements_table_lists_exactly_the_match_codes() {
    let expected: BTreeSet<String> = ["E0603", "W0606", "W0607"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    assert_eq!(codes_in(REQUIREMENTS_RS), expected);
    // Each is emitted by `match_infrastructure`, which says nothing else.
    let source = include_str!("../../crates/diaspec-core/src/requirements.rs");
    let body = &source[source.find("pub fn match_infrastructure").unwrap()..];
    for code in &expected {
        assert!(
            body.contains(&format!("\"{code}\"")),
            "{code} is never emitted"
        );
    }
}

/// Every diagnostic an analysis pass produces on the negative fixtures
/// must carry a real source span — a `Span::DUMMY` would render as a
/// caret at 1:1, pointing the user at nothing.
#[test]
fn fixture_diagnostics_carry_real_spans() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../specs/lint");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&dir).expect("specs/lint exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("spec") {
            continue;
        }
        seen += 1;
        let source = std::fs::read_to_string(&path).unwrap();
        let (spec, warnings) = diaspec_core::compile_str_with_warnings(&source)
            .unwrap_or_else(|e| panic!("fixture {} does not compile: {e}", path.display()));
        let report = analyze(&spec);
        for diag in warnings.iter().chain(report.diagnostics.iter()) {
            assert_ne!(
                diag.at.span,
                Span::DUMMY,
                "{}: {} `{}` has a dummy span",
                path.display(),
                diag.code,
                diag.message
            );
        }
    }
    assert!(seen >= 7, "expected at least 7 fixtures, found {seen}");
}

/// The `@qos` diagnostics are operator-facing text: pinned whole, so a
/// lost `\` line continuation (which once put 40-odd literal spaces into
/// both) cannot come back unseen.
#[test]
fn qos_annotation_messages_are_pinned_verbatim() {
    let (ast, parse_diags) = diaspec_core::parser::parse(
        "@qos(latencyMs = 0, colour = 3)\n\
         device Lamp { action light; }\n",
    );
    assert!(!parse_diags.has_errors(), "{parse_diags:?}");
    let (_, diags) = diaspec_core::check::check(&ast);
    let message = |code: &str| {
        diags
            .iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("{code} not reported: {diags:?}"))
            .message
            .clone()
    };
    assert_eq!(
        message("E0251"),
        "@qos argument `latencyMs` must be a positive integer, got `0`"
    );
    assert_eq!(
        message("W0307"),
        "unknown @qos argument `colour` (known: latencyMs, periodMs, priority, capacityPerHour)"
    );
}

/// W0305 states what the engine does with a window that is not a whole
/// number of periods: it closes every window at the next poll, so a
/// 25-minute window over 10-minute polls fires every 30 minutes.
#[test]
fn window_period_message_states_the_runtime_cadence() {
    let spec = "device Meter { attribute home as String; source reading as Float; }\n\
                device K { action a; }\n\
                context Usage as Float[] {\n\
                  when periodic reading from Meter <10 min> grouped by home every <25 min>\n\
                  always publish;\n\
                }\n\
                controller Out { when provided Usage do a on K; }\n";
    let (_, warnings) = diaspec_core::compile_str_with_warnings(spec).unwrap();
    let w0305 = warnings.find("W0305").expect("W0305 reported");
    assert_eq!(
        w0305.message,
        "aggregation window (1500000 ms) is not a multiple of the delivery period (600000 ms); \
         every window stretches to the next poll, so the context is activated every 1800000 ms"
    );
}
