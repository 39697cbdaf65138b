//! The `lint` driver: whole-design diagnostics with configurable levels
//! and machine-readable output.
//!
//! Linting a specification runs the full pipeline — parse, check, and
//! every [`diaspec_core::analysis`] pass — and renders the combined
//! diagnostics one of three ways:
//!
//! - **human** — source-line + caret rendering (the compiler style);
//! - **json** — a stable object per diagnostic for scripting;
//! - **sarif** — a SARIF 2.1.0 log for code-scanning UIs.
//!
//! Severities are policy, not fact: `--deny warnings` promotes every
//! warning to an error, and per-code overrides (`--allow W0403`,
//! `--deny W0401`, `--warn E0401`) pick individual rules out, with the
//! per-code setting winning over the blanket flag — the same layering as
//! `rustc -D warnings -A some_lint`.
//!
//! [`lint_designs`] lints one specification or several together. Each
//! file is linted exactly as it would be alone; given several files (or
//! any `--manifest`), [`analyze_deployment`] then runs over the merged
//! device taxonomy (plus the manifests' deployment pins and link budgets)
//! and the cross-application findings — E0601/W0601 conflicts, W0602
//! aggregate capacity, E0602 cut safety — render in a trailing
//! cross-design section whose positions name the file they point into.
//!
//! Actuation conflicts come from one pass over a universe of designs
//! (`diaspec_core::analysis::conflicts`, one guarantee rule): a file's
//! own pairs (E0401/W0401, in its section) are that pass over the one
//! design, which [`analyze_with`] runs; pairs across files (E0601/W0601,
//! in the cross-design section) are the same pass over all of them,
//! which [`analyze_deployment`] runs and of which it keeps only the
//! cross-design pairs. So splitting a design into files changes a
//! conflict's code, not its severity. Budgets work the same way
//! (`diaspec_core::analysis::rates`, one budget pass): a family one file
//! overloads alone is W0407 in its section, and W0602 is an overload
//! only the files together reach.
//!
//! Every finding is a [`Diagnostic`] whose locations index the run's
//! files, and each format has one renderer; the only difference between
//! a file's section and the cross-design section is that a cross-design
//! position names its file.

use crate::deploy::NodeManifest;
use diaspec_core::analysis::deployment::{analyze_deployment, DeployPins, DesignRef, PinnedHost};
use diaspec_core::analysis::{analyze_with, AnalysisOptions, CapacityReport};
use diaspec_core::diag::{Diagnostic, Severity};
use diaspec_core::model::CheckedSpec;
use diaspec_core::span::{Loc, MultiSourceMap};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Effective level for one diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// Drop the diagnostic entirely.
    Allow,
    /// Report as a warning (does not fail the lint).
    Warn,
    /// Report as an error (fails the lint).
    Deny,
}

/// Output format of [`lint_designs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintFormat {
    /// Caret diagnostics for terminals.
    #[default]
    Human,
    /// One JSON object for the whole run.
    Json,
    /// A SARIF 2.1.0 log.
    Sarif,
}

/// Configuration of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Output format.
    pub format: LintFormat,
    /// Promote all warnings without a per-code override to errors.
    pub deny_warnings: bool,
    /// Per-code overrides; these win over `deny_warnings`.
    pub levels: BTreeMap<String, LintLevel>,
    /// Fleet-size hypothesis forwarded to the capacity report.
    pub fleet_size: Option<u64>,
    /// Append the static capacity report to human output.
    pub capacity: bool,
}

/// The result of linting one specification (or one co-deployment).
#[derive(Debug, Clone)]
pub struct LintOutcome {
    /// The formatted output, ready to print.
    pub rendered: String,
    /// Diagnostics that ended up error-severity after level mapping.
    pub errors: usize,
    /// Diagnostics that ended up warning-severity.
    pub warnings: usize,
    /// Whether some input failed to parse or check — there was no model
    /// to analyze. Callers exit distinctly (3, not 2) on this.
    pub broken: bool,
}

impl LintOptions {
    /// The analysis options of a run: the `--fleet` hypothesis, or the
    /// analysis default.
    fn analysis(&self) -> AnalysisOptions {
        AnalysisOptions {
            fleet_size: self
                .fleet_size
                .unwrap_or(AnalysisOptions::default().fleet_size),
        }
    }
}

impl LintOutcome {
    /// Whether the lint should exit non-zero.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.errors > 0
    }
}

/// The diagnostics of one output section after the severity policy,
/// with their counts.
#[derive(Default)]
struct Section {
    kept: Vec<Diagnostic>,
    errors: usize,
    warnings: usize,
}

impl Section {
    /// Applies the severity policy to `raw`: per-code overrides first,
    /// then `--deny warnings`; allowed codes are dropped.
    fn keep(options: &LintOptions, raw: impl IntoIterator<Item = Diagnostic>) -> Self {
        let mut section = Section::default();
        for mut diag in raw {
            diag.severity = match options.levels.get(diag.code) {
                Some(LintLevel::Allow) => continue,
                Some(LintLevel::Warn) => Severity::Warning,
                Some(LintLevel::Deny) => Severity::Error,
                None if options.deny_warnings => Severity::Error,
                None => diag.severity,
            };
            match diag.severity {
                Severity::Error => section.errors += 1,
                Severity::Warning => section.warnings += 1,
            }
            section.kept.push(diag);
        }
        section
    }
}

/// One linted file: its section, plus the model and capacity report
/// when the front end produced a model.
struct FileLint {
    section: Section,
    capacity: Option<CapacityReport>,
    spec: Option<CheckedSpec>,
}

/// Runs the front end plus every single-design analysis pass over file
/// `file` of the run and applies the severity policy.
fn lint_one(file: usize, source: &str, options: &LintOptions) -> FileLint {
    let (raw, capacity, spec) = match diaspec_core::compile_str_with_warnings(source) {
        Ok((spec, warnings)) => {
            let report = analyze_with(&spec, &options.analysis());
            let mut diags: Vec<Diagnostic> = warnings.into_iter().collect();
            diags.extend(report.diagnostics);
            (diags, Some(report.capacity), Some(spec))
        }
        Err(error) => (error.diagnostics().iter().cloned().collect(), None, None),
    };
    let raw = raw.into_iter().map(|d| d.relocate(|at| Loc { file, ..at }));
    FileLint {
        section: Section::keep(options, raw),
        capacity,
        spec,
    }
}

/// The display name of a design, from its file path (the stem).
fn design_name(file: &str) -> String {
    std::path::Path::new(file)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| file.to_owned())
}

/// Reduces a deployment manifest to the device pins, with each edge's
/// link budget, that the cross-design passes consume.
fn manifest_pins(manifest: &NodeManifest, design: usize, origin: &str) -> DeployPins {
    let mut families: BTreeMap<String, Vec<PinnedHost>> = BTreeMap::new();
    for device in &manifest.coordinator.devices {
        families
            .entry(device.clone())
            .or_default()
            .push(PinnedHost {
                node: manifest.coordinator.name.clone(),
                addr: None,
                variants: Vec::new(),
                link_msgs_per_hour: None,
            });
    }
    for edge in &manifest.edges {
        for device in &edge.devices {
            families
                .entry(device.clone())
                .or_default()
                .push(PinnedHost {
                    node: edge.name.clone(),
                    addr: Some(edge.listen.clone()),
                    variants: edge.shards.clone(),
                    link_msgs_per_hour: edge.link.msgs_per_hour,
                });
        }
    }
    DeployPins {
        design,
        origin: origin.to_owned(),
        families,
    }
}

/// The cross-design passes over every linted file (all compiled) and
/// the manifests' pins; a location's file is its design's input index.
fn cross_design(
    inputs: &[(String, String)],
    lints: &[FileLint],
    manifests: &[(String, NodeManifest)],
    options: &LintOptions,
) -> Result<Vec<Diagnostic>, String> {
    let names: Vec<String> = inputs.iter().map(|(file, _)| design_name(file)).collect();
    let designs: Vec<DesignRef<'_>> = lints
        .iter()
        .zip(&names)
        .map(|(lint, name)| DesignRef {
            name,
            spec: lint.spec.as_ref().expect("not broken"),
        })
        .collect();
    let mut pins: Vec<DeployPins> = Vec::new();
    for (path, manifest) in manifests {
        let design = names
            .iter()
            .position(|name| *name == manifest.design)
            .ok_or_else(|| {
                format!(
                    "manifest {path} is for design `{}`, which matches none of the linted specs",
                    manifest.design
                )
            })?;
        pins.push(manifest_pins(manifest, design, path));
    }
    let report = analyze_deployment(&designs, &pins, &options.analysis());
    Ok(report.diagnostics.into_iter().collect())
}

/// Lints `inputs` (`(path, source)` pairs; the path is used for
/// reporting only) and renders the outcome according to `options`.
///
/// One input without manifests is a single design: its section is the
/// whole output. Otherwise the cross-design deployment passes run over
/// the whole set (plus any deployment manifests, given as
/// `(path, manifest)` pairs) and a cross-design section follows.
///
/// Parse or check *errors* short-circuit the analysis passes (there is
/// no model to analyze) but still render in the requested format, so a
/// SARIF consumer sees broken designs too; they are reported through the
/// outcome (`broken`). Fails (`Err`) only on configuration problems — a
/// manifest naming a design that matches none of the input file stems.
pub fn lint_designs(
    inputs: &[(String, String)],
    manifests: &[(String, NodeManifest)],
    options: &LintOptions,
) -> Result<LintOutcome, String> {
    let sources = MultiSourceMap::new(inputs.iter().map(|(file, source)| (file.as_str(), source)));
    let lints: Vec<FileLint> = inputs
        .iter()
        .enumerate()
        .map(|(file, (_, source))| lint_one(file, source, options))
        .collect();
    let broken = lints.iter().any(|l| l.spec.is_none());
    let single = inputs.len() == 1 && manifests.is_empty();
    let cross = if broken || single {
        Section::default()
    } else {
        Section::keep(options, cross_design(inputs, &lints, manifests, options)?)
    };
    let errors = lints.iter().map(|l| l.section.errors).sum::<usize>() + cross.errors;
    let warnings = lints.iter().map(|l| l.section.warnings).sum::<usize>() + cross.warnings;

    let rendered = match options.format {
        LintFormat::Human => {
            let mut out = String::new();
            for (lint, (file, _)) in lints.iter().zip(inputs) {
                let section = &lint.section;
                out.push_str(&render_human(&sources, &section.kept, false));
                let _ = writeln!(
                    out,
                    "{file}: {} error(s), {} warning(s)",
                    section.errors, section.warnings
                );
                if let Some(capacity) = lint.capacity.as_ref().filter(|_| options.capacity) {
                    let _ = writeln!(out, "{capacity}");
                }
            }
            if !single {
                if broken {
                    let _ = writeln!(
                        out,
                        "cross-design passes skipped: a design failed to compile"
                    );
                } else {
                    out.push_str(&render_human(&sources, &cross.kept, true));
                    let _ = writeln!(
                        out,
                        "cross-design: {} error(s), {} warning(s)",
                        cross.errors, cross.warnings
                    );
                }
                let _ = writeln!(out, "total: {errors} error(s), {warnings} warning(s)");
            }
            out
        }
        LintFormat::Json => {
            let mut files = lints.iter().zip(inputs).map(|(lint, (file, _))| {
                let mut entries = vec![("file".to_owned(), Value::String(file.clone()))];
                entries.extend(json_section(&sources, &lint.section, false));
                Value::Object(entries)
            });
            let log = if single {
                files.next().expect("one input")
            } else {
                Value::Object(vec![
                    ("files".to_owned(), Value::Array(files.collect())),
                    (
                        "cross".to_owned(),
                        Value::Object(json_section(&sources, &cross, true)),
                    ),
                    ("errors".to_owned(), Value::UInt(errors as u64)),
                    ("warnings".to_owned(), Value::UInt(warnings as u64)),
                ])
            };
            serde_json::to_string_pretty(&log).expect("lint JSON serializes")
        }
        LintFormat::Sarif => {
            let all = lints
                .iter()
                .flat_map(|l| &l.section.kept)
                .chain(&cross.kept);
            serde_json::to_string_pretty(&sarif_log(&sources, all)).expect("lint SARIF serializes")
        }
    };

    Ok(LintOutcome {
        rendered,
        errors,
        warnings,
        broken,
    })
}

/// The human format of a section: each diagnostic in the compiler
/// style, one after the other.
fn render_human(sources: &MultiSourceMap, kept: &[Diagnostic], named: bool) -> String {
    let mut out = String::new();
    for diag in kept {
        out.push_str(&diag.render(sources, named));
        out.push('\n');
    }
    out
}

/// A section's counts and diagnostics as JSON members; a position
/// carries a `file` member when `named`.
fn json_section(sources: &MultiSourceMap, section: &Section, named: bool) -> Vec<(String, Value)> {
    let locate = |at: Loc| {
        let (file, map, span) = sources.resolve(at);
        let pos = map.line_col(span.start);
        let mut entries = Vec::new();
        if named {
            entries.push(("file".to_owned(), Value::String(file.to_owned())));
        }
        entries.push(("line".to_owned(), Value::UInt(u64::from(pos.line))));
        entries.push(("column".to_owned(), Value::UInt(u64::from(pos.col))));
        entries
    };
    let items: Vec<Value> = section
        .kept
        .iter()
        .map(|diag| {
            let notes: Vec<Value> = diag
                .notes
                .iter()
                .map(|(message, at)| {
                    let mut entries = vec![("message".to_owned(), Value::String(message.clone()))];
                    entries.extend(at.map(locate).unwrap_or_default());
                    Value::Object(entries)
                })
                .collect();
            let mut entries = vec![
                ("code".to_owned(), Value::String(diag.code.to_owned())),
                ("level".to_owned(), Value::String(diag.severity.to_string())),
                ("message".to_owned(), Value::String(diag.message.clone())),
            ];
            entries.extend(locate(diag.at));
            entries.push(("notes".to_owned(), Value::Array(notes)));
            Value::Object(entries)
        })
        .collect();
    vec![
        ("errors".to_owned(), Value::UInt(section.errors as u64)),
        ("warnings".to_owned(), Value::UInt(section.warnings as u64)),
        ("diagnostics".to_owned(), Value::Array(items)),
    ]
}

/// A SARIF physical location, optionally wrapped with a message (for
/// `relatedLocations` entries).
fn sarif_location(sources: &MultiSourceMap, at: Loc, message: Option<&str>) -> Value {
    let (file, map, span) = sources.resolve(at);
    let (start, end) = (map.line_col(span.start), map.line_col(span.end));
    let region = vec![
        ("startLine".to_owned(), Value::UInt(u64::from(start.line))),
        ("startColumn".to_owned(), Value::UInt(u64::from(start.col))),
        ("endLine".to_owned(), Value::UInt(u64::from(end.line))),
        ("endColumn".to_owned(), Value::UInt(u64::from(end.col))),
    ];
    let mut entries = vec![(
        "physicalLocation".to_owned(),
        Value::Object(vec![
            (
                "artifactLocation".to_owned(),
                Value::Object(vec![("uri".to_owned(), Value::String(file.to_owned()))]),
            ),
            ("region".to_owned(), Value::Object(region)),
        ]),
    )];
    if let Some(text) = message {
        entries.push((
            "message".to_owned(),
            Value::Object(vec![("text".to_owned(), Value::String(text.to_owned()))]),
        ));
    }
    Value::Object(entries)
}

/// Builds a minimal but valid SARIF 2.1.0 log: one run, one rule entry
/// per distinct code, one result per diagnostic. Notes *with* a location
/// become navigable `relatedLocations`; location-less notes (provenance
/// chains) fold into the message text, which every viewer shows.
fn sarif_log<'a>(
    sources: &MultiSourceMap,
    diags: impl Iterator<Item = &'a Diagnostic> + Clone,
) -> Value {
    let mut rule_ids: Vec<&str> = diags.clone().map(|d| d.code).collect();
    rule_ids.sort_unstable();
    rule_ids.dedup();
    let rules: Vec<Value> = rule_ids
        .iter()
        .map(|id| Value::Object(vec![("id".to_owned(), Value::String((*id).to_owned()))]))
        .collect();

    let mut results: Vec<Value> = Vec::new();
    for diag in diags {
        let mut text = diag.message.clone();
        let mut related: Vec<Value> = Vec::new();
        for (note, at) in &diag.notes {
            match at {
                Some(at) => related.push(sarif_location(sources, *at, Some(note))),
                None => {
                    text.push_str("\nnote: ");
                    text.push_str(note);
                }
            }
        }
        let mut entries = vec![
            ("ruleId".to_owned(), Value::String(diag.code.to_owned())),
            ("level".to_owned(), Value::String(diag.severity.to_string())),
            (
                "message".to_owned(),
                Value::Object(vec![("text".to_owned(), Value::String(text))]),
            ),
            (
                "locations".to_owned(),
                Value::Array(vec![sarif_location(sources, diag.at, None)]),
            ),
        ];
        if !related.is_empty() {
            entries.push(("relatedLocations".to_owned(), Value::Array(related)));
        }
        results.push(Value::Object(entries));
    }

    Value::Object(vec![
        (
            "$schema".to_owned(),
            Value::String("https://json.schemastore.org/sarif-2.1.0.json".to_owned()),
        ),
        ("version".to_owned(), Value::String("2.1.0".to_owned())),
        (
            "runs".to_owned(),
            Value::Array(vec![Value::Object(vec![
                (
                    "tool".to_owned(),
                    Value::Object(vec![(
                        "driver".to_owned(),
                        Value::Object(vec![
                            ("name".to_owned(), Value::String("diaspec-lint".to_owned())),
                            (
                                "informationUri".to_owned(),
                                Value::String("https://github.com/diaspec/diaspec".to_owned()),
                            ),
                            ("rules".to_owned(), Value::Array(rules)),
                        ]),
                    )]),
                ),
                ("results".to_owned(), Value::Array(results)),
            ])]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONFLICT: &str = r#"
        device Probe { source v as Integer; }
        device Valve { action close; }
        context Hot as Integer { when provided v from Probe always publish; }
        controller A { when provided Hot do close on Valve; }
        controller B { when provided Hot do close on Valve; }
    "#;

    const LOOPY: &str = r#"
        device Heater { source temperature as Float; action heat; }
        context Cold as Float { when provided temperature from Heater always publish; }
        controller Thermostat { when provided Cold do heat on Heater; }
    "#;

    /// One input without manifests: the single-design case.
    fn lint_alone(file: &str, source: &str, options: &LintOptions) -> LintOutcome {
        lint_designs(&[(file.to_owned(), source.to_owned())], &[], options).unwrap()
    }

    #[test]
    fn human_output_renders_carets_and_summary() {
        let outcome = lint_alone("x.spec", CONFLICT, &LintOptions::default());
        assert_eq!(outcome.errors, 1);
        assert!(outcome.failed());
        assert!(!outcome.broken);
        assert!(outcome.rendered.contains("error[E0401]"));
        assert!(outcome.rendered.contains("^"), "{}", outcome.rendered);
        assert!(outcome
            .rendered
            .contains("x.spec: 1 error(s), 0 warning(s)"));
    }

    #[test]
    fn deny_warnings_promotes() {
        let outcome = lint_alone(
            "x.spec",
            LOOPY,
            &LintOptions {
                deny_warnings: true,
                ..LintOptions::default()
            },
        );
        assert!(outcome.failed());
        assert!(outcome.rendered.contains("error[W0402]"));
    }

    #[test]
    fn per_code_override_wins_over_blanket() {
        let mut levels = BTreeMap::new();
        levels.insert("W0402".to_owned(), LintLevel::Warn);
        let outcome = lint_alone(
            "x.spec",
            LOOPY,
            &LintOptions {
                deny_warnings: true,
                levels,
                ..LintOptions::default()
            },
        );
        assert!(!outcome.failed());
        assert_eq!(outcome.warnings, 1);
    }

    #[test]
    fn allow_drops_the_diagnostic() {
        let mut levels = BTreeMap::new();
        levels.insert("W0402".to_owned(), LintLevel::Allow);
        let outcome = lint_alone(
            "x.spec",
            LOOPY,
            &LintOptions {
                levels,
                ..LintOptions::default()
            },
        );
        assert_eq!(outcome.errors + outcome.warnings, 0);
        assert!(!outcome.failed());
    }

    #[test]
    fn json_format_is_parseable_and_located() {
        let outcome = lint_alone(
            "x.spec",
            CONFLICT,
            &LintOptions {
                format: LintFormat::Json,
                ..LintOptions::default()
            },
        );
        let value: Value = serde_json::from_str(&outcome.rendered).unwrap();
        assert_eq!(value.get("file").and_then(Value::as_str), Some("x.spec"));
        assert_eq!(value.get("errors").and_then(Value::as_u64), Some(1));
        let diags = value.get("diagnostics").and_then(Value::as_array).unwrap();
        assert_eq!(diags[0].get("code").and_then(Value::as_str), Some("E0401"));
        // The span points at the first `do` clause, not 1:1.
        assert!(diags[0].get("line").and_then(Value::as_u64).unwrap() > 1);
    }

    #[test]
    fn sarif_log_has_required_shape() {
        let outcome = lint_alone(
            "x.spec",
            CONFLICT,
            &LintOptions {
                format: LintFormat::Sarif,
                ..LintOptions::default()
            },
        );
        let value: Value = serde_json::from_str(&outcome.rendered).unwrap();
        assert_eq!(value.get("version").and_then(Value::as_str), Some("2.1.0"));
        assert!(value
            .get("$schema")
            .and_then(Value::as_str)
            .unwrap()
            .contains("sarif-2.1.0"));
        let run = &value.get("runs").and_then(Value::as_array).unwrap()[0];
        let driver = run.get("tool").and_then(|t| t.get("driver")).unwrap();
        assert_eq!(
            driver.get("name").and_then(Value::as_str),
            Some("diaspec-lint")
        );
        let results = run.get("results").and_then(Value::as_array).unwrap();
        let result = &results[0];
        assert_eq!(result.get("ruleId").and_then(Value::as_str), Some("E0401"));
        assert_eq!(result.get("level").and_then(Value::as_str), Some("error"));
        let region = result.get("locations").and_then(Value::as_array).unwrap()[0]
            .get("physicalLocation")
            .and_then(|l| l.get("region"))
            .unwrap();
        assert!(region.get("startLine").and_then(Value::as_u64).unwrap() > 1);
        // Provenance chains ride along in the message text.
        let text = result
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Value::as_str)
            .unwrap();
        assert!(text.contains("actuation chain"), "{text}");
    }

    #[test]
    fn sarif_spanned_notes_become_related_locations() {
        let outcome = lint_alone(
            "x.spec",
            CONFLICT,
            &LintOptions {
                format: LintFormat::Sarif,
                ..LintOptions::default()
            },
        );
        let value: Value = serde_json::from_str(&outcome.rendered).unwrap();
        let result = &value.get("runs").and_then(Value::as_array).unwrap()[0]
            .get("results")
            .and_then(Value::as_array)
            .unwrap()[0];
        // The "conflicting `do` clause here" note has a span, so it is a
        // navigable related location rather than message text.
        let related = result
            .get("relatedLocations")
            .and_then(Value::as_array)
            .expect("conflict results carry relatedLocations");
        assert_eq!(related.len(), 1);
        let message = related[0]
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Value::as_str)
            .unwrap();
        assert!(message.contains("conflicting `do` clause"), "{message}");
        let uri = related[0]
            .get("physicalLocation")
            .and_then(|l| l.get("artifactLocation"))
            .and_then(|l| l.get("uri"))
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(uri, "x.spec");
        let text = result
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Value::as_str)
            .unwrap();
        assert!(!text.contains("conflicting `do` clause"), "{text}");
    }

    #[test]
    fn broken_specs_still_render_in_sarif() {
        let outcome = lint_alone(
            "x.spec",
            "device { }",
            &LintOptions {
                format: LintFormat::Sarif,
                ..LintOptions::default()
            },
        );
        assert!(outcome.failed());
        assert!(outcome.broken);
        let value: Value = serde_json::from_str(&outcome.rendered).unwrap();
        assert!(!value.get("runs").and_then(Value::as_array).unwrap()[0]
            .get("results")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn capacity_report_appended_on_request() {
        let outcome = lint_alone(
            "x.spec",
            r#"
            device Meter { source reading as Float; }
            device K { action a; }
            context Usage as Float { when periodic reading from Meter <1 min> always publish; }
            controller Out { when provided Usage do a on K; }
            "#,
            &LintOptions {
                capacity: true,
                fleet_size: Some(100),
                ..LintOptions::default()
            },
        );
        assert!(outcome.rendered.contains("capacity report"));
        assert!(outcome.rendered.contains("fleet hypothesis: 100"));
    }

    // ---- multi-design lint --------------------------------------------------

    const SHARED_A: &str = r#"
        device Sensor { source motion as Boolean; }
        device Lamp { action lit; }
        context Presence as Boolean { when provided motion from Sensor always publish; }
        controller Comfort { when provided Presence do lit on Lamp; }
    "#;

    const SHARED_B: &str = r#"
        device Sensor { source motion as Boolean; }
        device Lamp { action lit; }
        context Intrusion as Boolean { when provided motion from Sensor always publish; }
        controller Patrol { when provided Intrusion do lit on Lamp; }
    "#;

    fn pair() -> Vec<(String, String)> {
        vec![
            ("a.spec".to_owned(), SHARED_A.to_owned()),
            ("b.spec".to_owned(), SHARED_B.to_owned()),
        ]
    }

    #[test]
    fn multi_design_lint_reports_cross_conflicts() {
        let outcome = lint_designs(&pair(), &[], &LintOptions::default()).unwrap();
        assert!(outcome.failed());
        assert!(!outcome.broken);
        assert_eq!(outcome.errors, 1);
        let rendered = &outcome.rendered;
        assert!(rendered.contains("error[E0601]"), "{rendered}");
        // Both per-file sections and the cross section are present,
        // with spans attributed to their files.
        assert!(rendered.contains("a.spec: 0 error(s), 0 warning(s)"));
        assert!(rendered.contains("b.spec: 0 error(s), 0 warning(s)"));
        assert!(rendered.contains("at a.spec:"), "{rendered}");
        assert!(rendered.contains("at b.spec:"), "{rendered}");
        assert!(rendered.contains("cross-design: 1 error(s), 0 warning(s)"));
        assert!(rendered.contains("total: 1 error(s), 0 warning(s)"));
        assert!(rendered.contains("first actuation chain (a)"), "{rendered}");
        assert!(
            rendered.contains("second actuation chain (b)"),
            "{rendered}"
        );
    }

    #[test]
    fn cross_findings_obey_the_severity_policy() {
        let mut levels = BTreeMap::new();
        levels.insert("E0601".to_owned(), LintLevel::Allow);
        let outcome = lint_designs(
            &pair(),
            &[],
            &LintOptions {
                levels,
                ..LintOptions::default()
            },
        )
        .unwrap();
        assert!(!outcome.failed());
        assert!(outcome
            .rendered
            .contains("cross-design: 0 error(s), 0 warning(s)"));
    }

    #[test]
    fn multi_design_json_has_files_and_cross_sections() {
        let outcome = lint_designs(
            &pair(),
            &[],
            &LintOptions {
                format: LintFormat::Json,
                ..LintOptions::default()
            },
        )
        .unwrap();
        let value: Value = serde_json::from_str(&outcome.rendered).unwrap();
        let files = value.get("files").and_then(Value::as_array).unwrap();
        assert_eq!(files.len(), 2);
        let cross = value.get("cross").unwrap();
        assert_eq!(cross.get("errors").and_then(Value::as_u64), Some(1));
        let diags = cross.get("diagnostics").and_then(Value::as_array).unwrap();
        assert_eq!(diags[0].get("code").and_then(Value::as_str), Some("E0601"));
        assert_eq!(diags[0].get("file").and_then(Value::as_str), Some("a.spec"));
        assert_eq!(value.get("errors").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn multi_design_sarif_relates_across_files() {
        let outcome = lint_designs(
            &pair(),
            &[],
            &LintOptions {
                format: LintFormat::Sarif,
                ..LintOptions::default()
            },
        )
        .unwrap();
        let value: Value = serde_json::from_str(&outcome.rendered).unwrap();
        let results = value.get("runs").and_then(Value::as_array).unwrap()[0]
            .get("results")
            .and_then(Value::as_array)
            .unwrap();
        let cross = results
            .iter()
            .find(|r| r.get("ruleId").and_then(Value::as_str) == Some("E0601"))
            .expect("E0601 result");
        let primary_uri = cross.get("locations").and_then(Value::as_array).unwrap()[0]
            .get("physicalLocation")
            .and_then(|l| l.get("artifactLocation"))
            .and_then(|l| l.get("uri"))
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(primary_uri, "a.spec");
        let related_uri = cross
            .get("relatedLocations")
            .and_then(Value::as_array)
            .unwrap()[0]
            .get("physicalLocation")
            .and_then(|l| l.get("artifactLocation"))
            .and_then(|l| l.get("uri"))
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(related_uri, "b.spec");
    }

    #[test]
    fn broken_design_skips_cross_passes() {
        let inputs = vec![
            ("a.spec".to_owned(), SHARED_A.to_owned()),
            ("b.spec".to_owned(), "device { }".to_owned()),
        ];
        let outcome = lint_designs(&inputs, &[], &LintOptions::default()).unwrap();
        assert!(outcome.broken);
        assert!(outcome.failed());
        assert!(outcome.rendered.contains("cross-design passes skipped"));
    }

    #[test]
    fn an_error_at_the_end_of_a_file_stays_in_that_file() {
        // `a.spec` ends in a newline and leaves a declaration open: the
        // parser reports at its end, which is where `b.spec` starts in
        // the run's concatenation.
        let inputs = vec![
            ("a.spec".to_owned(), "device Foo {\n".to_owned()),
            (
                "b.spec".to_owned(),
                "device Bar { action ring; }\n".to_owned(),
            ),
        ];
        let human = lint_designs(&inputs, &[], &LintOptions::default()).unwrap();
        let (a_section, b_section) = human.rendered.split_once("a.spec: 1 error(s)").unwrap();
        assert!(a_section.contains("error[E0101]"), "{}", human.rendered);
        assert!(a_section.contains(" at 2:1\n"), "{}", human.rendered);
        assert!(!a_section.contains("device Bar"), "{}", human.rendered);
        assert!(
            b_section.contains("b.spec: 0 error(s)"),
            "{}",
            human.rendered
        );

        let sarif = lint_designs(
            &inputs,
            &[],
            &LintOptions {
                format: LintFormat::Sarif,
                ..LintOptions::default()
            },
        )
        .unwrap();
        let value: Value = serde_json::from_str(&sarif.rendered).unwrap();
        let results = value.get("runs").and_then(Value::as_array).unwrap()[0]
            .get("results")
            .and_then(Value::as_array)
            .unwrap();
        let error = results
            .iter()
            .find(|r| r.get("ruleId").and_then(Value::as_str) == Some("E0101"))
            .unwrap();
        let location = error.get("locations").and_then(Value::as_array).unwrap()[0]
            .get("physicalLocation")
            .unwrap();
        let uri = location
            .get("artifactLocation")
            .and_then(|l| l.get("uri"))
            .and_then(Value::as_str);
        assert_eq!(uri, Some("a.spec"));
        let line = location
            .get("region")
            .and_then(|r| r.get("startLine"))
            .and_then(Value::as_u64);
        assert_eq!(line, Some(2));
    }

    fn manifest_for(design: &str) -> NodeManifest {
        let json = format!(
            r#"{{
                "design": "{design}",
                "shard": {{"enumeration": "E", "attributes": []}},
                "coordinator": {{
                    "name": "coordinator",
                    "components": [],
                    "devices": ["Lamp"]
                }},
                "edges": [{{
                    "name": "edge0",
                    "listen": "127.0.0.1:7070",
                    "devices": ["Sensor"],
                    "shards": []
                }}],
                "cut_routes": []
            }}"#
        );
        NodeManifest::from_json(&json).unwrap()
    }

    #[test]
    fn unmatched_manifest_is_a_configuration_error() {
        let error = lint_designs(
            &pair(),
            &[("m.json".to_owned(), manifest_for("zeta"))],
            &LintOptions::default(),
        )
        .unwrap_err();
        assert!(error.contains("matches none"), "{error}");
        assert!(error.contains("m.json"), "{error}");
    }

    #[test]
    fn conflicting_manifest_pins_surface_as_cut_violations() {
        let mut security = manifest_for("b");
        security.edges[0].listen = "127.0.0.1:9090".to_owned();
        let mut levels = BTreeMap::new();
        levels.insert("E0601".to_owned(), LintLevel::Allow);
        let outcome = lint_designs(
            &pair(),
            &[
                ("a.json".to_owned(), manifest_for("a")),
                ("b.json".to_owned(), security),
            ],
            &LintOptions {
                levels,
                ..LintOptions::default()
            },
        )
        .unwrap();
        assert!(
            outcome.rendered.contains("error[E0602]"),
            "{}",
            outcome.rendered
        );
        assert!(outcome.failed());
    }
}
