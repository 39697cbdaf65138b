//! # diaspec-core — the DiaSpec design language
//!
//! This crate implements the domain-specific *design* language of
//! **"Internet of Things: From Small- to Large-Scale Orchestration"**
//! (Consel & Kabáč, ICDCS 2017): a declarative notation for IoT
//! applications following the Sense-Compute-Control (SCC) paradigm.
//!
//! A specification declares:
//!
//! - **devices** — abstractions over heterogeneous entities, with
//!   `attribute`s (for discovery), `source`s (sensing facets) and
//!   `action`s (actuating facets), related by `extends` inheritance;
//! - **contexts** — computation components that turn raw data into
//!   actionable information, activated event-driven (`when provided`),
//!   periodically (`when periodic … <10 min>`) or on demand
//!   (`when required`), optionally partitioning mass sensor data
//!   (`grouped by … with map as … reduce as …`);
//! - **controllers** — effect components triggered by context
//!   publications, issuing device actions (`do … on …`);
//! - **structures** and **enumerations** — application data types.
//!
//! The pipeline is: [`parser::parse`] → [`check::check`] →
//! [`model::CheckedSpec`], with [`compile_str`] as the one-shot entry
//! point. A `CheckedSpec` feeds the `diaspec-codegen` framework generator
//! and the `diaspec-runtime` orchestrator.
//!
//! ## Example
//!
//! ```
//! use diaspec_core::compile_str;
//!
//! let model = compile_str(r#"
//!     device Cooker { source consumption as Float; action Off; }
//!     device Clock  { source tickSecond as Integer; }
//!     device TvPrompter {
//!       source answer as String indexed by questionId as String;
//!       action askQuestion(question as String);
//!     }
//!     context Alert as Integer {
//!       when provided tickSecond from Clock
//!         get consumption from Cooker
//!         maybe publish;
//!     }
//!     controller Notify { when provided Alert do askQuestion on TvPrompter; }
//!     context RemoteTurnOff as Boolean {
//!       when provided answer from TvPrompter
//!         get consumption from Cooker
//!         maybe publish;
//!     }
//!     controller TurnOff { when provided RemoteTurnOff do Off on Cooker; }
//! "#)?;
//!
//! assert_eq!(model.contexts().count(), 2);
//! let chains = diaspec_core::chains::functional_chains(&model);
//! assert_eq!(chains.len(), 2); // the two chains of the paper's Figure 3
//! # Ok::<(), diaspec_core::diag::CompileError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod chains;
pub mod check;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod pretty;
pub mod requirements;
pub mod span;
pub mod token;
pub mod types;

pub use diag::{CompileError, Diagnostics};
pub use model::CheckedSpec;

use span::MultiSourceMap;

/// Parses and checks a specification in one step.
///
/// # Errors
///
/// Returns a [`CompileError`] wrapping every diagnostic if the source has
/// lexical, syntactic, or semantic errors. Warnings do not cause failure
/// (inspect them via [`compile_str_with_warnings`] if needed).
///
/// # Examples
///
/// ```
/// let model = diaspec_core::compile_str(
///     "device Clock { source tick as Integer; }",
/// )?;
/// assert!(model.device("Clock").is_some());
/// # Ok::<(), diaspec_core::diag::CompileError>(())
/// ```
pub fn compile_str(source: &str) -> Result<CheckedSpec, CompileError> {
    compile_str_with_warnings(source).map(|(model, _)| model)
}

/// Like [`compile_str`], but also returns the (non-error) diagnostics.
///
/// # Errors
///
/// Returns a [`CompileError`] if the specification contains errors.
pub fn compile_str_with_warnings(source: &str) -> Result<(CheckedSpec, Diagnostics), CompileError> {
    front_end(source)
        .map_err(|diags| CompileError::new(diags, MultiSourceMap::new([("", source)]), false))
}

/// Parses and checks `text`: the model with its warnings, or every
/// diagnostic when there is an error.
fn front_end(text: &str) -> Result<(CheckedSpec, Diagnostics), Diagnostics> {
    let (spec, mut diags) = parser::parse(text);
    if !diags.has_errors() {
        let (model, mut check_diags) = check::check(&spec);
        diags.append(&mut check_diags);
        if let Some(model) = model.filter(|_| !diags.has_errors()) {
            return Ok((model, diags));
        }
    }
    Err(diags)
}

/// Compiles several named specification files together — the paper's
/// §III *taxonomy* usage, where factorized device declarations (a
/// domain's taxonomy file) are shared across application designs.
///
/// Files are concatenated in order and checked as one specification;
/// every location of a diagnostic, notes included, is attributed back to
/// its file of origin.
///
/// # Errors
///
/// Returns a [`CompileError`] (each position naming its file in the
/// rendered report) if the combined specification contains errors.
///
/// # Examples
///
/// ```
/// let taxonomy = "device Clock { source tick as Integer; }
///                 device Siren { action wail; }";
/// let app = "context Overdue as Integer { when provided tick from Clock maybe publish; }
///            controller Alarm { when provided Overdue do wail on Siren; }";
/// let model = diaspec_core::compile_sources([
///     ("home-taxonomy.spec", taxonomy),
///     ("alarm-app.spec", app),
/// ])?;
/// assert_eq!(model.component_count(), 4);
/// # Ok::<(), diaspec_core::diag::CompileError>(())
/// ```
pub fn compile_sources<N, T>(
    files: impl IntoIterator<Item = (N, T)>,
) -> Result<CheckedSpec, CompileError>
where
    N: Into<String>,
    T: AsRef<str>,
{
    let map = MultiSourceMap::new(files);
    front_end(map.text())
        .map(|(model, _)| model)
        .map_err(|diags| CompileError::new(diags, map, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_str_accepts_valid_spec() {
        let model = compile_str("device D { source s as Integer; }").unwrap();
        assert_eq!(model.devices().count(), 1);
    }

    #[test]
    fn compile_str_reports_parse_errors() {
        let err = compile_str("device {").unwrap_err();
        assert!(err.diagnostics().has_errors());
        assert!(err.to_string().contains("error"));
    }

    #[test]
    fn compile_str_reports_check_errors() {
        let err = compile_str("device D extends Ghost { }").unwrap_err();
        assert!(err.diagnostics().find("E0202").is_some());
    }

    #[test]
    fn compile_sources_attributes_errors_to_files() {
        let err = compile_sources([
            ("taxonomy.spec", "device D { source s as Integer; }"),
            (
                "app.spec",
                "context C as Integer { when provided ghost from D always publish; }",
            ),
        ])
        .unwrap_err();
        let report = err.to_string();
        assert!(report.contains("app.spec"), "{report}");
        assert!(err.diagnostics().find("E0221").is_some());
    }

    #[test]
    fn compile_sources_spans_cross_file_references() {
        // The app subscribes to a device declared in the taxonomy file.
        let model = compile_sources([
            (
                "taxonomy.spec",
                "device Sensor { source v as Integer; }\ndevice Sink { action a; }",
            ),
            (
                "app.spec",
                "context C as Integer { when provided v from Sensor always publish; }\n\
                 controller Out { when provided C do a on Sink; }",
            ),
        ])
        .unwrap();
        assert!(model.device("Sensor").is_some());
        assert!(model.controller("Out").is_some());
    }

    #[test]
    fn compile_sources_catches_cross_file_duplicates() {
        let err = compile_sources([
            ("a.spec", "device D { source s as Integer; }"),
            ("b.spec", "device D { source t as Integer; }"),
        ])
        .unwrap_err();
        assert!(err.diagnostics().find("E0201").is_some());
        assert!(err.to_string().contains("b.spec"), "{err}");
    }

    #[test]
    fn warnings_are_observable_but_non_blocking() {
        let (model, diags) = compile_str_with_warnings(
            "device D { source s as Integer; } \
             context C as Integer { when provided s from D always publish; }",
        )
        .unwrap();
        assert!(model.context("C").is_some());
        assert!(diags.find("W0303").is_some(), "unconsumed context warning");
    }
}
