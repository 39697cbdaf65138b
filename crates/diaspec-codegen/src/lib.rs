//! # diaspec-codegen — the design compiler
//!
//! Paper §V: *"our approach provides the developer with a design compiler
//! that generates an application framework tailored to a given application
//! design"*. This crate is that compiler, reproduced in Rust, with two
//! backends:
//!
//! - [`generate_rust`] emits a typed Rust framework module targeting the
//!   `diaspec-runtime` component traits — abstract component traits per
//!   context/controller, typed `get`/`do` facades, typed MapReduce
//!   interfaces, and `ValueCodec` data types. The case-study applications
//!   in this repository are implemented against these generated modules.
//! - [`generate_java`] emits the Java framework matching the paper's
//!   Figures 9–11 (`AbstractAlert`, `MapReduce<K1..V3>`,
//!   `whereLocation(...)` composites), demonstrating the language
//!   independence claimed in §V.
//!
//! [`metrics`] measures the generated code (experiment E9: the "up to 80%
//! generated code" claim of TSE'12 \[8\]).
//!
//! ## Example
//!
//! ```
//! use diaspec_core::compile_str;
//! use diaspec_codegen::{generate_rust, generate_java};
//!
//! let spec = compile_str(r#"
//!     device Clock { source tickSecond as Integer; }
//!     device Siren { action wail; }
//!     context Overdue as Integer { when provided tickSecond from Clock maybe publish; }
//!     controller Alarm { when provided Overdue do wail on Siren; }
//! "#)?;
//! let rust = generate_rust(&spec);
//! assert!(rust.file("framework.rs").unwrap().content.contains("pub trait OverdueImpl"));
//! let java = generate_java(&spec);
//! assert!(java.file("AbstractOverdue.java").is_some());
//! # Ok::<(), diaspec_core::diag::CompileError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod deploy;
pub mod dot;
mod emitter;
pub mod java;
pub mod lint;
pub mod metrics;
pub mod naming;
pub mod rust;

use diaspec_core::model::CheckedSpec;
use std::fmt;
use std::io;
use std::path::Path;

/// The target language of a generated framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// Rust, targeting the `diaspec-runtime` component traits.
    Rust,
    /// Java, matching the paper's Figures 9–11.
    Java,
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Language::Rust => "Rust",
            Language::Java => "Java",
        })
    }
}

/// One generated source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedFile {
    /// Path relative to the framework root, e.g. `framework.rs` or
    /// `AbstractAlert.java`.
    pub path: String,
    /// Full source text.
    pub content: String,
}

/// A generated programming framework: the design compiler's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedFramework {
    /// The target language.
    pub language: Language,
    /// Generated files in deterministic order.
    pub files: Vec<GeneratedFile>,
}

impl GeneratedFramework {
    /// Finds a generated file by its relative path.
    #[must_use]
    pub fn file(&self, path: &str) -> Option<&GeneratedFile> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Total lines (including blanks and comments) across all files.
    #[must_use]
    pub fn total_lines(&self) -> usize {
        self.files.iter().map(|f| f.content.lines().count()).sum()
    }

    /// Writes every file under `dir`, creating it if needed.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from creating directories or writing
    /// files.
    pub fn write_to(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for file in &self.files {
            std::fs::write(dir.join(&file.path), &file.content)?;
        }
        Ok(())
    }
}

/// Generates the Rust programming framework for a checked design.
#[must_use]
pub fn generate_rust(spec: &CheckedSpec) -> GeneratedFramework {
    GeneratedFramework {
        language: Language::Rust,
        files: vec![GeneratedFile {
            path: "framework.rs".to_owned(),
            content: rust::generate_module(spec),
        }],
    }
}

/// Generates the Rust framework for a design that will be co-deployed
/// with `companions` over one shared device fleet: the header records
/// the companions and the cross-application conflict verdict from
/// [`diaspec_core::analysis::analyze_deployment`].
#[must_use]
pub fn generate_rust_co_deployed(
    design: &str,
    spec: &CheckedSpec,
    companions: &[(String, &CheckedSpec)],
) -> GeneratedFramework {
    use diaspec_core::analysis::{analyze, analyze_deployment, AnalysisOptions, DesignRef};
    let mut designs = vec![DesignRef { name: design, spec }];
    designs.extend(
        companions
            .iter()
            .map(|(name, spec)| DesignRef { name, spec }),
    );
    let analyses: Vec<_> = designs.iter().map(|d| analyze(d.spec)).collect();
    let analyses: Vec<_> = analyses.iter().collect();
    let report = analyze_deployment(&designs, &analyses, &[], &AnalysisOptions::default());
    let banner = rust::MultiAppBanner {
        companions: companions.iter().map(|(name, _)| name.clone()).collect(),
        conflict_free: report.conflict_free(),
    };
    GeneratedFramework {
        language: Language::Rust,
        files: vec![GeneratedFile {
            path: "framework.rs".to_owned(),
            content: rust::generate_module_with(spec, Some(&banner)),
        }],
    }
}

/// Generates the Java programming framework for a checked design
/// (paper Figures 9–11).
#[must_use]
pub fn generate_java(spec: &CheckedSpec) -> GeneratedFramework {
    GeneratedFramework {
        language: Language::Java,
        files: java::generate_files(spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_core::compile_str;

    const SPEC: &str = r#"
        device Sensor { source v as Integer; }
        device Sink { action absorb(level as Integer); }
        context C as Integer { when provided v from Sensor always publish; }
        controller Out { when provided C do absorb on Sink; }
    "#;

    #[test]
    fn frameworks_have_expected_languages_and_files() {
        let spec = compile_str(SPEC).unwrap();
        let rust = generate_rust(&spec);
        assert_eq!(rust.language, Language::Rust);
        assert_eq!(rust.files.len(), 1);
        assert!(rust.total_lines() > 50);
        let java = generate_java(&spec);
        assert_eq!(java.language, Language::Java);
        assert!(java.files.len() >= 5);
        assert!(java.file("AbstractC.java").is_some());
        assert!(java.file("Missing.java").is_none());
    }

    #[test]
    fn write_to_creates_files() {
        let spec = compile_str(SPEC).unwrap();
        let dir = std::env::temp_dir().join("diaspec-codegen-test-write");
        let _ = std::fs::remove_dir_all(&dir);
        generate_java(&spec).write_to(&dir).unwrap();
        assert!(dir.join("AbstractOut.java").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn language_display() {
        assert_eq!(Language::Rust.to_string(), "Rust");
        assert_eq!(Language::Java.to_string(), "Java");
    }
}
