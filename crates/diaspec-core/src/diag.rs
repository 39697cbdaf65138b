//! Diagnostics: the one finding type of the front end, the analyzer,
//! the cross-design passes and §VI infrastructure matching.
//!
//! Every phase reports problems as [`Diagnostic`] values instead of
//! aborting at the first error, so a single run can surface every issue
//! in a specification. Diagnostics carry a stable [`code`] (for example
//! `E0203`) so tests and tooling can match on the *kind* of problem
//! rather than on message text, and every location is a [`Loc`]: a span
//! in one of the run's source files.
//!
//! [`code`]: Diagnostic::code

use crate::span::{Loc, MultiSourceMap, Span};
use std::error::Error;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A style or design concern; compilation still succeeds.
    Warning,
    /// A hard error; no model or code is produced.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A single problem found in a specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error vs. warning.
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `E0104`.
    ///
    /// Code ranges by phase: `E00xx` lexer, `E01xx` parser, `E02xx`/`W02xx`
    /// name resolution and structure, `E03xx`/`W03xx` typing and
    /// SCC-conformance rules, `E04xx`–`E06xx`/`W04xx`–`W06xx` analysis.
    pub code: &'static str,
    /// Human-readable description of the problem.
    pub message: String,
    /// Primary source location.
    pub at: Loc,
    /// Additional context lines (e.g. "first declared here"), each with
    /// an optional second location.
    pub notes: Vec<(String, Option<Loc>)>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    #[must_use]
    pub fn error(code: &'static str, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            at: span.into(),
            notes: Vec::new(),
        }
    }

    /// Creates a warning diagnostic.
    #[must_use]
    pub fn warning(code: &'static str, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            message: message.into(),
            at: span.into(),
            notes: Vec::new(),
        }
    }

    /// Attaches a note, optionally pointing at a second location.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>, span: Option<Span>) -> Self {
        self.notes.push((note.into(), span.map(Loc::from)));
        self
    }

    /// Moves every location of this diagnostic through `f` (into the
    /// file of a run it was found in).
    #[must_use]
    pub fn relocate(mut self, f: impl Fn(Loc) -> Loc) -> Self {
        self.at = f(self.at);
        for (_, at) in &mut self.notes {
            *at = at.map(&f);
        }
        self
    }

    /// Renders this diagnostic in the compiler style: the header, the
    /// primary source line with a caret underline, then each note. A
    /// position names its file when `named` (a finding of a run over
    /// several files).
    #[must_use]
    pub fn render(&self, sources: &MultiSourceMap, named: bool) -> String {
        let mut out = format!("{self} at {}\n", sources.position(self.at, named));
        out.push_str(&sources.snippet(self.at));
        for (note, at) in &self.notes {
            out.push('\n');
            match at {
                Some(at) => {
                    out.push_str(&format!(
                        "note: {note} at {}\n",
                        sources.position(*at, named)
                    ));
                    out.push_str(&sources.snippet(*at));
                }
                None => out.push_str(&format!("note: {note}")),
            }
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// An ordered collection of diagnostics accumulated by a front-end phase.
///
/// # Examples
///
/// ```
/// use diaspec_core::diag::{Diagnostic, Diagnostics};
/// use diaspec_core::span::Span;
///
/// let mut diags = Diagnostics::new();
/// diags.push(Diagnostic::warning("W0301", "unused context", Span::DUMMY));
/// assert!(!diags.has_errors());
/// diags.push(Diagnostic::error("E0201", "unknown device", Span::DUMMY));
/// assert!(diags.has_errors());
/// assert_eq!(diags.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty collection.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, diag: Diagnostic) {
        self.items.push(diag);
    }

    /// Moves all diagnostics out of `other` into `self`.
    pub fn append(&mut self, other: &mut Diagnostics) {
        self.items.append(&mut other.items);
    }

    /// Whether any diagnostic is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of diagnostics (errors and warnings).
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the collection is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of error-severity diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Iterates over the diagnostics in emission order.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.items.iter()
    }

    /// Returns the first diagnostic carrying `code`, if any.
    #[must_use]
    pub fn find(&self, code: &str) -> Option<&Diagnostic> {
        self.items.iter().find(|d| d.code == code)
    }

    /// Attributes every location, a span of `sources.text()` (what
    /// [`compile_sources`](crate::compile_sources) compiles), to the file
    /// it starts in.
    #[must_use]
    pub fn locate(self, sources: &MultiSourceMap) -> Self {
        self.into_iter()
            .map(|d| d.relocate(|at| sources.locate(at.span)))
            .collect()
    }

    /// Renders every diagnostic (see [`Diagnostic::render`]), separated
    /// by blank lines.
    #[must_use]
    pub fn render(&self, sources: &MultiSourceMap, named: bool) -> String {
        self.items
            .iter()
            .map(|d| d.render(sources, named))
            .collect::<Vec<_>>()
            .join("\n\n")
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a> IntoIterator for &'a Diagnostics {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl FromIterator<Diagnostic> for Diagnostics {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Diagnostics {
            items: iter.into_iter().collect(),
        }
    }
}

impl Extend<Diagnostic> for Diagnostics {
    fn extend<T: IntoIterator<Item = Diagnostic>>(&mut self, iter: T) {
        self.items.extend(iter);
    }
}

/// Error returned by the one-shot compilation entry points when a
/// specification contains errors.
///
/// Wraps the full diagnostic set so callers can inspect or render it.
#[derive(Debug, Clone)]
pub struct CompileError {
    diagnostics: Diagnostics,
    sources: MultiSourceMap,
    named: bool,
}

impl CompileError {
    /// Creates a compile error from the diagnostics of compiling
    /// `sources.text()`: each location is attributed to its file. The
    /// report is rendered when the error is displayed (positions name
    /// their file when `named`).
    #[must_use]
    pub fn new(diagnostics: Diagnostics, sources: MultiSourceMap, named: bool) -> Self {
        CompileError {
            diagnostics: diagnostics.locate(&sources),
            sources,
            named,
        }
    }

    /// The diagnostics that caused the failure.
    #[must_use]
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "specification has {} error(s)\n{}",
            self.diagnostics.error_count(),
            self.diagnostics.render(&self.sources, self.named)
        )
    }
}

impl Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_tracks_errors_and_warnings() {
        let mut diags = Diagnostics::new();
        assert!(diags.is_empty());
        diags.push(Diagnostic::warning("W0001", "w", Span::DUMMY));
        assert!(!diags.has_errors());
        assert_eq!(diags.error_count(), 0);
        diags.push(Diagnostic::error("E0001", "e", Span::DUMMY));
        assert!(diags.has_errors());
        assert_eq!(diags.error_count(), 1);
        assert_eq!(diags.len(), 2);
        assert!(diags.find("E0001").is_some());
        assert!(diags.find("E9999").is_none());
    }

    #[test]
    fn render_includes_code_message_and_snippet() {
        let map = MultiSourceMap::new([("a.spec", "context Foo as Bar {}\n")]);
        let d = Diagnostic::error("E0201", "unknown type `Bar`", Span::new(15, 18))
            .with_note("declare it with `structure` or `enumeration`", None);
        let rendered = d.render(&map, false);
        assert!(rendered.contains("E0201"), "{rendered}");
        assert!(rendered.contains("unknown type `Bar`"), "{rendered}");
        assert!(rendered.contains("^^^"), "{rendered}");
        assert!(rendered.contains("note:"), "{rendered}");
    }

    #[test]
    fn render_note_with_secondary_span() {
        let map = MultiSourceMap::new([("a.spec", "device A {}\ndevice A {}\n")]);
        let d = Diagnostic::error("E0202", "duplicate device `A`", Span::new(19, 20))
            .with_note("first declared here", Some(Span::new(7, 8)));
        let rendered = d.render(&map, false);
        assert!(rendered.matches('^').count() >= 2, "{rendered}");
        assert!(
            rendered.contains("first declared here at 1:8"),
            "{rendered}"
        );
        // Named, every position carries its file.
        let named = d.render(&map, true);
        assert!(named.contains("at a.spec:2:8\n"), "{named}");
        assert!(
            named.contains("first declared here at a.spec:1:8"),
            "{named}"
        );
    }

    #[test]
    fn compile_error_displays_counts() {
        let map = MultiSourceMap::new([("x.spec", "x")]);
        let mut diags = Diagnostics::new();
        diags.push(Diagnostic::error("E0101", "boom", Span::new(0, 1)));
        let err = CompileError::new(diags, map, false);
        let msg = err.to_string();
        assert!(msg.contains("1 error(s)"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
        assert_eq!(err.diagnostics().len(), 1);
    }

    #[test]
    fn diagnostics_collect_and_extend() {
        let diags: Diagnostics = (0..3)
            .map(|_| Diagnostic::warning("W0001", "w", Span::DUMMY))
            .collect();
        assert_eq!(diags.len(), 3);
        let mut more = Diagnostics::new();
        more.extend(diags.iter().cloned());
        assert_eq!(more.len(), 3);
        assert_eq!((&more).into_iter().count(), 3);
    }
}
