//! Source locations.
//!
//! Every token and AST node carries a [`Span`] pointing back into the
//! original specification text, so that diagnostics can show precise
//! locations and code generators can cite the declaration they expanded.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open byte range `[start, end)` into a specification source text.
///
/// Spans are cheap to copy and order by their start offset. The special
/// [`Span::DUMMY`] value is used for synthesized nodes that have no source
/// location (for example, declarations built programmatically).
///
/// # Examples
///
/// ```
/// use diaspec_core::span::Span;
///
/// let span = Span::new(4, 10);
/// assert_eq!(span.len(), 6);
/// assert!(span.contains(5));
/// assert!(!span.contains(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// A placeholder span for nodes that were not produced by parsing.
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    /// Creates a span covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Self {
        assert!(end >= start, "span end {end} precedes start {start}");
        Span { start, end }
    }

    /// Returns the smallest span covering both `self` and `other`.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Number of bytes covered by this span.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether this span covers zero bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether the byte offset `pos` falls inside this span.
    #[must_use]
    pub fn contains(&self, pos: usize) -> bool {
        pos >= self.start && pos < self.end
    }
}

impl Default for Span {
    /// The default span is [`Span::DUMMY`], so model values deserialized
    /// from older snapshots (without location data) still load.
    fn default() -> Self {
        Span::DUMMY
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A line/column position (both 1-based) resolved from a byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps byte offsets in a source text to line/column positions and renders
/// source snippets for diagnostics.
///
/// # Examples
///
/// ```
/// use diaspec_core::span::{SourceMap, Span};
///
/// let map = SourceMap::new("device Clock {\n  source tick as Integer;\n}\n");
/// let pos = map.line_col(17);
/// assert_eq!(pos.line, 2);
/// assert_eq!(pos.col, 3);
/// assert_eq!(
///     map.snippet(Span::new(17, 23)),
///     "   2 |   source tick as Integer;\n     |   ^^^^^^"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SourceMap {
    text: String,
    /// Byte offsets at which each line starts. Always begins with 0.
    line_starts: Vec<usize>,
}

impl SourceMap {
    /// Builds a source map over `text`.
    #[must_use]
    pub fn new(text: impl Into<String>) -> Self {
        let text = text.into();
        let mut line_starts = vec![0];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceMap { text, line_starts }
    }

    /// The full source text.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Resolves a byte offset to a 1-based line/column pair.
    ///
    /// Offsets past the end of the text resolve to the final position.
    #[must_use]
    pub fn line_col(&self, offset: usize) -> LineCol {
        let offset = offset.min(self.text.len());
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: (line_idx + 1) as u32,
            col: (offset - self.line_starts[line_idx] + 1) as u32,
        }
    }

    /// Returns the text of the 1-based line `line`, without its newline.
    fn line_text(&self, line: u32) -> Option<&str> {
        let idx = (line as usize).checked_sub(1)?;
        let start = *self.line_starts.get(idx)?;
        let end = self
            .line_starts
            .get(idx + 1)
            .map_or(self.text.len(), |e| *e);
        Some(self.text[start..end].trim_end_matches(['\n', '\r']))
    }

    /// Renders a two-line snippet for `span`: the offending source line and
    /// a caret underline, in the style of `rustc` diagnostics.
    #[must_use]
    pub fn snippet(&self, span: Span) -> String {
        let pos = self.line_col(span.start);
        let Some(line) = self.line_text(pos.line) else {
            return String::new();
        };
        let col = (pos.col as usize).saturating_sub(1);
        let width = span.len().clamp(1, line.len().saturating_sub(col).max(1));
        let mut out = String::new();
        out.push_str(&format!("{:>4} | {line}\n", pos.line));
        out.push_str(&format!("     | {}{}", " ".repeat(col), "^".repeat(width)));
        out
    }
}

/// A position a diagnostic points at: a span inside one of the sources
/// of a run, by index (0 when the run read one source), counted from the
/// start of that file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc {
    /// Index of the source file in the run's [`MultiSourceMap`].
    pub file: usize,
    /// Span inside that file.
    pub span: Span,
}

impl From<Span> for Loc {
    /// A span of the only (or first) source.
    fn from(span: Span) -> Self {
        Loc { file: 0, span }
    }
}

/// The named source files of one run: a single specification, several
/// linted together, or the §III *taxonomy* usage, where shared device
/// declarations and an application design compile as one text.
///
/// Files are concatenated in order for compilation; [`Loc`]s index the
/// files, and [`MultiSourceMap::locate`] attributes a span of the
/// concatenation to the file it starts in.
///
/// # Examples
///
/// ```
/// use diaspec_core::span::{MultiSourceMap, Span};
///
/// let map = MultiSourceMap::new([
///     ("taxonomy.spec", "device Clock { source tick as Integer; }\n"),
///     ("app.spec", "context C as Integer { when provided tick from Clock always publish; }\n"),
/// ]);
/// let start = map.text().find("context").unwrap();
/// let at = map.locate(Span::new(start, start + 7));
/// assert_eq!(at.file, 1);
/// assert_eq!(map.position(at, true), "app.spec:1:1");
/// assert_eq!(map.position(at, false), "1:1");
/// ```
#[derive(Debug, Clone)]
pub struct MultiSourceMap {
    /// (file name, start offset in the concatenation, per-file map).
    files: Vec<(String, usize, SourceMap)>,
    text: String,
}

impl MultiSourceMap {
    /// Builds the concatenation of `files` (each terminated with a
    /// newline if missing) and its attribution map.
    #[must_use]
    pub fn new<N, T>(files: impl IntoIterator<Item = (N, T)>) -> Self
    where
        N: Into<String>,
        T: AsRef<str>,
    {
        let mut text = String::new();
        let mut entries = Vec::new();
        for (name, content) in files {
            let start = text.len();
            let content = content.as_ref();
            text.push_str(content);
            if !content.ends_with('\n') {
                text.push('\n');
            }
            entries.push((name.into(), start, SourceMap::new(content)));
        }
        MultiSourceMap {
            files: entries,
            text,
        }
    }

    /// The concatenated source text (what the parser consumes).
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Attributes a span of the concatenated [`text`](Self::text) to the
    /// file it starts in, counted from that file's start. Spans past the
    /// end resolve into the last file.
    #[must_use]
    pub fn locate(&self, span: Span) -> Loc {
        let file = self
            .files
            .iter()
            .rposition(|(_, file_start, _)| *file_start <= span.start)
            .unwrap_or(0);
        let file_start = self.files[file].1;
        let start = span.start - file_start;
        Loc {
            file,
            span: Span::new(start, (span.end - file_start).max(start)),
        }
    }

    /// The file of a location: its name, its source map and the span
    /// inside it.
    #[must_use]
    pub fn resolve(&self, at: Loc) -> (&str, &SourceMap, Span) {
        let (name, _, map) = &self.files[at.file];
        (name, map, at.span)
    }

    /// `line:col` of a location's start, prefixed with `file:` when
    /// `named`.
    #[must_use]
    pub fn position(&self, at: Loc, named: bool) -> String {
        let (name, map, span) = self.resolve(at);
        let pos = map.line_col(span.start);
        if named {
            format!("{name}:{pos}")
        } else {
            pos.to_string()
        }
    }

    /// The caret snippet of a location, from the file it starts in.
    #[must_use]
    pub fn snippet(&self, at: Loc) -> String {
        let (_, map, span) = self.resolve(at);
        map.snippet(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_and_contains() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        assert_eq!(b.to(a), Span::new(2, 9));
        assert!(a.contains(2));
        assert!(a.contains(4));
        assert!(!a.contains(5));
        assert!(!a.contains(1));
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn span_rejects_inverted_range() {
        let _ = Span::new(5, 2);
    }

    #[test]
    fn dummy_span_is_empty() {
        assert!(Span::DUMMY.is_empty());
        assert_eq!(Span::DUMMY.len(), 0);
    }

    #[test]
    fn line_col_resolution() {
        let map = SourceMap::new("abc\ndef\n\nghi");
        assert_eq!(map.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(map.line_col(3), LineCol { line: 1, col: 4 });
        assert_eq!(map.line_col(4), LineCol { line: 2, col: 1 });
        assert_eq!(map.line_col(8), LineCol { line: 3, col: 1 });
        assert_eq!(map.line_col(9), LineCol { line: 4, col: 1 });
        // Past-the-end clamps to the final position.
        assert_eq!(map.line_col(1000), LineCol { line: 4, col: 4 });
    }

    #[test]
    fn line_text_lookup() {
        let map = SourceMap::new("first\nsecond\r\nthird");
        assert_eq!(map.line_text(1), Some("first"));
        assert_eq!(map.line_text(2), Some("second"));
        assert_eq!(map.line_text(3), Some("third"));
        assert_eq!(map.line_text(4), None);
        assert_eq!(map.line_text(0), None);
    }

    #[test]
    fn snippet_renders_caret_under_span() {
        let map = SourceMap::new("device Clock {}\n");
        let snippet = map.snippet(Span::new(7, 12));
        assert!(snippet.contains("device Clock {}"), "{snippet}");
        assert!(snippet.contains("^^^^^"), "{snippet}");
    }

    #[test]
    fn multi_source_map_attributes_offsets() {
        let map = MultiSourceMap::new([
            ("a.spec", "first file\nsecond line"),
            ("b.spec", "third file"),
        ]);
        let at = |needle: &str| {
            let start = map.text().find(needle).unwrap();
            map.locate(Span::new(start, start + needle.len()))
        };
        // Start of the first file.
        assert_eq!(map.locate(Span::new(0, 1)), Loc::from(Span::new(0, 1)));
        // Second line of the first file.
        assert_eq!(map.position(at("second"), true), "a.spec:2:1");
        // The second file starts fresh at line 1.
        let third = at("third");
        assert_eq!(
            third,
            Loc {
                file: 1,
                span: Span::new(0, 5)
            }
        );
        assert_eq!(map.position(third, true), "b.spec:1:1");
        assert_eq!(map.position(third, false), "1:1");
        // Past-the-end lands in the last file.
        assert_eq!(map.locate(Span::new(10_000, 10_000)).file, 1);
    }

    #[test]
    fn multi_source_map_snippets_name_the_file() {
        let map = MultiSourceMap::new([("tax.spec", "device D {}"), ("app.spec", "oops here")]);
        let offset = map.text().find("oops").unwrap();
        // A span of the concatenation is located in the file it starts
        // in: the position names the file, the snippet is that file's line.
        let at = map.locate(Span::new(offset, offset + 4));
        assert_eq!(map.position(at, true), "app.spec:1:1");
        assert_eq!(map.snippet(at), "   1 | oops here\n     | ^^^^");
    }

    #[test]
    fn a_location_at_the_end_of_a_file_stays_in_that_file() {
        // `a.spec` ends in a newline, so its end offset is where `b.spec`
        // starts in the concatenation; a per-file location there is still
        // a location in `a.spec`.
        let a = "device Foo {\n";
        let map = MultiSourceMap::new([("a.spec", a), ("b.spec", "device Bar {}\n")]);
        let at = Loc {
            file: 0,
            span: Span::new(a.len(), a.len()),
        };
        assert_eq!(map.position(at, true), "a.spec:2:1");
    }

    #[test]
    fn multi_source_map_adds_missing_newlines() {
        let map = MultiSourceMap::new([("a", "x"), ("b", "y\n"), ("c", "z")]);
        assert_eq!(map.text(), "x\ny\nz\n");
    }

    #[test]
    fn snippet_for_empty_source() {
        let map = SourceMap::new("");
        assert_eq!(map.line_col(0), LineCol { line: 1, col: 1 });
        let s = map.snippet(Span::new(0, 0));
        assert!(s.contains('^'));
    }
}
