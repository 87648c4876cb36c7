//! Diagnostics: stable codes, severities, locations, and the text/JSON
//! renderers.
//!
//! Every analysis in this crate reports [`Diagnostic`]s. A diagnostic has
//! a stable [`Code`] (`M001`–`M025` — tools may match on these, so codes
//! are never reused or renumbered; see `ANALYSES.md` for the catalogue),
//! a [`Severity`], a logical [`Location`] inside the analyzed document,
//! and — when the document was parsed from source — a byte [`Span`] that
//! the text renderer turns into a rustc-style excerpt with a caret
//! underline. Passes that know how to repair a finding attach
//! [`Suggestion`]s; the [`crate::apply_fixes`] driver applies the
//! machine-applicable ones.

use std::fmt;

use magik_parser::{LineIndex, Span};
use magik_relalg::json_escape;

/// How serious a diagnostic is. Ordered: `Info < Warning < Error`, so a
/// deny threshold is a simple comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: bounds, structural notes. Never wrong to ignore.
    Info,
    /// Suspicious: almost certainly an authoring mistake, but the
    /// reasoning machinery still produces *some* (often trivial) answer.
    Warning,
    /// Definitely wrong: the document contradicts itself or cannot be
    /// processed meaningfully.
    Error,
}

impl Severity {
    /// The lowercase name (`info`, `warning`, `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a severity name as used by `--deny <level>` (accepts both
    /// singular and plural spellings).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" | "infos" | "notes" => Some(Severity::Info),
            "warning" | "warnings" => Some(Severity::Warning),
            "error" | "errors" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A stable diagnostic code. The numeric part is permanent: codes are
/// never reused, renumbered, or given a different meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// M001: a statement duplicates an earlier one up to renaming.
    DuplicateStatement,
    /// M002: a statement is subsumed by a strictly more general one.
    SubsumedStatement,
    /// M003: a statement's condition mentions its own head relation.
    SelfConditioned,
    /// M004: a condition mentions a relation no statement guarantees.
    UnguaranteeableCondition,
    /// M005: a statement's condition is unsatisfiable under the
    /// constraints — the statement can never fire (dead).
    DeadStatement,
    /// M006: a query is unsafe (a head variable is missing from the body).
    UnsafeQuery,
    /// M007: a query is unsatisfiable under the constraints (and hence
    /// trivially complete).
    UnsatisfiableQuery,
    /// M008: a query atom's relation is transitively unguaranteeable —
    /// no complete specialization exists, the k-MCS set is empty.
    DeadQueryAtom,
    /// M009: a head variable occurs only in atoms over relations that
    /// head no statement — the MCG does not exist.
    NoMcg,
    /// M010: bound on MCG fixpoint iterations (and MCS size, if any).
    FixpointBound,
    /// M011: a query atom's relation occurs nowhere else in the document.
    UnknownRelation,
    /// M012: one relation name is used at two different arities.
    ArityConflict,
    /// M013: a stored fact violates a finite-domain constraint.
    DomainViolationFact,
    /// M014: two stored facts violate a key constraint.
    KeyViolationFacts,
    /// M015: the statement dependency graph has a cycle and is not weakly
    /// acyclic — MCS sizes are unbounded (Theorem 17).
    UnboundedRecursion,
    /// M016: the statement dependency graph has a cycle but is weakly
    /// acyclic — recursive, yet MCS sizes stay bounded.
    BoundedRecursion,
    /// M017: a statement (a rule of the Section 5 encoding) is not
    /// reachable from any query in the document.
    UnusedStatement,
    /// M018: a live-session statement duplicates or is subsumed by
    /// another statement of the live set.
    RedundantLiveStatement,
    /// M019: a live-session statement's condition is unsatisfiable under
    /// the session's integrity constraints.
    UnsatisfiableLiveStatement,
    /// M020: a relation has asserted facts but no statement guarantees
    /// any part of it — a completeness blind spot.
    CompletenessBlindSpot,
    /// M021: a live-session statement's pattern matches zero stored
    /// facts — the guarantee is currently vacuous.
    VacuousStatement,
    /// M022: a query atom's relation is transitively unguaranteeable in
    /// the live session — the check is trivially incomplete for every
    /// instance (greatest-fixpoint coverage analysis).
    TriviallyIncompleteCheck,
    /// M023: the session stores facts but holds no statements at all —
    /// every completeness check is trivially incomplete.
    EmptyStatementSet,
    /// M024: one relation name is interned at two different arities in
    /// the live session vocabulary.
    LiveArityConflict,
    /// M025: a checked query is incomplete, and a minimal set of
    /// additional completeness statements that would make it complete is
    /// attached as the suggested repair.
    IncompleteWithRepair,
}

impl Code {
    /// The stable code string, e.g. `"M004"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DuplicateStatement => "M001",
            Code::SubsumedStatement => "M002",
            Code::SelfConditioned => "M003",
            Code::UnguaranteeableCondition => "M004",
            Code::DeadStatement => "M005",
            Code::UnsafeQuery => "M006",
            Code::UnsatisfiableQuery => "M007",
            Code::DeadQueryAtom => "M008",
            Code::NoMcg => "M009",
            Code::FixpointBound => "M010",
            Code::UnknownRelation => "M011",
            Code::ArityConflict => "M012",
            Code::DomainViolationFact => "M013",
            Code::KeyViolationFacts => "M014",
            Code::UnboundedRecursion => "M015",
            Code::BoundedRecursion => "M016",
            Code::UnusedStatement => "M017",
            Code::RedundantLiveStatement => "M018",
            Code::UnsatisfiableLiveStatement => "M019",
            Code::CompletenessBlindSpot => "M020",
            Code::VacuousStatement => "M021",
            Code::TriviallyIncompleteCheck => "M022",
            Code::EmptyStatementSet => "M023",
            Code::LiveArityConflict => "M024",
            Code::IncompleteWithRepair => "M025",
        }
    }

    /// Every registered code, in numeric order. The catalogue checks and
    /// `--explain` completion iterate this.
    pub const ALL: [Code; 25] = [
        Code::DuplicateStatement,
        Code::SubsumedStatement,
        Code::SelfConditioned,
        Code::UnguaranteeableCondition,
        Code::DeadStatement,
        Code::UnsafeQuery,
        Code::UnsatisfiableQuery,
        Code::DeadQueryAtom,
        Code::NoMcg,
        Code::FixpointBound,
        Code::UnknownRelation,
        Code::ArityConflict,
        Code::DomainViolationFact,
        Code::KeyViolationFacts,
        Code::UnboundedRecursion,
        Code::BoundedRecursion,
        Code::UnusedStatement,
        Code::RedundantLiveStatement,
        Code::UnsatisfiableLiveStatement,
        Code::CompletenessBlindSpot,
        Code::VacuousStatement,
        Code::TriviallyIncompleteCheck,
        Code::EmptyStatementSet,
        Code::LiveArityConflict,
        Code::IncompleteWithRepair,
    ];

    /// Parses a stable code string (`"M004"`, case-insensitive on the
    /// letter) back into a [`Code`].
    pub fn parse(s: &str) -> Option<Code> {
        let s = s.trim();
        Code::ALL
            .iter()
            .copied()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
    }

    /// A short, stable title for the code, used as the SARIF rule
    /// description and as the `--explain` header.
    pub fn title(self) -> &'static str {
        match self {
            Code::DuplicateStatement => "statement duplicates an earlier one up to renaming",
            Code::SubsumedStatement => "statement is subsumed by a more general one",
            Code::SelfConditioned => "statement conditions on its own head relation",
            Code::UnguaranteeableCondition => "condition relation is never guaranteed",
            Code::DeadStatement => "statement can never fire under the constraints",
            Code::UnsafeQuery => "query is not range-restricted",
            Code::UnsatisfiableQuery => "query is unsatisfiable under the constraints",
            Code::DeadQueryAtom => "query atom's relation is transitively unguaranteeable",
            Code::NoMcg => "the minimal complete generalization does not exist",
            Code::FixpointBound => "static bound on MCG fixpoint iterations and MCS sizes",
            Code::UnknownRelation => "relation occurs nowhere else in the document",
            Code::ArityConflict => "relation name used at two different arities",
            Code::DomainViolationFact => "stored fact violates a finite-domain constraint",
            Code::KeyViolationFacts => "stored facts violate a key constraint",
            Code::UnboundedRecursion => "cyclic statement set with unbounded MCS sizes",
            Code::BoundedRecursion => "cyclic but weakly acyclic statement set",
            Code::UnusedStatement => "statement is unreachable from every query",
            Code::RedundantLiveStatement => "live statement is redundant in the session set",
            Code::UnsatisfiableLiveStatement => {
                "live statement can never fire under the session constraints"
            }
            Code::CompletenessBlindSpot => "relation has asserted facts but no covering statement",
            Code::VacuousStatement => "live statement matches no stored facts",
            Code::TriviallyIncompleteCheck => {
                "completeness check is trivially incomplete for every instance"
            }
            Code::EmptyStatementSet => "session stores facts but holds no statements",
            Code::LiveArityConflict => "relation name interned at two arities in the session",
            Code::IncompleteWithRepair => "query is incomplete; a minimal repair is suggested",
        }
    }

    /// The default severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::UnsafeQuery | Code::DomainViolationFact | Code::KeyViolationFacts => {
                Severity::Error
            }
            Code::FixpointBound
            | Code::BoundedRecursion
            | Code::UnusedStatement
            | Code::VacuousStatement
            | Code::EmptyStatementSet
            | Code::IncompleteWithRepair => Severity::Info,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which part of a TC statement a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StatementPart {
    /// The whole statement.
    Whole,
    /// The head atom.
    Head,
    /// The `i`-th condition atom.
    Condition(usize),
}

/// Which part of a query a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryPart {
    /// The whole query.
    Whole,
    /// The head atom.
    Head,
    /// The `i`-th body atom.
    Atom(usize),
}

/// The logical position of a diagnostic inside the analyzed document.
/// Indices are document order (the same order the parser and
/// [`magik_parser::DocumentSpans`] use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Location {
    /// The whole document (structural diagnostics).
    Document,
    /// A TC statement (or part of one).
    Statement {
        /// Statement index in document order.
        index: usize,
        /// The part pointed at.
        part: StatementPart,
    },
    /// A query (or part of one).
    Query {
        /// Query index in document order.
        index: usize,
        /// The part pointed at.
        part: QueryPart,
    },
    /// A `fact` item, by parse order.
    Fact {
        /// Fact index in parse order.
        index: usize,
    },
    /// A `domain` item, by parse order.
    Domain {
        /// Domain index in parse order.
        index: usize,
    },
    /// A `key` item, by parse order.
    Key {
        /// Key index in parse order.
        index: usize,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Document => f.write_str("document"),
            Location::Statement { index, part } => {
                write!(f, "statement [{index}]")?;
                match part {
                    StatementPart::Whole => Ok(()),
                    StatementPart::Head => f.write_str(", head"),
                    StatementPart::Condition(i) => write!(f, ", condition atom {i}"),
                }
            }
            Location::Query { index, part } => {
                write!(f, "query [{index}]")?;
                match part {
                    QueryPart::Whole => Ok(()),
                    QueryPart::Head => f.write_str(", head"),
                    QueryPart::Atom(i) => write!(f, ", body atom {i}"),
                }
            }
            Location::Fact { index } => write!(f, "fact [{index}]"),
            Location::Domain { index } => write!(f, "domain [{index}]"),
            Location::Key { index } => write!(f, "key [{index}]"),
        }
    }
}

/// Whether a [`Suggestion`] may be applied without human review.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Applicability {
    /// The fix is semantics-preserving (or removes provably-inert text);
    /// `--fix` applies it automatically.
    MachineApplicable,
    /// The fix is a plausible repair but may change meaning; it is shown
    /// but never auto-applied.
    MaybeIncorrect,
}

impl Applicability {
    /// The lowercase name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Applicability::MachineApplicable => "machine-applicable",
            Applicability::MaybeIncorrect => "maybe-incorrect",
        }
    }
}

/// A structured repair attached to a [`Diagnostic`]: replace the byte
/// range `span` of the source with `replacement` (empty to delete).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suggestion {
    /// Human-readable description of the edit (`"delete this statement"`).
    pub message: String,
    /// Byte range of the source to replace.
    pub span: Span,
    /// The replacement text (may be empty, meaning deletion).
    pub replacement: String,
    /// Whether `--fix` may apply this edit unattended.
    pub applicability: Applicability,
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Severity (usually [`Code::severity`], but callers may escalate).
    pub severity: Severity,
    /// The primary message (names already resolved — self-contained).
    pub message: String,
    /// Logical position in the document.
    pub location: Location,
    /// Byte range in the source, when the document was parsed from text.
    pub span: Option<Span>,
    /// Supplementary notes rendered under the excerpt.
    pub notes: Vec<String>,
    /// Structured repairs; empty when the pass knows no fix.
    pub suggestions: Vec<Suggestion>,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity and no notes.
    pub fn new(code: Code, location: Location, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            location,
            span: None,
            notes: Vec::new(),
            suggestions: Vec::new(),
        }
    }

    /// Adds a note (builder style).
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Attaches a repair (builder style).
    pub fn with_suggestion(mut self, suggestion: Suggestion) -> Diagnostic {
        self.suggestions.push(suggestion);
        self
    }
}

/// A named source text plus its line index, for rendering excerpts.
#[derive(Debug, Clone)]
pub struct SourceFile<'a> {
    /// Display name (path) used in `--> name:line:col` headers.
    pub name: &'a str,
    /// The source text the document was parsed from.
    pub text: &'a str,
    index: LineIndex,
}

impl<'a> SourceFile<'a> {
    /// Wraps a source text under a display name.
    pub fn new(name: &'a str, text: &'a str) -> SourceFile<'a> {
        SourceFile {
            name,
            text,
            index: LineIndex::new(text),
        }
    }

    /// The line index of the text.
    pub fn line_index(&self) -> &LineIndex {
        &self.index
    }
}

/// Renders one diagnostic in rustc style:
///
/// ```text
/// warning[M004]: condition relation `class` is never guaranteed
///   --> testdata/bad/trap.magik:3:24
///    |
///  3 | compl pupil(N, C, S) ; class(C, S, L, T).
///    |                        ^^^^^^^^^^^^^^^^^
///    = note: no statement heads `class`
/// ```
///
/// Without a source (or without a span) the excerpt is replaced by the
/// logical location.
pub fn render_text(diag: &Diagnostic, source: Option<&SourceFile<'_>>) -> String {
    let mut out = format!("{}[{}]: {}\n", diag.severity, diag.code, diag.message);
    match (diag.span, source) {
        (Some(span), Some(src)) => {
            let (line, col) = src.index.line_col(span.start);
            out.push_str(&format!("  --> {}:{line}:{col}\n", src.name));
            let range = src.index.line_range(line);
            let text = &src.text[range.start..range.end];
            let gutter = line.to_string();
            let pad = " ".repeat(gutter.len());
            out.push_str(&format!("{pad} |\n{gutter} | {text}\n"));
            // Underline within the first line of the span only.
            let from = span.start - range.start;
            let to = span.end.min(range.end).max(span.start) - range.start;
            let carets = "^".repeat((to - from).max(1));
            out.push_str(&format!("{pad} | {}{carets}\n", " ".repeat(from)));
            for note in &diag.notes {
                out.push_str(&format!("{pad} = note: {note}\n"));
            }
            for s in &diag.suggestions {
                out.push_str(&format!(
                    "{pad} = help: {} ({})\n",
                    s.message,
                    s.applicability.as_str()
                ));
            }
        }
        _ => {
            out.push_str(&format!("  --> {}\n", diag.location));
            for note in &diag.notes {
                out.push_str(&format!("  = note: {note}\n"));
            }
            for s in &diag.suggestions {
                out.push_str(&format!(
                    "  = help: {} ({})\n",
                    s.message,
                    s.applicability.as_str()
                ));
            }
        }
    }
    out
}

/// Renders a full report in text form: each diagnostic followed by a
/// one-line summary (`N errors, M warnings, K infos`).
pub fn render_report(diags: &[Diagnostic], source: Option<&SourceFile<'_>>) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&render_text(d, source));
        out.push('\n');
    }
    out.push_str(&summary_line(diags));
    out.push('\n');
    out
}

/// The `N errors, M warnings, K infos` summary line.
pub fn summary_line(diags: &[Diagnostic]) -> String {
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    format!(
        "{} errors, {} warnings, {} infos",
        count(Severity::Error),
        count(Severity::Warning),
        count(Severity::Info)
    )
}

fn json_location(loc: &Location) -> String {
    match loc {
        Location::Document => r#"{"kind":"document"}"#.to_string(),
        Location::Statement { index, part } => {
            let (part_name, atom) = match part {
                StatementPart::Whole => ("whole", None),
                StatementPart::Head => ("head", None),
                StatementPart::Condition(i) => ("condition", Some(*i)),
            };
            match atom {
                Some(i) => format!(
                    r#"{{"kind":"statement","index":{index},"part":"{part_name}","atom":{i}}}"#
                ),
                None => {
                    format!(r#"{{"kind":"statement","index":{index},"part":"{part_name}"}}"#)
                }
            }
        }
        Location::Query { index, part } => {
            let (part_name, atom) = match part {
                QueryPart::Whole => ("whole", None),
                QueryPart::Head => ("head", None),
                QueryPart::Atom(i) => ("body", Some(*i)),
            };
            match atom {
                Some(i) => {
                    format!(r#"{{"kind":"query","index":{index},"part":"{part_name}","atom":{i}}}"#)
                }
                None => format!(r#"{{"kind":"query","index":{index},"part":"{part_name}"}}"#),
            }
        }
        Location::Fact { index } => format!(r#"{{"kind":"fact","index":{index}}}"#),
        Location::Domain { index } => format!(r#"{{"kind":"domain","index":{index}}}"#),
        Location::Key { index } => format!(r#"{{"kind":"key","index":{index}}}"#),
    }
}

/// Renders a full report as a single JSON object:
///
/// ```json
/// {"diagnostics": [{"code": "M004", "severity": "warning", "message": "…",
///   "location": {"kind": "statement", "index": 1, "part": "condition", "atom": 0},
///   "span": {"start": 57, "end": 74, "line": 3, "col": 24},
///   "notes": ["…"]}],
///  "summary": {"errors": 0, "warnings": 1, "infos": 0}}
/// ```
///
/// `span` is `null` for diagnostics without a source position; `line` and
/// `col` are present only when a source was supplied.
pub fn render_json(diags: &[Diagnostic], source: Option<&SourceFile<'_>>) -> String {
    let mut items = Vec::with_capacity(diags.len());
    for d in diags {
        let span = match d.span {
            Some(s) => match source {
                Some(src) => {
                    let (line, col) = src.index.line_col(s.start);
                    format!(
                        r#"{{"start":{},"end":{},"line":{line},"col":{col}}}"#,
                        s.start, s.end
                    )
                }
                None => format!(r#"{{"start":{},"end":{}}}"#, s.start, s.end),
            },
            None => "null".to_string(),
        };
        let notes = d
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(",");
        let suggestions = d
            .suggestions
            .iter()
            .map(|s| {
                format!(
                    r#"{{"message":"{}","span":{{"start":{},"end":{}}},"replacement":"{}","applicability":"{}"}}"#,
                    json_escape(&s.message),
                    s.span.start,
                    s.span.end,
                    json_escape(&s.replacement),
                    s.applicability.as_str()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        items.push(format!(
            r#"{{"code":"{}","severity":"{}","message":"{}","location":{},"span":{},"notes":[{}],"suggestions":[{}]}}"#,
            d.code,
            d.severity,
            json_escape(&d.message),
            json_location(&d.location),
            span,
            notes,
            suggestions
        ));
    }
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    format!(
        r#"{{"diagnostics":[{}],"summary":{{"errors":{},"warnings":{},"infos":{}}}}}"#,
        items.join(","),
        count(Severity::Error),
        count(Severity::Warning),
        count(Severity::Info)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_backs_deny_levels() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::parse("warnings"), Some(Severity::Warning));
        assert_eq!(Severity::parse("error"), Some(Severity::Error));
        assert_eq!(Severity::parse("bogus"), None);
    }

    #[test]
    fn text_rendering_underlines_the_span() {
        let src = SourceFile::new("spec.magik", "compl p(X) ; q(X).\n");
        let mut d = Diagnostic::new(
            Code::UnguaranteeableCondition,
            Location::Statement {
                index: 0,
                part: StatementPart::Condition(0),
            },
            "condition relation `q` is never guaranteed",
        )
        .with_note("no statement heads `q`");
        d.span = Some(Span::new(13, 17));
        let text = render_text(&d, Some(&src));
        assert!(text.contains("warning[M004]"), "{text}");
        assert!(text.contains("--> spec.magik:1:14"), "{text}");
        assert!(text.contains("compl p(X) ; q(X)."), "{text}");
        assert!(text.contains("^^^^"), "{text}");
        assert!(text.contains("= note: no statement heads `q`"), "{text}");
    }

    #[test]
    fn text_rendering_without_span_names_the_location() {
        let d = Diagnostic::new(
            Code::UnsafeQuery,
            Location::Query {
                index: 2,
                part: QueryPart::Whole,
            },
            "head variable `X` does not occur in the body",
        );
        let text = render_text(&d, None);
        assert!(text.contains("error[M006]"), "{text}");
        assert!(text.contains("--> query [2]"), "{text}");
    }

    #[test]
    fn json_report_is_well_formed() {
        let src = SourceFile::new("spec.magik", "compl p(X) ; q(X).\n");
        let mut d = Diagnostic::new(
            Code::UnguaranteeableCondition,
            Location::Statement {
                index: 0,
                part: StatementPart::Condition(0),
            },
            "a \"quoted\" message\nwith a newline",
        );
        d.span = Some(Span::new(13, 17));
        let json = render_json(&[d], Some(&src));
        assert!(json.contains(r#""code":"M004""#), "{json}");
        assert!(json.contains(r#""severity":"warning""#), "{json}");
        assert!(json.contains(r#"\"quoted\""#), "{json}");
        assert!(json.contains(r#"\n"#), "{json}");
        assert!(
            json.contains(r#""span":{"start":13,"end":17,"line":1,"col":14}"#),
            "{json}"
        );
        assert!(
            json.contains(
                r#""location":{"kind":"statement","index":0,"part":"condition","atom":0}"#
            ),
            "{json}"
        );
        assert!(
            json.contains(r#""summary":{"errors":0,"warnings":1,"infos":0}"#),
            "{json}"
        );
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            Code::DuplicateStatement,
            Code::SubsumedStatement,
            Code::SelfConditioned,
            Code::UnguaranteeableCondition,
            Code::DeadStatement,
            Code::UnsafeQuery,
            Code::UnsatisfiableQuery,
            Code::DeadQueryAtom,
            Code::NoMcg,
            Code::FixpointBound,
            Code::UnknownRelation,
            Code::ArityConflict,
            Code::DomainViolationFact,
            Code::KeyViolationFacts,
            Code::UnboundedRecursion,
            Code::BoundedRecursion,
            Code::UnusedStatement,
            Code::RedundantLiveStatement,
            Code::UnsatisfiableLiveStatement,
            Code::CompletenessBlindSpot,
            Code::VacuousStatement,
            Code::TriviallyIncompleteCheck,
            Code::EmptyStatementSet,
            Code::LiveArityConflict,
            Code::IncompleteWithRepair,
        ];
        let strs: std::collections::BTreeSet<&str> = all.iter().map(|c| c.as_str()).collect();
        assert_eq!(strs.len(), all.len());
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.as_str(), format!("M{:03}", i + 1));
        }
        assert_eq!(Code::ALL.as_slice(), all.as_slice());
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
            assert_eq!(Code::parse(&c.as_str().to_ascii_lowercase()), Some(c));
        }
        assert_eq!(Code::parse("M099"), None);
        assert_eq!(Code::parse("bogus"), None);
    }

    #[test]
    fn suggestions_render_in_text_and_json() {
        let src = SourceFile::new("spec.magik", "compl p(X) ; q(X).\n");
        let mut d = Diagnostic::new(
            Code::DuplicateStatement,
            Location::Statement {
                index: 0,
                part: StatementPart::Whole,
            },
            "statement duplicates statement [0]",
        )
        .with_suggestion(Suggestion {
            message: "delete this statement".to_string(),
            span: Span::new(0, 18),
            replacement: String::new(),
            applicability: Applicability::MachineApplicable,
        });
        d.span = Some(Span::new(0, 18));
        let text = render_text(&d, Some(&src));
        assert!(
            text.contains("= help: delete this statement (machine-applicable)"),
            "{text}"
        );
        let json = render_json(&[d], Some(&src));
        assert!(
            json.contains(
                r#""suggestions":[{"message":"delete this statement","span":{"start":0,"end":18},"replacement":"","applicability":"machine-applicable"}]"#
            ),
            "{json}"
        );
    }
}
