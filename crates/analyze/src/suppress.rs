//! Suppression: inline `% magik: allow(M001)` directives and baseline
//! files.
//!
//! A directive comment suppresses matching diagnostics on **its own line
//! and the line directly below it**, so both placements work:
//!
//! ```text
//! % magik: allow(M001)
//! compl p(X) ; true.            % suppressed by the line above
//! compl p(Y) ; true.  % magik: allow(M001)   — same-line form
//! ```
//!
//! Several codes may be listed (`allow(M001, M004)`), and `allow(all)`
//! suppresses every code. Directives ride the comment trivia the lexer
//! now records in [`magik_parser::DocumentSpans::comments`]; diagnostics
//! without a source span (programmatic documents) are never suppressed.
//!
//! Baselines record *accepted* pre-existing findings so new lints can be
//! denied by default without breaking existing specs: `--write-baseline`
//! stores a fingerprint (code, logical location, message) per diagnostic,
//! and `--baseline` filters any diagnostic whose fingerprint is already
//! recorded. The file is plain JSON, written and parsed here without any
//! external dependency.

use std::collections::{BTreeSet, HashMap};

use magik_parser::{Comment, LineIndex};
use magik_relalg::json_escape;

use crate::diag::{Code, Diagnostic};

/// One parsed `% magik: allow(...)` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the directive is written on.
    pub line: usize,
    /// The codes listed; `None` means `allow(all)`.
    pub codes: Option<Vec<Code>>,
}

/// Extracts the allow directives from comment trivia. Malformed
/// directives (unknown codes, missing parentheses) are ignored rather
/// than failing the run — a comment is never a hard error.
pub fn allow_directives(comments: &[Comment]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for c in comments {
        let body = c.text.trim_start_matches('%').trim();
        let Some(rest) = body.strip_prefix("magik:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.strip_suffix(')'))
        else {
            continue;
        };
        let args = args.trim();
        if args.eq_ignore_ascii_case("all") {
            out.push(AllowDirective {
                line: c.line,
                codes: None,
            });
            continue;
        }
        let codes: Option<Vec<Code>> = args.split(',').map(|s| Code::parse(s.trim())).collect();
        if let Some(codes) = codes {
            if !codes.is_empty() {
                out.push(AllowDirective {
                    line: c.line,
                    codes: Some(codes),
                });
            }
        }
    }
    out
}

/// Splits diagnostics into (kept, suppressed) under the given directives.
/// A diagnostic is suppressed when its span starts on a directive's line
/// or on the line directly below it and its code is listed (or the
/// directive is `allow(all)`).
pub fn filter_suppressed(
    diags: Vec<Diagnostic>,
    directives: &[AllowDirective],
    index: &LineIndex,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    if directives.is_empty() {
        return (diags, Vec::new());
    }
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for d in diags {
        let matched = d.span.is_some_and(|span| {
            let (line, _) = index.line_col(span.start);
            directives.iter().any(|dir| {
                (dir.line == line || dir.line + 1 == line)
                    && dir.codes.as_ref().is_none_or(|cs| cs.contains(&d.code))
            })
        });
        if matched {
            suppressed.push(d);
        } else {
            kept.push(d);
        }
    }
    (kept, suppressed)
}

/// The identity of a diagnostic for baseline purposes: stable across
/// runs and across unrelated edits elsewhere in the file set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fingerprint {
    /// Source file name the diagnostic was reported in.
    pub file: String,
    /// The stable code string (`"M004"`).
    pub code: String,
    /// The logical location display (`"statement [1]"`).
    pub location: String,
    /// The primary message.
    pub message: String,
}

impl Fingerprint {
    /// Fingerprint of a diagnostic reported in `file`.
    pub fn of(file: &str, d: &Diagnostic) -> Fingerprint {
        Fingerprint {
            file: file.to_owned(),
            code: d.code.as_str().to_owned(),
            location: d.location.to_string(),
            message: d.message.clone(),
        }
    }
}

/// A set of accepted findings, read from / written to a JSON file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeSet<Fingerprint>,
}

impl Baseline {
    /// An empty baseline.
    pub fn new() -> Baseline {
        Baseline::default()
    }

    /// Number of recorded findings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline records nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records every diagnostic of a file.
    pub fn record(&mut self, file: &str, diags: &[Diagnostic]) {
        for d in diags {
            self.entries.insert(Fingerprint::of(file, d));
        }
    }

    /// Splits diagnostics of `file` into (new, baselined).
    pub fn filter(&self, file: &str, diags: Vec<Diagnostic>) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
        let mut kept = Vec::new();
        let mut known = Vec::new();
        for d in diags {
            if self.entries.contains(&Fingerprint::of(file, &d)) {
                known.push(d);
            } else {
                kept.push(d);
            }
        }
        (kept, known)
    }

    /// Serializes the baseline as JSON.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .entries
            .iter()
            .map(|f| {
                format!(
                    r#"{{"file":"{}","code":"{}","location":"{}","message":"{}"}}"#,
                    json_escape(&f.file),
                    json_escape(&f.code),
                    json_escape(&f.location),
                    json_escape(&f.message)
                )
            })
            .collect();
        format!(
            "{{\"version\":1,\"baseline\":[\n{}\n]}}\n",
            items.join(",\n")
        )
    }

    /// Parses a baseline file produced by [`Baseline::to_json`] (any
    /// JSON object array with string values under a `baseline` key).
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeSet::new();
        for obj in parse_object_array(text, "baseline")? {
            entries.insert(Fingerprint {
                file: obj.get("file").cloned().unwrap_or_default(),
                code: obj.get("code").cloned().unwrap_or_default(),
                location: obj.get("location").cloned().unwrap_or_default(),
                message: obj.get("message").cloned().unwrap_or_default(),
            });
        }
        Ok(Baseline { entries })
    }
}

/// Minimal JSON reader for the exact shape baselines use: a top-level
/// object with `key` mapping to an array of flat objects whose values
/// are strings. Anything else is a parse error.
fn parse_object_array(text: &str, key: &str) -> Result<Vec<HashMap<String, String>>, String> {
    let needle = format!("\"{key}\"");
    let at = text
        .find(&needle)
        .ok_or_else(|| format!("missing `{key}` key"))?;
    let rest = &text[at + needle.len()..];
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix(':')
        .ok_or("expected `:` after key")?
        .trim_start();
    let mut chars = rest.char_indices().peekable();
    match chars.next() {
        Some((_, '[')) => {}
        _ => return Err("expected `[`".to_owned()),
    }
    let mut out = Vec::new();
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some(&(_, ']')) => break,
            Some(&(_, '{')) => {
                chars.next();
                let mut obj = HashMap::new();
                loop {
                    skip_ws(&mut chars);
                    match chars.peek() {
                        Some(&(_, '}')) => {
                            chars.next();
                            break;
                        }
                        Some(&(_, '"')) => {
                            let k = parse_string(&mut chars)?;
                            skip_ws(&mut chars);
                            match chars.next() {
                                Some((_, ':')) => {}
                                _ => return Err("expected `:`".to_owned()),
                            }
                            skip_ws(&mut chars);
                            let v = parse_string(&mut chars)?;
                            obj.insert(k, v);
                            skip_ws(&mut chars);
                            if let Some(&(_, ',')) = chars.peek() {
                                chars.next();
                            }
                        }
                        _ => return Err("expected `\"` or `}`".to_owned()),
                    }
                }
                out.push(obj);
                skip_ws(&mut chars);
                if let Some(&(_, ',')) = chars.peek() {
                    chars.next();
                }
            }
            _ => return Err("expected `{` or `]`".to_owned()),
        }
    }
    Ok(out)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
    while matches!(chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<String, String> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err("expected string".to_owned()),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut v = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|(_, c)| c.to_digit(16))
                            .ok_or("bad \\u escape")?;
                        v = v * 16 + d;
                    }
                    out.push(char::from_u32(v).unwrap_or('\u{fffd}'));
                }
                _ => return Err("bad escape".to_owned()),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::analyze_document;
    use magik_parser::parse_document;
    use magik_relalg::Vocabulary;

    fn run(src: &str) -> (Vec<Diagnostic>, Vec<AllowDirective>, LineIndex) {
        let mut vocab = Vocabulary::new();
        let doc = parse_document(src, &mut vocab).unwrap();
        let diags = analyze_document(&doc, &mut vocab);
        let dirs = allow_directives(&doc.spans.comments);
        (diags, dirs, LineIndex::new(src))
    }

    #[test]
    fn directive_above_suppresses_next_line() {
        let src = "compl p(X) ; true.\n% magik: allow(M001)\ncompl p(Y) ; true.\n";
        let (diags, dirs, index) = run(src);
        assert_eq!(dirs.len(), 1);
        assert!(diags.iter().any(|d| d.code == Code::DuplicateStatement));
        let (kept, suppressed) = filter_suppressed(diags, &dirs, &index);
        assert_eq!(suppressed.len(), 1);
        assert!(kept.iter().all(|d| d.code != Code::DuplicateStatement));
    }

    #[test]
    fn same_line_directive_suppresses() {
        let src = "compl p(X) ; true.\ncompl p(Y) ; true. % magik: allow(M001)\n";
        let (diags, dirs, index) = run(src);
        let (_, suppressed) = filter_suppressed(diags, &dirs, &index);
        assert_eq!(suppressed.len(), 1);
    }

    #[test]
    fn unlisted_codes_are_kept() {
        let src = "compl p(X) ; true.\n% magik: allow(M017)\ncompl p(Y) ; true.\n";
        let (diags, dirs, index) = run(src);
        let (kept, suppressed) = filter_suppressed(diags, &dirs, &index);
        assert!(suppressed.is_empty());
        assert!(kept.iter().any(|d| d.code == Code::DuplicateStatement));
    }

    #[test]
    fn allow_all_suppresses_everything_on_the_line() {
        let src = "compl p(X) ; q(X). % magik: allow(all)\nquery qq(X) :- p(X).\n";
        let (diags, dirs, index) = run(src);
        assert_eq!(dirs[0].codes, None);
        let (_, suppressed) = filter_suppressed(diags, &dirs, &index);
        // The statement-line M004 is suppressed; query diags are not.
        assert!(suppressed
            .iter()
            .any(|d| d.code == Code::UnguaranteeableCondition));
    }

    #[test]
    fn malformed_directives_are_ignored() {
        let comments = [
            Comment {
                text: "% magik: allow(M999)".into(),
                line: 1,
                span: magik_parser::Span::new(0, 1),
            },
            Comment {
                text: "% magik: deny(M001)".into(),
                line: 2,
                span: magik_parser::Span::new(0, 1),
            },
            Comment {
                text: "% just a comment".into(),
                line: 3,
                span: magik_parser::Span::new(0, 1),
            },
        ];
        assert!(allow_directives(&comments).is_empty());
    }

    #[test]
    fn baseline_roundtrips_and_filters() {
        let src = "compl p(X) ; true.\ncompl p(Y) ; true.\n";
        let (diags, _, _) = run(src);
        let mut b = Baseline::new();
        b.record("spec.magik", &diags);
        assert_eq!(b.len(), diags.len());
        let parsed = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        let (kept, known) = parsed.filter("spec.magik", diags.clone());
        assert!(kept.is_empty());
        assert_eq!(known.len(), diags.len());
        // A different file does not match.
        let (kept, _) = parsed.filter("other.magik", diags);
        assert!(!kept.is_empty());
    }

    #[test]
    fn baseline_with_quotes_and_newlines_roundtrips() {
        let mut b = Baseline::new();
        b.entries.insert(Fingerprint {
            file: "a \"b\".magik".into(),
            code: "M001".into(),
            location: "statement [0]".into(),
            message: "line1\nline2\ttab".into(),
        });
        let parsed = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn bad_baseline_is_an_error() {
        assert!(Baseline::from_json("{}").is_err());
        assert!(Baseline::from_json("{\"baseline\": 5}").is_err());
        assert!(Baseline::from_json("{\"baseline\": [{\"file\": }]}").is_err());
        assert!(Baseline::from_json("{\"baseline\": []}")
            .unwrap()
            .is_empty());
    }
}
