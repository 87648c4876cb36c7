//! SARIF 2.1.0 emitter.
//!
//! [`render_sarif`] turns the diagnostics of one or more analyzed files
//! into a single SARIF run so CI systems (GitHub code scanning in
//! particular) can annotate spec files inline. The output targets the
//! OASIS SARIF 2.1.0 schema: one `run` with a `tool.driver` carrying one
//! reporting descriptor per distinct code, and one `result` per
//! diagnostic with a physical location (line/column region when the
//! diagnostic has a span). Like every renderer in this crate the JSON is
//! hand-assembled — the workspace is std-only.

use std::collections::BTreeMap;

use magik_relalg::json_escape;

use crate::diag::{Code, Diagnostic, Severity, SourceFile};

/// The diagnostics of one analyzed file, paired with its source for
/// region resolution.
#[derive(Debug, Clone, Copy)]
pub struct SarifFile<'a> {
    /// Artifact URI (the path as given on the command line).
    pub name: &'a str,
    /// Source text, when available, for line/column regions.
    pub source: Option<&'a SourceFile<'a>>,
    /// The diagnostics reported for this file.
    pub diags: &'a [Diagnostic],
}

fn level(s: Severity) -> &'static str {
    match s {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

/// Renders one SARIF 2.1.0 log covering all given files as a single run.
pub fn render_sarif(files: &[SarifFile<'_>], tool_version: &str) -> String {
    // Rules: every distinct code across all files, in numeric order,
    // with its index recorded for the results' `ruleIndex`.
    let mut rule_index: BTreeMap<Code, usize> = BTreeMap::new();
    for f in files {
        for d in f.diags {
            let next = rule_index.len();
            rule_index.entry(d.code).or_insert(next);
        }
    }
    let rules: Vec<String> = rule_index
        .keys()
        .map(|c| {
            format!(
                r#"{{"id":"{}","shortDescription":{{"text":"{}"}},"defaultConfiguration":{{"level":"{}"}}}}"#,
                c.as_str(),
                json_escape(c.title()),
                level(c.severity())
            )
        })
        .collect();

    let mut results = Vec::new();
    for f in files {
        for d in f.diags {
            let region = match (d.span, f.source) {
                (Some(span), Some(src)) => {
                    let (sl, sc) = src.line_index().line_col(span.start);
                    let (el, ec) = src.line_index().line_col(span.end);
                    format!(
                        r#","region":{{"startLine":{sl},"startColumn":{sc},"endLine":{el},"endColumn":{ec}}}"#
                    )
                }
                _ => String::new(),
            };
            let mut message = json_escape(&d.message);
            for note in &d.notes {
                message.push_str("\\n");
                message.push_str("note: ");
                message.push_str(&json_escape(note));
            }
            results.push(format!(
                r#"{{"ruleId":"{}","ruleIndex":{},"level":"{}","message":{{"text":"{}"}},"locations":[{{"physicalLocation":{{"artifactLocation":{{"uri":"{}"}}{}}}}}]}}"#,
                d.code.as_str(),
                rule_index[&d.code],
                level(d.severity),
                message,
                json_escape(f.name),
                region
            ));
        }
    }

    format!(
        concat!(
            "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",",
            "\"version\":\"2.1.0\",",
            "\"runs\":[{{\"tool\":{{\"driver\":{{",
            "\"name\":\"magik-analyze\",",
            "\"version\":\"{}\",",
            "\"rules\":[{}]}}}},",
            "\"results\":[{}]}}]}}\n"
        ),
        json_escape(tool_version),
        rules.join(","),
        results.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::analyze_document;
    use magik_parser::parse_document;
    use magik_relalg::Vocabulary;

    #[test]
    fn sarif_output_carries_rules_and_regions() {
        let src = "compl pupil(N, C, S) ; class(C, S, L, T).\nquery q(N) :- pupil(N, C, S).";
        let mut vocab = Vocabulary::new();
        let doc = parse_document(src, &mut vocab).unwrap();
        let diags = analyze_document(&doc, &mut vocab);
        let sf = SourceFile::new("spec.magik", src);
        let out = render_sarif(
            &[SarifFile {
                name: "spec.magik",
                source: Some(&sf),
                diags: &diags,
            }],
            "0.1.0",
        );
        assert!(out.contains(r#""version":"2.1.0""#), "{out}");
        assert!(out.contains(r#""id":"M004""#), "{out}");
        assert!(out.contains(r#""ruleId":"M004""#), "{out}");
        assert!(out.contains(r#""uri":"spec.magik""#), "{out}");
        assert!(out.contains(r#""startLine":1"#), "{out}");
        assert!(out.contains(r#""level":"warning""#), "{out}");
        // Rule indexes are consistent: every ruleIndex < number of rules.
        let rule_count = out.matches(r#""shortDescription""#).count();
        for chunk in out.split(r#""ruleIndex":"#).skip(1) {
            let n: usize = chunk
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap();
            assert!(n < rule_count, "{out}");
        }
    }

    #[test]
    fn spanless_diagnostics_get_file_level_locations() {
        let d = Diagnostic::new(
            Code::EmptyStatementSet,
            crate::diag::Location::Document,
            "no statements",
        );
        let out = render_sarif(
            &[SarifFile {
                name: "live",
                source: None,
                diags: &[d],
            }],
            "0.1.0",
        );
        assert!(out.contains(r#""uri":"live""#), "{out}");
        assert!(!out.contains("startLine"), "{out}");
        assert!(out.contains(r#""level":"note""#), "{out}");
    }
}
