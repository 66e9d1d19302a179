//! Machine-readable renderings of a lint [`Report`]: SARIF 2.1.0 for CI
//! annotation (GitHub code scanning, `upload-sarif`) and a flat JSON
//! shape for ad-hoc tooling. Both are hand-rolled — the workspace is
//! dependency-free — and deterministic: findings are already sorted by
//! `(path, line, code)`, and every map key is emitted in a fixed order,
//! so identical trees produce byte-identical documents.

use crate::lints::{hint_for, CATALOG};
use crate::Report;
use std::fmt::Write as _;

/// Escape `s` as the inside of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the report as a SARIF 2.1.0 log with one run, the full rule
/// catalog, and one `result` per finding (level `error`, the fix hint
/// folded into the message).
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"asd-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.com/asd-prefetch\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        json_escape(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("          \"rules\": [\n");
    for (i, info) in CATALOG.iter().enumerate() {
        let _ = writeln!(
            out,
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \"help\": {{\"text\": \"{}\"}}}}{}",
            info.code,
            json_escape(info.rule),
            json_escape(hint_for(info.code)),
            if i + 1 < CATALOG.len() { "," } else { "" }
        );
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let _ = writeln!(
            out,
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\", \"uriBaseId\": \"SRCROOT\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}",
            f.code,
            json_escape(&format!("{} — {}", f.message, hint_for(f.code))),
            json_escape(&f.path),
            f.line.max(1),
            if i + 1 < report.findings.len() { "," } else { "" }
        );
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// Render the report as flat JSON: the finding list plus the file and
/// manifest counts.
pub fn to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"path\": \"{}\", \"line\": {}, \"code\": \"{}\", \"message\": \"{}\", \"hint\": \"{}\"}}{}",
            json_escape(&f.path),
            f.line,
            f.code,
            json_escape(&f.message),
            json_escape(hint_for(f.code)),
            if i + 1 < report.findings.len() { "," } else { "" }
        );
    }
    let _ = write!(
        out,
        "  ],\n  \"files_scanned\": {},\n  \"manifests_checked\": {}\n}}\n",
        report.files_scanned, report.manifests_checked
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Finding;

    fn report_with(findings: Vec<Finding>) -> Report {
        Report { findings, files_scanned: 2, manifests_checked: 1 }
    }

    #[test]
    fn sarif_contains_rules_and_results() {
        let r = report_with(vec![Finding {
            path: "crates/mc/src/x.rs".into(),
            line: 7,
            code: "D005",
            message: "`.unwrap()` in non-test library code".into(),
        }]);
        let sarif = to_sarif(&r);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"id\": \"D009\""), "rule catalog present");
        assert!(sarif.contains("\"ruleId\": \"D005\""));
        assert!(sarif.contains("\"startLine\": 7"));
        assert!(sarif.contains("crates/mc/src/x.rs"));
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_report_is_valid_shape() {
        let sarif = to_sarif(&report_with(Vec::new()));
        assert!(sarif.contains("\"results\": [\n      ]"));
        let json = to_json(&report_with(Vec::new()));
        assert!(json.contains("\"findings\": [\n  ]"));
        assert!(json.ends_with("\"files_scanned\": 2,\n  \"manifests_checked\": 1\n}\n"), "{json}");
    }
}
