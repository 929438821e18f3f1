//! Rendering a [`ScanReport`]: human text, `--json` (same hand-rolled
//! JSON idiom as `cs_bench::harness`), and `--fix-annotations`
//! paste-ready triage output.

use crate::engine::ScanReport;

/// Human-readable findings, one per line, `file:line:col` first so
/// terminals link them.
pub fn human(report: &ScanReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}:{}: {}: {}\n",
            f.path, f.line, f.col, f.rule, f.message
        ));
        if !f.snippet.is_empty() {
            out.push_str(&format!("    | {}\n", f.snippet));
        }
    }
    out.push_str(&format!(
        "cs-lint: {} finding{} across {} files\n",
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.files_scanned,
    ));
    out
}

/// JSON document:
/// `{"tool", "files_scanned", "finding_count", "rule_counts", "findings"}`.
/// `rule_counts` maps each rule that fired to its finding count,
/// name-sorted, so CI dashboards can trend per-rule totals without
/// re-aggregating the findings array.
pub fn json(report: &ScanReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"cs-lint\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!(
        "  \"finding_count\": {},\n",
        report.findings.len()
    ));
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in &report.findings {
        *counts.entry(&f.rule).or_default() += 1;
    }
    if counts.is_empty() {
        out.push_str("  \"rule_counts\": {},\n");
    } else {
        out.push_str("  \"rule_counts\": {\n");
        for (i, (rule, n)) in counts.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {n}{}\n",
                json_str(rule),
                if i + 1 < counts.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n");
    }
    out.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"file\": {}, ", json_str(&f.path)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"col\": {}, ", f.col));
        out.push_str(&format!("\"rule\": {}, ", json_str(&f.rule)));
        out.push_str(&format!("\"message\": {}", json_str(&f.message)));
        out.push('}');
        if i + 1 < report.findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Ready-to-paste `allow` lines for every finding, indented to match
/// the flagged line, so triage is copy-paste instead of hand-formatting.
/// `raw_lines` maps each finding index to the untrimmed flagged line.
/// Only findings of enum rules are annotatable: `malformed-annotation`
/// and `unused-allow` have no suppression form and are skipped.
pub fn fix_annotations(report: &ScanReport, raw_lines: &[String]) -> String {
    let mut out = String::new();
    let annotatable = report
        .findings
        .iter()
        .filter(|f| crate::rules::Rule::from_name(&f.rule).is_some())
        .count();
    out.push_str(&format!(
        "cs-lint --fix-annotations: {annotatable} annotatable finding{} (dry run; paste \
         each line above its finding, then replace the reason placeholder; re-run with \
         --apply to write them in place)\n",
        if annotatable == 1 { "" } else { "s" },
    ));
    for (f, raw) in report.findings.iter().zip(raw_lines) {
        if crate::rules::Rule::from_name(&f.rule).is_none() {
            continue;
        }
        let indent: String = raw.chars().take_while(|c| c.is_whitespace()).collect();
        out.push_str(&format!("\n{}:{}  ({})\n", f.path, f.line, f.rule));
        out.push_str(&format!(
            "{indent}// cs-lint: allow({}, reason = \"<why this site cannot break the \
             invariant>\")\n",
            f.rule
        ));
    }
    out
}

/// Escapes a string as a JSON literal (same dialect as
/// `cs_bench::harness`: control chars, quotes, and backslashes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Finding;

    fn sample() -> ScanReport {
        ScanReport {
            findings: vec![Finding {
                path: "crates/x/src/lib.rs".to_string(),
                line: 3,
                col: 9,
                rule: "rng-discipline".to_string(),
                message: "stream minted \"quoted\"".to_string(),
                snippet: "let s = master.derive(\"x\");".to_string(),
            }],
            files_scanned: 7,
        }
    }

    #[test]
    fn human_lists_location_first() {
        let text = human(&sample());
        assert!(text.starts_with("crates/x/src/lib.rs:3:9: rng-discipline:"));
        assert!(text.contains("1 finding across 7 files"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let text = json(&sample());
        assert!(text.contains("\"tool\": \"cs-lint\""));
        assert!(text.contains("\"files_scanned\": 7"));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"finding_count\": 1"));
    }

    #[test]
    fn json_rule_counts_aggregate_per_rule() {
        let mut r = sample();
        let mut second = r.findings[0].clone();
        second.line = 9;
        r.findings.push(second);
        let text = json(&r);
        assert!(text.contains("\"rule_counts\": {\n    \"rng-discipline\": 2\n  },"));
        let clean = ScanReport {
            findings: Vec::new(),
            files_scanned: 7,
        };
        assert!(json(&clean).contains("\"rule_counts\": {},"));
    }

    #[test]
    fn fix_annotations_match_indentation() {
        let raw = "        let s = master.derive(\"x\");".to_string();
        let text = fix_annotations(&sample(), &[raw]);
        assert!(text.contains("\n        // cs-lint: allow(rng-discipline, reason = "));
    }
}
