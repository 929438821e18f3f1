//! The scan pipeline: lex → split code/comments → parse items → build
//! the workspace call graph → parse `allow` annotations → mark test
//! regions → run token + semantic rules → scope + suppress → report
//! dead suppressions.
//!
//! # Annotation grammar (DESIGN.md §14)
//!
//! ```text
//! // cs-lint: allow(<rule-name>, reason = "<non-empty text>")
//! ```
//!
//! The comment must be **alone on its line** and suppresses findings of
//! that rule on the next line holding any code token (doc comments and
//! blank lines in between are skipped, so an annotation can sit above a
//! documented item). Stacked annotations all bind to that same line. A
//! `cs-lint:` comment that does not parse — unknown rule, missing or
//! empty reason, trailing position — is itself reported as
//! `malformed-annotation`, which cannot be suppressed.
//!
//! # Unused suppressions
//!
//! An allow whose rule produces no finding on its bound line reports
//! `unused-allow` at the annotation itself. Like `malformed-annotation`
//! it lives outside the [`Rule`] enum, so `allow(unused-allow, …)` is
//! not even parseable: suppression debt can be paid down but never
//! rolled over.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::graph::{self, DepMap, FileView};
use crate::items::{self, ItemIndex};
use crate::lexer::{self, Token, TokenKind};
use crate::policy;
use crate::rules::{self, RawFinding, Rule};

/// Rule name used for unparseable `cs-lint:` comments.
pub const MALFORMED: &str = "malformed-annotation";

/// Rule name used for allows that no longer suppress anything.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub line: u32,
    pub col: u32,
    /// Kebab-case rule name.
    pub rule: String,
    pub message: String,
    /// The source line the finding points at, trimmed — context for the
    /// human report and for `--fix-annotations` indentation.
    pub snippet: String,
}

/// A parsed, well-formed allow annotation.
struct Allow {
    rule: Rule,
    /// Line/col the annotation comment sits on.
    line: u32,
    col: u32,
    /// The code line it binds to (the next line with a code token), or
    /// `None` when nothing follows it.
    target: Option<u32>,
    /// Set when the allow suppressed at least one applicable finding;
    /// still-false allows become `unused-allow` findings.
    used: bool,
}

/// Everything the per-file front half of the pipeline produces; the
/// back half (rules, graph, suppression) runs over a batch of these.
struct FileAnalysis {
    ctx: policy::FileCtx,
    src: String,
    /// Comment-free token stream.
    code: Vec<Token>,
    items: ItemIndex,
    /// Inclusive line ranges of `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(u32, u32)>,
    allows: Vec<Allow>,
    /// Malformed-annotation findings, complete as parsed.
    malformed: Vec<Finding>,
}

/// Lexes, parses, and annotation-scans one file (no rules yet).
fn analyze_file(rel_path: &str, src: &str) -> FileAnalysis {
    let ctx = policy::classify(rel_path);
    let tokens = lexer::lex(src);
    let (code, comments): (Vec<Token>, Vec<Token>) = tokens
        .into_iter()
        .partition(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment));
    let items = items::parse(src, &code);
    let test_regions = test_regions(src, &code);

    // Lines that hold at least one code token, for annotation binding.
    let code_lines: BTreeSet<u32> = code.iter().map(|t| t.line).collect();
    let mut allows: Vec<Allow> = Vec::new();
    let mut malformed: Vec<Finding> = Vec::new();
    for c in &comments {
        if c.kind != TokenKind::LineComment {
            continue;
        }
        let text = c.text(src);
        let Some(rest) = annotation_body(text) else {
            continue;
        };
        let alone = !code_lines.contains(&c.line);
        match (parse_allow(rest), alone) {
            (Some(rule), true) => allows.push(Allow {
                rule,
                line: c.line,
                col: c.col,
                target: code_lines.range(c.line + 1..).next().copied(),
                used: false,
            }),
            (Some(_), false) => malformed.push(Finding {
                path: rel_path.to_string(),
                line: c.line,
                col: c.col,
                rule: MALFORMED.to_string(),
                message: "annotation must be alone on the line preceding the finding, not \
                          trailing code"
                    .to_string(),
                snippet: line_snippet(src, c.line),
            }),
            (None, _) => malformed.push(Finding {
                path: rel_path.to_string(),
                line: c.line,
                col: c.col,
                rule: MALFORMED.to_string(),
                message: format!(
                    "cannot parse annotation; expected `// cs-lint: allow(<rule>, reason = \
                     \"...\")` with a known rule and non-empty reason; rules: {}",
                    rules::ALL_RULES
                        .iter()
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                snippet: line_snippet(src, c.line),
            }),
        }
    }

    FileAnalysis {
        ctx,
        src: src.to_string(),
        code,
        items,
        test_regions,
        allows,
        malformed,
    }
}

/// Scans a batch of files as one workspace: token rules per file,
/// semantic rules over the shared call graph (`deps` gates cross-crate
/// edges; `None` means every edge is link-plausible, the single-file
/// case). Input pairs are `(workspace-relative path, source)`.
pub fn scan_files(inputs: &[(String, String)], deps: Option<&DepMap>) -> Vec<Finding> {
    let mut files: Vec<FileAnalysis> = inputs
        .iter()
        .map(|(rel, src)| analyze_file(rel, src))
        .collect();

    let mut raw: Vec<(usize, RawFinding)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        raw.extend(rules::detect(&f.src, &f.code).into_iter().map(|r| (fi, r)));
    }
    {
        let views: Vec<FileView<'_>> = files
            .iter()
            .zip(inputs)
            .map(|(f, (rel, _))| FileView {
                rel_path: rel,
                krate: &f.ctx.krate,
                src: &f.src,
                code: &f.code,
                items: &f.items,
            })
            .collect();
        raw.extend(graph::analyze(&views, deps));
    }

    let mut findings: Vec<Finding> = Vec::new();
    for (fi, r) in raw {
        let applies = {
            let f = &files[fi];
            let test_code = f.ctx.kind == policy::TargetKind::TestFile
                || f.test_regions
                    .iter()
                    .any(|&(a, b)| (a..=b).contains(&r.line));
            policy::rule_applies(r.rule, &f.ctx, test_code)
        };
        if !applies {
            continue;
        }
        let mut suppressed = false;
        for a in &mut files[fi].allows {
            if a.rule == r.rule && a.target == Some(r.line) {
                a.used = true;
                suppressed = true;
            }
        }
        if suppressed {
            continue;
        }
        let f = &files[fi];
        let message = match &r.detail {
            Some(d) => format!("{} — {d}", r.rule.message()),
            None => r.rule.message().to_string(),
        };
        findings.push(Finding {
            path: f.ctx.rel_path.clone(),
            line: r.line,
            col: r.col,
            rule: r.rule.name().to_string(),
            message,
            snippet: line_snippet(&f.src, r.line),
        });
    }

    // Allows that suppressed nothing are themselves findings — at the
    // annotation, so deleting the flagged line is always the fix.
    for f in &files {
        for a in &f.allows {
            if a.used {
                continue;
            }
            let target = match a.target {
                Some(l) => format!("its bound line {l}"),
                None => "any code line (nothing follows it)".to_string(),
            };
            findings.push(Finding {
                path: f.ctx.rel_path.clone(),
                line: a.line,
                col: a.col,
                rule: UNUSED_ALLOW.to_string(),
                message: format!(
                    "allow({}) suppresses nothing on {target}: the finding it guarded is \
                     gone, so delete the annotation (unused suppressions cannot be \
                     suppressed)",
                    a.rule.name()
                ),
                snippet: line_snippet(&f.src, a.line),
            });
        }
    }

    for f in &mut files {
        findings.append(&mut f.malformed);
    }
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    findings
}

/// Scans one file's source in isolation. `rel_path` drives policy
/// scoping and is echoed into findings. Cross-crate call edges are
/// link-plausible by default here (no manifest knowledge).
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Finding> {
    scan_files(&[(rel_path.to_string(), src.to_string())], None)
}

/// Returns the text after a `cs-lint:` marker in a line comment, or
/// `None` when the comment is not an annotation at all.
fn annotation_body(comment: &str) -> Option<&str> {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    body.strip_prefix("cs-lint:").map(str::trim_start)
}

/// Parses `allow(<rule>, reason = "<non-empty>")`. Returns the rule on
/// success.
fn parse_allow(body: &str) -> Option<Rule> {
    let inner = body.strip_prefix("allow")?.trim_start().strip_prefix('(')?;
    let inner = inner.trim_end().strip_suffix(')')?;
    let (rule_name, rest) = inner.split_once(',')?;
    let rule = Rule::from_name(rule_name.trim())?;
    let reason = rest
        .trim()
        .strip_prefix("reason")?
        .trim_start()
        .strip_prefix('=')?;
    let reason = reason.trim().strip_prefix('"')?.strip_suffix('"')?;
    (!reason.trim().is_empty()).then_some(rule)
}

/// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]` items. Token
/// scan: a `#[...]` attribute whose idents include `test` (and not
/// `not`, so `#[cfg(not(test))]` stays production code) marks the next
/// brace-delimited item; a `;` before any `{` means the attribute
/// decorated a braceless item and no region is produced.
fn test_regions(src: &str, code: &[Token]) -> Vec<(u32, u32)> {
    let text = |i: usize| code[i].text(src);
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if !(text(i) == "#" && text(i + 1) == "[") {
            i += 1;
            continue;
        }
        // Find the matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut saw_test = false;
        let mut saw_not = false;
        while j < code.len() {
            match text(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" => saw_test = true,
                "not" => saw_not = true,
                _ => {}
            }
            j += 1;
        }
        if !saw_test || saw_not {
            i = j;
            continue;
        }
        // Attribute marks a test item: find its body's `{`, bailing at a
        // same-level `;` (braceless item).
        let mut k = j + 1;
        while k < code.len() && text(k) != "{" && text(k) != ";" {
            k += 1;
        }
        if k < code.len() && text(k) == "{" {
            let open_line = code[k].line;
            let mut brace = 0usize;
            while k < code.len() {
                match text(k) {
                    "{" => brace += 1,
                    "}" => {
                        brace -= 1;
                        if brace == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let close_line = if k < code.len() {
                code[k].line
            } else {
                u32::MAX
            };
            regions.push((open_line, close_line));
        }
        i = k;
    }
    regions
}

/// The 1-based `line` of `src`, trimmed; empty string when out of range.
fn line_snippet(src: &str, line: u32) -> String {
    src.lines()
        .nth(line as usize - 1)
        .unwrap_or("")
        .trim()
        .to_string()
}

/// Raw (untrimmed) source line, for `--fix-annotations` indentation.
pub fn raw_line(src: &str, line: u32) -> String {
    src.lines().nth(line as usize - 1).unwrap_or("").to_string()
}

/// Result of a workspace scan.
pub struct ScanReport {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git"];

/// Path suffix of the known-bad lint fixture corpus — scanning it would
/// (correctly) light up every rule.
const FIXTURES_DIR: &str = "crates/cs-lint/tests/fixtures";

/// Walks the workspace rooted at `root` and scans every `.rs` file,
/// deterministically ordered, with call-graph edges gated by the
/// manifests' declared dependencies.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut inputs: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        inputs.push((rel_unix(root, file), src));
    }
    let deps = workspace_deps(root);
    let findings = scan_files(&inputs, (!deps.is_empty()).then_some(&deps));
    Ok(ScanReport {
        findings,
        files_scanned: inputs.len(),
    })
}

/// Reads `package name → direct dependency names` from the workspace
/// manifests (root + `crates/*/Cargo.toml`). Hand-rolled line scan in
/// the same dependency-free discipline as the lexer: section headers,
/// `name = "…"` under `[package]`, and the leading key of each entry
/// under `[dependencies]` / `[dev-dependencies]` / `[build-dependencies]`.
pub fn workspace_deps(root: &Path) -> DepMap {
    let mut manifests = vec![root.join("Cargo.toml")];
    if let Ok(rd) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            let m = d.join("Cargo.toml");
            if m.is_file() {
                manifests.push(m);
            }
        }
    }
    let mut deps = DepMap::new();
    for m in manifests {
        let Ok(text) = std::fs::read_to_string(&m) else {
            continue;
        };
        if let Some((name, d)) = parse_manifest(&text) {
            deps.insert(name, d);
        }
    }
    deps
}

/// Parses one manifest's `(package name, dependency names)`. Returns
/// `None` for virtual manifests (workspace root without `[package]`
/// would be one; ours has a root package).
fn parse_manifest(text: &str) -> Option<(String, BTreeSet<String>)> {
    let mut name: Option<String> = None;
    let mut section = String::new();
    let mut deps = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').trim_matches('[').to_string();
            continue;
        }
        if section == "package" && name.is_none() {
            if let Some(v) = line
                .strip_prefix("name")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('='))
            {
                name = Some(v.trim().trim_matches('"').to_string());
            }
        }
        if matches!(
            section.as_str(),
            "dependencies" | "dev-dependencies" | "build-dependencies"
        ) {
            if let Some((dep, _)) = line.split_once('=') {
                let dep = dep.trim();
                if !dep.is_empty()
                    && dep
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                {
                    deps.insert(dep.to_string());
                }
            }
        }
    }
    Some((name?, deps))
}

/// Writes one allow annotation above every *annotatable* finding
/// (rules in the [`Rule`] enum; `malformed-annotation` / `unused-allow`
/// have no annotation form by design). The inserted reason is a
/// placeholder the author must rewrite — `--apply` automates the
/// mechanical half of triage, never the judgment half. Returns
/// `(inserted, skipped)` counts; idempotent because each inserted
/// annotation suppresses exactly the finding that produced it.
pub fn apply_annotations(root: &Path, findings: &[Finding]) -> Result<(usize, usize), String> {
    let mut by_file: BTreeMap<&str, BTreeSet<(u32, &str)>> = BTreeMap::new();
    let mut skipped = 0usize;
    for f in findings {
        if Rule::from_name(&f.rule).is_none() {
            skipped += 1;
            continue;
        }
        by_file
            .entry(&f.path)
            .or_default()
            .insert((f.line, &f.rule));
    }
    let mut inserted = 0usize;
    for (path, sites) in by_file {
        let abs = root.join(path);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
        // Descending line order so earlier insertions never shift the
        // remaining targets.
        for &(line, rule) in sites.iter().rev() {
            let idx = (line as usize).saturating_sub(1).min(lines.len());
            let indent: String = lines
                .get(idx)
                .map(|l| l.chars().take_while(|c| c.is_whitespace()).collect())
                .unwrap_or_default();
            lines.insert(
                idx,
                format!(
                    "{indent}// cs-lint: allow({rule}, reason = \"TODO(triage): state the \
                     invariant that makes this safe\")"
                ),
            );
            inserted += 1;
        }
        let mut out = lines.join("\n");
        if src.ends_with('\n') {
            out.push('\n');
        }
        std::fs::write(&abs, out).map_err(|e| format!("cannot write {}: {e}", abs.display()))?;
    }
    Ok((inserted, skipped))
}

fn rel_unix(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            if rel_unix(root, &path) == FIXTURES_DIR {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<(String, u32)> {
        findings.iter().map(|f| (f.rule.clone(), f.line)).collect()
    }

    #[test]
    fn allow_suppresses_next_code_line_only() {
        let src = "\
// cs-lint: allow(rng-discipline, reason = \"stream handed to one consumer\")
let a = master.derive(\"a\");
let b = master.derive(\"b\");
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![("rng-discipline".to_string(), 3)]);
    }

    #[test]
    fn allow_skips_doc_comments_between() {
        let src = "\
// cs-lint: allow(rng-discipline, reason = \"stream handed to one consumer\")
/// Documented item.
fn f(m: &SimRng) -> SimRng { m.derive(\"a\") }
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn stacked_allows_bind_to_same_line() {
        let src = "\
// cs-lint: allow(rng-discipline, reason = \"fixture\")
// cs-lint: allow(float-accumulation-in-merge, reason = \"fixture\")
fn merge_all(m: &SimRng, xs: &[f64]) -> f64 { m.derive(\"a\").f64() + xs.iter().sum::<f64>() }
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wrong_rule_does_not_suppress_and_is_itself_flagged() {
        let src = "\
// cs-lint: allow(float-accumulation-in-merge, reason = \"mismatched\")
let a = master.derive(\"a\");
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert_eq!(
            rules_of(&f),
            vec![
                (UNUSED_ALLOW.to_string(), 1),
                ("rng-discipline".to_string(), 2)
            ]
        );
    }

    #[test]
    fn unused_allow_fires_even_with_no_code_after_it() {
        let src = "fn fine() {}\n// cs-lint: allow(rng-discipline, reason = \"stale\")\n";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![(UNUSED_ALLOW.to_string(), 2)]);
    }

    #[test]
    fn allow_suppressing_a_policy_exempt_site_is_unused() {
        // rng-discipline does not apply in a scenario builder, so the
        // allow is dead weight and unused-allow says so.
        let src = "\
// cs-lint: allow(rng-discipline, reason = \"builder stream\")
let s = master.derive(\"a\");
";
        let f = scan_source("crates/relaynet/src/builder.rs", src);
        assert_eq!(rules_of(&f), vec![(UNUSED_ALLOW.to_string(), 1)]);
    }

    #[test]
    fn malformed_annotations_are_findings() {
        for bad in [
            "// cs-lint: allow(unknown-rule, reason = \"x\")",
            "// cs-lint: allow(rng-discipline)",
            "// cs-lint: allow(rng-discipline, reason = \"\")",
            "// cs-lint: disallow(rng-discipline, reason = \"x\")",
            // Rules that clippy enforces have no cs-lint annotation form.
            "// cs-lint: allow(wall-clock, reason = \"x\")",
            // The engine-level rules have no annotation form at all.
            "// cs-lint: allow(unused-allow, reason = \"x\")",
            "// cs-lint: allow(malformed-annotation, reason = \"x\")",
        ] {
            let f = scan_source("crates/relaynet/src/x.rs", bad);
            assert_eq!(rules_of(&f), vec![(MALFORMED.to_string(), 1)], "for {bad}");
        }
        // Trailing-position annotation is malformed even when parseable.
        let f = scan_source(
            "crates/relaynet/src/x.rs",
            "let x = 1; // cs-lint: allow(rng-discipline, reason = \"x\")",
        );
        assert_eq!(rules_of(&f), vec![(MALFORMED.to_string(), 1)]);
        // A plain comment mentioning the tool is not an annotation.
        let f = scan_source(
            "crates/relaynet/src/x.rs",
            "// run cs-lint before pushing\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt_where_policy_says() {
        let src = "\
fn lib_code(m: &SimRng) { m.derive(\"a\"); }

#[cfg(test)]
mod tests {
    fn helper(m: &SimRng) { m.derive(\"a\"); }
}
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![("rng-discipline".to_string(), 1)]);
    }

    #[test]
    fn cfg_not_test_is_production() {
        let src = "\
#[cfg(not(test))]
mod prod {
    fn f(m: &SimRng) { m.derive(\"a\"); }
}
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![("rng-discipline".to_string(), 3)]);
    }

    #[test]
    fn braceless_cfg_test_item_marks_no_region() {
        let src = "\
#[cfg(test)]
use helper::thing;
fn f(m: &SimRng) { m.derive(\"a\"); }
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![("rng-discipline".to_string(), 3)]);
    }

    #[test]
    fn float_rule_reaches_cfg_test_regions() {
        let src = "\
#[cfg(test)]
mod tests {
    fn merge_all(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }
}
";
        let f = scan_source("crates/torcell/src/ids.rs", src);
        assert_eq!(
            rules_of(&f),
            vec![("float-accumulation-in-merge".to_string(), 3)]
        );
    }

    #[test]
    fn transitive_findings_flow_through_scan_files() {
        let src = "\
fn stamp() -> u64 { let _ = std::time::Instant::now(); 0 }
pub fn wraps() -> u64 { stamp() }
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![("transitive-wall-clock".to_string(), 2)]);
        // The transitive finding carries its call chain.
        assert!(f[0]
            .message
            .contains("`wraps` reaches a wall-clock read via stamp"));
    }

    #[test]
    fn manifest_parsing_reads_package_and_dep_sections() {
        let (name, deps) = parse_manifest(
            "[package]\nname = \"relaynet\"\nversion = \"0.1.0\"\n\n[dependencies]\n\
             simcore = { path = \"../simcore\" }\nnetsim = { path = \"../netsim\" }\n\n\
             [dev-dependencies]\ntorcell = { path = \"../torcell\" }\n\n[lints]\n\
             workspace = true\n",
        )
        .expect("has a package section");
        assert_eq!(name, "relaynet");
        assert_eq!(
            deps.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["netsim", "simcore", "torcell"]
        );
    }
}
