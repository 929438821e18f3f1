//! The fixture corpus, cs-lint side: every rule must fire at exactly
//! the expected `file:line`, and the lexer hard cases must produce zero
//! false positives. Compiler-lint markers belong to `clippy_fixtures`.
//! The fixture grammar is in `corpus/mod.rs`.

mod corpus;

use std::collections::BTreeMap;
use std::path::Path;

use corpus::{checked_by_clippy, expectations, fixture_files, is_compiler_lint, virtual_path};
use cs_lint::engine;
use cs_lint::rules::ALL_RULES;

/// The cs-lint rule markers of one fixture.
fn cs_lint_expectations(content: &str) -> Vec<(u32, String)> {
    expectations(content)
        .into_iter()
        .filter(|(_, name)| !is_compiler_lint(name))
        .collect()
}

#[test]
fn every_fixture_matches_its_markers_exactly() {
    for file in fixture_files() {
        let content = std::fs::read_to_string(&file).expect("fixture readable");
        let vpath = virtual_path(&content, &file);
        let expected = cs_lint_expectations(&content);
        let mut found: Vec<(u32, String)> = engine::scan_source(&vpath, &content)
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect();
        found.sort();
        assert_eq!(
            found,
            expected,
            "fixture {} (as {vpath}): findings disagree with //~ markers",
            file.display(),
        );
    }
}

#[test]
fn corpus_covers_every_rule_and_has_clean_hard_cases() {
    let mut fired: BTreeMap<String, usize> = BTreeMap::new();
    let mut clean_fixtures = 0usize;
    for file in fixture_files() {
        let content = std::fs::read_to_string(&file).expect("fixture readable");
        let expected = expectations(&content);
        if expected.is_empty() {
            clean_fixtures += 1;
        }
        for (_, rule) in expected {
            assert!(
                !is_compiler_lint(&rule) || checked_by_clippy(&content, &file),
                "{} expects compiler lint {rule} but is not marked `clippy = true`",
                file.display()
            );
            *fired.entry(rule).or_insert(0) += 1;
        }
    }
    for rule in ALL_RULES {
        assert!(
            fired.contains_key(rule.name()),
            "no fixture exercises rule {}",
            rule.name()
        );
    }
    assert!(
        fired.contains_key(engine::MALFORMED),
        "no fixture exercises {}",
        engine::MALFORMED
    );
    assert!(
        fired.contains_key(engine::UNUSED_ALLOW),
        "no fixture exercises {}",
        engine::UNUSED_ALLOW
    );
    assert!(
        clean_fixtures >= 8,
        "need >= 8 zero-finding hard-case fixtures, have {clean_fixtures}"
    );
}

/// The gate's own contract, enforced from the test suite too: the real
/// workspace has zero unannotated findings, and the full scan fits the
/// 2-second budget (it runs in well under that even unoptimized).
#[test]
fn workspace_scan_is_clean_and_fast() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    #[expect(
        clippy::disallowed_methods,
        reason = "timing the lint itself against its CI budget, not simulation results"
    )]
    let t0 = std::time::Instant::now();
    let scan = engine::scan_workspace(&root).expect("workspace scan succeeds");
    let elapsed = t0.elapsed();
    assert!(
        scan.files_scanned > 80,
        "suspiciously small workspace: {} files",
        scan.files_scanned
    );
    let rendered: Vec<String> = scan
        .findings
        .iter()
        .map(|f| format!("{}:{}:{} {}", f.path, f.line, f.col, f.rule))
        .collect();
    assert!(
        scan.findings.is_empty(),
        "workspace has unannotated findings:\n{rendered:#?}"
    );
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "scan took {elapsed:?}, budget is 2s"
    );
}

/// Cross-crate reachability edges exist only when the caller's crate
/// declares a dependency on the callee's crate, and only sink-reaching
/// callees taint their callers.
#[test]
fn cross_crate_reachability_is_dependency_and_sink_gated() {
    use std::collections::BTreeSet;

    let bench_src = "\
pub fn fmt_rate(n: u64, d: u64) -> String {
    format!(\"{n}/{d}\")
}

pub fn timed() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
";
    let caller = |callee: &str| {
        format!("pub fn summarize() -> String {{\n    let _ = {callee}();\n    String::new()\n}}\n")
    };
    let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    deps.insert(
        "relaynet".to_string(),
        ["cs-bench".to_string()].into_iter().collect(),
    );

    fn rules(
        inputs: &[(String, String)],
        deps: Option<&BTreeMap<String, BTreeSet<String>>>,
    ) -> Vec<(String, u32)> {
        engine::scan_files(inputs, deps)
            .into_iter()
            .filter(|f| f.path.starts_with("crates/relaynet"))
            .map(|f| (f.rule, f.line))
            .collect()
    }
    let bench = (
        "crates/bench/src/report.rs".to_string(),
        bench_src.to_string(),
    );

    // Calling a clock-free helper across the dependency: silent.
    let inputs = vec![
        bench.clone(),
        ("crates/relaynet/src/sum.rs".to_string(), caller("fmt_rate")),
    ];
    assert_eq!(rules(&inputs, Some(&deps)), vec![]);

    // Calling the clock-reading helper: exactly one transitive finding
    // at the call site. (cs-bench itself is policy-exempt from
    // wall-clock, which must NOT launder the caller's reachability.)
    let inputs = vec![
        bench.clone(),
        ("crates/relaynet/src/sum.rs".to_string(), caller("timed")),
    ];
    assert_eq!(
        rules(&inputs, Some(&deps)),
        vec![("transitive-wall-clock".to_string(), 2)]
    );

    // Without the declared dependency the edge disappears.
    deps.get_mut("relaynet").expect("entry").clear();
    assert_eq!(rules(&inputs, Some(&deps)), vec![]);
}
