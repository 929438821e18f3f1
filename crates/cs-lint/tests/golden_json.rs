//! `cs-lint --json` golden output: the document shape is asserted
//! structurally, then compared byte-for-byte against a blessed fixture
//! so any change to the machine interface is a deliberate re-bless
//! (`CS_BLESS=1 cargo test -p cs-lint --test golden_json`), never an
//! accident.

use std::path::{Path, PathBuf};

use cs_lint::engine::{self, ScanReport};
use cs_lint::report;

/// One stable input exercising a token rule, a transitive finding
/// (whose message carries a via-chain detail), and a dead suppression.
const GOLDEN_SRC: &str = "\
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn wraps() -> u128 {
    stamp().elapsed().as_nanos()
}

// cs-lint: allow(float-accumulation-in-merge, reason = \"the float merge moved to the fixed-point sketch\")
pub fn child(master: &SimRng) -> SimRng {
    master.derive(\"child\")
}
";

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lint_report.json")
}

#[test]
fn json_report_matches_blessed_golden() {
    let findings = engine::scan_source("crates/relaynet/src/golden.rs", GOLDEN_SRC);
    let report = ScanReport {
        findings,
        files_scanned: 1,
    };
    let rendered = report::json(&report);

    // Schema: the keys CI dashboards consume, in a single stable doc.
    for needle in [
        "\"tool\": \"cs-lint\"",
        "\"files_scanned\": 1",
        "\"finding_count\": 3",
        "\"rule_counts\": {",
        "\"rng-discipline\": 1",
        "\"transitive-wall-clock\": 1",
        "\"unused-allow\": 1",
        "\"findings\": [",
        "\"file\": \"crates/relaynet/src/golden.rs\"",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle} in:\n{rendered}"
        );
    }
    // The transitive finding's message must carry its via-chain.
    assert!(
        rendered.contains("reaches a wall-clock read via"),
        "transitive detail missing in:\n{rendered}"
    );

    let path = golden_path();
    if std::env::var_os("CS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("golden dir");
        std::fs::write(&path, &rendered).expect("golden written");
    }
    let blessed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); bless with CS_BLESS=1 cargo test -p cs-lint --test golden_json",
            path.display()
        )
    });
    assert_eq!(
        rendered, blessed,
        "--json output drifted from the blessed golden; if intentional, re-bless with CS_BLESS=1"
    );
}
