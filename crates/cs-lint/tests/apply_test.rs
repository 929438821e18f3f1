//! `--fix-annotations --apply` end to end: planting suppressions in a
//! scratch workspace silences every annotatable finding, a second apply
//! is a byte-for-byte no-op, and non-annotatable findings are refused.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use cs_lint::engine;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("stale scratch removed");
    }
    dir
}

fn plant(root: &Path, files: &[(&str, &str)]) {
    for (rel, content) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("dirs");
        fs::write(&path, content).expect("fixture written");
    }
}

fn read_tree(root: &Path, files: &[(&str, &str)]) -> BTreeMap<String, String> {
    files
        .iter()
        .map(|(rel, _)| {
            let text = fs::read_to_string(root.join(rel)).expect("readable");
            ((*rel).to_string(), text)
        })
        .collect()
}

const DIRTY_LIB: &str = "\
pub fn child(master: &SimRng) -> SimRng {
    master.derive(\"child\")
}

pub fn merge_all(parts: &[f64]) -> f64 {
    parts.iter().sum::<f64>()
}
";

#[test]
fn apply_silences_findings_and_is_idempotent() {
    let root = scratch("apply_idem");
    let files = [
        ("Cargo.toml", "[package]\nname = \"scratch-root\"\n"),
        (
            "crates/relaynet/Cargo.toml",
            "[package]\nname = \"relaynet\"\n",
        ),
        ("crates/relaynet/src/lib.rs", DIRTY_LIB),
    ];
    plant(&root, &files);

    let scan = engine::scan_workspace(&root).expect("scan succeeds");
    let mut rules: Vec<&str> = scan.findings.iter().map(|f| f.rule.as_str()).collect();
    rules.sort_unstable();
    assert_eq!(rules, ["float-accumulation-in-merge", "rng-discipline"]);

    let (inserted, skipped) =
        engine::apply_annotations(&root, &scan.findings).expect("apply succeeds");
    assert_eq!((inserted, skipped), (2, 0));

    let rescanned = engine::scan_workspace(&root).expect("rescan succeeds");
    assert!(
        rescanned.findings.is_empty(),
        "apply left findings: {:?}",
        rescanned.findings
    );

    // Each inserted annotation sits directly above its flagged line,
    // indentation-matched, with the triage placeholder reason.
    let lib = fs::read_to_string(root.join("crates/relaynet/src/lib.rs")).expect("lib");
    assert!(lib.contains(
        "    // cs-lint: allow(rng-discipline, reason = \"TODO(triage): state the invariant that makes this safe\")\n    master.derive(\"child\")"
    ));
    assert!(lib.contains(
        "    // cs-lint: allow(float-accumulation-in-merge, reason = \"TODO(triage): state the invariant that makes this safe\")\n    parts.iter().sum::<f64>()"
    ));

    // Idempotence: the clean rescan has nothing to apply, and a second
    // apply pass changes no bytes anywhere in the tree.
    let before = read_tree(&root, &files);
    let (inserted, skipped) =
        engine::apply_annotations(&root, &rescanned.findings).expect("re-apply succeeds");
    assert_eq!((inserted, skipped), (0, 0));
    assert_eq!(before, read_tree(&root, &files), "re-apply mutated files");
}

#[test]
fn apply_refuses_unsuppressible_findings() {
    let root = scratch("apply_refuse");
    let files = [
        ("Cargo.toml", "[package]\nname = \"scratch-root\"\n"),
        (
            "crates/relaynet/Cargo.toml",
            "[package]\nname = \"relaynet\"\n",
        ),
        (
            "crates/relaynet/src/lib.rs",
            "// cs-lint: allow(rng-discipline, reason = \"nothing below derives a stream any more\")\npub fn quiet() -> u64 {\n    9\n}\n",
        ),
    ];
    plant(&root, &files);

    let scan = engine::scan_workspace(&root).expect("scan succeeds");
    assert_eq!(
        scan.findings
            .iter()
            .map(|f| f.rule.as_str())
            .collect::<Vec<_>>(),
        [engine::UNUSED_ALLOW]
    );

    // unused-allow has no suppression form: apply must skip it and
    // leave the tree untouched so the operator hand-deletes the line.
    let before = read_tree(&root, &files);
    let (inserted, skipped) =
        engine::apply_annotations(&root, &scan.findings).expect("apply returns");
    assert_eq!((inserted, skipped), (0, 1));
    assert_eq!(before, read_tree(&root, &files), "apply mutated files");
}
