//! The fixture corpus, clippy side. Every fixture whose header says
//! `clippy = true` is placed by its virtual path in one throwaway
//! package that carries copies of the root `clippy.toml` and lints
//! tables. `cargo clippy` runs once over that package, and each file's
//! diagnostics must equal its compiler-lint markers. This is how the
//! rules that clippy enforces in place of cs-lint keep their fixture
//! coverage (DESIGN.md §14). The fixture grammar is in `corpus/mod.rs`.

mod corpus;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use corpus::{checked_by_clippy, expectations, fixture_files, is_compiler_lint, virtual_path};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// The entries of the root manifest's `[workspace.lints.<tool>]` table.
fn lints_table(tool: &str) -> Vec<String> {
    let manifest =
        fs::read_to_string(workspace_root().join("Cargo.toml")).expect("root manifest readable");
    let header = format!("[workspace.lints.{tool}]");
    let entries: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert!(!entries.is_empty(), "root manifest has no {header} table");
    entries
}

/// The package-relative file a fixture is compiled as: the target
/// directory its virtual path implies, and its own file stem (virtual
/// file names repeat across crates).
fn placement(vpath: &str, stem: &str) -> String {
    let within = match vpath.strip_prefix("crates/") {
        Some(rest) => rest.split_once('/').map_or("", |(_, w)| w),
        None => vpath,
    };
    let dir = ["src/bin/", "tests/", "examples/"]
        .into_iter()
        .find(|d| within.starts_with(d))
        .unwrap_or("src/");
    format!("{dir}{stem}.rs")
}

/// `(file, line, col, lint)` of one `compiler-message` line of
/// `--message-format=json-diagnostic-short`: the location from the
/// short rendering (`file:line:col: level: …`), the lint from its code.
fn diagnostic(json: &str) -> Option<(String, u32, u32, String)> {
    if !json.contains("\"reason\":\"compiler-message\"") {
        return None;
    }
    let mut loc = json.split_once("\"rendered\":\"")?.1.splitn(4, ':');
    let file = loc.next()?.to_string();
    let line = loc.next()?.parse().ok()?;
    let col = loc.next()?.parse().ok()?;
    let lint = json
        .split_once("\"code\":{\"code\":\"")
        .and_then(|(_, r)| r.split_once('"'))
        .map_or("<no code>", |(code, _)| code)
        .to_string();
    Some((file, line, col, lint))
}

#[test]
fn clippy_rejects_exactly_the_marked_lines() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy_fixtures");
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("stale package removed");
    }
    fs::create_dir_all(dir.join("src")).expect("package dir");

    // fixture placement → (fixture path, expected (line, lint) markers)
    let mut placed: BTreeMap<String, (PathBuf, Vec<(u32, String)>)> = BTreeMap::new();
    let mut lib_rs = String::new();
    for file in fixture_files() {
        let content = fs::read_to_string(&file).expect("fixture readable");
        if !checked_by_clippy(&content, &file) {
            continue;
        }
        let stem = file.file_stem().expect("stem").to_string_lossy();
        let rel = placement(&virtual_path(&content, &file), &stem);
        if rel.starts_with("src/") && !rel.starts_with("src/bin/") {
            lib_rs.push_str(&format!("mod {stem};\n"));
        }
        let target = dir.join(&rel);
        fs::create_dir_all(target.parent().expect("parent")).expect("target dir");
        fs::write(&target, &content).expect("fixture placed");
        let expected: Vec<(u32, String)> = expectations(&content)
            .into_iter()
            .filter(|(_, name)| is_compiler_lint(name))
            .collect();
        placed.insert(rel, (file, expected));
    }
    assert!(placed.len() >= 10, "clippy corpus shrank: {}", placed.len());
    fs::write(dir.join("src/lib.rs"), lib_rs).expect("lib.rs");
    fs::copy(
        workspace_root().join("clippy.toml"),
        dir.join("clippy.toml"),
    )
    .expect("clippy.toml copied");
    // Fixtures are fragments: dead code and unused bindings are noise.
    // Every other lint level is the workspace's own.
    let manifest = format!(
        "[package]\nname = \"clippy-fixtures\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         publish = false\n\n[workspace]\n\n[lints.rust]\n{}\n\
         unused = {{ level = \"allow\", priority = -1 }}\n\n[lints.clippy]\n{}\n",
        lints_table("rust").join("\n"),
        lints_table("clippy").join("\n"),
    );
    fs::write(dir.join("Cargo.toml"), manifest).expect("manifest");

    // `--cap-lints warn` turns the deny levels into warnings, so a
    // finding in the library does not stop the check of the targets
    // that link it.
    let out = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["clippy", "--offline", "--all-targets"])
        .arg("--message-format=json-diagnostic-short")
        .arg("--target-dir")
        .arg(dir.join("target"))
        .args(["--", "--cap-lints", "warn"])
        .current_dir(&dir)
        .env("CLIPPY_CONF_DIR", &dir)
        .output()
        .expect("cargo clippy runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "cargo clippy failed on the fixture package:\n{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A file is checked once per target that compiles it; the column
    // keeps two findings on one line apart while the set drops repeats.
    let diagnostics: BTreeSet<(String, u32, u32, String)> =
        stdout.lines().filter_map(diagnostic).collect();
    let mut found: BTreeMap<&str, Vec<(u32, String)>> = BTreeMap::new();
    for (file, line, _, lint) in &diagnostics {
        assert!(
            placed.contains_key(file),
            "diagnostic outside any fixture: {file}:{line} {lint}"
        );
        found.entry(file).or_default().push((*line, lint.clone()));
    }
    let mut mismatches = Vec::new();
    for (rel, (file, expected)) in &placed {
        let mut got = found.remove(rel.as_str()).unwrap_or_default();
        got.sort();
        if &got != expected {
            mismatches.push(format!(
                "{} (as {rel}):\n  clippy:  {got:?}\n  markers: {expected:?}",
                file.display()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "clippy disagrees with the //~ markers of:\n{}",
        mismatches.join("\n")
    );
}

/// Every lint the workspace turns on is proven by some fixture, and so
/// is the failure of a dead `#[expect]`.
#[test]
fn corpus_exercises_every_workspace_clippy_lint() {
    let mut exercised: BTreeSet<String> = BTreeSet::new();
    for file in fixture_files() {
        let content = fs::read_to_string(&file).expect("fixture readable");
        if checked_by_clippy(&content, &file) {
            exercised.extend(expectations(&content).into_iter().map(|(_, name)| name));
        }
    }
    let mut required: Vec<String> = lints_table("clippy")
        .iter()
        .map(|entry| {
            let name = entry.split('=').next().expect("lint = level").trim();
            format!("clippy::{name}")
        })
        .collect();
    required.push("unfulfilled_lint_expectations".to_string());
    for lint in required {
        assert!(
            exercised.contains(&lint),
            "no clippy fixture exercises {lint}"
        );
    }
}
