//! The fixture corpus under `tests/fixtures/`, shared by the cs-lint
//! suite (`fixtures_test`) and the clippy suite (`clippy_fixtures`).
//!
//! Fixture grammar:
//! * line 1: `// cs-lint-fixture: path = "<virtual workspace path>"` —
//!   the path drives cs-lint's policy scoping, and places the file in
//!   the clippy package (`src/`, `src/bin/`, `tests/` or `examples/`).
//!   A trailing `, clippy = true` makes the clippy suite compile it;
//! * a trailing `//~ <name>` marker on any line declares one expected
//!   finding there (repeat the marker for multiple findings on one
//!   line);
//! * `//~^ <name>` declares the finding one line UP (each extra `^`
//!   climbs one more line) — needed when the finding is on a line that
//!   cannot carry a trailing comment, e.g. a `// cs-lint: allow`
//!   annotation whose parse a suffix would corrupt;
//! * a kebab-case name is a cs-lint rule; a `clippy::<lint>` path or a
//!   snake_case rustc lint name is a compiler lint ([`is_compiler_lint`]);
//! * a fixture with no markers asserts the file is completely clean.

use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

pub fn fixture_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures dir exists")
        .map(|e| e.expect("fixture entry readable").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 20,
        "fixture corpus shrank: {} files",
        files.len()
    );
    files
}

fn header(content: &str, file: &Path) -> String {
    let first = content.lines().next().unwrap_or("");
    first
        .split_once("cs-lint-fixture:")
        .unwrap_or_else(|| panic!("{} missing fixture header", file.display()))
        .1
        .to_string()
}

/// Parses the `cs-lint-fixture: path = "..."` header.
pub fn virtual_path(content: &str, file: &Path) -> String {
    let rest = header(content, file);
    let path = rest
        .split_once('"')
        .and_then(|(_, r)| r.split_once('"'))
        .map(|(p, _)| p)
        .unwrap_or_else(|| panic!("{} has a malformed fixture header", file.display()));
    assert!(!path.is_empty());
    path.to_string()
}

/// `true` when the header opts the fixture into the clippy suite.
pub fn checked_by_clippy(content: &str, file: &Path) -> bool {
    header(content, file).contains(", clippy = true")
}

/// `true` for a clippy or rustc lint name, `false` for a cs-lint rule.
pub fn is_compiler_lint(name: &str) -> bool {
    name.contains("::") || name.contains('_')
}

/// Collects `(line, name)` expectations from `//~` / `//~^` markers.
pub fn expectations(content: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in content.lines().enumerate() {
        for piece in line.split("//~").skip(1) {
            let up = piece.chars().take_while(|&c| c == '^').count() as u32;
            let rest = &piece[up as usize..];
            let name = rest
                .trim_start()
                .split(|c: char| !(c.is_ascii_lowercase() || matches!(c, '-' | '_' | ':')))
                .next()
                .unwrap_or("")
                .to_string();
            assert!(!name.is_empty(), "empty //~ marker on line {}", i + 1);
            let line_no = i as u32 + 1;
            assert!(up < line_no, "//~^ marker climbs past line 1");
            out.push((line_no - up, name));
        }
    }
    out.sort();
    out
}
