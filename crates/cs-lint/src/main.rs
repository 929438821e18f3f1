//! CLI for the workspace determinism lint.
//!
//! ```text
//! cs-lint [--root <dir>] [--json] [--fix-annotations [--apply]]
//! ```
//!
//! Exits 0 when the scan is clean, 1 when any unannotated finding
//! exists, 2 on usage or I/O errors. `--json` mirrors the
//! `cs_bench::harness` report idiom; `--fix-annotations` prints
//! paste-ready `allow` lines for quick triage (a dry run unless
//! `--apply` is given, which writes each annotation above its finding
//! with a placeholder reason the author must then rewrite).

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a CLI reports on stdout and stderr by design"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use cs_lint::{engine, report};

struct Options {
    root: Option<PathBuf>,
    json: bool,
    fix_annotations: bool,
    apply: bool,
}

const USAGE: &str = "usage: cs-lint [--root <dir>] [--json] [--fix-annotations [--apply]]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: false,
        fix_annotations: false,
        apply: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--fix-annotations" => opts.fix_annotations = true,
            "--apply" => opts.apply = true,
            "--root" => {
                let dir = args
                    .next()
                    .ok_or_else(|| "--root needs a directory".to_string())?;
                opts.root = Some(PathBuf::from(dir));
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if opts.apply && !opts.fix_annotations {
        return Err(format!("--apply requires --fix-annotations\n{USAGE}"));
    }
    Ok(opts)
}

/// Finds the workspace root: the nearest ancestor of the current
/// directory whose `Cargo.toml` declares `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory".to_string());
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let root = match opts.root.map(Ok).unwrap_or_else(find_workspace_root) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("cs-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let scan = match engine::scan_workspace(&root) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("cs-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.fix_annotations && opts.apply {
        // Success means every finding was annotatable and is now
        // suppressed in place; unannotatable findings (malformed
        // annotations, unused allows) still need hand-editing, so they
        // keep the failure exit.
        return match engine::apply_annotations(&root, &scan.findings) {
            Ok((inserted, skipped)) => {
                println!(
                    "cs-lint --fix-annotations --apply: inserted {inserted} annotation(s); \
                     {skipped} finding(s) not annotatable (malformed-annotation / \
                     unused-allow need hand-editing)"
                );
                if skipped == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(msg) => {
                eprintln!("cs-lint: {msg}");
                ExitCode::from(2)
            }
        };
    }

    if opts.fix_annotations {
        // Re-read each flagged line untrimmed so pasted annotations
        // inherit the right indentation.
        let raw_lines: Vec<String> = scan
            .findings
            .iter()
            .map(|f| {
                std::fs::read_to_string(root.join(&f.path))
                    .map(|src| engine::raw_line(&src, f.line))
                    .unwrap_or_default()
            })
            .collect();
        print!("{}", report::fix_annotations(&scan, &raw_lines));
    } else if opts.json {
        print!("{}", report::json(&scan));
    } else {
        print!("{}", report::human(&scan));
    }

    if scan.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
