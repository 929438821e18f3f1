//! Crate/module policy: which rule applies where (DESIGN.md §14).
//!
//! Scoping is **deny by default**: a rule exempts named crates, files,
//! or regions, so a crate added to the workspace tomorrow is fully
//! lint-scoped without anyone editing this table (ROADMAP standing
//! rule). Paths are workspace-relative with `/` separators.

/// What kind of compilation target a file belongs to, derived from its
/// path by Cargo's layout conventions, as far as a rule's scope
/// depends on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// `tests/**` — an integration-test target.
    TestFile,
    /// `benches/**` — a bench target.
    BenchFile,
    /// Library, binary and example sources.
    Other,
}

/// Where a file sits in the workspace.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Cargo package name (directory name mapped through the rename
    /// table: `crates/bench` → `cs-bench`, `crates/core` →
    /// `circuitstart`; the workspace root is `circuitstart-repro`).
    pub krate: String,
    pub kind: TargetKind,
}

/// Package renames: crate directory → package name.
const CRATE_RENAMES: &[(&str, &str)] = &[("bench", "cs-bench"), ("core", "circuitstart")];

/// Classifies a workspace-relative `.rs` path.
pub fn classify(rel_path: &str) -> FileCtx {
    let (krate, within) = match rel_path.strip_prefix("crates/") {
        Some(rest) => {
            let (dir, within) = rest.split_once('/').unwrap_or((rest, ""));
            let name = CRATE_RENAMES
                .iter()
                .find(|(d, _)| *d == dir)
                .map(|(_, n)| *n)
                .unwrap_or(dir);
            (name.to_string(), within.to_string())
        }
        None => ("circuitstart-repro".to_string(), rel_path.to_string()),
    };
    let kind = if within.starts_with("tests/") {
        TargetKind::TestFile
    } else if within.starts_with("benches/") {
        TargetKind::BenchFile
    } else {
        TargetKind::Other
    };
    FileCtx {
        rel_path: rel_path.to_string(),
        krate,
        kind,
    }
}

/// Crates whose state is *not* fingerprint-visible, and therefore exempt
/// from `exhaustive-destructure`:
/// * `netsim` / `circuitstart` (core) — pure functions of their inputs,
///   nothing they merge feeds `WorldFingerprint`;
/// * `cs-bench` / `cs-lint` — tooling, never inside a simulated world;
/// * `circuitstart-repro` — the root package (integration tests pin
///   fingerprints but do not produce them).
///
/// Every other crate — present or future — is in scope.
const NOT_FINGERPRINT_VISIBLE: &[&str] = &[
    "netsim",
    "circuitstart",
    "cs-bench",
    "cs-lint",
    "circuitstart-repro",
];

/// Files allowed to create or derive RNG streams outside tests: the RNG
/// home module and the scenario builders, where every stream is minted
/// from the master seed with a stable label (DESIGN.md §14).
const RNG_BUILDER_FILES: &[&str] = &[
    "crates/simcore/src/rng.rs",
    "crates/relaynet/src/builder.rs",
    "crates/relaynet/src/runtime.rs",
];

/// The executor seam: the one module whose thread creation (a clippy
/// `#[expect]`) does not count as reaching a thread sink.
const THREAD_HOME: &str = "crates/simcore/src/exec.rs";

/// Decides whether `rule` applies at a site.
///
/// `test_code` is true for integration-test files and for `#[cfg(test)]`
/// / `#[test]` regions inside any file.
pub fn rule_applies(rule: crate::rules::Rule, ctx: &FileCtx, test_code: bool) -> bool {
    use crate::rules::Rule::*;
    match rule {
        // The PR 8 bug class: order-sensitive f64 accumulation in merge
        // functions. No exemptions — a test merging floats is as
        // order-sensitive as a shard aggregator.
        FloatAccumulationInMerge => true,
        // Streams are minted by scenario builders and tests only;
        // everything else must take a stream it was handed. Bench
        // targets are top-level experiment drivers: the pinned seed in a
        // bench *is* that experiment's master seed, so minting there is
        // the rooted case, not a leak.
        RngDiscipline => {
            !test_code
                && ctx.kind != TargetKind::BenchFile
                && !RNG_BUILDER_FILES.contains(&ctx.rel_path.as_str())
        }
        // The transitive closures exempt the two homes of the sinks —
        // cs-bench for the clock, the executor seam for threads — and
        // test code: a test calling a timing/watchdog helper is not a
        // determinism leak (world state never flows through it). The
        // direct sinks themselves are clippy's `disallowed_methods`.
        TransitiveWallClock => !test_code && ctx.krate != "cs-bench",
        TransitiveThreads => !test_code && ctx.rel_path != THREAD_HOME,
        // Aliased RNG streams are a bug wherever they happen — builder
        // files and tests included: two sites consuming one stream
        // break bit-identity pins no matter who minted the parent.
        RngStreamCollision => true,
        // Exhaustive binding is enforced in crates whose state feeds
        // `WorldFingerprint` or mergeable telemetry. Tooling crates keep
        // ad-hoc merges.
        ExhaustiveDestructure => !NOT_FINGERPRINT_VISIBLE.contains(&ctx.krate.as_str()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    #[test]
    fn classification_by_layout() {
        let c = classify("crates/relaynet/src/network/mod.rs");
        assert_eq!((c.krate.as_str(), c.kind), ("relaynet", TargetKind::Other));
        let c = classify("crates/bench/src/bin/ablations.rs");
        assert_eq!((c.krate.as_str(), c.kind), ("cs-bench", TargetKind::Other));
        let c = classify("crates/core/src/lib.rs");
        assert_eq!(
            (c.krate.as_str(), c.kind),
            ("circuitstart", TargetKind::Other)
        );
        let c = classify("tests/queue_equivalence.rs");
        assert_eq!(
            (c.krate.as_str(), c.kind),
            ("circuitstart-repro", TargetKind::TestFile)
        );
        let c = classify("examples/quickstart.rs");
        assert_eq!(c.kind, TargetKind::Other);
        let c = classify("crates/simcore/benches/x.rs");
        assert_eq!(c.kind, TargetKind::BenchFile);
    }

    #[test]
    fn unknown_crates_are_scoped_by_default() {
        let c = classify("crates/newcrate/src/lib.rs");
        assert!(rule_applies(Rule::RngDiscipline, &c, false));
        assert!(rule_applies(Rule::TransitiveWallClock, &c, false));
        assert!(rule_applies(Rule::ExhaustiveDestructure, &c, false));
    }

    #[test]
    fn scoping_edges() {
        let builder = classify("crates/relaynet/src/builder.rs");
        assert!(!rule_applies(Rule::RngDiscipline, &builder, false));
        let bench_target = classify("crates/bench/benches/bench_overlay.rs");
        assert!(!rule_applies(Rule::RngDiscipline, &bench_target, false));
        let sel = classify("crates/relaynet/src/selection.rs");
        assert!(rule_applies(Rule::RngDiscipline, &sel, false));
        assert!(!rule_applies(Rule::RngDiscipline, &sel, true));

        // Float accumulation in a merge has no exemptions, tests included.
        let net = classify("crates/netsim/src/lib.rs");
        assert!(rule_applies(Rule::FloatAccumulationInMerge, &net, true));
    }

    #[test]
    fn semantic_rule_scoping() {
        let sel = classify("crates/relaynet/src/selection.rs");
        assert!(rule_applies(Rule::TransitiveWallClock, &sel, false));
        assert!(!rule_applies(Rule::TransitiveWallClock, &sel, true));
        assert!(rule_applies(Rule::TransitiveThreads, &sel, false));
        let bench = classify("crates/bench/src/harness.rs");
        assert!(!rule_applies(Rule::TransitiveWallClock, &bench, false));
        assert!(rule_applies(Rule::TransitiveThreads, &bench, false));
        let exec = classify("crates/simcore/src/exec.rs");
        assert!(!rule_applies(Rule::TransitiveThreads, &exec, false));
        assert!(rule_applies(Rule::TransitiveWallClock, &exec, false));

        // Collisions have no exemptions at all — builders and tests
        // included.
        let builder = classify("crates/relaynet/src/builder.rs");
        assert!(rule_applies(Rule::RngStreamCollision, &builder, false));
        assert!(rule_applies(Rule::RngStreamCollision, &builder, true));

        // Exhaustive destructure follows the fingerprint-visibility set.
        let stats = classify("crates/simstats/src/summary.rs");
        assert!(rule_applies(Rule::ExhaustiveDestructure, &stats, false));
        let lint = classify("crates/cs-lint/src/report.rs");
        assert!(!rule_applies(Rule::ExhaustiveDestructure, &lint, false));
    }
}
