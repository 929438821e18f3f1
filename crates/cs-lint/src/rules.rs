//! The lint rules: what each one matches in the token stream and why
//! the matched pattern threatens a standing invariant (DESIGN.md §14).
//!
//! Only rules that clippy cannot express live here. The generic bans
//! (unordered maps, clock reads, thread creation, printing, bare
//! `unwrap()`) are clippy lints configured in the root `Cargo.toml`
//! and `clippy.toml`.
//!
//! Detection is purely token-level — no type information. Where a rule
//! would need types (is this `+=` an `f64`?), it uses same-file
//! evidence (`ident : f64` declarations), which works because merge
//! functions conventionally live next to the struct they merge. The
//! limits of each heuristic are documented on the rule.

use crate::lexer::{Token, TokenKind};

/// Identity of a lint rule. `malformed-annotation` and `unused-allow`
/// are reported by the engine itself and are not in this enum: they
/// cannot be suppressed.
///
/// The first two are token-level ([`detect`]); the last four are
/// semantic rules over the item graph (`crate::items` + `crate::graph`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    FloatAccumulationInMerge,
    RngDiscipline,
    TransitiveWallClock,
    TransitiveThreads,
    RngStreamCollision,
    ExhaustiveDestructure,
}

/// All rules, in reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule::FloatAccumulationInMerge,
    Rule::RngDiscipline,
    Rule::TransitiveWallClock,
    Rule::TransitiveThreads,
    Rule::RngStreamCollision,
    Rule::ExhaustiveDestructure,
];

impl Rule {
    /// The kebab-case name used in reports and `allow(...)` annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatAccumulationInMerge => "float-accumulation-in-merge",
            Rule::RngDiscipline => "rng-discipline",
            Rule::TransitiveWallClock => "transitive-wall-clock",
            Rule::TransitiveThreads => "transitive-threads",
            Rule::RngStreamCollision => "rng-stream-collision",
            Rule::ExhaustiveDestructure => "exhaustive-destructure",
        }
    }

    /// Parses an annotation rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line rationale attached to every finding.
    pub fn message(self) -> &'static str {
        match self {
            Rule::FloatAccumulationInMerge => {
                "f64 accumulation inside a merge fn: float addition is not associative, \
                 so shard merge order leaks into aggregates (the PR 8 sum bug); use \
                 integer/fixed-point accumulators"
            }
            Rule::RngDiscipline => {
                "RNG stream minted outside a scenario builder: every stream must be \
                 derivation-rooted at the master seed via labeled derive()"
            }
            Rule::TransitiveWallClock => {
                "function reaches a wall-clock read (Instant::now/SystemTime) through \
                 workspace calls: results must be a function of the seed even when the \
                 clock hides behind a helper; route timing through cs-bench"
            }
            Rule::TransitiveThreads => {
                "function reaches thread creation through workspace calls: all \
                 parallelism goes through the simcore::exec Executor seam, including \
                 indirectly via helpers"
            }
            Rule::RngStreamCollision => {
                "duplicate derive label under one parent stream: identical \
                 (parent, label) pairs alias the same RNG stream, so two call sites \
                 silently consume one byte sequence; make every label unique per parent"
            }
            Rule::ExhaustiveDestructure => {
                "merge/export/fingerprint fn must bind every field of its struct via an \
                 exhaustive destructure or literal with no `..` rest pattern, so adding \
                 a field is a compile error instead of a silent aggregation gap"
            }
        }
    }
}

/// A rule match before policy scoping and `allow` filtering.
///
/// `detail` carries per-site evidence (e.g. the call chain that reaches
/// a clock, or the line of the first duplicate label) and is appended
/// to the rule's invariant message in the report.
#[derive(Clone, Debug)]
pub struct RawFinding {
    pub rule: Rule,
    pub line: u32,
    pub col: u32,
    pub detail: Option<String>,
}

fn hit(out: &mut Vec<RawFinding>, rule: Rule, t: &Token) {
    out.push(RawFinding {
        rule,
        line: t.line,
        col: t.col,
        detail: None,
    });
}

/// Runs every rule's matcher over the comment-free token stream.
/// Scoping and suppression happen later in the engine.
pub fn detect(src: &str, code: &[Token]) -> Vec<RawFinding> {
    let text = |i: usize| code[i].text(src);
    let is = |i: usize, s: &str| i < code.len() && text(i) == s;
    let is_ident =
        |i: usize, s: &str| i < code.len() && code[i].kind == TokenKind::Ident && text(i) == s;

    // Same-file `name : f64` declarations (struct fields, lets, params):
    // the type evidence behind float-accumulation-in-merge.
    let mut f64_names: Vec<&str> = Vec::new();
    for (i, tok) in code.iter().enumerate().take(code.len().saturating_sub(2)) {
        if tok.kind == TokenKind::Ident && is(i + 1, ":") && is_ident(i + 2, "f64") {
            f64_names.push(text(i));
        }
    }

    // Body ranges (token index spans) of `fn merge*` functions. The body
    // is the first `{ ... }` after the name — signatures cannot contain
    // a bare `{` before the body in this codebase (no const-generic
    // braces in fn signatures).
    let mut merge_bodies: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if is_ident(i, "fn") && text(i + 1).starts_with("merge") {
            let mut j = i + 2;
            while j < code.len() && !is(j, "{") && !is(j, ";") {
                j += 1;
            }
            if j < code.len() && is(j, "{") {
                let mut depth = 0usize;
                let open = j;
                while j < code.len() {
                    if is(j, "{") {
                        depth += 1;
                    } else if is(j, "}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                merge_bodies.push((open, j.min(code.len())));
                i = open;
            }
        }
        i += 1;
    }
    let in_merge = |i: usize| merge_bodies.iter().any(|&(a, b)| i > a && i < b);

    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokenKind::Ident && !(t.kind == TokenKind::Punct && text(i) == "+=") {
            continue;
        }
        let w = text(i);
        match w {
            // rng-discipline: minting (`SimRng::seed_from` /
            // `SimRng::new`) or deriving (`.derive(` /
            // `.derive_indexed(`) a stream. The leading dot keeps
            // `#[derive(...)]` attributes out.
            "SimRng"
                if is(i + 1, "::") && (is_ident(i + 2, "seed_from") || is_ident(i + 2, "new")) =>
            {
                hit(&mut out, Rule::RngDiscipline, t)
            }
            "derive" | "derive_indexed" if i > 0 && is(i - 1, ".") && is(i + 1, "(") => {
                hit(&mut out, Rule::RngDiscipline, t)
            }

            // float-accumulation-in-merge, part 1: `x += …` / `self.x += …`
            // where `x` is declared `: f64` in this file.
            "+=" if in_merge(i) && i > 0 => {
                let lhs = text(i - 1);
                if code[i - 1].kind == TokenKind::Ident && f64_names.contains(&lhs) {
                    hit(&mut out, Rule::FloatAccumulationInMerge, t);
                }
            }

            // part 2: any `.sum(` / `.sum::<…>(` reduction inside a
            // merge body — summing an iterator of floats is the same
            // order-sensitivity with extra steps, and integer `.sum()`
            // has no business in a merge either (use explicit `+`).
            "sum"
                if in_merge(i)
                    && i > 0
                    && is(i - 1, ".")
                    && (is(i + 1, "(") || is(i + 1, "::")) =>
            {
                hit(&mut out, Rule::FloatAccumulationInMerge, t)
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<(Rule, u32)> {
        let toks = lex(src);
        let code: Vec<_> = toks
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        detect(src, &code)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn derive_attribute_is_not_a_stream_derive() {
        assert!(run("#[derive(Clone, Debug)]\nstruct S;").is_empty());
        assert_eq!(
            run("let c = rng.derive(\"x\");"),
            vec![(Rule::RngDiscipline, 1)]
        );
        assert_eq!(
            run("rng.derive_indexed(\"s\", 3);"),
            vec![(Rule::RngDiscipline, 1)]
        );
    }

    #[test]
    fn float_merge_needs_f64_evidence() {
        let bad =
            "struct S { sum: f64 }\nimpl S { fn merge(&mut self, o: &S) { self.sum += o.sum; } }";
        assert_eq!(run(bad), vec![(Rule::FloatAccumulationInMerge, 2)]);
        let good = "struct S { n: u64 }\nimpl S { fn merge(&mut self, o: &S) { self.n += o.n; } }";
        assert!(run(good).is_empty());
        let outside =
            "struct S { sum: f64 }\nimpl S { fn add(&mut self, v: f64) { self.sum += v; } }";
        assert!(run(outside).is_empty());
        let iter_sum = "fn merge_all(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        assert_eq!(run(iter_sum), vec![(Rule::FloatAccumulationInMerge, 1)]);
    }
}
