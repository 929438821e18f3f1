//! The workspace symbol table, conservative call graph, and the four
//! semantic rules built on them (DESIGN.md §14):
//!
//! * `transitive-wall-clock` / `transitive-threads` — reverse
//!   reachability from clock/thread sink sites over resolved call
//!   edges;
//! * `rng-stream-collision` — duplicate `derive("…")` labels under one
//!   parent stream in one function;
//! * `exhaustive-destructure` — `fn merge*` / `fn export*` /
//!   fingerprint constructors over workspace structs must bind fields
//!   through an exhaustive `Self { … }` pattern or literal with no
//!   `..` rest.
//!
//! # Conservatism
//!
//! Every resolution step prefers *no edge* over a guessed edge, so the
//! graph under-approximates reachability and the transitive rules never
//! fire on a call the resolver is not sure about:
//!
//! * trait dispatch is opaque — a method name defined more than once
//!   (e.g. `execute` on both executors) resolves to nothing;
//! * closures are opaque — calls through a stored closure produce no
//!   edge;
//! * cross-crate matches require a declared path dependency between the
//!   caller's and callee's packages (no edge into a crate the caller
//!   cannot even link);
//! * qualified calls (`foo::bar(…)`) resolve only against workspace
//!   owners/modules — `std`-qualified calls never accidentally match a
//!   workspace function of the same name.
//!
//! The one over-approximation: a *method* call `x.name(…)` whose name
//! is unique across the workspace is assumed to target that method even
//! though `x`'s type is unknown. Shared names with std methods
//! (`push`, `len`, `insert`, …) are near-always multiply defined or
//! filtered by the dependency check, and a false edge costs one
//! spurious-but-annotatable finding, never a missed one.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::ItemIndex;
use crate::lexer::{Token, TokenKind};
use crate::rules::{RawFinding, Rule};

/// One file's view into the workspace analysis.
pub struct FileView<'a> {
    pub rel_path: &'a str,
    /// Cargo package name ([`crate::policy::classify`]).
    pub krate: &'a str,
    pub src: &'a str,
    /// Comment-free token stream.
    pub code: &'a [Token],
    pub items: &'a ItemIndex,
}

/// package name → packages it depends on (directly).
pub type DepMap = BTreeMap<String, BTreeSet<String>>;

/// A function key: (file index, fn index within that file's items).
type FnKey = (usize, usize);

/// What a reachability sink is, for the two transitive rules.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sink {
    WallClock,
    Threads,
}

impl Sink {
    fn rule(self) -> Rule {
        match self {
            Sink::WallClock => Rule::TransitiveWallClock,
            Sink::Threads => Rule::TransitiveThreads,
        }
    }
    fn label(self) -> &'static str {
        match self {
            Sink::WallClock => "a wall-clock read",
            Sink::Threads => "thread creation",
        }
    }
}

/// Keywords and control-flow idents that look like calls when followed
/// by `(` but never are.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "as", "where", "unsafe",
    "let", "else", "break", "continue", "await", "box", "yield", "dyn", "ref", "mut", "pub",
    "impl", "use", "mod", "struct", "enum", "trait", "type", "const", "static", "crate", "super",
];

/// Runs the whole item-graph analysis over the workspace files and
/// returns `(file index, raw finding)` pairs for the engine to scope
/// and suppress like any token-level finding.
pub fn analyze(files: &[FileView<'_>], deps: Option<&DepMap>) -> Vec<(usize, RawFinding)> {
    let an = Analysis::build(files, deps);
    let mut out = Vec::new();
    an.transitive_findings(&mut out);
    an.rng_collision_findings(&mut out);
    an.exhaustive_destructure_findings(&mut out);
    out
}

struct Analysis<'a> {
    files: &'a [FileView<'a>],
    /// Transitive dependency closure per package (reflexive).
    dep_closure: Option<BTreeMap<&'a str, BTreeSet<&'a str>>>,
    /// fn name → every definition with that name.
    by_name: BTreeMap<&'a str, Vec<FnKey>>,
    /// struct name → every definition with that name.
    struct_by_name: BTreeMap<&'a str, Vec<(usize, usize)>>,
    /// Resolved call edges: caller → callees (with the call-site token).
    calls: BTreeMap<FnKey, Vec<(FnKey, usize)>>,
    /// Functions whose bodies contain a sink directly.
    direct: BTreeMap<FnKey, Vec<Sink>>,
}

impl<'a> Analysis<'a> {
    fn build(files: &'a [FileView<'a>], deps: Option<&'a DepMap>) -> Analysis<'a> {
        let dep_closure = deps.map(|d| {
            let mut closure: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
            for name in d.keys() {
                let mut seen: BTreeSet<&str> = BTreeSet::new();
                let mut stack = vec![name.as_str()];
                while let Some(n) = stack.pop() {
                    if seen.insert(n) {
                        if let Some(next) = d.get(n) {
                            stack.extend(next.iter().map(String::as_str));
                        }
                    }
                }
                closure.insert(name.as_str(), seen);
            }
            closure
        });

        let mut by_name: BTreeMap<&str, Vec<FnKey>> = BTreeMap::new();
        let mut struct_by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.items.fns.iter().enumerate() {
                by_name.entry(&f.name).or_default().push((fi, gi));
            }
            for (si, s) in file.items.structs.iter().enumerate() {
                struct_by_name.entry(&s.name).or_default().push((fi, si));
            }
        }

        let mut an = Analysis {
            files,
            dep_closure,
            by_name,
            struct_by_name,
            calls: BTreeMap::new(),
            direct: BTreeMap::new(),
        };
        an.extract_calls_and_sinks();
        an
    }

    /// `true` when a file in package `from` may link symbols of `to`.
    fn linkable(&self, from: &str, to: &str) -> bool {
        if from == to {
            return true;
        }
        match &self.dep_closure {
            None => true, // no manifest knowledge: single-file scans
            Some(c) => c.get(from).is_some_and(|set| set.contains(to)),
        }
    }

    fn extract_calls_and_sinks(&mut self) {
        let mut calls: BTreeMap<FnKey, Vec<(FnKey, usize)>> = BTreeMap::new();
        let mut direct: BTreeMap<FnKey, Vec<Sink>> = BTreeMap::new();
        for (fi, file) in self.files.iter().enumerate() {
            let text = |i: usize| file.code.get(i).map(|t| t.text(file.src)).unwrap_or("");
            for (i, tok) in file.code.iter().enumerate() {
                if tok.kind != TokenKind::Ident {
                    continue;
                }
                let Some(gi) = file.items.enclosing_fn(i) else {
                    continue;
                };
                let caller = (fi, gi);
                let w = tok.text(file.src);
                // Direct sink sites: the spelled-out clock and thread
                // paths that clippy bans.
                if (w == "Instant" && text(i + 1) == "::" && text(i + 2) == "now")
                    || w == "SystemTime"
                {
                    direct.entry(caller).or_default().push(Sink::WallClock);
                }
                if w == "thread" && text(i + 1) == "::" && matches!(text(i + 2), "spawn" | "scope")
                {
                    direct.entry(caller).or_default().push(Sink::Threads);
                }
                // Call sites: `name(` that is not a declaration/keyword.
                if text(i + 1) != "(" || NON_CALL_IDENTS.contains(&w) {
                    continue;
                }
                if i > 0 && text(i - 1) == "fn" {
                    continue;
                }
                if let Some(callee) = self.resolve_call(fi, i) {
                    if callee != caller {
                        calls.entry(caller).or_default().push((callee, i));
                    }
                }
            }
        }
        self.calls = calls;
        self.direct = direct;
    }

    /// Resolves the call whose name token is `code[i]` in file `fi`, or
    /// `None` when the target is ambiguous/unknown (opaque).
    fn resolve_call(&self, fi: usize, i: usize) -> Option<FnKey> {
        let file = &self.files[fi];
        let text = |j: usize| file.code.get(j).map(|t| t.text(file.src)).unwrap_or("");
        let name = text(i);
        let caller_gi = file.items.enclosing_fn(i);

        if i > 0 && text(i - 1) == "::" {
            // Qualified call: collect the path segments before the name.
            let mut segs: Vec<&str> = Vec::new();
            let mut j = i;
            while j >= 2 && text(j - 1) == "::" {
                let seg = text(j - 2);
                if file.code[j - 2].kind != TokenKind::Ident {
                    break;
                }
                segs.push(seg);
                j -= 2;
            }
            // Generic turbofish (`Vec::<u8>::new`) or malformed: opaque.
            let last = *segs.first()?;
            return self.resolve_qualified(fi, caller_gi, last, name);
        }
        if i > 0 && text(i - 1) == "." {
            // Method call on an unknown receiver.
            let self_recv = i >= 2 && text(i - 2) == "self" && text(i - 3) != ".";
            return self.resolve_method(fi, caller_gi, name, self_recv);
        }
        // Bare call: free functions only.
        self.resolve_bare(fi, name)
    }

    /// `Owner::name(…)` / `module::name(…)` / `self::name(…)`.
    fn resolve_qualified(
        &self,
        fi: usize,
        caller_gi: Option<usize>,
        qualifier: &str,
        name: &str,
    ) -> Option<FnKey> {
        let file = &self.files[fi];
        let q: &str = match qualifier {
            "Self" => {
                let gi = caller_gi?;
                file.items.fns[gi].owner.as_deref()?
            }
            "self" | "crate" | "super" => {
                // Crate-local free function.
                return self.unique(name, |k| {
                    self.files[k.0].krate == file.krate && self.fn_of(k).owner.is_none()
                });
            }
            other => file.items.resolve_alias(other),
        };
        // Associated function of a workspace type…
        let owned = self.unique(name, |k| {
            self.fn_of(k).owner.as_deref() == Some(q)
                && self.linkable(file.krate, self.files[k.0].krate)
        });
        if owned.is_some() {
            return owned;
        }
        // …or a free function in a module whose file stem / inline mod
        // path matches the qualifier.
        self.unique(name, |k| {
            let def_file = &self.files[k.0];
            let f = self.fn_of(k);
            f.owner.is_none()
                && self.linkable(file.krate, def_file.krate)
                && (file_stem(def_file.rel_path) == q || f.module.iter().any(|m| m == q))
        })
    }

    /// `x.name(…)`: unique method match, same-owner first for `self.`.
    fn resolve_method(
        &self,
        fi: usize,
        caller_gi: Option<usize>,
        name: &str,
        self_recv: bool,
    ) -> Option<FnKey> {
        let file = &self.files[fi];
        if self_recv {
            if let Some(owner) = caller_gi.and_then(|gi| file.items.fns[gi].owner.as_deref()) {
                let same_owner = self.unique(name, |k| {
                    self.fn_of(k).owner.as_deref() == Some(owner)
                        && self.files[k.0].krate == file.krate
                });
                if same_owner.is_some() {
                    return same_owner;
                }
            }
        }
        self.unique(name, |k| {
            self.fn_of(k).owner.is_some() && self.linkable(file.krate, self.files[k.0].krate)
        })
    }

    /// `name(…)`: same-file, then same-crate, then dep-visible unique.
    /// The first level with any candidate decides — two same-file
    /// definitions are ambiguous, not an excuse to widen the search.
    fn resolve_bare(&self, fi: usize, name: &str) -> Option<FnKey> {
        let file = &self.files[fi];
        let free = |k: &FnKey| self.fn_of(*k).owner.is_none();
        let levels: [&dyn Fn(&FnKey) -> bool; 3] = [
            &|k| k.0 == fi && free(k),
            &|k| self.files[k.0].krate == file.krate && free(k),
            &|k| self.linkable(file.krate, self.files[k.0].krate) && free(k),
        ];
        for filter in levels {
            let mut hits = self
                .by_name
                .get(name)
                .map(|v| v.iter().filter(|k| filter(k)))
                .into_iter()
                .flatten();
            if let Some(first) = hits.next() {
                return hits.next().is_none().then_some(*first);
            }
        }
        None
    }

    /// The single definition of `name` passing `filter`, if exactly one.
    fn unique(&self, name: &str, filter: impl Fn(FnKey) -> bool) -> Option<FnKey> {
        let mut hits = self
            .by_name
            .get(name)?
            .iter()
            .copied()
            .filter(|&k| filter(k));
        let first = hits.next()?;
        hits.next().is_none().then_some(first)
    }

    fn fn_of(&self, k: FnKey) -> &crate::items::FnItem {
        &self.files[k.0].items.fns[k.1]
    }

    /// Display name for a function in chains: `Owner::name` or `name`.
    fn display(&self, k: FnKey) -> String {
        let f = self.fn_of(k);
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Emits transitive-wall-clock / transitive-threads findings at the
    /// call sites through which a non-sink function reaches a sink.
    fn transitive_findings(&self, out: &mut Vec<(usize, RawFinding)>) {
        for sink in [Sink::WallClock, Sink::Threads] {
            // Reverse BFS from direct-sink fns; `via` records each
            // reacher's first hop toward the sink for the message chain.
            let mut reaches: BTreeSet<FnKey> = BTreeSet::new();
            let mut via: BTreeMap<FnKey, FnKey> = BTreeMap::new();
            let mut frontier: Vec<FnKey> = self
                .direct
                .iter()
                .filter(|(_, sinks)| sinks.contains(&sink))
                .map(|(&k, _)| k)
                .collect();
            reaches.extend(frontier.iter().copied());
            while let Some(target) = frontier.pop() {
                for (&caller, callees) in &self.calls {
                    if reaches.contains(&caller) {
                        continue;
                    }
                    if callees.iter().any(|&(callee, _)| callee == target) {
                        reaches.insert(caller);
                        via.insert(caller, target);
                        frontier.push(caller);
                    }
                }
            }
            // A direct sink is clippy's `disallowed_methods` finding
            // (or its `#[expect]`); the transitive rule covers the
            // *callers*, which clippy never sees.
            for (&caller, callees) in &self.calls {
                if self.direct.get(&caller).is_some_and(|s| s.contains(&sink)) {
                    continue;
                }
                if !reaches.contains(&caller) {
                    continue;
                }
                let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
                for &(callee, tok) in callees {
                    if !reaches.contains(&callee) {
                        continue;
                    }
                    let t = &self.files[caller.0].code[tok];
                    if !seen_lines.insert(t.line) {
                        continue;
                    }
                    let mut chain = vec![self.display(callee)];
                    let mut cur = callee;
                    while let Some(&next) = via.get(&cur) {
                        chain.push(self.display(next));
                        cur = next;
                    }
                    out.push((
                        caller.0,
                        RawFinding {
                            rule: sink.rule(),
                            line: t.line,
                            col: t.col,
                            detail: Some(format!(
                                "`{}` reaches {} via {}",
                                self.display(caller),
                                sink.label(),
                                chain.join(" -> "),
                            )),
                        },
                    ));
                }
            }
        }
    }

    /// Duplicate `derive`/`derive_indexed` labels on one receiver inside
    /// one function: bit-identical aliased RNG streams.
    fn rng_collision_findings(&self, out: &mut Vec<(usize, RawFinding)>) {
        for (fi, file) in self.files.iter().enumerate() {
            let text = |i: usize| file.code.get(i).map(|t| t.text(file.src)).unwrap_or("");
            // (enclosing fn, receiver, indexed?, index literal, label) → first line
            let mut seen: BTreeMap<(usize, String, bool, String, String), u32> = BTreeMap::new();
            for (i, tok) in file.code.iter().enumerate() {
                if tok.kind != TokenKind::Ident {
                    continue;
                }
                let w = tok.text(file.src);
                let indexed = match w {
                    "derive" => false,
                    "derive_indexed" => true,
                    _ => continue,
                };
                if i == 0 || text(i - 1) != "." || text(i + 1) != "(" {
                    continue;
                }
                let Some(gi) = file.items.enclosing_fn(i) else {
                    continue;
                };
                // First argument must be a string literal (the label);
                // dynamic labels are opaque.
                let label_tok = i + 2;
                if file.code.get(label_tok).map(|t| t.kind) != Some(TokenKind::StrLit) {
                    continue;
                }
                // For derive_indexed, a literal index makes the stream
                // key fully static; a runtime index is the intended
                // disambiguator and exempts the site.
                let mut index_lit = String::new();
                if indexed {
                    if text(label_tok + 1) != "," {
                        continue;
                    }
                    let idx_tok = label_tok + 2;
                    let closes = text(idx_tok + 1) == ")";
                    if !(closes
                        && file.code.get(idx_tok).map(|t| t.kind) == Some(TokenKind::NumLit))
                    {
                        continue;
                    }
                    index_lit = text(idx_tok).to_string();
                }
                // The parent stream: the `.`-chain receiver before the
                // call. Anything but plain `ident(.ident)*` (or `self.…`)
                // is opaque.
                let Some(receiver) = receiver_chain(file.src, file.code, i - 1) else {
                    continue;
                };
                let label = text(label_tok).to_string();
                let key = (gi, receiver.clone(), indexed, index_lit, label.clone());
                match seen.get(&key) {
                    None => {
                        seen.insert(key, tok.line);
                    }
                    Some(&first) => {
                        out.push((
                            fi,
                            RawFinding {
                                rule: Rule::RngStreamCollision,
                                line: tok.line,
                                col: tok.col,
                                detail: Some(format!(
                                    "label {label} on parent `{receiver}` already used at line \
                                     {first}; identical (parent, label) pairs alias the same \
                                     stream bit-for-bit",
                                )),
                            },
                        ));
                    }
                }
            }
        }
    }

    /// `fn merge*` / `fn export*` / `fn fingerprint*` over a workspace
    /// struct with named fields must contain an exhaustive `Self { … }`
    /// (or `TypeName { … }`) binding with no `..` rest.
    fn exhaustive_destructure_findings(&self, out: &mut Vec<(usize, RawFinding)>) {
        for (fi, file) in self.files.iter().enumerate() {
            for f in &file.items.fns {
                let is_merge_like = f.name.starts_with("merge") || f.name.starts_with("export");
                let is_fingerprint = f.name.starts_with("fingerprint");
                if !is_merge_like && !is_fingerprint {
                    continue;
                }
                let Some((open, close)) = f.body else {
                    continue;
                };
                // The struct whose fields must all be bound: the impl
                // target for merge/export, the impl target or the return
                // type for fingerprint constructors.
                let candidates: Vec<&str> = if is_merge_like {
                    f.owner.as_deref().into_iter().collect()
                } else {
                    f.owner
                        .as_deref()
                        .into_iter()
                        .chain(f.ret.as_deref())
                        .collect()
                };
                let Some(struct_name) = candidates.iter().copied().find(|n| {
                    self.lookup_struct(file.krate, n)
                        .is_some_and(|s| s.named_fields)
                }) else {
                    continue; // tuple struct, foreign type, plain value: opaque
                };
                match scan_destructure(file.src, file.code, open, close, struct_name) {
                    DestructureState::Exhaustive => {}
                    DestructureState::Missing => out.push((
                        fi,
                        RawFinding {
                            rule: Rule::ExhaustiveDestructure,
                            line: f.line,
                            col: f.col,
                            detail: Some(format!(
                                "`{}` over struct `{struct_name}` never binds its fields with \
                                 `let Self {{ … }}`, so a new field silently escapes the \
                                 merge/export/fingerprint path",
                                f.name,
                            )),
                        },
                    )),
                    DestructureState::RestPattern(line, col) => out.push((
                        fi,
                        RawFinding {
                            rule: Rule::ExhaustiveDestructure,
                            line,
                            col,
                            detail: Some(format!(
                                "`..` rest pattern in `{}` defeats exhaustiveness over \
                                 `{struct_name}`: a new field no longer breaks the build here",
                                f.name,
                            )),
                        },
                    )),
                }
            }
        }
    }

    /// The workspace struct `name` visible from `krate`: same-crate
    /// definition first, then a workspace-unique one.
    fn lookup_struct(&self, krate: &str, name: &str) -> Option<&crate::items::StructItem> {
        let defs = self.struct_by_name.get(name)?;
        let same_crate: Vec<_> = defs
            .iter()
            .filter(|(fi, _)| self.files[*fi].krate == krate)
            .collect();
        let pick = match same_crate.as_slice() {
            [one] => **one,
            [] if defs.len() == 1 => defs[0],
            _ => return None, // ambiguous: opaque
        };
        Some(&self.files[pick.0].items.structs[pick.1])
    }
}

/// Module name a file defines: the stem, or the directory name for
/// `mod.rs` (`crates/relaynet/src/network/mod.rs` → `network`).
fn file_stem(rel_path: &str) -> &str {
    let mut parts = rel_path.rsplit('/');
    let file = parts.next().unwrap_or(rel_path);
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    if stem == "mod" {
        parts.next().unwrap_or(stem)
    } else {
        stem
    }
}

/// `a.b.c` receiver chain ending at the `.` token `dot`, or `None` when
/// the receiver is an expression (call result, index, …).
fn receiver_chain(src: &str, code: &[Token], dot: usize) -> Option<String> {
    let text = |i: usize| code.get(i).map(|t| t.text(src)).unwrap_or("");
    let mut parts: Vec<&str> = Vec::new();
    let mut j = dot; // points at the `.`
    loop {
        if j == 0 {
            return None;
        }
        let prev = j - 1;
        if code[prev].kind != TokenKind::Ident {
            return None;
        }
        parts.push(text(prev));
        if prev == 0 {
            break;
        }
        if text(prev - 1) == "." {
            j = prev - 1;
            continue;
        }
        break;
    }
    parts.reverse();
    Some(parts.join("."))
}

enum DestructureState {
    Exhaustive,
    Missing,
    /// Line/col of the offending `..`.
    RestPattern(u32, u32),
}

/// Scans a fn body for `Self { … }` / `Name { … }` groups and decides
/// whether at least one is an exhaustive binding. `..` counts as a rest
/// pattern only at the group's top nesting level and only in pattern
/// position (after `{` or `,`), so ranges like `(0..n)` inside field
/// expressions stay invisible.
fn scan_destructure(
    src: &str,
    code: &[Token],
    open: usize,
    close: usize,
    struct_name: &str,
) -> DestructureState {
    let text = |i: usize| code.get(i).map(|t| t.text(src)).unwrap_or("");
    let mut first_rest: Option<(u32, u32)> = None;
    let mut i = open + 1;
    while i < close {
        let w = text(i);
        if code[i].kind == TokenKind::Ident
            && (w == "Self" || w == struct_name)
            && text(i + 1) == "{"
        {
            let gopen = i + 1;
            let mut depth = 0i32;
            let mut rest: Option<(u32, u32)> = None;
            let mut j = gopen;
            while j <= close {
                match text(j) {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ".." | "..="
                        if depth == 1 && rest.is_none() && matches!(text(j - 1), "{" | ",") =>
                    {
                        rest = Some((code[j].line, code[j].col));
                    }
                    _ => {}
                }
                j += 1;
            }
            match rest {
                None => return DestructureState::Exhaustive,
                Some(at) => {
                    first_rest.get_or_insert(at);
                    i = j;
                }
            }
        }
        i += 1;
    }
    match first_rest {
        Some((line, col)) => DestructureState::RestPattern(line, col),
        None => DestructureState::Missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::lexer::code_tokens;

    struct Owned {
        rel_path: String,
        krate: String,
        src: String,
        code: Vec<Token>,
        items: ItemIndex,
    }

    fn prep(rel_path: &str, src: &str) -> Owned {
        let code = code_tokens(src);
        let items = items::parse(src, &code);
        Owned {
            rel_path: rel_path.to_string(),
            krate: crate::policy::classify(rel_path).krate,
            src: src.to_string(),
            code,
            items,
        }
    }

    fn run(files: &[Owned], deps: Option<&DepMap>) -> Vec<(usize, Rule, u32)> {
        let views: Vec<FileView<'_>> = files
            .iter()
            .map(|o| FileView {
                rel_path: &o.rel_path,
                krate: &o.krate,
                src: &o.src,
                code: &o.code,
                items: &o.items,
            })
            .collect();
        analyze(&views, deps)
            .into_iter()
            .map(|(fi, f)| (fi, f.rule, f.line))
            .collect()
    }

    #[test]
    fn transitive_reachability_fires_at_the_call_site() {
        let f = prep(
            "crates/relaynet/src/x.rs",
            "\
fn stamp() -> u64 { let _ = std::time::Instant::now(); 0 }
fn caller() -> u64 { stamp() }
fn upper() -> u64 { caller() + 1 }
",
        );
        let got = run(&[f], None);
        // `stamp` is a direct sink (token rule, not transitive); the
        // chain above it fires once per caller.
        assert_eq!(
            got,
            vec![
                (0, Rule::TransitiveWallClock, 2),
                (0, Rule::TransitiveWallClock, 3)
            ]
        );
    }

    #[test]
    fn ambiguous_names_are_opaque() {
        let f = prep(
            "crates/simcore/src/x.rs",
            "\
struct A; struct B;
impl A { fn execute(&self) { std::thread::spawn(|| ()); } }
impl B { fn execute(&self) {} }
fn go(x: &B) { x.execute(); }
",
        );
        let got = run(&[f], None);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn cross_crate_edges_need_a_declared_dependency() {
        let callee = prep(
            "crates/bench/src/clockwork.rs",
            "pub fn tick() -> u64 { let t = std::time::Instant::now(); 0 }",
        );
        let caller = prep(
            "crates/relaynet/src/y.rs",
            "pub fn wraps() -> u64 { tick() }",
        );
        // relaynet does not depend on cs-bench: no edge, no finding.
        let mut deps = DepMap::new();
        deps.insert("relaynet".into(), ["simcore".to_string()].into());
        deps.insert("cs-bench".into(), BTreeSet::new());
        let got = run(&[callee, caller], Some(&deps));
        assert!(got.is_empty(), "{got:?}");

        // With the dependency declared, the edge exists and fires.
        let callee = prep(
            "crates/simcore/src/clockwork.rs",
            "pub fn tick() -> u64 { let t = std::time::Instant::now(); 0 }",
        );
        let caller = prep(
            "crates/relaynet/src/y.rs",
            "pub fn wraps() -> u64 { tick() }",
        );
        let got = run(&[callee, caller], Some(&deps));
        assert_eq!(got, vec![(1, Rule::TransitiveWallClock, 1)]);
    }

    #[test]
    fn rng_collisions_key_on_parent_and_label() {
        let f = prep(
            "crates/relaynet/src/z.rs",
            "\
fn build(master: &SimRng, other: &SimRng) {
    let a = master.derive(\"alpha\");
    let b = master.derive(\"beta\");
    let c = other.derive(\"alpha\");
    let d = master.derive(\"alpha\");
}
",
        );
        let got = run(&[f], None);
        assert_eq!(got, vec![(0, Rule::RngStreamCollision, 5)]);
    }

    #[test]
    fn sibling_fns_and_indexed_streams_do_not_collide() {
        let f = prep(
            "crates/relaynet/src/z.rs",
            "\
fn one(master: &SimRng) { let a = master.derive(\"shared\"); }
fn two(master: &SimRng) { let a = master.derive(\"shared\"); }
fn idx(master: &SimRng, i: u64) {
    let a = master.derive_indexed(\"relay\", 0);
    let b = master.derive_indexed(\"relay\", 1);
    let c = master.derive_indexed(\"relay\", i);
    let d = master.derive_indexed(\"relay\", i);
}
",
        );
        let got = run(&[f], None);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn indexed_literal_duplicates_do_collide() {
        let f = prep(
            "crates/relaynet/src/z.rs",
            "\
fn idx(master: &SimRng) {
    let a = master.derive_indexed(\"relay\", 0);
    let b = master.derive_indexed(\"relay\", 0);
}
",
        );
        let got = run(&[f], None);
        assert_eq!(got, vec![(0, Rule::RngStreamCollision, 3)]);
    }

    #[test]
    fn merge_without_destructure_fires_on_the_fn_line() {
        let f = prep(
            "crates/simstats/src/m.rs",
            "\
pub struct Agg { total: u64, count: u64 }
impl Agg {
    pub fn merge(&mut self, other: &Agg) {
        self.total += other.total;
        self.count += other.count;
    }
}
",
        );
        let got = run(&[f], None);
        assert_eq!(got, vec![(0, Rule::ExhaustiveDestructure, 3)]);
    }

    #[test]
    fn destructured_merge_is_clean_and_ranges_are_not_rest_patterns() {
        let f = prep(
            "crates/simstats/src/m.rs",
            "\
pub struct Agg { total: u64, count: u64 }
impl Agg {
    pub fn merge(&mut self, other: &Agg) {
        let Agg { total, count } = *other;
        self.total += total;
        self.count += count;
    }
}
pub struct Fp { ids: Vec<u64> }
pub fn fingerprint(n: u64) -> Fp {
    Fp { ids: (0..n).collect() }
}
",
        );
        let got = run(&[f], None);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn rest_pattern_fires_on_the_dotdot_line() {
        let f = prep(
            "crates/simstats/src/m.rs",
            "\
pub struct Agg { total: u64, count: u64 }
impl Agg {
    pub fn merge(&mut self, other: &Agg) {
        let Agg { total, .. } = *other;
        self.total += total;
    }
}
",
        );
        let got = run(&[f], None);
        assert_eq!(got, vec![(0, Rule::ExhaustiveDestructure, 4)]);
    }

    #[test]
    fn tuple_and_foreign_structs_are_opaque() {
        let f = prep(
            "crates/simstats/src/m.rs",
            "\
pub struct Pair(u64, u64);
impl Pair {
    pub fn merge(&mut self, other: &Pair) { self.0 += other.0; }
}
impl External {
    pub fn merge(&mut self, other: &External) { self.join(other); }
}
",
        );
        let got = run(&[f], None);
        assert!(got.is_empty(), "{got:?}");
    }
}
