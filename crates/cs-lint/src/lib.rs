//! `cs-lint` — the workspace's determinism-and-invariant lint
//! (DESIGN.md §14).
//!
//! Every guarantee this reproduction makes — bit-exact
//! `WorldFingerprint` equality across queue/sampler/executor seams,
//! merge-order-invariant telemetry, derivation-rooted RNG streams — is
//! otherwise enforced only at runtime by differential suites, which
//! means a nondeterminism leak survives until a test happens to take
//! the path that exposes it (PR 8's f64 merge-sum drift did exactly
//! that). This crate catches, at the *source* level, the hazard classes
//! that clippy cannot express:
//!
//! | rule | invariant it guards |
//! |------|---------------------|
//! | `float-accumulation-in-merge` | shard merges are bit-exact in any order |
//! | `rng-discipline` | every stream derives from the master seed in a builder |
//! | `transitive-wall-clock` | no helper-laundered clock reads (call-graph closure) |
//! | `transitive-threads` | no helper-laundered thread spawns (call-graph closure) |
//! | `rng-stream-collision` | no two sites share one (parent, label) RNG stream |
//! | `exhaustive-destructure` | merge/export/fingerprint fns bind every struct field |
//!
//! The generic bans — unordered `HashMap`/`HashSet`, clock reads,
//! thread creation outside `simcore::exec`, printing and bare
//! `unwrap()` in library code — are clippy lints configured in the root
//! `Cargo.toml` and `clippy.toml`, which resolve paths and so also
//! catch aliases. A clock read or spawn under a clippy `#[expect]`
//! still launders into its callers, which only the call graph here
//! sees.
//!
//! The first two rules are token-local. The last four are *semantic*:
//! they run on an item-level parse ([`items`]) and a conservative
//! workspace call graph ([`graph`]) built over the same token stream,
//! so a wall-clock read hidden behind two layers of helpers in another
//! crate still fires at the call site that reaches it. The engine also
//! reports two rules of its own that no annotation can silence:
//! `malformed-annotation` (an unparseable `cs-lint:` comment) and
//! `unused-allow` (a suppression whose rule no longer fires on its
//! bound line — annotation debt is pruned, never accumulated).
//!
//! Violations are suppressed one line at a time with an annotation on
//! the preceding line:
//!
//! ```text
//! // cs-lint: allow(rng-discipline, reason = "per-relay sub-stream of the builder's stream")
//! ```
//!
//! The crate is **dependency-free** (hand-rolled lexer, same discipline
//! as the local xoshiro RNG and bench harness) so the CI gate never
//! depends on code it cannot itself vouch for.

pub mod engine;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
