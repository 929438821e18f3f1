// cs-lint-fixture: path = "crates/relaynet/src/stale_expect.rs", clippy = true
// The clippy side of `unused-allow`: an `#[expect]` that suppresses
// nothing fails the build, and `#[allow]`, which could go stale
// silently, is itself rejected, as is a suppression with no reason.

#[expect(clippy::disallowed_methods, reason = "the clock read below was removed")] //~ unfulfilled_lint_expectations
fn no_longer_reads_the_clock() -> u64 {
    7
}

#[allow(clippy::unwrap_used)] //~ clippy::allow_attributes //~ clippy::allow_attributes_without_reason
fn silent(x: Option<u64>) -> u64 {
    x.unwrap()
}

#[expect(clippy::unwrap_used)] //~ clippy::allow_attributes_without_reason
fn reasonless(x: Option<u64>) -> u64 {
    x.unwrap()
}
