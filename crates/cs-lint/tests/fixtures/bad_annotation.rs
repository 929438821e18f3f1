// cs-lint-fixture: path = "crates/relaynet/src/bad_annotation.rs"
// Malformed annotations are findings themselves, and a well-formed
// allow never suppresses a DIFFERENT rule or a non-adjacent line.
use simcore::rng::SimRng;

// cs-lint: allow(no-such-rule, reason = "unknown rule name") //~ malformed-annotation
use std::collections::BTreeMap;

// cs-lint: allow(rng-discipline) //~ malformed-annotation
fn missing_reason() -> BTreeMap<u64, u64> {
    BTreeMap::new()
}

// cs-lint: allow(rng-discipline, reason = "") //~ malformed-annotation
fn empty_reason() -> u64 {
    1
}

// A rule that clippy enforces has no cs-lint annotation form.
// cs-lint: allow(wall-clock, reason = "clock reads are clippy's disallowed_methods") //~ malformed-annotation
fn moved_rule() -> u64 {
    2
}

fn trailing() -> u64 { 2 } // cs-lint: allow(rng-discipline, reason = "not allowed trailing code") //~ malformed-annotation

// A marker on the annotation's own line would corrupt the annotation,
// so unused-allow expectations use the previous-line (caret) form.
// cs-lint: allow(float-accumulation-in-merge, reason = "wrong rule for the site below")
//~^ unused-allow
fn wrong_rule(master: &SimRng) {
    let _ = master.derive("x"); //~ rng-discipline
}

// cs-lint: allow(rng-discipline, reason = "right rule, but a code line intervenes")
//~^ unused-allow
fn not_adjacent(master: &SimRng) -> u64 {
    let _ = master.derive("y"); //~ rng-discipline
    3
}
