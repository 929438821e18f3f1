// cs-lint-fixture: path = "crates/relaynet/src/hard_allow_placement.rs"
// Annotation binding across blank lines, doc comments, and stacking.
// ZERO findings: every violation here is correctly suppressed.
use simcore::rng::SimRng;

fn across_a_blank_line(master: &SimRng) -> SimRng {
    // cs-lint: allow(rng-discipline, reason = "binds across the blank line below")

    master.derive("blank")
}

// cs-lint: allow(rng-discipline, reason = "binds across the doc comment below")
/// A documented one-line helper: the annotation binds to the next CODE
/// line, past this doc comment.
fn documented(master: &SimRng) -> SimRng { master.derive("doc") }

// cs-lint: allow(rng-discipline, reason = "stacked: rule one of two")
// cs-lint: allow(rng-stream-collision, reason = "stacked: rule two of two")
fn both_on_one_line(m: &SimRng) -> (SimRng, SimRng) { (m.derive("twin"), m.derive("twin")) }

fn inside_a_body(master: &SimRng) -> u64 {
    // cs-lint: allow(rng-discipline, reason = "indented annotation in a body")
    let mut s = master.derive("body");
    s.u64()
}
