// cs-lint-fixture: path = "crates/relaynet/src/badclock.rs", clippy = true
// A helper reads the clock; every fn that can REACH it through
// workspace calls fires at its call site, even though none of them
// mention Instant themselves. The direct read is clippy's finding; the
// transitive rule covers only the callers (no double report).

fn stamp() -> u64 {
    let t = std::time::Instant::now(); //~ clippy::disallowed_methods
    let _ = t;
    0
}

pub fn wraps() -> u64 {
    stamp() + 1 //~ transitive-wall-clock
}

pub fn upper() -> u64 {
    wraps() * 2 //~ transitive-wall-clock
}

// Two reaching calls on one line produce one finding for the line.
pub fn twice() -> u64 {
    wraps() + wraps() //~ transitive-wall-clock
}
