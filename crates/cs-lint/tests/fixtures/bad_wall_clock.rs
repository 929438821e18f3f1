// cs-lint-fixture: path = "crates/simstats/src/bad.rs", clippy = true
use std::time::SystemTime; //~ clippy::disallowed_types
use std::time::Instant;

fn stamp() -> u64 {
    let t = Instant::now(); //~ clippy::disallowed_methods
    let _ = SystemTime::now(); //~ clippy::disallowed_methods //~ clippy::disallowed_types
    let _ = t;
    0
}

// A bare `Instant` in type position is storage, not a clock read.
fn takes(deadline: Instant) -> Instant {
    deadline
}
