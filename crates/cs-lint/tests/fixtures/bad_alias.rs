// cs-lint-fixture: path = "crates/relaynet/src/alias.rs", clippy = true
// Clippy resolves paths, so a renamed import is still the banned item.
// Token rules that match the spelled-out `Instant::now` or
// `thread::spawn` let every line below through.
use std::collections::HashMap as Map; //~ clippy::disallowed_types
use std::thread as th;
use std::time::Instant as Clock;

pub fn stamp() -> Clock {
    Clock::now() //~ clippy::disallowed_methods
}

pub fn launch() {
    let h = th::spawn(|| ()); //~ clippy::disallowed_methods
    h.join().expect("joins");
}

pub fn table() -> Map<u64, u64> { //~ clippy::disallowed_types
    Map::new() //~ clippy::disallowed_types
}
