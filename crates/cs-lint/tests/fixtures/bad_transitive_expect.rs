// cs-lint-fixture: path = "crates/relaynet/src/laundered.rs", clippy = true
// A clock read or a spawn under a clippy `#[expect]` satisfies clippy
// at the sink, but every caller that reaches the sink still depends on
// the host clock or on thread scheduling. Clippy reports nothing in
// this file; cs-lint's call graph fires at each reaching call.

#[expect(
    clippy::disallowed_methods,
    reason = "fixture: the one sanctioned read; its callers are under test"
)]
fn stamp() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}

pub fn wraps() -> u64 {
    stamp() + 1 //~ transitive-wall-clock
}

#[expect(
    clippy::disallowed_methods,
    reason = "fixture: the one sanctioned spawn; its callers are under test"
)]
fn fan_out() {
    let h = std::thread::spawn(|| ());
    h.join().expect("joins");
}

pub fn drive() {
    fan_out(); //~ transitive-threads
}
