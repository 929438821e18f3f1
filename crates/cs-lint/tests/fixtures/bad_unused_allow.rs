// cs-lint-fixture: path = "crates/relaynet/src/stale.rs"
// An allow whose rule no longer fires on its bound line is itself a
// finding (at the annotation, so deleting the flagged line is the
// fix); a live allow nearby stays silent.
use simcore::rng::SimRng;

// cs-lint: allow(rng-discipline, reason = "the derive below was removed in a refactor")
//~^ unused-allow
fn no_longer_derives() -> u64 {
    7
}

// Still-live suppression: no unused-allow here.
// cs-lint: allow(rng-discipline, reason = "per-item sub-stream of a stream the builder handed in")
fn still_derives(master: &SimRng) -> SimRng { master.derive("item") }

// An allow that a policy exemption made dead is dead all the same:
// rng-discipline never applies inside #[cfg(test)].
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mints() {
        // cs-lint: allow(rng-discipline, reason = "tests mint their own streams")
        //~^ unused-allow
        let s = SimRng::seed_from(7);
        let _ = s;
    }
}
