// cs-lint-fixture: path = "crates/relaynet/src/bad.rs", clippy = true
use std::collections::HashMap; //~ clippy::disallowed_types
use std::collections::{BTreeMap, HashSet}; //~ clippy::disallowed_types

struct Slabs {
    routes: HashMap<u64, u64>, //~ clippy::disallowed_types
    ordered: BTreeMap<u64, u64>,
}

fn build() -> HashSet<u64> { //~ clippy::disallowed_types
    #[expect(clippy::disallowed_types, reason = "membership-only probe, never iterated")]
    let allowed = HashSet::new();
    allowed
}

#[cfg(test)]
mod tests {
    #[test]
    fn still_scoped_in_tests() {
        let m = std::collections::HashMap::<u8, u8>::new(); //~ clippy::disallowed_types
        assert!(m.is_empty());
    }
}
