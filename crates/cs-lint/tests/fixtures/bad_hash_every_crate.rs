// cs-lint-fixture: path = "crates/netsim/src/scoping.rs", clippy = true
// The hash ban has no exempt crates: netsim, the tooling crates and the
// root package are covered like every fingerprint-visible crate.
use std::collections::{HashMap, HashSet}; //~ clippy::disallowed_types //~ clippy::disallowed_types

fn topology_scratch() -> (HashMap<u64, u64>, HashSet<u64>) { //~ clippy::disallowed_types //~ clippy::disallowed_types
    (HashMap::new(), HashSet::new()) //~ clippy::disallowed_types //~ clippy::disallowed_types
}
