// cs-lint-fixture: path = "crates/backtap/src/badunwrap.rs", clippy = true
fn first_and_last(xs: &[u64]) -> u64 {
    xs.first().unwrap() + xs.last().unwrap() //~ clippy::unwrap_used //~ clippy::unwrap_used
}

fn named_invariant(xs: &[u64]) -> u64 {
    *xs.first().expect("caller guarantees a non-empty window")
}

fn with_defaults(x: Option<u64>) -> u64 {
    x.unwrap_or(0) + x.unwrap_or_else(fallback) + x.unwrap_or_default()
}

fn fallback() -> u64 {
    1
}

#[expect(clippy::unwrap_used, reason = "every caller passes Some(..)")]
fn annotated(x: Option<u64>) -> u64 {
    x.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_unwrap_freely() {
        let v = "3".parse::<u64>().ok();
        assert_eq!(v.unwrap(), 3);
    }
}
