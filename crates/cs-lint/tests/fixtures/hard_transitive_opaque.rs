// cs-lint-fixture: path = "crates/relaynet/src/hard_opaque.rs", clippy = true
// Call-graph conservatism: a sanctioned clock read behind AMBIGUOUS
// method dispatch taints no caller, calls through function values are
// opaque, and clock-free helper chains stay silent. ZERO findings.

struct Sampler;
struct Mirror;

impl Sampler {
    #[expect(
        clippy::disallowed_methods,
        reason = "fixture: the one sanctioned read; reachability through ambiguous dispatch must stay opaque"
    )]
    fn probe(&self) -> u64 {
        let t = std::time::Instant::now();
        let _ = t;
        0
    }
}

impl Mirror {
    // Second `probe` definition: `x.probe()` resolves to nothing.
    fn probe(&self) -> u64 {
        1
    }
}

fn through_ambiguity(s: &Sampler) -> u64 {
    s.probe()
}

fn clockless() -> u64 {
    2
}

fn pick() -> fn() -> u64 {
    clockless
}

fn through_indirection() -> u64 {
    // A call through a function value produces no edge.
    let f = pick();
    f()
}

fn deep_but_clean() -> u64 {
    clockless() + through_indirection()
}
