// cs-lint-fixture: path = "crates/bench/src/harness_extra.rs", clippy = true
// The bench harness reads the host clock and prints by design, and
// says so at each site with an `#[expect]`. ZERO findings.
use std::time::Instant;

fn measure() -> u128 {
    #[expect(clippy::disallowed_methods, reason = "the bench harness exists to read the host clock")]
    let t = Instant::now();
    t.elapsed().as_nanos()
}

#[expect(clippy::print_stdout, reason = "bench reports go to the terminal")]
fn stdout_report(rate: f64) {
    println!("rate {rate:>14.0}");
}
