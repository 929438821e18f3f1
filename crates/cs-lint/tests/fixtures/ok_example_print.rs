// cs-lint-fixture: path = "examples/report.rs", clippy = true
// Examples and binaries print by design and say so once, at the top
// of the target. ZERO findings.
#![expect(clippy::print_stdout, reason = "an example reports to the terminal by design")]

fn main() {
    println!("cells: {}", 3);
}
