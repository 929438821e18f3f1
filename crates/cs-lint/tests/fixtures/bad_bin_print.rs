// cs-lint-fixture: path = "crates/bench/src/bin/report.rs", clippy = true
// Binaries are not exempt: without a target-level `#![expect]`,
// printing is rejected here as it is in a library.
fn main() {
    println!("rate {}", 1); //~ clippy::print_stdout
    eprintln!("done"); //~ clippy::print_stderr
}
