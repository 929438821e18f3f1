// cs-lint-fixture: path = "crates/torcell/src/badprint.rs", clippy = true
use std::fmt::Write as _;

fn report(cells: u64) {
    println!("cells: {cells}"); //~ clippy::print_stdout
    eprintln!("warning"); //~ clippy::print_stderr
    let _ = dbg!(cells); //~ clippy::dbg_macro
}

// Formatting into a buffer is not stdout.
fn render(cells: u64) -> String {
    let mut out = String::new();
    let _ = write!(out, "cells: {cells}");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_print_freely() {
        println!("diagnostic output on failure");
    }
}
