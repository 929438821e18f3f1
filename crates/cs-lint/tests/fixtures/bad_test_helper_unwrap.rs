// cs-lint-fixture: path = "tests/goodput.rs", clippy = true
// In an integration-test file only `#[test]` fns count as test code:
// a shared helper must name its invariant with expect("…").

fn goodput(x: Option<u64>) -> u64 {
    x.unwrap() //~ clippy::unwrap_used
}

#[test]
fn tests_unwrap_and_print_freely() {
    let v = "3".parse::<u64>().ok();
    println!("goodput {}", goodput(v));
    assert_eq!(v.unwrap(), 3);
}
