// cs-lint-fixture: path = "crates/simcore/src/exec.rs", clippy = true
// The executor seam is the one module that creates threads, under an
// `#[expect]`. ZERO findings.
#[expect(clippy::disallowed_methods, reason = "the executor seam owns thread creation")]
fn run_scoped() {
    std::thread::scope(|scope| {
        let h = scope.spawn(|| 1);
        let _ = h;
    });
    let h = std::thread::spawn(|| 2);
    let _ = h;
}
