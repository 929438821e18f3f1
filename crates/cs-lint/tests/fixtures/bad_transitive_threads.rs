// cs-lint-fixture: path = "crates/relaynet/src/badspawn.rs", clippy = true
// Thread creation laundered through a helper fires at each caller
// that reaches it — through free-fn calls, method calls resolved by
// unique name, and `self.` calls alike.

fn fan_out() {
    let h = std::thread::spawn(|| ()); //~ clippy::disallowed_methods
    let _ = h;
}

pub struct Driver;

impl Driver {
    pub fn run(&self) {
        fan_out(); //~ transitive-threads
    }

    pub fn run_twice(&self) {
        self.run(); //~ transitive-threads
        let _ = 0;
    }
}

pub fn drive(d: &Driver) {
    d.run(); //~ transitive-threads
}
