// cs-lint-fixture: path = "crates/relaynet/src/badthreads.rs", clippy = true
use std::thread;

fn launch() {
    let h = thread::spawn(|| 1 + 1); //~ clippy::disallowed_methods
    std::thread::scope(|s| { //~ clippy::disallowed_methods
        let _ = s;
    });
    let _ = h;
}

// Executor-seam methods named `spawn` are not thread creation.
struct Pool;

impl Pool {
    fn spawn(&self, job: fn()) {
        job();
    }
}

fn through_the_seam(pool: &Pool) {
    pool.spawn(|| ());
}

#[cfg(test)]
mod tests {
    #[test]
    fn watchdogs_say_why() {
        // Test threads are not exempt: a watchdog carries its own
        // `#[expect]` naming why it cannot touch world state.
        let h = std::thread::spawn(|| ()); //~ clippy::disallowed_methods
        h.join().expect("watchdog joins");
    }
}
