//! Root package: examples and integration tests live here; the library
//! surface is re-exported from the workspace crates.
pub use circuitstart;
pub use relaynet;
