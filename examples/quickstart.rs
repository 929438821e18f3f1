//! Quickstart: one CircuitStart transfer over a 3-relay circuit.
//!
//! Builds the paper's Figure 1a geometry (100 Mbit/s links, a 20 Mbit/s
//! bottleneck one hop from the source, 5 ms per-link delay), transfers
//! 1 MiB, and prints what happened — the whole public API in ~30 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example reports to the terminal by design"
)]

use circuitstart::prelude::*;

fn main() {
    // The preset returns the full experiment description; everything is a
    // plain struct you can edit before running.
    let mut config = fig1_trace(1, Algorithm::CircuitStart);
    config.seed = 7;

    println!("circuit: client → 3 relays → server");
    println!(
        "links:   {} fast, bottleneck {} at link {}",
        config.fast, config.bottleneck, config.bottleneck_link
    );
    let model = config.model();
    println!(
        "model:   optimal source window = {:.1} cells ({:.1} KiB), ideal transfer ≥ {}",
        model.optimal_source_cwnd_cells(),
        model.optimal_source_cwnd_kib(),
        model.ideal_transfer_time(config.file_bytes),
    );

    let report = run_trace(&config);

    println!("\nresults:");
    println!("  algorithm        : {}", report.algorithm_key);
    println!("  completed        : {}", report.result.completed);
    println!(
        "  bytes delivered  : {} ({} cells, {} payload errors)",
        report.result.bytes_delivered, report.result.cells_delivered, report.result.payload_errors
    );
    println!(
        "  transfer time    : {}",
        report.result.transfer_time().expect("completed")
    );
    println!(
        "  goodput          : {:.2} Mbit/s",
        report.result.goodput_bps().expect("completed") / 1e6
    );
    println!("  peak window      : {} cells", report.peak_cwnd_cells());
    println!(
        "  settled at ±35%  : {}",
        report
            .settling_time_ms(0.35)
            .map(|ms| format!("{ms:.0} ms"))
            .unwrap_or_else(|| "never".to_string())
    );

    println!("\nwindow trace (time, cells):");
    for &(ms, cells) in &report.cwnd_cells {
        println!("  {ms:8.1} ms  {cells:4} cells");
    }
}
