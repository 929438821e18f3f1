//! Figure 1 (lower panel), scaled interactively: concurrent circuits over
//! a randomly generated relay network in a star topology; CDF of
//! time-to-last-byte with vs without CircuitStart.
//!
//! The full 50-circuit, 3-repetition preset is what the bench binary
//! runs; this example defaults to a faster 15-circuit single run so it
//! finishes in seconds in debug builds.
//!
//! ```text
//! cargo run --release --example star_download              # 15 circuits
//! cargo run --release --example star_download -- 50 3      # the paper's scale
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example reports to the terminal by design"
)]

use circuitstart::prelude::*;
use simstats::ascii::{plot_lines, PlotConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let circuits: usize = args
        .next()
        .map(|a| a.parse().expect("circuit count"))
        .unwrap_or(15);
    let repetitions: u32 = args
        .next()
        .map(|a| a.parse().expect("repetitions"))
        .unwrap_or(1);

    let mut config = fig1_cdf();
    config.star.circuits = circuits;
    config.repetitions = repetitions;

    println!(
        "running {} circuits × {} repetition(s) over {} relays, 1 MiB each …",
        circuits, repetitions, config.star.directory.relays
    );
    let report = run_cdf(&config);

    let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    for s in &report.series {
        println!(
            "{:>14}: median {:.3} s, p90 {:.3} s, worst {:.3} s ({} samples, {} incomplete)",
            s.algorithm_key,
            s.cdf.median(),
            s.cdf.quantile(0.9),
            s.cdf.max(),
            s.cdf.len(),
            s.incomplete,
        );
    }
    let cs = report.get("circuitstart").expect("series exists");
    let classic = report.get("classic").expect("series exists");
    let gain = cs.cdf.max_quantile_improvement_over(&classic.cdf);
    println!("largest quantile improvement of CircuitStart: {gain:.3} s");

    series.push(("circuitstart", cs.cdf.points()));
    series.push(("without circuitstart", classic.cdf.points()));

    let plot = plot_lines(
        &series,
        &PlotConfig {
            width: 90,
            height: 22,
            title: "cumulative distribution vs time to last byte [s]".to_string(),
            x_label: "time to last byte [s]".to_string(),
            y_label: "cumulative fraction".to_string(),
        },
    );
    println!("\n{plot}");
    println!("(compare with Figure 1, lower panel, of the paper)");
}
