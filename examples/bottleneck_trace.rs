//! Figure 1 (upper panels), interactively: source congestion-window
//! traces with the bottleneck at a chosen distance, CircuitStart vs the
//! "without CircuitStart" baseline, rendered as an ASCII plot.
//!
//! ```text
//! cargo run --release --example bottleneck_trace            # distance 1
//! cargo run --release --example bottleneck_trace -- 3       # distance 3
//! cargo run --release --example bottleneck_trace -- 3 42    # + seed
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example reports to the terminal by design"
)]

use circuitstart::prelude::*;
use simstats::ascii::{plot_lines, PlotConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let distance: usize = args
        .next()
        .map(|a| a.parse().expect("distance must be 0..=3"))
        .unwrap_or(1);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be an integer"))
        .unwrap_or(1);

    let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    let mut optimal_kib = 0.0;

    let labels = ["circuitstart", "classic (no CS)"];
    for (label, algorithm) in labels
        .iter()
        .zip([Algorithm::CircuitStart, Algorithm::ClassicBacktap])
    {
        let mut config = fig1_trace(distance, algorithm);
        config.seed = seed;
        let report = run_trace(&config);
        optimal_kib = report.optimal_kib();
        println!(
            "{label:>16}: peak {:3} cells, settle(±35%) {:>9}, transfer {}",
            report.peak_cwnd_cells(),
            report
                .settling_time_ms(0.35)
                .map(|ms| format!("{ms:.0} ms"))
                .unwrap_or_else(|| "never".to_string()),
            report.result.transfer_time().expect("completed"),
        );
        // Resample the step function on a uniform grid so the ASCII plot
        // shows the plateau, not just the change points.
        let ts = report.as_timeseries();
        let end = ts.end_time().expect("non-empty");
        let grid = ts.resample(0.0, end, 160);
        series.push((
            label,
            grid.into_iter()
                .map(|(s, cells)| (s * 1e3, cells * 512.0 / 1024.0))
                .collect(),
        ));
    }

    // The model optimum as a horizontal reference line.
    let t_max = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(t, _)| t))
        .fold(0.0f64, f64::max);
    let optimal_line: Vec<(f64, f64)> = (0..=160)
        .map(|i| (t_max * i as f64 / 160.0, optimal_kib))
        .collect();
    series.push(("optimal (model)", optimal_line));

    let plot = plot_lines(
        &series,
        &PlotConfig {
            width: 90,
            height: 24,
            title: format!("source cwnd [KiB] vs time [ms] — bottleneck distance {distance}"),
            x_label: "time [ms]".to_string(),
            y_label: "cwnd [KiB]".to_string(),
        },
    );
    println!("\n{plot}");
    println!("(compare with Figure 1, upper panels, of the paper)");
}
