//! Regenerates Figure 1 (upper panels): source congestion-window traces
//! with the bottleneck 1 and 3 hops from the source, for CircuitStart and
//! the "without CircuitStart" baselines, against the model-optimal dashed
//! line.
//!
//! ```text
//! cargo run --release -p cs-bench --bin fig1_cwnd
//! cargo run --release -p cs-bench --bin fig1_cwnd -- --distance 3 --seed 9
//! ```
//!
//! Prints the series the paper plots and writes
//! `target/figures/fig1_cwnd_d<k>_<algo>.dat` (columns: `time_ms
//! cwnd_kib optimal_kib`, time re-based to transfer start).

#![expect(
    clippy::print_stdout,
    reason = "a figure binary reports to the terminal by design"
)]

use circuitstart::prelude::*;
use cs_bench::{write_figure, Options};
use simstats::ascii::{plot_lines, PlotConfig};
use simstats::export::Table;

fn main() {
    let opts = Options::from_env();
    let seed: u64 = opts.get("seed", 1);
    let only_distance: i64 = opts.get("distance", -1);
    let distances: Vec<usize> = if only_distance >= 0 {
        vec![only_distance as usize]
    } else {
        vec![1, 3]
    };

    for distance in distances {
        println!("━━━ Figure 1 (upper), bottleneck distance {distance} hop(s) ━━━");
        let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
        let mut optimal_kib = 0.0;
        let mut t_max: f64 = 0.0;

        for (label, algorithm) in [
            ("circuitstart", Algorithm::CircuitStart),
            ("classic slow start", Algorithm::ClassicBacktap),
        ] {
            let mut cfg = fig1_trace(distance, algorithm);
            cfg.seed = seed;
            let report = run_trace(&cfg);
            optimal_kib = report.optimal_kib();
            // Re-base time to transfer start, as the paper's axis does
            // (its traces begin when data starts flowing, not when the
            // circuit build begins).
            let t0 = report
                .result
                .first_data_at
                .expect("completed")
                .as_millis_f64();
            let rebased: Vec<(f64, f64)> = report
                .cwnd_kib_series()
                .into_iter()
                .map(|(t, v)| ((t - t0).max(0.0), v))
                .collect();

            println!(
                "\n  {label}: peak {} cells, settle(±35%) {}, transfer {}",
                report.peak_cwnd_cells(),
                report
                    .settling_time_ms(0.35)
                    .map(|ms| format!("{:.0} ms (abs)", ms))
                    .unwrap_or_else(|| "never".to_string()),
                report.result.transfer_time().expect("completed"),
            );
            println!("    time_ms  cwnd_kib   (optimal {optimal_kib:.1} KiB)");
            for &(t, v) in &rebased {
                println!("    {t:7.1}  {v:8.1}");
            }

            let mut table = Table::new(vec!["time_ms", "cwnd_kib", "optimal_kib"]);
            for &(t, v) in &rebased {
                table.push_row(&[t, v, optimal_kib]);
            }
            write_figure(
                &format!("fig1_cwnd_d{distance}_{}", report.algorithm_key),
                &table,
            );

            // Step-resample for the terminal plot.
            let mut ts = simstats::timeseries::TimeSeries::new();
            for &(t, v) in &rebased {
                ts.push(t, v);
            }
            let end = ts.end_time().unwrap_or(1.0).max(300.0);
            t_max = t_max.max(end);
            series.push((label, ts.resample(0.0, end, 150)));
        }

        let optimal_line: Vec<(f64, f64)> = (0..=150)
            .map(|i| (t_max * i as f64 / 150.0, optimal_kib))
            .collect();
        series.push(("optimal (model)", optimal_line));
        let plot = plot_lines(
            &series,
            &PlotConfig {
                width: 90,
                height: 22,
                title: format!(
                    "source cwnd [KiB] vs time since transfer start [ms] — distance {distance}"
                ),
                x_label: "time [ms]".into(),
                y_label: "cwnd [KiB]".into(),
            },
        );
        println!("\n{plot}");
    }
}
