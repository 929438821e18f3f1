//! The path-selection experiment: the same star network and web-like
//! churning workload, run once per selection policy over **identical
//! seeds**, with the per-flow completion CDFs compared side by side.
//!
//! This is the experimental axis the `PathSelection` seam exists for:
//! placement decides which relays become bottlenecks, so the four
//! shipped policies — uniform, Tor's bandwidth weighting, ShorTor-style
//! latency preference, and Imani-style congestion avoidance over live
//! load telemetry — produce visibly different completion distributions
//! from the very same relay population, congestion controller, and
//! request sequence.
//!
//! ```text
//! cargo run --release --example path_policies             # 16 circuits
//! cargo run --release --example path_policies -- 40 3     # bigger sweep
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example reports to the terminal by design"
)]

use circuitstart::prelude::*;
use relaynet::selection::{all_policies, SelectionPolicy};
use relaynet::workload::{ArrivalSpec, ChurnSpec, WorkloadSpec};
use relaynet::{DirectoryConfig, StarScenario};
use simstats::ascii::{plot_lines, PlotConfig};
use simstats::cdf::Cdf;
use simstats::sketch::QuantileSketch;

fn scenario(circuits: usize, selection: SelectionPolicy) -> StarScenario {
    StarScenario {
        circuits,
        relays_per_circuit: 3,
        file_bytes: 300_000,
        directory: DirectoryConfig {
            relays: 20,
            bandwidth_mbps: (15.0, 100.0),
            delay_ms: (2.0, 12.0),
        },
        // Multi-stream arrivals plus churn: rebuilds re-select through
        // the policy, so load-aware placement actually feeds back.
        workload: WorkloadSpec {
            streams_per_circuit: 3,
            arrival: ArrivalSpec::OnOff {
                burst: 2,
                gap_ms: (10.0, 60.0),
            },
            churn: Some(ChurnSpec {
                teardown_after_ms: (50.0, 150.0),
                rebuild_delay_ms: 5.0,
                cycles: 1,
            }),
        },
        selection,
        ..Default::default()
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let circuits: usize = args
        .next()
        .map(|a| a.parse().expect("circuit count"))
        .unwrap_or(16);
    let repetitions: u64 = args
        .next()
        .map(|a| a.parse().expect("repetitions"))
        .unwrap_or(1);

    let policies = all_policies();
    println!(
        "path_policies: {circuits} circuits × {repetitions} seed(s), 20 relays, \
         3 streams/circuit with on/off arrivals + 1 churn cycle"
    );
    // The ~p99/~p999 columns come from the streaming sketch each world
    // feeds as flows finish — within ±1% (its alpha) of the exact
    // sorted-sample values beside them, at fixed memory.
    println!(
        "\n{:>12}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>8}  {:>13}",
        "policy",
        "p50 [s]",
        "p90 [s]",
        "p99 [s]",
        "~p99 [s]",
        "p999 [s]",
        "~p999 [s]",
        "worst [s]",
        "rebuilds",
        "peak relay load"
    );

    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for policy in &policies {
        let mut samples: Vec<f64> = Vec::new();
        let mut sketch = QuantileSketch::default();
        let mut rebuilds = 0u64;
        let mut peak_load = 0u32;
        for rep in 0..repetitions {
            // Identical seeds across policies: same relay population,
            // same endpoints, same workload draws — placement is the
            // only thing that varies.
            let (mut sim, _) = scenario(circuits, policy.clone()).build(
                Algorithm::CircuitStart.factory(CcConfig::default()),
                42 + rep,
            );
            run_to_completion(&mut sim);
            let world = sim.world();
            assert_eq!(world.stats().protocol_errors, 0);
            rebuilds += world.stats().rebuilds;
            // High-water mark, not the end-of-run snapshot: churn
            // rebuilds away mid-run hotspots, and the hotspots are the
            // thing the policies differ on.
            peak_load = peak_load.max(
                world
                    .relay_load_hwms()
                    .expect("placement installed")
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0),
            );
            for f in world.flows() {
                assert!(f.complete(), "no policy may strand a flow");
                samples.push(f.completion_time().expect("complete").as_secs_f64());
            }
            // Cross-repetition aggregation is a bucket-wise merge, not a
            // concatenation — the order-independent scale path.
            sketch.merge(world.flow_completion_sketch());
        }
        let cdf = Cdf::from_samples(samples).expect("flows completed");
        assert_eq!(sketch.len() as usize, cdf.len());
        // p99/p999 collapse onto the max at small sample counts (lower
        // interpolation) — honest tail reporting needs enough flows.
        println!(
            "{:>12}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}  {:>8}  {:>13}",
            policy.name(),
            cdf.median(),
            cdf.quantile(0.9),
            cdf.p99(),
            sketch.p99(),
            cdf.p999(),
            sketch.p999(),
            cdf.max(),
            rebuilds,
            peak_load,
        );
        series.push((policy.name().to_string(), cdf.points()));
    }

    let series_refs: Vec<(&str, Vec<(f64, f64)>)> = series
        .iter()
        .map(|(n, p)| (n.as_str(), p.clone()))
        .collect();
    let plot = plot_lines(
        &series_refs,
        &PlotConfig {
            width: 90,
            height: 22,
            title: "flow completion CDF by path-selection policy (identical seeds)".to_string(),
            x_label: "request-to-last-byte [s]".to_string(),
            y_label: "cumulative fraction".to_string(),
        },
    );
    println!("\n{plot}");
    println!(
        "(same seeds, same controller — only circuit placement differs; \
         see DESIGN.md §9 and the `policies` ablation)"
    );
}
