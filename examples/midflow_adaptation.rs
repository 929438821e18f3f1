//! The paper's future work, demonstrated: responding to changing network
//! conditions *during* congestion avoidance.
//!
//! A 3-relay circuit starts with a 10 Mbit/s bottleneck; half a second in,
//! the bottleneck link is upgraded to 40 Mbit/s. Plain CircuitStart only
//! grows by one cell per RTT after its ramp ended; the adaptive variant
//! (`Algorithm::AdaptiveCircuitStart`) notices the persistent spare
//! capacity and re-enters the ramp from its current window, reaching the
//! new operating point in logarithmically many rounds.
//!
//! Watch the traces, not just the totals: the adaptive controller
//! *detects* the change and jumps, but each probe is a burst-and-
//! compensate cycle with real cost — at this moderate (×4) upgrade plain
//! Vegas creep wins on transfer time (EXPERIMENTS.md A6 quantifies this
//! honestly). That trade-off is exactly why mid-flow adaptation is the
//! paper's *future work* rather than part of the algorithm.
//!
//! ```text
//! cargo run --release --example midflow_adaptation
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example reports to the terminal by design"
)]

use circuitstart::prelude::*;
use netsim::bandwidth::Bandwidth;
use relaynet::{PathScenario, TorEvent, WorldConfig};
use simcore::time::SimTime;
use simstats::ascii::{plot_lines, PlotConfig};

fn run_one(algorithm: Algorithm) -> (Vec<(f64, f64)>, f64) {
    let base = fig1_trace(1, algorithm);
    let mut hops = base.hops();
    hops[1].rate = Bandwidth::from_mbps(10); // initial bottleneck
    let scenario = PathScenario {
        hops,
        file_bytes: 4 << 20, // 4 MiB: plenty of post-change runtime
        world: WorldConfig::default(),
        ..Default::default()
    };
    let (mut sim, handles) = scenario.build(algorithm.factory(base.cc), 3);
    // Upgrade the bottleneck mid-flow.
    sim.schedule_at(
        SimTime::from_millis(500),
        TorEvent::SetLinkRate {
            link: handles.fwd_links[1],
            rate: Bandwidth::from_mbps(40),
        },
    );
    run_to_completion(&mut sim);
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    let result = world.result_of(handles.circ);
    assert!(result.completed);
    let trace: Vec<(f64, f64)> = world
        .source_cwnd_trace(handles.circ)
        .expect("tracing on")
        .iter()
        .map(|&(t, c)| (t.as_millis_f64(), f64::from(c)))
        .collect();
    let ttlb = result.transfer_time().expect("completed").as_secs_f64();
    (trace, ttlb)
}

fn main() {
    println!("bottleneck: 10 Mbit/s until t = 500 ms, then 40 Mbit/s\n");
    let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    for (label, algorithm) in [
        ("adaptive circuitstart", Algorithm::AdaptiveCircuitStart),
        ("plain circuitstart", Algorithm::CircuitStart),
    ] {
        let (trace, ttlb) = run_one(algorithm);
        let peak_after = trace
            .iter()
            .filter(|&&(t, _)| t > 500.0)
            .map(|&(_, c)| c)
            .fold(0.0f64, f64::max);
        println!(
            "{label:>22}: transfer {ttlb:.3} s, max window after upgrade {peak_after:.0} cells"
        );
        series.push((label, trace));
    }

    let plot = plot_lines(
        &series,
        &PlotConfig {
            width: 90,
            height: 22,
            title: "source cwnd [cells] vs time [ms] — bandwidth upgrade at 500 ms".to_string(),
            x_label: "time [ms]".to_string(),
            y_label: "cwnd [cells]".to_string(),
        },
    );
    println!("\n{plot}");
}
