//! Validates the analytical optimal-window model against simulation: the
//! model's window must be the *knee* — the smallest fixed window that
//! fully utilizes the bottleneck — and its ideal transfer time must be a
//! tight lower bound there.

use circuitstart::prelude::*;
use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::{PathScenario, WorldConfig};
use simcore::time::SimDuration;

fn hop(mbps: u64, delay_ms: u64) -> LinkConfig {
    LinkConfig::new(
        Bandwidth::from_mbps(mbps),
        SimDuration::from_millis(delay_ms),
    )
}

/// Measured goodput of a transfer with a fixed per-hop window.
fn goodput_with_window(hops: &[LinkConfig], window: u32, file: u64) -> f64 {
    let scenario = PathScenario {
        hops: hops.to_vec(),
        file_bytes: file,
        world: WorldConfig::default(),
        ..Default::default()
    };
    let (mut sim, handles) = scenario.build(
        Algorithm::FixedWindow(window).factory(CcConfig::default()),
        99,
    );
    run_to_completion(&mut sim);
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    let result = world.result_of(handles.circ);
    assert!(result.completed);
    result
        .goodput_bps()
        .expect("a completed transfer has a goodput")
}

#[test]
fn model_window_is_the_utilization_knee() {
    let hops = vec![hop(100, 5), hop(20, 5), hop(100, 5), hop(100, 5)];
    let model = PathModel::from_hops(&hops);
    let w_star = model.optimal_source_cwnd_cells();
    let ceiling = model.max_goodput_bps();
    let file = 2 << 20;

    // At the model window (rounded up): ≥ 95% of the ceiling.
    let at_opt = goodput_with_window(&hops, w_star.ceil() as u32 + 1, file);
    assert!(
        at_opt >= 0.95 * ceiling,
        "W* must saturate the bottleneck: {at_opt:.0} vs ceiling {ceiling:.0}"
    );

    // At half the model window: clearly below (half the pipe idle).
    let at_half = goodput_with_window(&hops, (w_star / 2.0).floor() as u32, file);
    assert!(
        at_half <= 0.65 * ceiling,
        "W*/2 must underutilize: {at_half:.0} vs ceiling {ceiling:.0}"
    );

    // Doubling beyond the model window buys almost nothing.
    let at_double = goodput_with_window(&hops, (w_star * 2.0) as u32, file);
    assert!(
        (at_double - at_opt).abs() <= 0.05 * ceiling,
        "2·W* should not beat W* meaningfully: {at_double:.0} vs {at_opt:.0}"
    );
}

#[test]
fn knee_holds_for_a_slow_local_link_too() {
    // Bottleneck at distance 0 — the client's own access link.
    let hops = vec![hop(10, 5), hop(100, 5), hop(100, 5)];
    let model = PathModel::from_hops(&hops);
    let w_star = model.optimal_source_cwnd_cells();
    let ceiling = model.max_goodput_bps();
    let at_opt = goodput_with_window(&hops, w_star.ceil() as u32 + 1, 1 << 20);
    assert!(
        at_opt >= 0.95 * ceiling,
        "{at_opt:.0} vs ceiling {ceiling:.0} (W* = {w_star:.1})"
    );
}

#[test]
fn ideal_transfer_time_is_a_tight_lower_bound_at_w_star() {
    let hops = vec![hop(100, 5), hop(20, 5), hop(100, 5), hop(100, 5)];
    let model = PathModel::from_hops(&hops);
    let file = 1 << 20;
    let scenario = PathScenario {
        hops: hops.clone(),
        file_bytes: file,
        world: WorldConfig::default(),
        ..Default::default()
    };
    let window = model.optimal_source_cwnd_cells().ceil() as u32 + 1;
    let (mut sim, handles) = scenario.build(
        Algorithm::FixedWindow(window).factory(CcConfig::default()),
        7,
    );
    run_to_completion(&mut sim);
    let measured = sim.world().result_of(handles.circ).transfer_time().unwrap();
    let ideal = model.ideal_transfer_time(file);
    assert!(measured >= ideal, "{measured} < ideal {ideal}");
    assert!(
        measured.as_secs_f64() <= ideal.as_secs_f64() * 1.10,
        "fixed window at W* should be within 10% of ideal: {measured} vs {ideal}"
    );
}

#[test]
fn circuitstart_converges_to_the_model_window() {
    // The headline claim, quantified: after compensation the source
    // window sits within ±35% of the analytical optimum at every
    // bottleneck distance of the Figure 1 geometry.
    for distance in 0..=3 {
        let cfg = fig1_trace(distance, Algorithm::CircuitStart);
        let report = run_trace(&cfg);
        let settle = report.settling_time_ms(0.35);
        assert!(
            settle.is_some(),
            "distance {distance}: cwnd must settle near the optimum {:.1}; trace {:?}",
            report.optimal_cells,
            report.cwnd_cells
        );
    }
}

#[test]
fn bottleneck_rate_dominates_the_optimum() {
    // Scaling the bottleneck scales the optimal window proportionally
    // (the hop-0 RTT changes only through the forwarding term).
    let slow = PathModel::from_hops(&[hop(100, 5), hop(10, 5), hop(100, 5)]);
    let fast = PathModel::from_hops(&[hop(100, 5), hop(40, 5), hop(100, 5)]);
    let ratio = fast.optimal_source_cwnd_cells() / slow.optimal_source_cwnd_cells();
    assert!(
        (3.3..4.3).contains(&ratio),
        "4× bottleneck ⇒ ≈4× window, got {ratio}"
    );
}
