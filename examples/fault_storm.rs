//! Fault-injection demo: relay crashes and link stalls against the
//! client-side recovery loop — timers, blame-driven re-selection, and
//! backoff rebuilds (DESIGN.md §12).
//!
//! The same eight-circuit star workload runs twice from one seed: once
//! fault-free as the baseline, once with two relay crashes and a link
//! stall injected mid-transfer. Every flow must still complete, byte
//! counts must conserve, and teardown must reclaim every slot, route,
//! and pooled buffer — the run prints the recovery telemetry and the
//! completion-CDF shift the faults cost.
//!
//! ```text
//! cargo run --release --example fault_storm
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example reports to the terminal by design"
)]

use std::sync::Arc;

use circuitstart::prelude::*;
use relaynet::builder::StarScenario;
use relaynet::selection::CongestionAware;
use relaynet::workload::{ArrivalSpec, FaultSpec, WorkloadSpec};
use relaynet::DirectoryConfig;
use simstats::cdf::Cdf;

const SEED: u64 = 31;

fn scenario(faults: Option<FaultSpec>) -> StarScenario {
    StarScenario {
        circuits: 8,
        relays_per_circuit: 3,
        file_bytes: 150_000,
        directory: DirectoryConfig {
            relays: 16,
            bandwidth_mbps: (40.0, 100.0),
            delay_ms: (1.0, 3.0),
        },
        selection: Arc::new(CongestionAware),
        workload: WorkloadSpec {
            streams_per_circuit: 2,
            arrival: ArrivalSpec::UniformJitter { max_ms: 15.0 },
            churn: None,
        },
        faults,
        ..Default::default()
    }
}

fn run(faults: Option<FaultSpec>) -> (relaynet::TorNetwork, Cdf) {
    let (mut sim, _) =
        scenario(faults).build(Algorithm::CircuitStart.factory(CcConfig::default()), SEED);
    run_to_completion(&mut sim);
    let world = sim.into_world();
    let cdf = world.flow_completion_cdf().expect("completed flows");
    (world, cdf)
}

fn main() {
    let spec = FaultSpec {
        crashes: 2,
        crash_window_ms: (40.0, 120.0),
        stalls: 1,
        stall_window_ms: (40.0, 120.0),
        stall_duration_ms: 60.0,
        stall_factor: 200.0,
        build_timeout_ms: 300.0,
        liveness_timeout_ms: 600.0,
        ..Default::default()
    };
    println!(
        "fault_storm: 8 circuits x 2 streams over 16 relays; \
         {} crashes in [{:.0}, {:.0}] ms + {} stall(s)",
        spec.crashes, spec.crash_window_ms.0, spec.crash_window_ms.1, spec.stalls
    );

    let (base_world, base_cdf) = run(None);
    let (world, cdf) = run(Some(spec));
    let stats = world.stats();

    // -- recovery telemetry ----------------------------------------------
    println!("\nrecovery loop:");
    println!("  crashes injected : {}", stats.crashes_injected);
    println!("  timeouts fired   : {}", stats.timeouts_fired);
    println!("  retries scheduled: {}", stats.retries);
    println!("  relays blamed    : {}", stats.blamed_exclusions);
    println!("  flows parked     : {}", stats.flows_parked);
    println!(
        "  frames dropped   : {} at crashed relays, {} stale",
        stats.crash_frames_dropped, stats.stale_frames_dropped
    );
    println!("  rebuilds         : {}", stats.rebuilds);
    assert!(stats.crashes_injected > 0, "schedule must fire");
    assert!(stats.timeouts_fired > 0, "clients must detect the crashes");

    // -- conservation ----------------------------------------------------
    let mut delivered = 0u64;
    let mut requested = 0u64;
    for f in world.flows() {
        assert!(f.complete(), "recovery must never strand a flow");
        delivered += f.delivered;
        requested += f.requested;
    }
    assert_eq!(delivered, requested, "bytes conserve across crashes");
    assert_eq!(stats.protocol_errors, 0, "faults are counted, not errors");
    assert_eq!(
        world.payload_pool().returned(),
        world.payload_pool().acquired(),
        "every in-flight buffer must come home"
    );
    println!("\nconservation:");
    println!("  delivered        : {delivered} / {requested} bytes");
    println!("  slots reclaimed  : {}", stats.slots_reclaimed);
    println!(
        "  payload pool     : {}/{} returned",
        world.payload_pool().returned(),
        world.payload_pool().acquired()
    );

    // -- the cost of failure ---------------------------------------------
    assert_eq!(
        base_world.stats().crashes_injected,
        0,
        "baseline runs fault-free"
    );
    println!("\ncompletion CDF (fault-free -> faulty):");
    for (label, q) in [("p10", 0.10), ("median", 0.50), ("p90", 0.90)] {
        println!(
            "  {label:6}: {:7.1} ms -> {:7.1} ms",
            base_cdf.quantile(q) * 1e3,
            cdf.quantile(q) * 1e3
        );
    }
    println!(
        "  max   : {:7.1} ms -> {:7.1} ms",
        base_cdf.max() * 1e3,
        cdf.max() * 1e3
    );
    println!("\nok: crashes detected, blamed, rebuilt around; nothing leaked");
}
