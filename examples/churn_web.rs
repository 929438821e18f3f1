//! Churn + web-workload demo: circuits that multiplex several streams,
//! receive bursty on/off requests, tear down mid-experiment, and rebuild
//! — the scenario family the workload engine exists for.
//!
//! Six clients run 4-stream web-like workloads over a shared relay star;
//! every circuit is torn down twice mid-run (DESTROY racing in-flight
//! DATA) and rebuilt, with its unfinished flows re-attached. Prints the
//! per-stream completion CDF, the churn ledger, and the slot/pool
//! reclamation telemetry that proves teardown leaks nothing.
//!
//! ```text
//! cargo run --release --example churn_web
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example reports to the terminal by design"
)]

use circuitstart::prelude::*;
use relaynet::builder::StarScenario;
use relaynet::workload::{ArrivalSpec, ChurnSpec, WorkloadSpec};
use relaynet::DirectoryConfig;

fn main() {
    let scenario = StarScenario {
        circuits: 6,
        file_bytes: 400_000,
        directory: DirectoryConfig {
            relays: 10,
            bandwidth_mbps: (20.0, 80.0),
            delay_ms: (2.0, 8.0),
        },
        workload: WorkloadSpec {
            streams_per_circuit: 4,
            arrival: ArrivalSpec::OnOff {
                burst: 2,
                gap_ms: (20.0, 120.0),
            },
            churn: Some(ChurnSpec {
                teardown_after_ms: (60.0, 200.0),
                rebuild_delay_ms: 15.0,
                cycles: 2,
            }),
        },
        ..Default::default()
    };
    println!("churn_web: 6 circuits x 4 streams, on/off arrivals, 2 teardown/rebuild cycles");

    let (mut sim, circuits) =
        scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), 42);
    run_to_completion(&mut sim);
    let world = sim.world();

    // -- workload outcome ------------------------------------------------
    let stats = world.stats();
    assert_eq!(stats.protocol_errors, 0, "healthy runs have no violations");
    let mut delivered = 0u64;
    let mut requested = 0u64;
    for f in world.flows() {
        assert!(f.complete(), "churn must never strand a flow");
        delivered += f.delivered;
        requested += f.requested;
    }
    println!("\nflows ({} total):", world.flows().len());
    println!("  requested        : {requested} bytes");
    println!("  delivered        : {delivered} bytes (conserved across churn)");
    let cdf = world.flow_completion_cdf().expect("completed flows");
    println!("\nper-stream completion times (request -> last byte):");
    println!("  p10   : {:7.1} ms", cdf.quantile(0.10) * 1e3);
    println!("  median: {:7.1} ms", cdf.median() * 1e3);
    println!("  p90   : {:7.1} ms", cdf.quantile(0.90) * 1e3);
    println!("  max   : {:7.1} ms", cdf.max() * 1e3);

    // -- churn ledger ----------------------------------------------------
    println!("\nchurn:");
    println!(
        "  incarnations     : {} ({} initial + {} rebuilds)",
        world.circuit_count(),
        circuits.len(),
        stats.rebuilds
    );
    println!("  DESTROYs sent    : {}", stats.destroys_sent);
    println!(
        "  cells dropped    : {} (arrived on a closed circuit)",
        stats.cells_dropped_closed
    );
    println!(
        "  cells drained    : {} (queued at teardown)",
        stats.cells_drained
    );

    // -- reclamation telemetry ------------------------------------------
    println!("\nreclamation:");
    println!("  slots reclaimed  : {}", stats.slots_reclaimed);
    println!(
        "  route table      : {} slots, {} on the free list",
        world.link_route_slots(),
        world.free_link_routes()
    );
    let (allocated, reused) = world.payload_pool().stats();
    println!(
        "  payload pool     : {} allocated, {} reused, {}/{} returned",
        allocated,
        reused,
        world.payload_pool().returned(),
        world.payload_pool().acquired()
    );
    assert_eq!(
        world.payload_pool().returned(),
        world.payload_pool().acquired(),
        "every in-flight buffer must come home"
    );
    // Spot-check slot books on the first client.
    let client = world.circuit_info(circuits[0]).path[0];
    let node = world.node(client);
    println!(
        "  client-0 slab    : {} slots ({} live, {} free)",
        node.slab_len(),
        node.circuit_count(),
        node.free_slot_count()
    );
    println!("\nok: deterministic churn workload, no leaks, no protocol errors");
}
