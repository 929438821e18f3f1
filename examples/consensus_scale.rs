//! Consensus-scale directory smoke: a ~7000-relay star (the size of the
//! real Tor consensus), all four selection policies over identical
//! seeds, with epoch churn pulling relays in and out of the live set
//! mid-run. This is the regime the SoA relay store and the Fenwick
//! sampler exist for — selection is O(log n) per draw here, where the
//! legacy linear scan was O(n·path_len) per circuit.
//!
//! ```text
//! cargo run --release --example consensus_scale              # 7000 relays
//! cargo run --release --example consensus_scale -- 2000 24   # smaller sweep
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example reports to the terminal by design"
)]

use circuitstart::prelude::*;
use relaynet::selection::{all_policies, SelectionPolicy};
use relaynet::workload::{ArrivalSpec, EpochSpec, WorkloadSpec};
use relaynet::{DirectoryConfig, StarScenario};
use simstats::cdf::Cdf;

fn scenario(relays: usize, circuits: usize, selection: SelectionPolicy) -> StarScenario {
    StarScenario {
        circuits,
        relays_per_circuit: 3,
        file_bytes: 60_000,
        directory: DirectoryConfig {
            relays,
            bandwidth_mbps: (15.0, 100.0),
            delay_ms: (2.0, 12.0),
        },
        workload: WorkloadSpec {
            streams_per_circuit: 2,
            arrival: ArrivalSpec::UniformJitter { max_ms: 30.0 },
            churn: None,
        },
        // Four consensus epochs inside the run: 1% of the population
        // churns per epoch, drawn from a 10% standby pool — circuits
        // crossing a departure tear down and rebuild under live load.
        epochs: Some(EpochSpec {
            interval_ms: 80.0,
            epochs: 4,
            churn: relays / 100,
            standby_fraction: 0.1,
        }),
        selection,
        ..Default::default()
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let relays: usize = args
        .next()
        .map(|a| a.parse().expect("relay count"))
        .unwrap_or(7000);
    let circuits: usize = args
        .next()
        .map(|a| a.parse().expect("circuit count"))
        .unwrap_or(32);

    println!(
        "consensus_scale: {relays} relays, {circuits} circuits, 4 epochs \
         (1%/epoch churn, 10% standby pool), identical seeds per policy"
    );
    // ~p99 comes from the world's streaming sketch, within ±1% (its
    // alpha) of the exact column beside it — the fixed-memory record a
    // consensus-scale run would keep when retaining every sample stops
    // being an option.
    println!(
        "\n{:>12}  {:>8}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>7}  {:>9}  {:>9}  {:>9}",
        "policy",
        "sampler",
        "p50 [s]",
        "p90 [s]",
        "p99 [s]",
        "~p99 [s]",
        "worst [s]",
        "epochs",
        "departed",
        "rebuilds",
        "reclaimed"
    );

    for policy in all_policies() {
        let name = policy.name();
        let (mut sim, _) = scenario(relays, circuits, policy)
            .build(Algorithm::CircuitStart.factory(CcConfig::default()), 4242);
        run_to_completion(&mut sim);
        let world = sim.world();
        assert_eq!(world.stats().protocol_errors, 0, "{name}: protocol errors");
        assert_eq!(world.stats().epochs_applied, 4, "{name}: epochs missed");
        assert!(
            world.verify_placement_ledger(),
            "{name}: placement ledger out of sync"
        );
        for f in world.flows() {
            assert!(f.complete(), "{name}: a flow was stranded");
        }
        let cdf: Cdf = world.flow_completion_cdf().expect("completed flows");
        let sketch = world.flow_completion_sketch();
        assert_eq!(
            sketch.len(),
            cdf.len() as u64,
            "{name}: sketch missed flows"
        );
        let stats = world.stats();
        println!(
            "{:>12}  {:>8}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}  {:>7}  {:>9}  {:>9}  {:>9}",
            name,
            world.selection_sampler_name().expect("placement installed"),
            cdf.median(),
            cdf.quantile(0.9),
            cdf.p99(),
            sketch.p99(),
            cdf.max(),
            stats.epochs_applied,
            stats.relays_departed,
            stats.rebuilds,
            stats.slots_reclaimed,
        );
    }
    println!(
        "\n(every flow delivered in full across relay departures; the load \
         ledger matched the surviving incarnations at run end — see \
         DESIGN.md §11 for the SoA store, sampler seam, and epoch deltas)"
    );
}
