//! The async-runtime experiment sweep: every selection policy evaluated
//! over a sharded star experiment on the threaded executor's pool,
//! with the deterministic single-threaded runtime verified as the
//! oracle *inside the same run*.
//!
//! This is what the `Runtime` seam exists for (DESIGN.md §10): policy
//! evaluation needs many independent worlds — seeds × policies — and
//! their wall-clock cost, not any single world's, bounds experiment
//! scale. Each shard here is a complete churning star world derived
//! from `(seed, shard)`; the pool runs them across cores; the merged
//! per-policy flow CDF and relay-hotspot telemetry come out identical
//! to a sequential run, and the example proves it by re-running one
//! policy on the deterministic executor and comparing fingerprints.
//!
//! ```text
//! cargo run --release --example async_sweep            # 4 shards, 4 workers
//! cargo run --release --example async_sweep -- 8 2     # 8 shards, 2 workers
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example reports to the terminal by design"
)]

use std::sync::Arc;

use backtap::config::CcConfig;
use circuitstart::Algorithm;
use relaynet::runtime::{FactoryMaker, ShardedStar, StatsKind};
use relaynet::selection::all_policies;
use relaynet::workload::{ArrivalSpec, ChurnSpec, WorkloadSpec};
use relaynet::{DirectoryConfig, StarScenario};
use simcore::event::QueueKind;
use simcore::exec::{DeterministicExecutor, Executor, ThreadedExecutor};

fn experiment(policy: relaynet::SelectionPolicy, shards: usize) -> ShardedStar {
    ShardedStar {
        scenario: StarScenario {
            circuits: 3,
            file_bytes: 60_000,
            directory: DirectoryConfig {
                relays: 10,
                bandwidth_mbps: (15.0, 80.0),
                delay_ms: (2.0, 10.0),
            },
            workload: WorkloadSpec {
                streams_per_circuit: 3,
                arrival: ArrivalSpec::OnOff {
                    burst: 2,
                    gap_ms: (10.0, 50.0),
                },
                churn: Some(ChurnSpec {
                    teardown_after_ms: (40.0, 120.0),
                    rebuild_delay_ms: 5.0,
                    cycles: 1,
                }),
            },
            selection: policy,
            ..Default::default()
        },
        shards,
        seed: 4242,
        queue: QueueKind::default(),
        stats: StatsKind::default(),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let shards: usize = args
        .next()
        .map(|a| a.parse().expect("shard count"))
        .unwrap_or(4);
    let workers: usize = args
        .next()
        .map(|a| a.parse().expect("worker count"))
        .unwrap_or(4);
    let maker: FactoryMaker = Arc::new(|| Algorithm::CircuitStart.factory(CcConfig::default()));
    let pool = ThreadedExecutor::new(workers);

    println!(
        "async policy sweep: {shards} shards x {} circuits, {workers} workers ({})\n",
        3,
        pool.name()
    );
    println!(
        "{:<12} {:>9} {:>11} {:>9} {:>9} {:>10}",
        "policy", "flows", "cells", "p50 s", "p90 s", "peak load"
    );
    for policy in all_policies() {
        let exp = experiment(policy.clone(), shards);
        let sweep = exp.run(&pool, maker.clone());
        let cdf = sweep.completion_cdf().expect("completed flows");
        let peak_load = sweep
            .shards
            .iter()
            .flat_map(|s| s.fingerprint.relay_load_hwms.iter().copied())
            .max()
            .unwrap_or(0);
        println!(
            "{:<12} {:>9} {:>11} {:>9.3} {:>9.3} {:>10}",
            policy.name(),
            sweep
                .shards
                .iter()
                .map(|s| s.fingerprint.flows.len())
                .sum::<usize>(),
            sweep.cells_delivered,
            cdf.quantile(0.5),
            cdf.quantile(0.9),
            peak_load,
        );
    }

    // The oracle check: one policy re-run on the deterministic
    // single-threaded executor must reproduce the pool's outcome bit
    // for bit.
    let exp = experiment(all_policies()[3].clone(), shards);
    let threaded = exp.run(&pool, maker.clone());
    let oracle = exp.run(&DeterministicExecutor, maker);
    assert_eq!(
        oracle.shards, threaded.shards,
        "threaded sweep diverged from the deterministic oracle"
    );
    println!(
        "\noracle check: {} shards bit-identical across {} and {} executors",
        shards,
        DeterministicExecutor.name(),
        pool.name()
    );
}
