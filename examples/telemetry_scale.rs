//! Telemetry at consensus scale: a ~7000-relay star with epoch churn,
//! reported entirely through the streaming-telemetry layer — the
//! fixed-size completion sketch printed beside the exact sorted-sample
//! quantiles, and the full counter set rendered as a Prometheus text
//! exposition checked against a committed golden file.
//!
//! The run is bit-deterministic, so the exposition — counters *and*
//! sketch-derived quantile gauges — must be byte-identical run over
//! run; the golden file pins that, and `CS_BLESS=1` re-blesses it after
//! an intentional change. The sketch columns demonstrate the DESIGN.md
//! §13 contract: every quantile within ±1% (the default alpha) of the
//! exact value, from O(buckets) memory instead of O(flows).
//!
//! ```text
//! cargo run --release --example telemetry_scale             # 7000 relays
//! cargo run --release --example telemetry_scale -- 2000 24  # smaller (skips golden check)
//! CS_BLESS=1 cargo run --release --example telemetry_scale  # re-bless golden file
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example reports to the terminal by design"
)]

use circuitstart::prelude::*;
use relaynet::selection::CongestionAware;
use relaynet::workload::{ArrivalSpec, EpochSpec, WorkloadSpec};
use relaynet::{DirectoryConfig, StarScenario};
use simstats::cdf::Cdf;
use simstats::export::prometheus_text;
use simstats::registry::MetricsRegistry;
use std::path::Path;
use std::sync::Arc;

const DEFAULT_RELAYS: usize = 7000;
const DEFAULT_CIRCUITS: usize = 32;

fn scenario(relays: usize, circuits: usize) -> StarScenario {
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
        epochs: Some(EpochSpec {
            interval_ms: 80.0,
            epochs: 4,
            churn: relays / 100,
            standby_fraction: 0.1,
        }),
        selection: Arc::new(CongestionAware),
        ..Default::default()
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let relays: usize = args
        .next()
        .map(|a| a.parse().expect("relay count"))
        .unwrap_or(DEFAULT_RELAYS);
    let circuits: usize = args
        .next()
        .map(|a| a.parse().expect("circuit count"))
        .unwrap_or(DEFAULT_CIRCUITS);

    println!(
        "telemetry_scale: {relays} relays, {circuits} circuits, 4 epochs, \
         congestion-aware selection, seed 4242"
    );
    let (mut sim, _) = scenario(relays, circuits)
        .build(Algorithm::CircuitStart.factory(CcConfig::default()), 4242);
    run_to_completion(&mut sim);
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    for f in world.flows() {
        assert!(f.complete(), "a flow was stranded");
    }

    // Exact vs streaming, side by side. The exact CDF retains every
    // sample; the sketch saw the identical completions one at a time.
    let cdf: Cdf = world.flow_completion_cdf().expect("completed flows");
    let sketch = world.flow_completion_sketch();
    assert_eq!(sketch.len(), cdf.len() as u64, "sketch missed completions");
    println!(
        "\n{:>10}  {:>11}  {:>11}  {:>11}",
        "quantile", "exact [s]", "sketch [s]", "rel err"
    );
    for (label, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
        let exact = cdf.quantile(q);
        let approx = sketch.quantile(q);
        let rel = (approx - exact).abs() / exact;
        assert!(
            rel <= sketch.alpha(),
            "{label}: sketch {approx} strayed more than alpha from exact {exact}"
        );
        println!("{label:>10}  {exact:>11.4}  {approx:>11.4}  {rel:>11.2e}");
    }
    println!(
        "\nsketch: {} samples in {} buckets ({} bytes) — memory fixed by \
         alpha={}, not by flow count",
        sketch.len(),
        sketch.bucket_len(),
        sketch.memory_bytes(),
        sketch.alpha()
    );

    // The Prometheus exposition: every WorldStats counter plus the
    // merge-then-query quantile gauges.
    let mut registry = MetricsRegistry::new();
    world.stats().export_into(&mut registry);
    let text = prometheus_text(
        &registry,
        &[
            (
                "cs_completion_p50_seconds",
                "median flow completion time (sketch)",
                sketch.quantile(0.5),
            ),
            (
                "cs_completion_p99_seconds",
                "p99 flow completion time (sketch)",
                sketch.p99(),
            ),
            (
                "cs_completion_p999_seconds",
                "p999 flow completion time (sketch)",
                sketch.p999(),
            ),
            (
                "cs_completion_flows",
                "flows folded into the completion sketch",
                sketch.len() as f64,
            ),
        ],
    );

    // Golden-file pin, meaningful only for the default geometry (the
    // exposition is a pure function of the run).
    if relays == DEFAULT_RELAYS && circuits == DEFAULT_CIRCUITS {
        let golden =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry_scale.prom");
        if std::env::var_os("CS_BLESS").is_some() {
            std::fs::create_dir_all(golden.parent().expect("the golden path has a parent"))
                .expect("golden dir");
            std::fs::write(&golden, &text).expect("write golden file");
            println!("\nblessed {}", golden.display());
        } else {
            let want = std::fs::read_to_string(&golden)
                .expect("golden file missing — run with CS_BLESS=1 once");
            assert_eq!(
                text, want,
                "Prometheus exposition diverged from the golden file \
                 (intentional? re-bless with CS_BLESS=1)"
            );
            println!(
                "\nPrometheus exposition matches {} byte for byte",
                golden.display()
            );
        }
    } else {
        println!("\n(non-default geometry: golden-file check skipped)");
    }
    println!("\n{text}");
}
