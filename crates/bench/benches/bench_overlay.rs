//! End-to-end overlay benchmark: cells per second through a full 3-hop
//! circuit (client → 3 relays → server), the workload every layer of the
//! stack sits under — simcore's event loop, netsim's links, relaynet's
//! cell pipeline, torcell's crypto stand-in, and the congestion
//! controller under test.
//!
//! This is the headline number of the performance trajectory
//! (`BENCH_*.json`): a change that speeds up any hot layer moves it, and
//! a regression anywhere shows up here even if the micro-benches stay
//! flat. One iteration builds the scenario from scratch and runs the
//! transfer to quiescence, so setup cost is included — as it is in real
//! experiment sweeps, which construct thousands of short-lived worlds.

use std::sync::Arc;

use backtap::config::CcConfig;
use circuitstart::Algorithm;
use cs_bench::harness::Report;
use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::builder::{fixed_window_factory, PathScenario, StarScenario};
use relaynet::pool::PayloadPool;
use relaynet::runtime::{FactoryMaker, ShardedStar, StatsKind};
use relaynet::selection::{all_policies, SelectionPolicy};
use relaynet::workload::{ArrivalSpec, ChurnSpec, FaultSpec, WorkloadSpec};
use relaynet::{CcFactory, DirectoryConfig, WorldConfig};
use simcore::event::QueueKind;
use simcore::exec::{DeterministicExecutor, Executor, ThreadedExecutor};
use simcore::time::SimDuration;

/// Transfer size per iteration; 512 KiB = 1058 DATA cells through 4 links.
const FILE_BYTES: u64 = 512 * 1024;

fn scenario() -> PathScenario {
    let hop = LinkConfig::new(Bandwidth::from_mbps(100), SimDuration::from_millis(2));
    PathScenario {
        hops: vec![hop; 4], // 3 relays
        file_bytes: FILE_BYTES,
        world: WorldConfig::default(),
        ..Default::default()
    }
}

/// Runs one full transfer and returns the DATA cells delivered.
fn run_once(factory: CcFactory) -> u64 {
    let (mut sim, h) = scenario().build(factory, 1);
    sim.run();
    let r = sim.world().result_of(h.circ);
    assert!(r.completed, "bench transfer must complete");
    assert_eq!(r.payload_errors, 0);
    assert_eq!(sim.world().stats().protocol_errors, 0);
    r.cells_delivered
}

fn bench_algorithm(report: &mut Report, key: &str, factory: impl Fn() -> CcFactory) {
    let cells = run_once(factory());
    report.bench_with_rate(
        &format!("overlay/3hop_512k/{key}"),
        cells as f64,
        "cells/s",
        || {
            std::hint::black_box(run_once(factory()));
        },
    );
}

/// The workload-engine case: 4 circuits × 3 multiplexed streams with
/// bursty on/off arrivals, each circuit torn down and rebuilt twice
/// mid-run. Exercises the churn-only code paths the single-transfer
/// case never touches — DESTROY waves, queue drains, slot/route/pool
/// reclamation, and flow re-attachment — under the same cells/s metric.
fn churn_scenario() -> StarScenario {
    StarScenario {
        circuits: 4,
        file_bytes: 256 * 1024,
        directory: DirectoryConfig {
            relays: 8,
            bandwidth_mbps: (30.0, 90.0),
            delay_ms: (2.0, 6.0),
        },
        workload: WorkloadSpec {
            streams_per_circuit: 3,
            arrival: ArrivalSpec::OnOff {
                burst: 2,
                gap_ms: (10.0, 50.0),
            },
            churn: Some(ChurnSpec {
                teardown_after_ms: (60.0, 150.0),
                rebuild_delay_ms: 10.0,
                cycles: 2,
            }),
        },
        ..Default::default()
    }
}

/// Runs one full churn experiment and returns DATA cells delivered
/// across all flows (including the re-sent share — that is the work the
/// engine performed).
fn run_churn_once(factory: CcFactory) -> u64 {
    let (mut sim, _) = churn_scenario().build(factory, 1);
    sim.run();
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert!(world.stats().rebuilds > 0, "churn must actually churn");
    let mut cells = 0;
    for f in world.flows() {
        assert!(f.complete(), "bench workload must complete");
        cells += f.cells_delivered;
    }
    cells
}

fn bench_churn(report: &mut Report, key: &str, factory: impl Fn() -> CcFactory) {
    let cells = run_churn_once(factory());
    report.bench_with_rate(
        &format!("overlay/star_churn_4x3x2/{key}"),
        cells as f64,
        "cells/s",
        || {
            std::hint::black_box(run_churn_once(factory()));
        },
    );
}

/// The path-selection case: the same churning star as
/// `star_churn_4x3x2`, once per selection policy. Placement decides
/// which relays share circuits, so this measures both the selection
/// seam's own overhead (view construction, weighted draws, load
/// accounting — all off the per-cell path) and how much placement
/// quality moves end-to-end throughput under identical seeds.
fn policy_scenario(selection: SelectionPolicy) -> StarScenario {
    StarScenario {
        selection,
        ..churn_scenario()
    }
}

/// One full churn experiment under `selection`; returns delivered DATA
/// cells (as in [`run_churn_once`]).
fn run_policy_once(selection: SelectionPolicy, factory: CcFactory) -> u64 {
    let (mut sim, _) = policy_scenario(selection).build(factory, 1);
    sim.run();
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert!(world.stats().rebuilds > 0, "churn must actually churn");
    let mut cells = 0;
    for f in world.flows() {
        assert!(f.complete(), "bench workload must complete");
        cells += f.cells_delivered;
    }
    cells
}

fn bench_policies(report: &mut Report) {
    for policy in all_policies() {
        let factory = || Algorithm::CircuitStart.factory(CcConfig::default());
        let cells = run_policy_once(policy.clone(), factory());
        report.bench_with_rate(
            &format!("overlay/star_policies/{}", policy.name()),
            cells as f64,
            "cells/s",
            || {
                std::hint::black_box(run_policy_once(policy.clone(), factory()));
            },
        );
    }
}

/// The consensus-scale selection case: the incremental engine over a
/// 7000-relay directory (the size of the real Tor consensus), linear
/// scan vs Fenwick tree behind the same congestion-aware policy. Each
/// "select" is a full placement round trip as the network performs it:
/// a 3-relay weighted draw without replacement, load-ledger increments
/// with point updates, and the retirement (decrement) of an old
/// circuit's relays — so the rate is placements/s at steady churn, not
/// an isolated draw. Both cases consume identical RNG streams (the
/// pick-equivalence contract), so the ratio is pure data-structure win.
fn bench_selection(report: &mut Report) {
    use relaynet::directory::Directory;
    use relaynet::sampler::SamplerKind;
    use relaynet::selection::{CongestionAware, DirectoryView, SelectionEngine};
    use simcore::rng::SimRng;

    const RELAYS: usize = 7000;
    const SELECTS_PER_ITER: usize = 64;
    const LIVE_CIRCUITS: usize = 64;

    let dir = Directory::generate(
        &DirectoryConfig {
            relays: RELAYS,
            ..DirectoryConfig::default()
        },
        &SimRng::seed_from(9),
    );
    let policy = CongestionAware;
    for (key, kind) in [
        ("linear", SamplerKind::Linear),
        ("fenwick", SamplerKind::Fenwick),
    ] {
        let mut load = vec![0u32; RELAYS];
        let mut engine = SelectionEngine::new(&policy, &DirectoryView::new(&dir, &load), kind);
        assert_eq!(engine.sampler_name(), key);
        let mut rng = SimRng::seed_from(4242);
        let mut history: std::collections::VecDeque<[usize; 3]> =
            std::collections::VecDeque::with_capacity(LIVE_CIRCUITS + 1);
        let round = |engine: &mut SelectionEngine,
                     load: &mut Vec<u32>,
                     history: &mut std::collections::VecDeque<[usize; 3]>,
                     rng: &mut SimRng| {
            let mut picks = [0usize; 3];
            picks.copy_from_slice(engine.select(&policy, &DirectoryView::new(&dir, load), rng, 3));
            for &r in &picks {
                load[r] += 1;
                engine.load_changed(&policy, &DirectoryView::new(&dir, load), r);
            }
            history.push_back(picks);
            if history.len() > LIVE_CIRCUITS {
                let old = history.pop_front().expect("non-empty");
                for &r in &old {
                    load[r] -= 1;
                    engine.load_changed(&policy, &DirectoryView::new(&dir, load), r);
                }
            }
        };
        // Warm-up past the point every scratch buffer reaches its
        // high-water mark, then pin the footprint: the steady state
        // must be allocation-flat (perf_opt acceptance criterion).
        for _ in 0..SELECTS_PER_ITER {
            round(&mut engine, &mut load, &mut history, &mut rng);
        }
        let footprint = engine.scratch_footprint();
        report.bench_with_rate(
            &format!("overlay/selection_7k/{key}"),
            SELECTS_PER_ITER as f64,
            "selects/s",
            || {
                for _ in 0..SELECTS_PER_ITER {
                    round(&mut engine, &mut load, &mut history, &mut rng);
                }
                std::hint::black_box(&load);
            },
        );
        assert_eq!(
            engine.scratch_footprint(),
            footprint,
            "{key}: selection scratch grew after warm-up — the fast path allocated"
        );
    }
}

/// The fault-recovery case: the churning star of `star_churn_4x3x2`
/// with two relay crashes and a transient stall injected mid-run
/// (DESIGN.md §12). The rate covers the full recovery loop — timer
/// chains, blame-driven re-selection, backoff rebuilds, reap/retire
/// reclamation — under the same cells/s metric; the fault-free star
/// cases staying flat against the previous trajectory point is the
/// proof the fault seam costs nothing when unconfigured.
fn faults_scenario() -> StarScenario {
    StarScenario {
        faults: Some(FaultSpec {
            crashes: 2,
            crash_window_ms: (40.0, 120.0),
            stalls: 1,
            stall_window_ms: (40.0, 120.0),
            stall_duration_ms: 60.0,
            stall_factor: 200.0,
            build_timeout_ms: 300.0,
            liveness_timeout_ms: 600.0,
            ..Default::default()
        }),
        directory: DirectoryConfig {
            relays: 16,
            bandwidth_mbps: (30.0, 90.0),
            delay_ms: (2.0, 6.0),
        },
        ..churn_scenario()
    }
}

/// One full faulty experiment; returns delivered DATA cells. Every flow
/// must still complete — the bench doubles as a recovery smoke.
fn run_faults_once(factory: CcFactory) -> u64 {
    let (mut sim, _) = faults_scenario().build(factory, 1);
    sim.run();
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert!(
        world.stats().crashes_injected > 0,
        "fault schedule must fire"
    );
    let mut cells = 0;
    for f in world.flows() {
        assert!(f.complete(), "recovery must complete the bench workload");
        cells += f.cells_delivered;
    }
    cells
}

fn bench_faults(report: &mut Report) {
    let factory = || Algorithm::CircuitStart.factory(CcConfig::default());
    let cells = run_faults_once(factory());
    report.bench_with_rate(
        "overlay/star_faults/circuitstart",
        cells as f64,
        "cells/s",
        || {
            std::hint::black_box(run_faults_once(factory()));
        },
    );
}

/// The async-runtime scaling case: the churning star of
/// `star_churn_4x3x2`, sharded 8 ways and run across a thread pool at
/// 1/2/4/8 workers. Each shard is a full deterministic world
/// (the oracle the differential suite compares against), so the rate
/// measures what the runtime seam buys: end-to-end experiment
/// throughput — the resource policy-evaluation sweeps are bounded by —
/// as a function of cores.
fn async_experiment() -> ShardedStar {
    ShardedStar {
        scenario: churn_scenario(),
        shards: 8,
        seed: 1,
        queue: QueueKind::default(),
        stats: StatsKind::default(),
    }
}

/// One full sharded sweep on `workers` workers; returns total DATA
/// cells delivered. Doubles as the pool-sizing smoke: with the
/// scenario-sized idle cap, steady-state allocations must stay flat
/// (bounded by in-flight peaks, reuse-dominated) instead of thrashing
/// alloc/free against the cap.
fn run_async_once(exp: &ShardedStar, exec: &dyn Executor) -> u64 {
    let maker: FactoryMaker = Arc::new(|| Algorithm::CircuitStart.factory(CcConfig::default()));
    let sweep = exp.run(exec, maker);
    assert_eq!(sweep.stats.protocol_errors, 0);
    assert!(sweep.stats.rebuilds > 0, "churn must actually churn");
    let cap = PayloadPool::scenario_max_idle(exp.scenario.circuits);
    for s in &sweep.shards {
        let (allocated, reused, _returned, _idle, idle_hwm) = s.fingerprint.pool;
        assert!(
            idle_hwm < cap,
            "shard {}: pool hit its idle cap ({idle_hwm} >= {cap}) — reclaims were dropped",
            s.shard
        );
        // "Flat" means: fresh allocations are bounded by the peak
        // in-flight payload population (circuits × window bound), never
        // by the number of cells transferred — transferring more data
        // must not allocate more.
        let flat_bound = exp.scenario.circuits * PayloadPool::CELLS_PER_CIRCUIT;
        assert!(
            (allocated as usize) <= flat_bound,
            "shard {}: {allocated} fresh allocations exceed the in-flight \
             bound {flat_bound} — the pool is thrashing",
            s.shard
        );
        assert!(reused > 0, "shard {}: the pool was never reused", s.shard);
    }
    sweep.cells_delivered
}

fn bench_async(report: &mut Report) {
    let exp = async_experiment();
    // The in-thread oracle first: the seam's own overhead is the gap
    // between this and the 1-worker threaded case.
    let det = DeterministicExecutor;
    let cells = run_async_once(&exp, &det);
    report.bench_with_rate(
        "overlay/star_async_8shard/det",
        cells as f64,
        "cells/s",
        || {
            std::hint::black_box(run_async_once(&exp, &det));
        },
    );
    for workers in [1usize, 2, 4, 8] {
        let exec = ThreadedExecutor::new(workers);
        let cells = run_async_once(&exp, &exec);
        report.bench_with_rate(
            &format!("overlay/star_async_8shard/{workers}w"),
            cells as f64,
            "cells/s",
            || {
                std::hint::black_box(run_async_once(&exp, &exec));
            },
        );
    }
}

/// The telemetry-aggregation case: the same experiment-level "merge 16
/// shards' completion distributions and read the tail" done both ways —
/// the legacy concatenate-and-sort of raw samples (O(flows) memory and
/// O(n log n) per aggregation) versus bucket-wise sketch merge
/// (O(buckets), independent of flow count). The rate is samples folded
/// per second; compare the two names within one BENCH file. Also pins
/// the O(buckets) memory claim: the merged sketch occupies exactly the
/// bytes an empty sketch does.
fn bench_telemetry(report: &mut Report) {
    const SHARDS: usize = 16;
    const PER_SHARD: usize = 50_000;
    // Deterministic skewed "completion times" per shard (seconds),
    // spanning three decades like a real tail.
    let shard_samples: Vec<Vec<f64>> = (0..SHARDS)
        .map(|s| {
            let mut x = (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            (0..PER_SHARD)
                .map(|_| {
                    // xorshift64* — cheap, seedable, good enough for a
                    // bench distribution.
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    let u =
                        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
                    0.01 + 10.0 * u * u * u
                })
                .collect()
        })
        .collect();
    let sketches: Vec<simstats::QuantileSketch> = shard_samples
        .iter()
        .map(|samples| {
            let mut sk = simstats::QuantileSketch::default();
            for &v in samples {
                sk.record(v);
            }
            sk
        })
        .collect();
    let total = (SHARDS * PER_SHARD) as f64;

    report.bench_with_rate("telemetry/merge_16shard/sort", total, "samples/s", || {
        let mut all: Vec<f64> = shard_samples.iter().flatten().copied().collect();
        all.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let cdf = simstats::Cdf::from_samples(all).expect("samples are non-empty and finite");
        std::hint::black_box(cdf.p99());
    });
    report.bench_with_rate("telemetry/merge_16shard/sketch", total, "samples/s", || {
        let mut merged = simstats::QuantileSketch::default();
        for sk in &sketches {
            merged.merge(sk);
        }
        std::hint::black_box(merged.p99());
    });

    // The memory claim, asserted where the ratio is reported: 800k
    // samples leave the sketch exactly as large as an empty one, and
    // its tail answer stays inside the documented bound.
    let mut merged = simstats::QuantileSketch::default();
    for sk in &sketches {
        merged.merge(sk);
    }
    let empty = simstats::QuantileSketch::default();
    assert_eq!(merged.memory_bytes(), empty.memory_bytes());
    assert_eq!(merged.bucket_len(), empty.bucket_len());
    assert_eq!(merged.len(), SHARDS as u64 * PER_SHARD as u64);
    let mut all: Vec<f64> = shard_samples.iter().flatten().copied().collect();
    all.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let exact = simstats::Cdf::from_samples(all).expect("samples are non-empty and finite");
    for q in [0.5, 0.99, 0.999] {
        let e = exact.quantile(q);
        assert!(
            (merged.quantile(q) - e).abs() <= merged.alpha() * e,
            "merged sketch q={q} strayed outside alpha"
        );
    }
}

fn main() {
    let mut report = Report::new();
    bench_algorithm(&mut report, "circuitstart", || {
        Algorithm::CircuitStart.factory(CcConfig::default())
    });
    bench_algorithm(&mut report, "backtap_classic", || {
        Algorithm::ClassicBacktap.factory(CcConfig::default())
    });
    bench_algorithm(&mut report, "fixed_window_64", || fixed_window_factory(64));
    bench_churn(&mut report, "circuitstart", || {
        Algorithm::CircuitStart.factory(CcConfig::default())
    });
    bench_policies(&mut report);
    bench_faults(&mut report);
    bench_selection(&mut report);
    bench_async(&mut report);
    bench_telemetry(&mut report);
    report.finish("bench_overlay");
}
