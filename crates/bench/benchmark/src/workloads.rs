//! The three workloads and the checked experiment runner.
//!
//! Every workload is a closed batch: one caller builds a world through
//! the public scenario API, runs it to quiescence, checks it, and only
//! then starts the next experiment. A run cycles through a fixed list of
//! experiment inputs generated from `--seed`; the program sees only the
//! generated scenario and its build seed.

use std::sync::Arc;
use std::time::Instant;

use circuitstart::prelude::{fig1_cdf, Algorithm, CcConfig};
use netsim::bandwidth::Bandwidth;
use netsim::link::{LinkConfig, LinkId};
use netsim::net::Net;
use relaynet::selection::{CongestionAware, SelectionPolicy};
use relaynet::workload::{ArrivalSpec, ChurnSpec, EpochSpec, WorkloadSpec};
use relaynet::{
    fingerprint, CcFactory, DirectoryConfig, PathScenario, SamplerKind, StarScenario, TorNetwork,
    WorldConfig, WorldFingerprint, WorldStats,
};
use simcore::rng::SimRng;
use simcore::sim::{RunLimits, Simulator, StopReason};
use simcore::time::{SimDuration, SimTime};

/// Safety horizon of one experiment (simulated), as in the figure
/// harness: a world that has not quiesced by then is a deadlock.
pub const HORIZON: SimTime = SimTime::from_secs(3_600);
/// Safety cap on events per experiment.
pub const MAX_EVENTS: u64 = 2_000_000_000;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One circuit over a 3-relay chain carrying one 16 MiB stream: the
    /// bare per-cell path.
    BulkPath,
    /// The paper's Figure 1 lower-panel preset (50 circuits × 1 MiB over
    /// a 30-relay star), CircuitStart only.
    Fig1Star,
    /// 400 short-flow circuits over a 7000-relay directory with churn
    /// and epochs: placement and circuit turnover.
    ConsensusWeb,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BulkPath,
        Workload::Fig1Star,
        Workload::ConsensusWeb,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkPath => "bulk_path",
            Workload::Fig1Star => "fig1_star",
            Workload::ConsensusWeb => "consensus_web",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many distinct experiment inputs one run cycles through. The
    /// simulated metrics pool exactly these, so they do not depend on
    /// how many experiments the host manages in the time given.
    pub fn inputs(self) -> u64 {
        match self {
            Workload::BulkPath => 8,
            // Three times the preset's repetition count: fewer topologies
            // leave the TTLB quantiles and the peak memory at the mercy
            // of one seed.
            Workload::Fig1Star => 3 * u64::from(fig1_cdf().repetitions),
            Workload::ConsensusWeb => 4,
        }
    }

    /// The experiment inputs of one run, generated from `seed`.
    /// Experiment `i` builds with master seed `seed + i`, the way the
    /// figure harness numbers its repetitions.
    pub fn experiments(self, seed: u64) -> Vec<Experiment> {
        (0..self.inputs())
            .map(|i| {
                let seed = seed.wrapping_add(i);
                let scenario = match self {
                    Workload::BulkPath => Scenario::Path(bulk_path(seed)),
                    Workload::Fig1Star => Scenario::Star(fig1_cdf().star),
                    Workload::ConsensusWeb => Scenario::Star(consensus_web()),
                };
                Experiment {
                    scenario,
                    seed,
                    cc: fig1_cdf().cc,
                }
            })
            .collect()
    }
}

/// `bulk_path`: 4 × 100 Mbit/s links around 3 relays. Each link's delay
/// is drawn from 2 ms ± 25%, so the seed changes the input (with fixed
/// delays every seed would simulate the identical transfer).
fn bulk_path(seed: u64) -> PathScenario {
    // cs-lint: allow(rng-discipline, reason = "the benchmark is the experiment's root: --seed is the master seed of the generated inputs")
    let mut rng = SimRng::seed_from(seed).derive("bulk-path-link-delays");
    let hops = (0..4)
        .map(|_| {
            LinkConfig::new(
                Bandwidth::from_mbps(100),
                SimDuration::from_secs_f64(rng.range_f64(1.5, 2.5) / 1e3),
            )
        })
        .collect();
    PathScenario {
        hops,
        file_bytes: 16 << 20,
        world: WorldConfig {
            verify_payload: true,
            trace_client_cwnd: false,
        },
        ..Default::default()
    }
}

/// `consensus_web`: consensus-size directory, congestion-aware
/// placement, short on/off streams, churn and epochs. Fault injection is
/// left out: with the client timers armed, this workload fires build and
/// liveness timeouts on circuits no fault touched, and some seeds strand
/// a lineage's flows (see `README.md`).
fn consensus_web() -> StarScenario {
    let relays = 7000;
    StarScenario {
        directory: DirectoryConfig {
            relays,
            bandwidth_mbps: (15.0, 100.0),
            delay_ms: (2.0, 12.0),
        },
        circuits: 400,
        relays_per_circuit: 3,
        file_bytes: 20_000,
        selection: Arc::new(CongestionAware),
        workload: WorkloadSpec {
            streams_per_circuit: 4,
            arrival: ArrivalSpec::OnOff {
                burst: 1,
                gap_ms: (5.0, 40.0),
            },
            churn: Some(ChurnSpec {
                teardown_after_ms: (20.0, 60.0),
                rebuild_delay_ms: 5.0,
                cycles: 4,
            }),
        },
        epochs: Some(EpochSpec {
            interval_ms: 80.0,
            epochs: 4,
            churn: relays / 100,
            standby_fraction: 0.1,
        }),
        world: WorldConfig {
            verify_payload: true,
            trace_client_cwnd: false,
        },
        ..Default::default()
    }
}

/// A generated scenario.
pub enum Scenario {
    /// An explicit chain.
    Path(PathScenario),
    /// A star over a generated directory.
    Star(StarScenario),
}

/// One experiment input: the scenario, its master seed, and the
/// controller configuration.
pub struct Experiment {
    pub scenario: Scenario,
    pub seed: u64,
    pub cc: CcConfig,
}

/// What placement runs on, for the selection and directory probes.
pub struct Placement<'a> {
    pub directory: &'a DirectoryConfig,
    pub policy: &'a SelectionPolicy,
    pub sampler: SamplerKind,
    pub path_len: usize,
}

impl Experiment {
    /// The CircuitStart controller factory for this experiment.
    pub fn factory(&self) -> CcFactory {
        Algorithm::CircuitStart.factory(self.cc)
    }

    /// Builds the world (the timed set-up step).
    pub fn build(&self, factory: CcFactory) -> Simulator<TorNetwork> {
        match &self.scenario {
            Scenario::Path(p) => p.build(factory, self.seed).0,
            Scenario::Star(s) => s.build(factory, self.seed).0,
        }
    }

    /// Relays on every circuit's path.
    pub fn relays_per_circuit(&self) -> usize {
        match &self.scenario {
            Scenario::Path(p) => p.hops.len() - 1,
            Scenario::Star(s) => s.relays_per_circuit,
        }
    }

    /// The placement inputs, when the scenario places circuits.
    pub fn placement(&self) -> Option<Placement<'_>> {
        match &self.scenario {
            Scenario::Path(_) => None,
            Scenario::Star(s) => Some(Placement {
                directory: &s.directory,
                policy: &s.selection,
                sampler: s.sampler,
                path_len: s.relays_per_circuit,
            }),
        }
    }
}

/// Runs an untimed-internals experiment to quiescence under the same
/// limits as the figure harness.
pub fn run_plain(sim: &mut Simulator<TorNetwork>) -> StopReason {
    sim.run_with_limits(RunLimits {
        until: Some(HORIZON),
        max_events: Some(MAX_EVENTS),
    })
    .reason
}

/// The ids of the first `n` links of any [`Net`]: link ids are dense
/// indices in creation order, and the scenario builders do not hand the
/// star's links out.
pub fn link_ids(n: usize) -> Vec<LinkId> {
    let mut net: Net<netsim::frame::RawFrame> = Net::new();
    let (a, b) = (net.add_node("a"), net.add_node("b"));
    let cfg = LinkConfig::new(Bandwidth::from_mbps(1), SimDuration::ZERO);
    (0..n).map(|_| net.add_link(a, b, cfg)).collect()
}

/// Work counters of one finished world, all exact for a given seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub events: u64,
    /// DATA cells delivered to servers (summed over flows).
    pub cells: u64,
    pub stats: WorldStats,
    /// Frames delivered over all links (a star frame crosses two).
    pub link_frames: u64,
    pub link_frames_sent: u64,
    pub link_drops: u64,
    /// Sum of per-frame egress queue waits, simulated nanoseconds.
    pub queue_wait_ns: u64,
    pub queue_hwm: usize,
    pub sched_backlog_hwm: usize,
    pub pool_allocated: u64,
    pub pool_reused: u64,
    pub pool_idle_hwm: usize,
    /// Circuit incarnations placed through the selection policy.
    pub placements: u64,
    pub links: usize,
}

impl Counters {
    fn of(world: &TorNetwork, events: u64) -> Counters {
        let net = world.net();
        let links = link_ids(net.link_count());
        let (pool_allocated, pool_reused) = world.payload_pool().stats();
        let mut c = Counters {
            events,
            cells: world.flows().iter().map(|f| f.cells_delivered).sum(),
            stats: *world.stats(),
            link_drops: net.total_drops(),
            pool_allocated,
            pool_reused,
            pool_idle_hwm: world.payload_pool().idle_hwm(),
            placements: if world.selection_policy_name().is_some() {
                world.circuit_count() as u64
            } else {
                0
            },
            links: links.len(),
            ..Counters::default()
        };
        for &l in &links {
            let s = net.stats(l);
            c.link_frames += s.frames_delivered;
            c.link_frames_sent += s.frames_sent;
            c.queue_wait_ns += s.queue_wait_total.as_nanos();
            c.queue_hwm = c.queue_hwm.max(s.queue_hwm_frames);
            c.sched_backlog_hwm = c.sched_backlog_hwm.max(world.sched_backlog_hwm(l));
        }
        c
    }

    /// Folds another experiment's counters in (sums; maxima for
    /// high-water marks).
    pub fn add(&mut self, o: &Counters) {
        self.events += o.events;
        self.cells += o.cells;
        self.stats.merge(&o.stats);
        self.link_frames += o.link_frames;
        self.link_frames_sent += o.link_frames_sent;
        self.link_drops += o.link_drops;
        self.queue_wait_ns += o.queue_wait_ns;
        self.queue_hwm = self.queue_hwm.max(o.queue_hwm);
        self.sched_backlog_hwm = self.sched_backlog_hwm.max(o.sched_backlog_hwm);
        self.pool_allocated += o.pool_allocated;
        self.pool_reused += o.pool_reused;
        self.pool_idle_hwm = self.pool_idle_hwm.max(o.pool_idle_hwm);
        self.placements += o.placements;
        self.links = self.links.max(o.links);
    }
}

/// The checked outcome of one experiment.
pub struct Outcome {
    /// Host seconds in the scenario `build`.
    pub setup_s: f64,
    /// Host seconds running to quiescence.
    pub run_s: f64,
    /// Host seconds for build, run and checks together.
    pub experiment_s: f64,
    pub flows: u64,
    /// Flows not completed; every flow when any check failed.
    pub flows_failed: u64,
    /// Simulated request-to-last-byte seconds of every completed flow.
    pub ttlb_s: Vec<f64>,
    pub fingerprint: WorldFingerprint,
    pub counters: Counters,
    /// Failed checks, empty when the experiment is correct.
    pub errors: Vec<String>,
}

/// Builds, runs (with `drive`) and checks one experiment.
pub fn run_experiment(
    exp: &Experiment,
    factory: CcFactory,
    drive: impl FnOnce(&mut Simulator<TorNetwork>) -> StopReason,
) -> Outcome {
    let t0 = Instant::now();
    let mut sim = exp.build(factory);
    let t1 = Instant::now();
    let reason = drive(&mut sim);
    let t2 = Instant::now();
    let world = sim.world();
    let errors = check(world, reason);
    let fingerprint = fingerprint(world, sim.events_processed());
    let t3 = Instant::now();

    let flows = world.flows().len() as u64;
    let incomplete = world.flows().iter().filter(|f| !f.complete()).count() as u64;
    Outcome {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        experiment_s: (t3 - t0).as_secs_f64(),
        flows,
        flows_failed: if errors.is_empty() { incomplete } else { flows },
        ttlb_s: world
            .flows()
            .iter()
            .filter_map(|f| f.completion_time())
            .map(SimDuration::as_secs_f64)
            .collect(),
        counters: Counters::of(world, sim.events_processed()),
        fingerprint,
        errors,
    }
}

/// The per-experiment correctness gate.
fn check(world: &TorNetwork, reason: StopReason) -> Vec<String> {
    let mut errors = Vec::new();
    if reason != StopReason::QueueEmpty {
        errors.push(format!("did not quiesce: {reason:?}"));
    }
    let stats = world.stats();
    if stats.protocol_errors != 0 {
        errors.push(format!("{} protocol errors", stats.protocol_errors));
    }
    let payload_errors: u64 = world.results().iter().map(|r| r.payload_errors).sum();
    if payload_errors != 0 {
        errors.push(format!("{payload_errors} payload errors"));
    }
    let incomplete = world.flows().iter().filter(|f| !f.complete()).count();
    if incomplete != 0 {
        errors.push(format!(
            "{incomplete} flows incomplete ({} parked after {} timeouts, {} retries, {} blamed)",
            stats.flows_parked, stats.timeouts_fired, stats.retries, stats.blamed_exclusions
        ));
    }
    if !world.verify_placement_ledger() {
        errors.push("placement ledger out of sync".to_string());
    }
    errors
}

/// FNV-1a over the fingerprint's debug form: a short, stable digest of
/// everything observable about a finished world.
pub fn digest(fp: &WorldFingerprint) -> u64 {
    format!("{fp:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}
