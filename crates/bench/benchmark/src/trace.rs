//! The traced run: spans timed from outside the program, around calls
//! into each layer's public functions.
//!
//! * `simcore` — `Simulator::step` is driven in a loop with a probe that
//!   stamps the instant between the queue pop and `World::handle`: step
//!   entry → probe is the pop, probe → step return is the `relaynet`
//!   handler, keyed by the `TorEvent` variant the probe saw.
//! * `backtap` — the controller factory is wrapped in a delegating
//!   `CongestionControl` that times every call; that time is taken out of
//!   the handler span it ran inside.
//! * `torcell`, `netsim`, `pool`, the link scheduler and placement —
//!   microbenchmarks of their public calls at the sizes the traced run
//!   observed, multiplied by per-cell counts (a model, not a span).
//!
//! Every span is corrected by a calibrated per-read clock cost. Nothing
//! here mutates model state: the traced world's fingerprint must equal
//! the untraced one.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use backtap::cc::{CongestionControl, Phase};
use netsim::bandwidth::Bandwidth;
use netsim::link::{LinkConfig, LinkId};
use netsim::net::{Net, NetEvent, NodeId};
use relaynet::{
    CcFactory, CircId, Directory, DirectoryView, FramePayload, LinkScheduler, PayloadPool,
    SelectionEngine, TorEvent, TorNetwork, WireFrame,
};
use simcore::rng::SimRng;
use simcore::sim::{Context, Simulator, StopReason, World};
use simcore::time::{SimDuration, SimTime};
use torcell::cell::{Cell as TorCell, RelayCell, RELAY_DATA_MAX};
use torcell::crypto::{payload_digest, LayerKey, OnionRoute, RelayCrypt};
use torcell::ids::{CircuitId, StreamId};

use crate::workloads::{Counters, Experiment, HORIZON, MAX_EVENTS};

/// Handler kinds a traced event is keyed by.
pub const KINDS: [&str; 5] = ["deliver", "txcomplete", "control", "timer", "fault"];

fn kind_of(ev: &TorEvent) -> usize {
    match ev {
        TorEvent::Net(NetEvent::Deliver { .. }) => 0,
        TorEvent::Net(NetEvent::TxComplete { .. }) => 1,
        TorEvent::StartCircuit(_)
        | TorEvent::Teardown(_)
        | TorEvent::StreamArrival { .. }
        | TorEvent::Rebuild(_)
        | TorEvent::Epoch(_) => 2,
        TorEvent::CircTimeout { .. } => 3,
        TorEvent::RelayCrash { .. } | TorEvent::SetLinkRate { .. } => 4,
    }
}

thread_local! {
    /// (calls, raw nanoseconds) spent inside timed controller calls.
    static CC_TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn cc_tally() -> (u64, u64) {
    CC_TALLY.with(Cell::get)
}

/// A delegating controller that times every call into the wrapped one.
struct TimedCc {
    inner: Box<dyn CongestionControl + Send>,
}

/// Adds one timed controller call that started at `t`.
fn tally_since(t: Instant) {
    let ns = t.elapsed().as_nanos() as u64;
    CC_TALLY.with(|c| {
        let (n, sum) = c.get();
        c.set((n + 1, sum + ns));
    });
}

impl TimedCc {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn CongestionControl) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut *self.inner);
        tally_since(t);
        r
    }

    fn timed_ref<R>(&self, f: impl FnOnce(&dyn CongestionControl) -> R) -> R {
        let t = Instant::now();
        let r = f(&*self.inner);
        tally_since(t);
        r
    }
}

impl CongestionControl for TimedCc {
    fn name(&self) -> &'static str {
        self.timed_ref(|cc| cc.name())
    }

    fn cwnd(&self) -> u32 {
        self.timed_ref(|cc| cc.cwnd())
    }

    fn phase(&self) -> Phase {
        self.timed_ref(|cc| cc.phase())
    }

    fn allow_send(&self, outstanding: u32) -> bool {
        self.timed_ref(|cc| cc.allow_send(outstanding))
    }

    fn on_sent(&mut self, seq: u64, now: SimTime) {
        self.timed(|cc| cc.on_sent(seq, now));
    }

    fn on_feedback(&mut self, seq: u64, rtt: SimDuration, base_rtt: SimDuration, now: SimTime) {
        self.timed(|cc| cc.on_feedback(seq, rtt, base_rtt, now));
    }
}

/// Wraps a controller factory so every controller it makes is timed.
pub fn timed_factory(inner: CcFactory) -> CcFactory {
    Box::new(move |ctx| Box::new(TimedCc { inner: inner(ctx) }))
}

/// Raw span sums of traced runs (nanoseconds, uncorrected).
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Wall time of the whole traced loop.
    pub wall_ns: u64,
    pub steps: u64,
    pub pop_ns: u64,
    pub kind_ns: [u64; 5],
    pub kind_events: [u64; 5],
    /// Controller calls and their raw time, per handler kind.
    pub cc_calls: [u64; 5],
    pub cc_ns: [u64; 5],
    pub pending_sum: u128,
    pub pending_max: usize,
}

impl Spans {
    /// Folds another run's spans in.
    pub fn add(&mut self, o: &Spans) {
        self.wall_ns += o.wall_ns;
        self.steps += o.steps;
        self.pop_ns += o.pop_ns;
        for k in 0..KINDS.len() {
            self.kind_ns[k] += o.kind_ns[k];
            self.kind_events[k] += o.kind_events[k];
            self.cc_calls[k] += o.cc_calls[k];
            self.cc_ns[k] += o.cc_ns[k];
        }
        self.pending_sum += o.pending_sum;
        self.pending_max = self.pending_max.max(o.pending_max);
    }
}

/// Drives `sim` to quiescence one step at a time, adding its spans.
pub fn drive_traced(sim: &mut Simulator<TorNetwork>, spans: &mut Spans) -> StopReason {
    let mark = Rc::new(Cell::new((Instant::now(), 0usize)));
    let probe_mark = Rc::clone(&mark);
    sim.set_probe(Box::new(move |_, ev| {
        probe_mark.set((Instant::now(), kind_of(ev)));
    }));
    let start = Instant::now();
    let mut events = 0u64;
    let reason = loop {
        let (cc_n0, cc_ns0) = cc_tally();
        let t0 = Instant::now();
        if !sim.step() {
            break StopReason::QueueEmpty;
        }
        let t2 = Instant::now();
        let (t1, kind) = mark.get();
        let (cc_n1, cc_ns1) = cc_tally();
        spans.pop_ns += (t1 - t0).as_nanos() as u64;
        spans.kind_ns[kind] += (t2 - t1).as_nanos() as u64;
        spans.kind_events[kind] += 1;
        spans.cc_calls[kind] += cc_n1 - cc_n0;
        spans.cc_ns[kind] += cc_ns1 - cc_ns0;
        let pending = sim.pending_events();
        spans.pending_sum += pending as u128;
        spans.pending_max = spans.pending_max.max(pending);
        events += 1;
        if sim.now() > HORIZON {
            break StopReason::TimeLimit;
        }
        if events >= MAX_EVENTS {
            break StopReason::EventLimit;
        }
    };
    spans.wall_ns += start.elapsed().as_nanos() as u64;
    spans.steps += events;
    sim.clear_probe();
    reason
}

/// Median of `v` (sorted in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile of `v` (sorted in place); 0 for an
/// empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median nanoseconds per call of `f` over 9 samples of `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.min(1000) {
        f();
    }
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut samples)
}

/// What one span adds to the time it reports: the median duration of
/// an empty span (`Instant::now()` then `elapsed()`), after warm-up.
pub fn clock_cost_ns() -> f64 {
    let mut empty: Vec<f64> = (0..50_000)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .skip(10_000)
        .collect();
    median(&mut empty)
}

/// Sizes the traced run observed, for the microbenchmarks.
pub struct Observed {
    pub links: usize,
    pub pool_idle: usize,
    pub sched_backlog: usize,
    pub circuits_per_link: usize,
    pub relays_per_circuit: usize,
}

/// Per-call costs of the modelled sub-layers, nanoseconds.
pub struct Micro {
    pub strip_ns: f64,
    pub wrap_ns: f64,
    pub digest_ns: f64,
    pub pool_cycle_ns: f64,
    pub sched_ns: f64,
    pub link_ns: f64,
    /// `(directory.generate seconds, placement round trip ns)`.
    pub placement: Option<(f64, f64)>,
}

/// Runs every microbenchmark at the observed sizes.
pub fn microbench(obs: &Observed, exp: &Experiment, clock_ns: f64) -> Micro {
    let payload = vec![0xA5u8; RELAY_DATA_MAX];

    let mut crypt = RelayCrypt::new(LayerKey(0x5eed));
    let mut cell = RelayCell::data(StreamId(1), payload.clone());
    let strip_ns = ns_per_call(20_000, || {
        black_box(crypt.strip_forward(black_box(&mut cell)));
    });

    let mut route = OnionRoute::new();
    for hop in 0..obs.relays_per_circuit {
        route.push_layer(LayerKey(0x5eed + hop as u64));
    }
    let last_hop = obs.relays_per_circuit - 1;
    let wrap_ns = ns_per_call(20_000, || {
        route.wrap_for_hop(last_hop, black_box(&mut cell));
    });

    let digest_ns = ns_per_call(20_000, || {
        black_box(payload_digest(black_box(&payload)));
    });

    let mut pool = PayloadPool::with_max_idle(obs.pool_idle.max(1));
    let held: Vec<Vec<u8>> = (0..obs.pool_idle).map(|_| pool.acquire()).collect();
    for b in held {
        pool.reclaim(b);
    }
    let pool_cycle_ns = ns_per_call(50_000, || {
        let b = pool.acquire();
        pool.reclaim(black_box(b));
    });

    Micro {
        strip_ns,
        wrap_ns,
        digest_ns,
        pool_cycle_ns,
        sched_ns: sched_cycle_ns(obs),
        link_ns: link_frame_ns(obs.links.max(1), clock_ns),
        placement: exp.placement().map(|p| {
            // cs-lint: allow(rng-discipline, reason = "the benchmark is the experiment's root: the probe directory is drawn from the run's --seed")
            let rng = SimRng::seed_from(exp.seed);
            let mut gen: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    black_box(Directory::generate(p.directory, &rng));
                    t.elapsed().as_secs_f64()
                })
                .collect();
            let directory = Directory::generate(p.directory, &rng);
            let mut loads = vec![0u32; directory.len()];
            let mut engine = SelectionEngine::new(
                &**p.policy,
                &DirectoryView::new(&directory, &loads),
                p.sampler,
            );
            // cs-lint: allow(rng-discipline, reason = "derived from the probe's root stream above; the probe's picks feed no simulated world")
            let mut picks_rng = rng.derive("placement-probe");
            let mut picks = Vec::with_capacity(p.path_len);
            let ns = ns_per_call(2_000, || {
                picks.clear();
                picks.extend_from_slice(engine.select(
                    &**p.policy,
                    &DirectoryView::new(&directory, &loads),
                    &mut picks_rng,
                    p.path_len,
                ));
                for up in [true, false] {
                    for &r in &picks {
                        if up {
                            loads[r] += 1;
                        } else {
                            loads[r] -= 1;
                        }
                        engine.load_changed(
                            &**p.policy,
                            &DirectoryView::new(&directory, &loads),
                            r,
                        );
                    }
                }
            });
            (median(&mut gen), ns)
        }),
    }
}

/// A cell frame as the scheduler holds it (no payload bytes).
fn cell_frame(src: NodeId, dst: NodeId) -> WireFrame {
    WireFrame {
        src,
        dst,
        payload: FramePayload::Cell {
            cell: TorCell::relay_data(CircuitId(1), StreamId(1), Vec::new()),
            hop_seq: 0,
        },
        confirm: None,
    }
}

/// One `push_cell` + `pop` on a link scheduler holding the observed
/// backlog spread round-robin over the observed circuits per link.
fn sched_cycle_ns(obs: &Observed) -> f64 {
    let mut net: Net<WireFrame> = Net::new();
    let (a, b) = (net.add_node("a"), net.add_node("b"));
    let circuits = obs.circuits_per_link.max(1) as u32;
    let depth = (obs.sched_backlog / circuits as usize).max(2);
    let mut sched = LinkScheduler::new();
    for _ in 0..depth {
        for c in 0..circuits {
            sched.push_cell(CircId(c), cell_frame(a, b));
        }
    }
    // Every circuit keeps `depth - 1 ≥ 1` cells queued, so the rotation
    // serves circuits in index order.
    let mut next = 0u32;
    ns_per_call(50_000, || {
        let frame = sched.pop().expect("backlog is never empty");
        sched.push_cell(CircId(next), black_box(frame));
        next = (next + 1) % circuits;
    })
}

/// A minimal world that keeps one frame cycling on each link.
struct LinkBench {
    net: Net<WireFrame>,
    frame_src: NodeId,
    frame_dst: NodeId,
    remaining: u64,
    spans: u32,
    net_ns: u64,
}

#[derive(Clone, Copy)]
enum LinkEv {
    Kick(LinkId),
    Net(NetEvent),
}

impl From<NetEvent> for LinkEv {
    fn from(e: NetEvent) -> Self {
        LinkEv::Net(e)
    }
}

impl LinkBench {
    fn send(&mut self, ctx: &mut Context<'_, LinkEv>, link: LinkId) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let frame = cell_frame(self.frame_src, self.frame_dst);
        let t = Instant::now();
        self.net.send(ctx, link, frame);
        self.net_ns += t.elapsed().as_nanos() as u64;
        self.spans += 1;
    }
}

impl World for LinkBench {
    type Event = LinkEv;

    fn handle(&mut self, ctx: &mut Context<'_, LinkEv>, ev: LinkEv) {
        match ev {
            LinkEv::Kick(link) => self.send(ctx, link),
            LinkEv::Net(NetEvent::TxComplete { link }) => {
                let t = Instant::now();
                self.net.on_tx_complete(ctx, link);
                self.net_ns += t.elapsed().as_nanos() as u64;
                self.spans += 1;
            }
            LinkEv::Net(NetEvent::Deliver { link }) => {
                let t = Instant::now();
                black_box(self.net.take_delivered(link));
                self.net_ns += t.elapsed().as_nanos() as u64;
                self.spans += 1;
                self.send(ctx, link);
            }
        }
    }
}

/// One frame through `Net::send` → `on_tx_complete` → `take_delivered`
/// on a network with the observed link count, clock-corrected.
fn link_frame_ns(links: usize, clock_ns: f64) -> f64 {
    let frames_per_link = (200_000 / links as u64).max(20);
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut net: Net<WireFrame> = Net::new();
            let (a, b) = (net.add_node("a"), net.add_node("b"));
            let cfg = LinkConfig::new(Bandwidth::from_mbps(100), SimDuration::from_millis(2));
            let ids: Vec<LinkId> = (0..links).map(|_| net.add_link(a, b, cfg)).collect();
            let mut sim = Simulator::new(LinkBench {
                net,
                frame_src: a,
                frame_dst: b,
                remaining: frames_per_link * links as u64,
                spans: 0,
                net_ns: 0,
            });
            for (i, &l) in ids.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(i as u64), LinkEv::Kick(l));
            }
            sim.run();
            let w = sim.world();
            let frames = w.net.link_count().max(1) as f64 * frames_per_link as f64;
            (w.net_ns as f64 - f64::from(w.spans) * clock_ns).max(0.0) / frames
        })
        .collect();
    median(&mut samples)
}

/// Everything a trace-mode run accumulated.
#[derive(Default)]
pub struct Totals {
    pub spans: Spans,
    /// Counters summed over every traced experiment.
    pub traced: Counters,
    /// Counters summed over every untraced experiment.
    pub untraced: Counters,
    /// Host nanoseconds of the untraced runs (set-up excluded).
    pub untraced_run_ns: f64,
    /// One pass over the workload's inputs: the exact counters.
    pub first_pass: Counters,
}

/// Splits traced time across the layers. The shares, with
/// `model.residual_share`, sum to 1 of the clock-corrected traced time.
pub fn model(
    t: &Totals,
    micro: &Micro,
    obs: &Observed,
    clock_ns: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let spans = &t.spans;
    let c = clock_ns;
    let cc_calls: u64 = spans.cc_calls.iter().sum();
    // Each step reads the clock three times, each controller call twice.
    let clock_reads = 3.0 * spans.steps as f64 + 2.0 * cc_calls as f64;
    let denom = (spans.wall_ns as f64 - clock_reads * c).max(1.0);
    let pop = (spans.pop_ns as f64 - spans.steps as f64 * c).max(0.0);
    let cc: Vec<f64> = (0..5)
        .map(|k| (spans.cc_ns[k] as f64 - spans.cc_calls[k] as f64 * c).max(0.0))
        .collect();
    let cc_total: f64 = cc.iter().sum();
    // A handler span holds one boundary read, two reads per timed
    // controller call inside it, and the controller time itself.
    let mut handler: Vec<f64> = (0..5)
        .map(|k| {
            spans.kind_ns[k] as f64
                - spans.kind_events[k] as f64 * c
                - 2.0 * spans.cc_calls[k] as f64 * c
                - cc[k]
        })
        .collect();

    // Modelled sub-layers: microbenchmark cost × count over every
    // traced experiment.
    let tr = &t.traced;
    let torcell = tr.cells as f64
        * (micro.wrap_ns + micro.digest_ns + obs.relays_per_circuit as f64 * micro.strip_ns);
    let pool = (tr.pool_allocated + tr.pool_reused) as f64 * micro.pool_cycle_ns;
    let sched = tr.stats.cells_sent as f64 * micro.sched_ns;
    let netsim = tr.link_frames as f64 * micro.link_ns;
    // The modelled calls run inside the cell-path handlers: take them
    // out of Deliver and TxComplete in proportion to their time.
    let cell_path = handler[0] + handler[1];
    if cell_path > 0.0 {
        let keep = (cell_path - (torcell + pool + sched + netsim)) / cell_path;
        handler[0] *= keep;
        handler[1] *= keep;
    }

    let share = |ns: f64| ns / denom;
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let named: f64 = [pop, sched, cc_total, torcell, netsim, pool]
        .iter()
        .chain(&handler)
        .map(|&ns| share(ns))
        .sum();

    let fp = &t.first_pass;
    let fpc = fp.cells.max(1) as f64;
    let s = &fp.stats;
    let wasted =
        s.cells_dropped_closed + s.cells_drained + s.crash_frames_dropped + s.stale_frames_dropped;
    let (gen_s, placement_ns) = micro.placement.unwrap_or((0.0, 0.0));
    let untraced_s = t.untraced_run_ns / 1e9;
    let mut m = vec![
        (
            "simcore.events_per_cell",
            fp.events as f64 / fpc,
            "events/cell",
        ),
        (
            "simcore.events_per_s",
            t.untraced.events as f64 / untraced_s,
            "events/s",
        ),
        ("simcore.pop_ns", per(pop, spans.steps), "ns"),
        ("simcore.pop_share", share(pop), "ratio"),
        (
            "simcore.pending_mean",
            spans.pending_sum as f64 / spans.steps.max(1) as f64,
            "count",
        ),
        ("simcore.pending_max", spans.pending_max as f64, "count"),
    ];
    const NS: [&str; 5] = [
        "relaynet.deliver_ns",
        "relaynet.txcomplete_ns",
        "relaynet.control_ns",
        "relaynet.timer_ns",
        "relaynet.fault_ns",
    ];
    const SHARE: [&str; 5] = [
        "relaynet.deliver_share",
        "relaynet.txcomplete_share",
        "relaynet.control_share",
        "relaynet.timer_share",
        "relaynet.fault_share",
    ];
    for k in 0..5 {
        m.push((NS[k], per(handler[k], spans.kind_events[k]), "ns"));
        m.push((SHARE[k], share(handler[k]), "ratio"));
    }
    m.extend([
        ("relaynet.sched_ns", micro.sched_ns, "ns"),
        ("relaynet.sched_share", share(sched), "ratio"),
        (
            "relaynet.frames_per_cell",
            (s.cells_sent + s.feedback_sent) as f64 / fpc,
            "frames/cell",
        ),
        (
            "relaynet.wasted_frac",
            wasted as f64 / s.cells_sent.max(1) as f64,
            "ratio",
        ),
        ("relaynet.rebuilds", s.rebuilds as f64, "count"),
        ("relaynet.timeouts", s.timeouts_fired as f64, "count"),
        (
            "relaynet.sched_backlog_hwm",
            fp.sched_backlog_hwm as f64,
            "count",
        ),
        (
            "pool.allocs_per_kcell",
            fp.pool_allocated as f64 * 1e3 / fpc,
            "allocs/kcell",
        ),
        (
            "pool.reuse_frac",
            fp.pool_reused as f64 / (fp.pool_allocated + fp.pool_reused).max(1) as f64,
            "ratio",
        ),
        ("pool.idle_hwm", fp.pool_idle_hwm as f64, "count"),
        ("pool.cycle_ns", micro.pool_cycle_ns, "ns"),
        ("pool.share", share(pool), "ratio"),
        (
            "backtap.cc_calls_per_cell",
            cc_calls as f64 / tr.cells.max(1) as f64,
            "calls/cell",
        ),
        ("backtap.cc_ns", per(cc_total, cc_calls), "ns"),
        ("backtap.cc_share", share(cc_total), "ratio"),
        ("torcell.strip_ns", micro.strip_ns, "ns"),
        ("torcell.wrap_ns", micro.wrap_ns, "ns"),
        ("torcell.digest_ns", micro.digest_ns, "ns"),
        ("torcell.share", share(torcell), "ratio"),
        (
            "netsim.frames_per_cell",
            fp.link_frames as f64 / fpc,
            "frames/cell",
        ),
        ("netsim.link_ns", micro.link_ns, "ns"),
        ("netsim.share", share(netsim), "ratio"),
        (
            "netsim.queue_wait_us",
            fp.queue_wait_ns as f64 / 1e3 / fp.link_frames_sent.max(1) as f64,
            "us",
        ),
        ("netsim.queue_hwm", fp.queue_hwm as f64, "count"),
        ("netsim.drops", fp.link_drops as f64, "count"),
        ("directory.generate_s", gen_s, "s"),
        ("selection.placement_ns", placement_ns, "ns"),
        ("selection.placements", fp.placements as f64, "count"),
        (
            "model.ns_per_cell",
            t.untraced_run_ns / t.untraced.cells.max(1) as f64,
            "ns",
        ),
        ("model.residual_share", 1.0 - named, "ratio"),
        (
            "trace.overhead_frac",
            spans.wall_ns as f64 / t.untraced_run_ns.max(1.0) - 1.0,
            "ratio",
        ),
    ]);
    m
}
