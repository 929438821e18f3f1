//! Ablation sweeps (DESIGN.md §5, experiments A1–A6): the design choices
//! the 3-page poster could not explore, quantified.
//!
//! ```text
//! cargo run --release -p cs-bench --bin ablations              # all sweeps
//! cargo run --release -p cs-bench --bin ablations -- gamma     # one sweep
//! ```
//!
//! Sweeps: `gamma`, `theta`, `init-cwnd`, `compensation`, `distance`,
//! `load`, `midflow`, `policies`. Each prints a table and writes
//! `target/figures/ablation_<name>.dat`.

#![expect(
    clippy::print_stdout,
    reason = "a figure binary reports to the terminal by design"
)]

use circuitstart::prelude::*;
use cs_bench::{write_figure, Options};
use netsim::bandwidth::Bandwidth;
use relaynet::selection::all_policies;
use relaynet::{PathScenario, TorEvent, WorldConfig};
use simcore::time::SimTime;
use simstats::export::Table;

/// One row of a trace-based sweep.
struct TraceRow {
    x: f64,
    peak: u32,
    exit_cwnd: u32,
    settle_ms: Option<f64>,
    ttlb_s: f64,
}

fn trace_row(x: f64, cfg: &TraceScenarioConfig) -> TraceRow {
    let report = run_trace(cfg);
    let peak = report.peak_cwnd_cells();
    let exit_cwnd = report
        .cwnd_cells
        .iter()
        .skip_while(|&&(_, c)| c < peak)
        .nth(1)
        .map(|&(_, c)| c)
        .unwrap_or(peak);
    let t0 = report
        .result
        .first_data_at
        .expect("completed")
        .as_millis_f64();
    TraceRow {
        x,
        peak,
        exit_cwnd,
        settle_ms: report.settling_time_ms(0.35).map(|s| s - t0),
        ttlb_s: report
            .result
            .transfer_time()
            .expect("completed")
            .as_secs_f64(),
    }
}

fn print_rows(title: &str, x_name: &str, optimal: f64, rows: &[TraceRow]) -> Table {
    println!("\n━━━ {title} (model optimum ≈ {optimal:.1} cells) ━━━");
    println!(
        "  {x_name:>12}  {:>6}  {:>9}  {:>11}  {:>8}",
        "peak", "exit→cwnd", "settle [ms]", "ttlb [s]"
    );
    let mut table = Table::new(vec![
        x_name,
        "peak_cells",
        "exit_cwnd",
        "settle_ms",
        "ttlb_s",
    ]);
    for r in rows {
        println!(
            "  {:>12}  {:>6}  {:>9}  {:>11}  {:>8.3}",
            r.x,
            r.peak,
            r.exit_cwnd,
            r.settle_ms
                .map(|s| format!("{s:.0}"))
                .unwrap_or_else(|| "never".into()),
            r.ttlb_s
        );
        table.push_row(&[
            r.x,
            f64::from(r.peak),
            f64::from(r.exit_cwnd),
            r.settle_ms.unwrap_or(-1.0),
            r.ttlb_s,
        ]);
    }
    table
}

/// A1: ramp-exit threshold γ (binds at small windows).
fn sweep_gamma() {
    let rows: Vec<TraceRow> = [1.0, 2.0, 4.0, 8.0, 16.0]
        .into_iter()
        .map(|gamma| {
            let mut cfg = fig1_trace(1, Algorithm::CircuitStart);
            cfg.cc.gamma = gamma;
            trace_row(gamma, &cfg)
        })
        .collect();
    let optimal = fig1_trace(1, Algorithm::CircuitStart)
        .model()
        .optimal_source_cwnd_cells();
    let t = print_rows("A1: γ sweep (fig-1a geometry)", "gamma", optimal, &rows);
    write_figure("ablation_gamma", &t);
}

/// A1b: round-overrun threshold θ (the budget that times the
/// compensation measurement).
fn sweep_theta() {
    let rows: Vec<TraceRow> = [0.5, 0.75, 1.0, 1.5, 2.0]
        .into_iter()
        .map(|theta| {
            let mut cfg = fig1_trace(1, Algorithm::CircuitStart);
            cfg.cc.theta = theta;
            trace_row(theta, &cfg)
        })
        .collect();
    let optimal = fig1_trace(1, Algorithm::CircuitStart)
        .model()
        .optimal_source_cwnd_cells();
    let t = print_rows("A1b: θ sweep (fig-1a geometry)", "theta", optimal, &rows);
    write_figure("ablation_theta", &t);
}

/// A2: initial window.
fn sweep_init_cwnd() {
    let rows: Vec<TraceRow> = [2u32, 4, 8, 16]
        .into_iter()
        .map(|w| {
            let mut cfg = fig1_trace(1, Algorithm::CircuitStart);
            cfg.cc.init_cwnd = w;
            cfg.cc.min_cwnd = 2.min(w);
            trace_row(f64::from(w), &cfg)
        })
        .collect();
    let optimal = fig1_trace(1, Algorithm::CircuitStart)
        .model()
        .optimal_source_cwnd_cells();
    let t = print_rows("A2: initial-window sweep", "init_cwnd", optimal, &rows);
    write_figure("ablation_init_cwnd", &t);
}

/// A3: compensation variants — the heart of the paper, ablated.
fn sweep_compensation() {
    println!("\n━━━ A3: ramp-exit policy (fig-1a geometry, optimum ≈ 50 cells) ━━━");
    println!(
        "  {:<22}  {:>6}  {:>9}  {:>11}  {:>8}",
        "policy", "peak", "exit→cwnd", "settle [ms]", "ttlb [s]"
    );
    let mut table = Table::new(vec![
        "variant",
        "peak_cells",
        "exit_cwnd",
        "settle_ms",
        "ttlb_s",
    ]);
    for (i, (label, algorithm)) in [
        ("compensation (paper)", Algorithm::CircuitStart),
        ("halving (traditional)", Algorithm::ClassicBacktap),
        ("none: vegas only", Algorithm::NoSlowStart),
        ("none: jumpstart(100)", Algorithm::JumpStart(100)),
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = fig1_trace(1, algorithm);
        let r = trace_row(i as f64, &cfg);
        println!(
            "  {label:<22}  {:>6}  {:>9}  {:>11}  {:>8.3}",
            r.peak,
            r.exit_cwnd,
            r.settle_ms
                .map(|s| format!("{s:.0}"))
                .unwrap_or_else(|| "never".into()),
            r.ttlb_s
        );
        table.push_row(&[
            r.x,
            f64::from(r.peak),
            f64::from(r.exit_cwnd),
            r.settle_ms.unwrap_or(-1.0),
            r.ttlb_s,
        ]);
    }
    write_figure("ablation_compensation", &table);
}

/// A4: bottleneck distance.
fn sweep_distance() {
    let rows: Vec<TraceRow> = (0..=3)
        .map(|d| trace_row(d as f64, &fig1_trace(d, Algorithm::CircuitStart)))
        .collect();
    let optimal = fig1_trace(1, Algorithm::CircuitStart)
        .model()
        .optimal_source_cwnd_cells();
    let t = print_rows(
        "A4: bottleneck-distance sweep (CircuitStart)",
        "distance",
        optimal,
        &rows,
    );
    write_figure("ablation_distance", &t);
}

/// A5: concurrent-circuit load on the fig-1c topology.
fn sweep_load() {
    println!("\n━━━ A5: load sweep (fig-1c topology, 1 repetition) ━━━");
    println!(
        "  {:>8}  {:>22}  {:>22}",
        "circuits", "circuitstart p50/p90", "plain backtap p50/p90"
    );
    let mut table = Table::new(vec![
        "circuits",
        "cs_p50",
        "cs_p90",
        "backtap_p50",
        "backtap_p90",
    ]);
    for circuits in [10usize, 25, 50, 75] {
        let mut cfg = fig1_cdf();
        cfg.star.circuits = circuits;
        cfg.repetitions = 1;
        cfg.algorithms = vec![Algorithm::CircuitStart, Algorithm::NoSlowStart];
        let report = run_cdf(&cfg);
        let cs = &report
            .get("circuitstart")
            .expect("the sweep runs circuitstart")
            .cdf;
        let bt = &report
            .get("no-slow-start")
            .expect("the sweep runs no-slow-start")
            .cdf;
        println!(
            "  {circuits:>8}  {:>10.3}/{:<10.3}  {:>10.3}/{:<10.3}",
            cs.median(),
            cs.quantile(0.9),
            bt.median(),
            bt.quantile(0.9)
        );
        table.push_row(&[
            circuits as f64,
            cs.median(),
            cs.quantile(0.9),
            bt.median(),
            bt.quantile(0.9),
        ]);
    }
    write_figure("ablation_load", &table);
}

/// A7: path-selection policy sweep on the fig-1c topology — the
/// placement axis the `PathSelection` seam opens (DESIGN.md §9). The
/// same relay population, workload, and controller (CircuitStart) under
/// each of the four shipped policies, paired seeds throughout.
fn sweep_policies() {
    println!("\n━━━ A7: path-selection policy sweep (fig-1c topology, 25 circuits) ━━━");
    println!(
        "  {:<12}  {:>9}  {:>9}  {:>9}",
        "policy", "p50 [s]", "p90 [s]", "worst [s]"
    );
    let mut table = Table::new(vec!["policy", "p50_s", "p90_s", "worst_s"]);
    for (i, policy) in all_policies().into_iter().enumerate() {
        let mut cfg = policy_cdf(policy.clone());
        cfg.star.circuits = 25;
        cfg.repetitions = 1;
        let report = run_cdf(&cfg);
        let cdf = &report
            .get("circuitstart")
            .expect("the sweep runs circuitstart")
            .cdf;
        println!(
            "  {:<12}  {:>9.3}  {:>9.3}  {:>9.3}",
            policy.name(),
            cdf.median(),
            cdf.quantile(0.9),
            cdf.max()
        );
        table.push_row(&[i as f64, cdf.median(), cdf.quantile(0.9), cdf.max()]);
    }
    write_figure("ablation_policies", &table);
}

/// A6: mid-flow bandwidth change — the future-work extension.
fn sweep_midflow() {
    println!("\n━━━ A6: mid-flow bottleneck upgrade (10 → 40 Mbit/s at 500 ms) ━━━");
    println!(
        "  {:<24}  {:>9}  {:>16}",
        "algorithm", "ttlb [s]", "post-change peak"
    );
    let mut table = Table::new(vec!["variant", "ttlb_s", "post_change_peak"]);
    for (i, (label, algorithm)) in [
        ("adaptive circuitstart", Algorithm::AdaptiveCircuitStart),
        ("plain circuitstart", Algorithm::CircuitStart),
        ("plain backtap", Algorithm::NoSlowStart),
    ]
    .into_iter()
    .enumerate()
    {
        let base = fig1_trace(1, algorithm);
        let mut hops = base.hops();
        hops[1].rate = Bandwidth::from_mbps(10);
        let scenario = PathScenario {
            hops,
            file_bytes: 4 << 20,
            world: WorldConfig::default(),
            ..Default::default()
        };
        let (mut sim, handles) = scenario.build(algorithm.factory(base.cc), 3);
        sim.schedule_at(
            SimTime::from_millis(500),
            TorEvent::SetLinkRate {
                link: handles.fwd_links[1],
                rate: Bandwidth::from_mbps(40),
            },
        );
        run_to_completion(&mut sim);
        let world = sim.world();
        let result = world.result_of(handles.circ);
        assert!(result.completed);
        let ttlb = result
            .transfer_time()
            .expect("a completed circuit has a transfer time")
            .as_secs_f64();
        let post_peak = world
            .source_cwnd_trace(handles.circ)
            .expect("the source records a cwnd trace")
            .iter()
            .filter(|&&(t, _)| t > SimTime::from_millis(500))
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0);
        println!("  {label:<24}  {ttlb:>9.3}  {post_peak:>16}");
        table.push_row(&[i as f64, ttlb, f64::from(post_peak)]);
    }
    write_figure("ablation_midflow", &table);
}

fn main() {
    let opts = Options::from_env();
    let picks = opts.positional();
    let all = picks.is_empty();
    let want = |name: &str| all || picks.contains(&name);

    if want("gamma") {
        sweep_gamma();
    }
    if want("theta") {
        sweep_theta();
    }
    if want("init-cwnd") {
        sweep_init_cwnd();
    }
    if want("compensation") {
        sweep_compensation();
    }
    if want("distance") {
        sweep_distance();
    }
    if want("load") {
        sweep_load();
    }
    if want("midflow") {
        sweep_midflow();
    }
    if want("policies") {
        sweep_policies();
    }
}
