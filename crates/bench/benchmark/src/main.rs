//! The repository benchmark: three closed-batch workloads through the
//! public scenario API, their end-to-end metrics, correctness checks, and
//! a separate traced run that splits host time across the layers a cell
//! crosses. See `README.md` beside this package for the metric → layer →
//! workload map.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/benchmark/Cargo.toml -- \
//!     --workload fig1_star --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. `attempted` and
//! `failed` count flows. Any failed check exits non-zero.

mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::{median, quantile, Micro, Observed, Spans, Totals};
use workloads::{digest, run_experiment, run_plain, Counters, Experiment, Outcome, Workload};

/// The default workload seed (the Figure 1 preset's seed).
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for the "claim holds on an unseen seed"
/// check.
pub const HELD_OUT_SEED: u64 = 90_210;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run only input `k` once and report its peak RSS.
    rss_probe: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut rss_probe = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--rss-probe" => rss_probe = Some(number()? as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rss_probe,
    })
}

/// Flow and check bookkeeping shared by both modes.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Fingerprint digest of each input's first run.
    digests: Vec<Option<u64>>,
    fingerprints: Vec<Option<relaynet::WorldFingerprint>>,
}

impl Gate {
    fn new(inputs: usize) -> Gate {
        Gate {
            digests: vec![None; inputs],
            fingerprints: vec![None; inputs],
            ..Gate::default()
        }
    }

    /// Records one experiment of input `k`; a fingerprint differing from
    /// the input's first run fails every flow of the experiment.
    fn record(&mut self, k: usize, label: &str, o: &mut Outcome) {
        match &self.fingerprints[k] {
            None => {
                self.digests[k] = Some(digest(&o.fingerprint));
                self.fingerprints[k] = Some(o.fingerprint.clone());
            }
            Some(first) if *first != o.fingerprint => {
                o.errors
                    .push(format!("{label} fingerprint differs from the first run"));
                o.flows_failed = o.flows;
            }
            Some(_) => {}
        }
        self.attempted += o.flows;
        self.failed += o.flows_failed;
        for e in &o.errors {
            self.errors.push(format!("input {k} ({label}): {e}"));
        }
    }

    fn world_digest(&self) -> u64 {
        self.digests
            .iter()
            .flatten()
            .fold(0, |h, d| h.rotate_left(5) ^ d)
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Untraced: cycle through the inputs for `seconds` (at least two
/// passes, so every input is repeated) and report end-to-end metrics.
fn untraced(args: &Args, exps: &[Experiment], gate: &mut Gate) -> Metrics {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut experiment = Vec::new();
    let mut rate = Vec::new();
    let mut ttlb = Vec::new();
    let mut i = 0;
    while i < 2 * exps.len() || start.elapsed() < budget {
        let k = i % exps.len();
        let exp = &exps[k];
        let mut o = run_experiment(exp, exp.factory(), run_plain);
        gate.record(k, "untraced", &mut o);
        setup.push(o.setup_s);
        experiment.push(o.experiment_s);
        rate.push(o.counters.cells as f64 / o.run_s);
        if i < exps.len() {
            ttlb.extend_from_slice(&o.ttlb_s);
        }
        i += 1;
    }
    let runs = experiment.len();
    let m: Metrics = vec![
        ("cells_per_s", median(&mut rate), "cells/s"),
        ("experiment_s", median(&mut experiment), "s"),
        ("setup_s", median(&mut setup), "s"),
        ("peak_rss_mb", probe_rss(args, exps.len(), gate), "MB"),
        ("sim_ttlb_p50_s", quantile(&mut ttlb, 0.5), "s"),
        ("sim_ttlb_p90_s", quantile(&mut ttlb, 0.9), "s"),
    ];
    println!("experiments: {runs} over {} inputs", exps.len());
    if runs >= 100 {
        println!(
            "experiment_s_p90: {} s (n = {runs})",
            quantile(&mut experiment, 0.9)
        );
    } else {
        println!("experiment_s_p90: not reported (n = {runs} < 100)");
    }
    println!(
        "flows_failed_frac: {} ratio ({} of {} flows)",
        gate.failed as f64 / gate.attempted.max(1) as f64,
        gate.failed,
        gate.attempted
    );
    m
}

/// Traced: interleave untraced and traced runs of every input for
/// `seconds` (at least one pass), then microbenchmark the modelled
/// layers at the observed sizes and split the traced time.
fn traced(exps: &[Experiment], seconds: u64, gate: &mut Gate) -> Metrics {
    let clock_ns = trace::clock_cost_ns();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut t = Totals::default();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < budget {
        for (k, exp) in exps.iter().enumerate() {
            let mut u = run_experiment(exp, exp.factory(), run_plain);
            gate.record(k, "untraced", &mut u);
            t.untraced.add(&u.counters);
            t.untraced_run_ns += u.run_s * 1e9;
            let mut spans = Spans::default();
            let mut o = run_experiment(exp, trace::timed_factory(exp.factory()), |sim| {
                trace::drive_traced(sim, &mut spans)
            });
            gate.record(k, "traced", &mut o);
            t.spans.add(&spans);
            t.traced.add(&o.counters);
            if pass == 0 {
                t.first_pass.add(&o.counters);
            }
        }
        pass += 1;
    }
    let fp = &t.first_pass;
    let exp = &exps[0];
    let obs = Observed {
        links: fp.links,
        pool_idle: fp.pool_idle_hwm,
        sched_backlog: fp.sched_backlog_hwm,
        circuits_per_link: circuits_per_link(exps, fp),
        relays_per_circuit: exp.relays_per_circuit(),
    };
    let micro: Micro = trace::microbench(&obs, exp, clock_ns);
    println!(
        "traced: {pass} passes over {} inputs; clock read {clock_ns:.1} ns",
        exps.len()
    );
    let m = trace::model(&t, &micro, &obs, clock_ns);
    let shares: f64 = m
        .iter()
        .filter(|(n, _, _)| n.ends_with("share"))
        .map(|(_, v, _)| v)
        .sum();
    if (shares - 1.0).abs() > 1e-9 {
        gate.errors
            .push(format!("layer shares sum to {shares}, not 1"));
    }
    for (name, v, _) in m
        .iter()
        .filter(|(n, v, _)| n.ends_with("share") && *v < 0.0)
    {
        println!("warning: {name} is {v}: the modelled sub-layers overshoot the measured span");
    }
    m
}

/// Circuits sharing a relay link in one experiment, on average: every
/// placed circuit crosses `relays_per_circuit` relays.
fn circuits_per_link(exps: &[Experiment], fp: &Counters) -> usize {
    let exp = &exps[0];
    let relays = exp
        .placement()
        .map_or(exp.relays_per_circuit(), |p| p.directory.relays);
    let circuits = (fp.placements as usize / exps.len()).max(1);
    (circuits * exp.relays_per_circuit()).div_ceil(relays)
}

/// Peak RSS of one experiment: each input runs once more in a fresh
/// process of this program that runs only that input, and the median
/// of their `VmHWM` is reported. A maximum over the inputs in one
/// process would track whichever input happens to peak highest. Each
/// probe's world must match the input's first run here.
fn probe_rss(args: &Args, inputs: usize, gate: &mut Gate) -> f64 {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut peaks = Vec::with_capacity(inputs);
    for k in 0..inputs {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--rss-probe", &k.to_string()])
            .output();
        let line = out.as_ref().ok().and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout);
            let last = text.lines().last()?.strip_prefix("rss_probe:")?.to_string();
            o.status.success().then_some(last)
        });
        let parsed = line.as_deref().and_then(|l| {
            let mut f = l.split_whitespace();
            let mb = f.next()?.parse::<f64>().ok()?;
            let world = u64::from_str_radix(f.next()?, 16).ok()?;
            Some((mb, world))
        });
        match parsed {
            Some((mb, world)) if Some(world) == gate.digests[k] => peaks.push(mb),
            Some(_) => gate
                .errors
                .push(format!("input {k}: the memory probe's world differs")),
            None => gate
                .errors
                .push(format!("input {k}: the memory probe failed: {out:?}")),
        }
    }
    median(&mut peaks)
}

/// Runs input `k` once, untraced, and prints its peak RSS and world
/// digest: the child side of [`probe_rss`].
fn rss_probe(exps: &[Experiment], k: usize) -> ExitCode {
    let Some(exp) = exps.get(k) else {
        eprintln!("error: no input {k}");
        return ExitCode::from(2);
    };
    let o = run_experiment(exp, exp.factory(), run_plain);
    for e in &o.errors {
        println!("FAILED: {e}");
    }
    println!(
        "rss_probe: {} {:016x}",
        peak_rss_mb(),
        digest(&o.fingerprint)
    );
    if o.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `VmHWM` of this process, in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> [--seed N (default {DEFAULT_SEED}, held out: \
                 {HELD_OUT_SEED})] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let exps = args.workload.experiments(args.seed);
    if let Some(k) = args.rss_probe {
        return rss_probe(&exps, k);
    }
    let mut gate = Gate::new(exps.len());
    println!(
        "workload: {} seed: {} seconds: {} trace: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics = if args.trace {
        traced(&exps, args.seconds, &mut gate)
    } else {
        untraced(&args, &exps, &mut gate)
    };
    for (name, value, unit) in &metrics {
        println!("{name}: {value} {unit}");
        if !value.is_finite() {
            gate.errors.push(format!("{name} is not a finite number"));
        }
    }
    for (k, d) in gate.digests.iter().enumerate() {
        if let Some(d) = d {
            println!("input {k} (seed {}): world {d:016x}", exps[k].seed);
        }
    }
    println!("world_digest: {:016x}", gate.world_digest());
    for e in &gate.errors {
        println!("FAILED: {e}");
    }
    let correct = gate.errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The box-independent work gate: exact work counters of the default
/// seed. A change that does more (or less) work per experiment fails
/// here even where host-time noise would hide it.
#[cfg(test)]
mod tests {
    use super::*;

    /// Totals over one pass of the default seed's inputs, all traced:
    /// (events, DATA cells, cell frames, feedback frames, link frames,
    /// controller calls, placements).
    fn pass_counts(w: Workload) -> [u64; 7] {
        let mut gate = Gate::new(w.inputs() as usize);
        let mut total = Counters::default();
        let mut spans = Spans::default();
        for (k, exp) in w.experiments(DEFAULT_SEED).iter().enumerate() {
            let mut plain = run_experiment(exp, exp.factory(), run_plain);
            gate.record(k, "untraced", &mut plain);
            let mut o = run_experiment(exp, trace::timed_factory(exp.factory()), |sim| {
                trace::drive_traced(sim, &mut spans)
            });
            gate.record(k, "traced", &mut o);
            total.add(&o.counters);
        }
        assert!(gate.errors.is_empty(), "{:?}", gate.errors);
        assert_eq!(gate.failed, 0);
        [
            total.events,
            total.cells,
            total.stats.cells_sent,
            total.stats.feedback_sent,
            total.link_frames,
            spans.cc_calls.iter().sum(),
            total.placements,
        ]
    }

    #[test]
    fn bulk_path_work_is_pinned() {
        // 8 inputs × 16 MiB = 8 × 33,826 cells; 16 events and 8 frames
        // per cell over a 4-link chain; 23 controller calls per cell.
        assert_eq!(
            pass_counts(Workload::BulkPath),
            [4_330_760, 270_608, 1_082_688, 1_082_688, 2_165_376, 6_225_520, 0]
        );
    }

    #[test]
    fn fig1_star_work_is_pinned() {
        // 9 seeds × (3,396,850 events, 105,750 cells); the star switch
        // doubles link frames; 50 placements per seed.
        assert_eq!(
            pass_counts(Workload::Fig1Star),
            [30_571_650, 951_750, 3_821_400, 3_821_400, 15_285_600, 21_976_650, 450]
        );
    }
}
