//! A minimal benchmark harness (the container image carries no criterion,
//! so the bench targets are plain `harness = false` binaries built on
//! `std::time::Instant`).
//!
//! Protocol per benchmark: calibrate an iteration count that runs for
//! roughly [`TARGET_SAMPLE`], then take [`SAMPLES`] timed samples and
//! report the median, minimum, and mean time per iteration (median is the
//! headline — robust to scheduler noise). `CS_BENCH_FAST=1` cuts the
//! sample count for smoke runs in CI.
//!
//! Benchmarks register with a [`Report`], which collects every
//! [`Measurement`] (including derived rates such as events/s or cells/s)
//! and, when the binary is invoked with `--json <path>`, writes the whole
//! run as a flat JSON document — the per-PR performance trajectory the
//! `BENCH_*.json` files at the repo root record.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// Wall-clock budget per timed sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(40);
/// Timed samples per benchmark.
const SAMPLES: usize = 11;

fn samples() -> usize {
    if std::env::var_os("CS_BENCH_FAST").is_some() {
        3
    } else {
        SAMPLES
    }
}

/// Formats a per-iteration duration with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// The measured result of one benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Mean nanoseconds per iteration across samples.
    pub mean_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
}

impl Measurement {
    /// Units per second for a benchmark whose iteration processes
    /// `units_per_iter` units (events, cells, bytes, …), based on the
    /// median sample.
    pub fn rate(&self, units_per_iter: f64) -> f64 {
        units_per_iter / (self.median_ns / 1e9)
    }
}

/// One collected benchmark: its measurement plus any derived rates.
#[derive(Clone, Debug)]
pub struct Record {
    /// Benchmark name (slash-separated path, stable across PRs).
    pub name: String,
    /// The timing measurement.
    pub measurement: Measurement,
    /// Derived rates as `(unit, value)` pairs, e.g. `("events/s", 2.4e7)`.
    pub rates: Vec<(String, f64)>,
}

/// Collects every measurement of one bench binary and exports JSON when
/// `--json <path>` is on the command line.
#[derive(Default)]
pub struct Report {
    records: Vec<Record>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Runs `f` under the measurement protocol, prints one report line,
    /// and records the measurement.
    pub fn bench<F: FnMut()>(&mut self, name: &str, f: F) -> Measurement {
        let m = bench(name, f);
        self.records.push(Record {
            name: name.to_string(),
            measurement: m,
            rates: Vec::new(),
        });
        m
    }

    /// Like [`Report::bench`], additionally deriving and printing a rate:
    /// one iteration processes `units_per_iter` units of `unit` (for
    /// example `100_000.0` and `"events/s"`). The rate rides on the same
    /// labelled report block and lands in the JSON export.
    pub fn bench_with_rate<F: FnMut()>(
        &mut self,
        name: &str,
        units_per_iter: f64,
        unit: &str,
        f: F,
    ) -> Measurement {
        let m = bench(name, f);
        let rate = m.rate(units_per_iter);
        println!("{name:<44} rate {rate:>14.0} {unit}");
        self.records.push(Record {
            name: name.to_string(),
            measurement: m,
            rates: vec![(unit.to_string(), rate)],
        });
        m
    }

    /// Attaches an additional derived rate to the most recent benchmark.
    ///
    /// # Panics
    ///
    /// Panics if no benchmark has been recorded yet.
    pub fn rate(&mut self, unit: &str, value: f64) {
        let rec = self.records.last_mut().expect("no benchmark recorded");
        println!("{:<44} rate {value:>14.0} {unit}", rec.name);
        rec.rates.push((unit.to_string(), value));
    }

    /// The records collected so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Serializes the report as a JSON document.
    pub fn to_json(&self, bench_name: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_str(bench_name)));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&r.name)));
            out.push_str(&format!(
                "\"median_ns\": {}, ",
                json_num(r.measurement.median_ns)
            ));
            out.push_str(&format!("\"min_ns\": {}, ", json_num(r.measurement.min_ns)));
            out.push_str(&format!(
                "\"mean_ns\": {}, ",
                json_num(r.measurement.mean_ns)
            ));
            out.push_str(&format!(
                "\"iters_per_sample\": {}",
                r.measurement.iters_per_sample
            ));
            for (unit, value) in &r.rates {
                out.push_str(&format!(", {}: {}", json_str(unit), json_num(*value)));
            }
            out.push('}');
            if i + 1 < self.records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path` as JSON.
    pub fn write_json(&self, bench_name: &str, path: &std::path::Path) {
        let mut f = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        f.write_all(self.to_json(bench_name).as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("  wrote {}", path.display());
    }

    /// Honors a `--json <path>` command-line option: writes the report
    /// there if present, does nothing otherwise. Call at the end of every
    /// bench `main`.
    pub fn finish(&self, bench_name: &str) {
        let opts = crate::Options::from_env();
        if let Some(path) = opts.get_opt::<String>("json") {
            self.write_json(bench_name, std::path::Path::new(&path));
        }
    }
}

/// JSON string literal (the names used here never need exotic escapes,
/// but quote and backslash are handled for safety).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite floats only (benchmarks cannot produce NaN/inf
/// from positive durations, but guard anyway).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

/// Runs `f` under the measurement protocol and prints one report line.
///
/// Returns the measurement so callers can compute derived figures
/// (throughput, events/s).
pub fn bench<F: FnMut()>(name: &str, f: F) -> Measurement {
    bench_with_samples(name, samples(), f)
}

/// [`bench`] with an explicit sample count (the env-independent core;
/// also what the self-test uses so it never mutates process state).
fn bench_with_samples<F: FnMut()>(name: &str, samples: usize, mut f: F) -> Measurement {
    // Calibration: double the iteration count until one batch fills the
    // target sample duration.
    let mut iters: u64 = 1;
    loop {
        #[expect(
            clippy::disallowed_methods,
            reason = "the bench harness exists to read the host clock; no simulated world sees it"
        )]
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = t.elapsed();
        if elapsed >= TARGET_SAMPLE || iters >= 1 << 30 {
            break;
        }
        // Jump close to the target in one step once we have a signal.
        if elapsed > Duration::from_micros(100) {
            let scale = TARGET_SAMPLE.as_secs_f64() / elapsed.as_secs_f64();
            iters = ((iters as f64 * scale).ceil() as u64).clamp(iters + 1, iters * 128);
        } else {
            iters *= 16;
        }
    }

    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the bench harness exists to read the host clock; no simulated world sees it"
            )]
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let m = Measurement {
        median_ns: per_iter[per_iter.len() / 2],
        min_ns: per_iter[0],
        mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        iters_per_sample: iters,
    };
    println!(
        "{name:<44} median {:>12}   min {:>12}   ({} iters/sample)",
        fmt_ns(m.median_ns),
        fmt_ns(m.min_ns),
        m.iters_per_sample
    );
    m
}

/// Like [`bench`], additionally reporting throughput for `bytes` of
/// payload processed per iteration.
pub fn bench_throughput<F: FnMut()>(name: &str, bytes: u64, f: F) -> Measurement {
    let m = bench(name, f);
    let gib_s = bytes as f64 / m.median_ns; // bytes/ns == GB/s
    println!("{:<44} throughput {gib_s:>10.3} GB/s", "");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_units() {
        assert!(fmt_ns(5.0).ends_with("ns"));
        assert!(fmt_ns(5.0e3).ends_with("µs"));
        assert!(fmt_ns(5.0e6).ends_with("ms"));
        assert!(fmt_ns(5.0e9).ends_with(" s"));
    }

    #[test]
    fn bench_measures_something() {
        let mut acc = 0u64;
        let m = bench_with_samples("selftest/noop", 3, || {
            acc = acc.wrapping_add(std::hint::black_box(1));
        });
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns);
    }

    #[test]
    fn report_collects_and_serializes() {
        let mut report = Report::new();
        report.records.push(Record {
            name: "a/b".to_string(),
            measurement: Measurement {
                median_ns: 10.0,
                min_ns: 9.0,
                mean_ns: 10.5,
                iters_per_sample: 100,
            },
            rates: vec![("events/s".to_string(), 1e8)],
        });
        let json = report.to_json("selftest");
        assert!(json.contains("\"bench\": \"selftest\""));
        assert!(json.contains("\"name\": \"a/b\""));
        assert!(json.contains("\"median_ns\": 10.0"));
        assert!(json.contains("\"events/s\": 100000000.0"));
    }

    #[test]
    fn measurement_rate() {
        let m = Measurement {
            median_ns: 1e9, // one second per iteration
            min_ns: 1e9,
            mean_ns: 1e9,
            iters_per_sample: 1,
        };
        assert_eq!(m.rate(100_000.0), 100_000.0);
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
