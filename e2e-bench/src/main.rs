//! End-to-end and per-layer benchmark of the morphgpu pipelines and the
//! serving plane. See README.md for the workloads, metrics and inputs.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload batch|serve|serve-lens --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`.

mod batch;
mod check;
mod fold;
mod host;
mod probe;
mod serve;
mod stats;

use fold::{ALGOS, PHASES};
use std::process::ExitCode;

/// End-to-end metrics: name and unit. Every workload reports all of them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dmr_gpu_s", "s"),
    ("sp_gpu_s", "s"),
    ("pta_gpu_s", "s"),
    ("mst_gpu_s", "s"),
    ("dmr_serial_s", "s"),
];

/// Per-layer metrics: name and unit. Every workload reports all of them.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("gpu-sim.launch_floor_us".into(), "us"),
        ("gpu-sim.launch_floor_1sm_us".into(), "us"),
        ("gpu-sim.meter_ns_per_access.tracer".into(), "ns"),
        ("gpu-sim.meter_ns_per_access.lens".into(), "ns"),
        ("gpu-sim.launches".into(), "count"),
        ("gpu-sim.abort_ratio.dmr".into(), "ratio"),
    ];
    for (algo, phases) in ALGOS.iter().zip(PHASES) {
        m.push((format!("gpu-sim.launch_s.{algo}"), "s"));
        m.push((format!("gpu-sim.work_efficiency.{algo}"), "ratio"));
        for p in 0..phases {
            m.push((format!("gpu-sim.phase_s.{algo}.{p}"), "s"));
        }
        m.push((format!("core.host_s.{algo}"), "s"));
        m.push((format!("trace.tax.{algo}"), "ratio"));
    }
    m.extend([
        ("core.retries".into(), "count"),
        ("core.regrows".into(), "count"),
        ("dmr.iterations".into(), "count"),
        ("dmr.serial_us_per_insertion".into(), "us"),
        ("sp.sweeps".into(), "count"),
        ("pta.iterations".into(), "count"),
        ("mst.rounds".into(), "count"),
        ("lens.tax".into(), "ratio"),
        ("serve.job_run_p50_ms".into(), "ms"),
        ("serve.job_run_p99_ms".into(), "ms"),
        ("serve.queue_wait_p50_ms".into(), "ms"),
        ("serve.submit_us".into(), "us"),
        ("serve.device_busy".into(), "ratio"),
        ("serve.jobs_per_s".into(), "1/s"),
        ("serve.pool_overhead_ms".into(), "ms"),
        ("host.cal_us".into(), "us"),
    ]);
    m
}

/// What one run did: operation counts, output-check verdicts and metric
/// values by name.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any makes the run incorrect.
    pub wrong: Vec<String>,
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// Count one operation that returned: `check` is its output check.
    pub fn checked(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.wrong.push(format!("{what}: {e}"));
        }
    }

    /// Count one operation that returned an error.
    pub fn failed(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Set `name` if `value` is known (a median of no samples is not).
    pub fn set_some(&mut self, name: impl Into<String>, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "batch" => batch::run(&args),
        "serve" => serve::run(&args, false),
        "serve-lens" => serve::run(&args, true),
        other => {
            eprintln!("e2e-bench: unknown workload {other} (batch, serve, serve-lens)");
            return ExitCode::from(2);
        }
    };

    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        match report.metrics.iter().rev().find(|(n, _)| n == name) {
            Some((_, v)) if v.is_finite() => {
                fields.push(format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_string(name),
                    json_string(unit)
                ));
            }
            Some((_, v)) => {
                eprintln!("e2e-bench: metric {name} is {v}");
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("e2e-bench: metric {name} was not measured");
                return ExitCode::FAILURE;
            }
        }
    }
    for w in &report.wrong {
        eprintln!("e2e-bench: WRONG OUTPUT {w}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.wrong.is_empty(),
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
