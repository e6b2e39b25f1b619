//! Reference figures that the benchmark does not gate (see README.md):
//! open-loop turnaround at a fixed rate, durable-mode (`state_dir`)
//! throughput, 2 × 1 against 2 × 2 serve throughput, the cost of the
//! caller's trace sink, and DMR's iteration spread on 2 SMs.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml --example reference -- <state-dir>
//! ```
//!
//! `<state-dir>` is created, used for the durable-mode journal, and
//! removed again.

use morphgpu::core::runtime::RecoveryOpts;
use morphgpu::dmr::{self, DmrOpts};
use morphgpu::serve::{generate_mixed, JobSpec, MorphServe, ServeConfig};
use morphgpu::trace::{JobEventKind, RingSink, TraceEvent, TraceSink, Tracer};
use morphgpu::workloads;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SEED: u64 = 7;
const RUNS: usize = 3;

/// Keeps `(job, kind, t_us)` of every lifecycle event.
#[derive(Default)]
struct Lifecycle(Mutex<Vec<(u64, JobEventKind, u64)>>);

impl TraceSink for Lifecycle {
    fn record(&self, event: TraceEvent) {
        if let TraceEvent::Job {
            job, kind, t_us, ..
        } = event
        {
            self.0
                .lock()
                .expect("lifecycle lock poisoned")
                .push((job, kind, t_us));
        }
    }
}

fn specs(jobs: usize) -> Vec<JobSpec> {
    let mut s = generate_mixed(jobs, SEED);
    for spec in &mut s {
        spec.deadline = None;
    }
    s
}

/// Burst-submit `specs` and return jobs per second over the makespan.
fn burst(cfg: ServeConfig, tracer: Tracer, specs: &[JobSpec]) -> f64 {
    let pool = MorphServe::start(
        ServeConfig {
            queue_capacity: specs.len(),
            ..cfg
        },
        tracer,
    );
    let t = Instant::now();
    for s in specs {
        pool.submit(s.clone()).expect("queue holds the burst");
    }
    pool.drain();
    specs.len() as f64 / t.elapsed().as_secs_f64()
}

fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

/// Submit on a fixed schedule of `rate` jobs/s; turnaround is timed from
/// when each job was due. Returns (p50, p99) in ms.
fn open_loop(rate: f64, specs: &[JobSpec]) -> (f64, f64) {
    let sink = Arc::new(Lifecycle::default());
    let pool = MorphServe::start(
        ServeConfig {
            queue_capacity: specs.len(),
            ..ServeConfig::default()
        },
        Tracer::new(Arc::clone(&sink) as _),
    );
    let t0 = Instant::now();
    let mut due = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let at = Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = at.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        let id = pool.submit(s.clone()).expect("queue holds the run");
        due.push((id, at));
    }
    pool.drain();
    drop(pool);
    let events = sink.0.lock().expect("lifecycle lock poisoned");
    // The pool's clock starts at `start`, just before `t0`; the offset is
    // the first submission's timestamp minus its due time (0).
    let first = events
        .iter()
        .find(|e| e.1 == JobEventKind::Submitted)
        .map_or(0, |e| e.2);
    let mut turnaround: Vec<f64> = due
        .iter()
        .filter_map(|(id, at)| {
            let fin = events
                .iter()
                .find(|e| e.0 == *id && e.1 == JobEventKind::Finished)?
                .2;
            Some((fin.saturating_sub(first) as f64 / 1e3) - at.as_secs_f64() * 1e3)
        })
        .collect();
    (
        quantile(&mut turnaround, 0.5),
        quantile(&mut turnaround, 0.99),
    )
}

fn main() {
    let state_dir = PathBuf::from(
        std::env::args()
            .nth(1)
            .expect("usage: reference <state-dir>"),
    );
    let burst_specs = specs(1024);

    println!(
        "# 2 devices x 1 SM against 2 x 2, burst of {} jobs (jobs/s)",
        burst_specs.len()
    );
    for sms in [1, 2] {
        let cfg = ServeConfig {
            sms_per_device: sms,
            ..ServeConfig::default()
        };
        let r: Vec<f64> = (0..RUNS)
            .map(|_| burst(cfg.clone(), Tracer::disabled(), &burst_specs))
            .collect();
        println!("2 x {sms}: {r:.0?}");
    }

    println!(
        "# caller sink cost, burst of {} jobs (jobs/s)",
        burst_specs.len()
    );
    for (name, tracer) in [
        ("no caller sink", (|| Tracer::disabled()) as fn() -> Tracer),
        ("lifecycle-only sink", || {
            Tracer::new(Arc::new(Lifecycle::default()))
        }),
        ("RingSink holding every event", || {
            Tracer::new(Arc::new(RingSink::new(1 << 24)))
        }),
    ] {
        let r: Vec<f64> = (0..RUNS)
            .map(|_| burst(ServeConfig::default(), tracer(), &burst_specs))
            .collect();
        println!("{name}: {r:.0?}");
    }

    let durable = specs(256);
    println!(
        "# durable mode (state_dir), burst of {} jobs (jobs/s)",
        durable.len()
    );
    let r: Vec<f64> = (0..RUNS)
        .map(|_| {
            let _ = std::fs::remove_dir_all(&state_dir);
            let cfg = ServeConfig {
                state_dir: Some(state_dir.clone()),
                ..ServeConfig::default()
            };
            burst(cfg, Tracer::disabled(), &durable)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&state_dir);
    println!("state_dir: {r:.0?}");

    let paced = specs(600);
    println!(
        "# open loop at 120 jobs/s, {} jobs: turnaround p50/p99 (ms)",
        paced.len()
    );
    for _ in 0..RUNS {
        let (p50, p99) = open_loop(120.0, &paced);
        println!("p50 {p50:.1} p99 {p99:.1}");
    }

    println!("# DMR, one 20k-triangle mesh (seed 11): iterations and seconds");
    for sms in [1, 2] {
        let r: Vec<(u64, f64)> = (0..5)
            .map(|_| {
                let mut mesh = workloads::mesh::random_mesh::<f64>(20_000, 11);
                let t = Instant::now();
                let out = dmr::gpu::try_refine_gpu(
                    &mut mesh,
                    DmrOpts::default(),
                    sms,
                    &RecoveryOpts::default(),
                )
                .expect("refinement succeeds");
                (out.iterations, t.elapsed().as_secs_f64())
            })
            .collect();
        println!("{sms} SM: {r:.2?}");
    }
}
