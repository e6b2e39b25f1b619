//! The `serve` and `serve-lens` workloads: a burst replay of
//! [`JOBS`] small mixed jobs (`generate_mixed`, deadlines removed) on
//! the default 2-device × 2-SM `ServeConfig`, with the admission queue
//! as deep as the burst. `serve-lens` arms `ServeConfig::lens`.
//!
//! Service time (Started→Finished) and queue wait come from the pool's
//! own `Job` lifecycle events, through a caller sink that keeps only
//! those. The traced replay's sink also folds `LaunchEnd`, `PhaseSpan`
//! and `Recovery` events per job.

use crate::check;
use crate::fold::{algo_index, LayerFold, ALGOS, PHASES};
use crate::stats::{median, peak_rss_mb, tail_percentile, timed, timed_cpu, Spans};
use crate::{host, probe, Args, Report};
use morphgpu::core::runtime::RecoveryOpts;
use morphgpu::gpu_sim::LensHub;
use morphgpu::serve::{
    generate_mixed, JobMetrics, JobSpec, JobStatus, MorphServe, ServeConfig, Workload,
};
use morphgpu::trace::{JobEventKind, TraceEvent, TraceSink, Tracer};
use morphgpu::workloads;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Jobs per replay: the smallest burst whose p99 service time has ten
/// samples beyond it.
const JOBS: usize = 1024;
/// Jobs of a replay also run directly, outside the pool, for the pool
/// overhead figure.
const DIRECT_JOBS: usize = 256;
/// SMs per device in the default `ServeConfig`; direct runs use the same.
const SMS: usize = 2;
const SETUP_REPS: usize = 50;

/// One job's lifecycle as the pool reported it.
#[derive(Clone, Debug, Default)]
struct JobLife {
    algo: Option<usize>,
    submitted_us: Option<u64>,
    started_us: Option<u64>,
    finished_us: Option<u64>,
    starts: u32,
    finishes: u32,
    /// Any other lifecycle kind beyond Submitted/Scheduled/Started/Finished.
    other: Vec<&'static str>,
}

#[derive(Default)]
struct SinkState {
    jobs: HashMap<u64, JobLife>,
    folds: HashMap<u64, LayerFold>,
}

/// Caller sink: keeps `Job` events; with `fold`, also folds the engine's
/// launch, phase and recovery events per job.
struct JobSink {
    fold: bool,
    state: Mutex<SinkState>,
}

impl JobSink {
    fn new(fold: bool) -> Arc<Self> {
        Arc::new(JobSink {
            fold,
            state: Mutex::new(SinkState::default()),
        })
    }
}

impl TraceSink for JobSink {
    fn record(&self, event: TraceEvent) {
        self.record_tagged(None, event);
    }

    fn record_tagged(&self, tag: Option<u64>, event: TraceEvent) {
        match event {
            TraceEvent::Job {
                job,
                kind,
                t_us,
                detail,
                ..
            } => {
                let mut st = self.state.lock().expect("job sink lock poisoned");
                let life = st.jobs.entry(job).or_default();
                match kind {
                    JobEventKind::Submitted => {
                        life.submitted_us = Some(t_us);
                        life.algo = detail.split_whitespace().next().and_then(algo_index);
                    }
                    JobEventKind::Scheduled => {}
                    JobEventKind::Started => {
                        life.started_us = Some(t_us);
                        life.starts += 1;
                    }
                    JobEventKind::Finished => {
                        life.finished_us = Some(t_us);
                        life.finishes += 1;
                    }
                    other => life.other.push(other.as_str()),
                }
            }
            ev @ (TraceEvent::LaunchEnd { .. }
            | TraceEvent::PhaseSpan { .. }
            | TraceEvent::Recovery { .. })
                if self.fold =>
            {
                if let Some(job) = tag {
                    let mut st = self.state.lock().expect("job sink lock poisoned");
                    st.folds.entry(job).or_default().add(&ev);
                }
            }
            _ => {}
        }
    }
}

/// What one replay measured, per job in submission order.
struct Replay {
    /// Algorithm index per job.
    algo: Vec<usize>,
    service_s: Vec<f64>,
    wait_s: Vec<f64>,
    metrics: Vec<JobMetrics>,
    submit_us: Vec<f64>,
    makespan_s: f64,
    /// Host-speed samples before submission and after the drain, averaged.
    cal: f64,
    /// Per-algorithm fold (traced replay only).
    folds: [LayerFold; 4],
}

impl Replay {
    fn service_ms(&self) -> Vec<f64> {
        self.service_s.iter().map(|s| s * 1e3).collect()
    }

    fn algo_service_s(&self, a: usize) -> Vec<f64> {
        self.algo
            .iter()
            .zip(&self.service_s)
            .filter(|(x, _)| **x == a)
            .map(|(_, s)| *s)
            .collect()
    }

    /// Share of device time spent serving jobs.
    fn device_busy(&self, devices: usize) -> f64 {
        self.service_s.iter().sum::<f64>() / (devices as f64 * self.makespan_s)
    }
}

fn burst(jobs: usize, seed: u64) -> Vec<JobSpec> {
    let mut specs = generate_mixed(jobs, seed);
    for s in &mut specs {
        // Deadlines shed jobs in a burst; every job must run.
        s.deadline = None;
    }
    specs
}

fn config(jobs: usize, lens: bool) -> ServeConfig {
    ServeConfig {
        queue_capacity: jobs,
        lens,
        ..ServeConfig::default()
    }
}

/// The method's own bounds on a finished job's metrics.
fn job_check(w: &Workload, m: &JobMetrics) -> Result<(), String> {
    if m.retries != 0 {
        return Err(format!("{} retries", m.retries));
    }
    let want = |what: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format!("work_items {got}, spec asked for {want} {what}"))
        }
    };
    match *w {
        Workload::Dmr { .. } => Ok(()),
        Workload::Sp {
            clauses,
            max_sweeps,
            ..
        } => {
            if m.iterations > max_sweeps as u64 {
                return Err(format!(
                    "{} sweeps over the cap of {max_sweeps}",
                    m.iterations
                ));
            }
            want("clauses", m.work_items, clauses as u64)
        }
        Workload::Pta { constraints, .. } => want("constraints", m.work_items, constraints as u64),
        Workload::Mst { nodes, edges, .. } => {
            let bound = nodes.max(1).next_power_of_two().trailing_zeros() as u64 + 1;
            if m.iterations > bound {
                return Err(format!(
                    "{} Boruvka rounds over ⌈log₂ {nodes}⌉ + 1 = {bound}",
                    m.iterations
                ));
            }
            want("edges", m.work_items, edges as u64)
        }
    }
}

/// Submit every spec at once, drain, and check each job.
fn replay(
    specs: &[JobSpec],
    lens: bool,
    fold: bool,
    rep: &mut Report,
    spans: &mut Spans,
    pass: &'static str,
) -> Replay {
    let sink = JobSink::new(fold);
    let cal_before = host::sample();
    let pool = MorphServe::start(
        config(specs.len(), lens),
        Tracer::new(Arc::clone(&sink) as _),
    );
    let mut ids = Vec::with_capacity(specs.len());
    let mut submit_us = Vec::with_capacity(specs.len());
    let t = Instant::now();
    for spec in specs {
        let (res, d) = timed(|| pool.submit(spec.clone()));
        submit_us.push(d.as_secs_f64() * 1e6);
        ids.push(res.ok());
    }
    pool.drain();
    let cal = (cal_before + host::sample()) / 2.0;
    let statuses: Vec<Option<JobStatus>> = ids
        .iter()
        .map(|id| id.and_then(|id| pool.status(id)))
        .collect();
    drop(pool);
    spans.record("serve", pass, t.elapsed());

    let st = std::mem::take(&mut *sink.state.lock().expect("job sink lock poisoned"));
    let mut out = Replay {
        algo: vec![],
        service_s: vec![],
        wait_s: vec![],
        metrics: vec![],
        submit_us,
        makespan_s: 0.0,
        cal,
        folds: Default::default(),
    };
    let (mut first_submit, mut last_finish) = (u64::MAX, 0u64);
    for ((spec, id), status) in specs.iter().zip(&ids).zip(statuses) {
        let Some(id) = *id else {
            rep.failed();
            eprintln!("serve: job rejected at admission");
            continue;
        };
        let m = match status {
            Some(JobStatus::Finished { metrics }) => metrics,
            other => {
                rep.failed();
                eprintln!("serve: job {id} ended {other:?}");
                continue;
            }
        };
        let life = st.jobs.get(&id).cloned().unwrap_or_default();
        let verdict = match (
            life.algo,
            life.submitted_us,
            life.started_us,
            life.finished_us,
        ) {
            _ if life.finishes != 1 || life.starts != 1 || !life.other.is_empty() => Err(format!(
                "{} Started, {} Finished, other events {:?}",
                life.starts, life.finishes, life.other
            )),
            (Some(a), Some(sub), Some(start), Some(fin)) if ALGOS[a] == spec.workload.algo() => {
                first_submit = first_submit.min(sub);
                last_finish = last_finish.max(fin);
                out.algo.push(a);
                out.service_s.push(fin.saturating_sub(start) as f64 / 1e6);
                out.wait_s.push(start.saturating_sub(sub) as f64 / 1e6);
                out.metrics.push(m);
                job_check(&spec.workload, &m)
            }
            _ => Err("lifecycle events incomplete or attributed to another pipeline".into()),
        };
        rep.checked(
            "serve job",
            verdict.map_err(|e| format!("job {id} ({}): {e}", spec.workload.encode())),
        );
        if let (Some(a), Some(f)) = (life.algo, st.folds.get(&id)) {
            out.folds[a].merge(f);
        }
    }
    out.makespan_s = last_finish.saturating_sub(first_submit) as f64 / 1e6;
    out
}

/// Serial refinement of each of the replay's DMR job meshes: the CPU
/// baseline for the same inputs (Fig. 6's comparison). Returns each
/// call's (on-CPU s, insertions); the pool is gone by then, so that is the
/// call's wall time less the hypervisor's steal.
fn serial_pass(specs: &[JobSpec], rep: &mut Report, spans: &mut Spans) -> Vec<(f64, u64)> {
    let mut out = Vec::new();
    for spec in specs {
        if let Workload::Dmr { triangles, seed } = spec.workload {
            let mut mesh = workloads::mesh::random_mesh::<f64>(triangles as usize, seed);
            let (stats, wall, cpu) = timed_cpu(|| morphgpu::dmr::serial::refine(&mut mesh));
            rep.checked("serial", check::refined_mesh(&mesh));
            spans.record("serial", "untraced", Duration::from_secs_f64(wall));
            out.push((cpu, stats.refined));
        }
    }
    out
}

fn direct_opts(lens: bool) -> RecoveryOpts {
    RecoveryOpts {
        lens: if lens {
            LensHub::enabled()
        } else {
            LensHub::default()
        },
        ..RecoveryOpts::default()
    }
}

/// Each spec run directly through `Workload::run`, outside the pool, with
/// the same lens setting: its wall time in seconds.
fn direct_runs(specs: &[JobSpec], lens: bool, rep: &mut Report, spans: &mut Spans) -> Vec<f64> {
    specs
        .iter()
        .map(|spec| {
            let (res, d) = timed(|| spec.workload.run(SMS, &direct_opts(lens)));
            spans.record("workload", "direct", d);
            match res {
                Ok(m) => rep.checked("direct job", job_check(&spec.workload, &m)),
                Err(e) => {
                    rep.failed();
                    eprintln!("direct job failed: {e}");
                }
            }
            d.as_secs_f64()
        })
        .collect()
}

fn med_of(replays: &[Replay], f: impl Fn(&Replay) -> Option<f64>) -> Option<f64> {
    median(&replays.iter().filter_map(f).collect::<Vec<_>>())
}

/// Serve-layer figures from untraced replays and the direct runs of the
/// replays' first jobs.
fn serve_layer(rep: &mut Report, plain: &[Replay], direct: &[f64]) {
    rep.set_some(
        "serve.job_run_p50_ms",
        med_of(plain, |r| median(&r.service_ms())),
    );
    rep.set_some(
        "serve.job_run_p99_ms",
        med_of(plain, |r| tail_percentile(&r.service_ms(), 99.0)),
    );
    rep.set_some(
        "serve.queue_wait_p50_ms",
        med_of(plain, |r| {
            median(&r.wait_s.iter().map(|w| w * 1e3).collect::<Vec<_>>())
        }),
    );
    rep.set_some("serve.submit_us", med_of(plain, |r| median(&r.submit_us)));
    // Completed jobs ÷ makespan (first Submitted → last Finished), median
    // over replays. Per-layer, not end to end: ten runs of it spread
    // 0.30–0.34 on a shared 2-vCPU host, where the pool's four workers
    // stall at every barrier while a core is away.
    rep.set_some(
        "serve.jobs_per_s",
        med_of(plain, |r| Some(r.service_s.len() as f64 / r.makespan_s)),
    );
    let devices = ServeConfig::default().devices;
    rep.set_some(
        "serve.device_busy",
        med_of(plain, |r| Some(r.device_busy(devices))),
    );
    // Pool overhead per job: in-pool service minus the direct run. Only a
    // replay in which every job finished lines up job by job with them.
    if let Some(r) = plain
        .first()
        .filter(|r| r.service_s.len() == r.submit_us.len())
    {
        let over: Vec<f64> = r
            .service_s
            .iter()
            .zip(direct)
            .map(|(s, d)| (s - d) * 1e3)
            .collect();
        rep.set_some("serve.pool_overhead_ms", median(&over));
    }
}

/// The serve-layer metrics for a workload that drives no pool: one burst
/// of [`JOBS`] jobs plus their direct runs. Its operations are
/// checked but not counted, so they leave the workload's failed share as
/// it is.
pub fn layer_probe(seed: u64, rep: &mut Report, spans: &mut Spans) {
    let specs = burst(JOBS, seed);
    let mut scratch = Report::default();
    let plain = [replay(&specs, false, false, &mut scratch, spans, "probe")];
    let direct = direct_runs(&specs[..DIRECT_JOBS], false, &mut scratch, spans);
    serve_layer(rep, &plain, &direct);
    rep.wrong.extend(scratch.wrong);
}

pub fn run(args: &Args, lens: bool) -> Report {
    let mut rep = Report::default();
    let mut spans = Spans::default();
    // Set-up: generate the burst and start the pool, several times.
    let mut setup = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPS {
        let ((s, pool), d) = timed(|| {
            let s = burst(JOBS, args.seed);
            let pool =
                MorphServe::start(config(s.len(), lens), Tracer::new(JobSink::new(false) as _));
            (s, pool)
        });
        drop(pool);
        setup.push(d.as_secs_f64());
        specs = s;
    }

    let rounds = |seconds: f64, rep: &mut Report, spans: &mut Spans| {
        let start = Instant::now();
        let (mut replays, mut serial) = (Vec::new(), Vec::new());
        while replays.is_empty() || start.elapsed().as_secs_f64() < seconds {
            replays.push(replay(&specs, lens, false, rep, spans, "untraced"));
            serial.extend(serial_pass(&specs, rep, spans));
        }
        (replays, serial)
    };
    // Figures pool every job (or call) of the run, so each reflects the
    // whole run rather than one replay.
    let service = |rs: &[Replay], a: usize| {
        median(
            &rs.iter()
                .flat_map(|r| r.algo_service_s(a))
                .collect::<Vec<_>>(),
        )
    };

    if !args.trace {
        let (replays, serial) = rounds(args.seconds, &mut rep, &mut spans);
        rep.set_some("setup_s", median(&setup));
        for (a, algo) in ALGOS.iter().enumerate() {
            rep.set_some(format!("{algo}_gpu_s"), service(&replays, a));
        }
        rep.set_some(
            "dmr_serial_s",
            median(&serial.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        rep.set_some("peak_rss_mb", peak_rss_mb());
        return rep;
    }

    // Traced run: untraced replays for the tax denominators and the
    // serve-layer figures, one traced replay for the per-layer fold, one
    // replay with lens toggled for the lens tax, and direct runs.
    let (plain, serial) = rounds(args.seconds / 2.0, &mut rep, &mut spans);
    let traced = replay(&specs, lens, true, &mut rep, &mut spans, "traced");
    let toggled = replay(&specs, !lens, false, &mut rep, &mut spans, "toggled");
    let direct = direct_runs(&specs[..DIRECT_JOBS], lens, &mut rep, &mut spans);

    let mut launches = 0;
    let mut all = LayerFold::default();
    for (a, (algo, phases)) in ALGOS.iter().zip(PHASES).enumerate() {
        let f = &traced.folds[a];
        launches += f.launches;
        all.merge(f);
        rep.set(format!("gpu-sim.launch_s.{algo}"), f.launch_s);
        rep.set(
            format!("gpu-sim.work_efficiency.{algo}"),
            f.work_efficiency(),
        );
        for p in 0..phases {
            rep.set(format!("gpu-sim.phase_s.{algo}.{p}"), f.phase_s[p]);
        }
        rep.set(
            format!("core.host_s.{algo}"),
            traced.algo_service_s(a).iter().sum::<f64>() - f.launch_s,
        );
        let untraced = service(&plain, a);
        rep.set_some(
            format!("trace.tax.{algo}"),
            median(&traced.algo_service_s(a))
                .zip(untraced)
                .map(|(t, u)| t / u),
        );
        if *algo == "dmr" {
            rep.set("gpu-sim.abort_ratio.dmr", f.abort_ratio());
        }
    }
    rep.set("gpu-sim.launches", launches as f64);
    rep.set("core.retries", all.retries as f64);
    rep.set("core.regrows", all.regrows as f64);
    let iterations = |algo: &str| -> f64 {
        traced
            .algo
            .iter()
            .zip(&traced.metrics)
            .filter(|(a, _)| ALGOS[**a] == algo)
            .map(|(_, m)| m.iterations as f64)
            .sum()
    };
    rep.set("dmr.iterations", iterations("dmr"));
    rep.set("sp.sweeps", iterations("sp"));
    rep.set("pta.iterations", iterations("pta"));
    rep.set("mst.rounds", iterations("mst"));
    rep.set_some(
        "dmr.serial_us_per_insertion",
        median(
            &serial
                .iter()
                .filter(|s| s.1 > 0)
                .map(|(w, n)| w * 1e6 / *n as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let p50 = |r: &Replay| median(&r.service_s);
    let plain_p50 = median(
        &plain
            .iter()
            .flat_map(|r| r.service_s.iter().copied())
            .collect::<Vec<_>>(),
    );
    let lens_tax = if lens {
        plain_p50.zip(p50(&toggled)).map(|(l, u)| l / u)
    } else {
        p50(&toggled).zip(plain_p50).map(|(l, u)| l / u)
    };
    rep.set_some("lens.tax", lens_tax);
    serve_layer(&mut rep, &plain, &direct);
    rep.set_some(
        "host.cal_us",
        median(&plain.iter().map(|r| r.cal * 1e6).collect::<Vec<_>>()),
    );
    probe::run(&mut rep);
    eprint!("{}", spans.summary());
    rep
}
