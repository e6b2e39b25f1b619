//! The `batch` workload: small seeded inputs for all four pipelines on a
//! 1-SM virtual GPU with no observer attached, plus the serial refiner.
//!
//! A round is [`SLICES`] slices and the known-failing refinement. Each
//! slice runs DMR on [`DMR_PER_SLICE`] seeded random meshes, SP
//! propagation on [`SP_PER_SLICE`] hard-ratio 3-SAT instances, PTA on
//! [`PTA_PER_SLICE`] synthetic constraint sets and Boruvka MST on
//! [`MST_PER_SLICE`] random graphs, each on the slice's own seeded
//! inputs, and the serial refiner on the growth-regime mesh.
//! Interleaving spreads every pipeline's calls over the whole run, and
//! each figure is a median over calls of the call's on-CPU time scaled by
//! the host's speed next to it (see `host`): the host's speed drifts by
//! tens of percent over seconds.
//! Every run attempts whole rounds, so the failed share of operations is
//! the same in every run.

use crate::check;
use crate::fold::{LayerFold, ALGOS, PHASES};
use crate::stats::{median, peak_rss_mb, timed_cpu, Spans};
use crate::{host, probe, serve, Args, Report};
use morphgpu::core::runtime::{DriveError, RecoveryOpts};
use morphgpu::dmr::{self, DmrOpts, Mesh};
use morphgpu::geometry::{triangulate, Point, TriQuality};
use morphgpu::gpu_sim::LensHub;
use morphgpu::graph::Csr;
use morphgpu::pta::{PtaProblem, Solution};
use morphgpu::sp::surveys::Surveys;
use morphgpu::sp::{FactorGraph, SpParams};
use morphgpu::trace::{RingSink, Tracer};
use morphgpu::workloads;
use rand::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One SM: on a 2-core host that shares its cores with other machines,
/// hypervisor steal stalls a 2-SM launch at every barrier, and 2-SM calls
/// swing two- to fourfold from one minute to the next while 1-SM calls
/// swing about as much as the serial refiner. One SM also makes DMR
/// deterministic, so its counts repeat exactly.
const SMS: usize = 1;
/// Many small inputs rather than a few large ones: each figure is a
/// median over calls, so it steadies with the number of calls in a run,
/// and DMR's work per mesh and PTA's iterations vary from one seeded
/// input to the next, so a run needs many inputs of each to be typical.
const SLICES: usize = 6;
const DMR_PER_SLICE: usize = 8;
const SP_PER_SLICE: usize = 3;
const PTA_PER_SLICE: usize = 6;
const MST_PER_SLICE: usize = 4;
const DMR_TRIANGLES: usize = 2_500;
/// Inputs that fit the core's own 2 MiB L2 with the simulator's state:
/// the shared last-level cache and memory are where the host's other
/// tenants slow a run most (a loop over 8 MiB drifted twice as far as one
/// over 1 MiB), so larger inputs measure the neighbours.
const SP_VARS: usize = 1_000;
/// Sweep budget per SP call. Hard-ratio instances converge after widely
/// varying numbers of sweeps, too varied for a steady median, so most
/// calls run exactly this many sweeps of the survey-update kernel. Calls
/// that do converge are checked against a serial sweep.
const SP_SWEEPS: usize = 50;
/// SPEC-like shape (≈1.1 constraints per variable, as in Fig. 10).
const PTA_VARS: usize = 1_000;
const PTA_CONSTRAINTS: usize = 1_100;
/// `Random4-20` shape: four edges per node.
const MST_NODES: usize = 12_500;
const MST_EDGES: usize = 50_000;
/// The growth-regime mesh: 100 points in a 6 × 6 box with the default
/// quality bound and ~1% slack, so refinement grows the mesh a hundredfold.
/// Fixed, not seeded: the serial figure must not swing with the point
/// layout, and the failing refinement must fail on every run.
const GROWTH_POINTS: usize = 100;
const GROWTH_SEED: u64 = 3;
const GROWTH_BOX: f64 = 6.0;
/// DMR meshes refined under lens in a traced run.
const LENS_MESHES: usize = 2;
/// Set-up is timed like a call, several times, and reported as the median.
const SETUP_REPS: usize = 9;
const RING_CAPACITY: usize = 1 << 22;

/// Per-slice inputs that no pipeline mutates.
struct Inputs {
    seed: u64,
    sp: Vec<FactorGraph>,
    pta: Vec<PtaProblem>,
    graphs: Vec<Csr>,
}

/// Inputs a pipeline refines or updates in place: rebuilt every round.
struct Fresh {
    dmr: Vec<Mesh<f64>>,
    surveys: Vec<Surveys>,
    serial: Vec<Mesh<f64>>,
    fail: Mesh<f64>,
}

/// Reference outputs computed apart from the program, per slice.
struct References {
    pta: Vec<Solution>,
    kruskal_weight: Vec<u64>,
    components: Vec<usize>,
}

fn growth_mesh() -> Mesh<f64> {
    let mut rng = StdRng::seed_from_u64(GROWTH_SEED);
    let pts: Vec<Point<f64>> = (0..GROWTH_POINTS)
        .map(|_| {
            Point::snapped(
                rng.gen_range(0.0..GROWTH_BOX),
                rng.gen_range(0.0..GROWTH_BOX),
            )
        })
        .collect();
    let t = triangulate(&pts).expect("growth-regime points triangulate");
    Mesh::from_triangulation(&t, TriQuality::default(), 1.01, 1.01)
}

/// Seed of input `k` of a kind: distinct per slice and per run seed.
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(k as u64)
}

impl Inputs {
    fn new(seed: u64) -> Self {
        Inputs {
            seed,
            sp: (0..SLICES * SP_PER_SLICE)
                .map(|k| {
                    FactorGraph::new(&workloads::ksat::hard_instance(
                        SP_VARS,
                        3,
                        sub_seed(seed, k),
                    ))
                })
                .collect(),
            pta: (0..SLICES * PTA_PER_SLICE)
                .map(|k| workloads::pta::synthetic(PTA_VARS, PTA_CONSTRAINTS, sub_seed(seed, k)))
                .collect(),
            graphs: (0..SLICES * MST_PER_SLICE)
                .map(|k| workloads::graphs::random_graph(MST_NODES, MST_EDGES, sub_seed(seed, k)))
                .collect(),
        }
    }

    fn fresh(&self) -> Fresh {
        Fresh {
            dmr: (0..SLICES * DMR_PER_SLICE)
                .map(|k| workloads::mesh::random_mesh(DMR_TRIANGLES, sub_seed(self.seed, k)))
                .collect(),
            surveys: self
                .sp
                .iter()
                .enumerate()
                .map(|(k, fg)| Surveys::init(fg, sub_seed(self.seed, k)))
                .collect(),
            serial: (0..SLICES).map(|_| growth_mesh()).collect(),
            fail: growth_mesh(),
        }
    }

    fn references(&self) -> References {
        References {
            pta: self
                .pta
                .iter()
                .map(|p| check::sorted_solution(morphgpu::pta::serial::solve(p)))
                .collect(),
            kruskal_weight: self
                .graphs
                .iter()
                .map(|g| morphgpu::mst::kruskal::mst(g).weight)
                .collect(),
            components: self.graphs.iter().map(check::components).collect(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// No observer: `RecoveryOpts::default()`. End-to-end figures.
    Untraced,
    /// The program's tracer into a `RingSink` on every pipeline call.
    Traced,
    /// A morph-lens hub on every pipeline call.
    Lens,
}

impl Pass {
    fn name(self) -> &'static str {
        match self {
            Pass::Untraced => "untraced",
            Pass::Traced => "traced",
            Pass::Lens => "lens",
        }
    }
}

/// One timed call into a pipeline.
struct Call {
    /// `dmr`, `sp`, `pta`, `mst`, `serial`, or `fail` (the known-failing
    /// growth-mesh GPU refinement, recorded only when it fails).
    layer: &'static str,
    wall: f64,
    /// On-CPU seconds: on one SM the whole call runs on the calling
    /// thread, so this is its wall time less the hypervisor's steal.
    cpu: f64,
    /// The host-speed sample taken just before the call.
    cal: f64,
    /// Iterations, sweeps or rounds (insertions for `serial`).
    count: u64,
    fold: LayerFold,
}

impl Call {
    /// The call's on-CPU time in reference seconds.
    fn cost(&self) -> f64 {
        host::scale(self.cpu, self.cal)
    }
}

/// A call's wall and on-CPU seconds and the host-speed sample before it.
struct Timing {
    wall: f64,
    cpu: f64,
    cal: f64,
}

/// Sample the host's speed, then time `f`.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cal = host::sample();
    let (out, wall, cpu) = timed_cpu(f);
    (out, Timing { wall, cpu, cal })
}

/// Time `f` under `pass`'s observers; a traced call folds its events.
fn call<T>(pass: Pass, f: impl FnOnce(&RecoveryOpts) -> T) -> (T, Timing, LayerFold) {
    let ring = (pass == Pass::Traced).then(|| Arc::new(RingSink::new(RING_CAPACITY)));
    let opts = match (&ring, pass) {
        (Some(r), _) => RecoveryOpts {
            tracer: Tracer::new(Arc::clone(r) as _),
            ..RecoveryOpts::default()
        },
        (None, Pass::Lens) => RecoveryOpts {
            lens: LensHub::enabled(),
            ..RecoveryOpts::default()
        },
        (None, _) => RecoveryOpts::default(),
    };
    let (out, t) = measure(|| f(&opts));
    let mut fold = LayerFold::default();
    if let Some(r) = ring {
        assert_eq!(r.dropped(), 0, "trace ring overflowed; raise RING_CAPACITY");
        for ev in r.events() {
            fold.add(&ev);
        }
    }
    (out, t, fold)
}

/// Time and count one GPU pipeline call: checked when it returned,
/// failed when it gave up. `ok` maps the output to (count, verdict).
fn gpu_call<T, E: std::fmt::Display>(
    layer: &'static str,
    pass: Pass,
    rep: &mut Report,
    run: impl FnOnce(&RecoveryOpts) -> Result<T, E>,
    ok: impl FnOnce(T) -> (u64, Result<(), String>),
) -> Option<Call> {
    let (out, t, fold) = call(pass, run);
    match out {
        Ok(v) => {
            let (count, verdict) = ok(v);
            rep.checked(layer, verdict);
            Some(Call {
                layer,
                wall: t.wall,
                cpu: t.cpu,
                cal: t.cal,
                count,
                fold,
            })
        }
        Err(e) => {
            rep.failed();
            eprintln!("{layer}: failed: {e}");
            None
        }
    }
}

/// One DMR refinement, checked once the mesh is refined.
fn refine_gpu(mesh: &mut Mesh<f64>, pass: Pass, rep: &mut Report) -> Option<Call> {
    let (out, t, fold) = call(pass, |o| {
        dmr::gpu::try_refine_gpu(mesh, DmrOpts::default(), SMS, o)
    });
    match out {
        Ok(o) => {
            rep.checked("dmr", check::refined_mesh(mesh));
            Some(Call {
                layer: "dmr",
                wall: t.wall,
                cpu: t.cpu,
                cal: t.cal,
                count: o.iterations,
                fold,
            })
        }
        Err(e) => {
            rep.failed();
            eprintln!("dmr: failed: {e}");
            None
        }
    }
}

fn round(
    inp: &Inputs,
    refs: &References,
    pass: Pass,
    rep: &mut Report,
    spans: &mut Spans,
) -> Vec<Call> {
    let mut fresh = inp.fresh();
    let mut calls = Vec::new();
    let eps = SpParams::default().eps;
    let mut meshes = fresh.dmr.iter_mut();
    let mut serial = fresh.serial.iter_mut();
    for k in 0..SLICES {
        for mesh in meshes.by_ref().take(DMR_PER_SLICE) {
            calls.extend(refine_gpu(mesh, pass, rep));
        }
        for j in k * SP_PER_SLICE..(k + 1) * SP_PER_SLICE {
            let (fg, s) = (&inp.sp[j], &fresh.surveys[j]);
            calls.extend(gpu_call(
                "sp",
                pass,
                rep,
                |o| morphgpu::sp::gpu::try_propagate(fg, s, eps, SP_SWEEPS, SMS, o),
                |(sweeps, _)| (sweeps as u64, check::sp(fg, s, sweeps, SP_SWEEPS, eps)),
            ));
        }
        for j in k * PTA_PER_SLICE..(k + 1) * PTA_PER_SLICE {
            calls.extend(gpu_call(
                "pta",
                pass,
                rep,
                |o| morphgpu::pta::gpu::try_solve_with(&inp.pta[j], Default::default(), SMS, o),
                |out| (out.iterations, check::pta(&out.solution, &refs.pta[j])),
            ));
        }
        for j in k * MST_PER_SLICE..(k + 1) * MST_PER_SLICE {
            let g = &inp.graphs[j];
            calls.extend(gpu_call(
                "mst",
                pass,
                rep,
                |o| morphgpu::mst::gpu::try_mst_with_stats(g, SMS, o),
                |out| {
                    let r = out.result;
                    let verdict = check::mst(
                        r.weight,
                        r.edges,
                        refs.kruskal_weight[j],
                        g.num_nodes(),
                        refs.components[j],
                    );
                    (r.rounds as u64, verdict)
                },
            ));
        }
        {
            let mesh = serial.next().expect("one growth mesh per slice");
            let (stats, t) = measure(|| dmr::serial::refine(mesh));
            rep.checked("serial", check::refined_mesh(mesh));
            calls.push(Call {
                layer: "serial",
                wall: t.wall,
                cpu: t.cpu,
                cal: t.cal,
                count: stats.refined,
                fold: LayerFold::default(),
            });
        }
    }

    // Known fault: the §7.1 on-demand regrow adds slots in proportion to
    // the bad-triangle front, not the mesh, so the growth regime exhausts
    // the regrow budget on the mesh the serial refiner just finished.
    // Counted as failed; in no end-to-end metric.
    let (out, t, fold) = call(pass, |o| {
        dmr::gpu::try_refine_gpu(&mut fresh.fail, DmrOpts::default(), SMS, o)
    });
    match out {
        Ok(_) => rep.checked("fail", check::refined_mesh(&fresh.fail)),
        Err(e) => {
            if !matches!(e, DriveError::RegrowsExhausted { .. }) {
                eprintln!("fail: failed other than by exhausting regrows: {e}");
            }
            rep.failed();
            calls.push(Call {
                layer: "fail",
                wall: t.wall,
                cpu: t.cpu,
                cal: t.cal,
                count: 0,
                fold,
            });
        }
    }
    for c in &calls {
        spans.record(c.layer, pass.name(), Duration::from_secs_f64(c.wall));
    }
    calls
}

/// Whole rounds until `seconds` have passed (at least one), as one list.
fn rounds(
    inp: &Inputs,
    refs: &References,
    pass: Pass,
    seconds: f64,
    rep: &mut Report,
    spans: &mut Spans,
) -> Vec<Call> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        out.extend(round(inp, refs, pass, rep, spans));
    }
    out
}

/// Median cost, in reference seconds, of one call into `layer`.
fn med_cost(calls: &[Call], layer: &str) -> Option<f64> {
    median(
        &calls
            .iter()
            .filter(|c| c.layer == layer)
            .map(Call::cost)
            .collect::<Vec<_>>(),
    )
}

fn sum(calls: &[Call], layer: &str, f: impl Fn(&Call) -> f64) -> f64 {
    calls.iter().filter(|c| c.layer == layer).map(f).sum()
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let mut spans = Spans::default();
    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let ((inp, fresh), t) = measure(|| {
            let inp = Inputs::new(args.seed);
            let fresh = inp.fresh();
            (inp, fresh)
        });
        drop(fresh);
        setup.push(host::scale(t.cpu, t.cal));
        inputs = Some(inp);
    }
    let inp = inputs.expect("at least one set-up");
    let refs = inp.references();

    if !args.trace {
        let calls = rounds(
            &inp,
            &refs,
            Pass::Untraced,
            args.seconds,
            &mut rep,
            &mut spans,
        );
        rep.set_some("setup_s", median(&setup));
        for algo in ALGOS {
            rep.set_some(format!("{algo}_gpu_s"), med_cost(&calls, algo));
        }
        rep.set_some("dmr_serial_s", med_cost(&calls, "serial"));
        rep.set_some("peak_rss_mb", peak_rss_mb());
        return rep;
    }

    // Traced run: untraced rounds for the tax denominators, one traced
    // round for the per-layer fold, and DMR meshes under lens for the
    // lens tax. The other pipelines take minutes under lens at
    // these sizes, so the lens pass is DMR alone; its operations
    // are checked but not counted, like every probe.
    let plain = rounds(
        &inp,
        &refs,
        Pass::Untraced,
        args.seconds / 2.0,
        &mut rep,
        &mut spans,
    );
    let traced = round(&inp, &refs, Pass::Traced, &mut rep, &mut spans);
    let mut scratch = Report::default();
    let lens_dmr: Vec<Call> = (0..LENS_MESHES)
        .filter_map(|k| {
            let mut mesh = workloads::mesh::random_mesh(DMR_TRIANGLES, sub_seed(inp.seed, k));
            refine_gpu(&mut mesh, Pass::Lens, &mut scratch)
        })
        .collect();
    rep.wrong.append(&mut scratch.wrong);
    for c in &lens_dmr {
        spans.record("dmr", "lens", Duration::from_secs_f64(c.wall));
    }

    let mut launches = 0;
    let mut all = LayerFold::default();
    for c in &traced {
        all.merge(&c.fold);
    }
    for (algo, phases) in ALGOS.iter().zip(PHASES) {
        let mut f = LayerFold::default();
        for c in traced.iter().filter(|c| c.layer == *algo) {
            f.merge(&c.fold);
        }
        launches += f.launches;
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
            sum(&traced, algo, |c| c.wall) - f.launch_s,
        );
        let tax = med_cost(&traced, algo)
            .zip(med_cost(&plain, algo))
            .map(|(t, u)| t / u);
        rep.set_some(format!("trace.tax.{algo}"), tax);
        if *algo == "dmr" {
            rep.set("gpu-sim.abort_ratio.dmr", f.abort_ratio());
        }
    }
    rep.set("gpu-sim.launches", launches as f64);
    rep.set("core.retries", all.retries as f64);
    rep.set("core.regrows", all.regrows as f64);
    rep.set("dmr.iterations", sum(&traced, "dmr", |c| c.count as f64));
    rep.set("sp.sweeps", sum(&traced, "sp", |c| c.count as f64));
    rep.set("pta.iterations", sum(&traced, "pta", |c| c.count as f64));
    rep.set("mst.rounds", sum(&traced, "mst", |c| c.count as f64));
    let per_insertion: Vec<f64> = plain
        .iter()
        .filter(|c| c.layer == "serial" && c.count > 0)
        .map(|c| c.cost() * 1e6 / c.count as f64)
        .collect();
    rep.set_some("dmr.serial_us_per_insertion", median(&per_insertion));
    rep.set_some(
        "lens.tax",
        med_cost(&lens_dmr, "dmr")
            .zip(med_cost(&plain, "dmr"))
            .map(|(l, u)| l / u),
    );
    rep.set_some(
        "host.cal_us",
        median(&plain.iter().map(|c| c.cal * 1e6).collect::<Vec<_>>()),
    );

    // Batch drives no pool; the serve-layer figures come from a fixed
    // burst replay so the serving layer is still measured in this run.
    serve::layer_probe(args.seed, &mut rep, &mut spans);
    probe::run(&mut rep);
    eprint!("{}", spans.summary());
    rep
}
