//! Micro-probes for per-layer costs that no pipeline output gives: the
//! empty-kernel launch floor and the cost of one metered global-memory
//! access under each observer, all timed around `VirtualGpu::launch`.

use crate::stats::median;
use crate::Report;
use morphgpu::gpu_sim::{BarrierKind, GpuConfig, Kernel, LensHub, ThreadCtx, VirtualGpu};
use morphgpu::trace::{RingSink, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// Small-job geometry: the pipelines' floor of three blocks per SM on a
/// 2-SM device, with the DMR/MST block width.
const BLOCKS: usize = 6;
const TPB: usize = 64;
const FLOOR_LAUNCHES: usize = 2_000;
const METER_REPS: usize = 40;
/// Metered accesses per virtual thread in the meter probe.
const TOUCHES: usize = 128;
/// Logical device window the meter probe touches (and registers with lens).
const METER_BASE: usize = 0x7000_0000_0000;

fn gpu(sms: usize) -> VirtualGpu {
    VirtualGpu::new(GpuConfig {
        num_sms: sms,
        warp_size: 32,
        blocks: BLOCKS,
        threads_per_block: TPB,
        barrier: BarrierKind::SenseReversing,
    })
}

struct Empty;

impl Kernel for Empty {
    fn run(&self, _phase: usize, _ctx: &mut ThreadCtx<'_>) -> bool {
        false
    }
}

/// Each thread meters `TOUCHES` consecutive 8-byte words.
struct Touch;

impl Kernel for Touch {
    fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
        let base = METER_BASE + ctx.tid * TOUCHES * 8;
        for i in 0..TOUCHES {
            ctx.gmem_addr(base + i * 8);
        }
        true
    }
}

/// Median wall time of one empty launch on `sms` SMs, in µs.
fn launch_floor_us(sms: usize) -> Option<f64> {
    let g = gpu(sms);
    for _ in 0..FLOOR_LAUNCHES / 10 {
        g.launch(&Empty);
    }
    let samples: Vec<f64> = (0..FLOOR_LAUNCHES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(g.launch(&Empty));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Extra ns per metered access with a tracer and with a lens hub armed,
/// against the same kernel with no observer. A figure is reported only
/// when the observed launch metered a nonzero number of accesses.
fn meter_ns_per_access() -> (Option<f64>, Option<f64>) {
    let plain = gpu(2);
    let mut traced = gpu(2);
    traced.set_tracer(Tracer::new(Arc::new(RingSink::new(1024))));
    let mut lensed = gpu(2);
    lensed.set_lens(LensHub::enabled());
    lensed
        .lens()
        .register("probe.words", METER_BASE, BLOCKS * TPB * TOUCHES * 8);

    let (mut t_plain, mut t_traced, mut t_lens) = (vec![], vec![], vec![]);
    let (mut acc_traced, mut acc_lens) = (0u64, 0u64);
    for _ in 0..METER_REPS {
        // Interleaved, so host drift lands on all three alike.
        let t = Instant::now();
        std::hint::black_box(plain.launch(&Touch));
        t_plain.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        acc_traced = traced.launch(&Touch).gmem_accesses;
        t_traced.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        acc_lens = lensed.launch(&Touch).gmem_accesses;
        t_lens.push(t.elapsed().as_secs_f64());
    }
    let base = median(&t_plain);
    let per = |ts: &[f64], acc: u64| -> Option<f64> {
        (acc > 0).then_some((median(ts)? - base?) * 1e9 / acc as f64)
    };
    (per(&t_traced, acc_traced), per(&t_lens, acc_lens))
}

/// Run every probe and record its metrics.
pub fn run(rep: &mut Report) {
    rep.set_some("gpu-sim.launch_floor_us", launch_floor_us(2));
    rep.set_some("gpu-sim.launch_floor_1sm_us", launch_floor_us(1));
    let (tracer, lens) = meter_ns_per_access();
    rep.set_some("gpu-sim.meter_ns_per_access.tracer", tracer);
    rep.set_some("gpu-sim.meter_ns_per_access.lens", lens);
}
