//! Host-speed calibration for the `batch` workload.
//!
//! The benchmark runs on a few cores of a shared host. The other tenants
//! contend for the caches, memory and cores, so the host's speed drifts:
//! within one run the median 2 500-triangle DMR refinement moved between
//! 37 and 73 ms from one five-second stretch to the next, with no steal
//! reported, and the loop below drifts with it. No median over a run can
//! be steadier than the host it ran on.
//!
//! So `batch` scales every time it reports end to end by the host's speed
//! at that moment: a fixed loop owned by the benchmark is timed just
//! before each timed call, and the call's time is reported in reference
//! seconds, `t × REF_S / loop time`. A change to the program moves the
//! call's time and not the loop's, so it shows in full; a slower host
//! moves both, and mostly cancels. Over five seeds this narrowed the
//! spread (IQR ÷ median) of `batch`'s per-pipeline medians from
//! 0.12–0.17 to 0.07–0.14. The serving pool runs its jobs on several
//! threads at once, which one loop on one thread does not track (scaled,
//! throughput spread 0.16 against 0.07 unscaled), so the `serve`
//! workloads report unscaled times and use the loop only for the
//! per-layer `host.cal_us`.

use crate::stats::cpu_s;
use std::cell::RefCell;

/// 1 MiB of words: the loop stays in the core's own 2 MiB L2, which is
/// where the pipelines' calls spend their time, and tracks the host's
/// speed there better than a loop in L1 or in memory (spread of the
/// scaled DMR median over five runs: 0.13 in L1, 0.11 in L2, and the
/// scaled SP median: 0.07, 0.05).
const WORDS: usize = 1 << 17;

/// On-CPU seconds of one timed pass on the 2-vCPU Xeon VM the README's
/// figures come from (1.7–2.3 ms there): reference seconds are close to
/// real seconds on that host.
pub const REF_S: f64 = 0.002;

thread_local! {
    static BUF: RefCell<Vec<u64>> = RefCell::new(vec![1; WORDS]);
}

/// One pass of data-dependent read-modify-writes over the buffer.
fn pass(v: &mut [u64]) -> u64 {
    let mut x = 1u64;
    for i in 0..v.len() {
        let j = (x as usize ^ i) % v.len();
        v[j] = v[j].wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        x = x.wrapping_add(v[j] >> 7);
    }
    x
}

/// The host's speed now: on-CPU seconds of one pass of the loop, after an
/// untimed pass that brings the buffer back into cache, so the program's
/// own working set does not change the figure.
pub fn sample() -> f64 {
    BUF.with(|b| {
        let v = &mut b.borrow_mut()[..];
        std::hint::black_box(pass(v));
        let c = cpu_s();
        std::hint::black_box(pass(v));
        cpu_s() - c
    })
}

/// `t` seconds taken while a pass took `cal` seconds, in reference seconds.
pub fn scale(t: f64, cal: f64) -> f64 {
    t * REF_S / cal
}
