//! Small statistics and process helpers: medians, tail percentiles under
//! the ten-samples-beyond rule, peak resident memory, and the benchmark's
//! own spans around every call into a layer.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile (nearest rank) of `xs`, but only when at least
/// ten samples lie beyond it: a percentile with fewer is no tail.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < 10 {
        return None;
    }
    Some(v[rank - 1])
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// kernel reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run `f` and return its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU seconds of this process so far, over all its threads, live or
/// ended. Unlike wall time it leaves out time the hypervisor gave this
/// process's cores to another machine (steal).
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Run `f` and return its result with the wall and on-CPU seconds it took.
pub fn timed_cpu<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (t, c) = (Instant::now(), cpu_s());
    let out = f();
    let cpu = cpu_s() - c;
    (out, t.elapsed().as_secs_f64(), cpu)
}

/// One span the benchmark recorded around a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer called (`dmr`, `sp`, `pta`, `mst`, `serial`, `serve`, …).
    pub layer: &'static str,
    /// The pass the call belongs to (`untraced`, `traced`, `lens`, …).
    pub pass: &'static str,
    pub wall: Duration,
}

/// The spans of one run, kept in memory and summarised on stderr at the
/// end of a traced run.
#[derive(Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    pub fn record(&mut self, layer: &'static str, pass: &'static str, wall: Duration) {
        self.0.push(Span { layer, pass, wall });
    }

    /// One line per (pass, layer): call count and total wall time.
    pub fn summary(&self) -> String {
        let mut keys: Vec<(&str, &str)> = self.0.iter().map(|s| (s.pass, s.layer)).collect();
        keys.sort();
        keys.dedup();
        let mut out = String::new();
        for (pass, layer) in keys {
            let (n, total) = self
                .0
                .iter()
                .filter(|s| s.pass == pass && s.layer == layer)
                .fold((0usize, 0.0f64), |(n, t), s| {
                    (n + 1, t + s.wall.as_secs_f64())
                });
            out.push_str(&format!(
                "span pass={pass} layer={layer} calls={n} total_s={total:.6}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail_percentile(&few, 99.0), None);
    }
}
