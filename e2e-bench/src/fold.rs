//! Folding the program's own trace events (`LaunchEnd`, `PhaseSpan`,
//! `Recovery`) into per-pipeline layer totals.

use morphgpu::trace::{RecoveryKind, TraceEvent};

/// The four GPU pipelines, in the order metrics are named.
pub const ALGOS: [&str; 4] = ["dmr", "sp", "pta", "mst"];

/// Barrier-separated phases of each pipeline's kernel, in [`ALGOS`] order.
pub const PHASES: [usize; 4] = [4, 2, 2, 3];

pub fn algo_index(algo: &str) -> Option<usize> {
    ALGOS.iter().position(|a| *a == algo)
}

/// Layer totals of one pipeline over some set of calls.
#[derive(Clone, Debug, Default)]
pub struct LayerFold {
    pub launches: u64,
    /// Σ `LaunchEnd::wall_us`, in seconds.
    pub launch_s: f64,
    /// Σ `PhaseSpan::wall_us` per phase, in seconds.
    pub phase_s: [f64; 4],
    pub active_threads: u64,
    pub idle_threads: u64,
    pub aborts: u64,
    pub commits: u64,
    pub retries: u64,
    pub regrows: u64,
}

impl LayerFold {
    pub fn add(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::LaunchEnd {
                wall_us, totals, ..
            } => {
                self.launches += 1;
                self.launch_s += *wall_us as f64 / 1e6;
                self.active_threads += totals.active_threads;
                self.idle_threads += totals.idle_threads;
                self.aborts += totals.aborts;
                self.commits += totals.commits;
            }
            TraceEvent::PhaseSpan { phase, wall_us, .. } => {
                if let Some(slot) = self.phase_s.get_mut(*phase as usize) {
                    *slot += *wall_us as f64 / 1e6;
                }
            }
            TraceEvent::Recovery { kind, .. } => match kind {
                RecoveryKind::Retry => self.retries += 1,
                RecoveryKind::Regrow => self.regrows += 1,
                _ => {}
            },
            _ => {}
        }
    }

    pub fn merge(&mut self, o: &LayerFold) {
        self.launches += o.launches;
        self.launch_s += o.launch_s;
        for (a, b) in self.phase_s.iter_mut().zip(o.phase_s) {
            *a += b;
        }
        self.active_threads += o.active_threads;
        self.idle_threads += o.idle_threads;
        self.aborts += o.aborts;
        self.commits += o.commits;
        self.retries += o.retries;
        self.regrows += o.regrows;
    }

    /// Share of thread executions that did useful work (0 if none ran).
    pub fn work_efficiency(&self) -> f64 {
        ratio(self.active_threads, self.active_threads + self.idle_threads)
    }

    /// Share of speculative activities that aborted (0 if none ran).
    pub fn abort_ratio(&self) -> f64 {
        ratio(self.aborts, self.aborts + self.commits)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
