//! Parallel sweep machinery shared by all figure reproductions.

use itpx_cpu::SimulationOutput;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How big an experiment run should be.
///
/// The paper simulates 50 M warmup + 100 M measured instructions across
/// 120 single-thread workloads and 75 SMT pairs. The default scale here
/// keeps the full campaign in laptop territory; environment variables
/// raise it toward the paper's:
///
/// * `ITPX_WORKLOADS` — single-thread workloads per suite (default 16),
/// * `ITPX_SMT_PAIRS` — SMT pairs (default 9),
/// * `ITPX_INSTRUCTIONS` — measured instructions (default 300 000),
/// * `ITPX_WARMUP` — warmup instructions (default 100 000),
/// * `ITPX_THREADS` — host threads for parallel runs (default: available
///   parallelism).
///
/// One knob sizes a single figure rather than every run: `ITPX_TENANTS`
/// caps the `consolidation` sweep's tenant counts (default: all of them;
/// validated like the others, so 0 clamps to 1 with a warning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Single-thread workloads per suite.
    pub workloads: usize,
    /// SMT pairs.
    pub smt_pairs: usize,
    /// Measured instructions per workload.
    pub instructions: u64,
    /// Warmup instructions per workload.
    pub warmup: u64,
    /// Host threads used to parallelize independent simulations.
    pub host_threads: usize,
}

impl RunScale {
    /// Reads the scale from the environment, falling back to defaults.
    /// Values are validated by [`crate::env`]: junk falls back to the
    /// default and out-of-range values clamp, each with a one-time
    /// warning (`ITPX_THREADS=0` would otherwise configure a sweep that
    /// can never run a job).
    pub fn from_env() -> Self {
        let get = |k: &str, d: u64| crate::env::count_from_env(k, d, 1);
        Self {
            workloads: get("ITPX_WORKLOADS", 16) as usize,
            smt_pairs: get("ITPX_SMT_PAIRS", 9) as usize,
            instructions: get("ITPX_INSTRUCTIONS", 300_000),
            warmup: get("ITPX_WARMUP", 100_000),
            host_threads: get(
                "ITPX_THREADS",
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(4),
            ) as usize,
        }
    }

    /// A minimal scale for tests.
    pub fn smoke() -> Self {
        Self {
            workloads: 2,
            smt_pairs: 2,
            instructions: 20_000,
            warmup: 5_000,
            host_threads: 2,
        }
    }

    /// Applies this scale's run lengths to a workload spec.
    pub fn apply(&self, w: itpx_trace::WorkloadSpec) -> itpx_trace::WorkloadSpec {
        w.instructions(self.instructions).warmup(self.warmup)
    }

    /// Applies this scale's run lengths to both members of an SMT pair.
    pub fn apply_pair(&self, mut p: itpx_trace::SmtPairSpec) -> itpx_trace::SmtPairSpec {
        p.a = self.apply(p.a);
        p.b = self.apply(p.b);
        p
    }
}

/// Parks the calling thread for `ms` milliseconds — host scheduling
/// only, used by the sharded executor's store-poll backoff. Simulated
/// results never depend on host timing.
pub fn sleep_ms(ms: u64) {
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// Runs a set of independent jobs across host threads, preserving order.
#[derive(Debug)]
pub struct Sweep {
    host_threads: usize,
}

impl Sweep {
    /// Creates a sweep runner using `host_threads` threads.
    pub fn new(host_threads: usize) -> Self {
        Self {
            host_threads: host_threads.max(1),
        }
    }

    /// Threads a sweep of `jobs` jobs runs on.
    pub fn workers(&self, jobs: usize) -> usize {
        self.host_threads.min(jobs.max(1))
    }

    /// Maps `jobs` through `f` in parallel, returning results in job order.
    pub fn run<J, F>(&self, jobs: Vec<J>, f: F) -> Vec<SimulationOutput>
    where
        J: Send + Sync,
        F: Fn(&J) -> SimulationOutput + Sync,
    {
        self.run_generic(jobs, f)
    }

    /// Generic parallel map preserving input order.
    ///
    /// Jobs are claimed from a frozen `Vec` through a single atomic
    /// cursor — no lock is held while claiming or while publishing a
    /// result. Each worker buffers `(index, result)` pairs locally and the
    /// buffers are merged after all workers join, so execution is
    /// contention-free regardless of how uneven the per-job runtimes are.
    pub fn run_generic<J, R, F>(&self, jobs: Vec<J>, f: F) -> Vec<R>
    where
        J: Send + Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        let n = jobs.len();
        let cursor = AtomicUsize::new(0);
        let workers = self.workers(n);
        let buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(&jobs[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                // A job's panic surfaces with its own payload.
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in buffers.into_iter().flatten() {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every index below n was claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order() {
        let sweep = Sweep::new(4);
        let out: Vec<usize> = sweep.run_generic((0..32).collect(), |&j| j * 2);
        assert_eq!(out, (0..32).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scale_applies_lengths() {
        let s = RunScale::smoke();
        let w = s.apply(itpx_trace::WorkloadSpec::server_like(1));
        assert_eq!(w.instructions, 20_000);
        assert_eq!(w.warmup, 5_000);
    }

    #[test]
    fn env_overrides_are_read() {
        // Only checks the default path is sane; env mutation in tests
        // would race with other tests.
        let s = RunScale::from_env();
        assert!(s.workloads >= 1);
        assert!(s.host_threads >= 1);
    }
}
