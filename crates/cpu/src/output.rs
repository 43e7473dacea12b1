//! Simulation results: everything the paper's figures report.

use itpx_trace::TierSchedule;
use itpx_types::{LevelId, MpkiBreakdown, StructStats};

/// Per-hardware-thread results.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadOutput {
    /// Workload name.
    pub workload: String,
    /// Measured (post-warmup) instructions.
    pub instructions: u64,
    /// Cycles spent retiring them.
    pub cycles: u64,
    /// Cycles the front end stalled waiting for instruction address
    /// translation (the Figure 1 metric).
    pub itrans_stall_cycles: u64,
    /// Branch mispredictions during measurement.
    pub mispredictions: u64,
}

impl ThreadOutput {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles spent on instruction address translation.
    pub fn itrans_stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.itrans_stall_cycles as f64 / self.cycles as f64
        }
    }
}

/// Page-walker summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkerSummary {
    /// Total page walks.
    pub walks: u64,
    /// Walks serving instruction translations.
    pub instruction_walks: u64,
    /// Walks serving data translations.
    pub data_walks: u64,
    /// Mean walk latency in cycles.
    pub avg_latency: f64,
    /// Mean memory references per walk.
    pub avg_memory_refs: f64,
}

/// Statistics of one cache level of the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelReport {
    /// Which chain level this reports.
    pub id: LevelId,
    /// The level's access/miss statistics.
    pub stats: StructStats,
}

/// Full results of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutput {
    /// Name of the policy preset that ran.
    pub preset: String,
    /// LLC policy name.
    pub llc_policy: String,
    /// Per-thread results (1 or 2 entries).
    pub threads: Vec<ThreadOutput>,
    /// Tiered execution schedule the run used (flat = one untiered
    /// measurement run). Carried so downstream consumers can tell how
    /// the measured counters were gathered.
    pub tiers: TierSchedule,
    /// First-level instruction TLB statistics.
    pub itlb: StructStats,
    /// First-level data TLB statistics.
    pub dtlb: StructStats,
    /// Last-level TLB statistics (aggregated over split organizations).
    pub stlb: StructStats,
    /// L1I statistics.
    pub l1i: StructStats,
    /// L1D statistics.
    pub l1d: StructStats,
    /// L2C statistics — the structure xPTP manages.
    pub l2c: StructStats,
    /// LLC statistics (empty when the chain has no LLC).
    pub llc: StructStats,
    /// Every cache level of the chain in order (L1I, L1D, then the
    /// shared levels). Covers levels the named fields cannot express,
    /// such as the L3 of 4-level chains.
    pub cache_levels: Vec<LevelReport>,
    /// Walker summary.
    pub walker: WalkerSummary,
    /// DRAM reads during measurement.
    pub dram_reads: u64,
    /// DRAM writebacks during measurement.
    pub dram_writes: u64,
    /// Fraction of epochs with xPTP enabled (only for iTP+xPTP).
    pub xptp_enabled_fraction: Option<f64>,
}

impl SimulationOutput {
    /// Total measured instructions across threads.
    pub fn instructions(&self) -> u64 {
        self.threads.iter().map(|t| t.instructions).sum()
    }

    /// Aggregate IPC: the sum of per-thread IPCs (the standard SMT
    /// throughput metric; equals plain IPC for one thread).
    pub fn ipc(&self) -> f64 {
        self.threads.iter().map(|t| t.ipc()).sum()
    }

    /// Relative IPC improvement over a baseline run, in percent.
    pub fn speedup_pct_over(&self, baseline: &SimulationOutput) -> f64 {
        (self.ipc() / baseline.ipc() - 1.0) * 100.0
    }

    /// STLB misses per kilo-instruction.
    pub fn stlb_mpki(&self) -> f64 {
        self.stlb.mpki(self.instructions())
    }

    /// STLB MPKI split into instruction (`instr`) and data (`data`)
    /// translations — the Figure 10 breakdown.
    pub fn stlb_breakdown(&self) -> MpkiBreakdown {
        self.stlb.mpki_breakdown(self.instructions())
    }

    /// L2C misses per kilo-instruction.
    pub fn l2c_mpki(&self) -> f64 {
        self.l2c.mpki(self.instructions())
    }

    /// L2C MPKI broken into the four Figure 4 classes.
    pub fn l2c_breakdown(&self) -> MpkiBreakdown {
        self.l2c.mpki_breakdown(self.instructions())
    }

    /// LLC misses per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        self.llc.mpki(self.instructions())
    }

    /// LLC MPKI broken into the four Figure 4 classes.
    pub fn llc_breakdown(&self) -> MpkiBreakdown {
        self.llc.mpki_breakdown(self.instructions())
    }

    /// Mean cycles the front end stalled on instruction translation, as a
    /// fraction of all cycles (averaged over threads) — the Figure 1
    /// metric.
    pub fn itrans_stall_fraction(&self) -> f64 {
        if self.threads.is_empty() {
            return 0.0;
        }
        self.threads
            .iter()
            .map(|t| t.itrans_stall_fraction())
            .sum::<f64>()
            / self.threads.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(instructions: u64, cycles: u64) -> ThreadOutput {
        ThreadOutput {
            workload: "w".into(),
            instructions,
            cycles,
            itrans_stall_cycles: cycles / 10,
            mispredictions: 0,
        }
    }

    fn output(threads: Vec<ThreadOutput>) -> SimulationOutput {
        SimulationOutput {
            preset: "LRU".into(),
            llc_policy: "LRU".into(),
            threads,
            tiers: TierSchedule::flat(),
            itlb: StructStats::new(),
            dtlb: StructStats::new(),
            stlb: StructStats::new(),
            l1i: StructStats::new(),
            l1d: StructStats::new(),
            l2c: StructStats::new(),
            llc: StructStats::new(),
            cache_levels: Vec::new(),
            walker: WalkerSummary {
                walks: 0,
                instruction_walks: 0,
                data_walks: 0,
                avg_latency: 0.0,
                avg_memory_refs: 0.0,
            },
            dram_reads: 0,
            dram_writes: 0,
            xptp_enabled_fraction: None,
        }
    }

    #[test]
    fn smt_ipc_is_throughput_sum() {
        let o = output(vec![thread(1000, 2000), thread(1000, 1000)]);
        assert!((o.ipc() - 1.5).abs() < 1e-12);
        assert_eq!(o.instructions(), 2000);
    }

    #[test]
    fn speedup_is_relative_percent() {
        let a = output(vec![thread(1000, 1000)]);
        let b = output(vec![thread(1000, 2000)]);
        assert!((a.speedup_pct_over(&b) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn stall_fraction_averages_threads() {
        let o = output(vec![thread(10, 100), thread(10, 100)]);
        assert!((o.itrans_stall_fraction() - 0.1).abs() < 1e-12);
    }
}
