//! Adversarial trace fuzzing for the differential harness.
//!
//! [`FuzzSpec`] names one deterministic adversarial workload: a pattern, a
//! seed, and a length. [`generate`] expands it into a concrete instruction
//! stream; [`corpus`] derives a whole family of specs from one master
//! seed. The patterns stress the paths where the optimized simulator has
//! the most machinery to get wrong:
//!
//! * **instruction thrash** — code footprints far beyond the ITLB (and
//!   pushing the STLB), exercising fill/evict churn at both TLB levels;
//! * **page-walk heavy** — sparse pages scattered across the address
//!   space so the page-structure caches miss and walks run deep;
//! * **phase shifting** — periodic migration to a disjoint working set,
//!   exercising whole-structure turnover;
//! * **writeback storm** — store-heavy cycling over more blocks than the
//!   caches hold, exercising dirty evictions and writeback routing at
//!   every chain level;
//! * **mixed** — bursts drawn from all of the above, for interactions no
//!   single pattern produces.
//!
//! Everything is seeded from [`Rng64`]: the same spec always expands to
//! the same trace, so a failing fuzz case is its spec.

use crate::record::{MemRef, TraceInst};
use itpx_types::Rng64;

/// Base virtual address of fuzzer code pages.
const CODE_BASE: u64 = 0x0051_0000_0000;
/// Base virtual address of fuzzer data pages.
const DATA_BASE: u64 = 0x0062_0000_0000;
/// Bytes per 4 KiB page.
const PAGE: u64 = 4096;

/// One adversarial access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuzzPattern {
    /// Code footprint far beyond the ITLB: TLB fill/evict churn.
    InstrThrash,
    /// Sparse scattered pages: PSC misses and deep page walks.
    PageWalkHeavy,
    /// Disjoint working sets swapped periodically.
    PhaseShift,
    /// Store-heavy cycling: dirty evictions and writeback routing.
    WritebackStorm,
    /// Bursts of all four patterns interleaved.
    Mixed,
    /// One abrupt working-set migration placed *mid-trace*, with dense
    /// straddling traffic on both sides — the shape of a tier boundary:
    /// state warmed before the boundary must serve the first accesses
    /// after it. The ddmin shrinker preserves the straddle when it
    /// minimizes, so boundary bugs reduce to a few pre/post accesses.
    TierBoundary,
    /// Dense reuse over a small working set whose window drifts slowly.
    /// The difftest lowering injects high-rate context switches on top,
    /// so consecutive scheduler quanta run under different ASIDs while
    /// their working sets overlap partially: the same VPNs recur under
    /// different tags and the TLBs must refuse every stale entry.
    ContextStorm,
    /// A hot, heavily revisited working set. The difftest lowering
    /// injects targeted shootdowns of recently touched pages (plus slow
    /// tenant rotation), so invalidations keep landing on translations
    /// that are actually resident and the very next access re-walks.
    ShootdownStorm,
}

impl FuzzPattern {
    /// Every pattern, in corpus round-robin order.
    pub const ALL: [FuzzPattern; 8] = [
        FuzzPattern::InstrThrash,
        FuzzPattern::PageWalkHeavy,
        FuzzPattern::PhaseShift,
        FuzzPattern::WritebackStorm,
        FuzzPattern::Mixed,
        FuzzPattern::TierBoundary,
        FuzzPattern::ContextStorm,
        FuzzPattern::ShootdownStorm,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FuzzPattern::InstrThrash => "instr-thrash",
            FuzzPattern::PageWalkHeavy => "page-walk-heavy",
            FuzzPattern::PhaseShift => "phase-shift",
            FuzzPattern::WritebackStorm => "writeback-storm",
            FuzzPattern::Mixed => "mixed",
            FuzzPattern::TierBoundary => "tier-boundary",
            FuzzPattern::ContextStorm => "context-storm",
            FuzzPattern::ShootdownStorm => "shootdown-storm",
        }
    }
}

impl std::fmt::Display for FuzzPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One deterministic fuzz workload: `generate` expands it to a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzSpec {
    /// The access pattern to synthesize.
    pub pattern: FuzzPattern,
    /// Seed for every stochastic choice of the expansion.
    pub seed: u64,
    /// Number of instructions to produce.
    pub instructions: usize,
}

impl std::fmt::Display for FuzzSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/seed={:#x}/n={}",
            self.pattern, self.seed, self.instructions
        )
    }
}

/// Expands a spec into its instruction stream. Deterministic: equal specs
/// produce equal traces.
pub fn generate(spec: &FuzzSpec) -> Vec<TraceInst> {
    let mut rng = Rng64::new(spec.seed);
    let mut out = Vec::with_capacity(spec.instructions);
    emit(spec.pattern, &mut rng, spec.instructions, &mut out);
    out.truncate(spec.instructions);
    out
}

/// A family of specs cycling through every pattern, seeds forked from
/// `master_seed`.
pub fn corpus(master_seed: u64, traces: usize, instructions: usize) -> Vec<FuzzSpec> {
    let mut rng = Rng64::new(master_seed);
    let mut patterns = FuzzPattern::ALL.iter().copied().cycle();
    (0..traces)
        .map(|_| FuzzSpec {
            pattern: patterns.next().unwrap_or(FuzzPattern::Mixed),
            seed: rng.next_u64(),
            instructions,
        })
        .collect()
}

fn emit(pattern: FuzzPattern, rng: &mut Rng64, budget: usize, out: &mut Vec<TraceInst>) {
    match pattern {
        FuzzPattern::InstrThrash => instr_thrash(rng, budget, out),
        FuzzPattern::PageWalkHeavy => page_walk_heavy(rng, budget, out),
        FuzzPattern::PhaseShift => phase_shift(rng, budget, out),
        FuzzPattern::WritebackStorm => writeback_storm(rng, budget, out),
        FuzzPattern::Mixed => mixed(rng, budget, out),
        FuzzPattern::TierBoundary => tier_boundary(rng, budget, out),
        FuzzPattern::ContextStorm => context_storm(rng, budget, out),
        FuzzPattern::ShootdownStorm => shootdown_storm(rng, budget, out),
    }
}

/// A short straight-line run of instructions starting inside `page`,
/// optionally decorating some with a data reference drawn by `data_ref`.
fn run_in_page(
    rng: &mut Rng64,
    out: &mut Vec<TraceInst>,
    page_base: u64,
    mem_every: u64,
    mut data_ref: impl FnMut(&mut Rng64) -> MemRef,
) {
    let len = rng.range(4, 12);
    // Keep the run inside its page: offsets stay below PAGE - len * 4.
    let start = rng.below(PAGE / 4 - 16) * 4;
    let mut pc = page_base + start;
    for _ in 0..len {
        let mut inst = TraceInst::alu(pc);
        if mem_every > 0 && rng.below(mem_every) == 0 {
            inst.mem = Some(data_ref(rng));
        }
        out.push(inst);
        pc += 4;
    }
}

/// Code spread over 512 pages (8x the 64-entry ITLB, deep into the STLB),
/// visited in short runs with rare data traffic.
fn instr_thrash(rng: &mut Rng64, budget: usize, out: &mut Vec<TraceInst>) {
    const CODE_PAGES: u64 = 512;
    const DATA_PAGES: u64 = 8;
    while out.len() < budget {
        let page = CODE_BASE + rng.below(CODE_PAGES) * PAGE;
        run_in_page(rng, out, page, 8, |r| MemRef {
            addr: DATA_BASE + r.below(DATA_PAGES) * PAGE + r.below(PAGE / 8) * 8,
            store: r.chance(0.2),
        });
    }
}

/// Loads scattered over millions of pages spanning thousands of level-2
/// page-table regions: the PSCs thrash and most walks start near the
/// root. A slice of the traffic is far instruction pages, so instruction
/// walks run too.
fn page_walk_heavy(rng: &mut Rng64, budget: usize, out: &mut Vec<TraceInst>) {
    const SPARSE_PAGES: u64 = 1 << 22;
    const FAR_CODE_PAGES: u64 = 1 << 18;
    while out.len() < budget {
        let page = if rng.chance(0.1) {
            CODE_BASE + rng.below(FAR_CODE_PAGES) * PAGE
        } else {
            CODE_BASE + rng.below(4) * PAGE
        };
        run_in_page(rng, out, page, 2, |r| MemRef {
            addr: DATA_BASE + r.below(SPARSE_PAGES) * PAGE + r.below(PAGE / 8) * 8,
            store: r.chance(0.1),
        });
    }
}

/// Small, heavily reused working sets that migrate to disjoint address
/// ranges every phase, turning over every structure at once.
fn phase_shift(rng: &mut Rng64, budget: usize, out: &mut Vec<TraceInst>) {
    const PHASES: u64 = 6;
    const PHASE_STRIDE: u64 = 1 << 26;
    const CODE_PAGES: u64 = 24;
    const DATA_PAGES: u64 = 48;
    let per_phase = (budget / PHASES as usize).max(1);
    let mut phase = 0u64;
    while out.len() < budget {
        let phase_end = out.len() + per_phase;
        let code_base = CODE_BASE + phase * PHASE_STRIDE;
        let data_base = DATA_BASE + phase * PHASE_STRIDE;
        while out.len() < phase_end && out.len() < budget {
            let page = code_base + rng.below(CODE_PAGES) * PAGE;
            run_in_page(rng, out, page, 3, |r| MemRef {
                addr: data_base + r.below(DATA_PAGES) * PAGE + r.below(PAGE / 8) * 8,
                store: r.chance(0.3),
            });
        }
        phase += 1;
    }
}

/// Store-heavy cycling over more blocks than the whole chain holds:
/// every level keeps displacing dirty blocks, exercising writeback
/// emission, absorption, and DRAM routing.
fn writeback_storm(rng: &mut Rng64, budget: usize, out: &mut Vec<TraceInst>) {
    // 640 pages = 2.5 MiB of data: beyond the L1D, the L2C, and the LLC.
    const STORM_PAGES: u64 = 640;
    const CODE_PAGES: u64 = 6;
    let mut cursor = 0u64;
    while out.len() < budget {
        let page = CODE_BASE + rng.below(CODE_PAGES) * PAGE;
        run_in_page(rng, out, page, 1, |r| {
            // Mostly a sequential sweep (deterministic pressure), with a
            // random scatter component so sets fill unevenly.
            let p = if r.chance(0.75) {
                cursor = (cursor + 1) % (STORM_PAGES * (PAGE / 64));
                cursor / (PAGE / 64) * PAGE + cursor % (PAGE / 64) * 64
            } else {
                r.below(STORM_PAGES) * PAGE + r.below(PAGE / 64) * 64
            };
            MemRef {
                addr: DATA_BASE + p,
                store: r.chance(0.7),
            }
        });
    }
}

/// One phase shift pinned to the middle of the trace, straddled by dense
/// revisits: the first half warms a working set, the boundary jumps to a
/// disjoint range, and the second half keeps interleaving *both* ranges
/// so any state dropped or duplicated at the boundary shows up as a count
/// divergence immediately after the boundary.
fn tier_boundary(rng: &mut Rng64, budget: usize, out: &mut Vec<TraceInst>) {
    const CODE_PAGES: u64 = 32;
    const DATA_PAGES: u64 = 64;
    const SHIFT: u64 = 1 << 27;
    let boundary = budget / 2;
    // Pre-boundary: warm one working set densely.
    while out.len() < boundary {
        let page = CODE_BASE + rng.below(CODE_PAGES) * PAGE;
        run_in_page(rng, out, page, 2, |r| MemRef {
            addr: DATA_BASE + r.below(DATA_PAGES) * PAGE + r.below(PAGE / 8) * 8,
            store: r.chance(0.3),
        });
    }
    // Post-boundary: the shifted set dominates, but every few runs dips
    // back into the warmed set — the straddling reuse broken boundary
    // warming would get wrong.
    while out.len() < budget {
        let (code, data) = if rng.chance(0.7) {
            (CODE_BASE + SHIFT, DATA_BASE + SHIFT)
        } else {
            (CODE_BASE, DATA_BASE)
        };
        let page = code + rng.below(CODE_PAGES) * PAGE;
        run_in_page(rng, out, page, 2, |r| MemRef {
            addr: data + r.below(DATA_PAGES) * PAGE + r.below(PAGE / 8) * 8,
            store: r.chance(0.3),
        });
    }
}

/// A compact working set whose window slides forward every few hundred
/// instructions. With the difftest harness rotating ASIDs every few
/// dozen events, adjacent quanta share most — but not all — of their
/// pages: exactly the partial overlap where a tag-matching bug (hitting
/// another tenant's entry for the same VPN) would change counts.
fn context_storm(rng: &mut Rng64, budget: usize, out: &mut Vec<TraceInst>) {
    const CODE_PAGES: u64 = 20;
    const DATA_PAGES: u64 = 40;
    const DRIFT_EVERY: usize = 160;
    while out.len() < budget {
        let drift = (out.len() / DRIFT_EVERY) as u64 * 4;
        let page = CODE_BASE + (drift + rng.below(CODE_PAGES)) * PAGE;
        run_in_page(rng, out, page, 2, |r| MemRef {
            addr: DATA_BASE + (drift + r.below(DATA_PAGES)) * PAGE + r.below(PAGE / 8) * 8,
            store: r.chance(0.3),
        });
    }
}

/// A hot set small enough that almost every page stays TLB-resident, so
/// the shootdowns the difftest harness injects (targeting recently
/// accessed pages) reliably invalidate live entries and the revisit
/// traffic re-walks them immediately.
fn shootdown_storm(rng: &mut Rng64, budget: usize, out: &mut Vec<TraceInst>) {
    const CODE_PAGES: u64 = 12;
    const DATA_PAGES: u64 = 32;
    while out.len() < budget {
        let page = CODE_BASE + rng.below(CODE_PAGES) * PAGE;
        run_in_page(rng, out, page, 1, |r| MemRef {
            addr: DATA_BASE + r.below(DATA_PAGES) * PAGE + r.below(PAGE / 8) * 8,
            store: r.chance(0.25),
        });
    }
}

/// Bursts of every pattern back to back.
fn mixed(rng: &mut Rng64, budget: usize, out: &mut Vec<TraceInst>) {
    const BURST: usize = 96;
    let singles = [
        FuzzPattern::InstrThrash,
        FuzzPattern::PageWalkHeavy,
        FuzzPattern::PhaseShift,
        FuzzPattern::WritebackStorm,
    ];
    while out.len() < budget {
        let pick = rng.index(singles.len());
        let burst_end = (out.len() + BURST).min(budget);
        // `pick` is in range by construction of `index`.
        let pattern = singles[pick];
        emit(pattern, rng, burst_end, out);
        out.truncate(burst_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for pattern in FuzzPattern::ALL {
            let spec = FuzzSpec {
                pattern,
                seed: 0xfeed,
                instructions: 500,
            };
            assert_eq!(generate(&spec), generate(&spec), "{pattern}");
        }
    }

    #[test]
    fn generation_honors_length() {
        for pattern in FuzzPattern::ALL {
            let spec = FuzzSpec {
                pattern,
                seed: 1,
                instructions: 333,
            };
            assert_eq!(generate(&spec).len(), 333, "{pattern}");
        }
    }

    #[test]
    fn corpus_cycles_patterns_with_distinct_seeds() {
        let specs = corpus(7, 16, 100);
        assert_eq!(specs.len(), 16);
        assert_eq!(specs[0].pattern, FuzzPattern::InstrThrash);
        assert_eq!(specs[4].pattern, FuzzPattern::Mixed);
        assert_eq!(specs[5].pattern, FuzzPattern::TierBoundary);
        assert_eq!(specs[6].pattern, FuzzPattern::ContextStorm);
        assert_eq!(specs[7].pattern, FuzzPattern::ShootdownStorm);
        assert_eq!(specs[8].pattern, FuzzPattern::InstrThrash);
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16, "seeds must differ per trace");
    }

    #[test]
    fn tier_boundary_shifts_mid_trace_and_straddles() {
        let spec = FuzzSpec {
            pattern: FuzzPattern::TierBoundary,
            seed: 21,
            instructions: 4_000,
        };
        let trace = generate(&spec);
        let shifted = |pc: u64| pc >= CODE_BASE + (1 << 27);
        // First half never touches the shifted range...
        assert!(trace[..1800].iter().all(|i| !shifted(i.pc)));
        // ...the second half touches both ranges (straddling reuse).
        let post = &trace[2200..];
        assert!(post.iter().any(|i| shifted(i.pc)), "no shift happened");
        assert!(
            post.iter().any(|i| !shifted(i.pc)),
            "post-boundary traffic must dip back into the warmed set"
        );
    }

    #[test]
    fn instr_thrash_touches_many_code_pages() {
        let spec = FuzzSpec {
            pattern: FuzzPattern::InstrThrash,
            seed: 3,
            instructions: 4_000,
        };
        let trace = generate(&spec);
        let mut pages: Vec<u64> = trace.iter().map(|i| i.pc / PAGE).collect();
        pages.sort_unstable();
        pages.dedup();
        assert!(pages.len() > 128, "got {} code pages", pages.len());
    }

    #[test]
    fn writeback_storm_is_store_heavy() {
        let spec = FuzzSpec {
            pattern: FuzzPattern::WritebackStorm,
            seed: 9,
            instructions: 4_000,
        };
        let trace = generate(&spec);
        let mems = trace.iter().filter_map(|i| i.mem).count();
        let stores = trace
            .iter()
            .filter_map(|i| i.mem)
            .filter(|m| m.store)
            .count();
        assert!(mems > 500, "storm needs memory traffic, got {mems}");
        assert!(stores * 2 > mems, "stores must dominate: {stores}/{mems}");
    }

    #[test]
    fn context_storm_window_drifts_with_partial_overlap() {
        let spec = FuzzSpec {
            pattern: FuzzPattern::ContextStorm,
            seed: 5,
            instructions: 4_000,
        };
        let trace = generate(&spec);
        let pages = |slice: &[TraceInst]| -> Vec<u64> {
            let mut p: Vec<u64> = slice.iter().map(|i| i.pc / PAGE).collect();
            p.sort_unstable();
            p.dedup();
            p
        };
        let early = pages(&trace[..800]);
        let late = pages(&trace[3200..]);
        assert!(
            early.iter().all(|p| !late.contains(p)),
            "distant windows must have fully drifted apart"
        );
        // Adjacent windows still overlap: that partial reuse is the point.
        let a = pages(&trace[1600..1900]);
        let b = pages(&trace[1900..2200]);
        assert!(
            a.iter().any(|p| b.contains(p)),
            "adjacent windows must share pages — drift is gradual"
        );
    }

    #[test]
    fn shootdown_storm_stays_hot_and_memory_dense() {
        let spec = FuzzSpec {
            pattern: FuzzPattern::ShootdownStorm,
            seed: 13,
            instructions: 4_000,
        };
        let trace = generate(&spec);
        let mut pages: Vec<u64> = trace
            .iter()
            .filter_map(|i| i.mem)
            .map(|m| m.addr / PAGE)
            .collect();
        let mems = pages.len();
        pages.sort_unstable();
        pages.dedup();
        assert!(
            pages.len() <= 32,
            "hot set must stay small: {}",
            pages.len()
        );
        assert!(mems > 2_000, "storm needs dense data traffic, got {mems}");
    }

    #[test]
    fn page_walk_heavy_scatters_data_pages() {
        let spec = FuzzSpec {
            pattern: FuzzPattern::PageWalkHeavy,
            seed: 11,
            instructions: 4_000,
        };
        let trace = generate(&spec);
        let mut regions: Vec<u64> = trace
            .iter()
            .filter_map(|i| i.mem)
            .map(|m| m.addr >> 21)
            .collect();
        regions.sort_unstable();
        regions.dedup();
        assert!(
            regions.len() > 64,
            "need many level-2 regions, got {}",
            regions.len()
        );
    }
}
