//! The deterministic trace generator.
//!
//! Code is modeled as a set of functions packed into a contiguous code
//! region spanning `code_pages` 4 KiB pages. Execution runs through a
//! function's basic blocks (with biased conditional branches and bounded
//! loops) and transfers to the next function through a Zipf-skewed call
//! distribution over a *scrambled* function order — hot functions are
//! scattered across the code region, reproducing the poor code layout of
//! large server binaries that makes their ITLB/STLB behavior painful.
//!
//! Data references mix Zipf-skewed page reuse with sequential streaming.

use crate::profile::{Profile, WorkloadSpec, CODE_BASE, DATA_BASE, INSTS_PER_PAGE};

/// Instructions per ring function: short visits so the ring cycles through
/// its pages quickly enough for STLB-scale reuse.
const RING_FN_MIN: u64 = 16;
const RING_FN_MAX: u64 = 48;
use crate::record::{Branch, MemRef, TraceInst};
use itpx_types::Rng64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Samples ranks from a Zipf distribution via an explicit CDF.
///
/// A draw is the same 53-bit integer `m` behind [`Rng64::f64`]; the rank
/// is the number of CDF entries below `u = m / 2^53`. A power-of-two
/// *guide table* indexed by the top bits of `m` bounds that count before
/// any float is compared: `guide[b]` counts the entries below bucket
/// `b`'s lower edge, so every `u` in the bucket ranks inside
/// `guide[b]..=guide[b + 1]` and only that slice of the CDF is searched.
/// A draw searches at most `log2` of its bucket's entry count, and with a
/// bucket per 256 ranks that averages below 8 compares for any `n` (far
/// fewer for Zipf, whose head spreads over many near-empty buckets); the
/// rank equals a binary search over the whole CDF exactly.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// `guide[b]` = CDF entries below `b / 2^k`, for `b` in `0..=2^k`.
    guide: Vec<u32>,
    /// `53 - k`: shifts a 53-bit draw down to its bucket.
    shift: u32,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > u32::MAX`, or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        assert!(u32::try_from(n).is_ok(), "Zipf rank count must fit in u32");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self::from_cdf(cdf)
    }

    /// Wraps a non-decreasing CDF with its guide table: a bucket per 256
    /// ranks, rounded to a power of two, filled by one forward
    /// merge of the bucket edges against the CDF. Each edge gallops on
    /// from where the previous one stopped, so the dense tail of a Zipf
    /// CDF is crossed in logarithmic steps instead of entry by entry.
    fn from_cdf(cdf: Vec<f64>) -> Self {
        let bits = (cdf.len() / 256)
            .max(1)
            .next_power_of_two()
            .trailing_zeros();
        let shift = 53 - bits;
        let mut guide = Vec::with_capacity((1 << bits) + 1);
        let mut below = 0;
        for b in 0..=(1u64 << bits) {
            let edge = Rng64::unit_f64(b << shift);
            // below only ever counts entries of the CDF, so it is <= n
            let rest = &cdf[below..];
            let mut step = 1;
            while rest.get(step - 1).is_some_and(|&c| c < edge) {
                step *= 2;
            }
            // rest[..step / 2] lies below the edge and rest[step - 1], if
            // any, does not, so the count is in step / 2..=min(step, len)
            let (lo, hi) = (step / 2, step.min(rest.len()));
            below += lo + rest[lo..hi].partition_point(|&c| c < edge);
            // below <= n, which the caller checked fits in u32
            guide.push(below as u32);
        }
        Self { cdf, guide, shift }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always `false`: construction requires at least one rank.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n` (rank 0 is the most popular).
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        self.rank(rng.unit_bits())
    }

    /// The rank of the 53-bit draw `bits`: the number of CDF entries below
    /// `u = bits / 2^53`, clamped to the last rank.
    fn rank(&self, bits: u64) -> usize {
        let u = Rng64::unit_f64(bits);
        // bits < 2^53, so the bucket is at most 2^k - 1 and both guide
        // entries exist (the table holds 2^k + 1)
        let bucket = (bits >> self.shift) as usize;
        let lo = self.guide[bucket] as usize;
        // the guide is non-decreasing and bounded by n, so lo..hi is in range
        let hi = self.guide[bucket + 1] as usize;
        let rank = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        rank.min(self.cdf.len() - 1)
    }
}

#[derive(Debug, Clone, Copy)]
struct Function {
    start: u64,
    len: u32,
}

/// The immutable half of a generator: code and data layout plus the two
/// samplers, a pure function of `(seed, profile)`. Generators of one
/// spec — the live stream and every phase fork — share it.
#[derive(Debug)]
struct Layout {
    seed: u64,
    /// The packed functions in popularity-rank order: the scrambled
    /// permutation is applied once here, not on every draw.
    fn_by_rank: Vec<Function>,
    fn_zipf: ZipfSampler,
    data_zipf: ZipfSampler,
    data_perm: Vec<u32>,
    /// Code-ring functions (cyclic working set).
    ring: Vec<Function>,
}

/// What a layout and the RNG state after it are a function of: the seed
/// and every profile field, floats by their bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayoutKey([u64; 19]);

impl LayoutKey {
    fn of(spec: &WorkloadSpec) -> Self {
        // Destructured in full, so a new profile field cannot be left out.
        let Profile {
            code_pages,
            fn_len_min,
            fn_len_max,
            code_zipf_s,
            ring_ratio,
            ring_pages,
            loop_prob,
            data_pages,
            data_zipf_s,
            load_ratio,
            store_ratio,
            stream_ratio,
            stream_blocks,
            hot_ratio,
            hot_blocks,
            transit_ratio,
            transit_pages,
            long_latency_ratio,
        } = spec.profile;
        let n = |v: usize| v as u64;
        Self([
            spec.seed,
            n(code_pages),
            n(fn_len_min),
            n(fn_len_max),
            code_zipf_s.to_bits(),
            ring_ratio.to_bits(),
            n(ring_pages),
            loop_prob.to_bits(),
            n(data_pages),
            data_zipf_s.to_bits(),
            load_ratio.to_bits(),
            store_ratio.to_bits(),
            stream_ratio.to_bits(),
            n(stream_blocks),
            hot_ratio.to_bits(),
            n(hot_blocks),
            transit_ratio.to_bits(),
            n(transit_pages),
            long_latency_ratio.to_bits(),
        ])
    }
}

/// Layouts the process keeps after the runs that built them end: one.
/// A campaign runs a workload's presets back to back (workload-major),
/// so one entry serves them all; with two host threads the newest key
/// is the one both are working through. Two entries would also serve
/// SMT pairs, but on `campaign-serve` they raised peak RSS by 16% and
/// gained less `sim_ips` than one.
///
/// A prefetch does not count against this: it has a slot of its own
/// (see [`TraceGenerator::prefetch`]), so callers that never prefetch
/// keep one layout, and a prefetch never evicts a layout a generator
/// has taken.
const LAYOUT_MEMO_CAPACITY: usize = 1;

/// A built layout and the execution RNG state right after its draws.
type BuiltLayout = (Arc<Layout>, Rng64);

/// A memo entry: built at most once, by whoever reaches it first.
type LayoutCell = Arc<OnceLock<BuiltLayout>>;

/// A bounded memo of built layouts, plus one slot for a layout built
/// ahead of the generator that will take it.
///
/// A miss evicts before it builds, so the memo never holds more than
/// [`LAYOUT_MEMO_CAPACITY`] taken layouts and one prefetched layout
/// beyond the ones running generators hold. The lock only guards the
/// entry lists: a build runs outside it, in the entry's `OnceLock`, so
/// different keys build in parallel and a second caller of an in-flight
/// key waits for that build instead of repeating it.
#[derive(Debug)]
struct LayoutMemo {
    entries: Mutex<MemoEntries>,
    /// Layouts this memo built.
    builds: AtomicU64,
    /// `get`s that took a prefetched layout.
    prefetch_hits: AtomicU64,
}

#[derive(Debug)]
struct MemoEntries {
    /// Layouts generators have taken, most recently used last.
    taken: Vec<(LayoutKey, LayoutCell)>,
    /// A prefetched layout no generator has taken yet.
    prefetched: Option<(LayoutKey, LayoutCell)>,
}

/// The process-wide memo behind [`TraceGenerator::new`].
static LAYOUTS: LayoutMemo = LayoutMemo::new();

impl LayoutMemo {
    const fn new() -> Self {
        Self {
            entries: Mutex::new(MemoEntries {
                taken: Vec::new(),
                prefetched: None,
            }),
            builds: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, MemoEntries> {
        // Every update leaves a valid memo, so a poisoned lock is safe to
        // recover.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `spec`'s layout and post-layout RNG, built at most once while its
    /// entry lives. A prefetched layout moves to the taken list.
    fn get(&self, spec: &WorkloadSpec) -> BuiltLayout {
        let key = LayoutKey::of(spec);
        let cell = {
            let mut entries = self.lock();
            let cell = match entries.taken.iter().position(|(k, _)| *k == key) {
                Some(i) => entries.taken.remove(i).1,
                None => {
                    if entries.taken.len() == LAYOUT_MEMO_CAPACITY {
                        entries.taken.remove(0);
                    }
                    match entries.prefetched.take_if(|(k, _)| *k == key) {
                        Some((_, cell)) => {
                            self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                            cell
                        }
                        None => Arc::new(OnceLock::new()),
                    }
                }
            };
            entries.taken.push((key, Arc::clone(&cell)));
            cell
        };
        let (layout, rng) = self.build(&cell, spec);
        (Arc::clone(layout), rng.clone())
    }

    /// Builds `spec`'s layout into the prefetch slot, unless the memo
    /// already holds it or the slot holds a layout not yet taken.
    fn prefetch(&self, spec: &WorkloadSpec) -> Option<PrefetchedLayout<'_>> {
        let key = LayoutKey::of(spec);
        let cell = {
            let mut entries = self.lock();
            if entries.prefetched.is_some() || entries.taken.iter().any(|(k, _)| *k == key) {
                return None;
            }
            let cell: LayoutCell = Arc::new(OnceLock::new());
            entries.prefetched = Some((key, Arc::clone(&cell)));
            cell
        };
        self.build(&cell, spec);
        Some(PrefetchedLayout { memo: self, cell })
    }

    fn build<'c>(&self, cell: &'c LayoutCell, spec: &WorkloadSpec) -> &'c BuiltLayout {
        cell.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            TraceGenerator::build_layout(spec)
        })
    }
}

/// A layout [`TraceGenerator::prefetch`] built. Dropping it withdraws
/// the layout from the prefetch slot if no generator has taken it, so a
/// prefetch whose run never came does not block the next one.
#[derive(Debug)]
#[must_use = "dropping the handle withdraws a layout no generator took"]
pub struct PrefetchedLayout<'m> {
    memo: &'m LayoutMemo,
    cell: LayoutCell,
}

impl Drop for PrefetchedLayout<'_> {
    fn drop(&mut self) {
        let mut entries = self.memo.lock();
        entries
            .prefetched
            .take_if(|(_, cell)| Arc::ptr_eq(cell, &self.cell));
    }
}

/// Deterministic instruction-stream generator for one workload.
///
/// Implements [`Iterator`] over [`TraceInst`]; the stream is infinite, so
/// callers take as many instructions as they need. Cloning is cheap: the
/// layout tables are shared, only the execution state is copied.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    layout: Arc<Layout>,
    profile: Profile,
    rng: Rng64,
    ring_pos: usize,
    // Execution state.
    cur: Function,
    idx: u32,
    block_end: u32,
    loop_budget: u8,
    stream_addr: u64,
    hot_addr: u64,
    produced: u64,
}

impl TraceGenerator {
    /// Builds the generator for a workload spec.
    ///
    /// The layout comes from a small process-wide memo, so the presets
    /// of one workload run back to back build it once; the generator is
    /// the one a fresh build returns either way.
    pub fn new(spec: &WorkloadSpec) -> Self {
        spec.profile.validate();
        let (layout, rng) = LAYOUTS.get(spec);
        Self::start(layout, spec.profile, rng)
    }

    /// Builds `spec`'s layout on the calling thread into the memo's
    /// prefetch slot, so the next [`TraceGenerator::new`] for `spec`
    /// takes it (or waits for it, while it is still building) instead of
    /// building it. A thread that would otherwise idle calls this ahead
    /// of the run that needs the layout.
    ///
    /// Returns `None`, building nothing, when the memo already holds
    /// `spec`'s layout or the slot holds a layout no generator has taken
    /// yet: a prefetch never evicts a layout a run still needs. Panics
    /// on an invalid profile, like [`TraceGenerator::new`].
    pub fn prefetch(spec: &WorkloadSpec) -> Option<PrefetchedLayout<'static>> {
        spec.profile.validate();
        LAYOUTS.prefetch(spec)
    }

    /// Layouts the process-wide memo has built so far.
    pub fn layouts_built() -> u64 {
        LAYOUTS.builds.load(Ordering::Relaxed)
    }

    /// Generators so far that took a prefetched layout.
    pub fn layout_prefetch_hits() -> u64 {
        LAYOUTS.prefetch_hits.load(Ordering::Relaxed)
    }

    /// Builds `spec`'s layout afresh, with the execution RNG in the state
    /// the layout draws leave it in.
    fn build_layout(spec: &WorkloadSpec) -> BuiltLayout {
        let p = spec.profile;
        let mut rng = Rng64::new(spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x17b7);
        // Pack functions into the code region until `code_pages` are used.
        let total_insts = p.code_pages * INSTS_PER_PAGE;
        let mut functions = Vec::new();
        let mut cursor = 0usize;
        while cursor < total_insts {
            let len = rng.range(p.fn_len_min as u64, p.fn_len_max as u64) as usize;
            let len = len.min(total_insts - cursor).max(4);
            functions.push(Function {
                start: CODE_BASE + (cursor as u64) * 4,
                len: len as u32,
            });
            cursor += len;
        }
        let n = functions.len();
        shuffle(&mut functions, &mut rng);
        let mut data_perm: Vec<u32> = (0..p.data_pages as u32).collect();
        shuffle(&mut data_perm, &mut rng);
        let fn_zipf = ZipfSampler::new(n, p.code_zipf_s);
        let data_zipf = ZipfSampler::new(p.data_pages, p.data_zipf_s);
        // The code ring: one short function at the top of each of its
        // pages, so every ring visit touches the next page and the ring
        // cycles its whole footprint at STLB-relevant timescales.
        let ring_base = CODE_BASE + (p.code_pages as u64) * 4096 + (64 << 12);
        let ring = (0..p.ring_pages)
            .map(|i| Function {
                start: ring_base + (i as u64) * 4096,
                len: rng.range(RING_FN_MIN, RING_FN_MAX) as u32,
            })
            .collect();
        let layout = Layout {
            seed: spec.seed,
            fn_by_rank: functions,
            fn_zipf,
            data_zipf,
            data_perm,
            ring,
        };
        (Arc::new(layout), rng)
    }

    /// A generator at the start of `layout`'s stream, drawing execution
    /// randomness from `rng`.
    fn start(layout: Arc<Layout>, p: Profile, rng: Rng64) -> Self {
        let cur = layout.fn_by_rank[0];
        let start_stream = DATA_BASE + (p.data_pages as u64) * 4096;
        Self {
            layout,
            profile: p,
            cur,
            ring_pos: 0,
            idx: 0,
            block_end: 0,
            loop_budget: 0,
            stream_addr: start_stream,
            hot_addr: start_stream + (p.stream_blocks as u64) * 64 + (64 << 12),
            produced: 0,
            rng,
        }
    }

    /// A generator over this generator's code/data layout (the shared
    /// function packing, permutations, ring, and address bands), started
    /// afresh with its execution-phase randomness re-seeded by `salt`.
    /// The fork depends only on the layout and `salt`, not on how far
    /// `self` has run.
    ///
    /// The tiered engine uses this as the fast-forward's warm stream: the synthetic source is stationary, so a phase fork is a
    /// distribution-faithful projection of the stream's future over the
    /// exact same virtual address space — without advancing (or paying
    /// for) the real stream the measurement windows consume.
    pub fn phase_fork(&self, salt: u64) -> Self {
        let rng = Rng64::new(
            self.layout.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ 0x7153_7f0c_ca5e_17b7u64.wrapping_add(salt.wrapping_mul(0xd134_2543_de82_ef95)),
        );
        Self::start(Arc::clone(&self.layout), self.profile, rng)
    }

    /// Picks the next function at a transfer: the cyclic code ring with
    /// probability `ring_ratio`, otherwise a Zipf-sampled scattered one.
    fn pick_function(&mut self) -> Function {
        let layout = &*self.layout;
        if !layout.ring.is_empty() && self.rng.chance(self.profile.ring_ratio) {
            let f = layout.ring[self.ring_pos];
            self.ring_pos = (self.ring_pos + 1) % layout.ring.len();
            f
        } else {
            let rank = layout.fn_zipf.sample(&mut self.rng);
            layout.fn_by_rank[rank]
        }
    }

    fn data_address(&mut self) -> u64 {
        let roll = self.rng.f64();
        if roll < self.profile.transit_ratio {
            // Transit band: a VPN-contiguous region above the streaming
            // region, touched uniformly — persistent STLB misses whose
            // leaf PTE blocks have L2C-scale reuse.
            let span = (self.profile.data_pages as u64 / 4 + 2) * 4096;
            let base = DATA_BASE + (self.profile.data_pages as u64) * 4096 + span;
            let page = self.rng.below(self.profile.transit_pages as u64);
            // Touch only the first block of a transit page: the band
            // exists to generate page-walk traffic, and its payload
            // working set (one block per page) stays cache-friendly.
            return base + page * 4096 + self.rng.below(8) * 8;
        }
        let hot_lo = self.profile.transit_ratio + self.profile.stream_ratio;
        if roll >= hot_lo && roll < hot_lo + self.profile.hot_ratio {
            // L2C-marginal circular buffer.
            self.hot_addr += 64;
            let base = DATA_BASE
                + (self.profile.data_pages as u64) * 4096
                + (self.profile.stream_blocks as u64) * 64
                + (64 << 12);
            let span = (self.profile.hot_blocks as u64) * 64;
            if self.hot_addr >= base + span {
                self.hot_addr = base;
            }
            return self.hot_addr;
        }
        if roll < self.profile.transit_ratio + self.profile.stream_ratio {
            self.stream_addr += 64;
            // Circular buffer: a block-level working set sized between
            // the L2C and the LLC (see Profile::stream_blocks).
            let span = (self.profile.stream_blocks as u64) * 64;
            let base = DATA_BASE + (self.profile.data_pages as u64) * 4096;
            if self.stream_addr >= base + span {
                self.stream_addr = base;
            }
            self.stream_addr
        } else {
            let rank = self.layout.data_zipf.sample(&mut self.rng);
            let page = self.layout.data_perm[rank] as u64;
            // A handful of blocks per page keeps the block-level working
            // set above the page-level one (caches feel more pressure
            // than TLBs) without drowning the backend in DRAM latency.
            DATA_BASE + page * 4096 + (self.rng.below(32) * 8)
        }
    }

    fn new_block(&mut self) {
        let f = self.cur;
        let remaining = f.len - self.idx;
        let block = self.rng.range(4, 12).min(remaining as u64) as u32;
        self.block_end = self.idx + block;
        self.loop_budget = self.rng.below(4) as u8;
    }

    /// Per-site branch bias derived from the branch PC, so outcomes are
    /// learnable by a history-based predictor.
    fn branch_bias(pc: u64) -> f64 {
        match (pc >> 2) & 3 {
            0 => 0.95,
            1 => 0.85,
            2 => 0.5,
            _ => 0.08,
        }
    }
}

/// Fisher–Yates shuffle in place. Shuffling `0..n` gives a permutation
/// `perm`; the same draws shuffle any `v` into `v[perm[i]]` at `i`.
fn shuffle<T>(v: &mut [T], rng: &mut Rng64) {
    for i in (1..v.len()).rev() {
        let j = rng.index(i + 1);
        v.swap(i, j);
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        let f = self.cur;
        if self.idx >= f.len {
            // Shouldn't happen (transfer handled below), but recover.
            self.idx = 0;
        }
        if self.block_end <= self.idx {
            self.new_block();
        }
        let pc = f.start + (self.idx as u64) * 4;
        let p = self.profile;

        // Memory operand.
        let roll = self.rng.f64();
        let mem = if roll < p.load_ratio {
            Some(MemRef {
                addr: self.data_address(),
                store: false,
            })
        } else if roll < p.load_ratio + p.store_ratio {
            Some(MemRef {
                addr: self.data_address(),
                store: true,
            })
        } else {
            None
        };

        // Dependencies and latency. Producers are mostly nearby ALU
        // results; long-latency loads are consumed at a spread of
        // distances, so an out-of-order window hides part (not all) of
        // their latency — the asymmetry against front-end stalls that
        // the paper's Finding 2 rests on.
        let src1_dist = if self.rng.chance(0.5) {
            1 + self.rng.below(8) as u8
        } else {
            0
        };
        let src2_dist = if self.rng.chance(0.15) {
            1 + self.rng.below(48) as u8
        } else {
            0
        };
        let exec_latency = if self.rng.chance(p.long_latency_ratio) {
            2 + self.rng.below(4) as u8
        } else {
            1
        };

        // Control flow.
        let at_fn_end = self.idx + 1 >= f.len;
        let at_block_end = self.idx + 1 >= self.block_end;
        let branch = if at_fn_end {
            // Unconditional transfer to the next function (ring or Zipf).
            let next = self.pick_function();
            let target = next.start;
            self.cur = next;
            self.idx = 0;
            self.block_end = 0;
            Some(Branch {
                taken: true,
                target,
            })
        } else if at_block_end {
            let bias = Self::branch_bias(pc);
            let mut taken = self.rng.chance(bias);
            let backward = self.loop_budget > 0 && self.rng.chance(p.loop_prob);
            let target = if backward {
                self.loop_budget -= 1;
                // Loop back a few instructions (stay in the function).
                let back = self.rng.range(2, 8).min(self.idx as u64);
                pc - back * 4
            } else {
                // Short forward skip within the function; the target must
                // stay at or before the final instruction (index len - 1).
                let max_fwd = (f.len - self.idx).saturating_sub(2) as u64;
                if max_fwd == 0 {
                    taken = false;
                    pc + 4
                } else {
                    let fwd = self.rng.range(1, 4).min(max_fwd);
                    pc + (fwd + 1) * 4
                }
            };
            if taken {
                self.idx = ((target - f.start) / 4) as u32;
                self.block_end = 0;
            } else {
                self.idx += 1;
            }
            Some(Branch { taken, target })
        } else {
            self.idx += 1;
            None
        };

        self.produced += 1;
        Some(TraceInst {
            pc,
            exec_latency,
            src1_dist,
            src2_dist,
            mem,
            branch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn gen(seed: u64) -> TraceGenerator {
        TraceGenerator::new(&WorkloadSpec::server_like(seed))
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = Rng64::new(1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[100] && counts[0] > counts[999]);
        assert!(counts[0] > 500, "rank 0 should dominate: {}", counts[0]);
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = Rng64::new(2);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700));
    }

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<TraceInst> = gen(3).take(5000).collect();
        let b: Vec<TraceInst> = gen(3).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<TraceInst> = gen(3).take(100).collect();
        let b: Vec<TraceInst> = gen(4).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn control_flow_is_consistent() {
        let mut g = gen(5);
        let mut prev: Option<TraceInst> = None;
        for inst in (&mut g).take(20_000) {
            if let Some(p) = prev {
                assert_eq!(inst.pc, p.next_pc(), "pc chain broken after {:x?}", p);
            }
            prev = Some(inst);
        }
    }

    #[test]
    fn server_touches_many_code_pages() {
        let pages: HashSet<u64> = gen(6).take(200_000).map(|i| i.pc >> 12).collect();
        assert!(pages.len() > 300, "only {} code pages touched", pages.len());
    }

    #[test]
    fn spec_code_stays_tiny() {
        let g = TraceGenerator::new(&WorkloadSpec::spec_like(1));
        let pages: HashSet<u64> = g.take(100_000).map(|i| i.pc >> 12).collect();
        assert!(pages.len() <= 12, "{} pages", pages.len());
    }

    #[test]
    fn memory_mix_matches_profile() {
        let spec = WorkloadSpec::server_like(7);
        let insts: Vec<TraceInst> = TraceGenerator::new(&spec).take(100_000).collect();
        let loads = insts
            .iter()
            .filter(|i| matches!(i.mem, Some(m) if !m.store))
            .count() as f64;
        let stores = insts
            .iter()
            .filter(|i| matches!(i.mem, Some(m) if m.store))
            .count() as f64;
        let n = insts.len() as f64;
        assert!((loads / n - spec.profile.load_ratio).abs() < 0.02);
        assert!((stores / n - spec.profile.store_ratio).abs() < 0.02);
    }

    #[test]
    fn data_addresses_stay_in_data_region() {
        for inst in gen(8).take(50_000) {
            if let Some(m) = inst.mem {
                assert!(m.addr >= DATA_BASE);
                assert_eq!(m.addr % 8, 0, "8-byte aligned");
            }
        }
    }

    #[test]
    fn phase_fork_same_layout_different_sequence() {
        let spec = WorkloadSpec::server_like(3);
        let live = TraceGenerator::new(&spec);
        let base: Vec<TraceInst> = live.clone().take(20_000).collect();
        let fork: Vec<TraceInst> = live.phase_fork(1).take(20_000).collect();
        assert_ne!(base, fork, "phase fork must explore a different path");
        // Same address space: every forked pc and data page lies in the
        // set of pages the base layout can produce (code region + ring).
        let base_pages: HashSet<u64> = base.iter().map(|i| i.pc >> 12).collect();
        let fork_pages: HashSet<u64> = fork.iter().map(|i| i.pc >> 12).collect();
        let overlap = fork_pages.intersection(&base_pages).count();
        assert!(
            overlap * 2 > fork_pages.len(),
            "layouts diverged: {overlap}/{} shared code pages",
            fork_pages.len()
        );
        // Deterministic per salt.
        let again: Vec<TraceInst> = live.phase_fork(1).take(20_000).collect();
        assert_eq!(fork, again);
        let other: Vec<TraceInst> = live.phase_fork(2).take(20_000).collect();
        assert_ne!(fork, other);
    }

    /// A generator over a layout built afresh, bypassing the memo.
    fn fresh(spec: &WorkloadSpec) -> TraceGenerator {
        let (layout, rng) = TraceGenerator::build_layout(spec);
        TraceGenerator::start(layout, spec.profile, rng)
    }

    /// Reference fork that shares nothing: a freshly built generator for
    /// `spec` with its execution RNG re-seeded by `salt`.
    fn rebuilt_fork(spec: &WorkloadSpec, salt: u64) -> TraceGenerator {
        let mut g = fresh(spec);
        g.rng = Rng64::new(
            spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ 0x7153_7f0c_ca5e_17b7u64.wrapping_add(salt.wrapping_mul(0xd134_2543_de82_ef95)),
        );
        g
    }

    #[test]
    fn shared_layout_forks_match_rebuilt_forks() {
        let base = [WorkloadSpec::server_like(11), WorkloadSpec::spec_like(12)];
        let specs = base.iter().flat_map(|s| (0..3).map(move |t| s.tenant(t)));
        for spec in specs {
            let mut live = TraceGenerator::new(&spec);
            // How far the live stream has run must not matter to a fork.
            live.by_ref().take(1_000).for_each(drop);
            for salt in [0, 1, 7, u64::MAX] {
                let fork = live.phase_fork(salt);
                assert!(
                    Arc::ptr_eq(&fork.layout, &live.layout),
                    "fork copied the layout"
                );
                let got: Vec<TraceInst> = fork.take(20_000).collect();
                let want: Vec<TraceInst> = rebuilt_fork(&spec, salt).take(20_000).collect();
                assert_eq!(got, want, "{} salt {salt}", spec.name);
            }
        }
    }

    /// The specs the memo tests cover: server- and SPEC-like specs and
    /// the canonical server profile's tenants 0-3.
    fn memo_specs() -> Vec<WorkloadSpec> {
        let mut canonical = WorkloadSpec::server_like(21);
        canonical.profile = Profile::server();
        let mut specs = vec![WorkloadSpec::server_like(19), WorkloadSpec::spec_like(20)];
        specs.extend((0..4).map(|t| canonical.tenant(t)));
        specs
    }

    fn first(g: TraceGenerator) -> Vec<TraceInst> {
        g.take(20_000).collect()
    }

    #[test]
    fn memo_hits_stream_like_fresh_builds() {
        for spec in memo_specs() {
            // The second call is a hit unless a concurrent test evicted
            // the entry; either way the stream must be the fresh one.
            for _ in 0..2 {
                let got = TraceGenerator::new(&spec);
                let want = fresh(&spec);
                for salt in [0, 1, u64::MAX] {
                    assert_eq!(
                        first(got.phase_fork(salt)),
                        first(want.phase_fork(salt)),
                        "{} salt {salt}",
                        spec.name
                    );
                }
                assert_eq!(first(got), first(want), "{}", spec.name);
            }
        }
    }

    #[test]
    fn memo_hit_shares_the_cached_layout() {
        let memo = LayoutMemo::new();
        for spec in memo_specs() {
            let (layout, rng) = memo.get(&spec);
            let (again, again_rng) = memo.get(&spec);
            assert!(Arc::ptr_eq(&layout, &again), "{} rebuilt", spec.name);
            assert_eq!(rng, again_rng, "{}", spec.name);
            let hit = TraceGenerator::start(again, spec.profile, again_rng);
            assert_eq!(first(hit), first(fresh(&spec)), "{}", spec.name);
        }
    }

    #[test]
    fn memo_rebuilds_after_capacity_distinct_specs() {
        let memo = LayoutMemo::new();
        let specs = memo_specs();
        let (layout, _) = memo.get(&specs[0]);
        for spec in &specs[1..=LAYOUT_MEMO_CAPACITY] {
            memo.get(spec);
        }
        let (again, _) = memo.get(&specs[0]);
        assert!(!Arc::ptr_eq(&layout, &again), "first spec was not evicted");
        // A memo that never prefetches holds one layout, however many
        // distinct specs went through it.
        for spec in &specs {
            memo.get(spec);
        }
        let entries = memo.lock();
        assert_eq!(entries.taken.len(), LAYOUT_MEMO_CAPACITY);
        assert!(entries.prefetched.is_none());
    }

    /// Whether the memo's prefetch slot is empty.
    fn slot_is_empty(memo: &LayoutMemo) -> bool {
        memo.lock().prefetched.is_none()
    }

    #[test]
    fn a_prefetch_between_two_gets_of_a_builds_each_layout_once() {
        let memo = LayoutMemo::new();
        let specs = memo_specs();
        let (a, b) = (&specs[0], &specs[1]);
        let (first_a, _) = memo.get(a);
        let prefetched = memo.prefetch(b).expect("slot was empty");
        let (again_a, _) = memo.get(a);
        assert!(Arc::ptr_eq(&first_a, &again_a), "the prefetch evicted a");
        let (got_b, _) = memo.get(b);
        let built_b = &prefetched.cell.get().expect("prefetch built b").0;
        assert!(Arc::ptr_eq(&got_b, built_b), "b was rebuilt");
        assert_eq!(memo.builds.load(Ordering::Relaxed), 2);
        assert_eq!(memo.prefetch_hits.load(Ordering::Relaxed), 1);
        // Taken: dropping the handle leaves b to the memo.
        drop(prefetched);
        let (b_again, _) = memo.get(b);
        assert!(Arc::ptr_eq(&got_b, &b_again));
        assert_eq!(memo.builds.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_prefetch_never_displaces_a_layout_not_yet_taken() {
        let memo = LayoutMemo::new();
        let specs = memo_specs();
        let (a, b) = (&specs[0], &specs[1]);
        let prefetched_a = memo.prefetch(a).expect("slot was empty");
        assert!(memo.prefetch(b).is_none(), "b displaced the untaken a");
        assert!(memo.prefetch(a).is_none(), "a prefetched twice");
        let (got_a, _) = memo.get(a);
        let built_a = &prefetched_a.cell.get().expect("prefetch built a").0;
        assert!(Arc::ptr_eq(&got_a, built_a), "a was rebuilt");
        assert_eq!(memo.builds.load(Ordering::Relaxed), 1);
        // A taken layout is not prefetched again; the slot is free for b.
        assert!(memo.prefetch(a).is_none());
        assert!(slot_is_empty(&memo));
        let prefetched_b = memo.prefetch(b).expect("slot was free");
        assert_eq!(memo.builds.load(Ordering::Relaxed), 2);
        // b's run never came: dropping the handle withdraws it.
        drop(prefetched_b);
        assert!(slot_is_empty(&memo));
        drop(prefetched_a);
        assert_eq!(memo.lock().taken.len(), LAYOUT_MEMO_CAPACITY);
    }

    #[test]
    fn a_prefetched_generator_streams_like_a_fresh_build() {
        let memo = LayoutMemo::new();
        for spec in memo_specs() {
            let prefetched = memo.prefetch(&spec).expect("slot was free");
            let (layout, rng) = memo.get(&spec);
            drop(prefetched);
            let hit = TraceGenerator::start(layout, spec.profile, rng);
            for salt in [0, 1, u64::MAX] {
                assert_eq!(
                    first(hit.phase_fork(salt)),
                    first(fresh(&spec).phase_fork(salt)),
                    "{} salt {salt}",
                    spec.name
                );
            }
            assert_eq!(first(hit), first(fresh(&spec)), "{}", spec.name);
        }
        let n = memo_specs().len() as u64;
        assert_eq!(memo.prefetch_hits.load(Ordering::Relaxed), n);
        assert_eq!(memo.builds.load(Ordering::Relaxed), n);
    }

    #[test]
    fn memo_key_is_bitwise() {
        let spec = WorkloadSpec::server_like(22);
        let mut other = spec.clone();
        other.profile.loop_prob = f64::from_bits(spec.profile.loop_prob.to_bits() + 1);
        assert_ne!(LayoutKey::of(&spec), LayoutKey::of(&other));
        // Name and run lengths are not part of the layout.
        let renamed = WorkloadSpec {
            name: "other".into(),
            ..spec.clone().instructions(7).warmup(3)
        };
        assert_eq!(LayoutKey::of(&spec), LayoutKey::of(&renamed));
    }

    /// Two threads asking for one key at once get one build: the second
    /// waits on the first. CI also runs this pinned to one CPU, where the
    /// builder and the waiter share a core.
    #[test]
    fn memo_two_threads_share_one_build() {
        let memo = LayoutMemo::new();
        let spec = memo_specs().swap_remove(2);
        let barrier = std::sync::Barrier::new(2);
        let got: Vec<BuiltLayout> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        memo.get(&spec)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(Arc::ptr_eq(&got[0].0, &got[1].0), "built twice");
        let streams: Vec<Vec<TraceInst>> = got
            .into_iter()
            .map(|(layout, rng)| first(TraceGenerator::start(layout, spec.profile, rng)))
            .collect();
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[0], first(fresh(&spec)));
    }

    /// The rank a full binary search over the CDF returns.
    fn reference_rank(z: &ZipfSampler, bits: u64) -> usize {
        let u = Rng64::unit_f64(bits);
        z.cdf.partition_point(|&c| c < u).min(z.cdf.len() - 1)
    }

    #[test]
    fn guide_table_ranks_equal_full_binary_search() {
        const DRAWS: u64 = 1_000_000;
        for n in [1, 2, 3, 1000, 24_576, 30_755] {
            for s in [0.0, 0.9, 1.25, 1.6] {
                let z = ZipfSampler::new(n, s);
                let mut rng = Rng64::new(n as u64 ^ s.to_bits());
                for _ in 0..DRAWS {
                    let bits = rng.unit_bits();
                    assert_eq!(z.rank(bits), reference_rank(&z, bits), "n={n} s={s}");
                }
                // Every bucket edge, one draw either side of it, and the
                // draws around each CDF entry.
                let last = (1u64 << 53) - 1;
                let edges = (0..=1u64 << (53 - z.shift)).map(|b| b << z.shift);
                let entries = z.cdf.iter().map(|&c| (c * (1u64 << 53) as f64) as u64);
                for centre in edges.chain(entries) {
                    for bits in [centre.saturating_sub(1), centre, centre + 1] {
                        let bits = bits.min(last);
                        assert_eq!(z.rank(bits), reference_rank(&z, bits), "n={n} s={s}");
                    }
                }
            }
        }
    }

    #[test]
    fn draws_above_the_last_cdf_entry_clamp_to_the_last_rank() {
        // A CDF that stops short of 1 (the normalized Zipf CDF ends at
        // exactly 1, so only a hand-built one reaches the clamp).
        let z = ZipfSampler::from_cdf(vec![0.25, 0.5, 0.5, 0.75]);
        for u in [0.75, 0.8, 0.999] {
            let bits = (u * (1u64 << 53) as f64) as u64;
            assert_eq!(z.rank(bits), 3);
            assert_eq!(z.rank(bits), reference_rank(&z, bits));
        }
        assert_eq!(z.rank((1 << 53) - 1), 3);
        assert_eq!(
            z.rank(1 << 52),
            1,
            "u = 0.5 ranks at the first of two tied entries"
        );
    }

    #[test]
    fn branches_exist_and_loop_backwards_sometimes() {
        let insts: Vec<TraceInst> = gen(9).take(50_000).collect();
        let branches = insts.iter().filter(|i| i.branch.is_some()).count();
        assert!(branches > 2000, "branches: {branches}");
        let backward = insts
            .iter()
            .filter(|i| matches!(i.branch, Some(b) if b.taken && b.target < i.pc))
            .count();
        assert!(backward > 50, "backward taken: {backward}");
    }
}
