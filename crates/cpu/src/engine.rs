//! The timing engine: a timestamp-dataflow out-of-order core.
//!
//! Instead of stepping every pipeline stage every cycle, each dynamic
//! instruction is assigned the cycle at which each of its lifecycle events
//! completes (fetch → dispatch → ready → complete → retire), with
//! structural limits enforced along the way:
//!
//! * **front end** — fetch groups of `fetch_width` instructions per cycle
//!   from one cache block; crossing into a new block performs ITLB
//!   translation and an L1I access. Pipelining hides hit latencies; only
//!   the *excess* latency of misses stalls fetch, and the excess caused by
//!   instruction-translation misses is accounted separately (the paper's
//!   Figure 1 metric). FDIP prefetches upcoming FTQ blocks into the L1I.
//! * **back end** — ROB occupancy bounds in-flight instructions (the slot
//!   of instruction *i* frees when instruction *i − ROB* retires);
//!   register dependencies come from the trace; loads translate through
//!   DTLB/STLB and access the hierarchy at their ready time, so their
//!   latency overlaps with independent work — the out-of-order latency
//!   hiding that makes data translation cheaper than instruction
//!   translation, as the paper observes.
//! * **branches** — a hashed perceptron predicts directions; a
//!   misprediction redirects fetch after the branch resolves.
//! * **SMT** — two threads interleave fetch cycles (each thread gets every
//!   other fetch slot), split the ROB, and share every TLB/cache/walker
//!   structure; the engine advances whichever thread is earliest in
//!   simulated time.

use crate::branch::HashedPerceptron;
use crate::config::FDIP_MAX_DEPTH;
use crate::output::{LevelReport, SimulationOutput, ThreadOutput, WalkerSummary};
use crate::system::System;
use itpx_trace::{
    ContextSchedule, InstructionStream, Supply, SupplyStream, SwitchPolicy, TierSchedule,
    TraceGenerator, TraceInst, WorkloadSource, WorkloadSpec,
};
use itpx_types::{Asid, Cycle, LevelId, PageSize, ThreadId, TranslationKind, VirtAddr};
use std::collections::VecDeque;

/// Ring size for dependency tracking (dep distances are `u8`).
const DEP_RING: usize = 256;

/// Cap on the warm tail of a fast-forward segment.
///
/// A fast-forward of N instructions splits into a *free skip* of
/// `N - min(N, FF_WARM_CAP)` (the phase fork re-seeds the generator, so
/// skipped instructions cost nothing) and a *warm tail* that drives the
/// machine's own TLBs, PSCs, caches and branch predictor through their
/// untimed warm paths. 250k instructions is far past the warm-state
/// half-life of every Table 1 structure, so a longer tail changes
/// nothing but wall-clock.
const FF_WARM_CAP: u64 = 250_000;

/// One segment of a tiered run (the engine's execution-tier abstraction).
///
/// A run is a schedule of segments: [`Tier::FastForward`] advances
/// program state through the warm paths of the machine's own structures
/// (no timing, no statistics; plus the free skip beyond
/// `FF_WARM_CAP`), and [`Tier::Window`] measures cycle-accurately.
/// [`Tier::segments`] lowers a [`TierSchedule`] into this form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Fast-forward covering `instructions` program instructions, with
    /// a settle step at its end.
    FastForward {
        /// Program instructions the segment covers.
        instructions: u64,
    },
    /// Cycle-accurate measurement window of `instructions` instructions.
    Window {
        /// Instructions measured by the segment.
        instructions: u64,
    },
}

impl Tier {
    /// Lowers a schedule into its segment sequence: `windows` repetitions
    /// of (fast-forward, window), fast-forwards omitted when the gap is
    /// zero. The flat schedule lowers to no segments: the engine's final
    /// run to each thread's target then measures the whole run.
    pub fn segments(schedule: &TierSchedule) -> Vec<Tier> {
        let mut out = Vec::new();
        if schedule.is_flat() {
            return out;
        }
        for _ in 0..schedule.windows {
            if schedule.fast_forward > 0 {
                out.push(Tier::FastForward {
                    instructions: schedule.fast_forward,
                });
            }
            out.push(Tier::Window {
                instructions: schedule.window,
            });
        }
        out
    }
}

/// Live state of a multi-tenant [`ContextSchedule`].
///
/// The schedule clock counts *executed program instructions* across both
/// execution tiers (cycle windows and warm fast-forwards advance it
/// identically), so switches, shootdowns, and churn fire at the same
/// program points no matter how a run is tiered. Cadence events
/// (shootdown/churn) target the data VA of the instruction they fire on —
/// well-defined in both tiers and guaranteed to hit live translations.
struct ContextState {
    schedule: ContextSchedule,
    /// Unmounted tenant streams (`None` = currently mounted on the pipe).
    streams: Vec<Option<SupplyStream>>,
    /// Tenant currently executing.
    current: usize,
    /// Executed program instructions, both tiers.
    clock: u64,
    next_switch: u64,
    next_shootdown: u64,
    next_churn: u64,
}

impl std::fmt::Debug for ContextState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextState")
            .field("schedule", &self.schedule)
            .field("current", &self.current)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl ContextState {
    /// Whether a switch boundary has been reached.
    fn switch_due(&self) -> bool {
        self.clock >= self.next_switch
    }

    /// Advances to the next tenant round-robin: parks the pipe's
    /// instruction stream, puts the incoming tenant's in its place, and
    /// flushes the front-end lookahead (the FTQ holds the outgoing
    /// tenant's speculative path — a context switch discards it). The
    /// incoming stream stays parked until the caller mounts it. Returns
    /// the incoming tenant's ASID; the caller applies the
    /// tier-appropriate TLB/PSC effects, flushing the incoming tenant's
    /// cached translations when the returned flag is set.
    fn rotate(&mut self, pipe: &mut ThreadPipe) -> (Asid, bool) {
        self.next_switch += self.schedule.quantum;
        let next = (self.current + 1) % self.streams.len();
        // next < streams.len() by the modulo, and every slot except the
        // executing tenant's holds Some by the mount/unmount discipline.
        let incoming = self.streams[next].take().expect("unmounted tenant stream");
        let mut outgoing = std::mem::replace(&mut pipe.stream, incoming);
        outgoing.mount(0);
        self.streams[self.current] = Some(outgoing);
        self.current = next;
        pipe.lookahead.clear();
        pipe.cur_block = u64::MAX;
        pipe.group_count = 0;
        let flush = self.schedule.policy == SwitchPolicy::FlushAsid;
        // itpx-allow: arith-width streams.len() == schedule.tenants, a u16, so the index fits
        (Asid(next as u16), flush)
    }

    /// The executing tenant's ASID.
    fn asid(&self) -> Asid {
        // itpx-allow: arith-width current indexes streams, whose length is the u16 tenant count
        Asid(self.current as u16)
    }

    /// Program instructions left before the next switch.
    fn to_switch(&self) -> u64 {
        self.next_switch.saturating_sub(self.clock)
    }

    /// Whether the shootdown cadence fires at the current clock (consumes
    /// the event when it does).
    fn shootdown_due(&mut self) -> bool {
        if self.schedule.shootdown_every > 0 && self.clock >= self.next_shootdown {
            self.next_shootdown += self.schedule.shootdown_every;
            true
        } else {
            false
        }
    }

    /// Whether the churn cadence fires at the current clock (consumes the
    /// event when it does).
    fn churn_due(&mut self) -> bool {
        if self.schedule.churn_every > 0 && self.clock >= self.next_churn {
            self.next_churn += self.schedule.churn_every;
            true
        } else {
            false
        }
    }

    /// Advances the clock across a free skip of `skip` instructions.
    /// Cadence events are executed-instruction driven, so skipped spans
    /// advance their counters without firing (documented limit); switch
    /// boundaries still count — the caller rotates once per crossing.
    fn skip(&mut self, skip: u64) -> u64 {
        self.clock += skip;
        let crossings = self
            .clock
            .saturating_sub(self.next_switch)
            .checked_div(self.schedule.quantum)
            .map_or(0, |full| full + u64::from(self.clock >= self.next_switch));
        for (every, next) in [
            (self.schedule.shootdown_every, &mut self.next_shootdown),
            (self.schedule.churn_every, &mut self.next_churn),
        ] {
            if every > 0 && *next <= self.clock {
                *next += (self.clock - *next) / every * every + every;
            }
        }
        crossings
    }
}

#[derive(Debug)]
struct ThreadPipe {
    id: ThreadId,
    name: String,
    /// The synthetic spec behind `stream` (`None` for trace replays,
    /// which cannot be tiered).
    spec: Option<WorkloadSpec>,
    /// One unstarted generator per tenant of `spec` (empty for replays).
    /// Tenant streams start as clones and fast-forward segments
    /// phase-fork them, so each tenant's layout is built once per run.
    origins: Vec<TraceGenerator>,
    /// The instruction supply, generated ahead on the run's supply
    /// thread while mounted.
    stream: SupplyStream,
    lookahead: VecDeque<TraceInst>,
    bp: HashedPerceptron,
    va_offset: u64,
    // Front-end state.
    frontend_time: Cycle,
    cur_block: u64,
    group_count: usize,
    recent_pf: [u64; 64],
    // Back-end state.
    completions: Vec<Cycle>,
    retire_ring: Vec<Cycle>,
    rob_size: usize,
    last_retire: Cycle,
    retire_cycle: Cycle,
    retired_this_cycle: usize,
    produced: u64,
    /// Where the current `run_until` stops stepping this thread.
    until: u64,
    /// New-block fetches left to run without FDIP after a misprediction
    /// (the prefetcher was off on the wrong path).
    fdip_suppress: u8,
    // Measurement.
    warmup: u64,
    target: u64,
    meas_start_cycle: Cycle,
    itrans_stall: u64,
    mispredicts: u64,
}

impl ThreadPipe {
    fn new(
        source: WorkloadSource,
        supply: &Supply,
        id: ThreadId,
        rob_size: usize,
        ftq_entries: usize,
    ) -> Self {
        let name = source.name().to_string();
        let warmup = source.warmup();
        let (spec, origins) = match &source {
            WorkloadSource::Synthetic(s) => {
                // The flat schedule has zero tenants and runs one stream.
                let origins = (0..s.contexts.tenants.max(1))
                    .map(|t| TraceGenerator::new(&s.tenant(t)))
                    .collect();
                (Some(s.clone()), origins)
            }
            WorkloadSource::Replay { .. } => (None, Vec::new()),
        };
        // A tiered schedule defines the measured instruction count itself
        // (windows × window); the flat schedule measures `instructions`.
        let tiers = spec.as_ref().map_or_else(TierSchedule::flat, |s| s.tiers);
        let measured = if tiers.is_flat() {
            source.instructions()
        } else {
            tiers.measured_instructions()
        };
        let target = warmup.checked_add(measured).unwrap_or_else(|| {
            panic!("{name}: warmup {warmup} + {measured} measured instructions overflows u64")
        });
        // Without context switches the pipe steps exactly `target` times
        // and keeps `ftq_entries` instructions looked ahead, which bounds
        // its draws; a switch discards the lookahead, so tenants have no
        // bound.
        let limit = match &spec {
            Some(s) if !s.contexts.is_flat() => u64::MAX,
            _ => target.saturating_add(ftq_entries as u64),
        };
        let stream = match origins.first() {
            Some(g) => Box::new(g.clone()),
            None => source.into_stream(),
        };
        Self {
            id,
            name,
            stream: supply.register(stream, limit),
            spec,
            origins,
            lookahead: VecDeque::new(),
            bp: HashedPerceptron::new(),
            va_offset: (id.0 as u64) << 44,
            frontend_time: 0,
            cur_block: u64::MAX,
            group_count: 0,
            recent_pf: [u64::MAX; 64],
            fdip_suppress: 0,
            completions: vec![0; DEP_RING],
            retire_ring: vec![0; rob_size],
            rob_size,
            last_retire: 0,
            retire_cycle: 0,
            retired_this_cycle: 0,
            produced: 0,
            until: 0,
            warmup,
            target,
            meas_start_cycle: 0,
            itrans_stall: 0,
            mispredicts: 0,
        }
    }

    fn tiers(&self) -> TierSchedule {
        self.spec
            .as_ref()
            .map_or_else(TierSchedule::flat, |s| s.tiers)
    }

    /// Mounts the pipe's stream for the steps it can take before it is
    /// next parked: up to `until`, or to the next context switch,
    /// `to_switch` steps away. Each step tops the lookahead up to `ftq`
    /// and pops one, so `k > 0` steps draw `ftq - lookahead + k - 1`.
    fn mount(&mut self, to_switch: u64, ftq: usize) {
        let steps = self.until.saturating_sub(self.produced).min(to_switch);
        let draws = match steps {
            0 => 0,
            k => ftq.saturating_sub(self.lookahead.len()) as u64 + k - 1,
        };
        self.stream.mount(draws);
    }

    /// The per-thread half of a measurement boundary: zero the measured
    /// counters and pin the measurement clock to the retire frontier.
    /// Pipeline state (FTQ, predictor, recency of everything) is kept.
    fn reset_stats(&mut self) {
        self.meas_start_cycle = self.last_retire;
        self.itrans_stall = 0;
        self.mispredicts = 0;
    }
}

/// The multi-thread simulation engine.
#[derive(Debug)]
pub struct Engine {
    system: System,
    threads: Vec<ThreadPipe>,
    /// Multi-tenant schedule state (`None` = classic single-tenant run).
    ctx: Option<ContextState>,
    /// The run's one instruction-supply thread: every stream the engine
    /// draws is registered with it.
    supply: Supply,
}

impl Engine {
    /// Creates an engine running `specs` (one per hardware thread, 1 or 2)
    /// on `system`.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or has more than two entries.
    pub fn new(system: System, specs: &[WorkloadSpec]) -> Self {
        Self::from_sources(
            system,
            specs.iter().cloned().map(WorkloadSource::from).collect(),
        )
    }

    /// Creates an engine from arbitrary instruction sources (synthetic
    /// generators or recorded-trace replays).
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or has more than two entries, or if
    /// a two-thread run gives any thread a tiered or multi-tenant
    /// schedule.
    pub fn from_sources(system: System, sources: Vec<WorkloadSource>) -> Self {
        assert!(
            (1..=2).contains(&sources.len()),
            "1 or 2 hardware threads supported"
        );
        assert!(
            sources.len() == 1
                || sources.iter().all(|s| match s {
                    WorkloadSource::Synthetic(w) => w.tiers.is_flat() && w.contexts.is_flat(),
                    WorkloadSource::Replay { .. } => true,
                }),
            "tiered and multi-tenant schedules support a single hardware thread"
        );
        let rob_per_thread = system.config.rob_entries / sources.len();
        let ftq = system.config.ftq_entries;
        let supply = Supply::new();
        let threads: Vec<ThreadPipe> = sources
            .into_iter()
            .enumerate()
            .map(|(i, s)| ThreadPipe::new(s, &supply, ThreadId(i as u8), rob_per_thread, ftq))
            .collect();
        let mut system = system;
        let contexts = threads[0]
            .spec
            .as_ref()
            .map_or_else(ContextSchedule::flat, |s| s.contexts);
        let ctx = if contexts.is_flat() {
            None
        } else {
            system.configure_address_spaces(
                contexts.tenants as usize,
                contexts.global_fraction,
                contexts.global_seed,
            );
            // Tenant 0's stream is the pipe's own; slots hold the rest.
            let streams = threads[0]
                .origins
                .iter()
                .enumerate()
                .map(|(t, g)| (t > 0).then(|| supply.register(Box::new(g.clone()), u64::MAX)))
                .collect();
            Some(ContextState {
                schedule: contexts,
                streams,
                current: 0,
                clock: 0,
                next_switch: contexts.quantum,
                next_shootdown: contexts.shootdown_every,
                next_churn: contexts.churn_every,
            })
        };
        Self {
            system,
            threads,
            ctx,
            supply,
        }
    }

    /// Executes one instruction on thread `ti`.
    fn step(&mut self, ti: usize, smt_active: bool) {
        // A due context switch lands before the instruction: rotate the
        // tenant streams and apply the switch to the cycle structures.
        let cfg = self.system.config;
        if let Some(ctx) = self.ctx.as_mut() {
            if ctx.switch_due() {
                let (asid, flush) = ctx.rotate(&mut self.threads[ti]);
                self.system.context_switch(asid, flush);
                self.threads[ti].mount(ctx.to_switch(), cfg.ftq_entries);
            }
        }
        let sys = &mut self.system;
        let t = &mut self.threads[ti];
        let mut ctx = self.ctx.as_mut();

        // Keep the FTQ lookahead full.
        while t.lookahead.len() < cfg.ftq_entries {
            let next = t.stream.next_inst();
            // itpx-allow: hot-alloc ring bounded by ftq_entries; the deque's capacity stabilizes after the first refill
            t.lookahead.push_back(next);
        }
        // the refill loop above guarantees ftq_entries >= 1 elements
        let inst = t.lookahead.pop_front().expect("non-empty lookahead");
        let pc = inst.pc + t.va_offset;

        // ---- Fetch ----
        let quantum: u64 = if smt_active { 2 } else { 1 };
        let block = pc >> 6;
        if block != t.cur_block {
            t.cur_block = block;
            t.group_count = 1;
            t.frontend_time += quantum;
            let tr = sys.translate(
                VirtAddr::new(pc),
                TranslationKind::Instruction,
                pc,
                t.id,
                t.frontend_time,
            );
            // Stall attributable to instruction address translation: the
            // excess beyond a pipelined ITLB hit.
            let tstall = tr.done.saturating_sub(t.frontend_time + cfg.itlb.latency);
            t.itrans_stall += tstall;
            let fdone = sys.hierarchy.instr_fetch(tr.pa, pc, t.id, tr.done);
            let fstall = fdone.saturating_sub(tr.done + cfg.hierarchy.l1i.latency);
            t.frontend_time += tstall + fstall;

            // FDIP: prefetch upcoming distinct blocks along the FTQ —
            // unless a recent misprediction means the prefetcher was
            // running down the wrong path.
            if t.fdip_suppress > 0 {
                t.fdip_suppress -= 1;
            } else {
                let mut seen = block;
                let mut depth = 0usize;
                let mut nominations: [u64; FDIP_MAX_DEPTH] = [u64::MAX; FDIP_MAX_DEPTH];
                for la in t.lookahead.iter() {
                    if depth >= cfg.fdip_depth {
                        break;
                    }
                    let b = (la.pc + t.va_offset) >> 6;
                    if b != seen {
                        seen = b;
                        let slot = (b as usize) & 63;
                        if t.recent_pf[slot] != b {
                            t.recent_pf[slot] = b;
                            // depth < fdip_depth <= FDIP_MAX_DEPTH (validated)
                            nominations[depth] = b;
                        }
                        depth += 1;
                    }
                }
                for &b in nominations.iter().filter(|&&b| b != u64::MAX) {
                    let pa = sys.fdip_target(VirtAddr::new(b << 6), t.id);
                    sys.hierarchy.prefetch_instr(pa, t.id, t.frontend_time);
                }
            }
        } else {
            t.group_count += 1;
            if t.group_count > cfg.fetch_width {
                t.frontend_time += quantum;
                t.group_count = 1;
            }
        }
        let fetch_done = t.frontend_time;

        // ---- Dispatch: ROB slot of instruction (produced - rob_size). ----
        let rob_idx = (t.produced % t.rob_size as u64) as usize;
        let dispatch = fetch_done.max(t.retire_ring[rob_idx]);

        // ---- Ready: register dependencies. ----
        let mut ready = dispatch;
        for d in [inst.src1_dist, inst.src2_dist] {
            let d = d as u64;
            if d > 0 && d <= t.produced {
                // % DEP_RING keeps the index inside the ring
                ready = ready.max(t.completions[((t.produced - d) % DEP_RING as u64) as usize]);
            }
        }

        // ---- Execute. ----
        let completion = if let Some(m) = inst.mem {
            let va = VirtAddr::new(m.addr + t.va_offset);
            // Due cadence events target this instruction's VA *before* it
            // translates, so the access itself exercises the refill.
            if let Some(c) = ctx.as_deref_mut() {
                if c.shootdown_due() {
                    sys.shootdown(va, c.asid());
                }
                if c.churn_due() {
                    sys.churn_region(t.id, va.vpn(PageSize::Huge2M).0);
                }
            }
            let tr = sys.translate(va, TranslationKind::Data, pc, t.id, ready);
            let mdone = sys
                .hierarchy
                .data_access(tr.pa, pc, t.id, m.store, tr.stlb_miss, tr.done);
            if m.store {
                // Stores complete into the store buffer; the cache access
                // has already updated state and timing downstream.
                ready + 1
            } else {
                mdone
            }
        } else {
            ready + inst.exec_latency.max(1) as u64
        };

        // ---- Branch resolution. ----
        if let Some(b) = inst.branch {
            let correct = t.bp.update(pc, b.taken);
            if !correct {
                t.mispredicts += 1;
                t.frontend_time = t.frontend_time.max(completion + cfg.mispredict_penalty);
                t.cur_block = u64::MAX;
                t.group_count = 0;
                t.fdip_suppress = 2;
            }
        }

        // ---- In-order retire with bandwidth. ----
        let mut retire = completion.max(t.last_retire);
        if retire == t.retire_cycle {
            if t.retired_this_cycle >= cfg.retire_width {
                retire += 1;
                t.retire_cycle = retire;
                t.retired_this_cycle = 1;
            } else {
                t.retired_this_cycle += 1;
            }
        } else {
            t.retire_cycle = retire;
            t.retired_this_cycle = 1;
        }
        t.last_retire = retire;
        t.retire_ring[rob_idx] = retire;
        // % DEP_RING keeps the index inside the ring
        t.completions[(t.produced % DEP_RING as u64) as usize] = completion;
        t.produced += 1;
        if let Some(c) = ctx {
            c.clock += 1;
        }
        sys.on_retire(1);
    }

    /// The warmup → measurement boundary: statistics reset everywhere,
    /// warm contents kept. The machine's half iterates its own
    /// structures (see [`System::reset_stats`]); each thread resets its
    /// own counters and measurement clock.
    fn measurement_boundary(&mut self) {
        self.system.reset_stats();
        for t in &mut self.threads {
            t.reset_stats();
        }
    }

    /// Runs one fast-forward segment on thread `ti`, covering
    /// `instructions` program instructions.
    ///
    /// The warm stream is a *phase fork* of the thread's spec (same
    /// layout tables, execution RNG re-seeded by `salt`), so the real
    /// stream is not advanced and measurement windows stay contiguous —
    /// the fast-forward models "elsewhere in the same program phase".
    /// Everything beyond the last [`FF_WARM_CAP`] instructions is a free
    /// skip; the warm tail drives the machine's own TLBs, PSCs, caches
    /// and branch predictor through their warm paths
    /// ([`System::warm_fetch`], [`System::warm_data`],
    /// [`HashedPerceptron::train`]), so every replacement policy keeps
    /// the state it builds. No simulated time passes and no statistics
    /// accrue; [`System::settle`] at the segment edge leaves no in-flight
    /// work for the next window.
    fn fast_forward(&mut self, ti: usize, salt: u64, instructions: u64) {
        let warm = instructions.min(FF_WARM_CAP);
        let va_offset = self.threads[ti].va_offset;
        let tid = self.threads[ti].id;
        // One phase-forked warm stream per tenant (a single one when the
        // run is single-tenant): the schedule keeps firing through the
        // fast-forward so both tiers see switches at the same program
        // points. Forks share their tenant's layout, are registered with
        // the supply when their tenant first runs, and are mounted only
        // while it runs; none is drawn more than the warm tail.
        let mut forks: Vec<Option<SupplyStream>> =
            self.threads[ti].origins.iter().map(|_| None).collect();
        let mut mounted = None;
        // The free skip advances the schedule clock too: switch
        // boundaries crossed inside it still rotate tenants (and flush,
        // per policy); cadence events are executed-instruction driven, so
        // they re-arm without firing.
        if let Some(ctx) = self.ctx.as_mut() {
            let crossings = ctx.skip(instructions - warm);
            for _ in 0..crossings {
                let (asid, flush) = ctx.rotate(&mut self.threads[ti]);
                self.system.context_switch(asid, flush);
            }
        }
        let mut cur_block = u64::MAX;
        for done in 0..warm {
            if let Some(ctx) = self.ctx.as_mut() {
                if ctx.switch_due() {
                    let (asid, flush) = ctx.rotate(&mut self.threads[ti]);
                    self.system.context_switch(asid, flush);
                    cur_block = u64::MAX;
                }
            }
            let tenant = self.ctx.as_ref().map_or(0, |c| c.current);
            if mounted != Some(tenant) {
                if let Some(fork) = mounted.and_then(|t| forks[t].as_mut()) {
                    fork.mount(0);
                }
                // A fork draws one instruction per step until the tail
                // ends or its tenant is switched out.
                let left = warm - done;
                let draws = self.ctx.as_ref().map_or(left, |c| left.min(c.to_switch()));
                let origin = &self.threads[ti].origins[tenant];
                forks[tenant]
                    .get_or_insert_with(|| {
                        self.supply
                            .register(Box::new(origin.phase_fork(salt)), warm)
                    })
                    .mount(draws);
                mounted = Some(tenant);
            }
            // The block above registered and mounted this tenant's fork.
            let inst = forks[tenant].as_mut().expect("mounted fork").next_inst();
            let pc = inst.pc + va_offset;
            let block = pc >> 6;
            if block != cur_block {
                cur_block = block;
                self.system.warm_fetch(VirtAddr::new(pc), tid);
            }
            if let Some(m) = inst.mem {
                let va = VirtAddr::new(m.addr + va_offset);
                // Cadence events mirror the cycle tier: target the VA of
                // the instruction they fire on, before it translates.
                if let Some(ctx) = self.ctx.as_mut() {
                    if ctx.shootdown_due() {
                        self.system.shootdown(va, ctx.asid());
                    }
                    if ctx.churn_due() {
                        self.system.churn_region(tid, va.vpn(PageSize::Huge2M).0);
                    }
                }
                self.system.warm_data(va, pc, tid, m.store);
            }
            if let Some(b) = inst.branch {
                self.threads[ti].bp.train(pc, b.taken);
            }
            if let Some(ctx) = self.ctx.as_mut() {
                ctx.clock += 1;
            }
        }
        self.system.settle();
    }

    /// Steps the unfinished thread earliest in simulated time until every
    /// thread has produced `until(thread)` instructions. Each thread's
    /// stream is mounted for the stretch and parked after it.
    fn run_until(&mut self, until: impl Fn(&ThreadPipe) -> u64) {
        let smt = self.threads.len() == 2;
        let to_switch = self.ctx.as_ref().map_or(u64::MAX, ContextState::to_switch);
        let ftq = self.system.config.ftq_entries;
        for t in &mut self.threads {
            t.until = until(t);
            t.mount(to_switch, ftq);
        }
        while let Some(i) = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.produced < t.until)
            .min_by_key(|(_, t)| t.frontend_time)
            .map(|(i, _)| i)
        {
            self.step(i, smt);
        }
        for t in &mut self.threads {
            t.stream.mount(0);
        }
    }

    /// Runs warmup and measurement, returning the collected results.
    ///
    /// Warmup, every tiered window and the final run to each thread's
    /// target go through one stepping loop, `run_until`. A flat schedule
    /// has no segments, so the final run measures all of it; after a
    /// tiered schedule's last window it has nothing left to do.
    /// Fast-forwards consume no simulated time and no statistics, so the
    /// measured counters aggregate exactly the stepped instructions.
    ///
    /// Consumes the engine, so the supply thread is joined before this
    /// returns.
    pub fn run(mut self, preset: &str, llc_policy: &str) -> SimulationOutput {
        let schedule = self.execute();
        let threads = self
            .threads
            .iter()
            .map(|t| ThreadOutput {
                workload: t.name.clone(),
                instructions: t.target - t.warmup,
                // A thread is never stepped past its target, so its last
                // retirement is where its measurement ended.
                cycles: t.last_retire.saturating_sub(t.meas_start_cycle).max(1),
                itrans_stall_cycles: t.itrans_stall,
                mispredictions: t.mispredicts,
            })
            .collect();

        let sys = &self.system;
        SimulationOutput {
            preset: preset.to_string(),
            llc_policy: llc_policy.to_string(),
            threads,
            tiers: schedule,
            itlb: sys.itlb().stats().clone(),
            dtlb: sys.dtlb().stats().clone(),
            stlb: sys.stlb().stats(),
            l1i: sys.hierarchy.stats_of(LevelId::L1I),
            l1d: sys.hierarchy.stats_of(LevelId::L1D),
            l2c: sys.hierarchy.stats_of(LevelId::L2C),
            llc: sys.hierarchy.stats_of(LevelId::Llc),
            cache_levels: sys
                .hierarchy
                .levels()
                .map(|(id, cache)| LevelReport {
                    id,
                    stats: cache.stats().clone(),
                })
                .collect(),
            walker: WalkerSummary {
                walks: sys.walker().walks(),
                instruction_walks: sys.walker().instruction_walks(),
                data_walks: sys.walker().data_walks(),
                avg_latency: sys.walker().avg_latency(),
                avg_memory_refs: sys.walker().avg_memory_refs(),
            },
            dram_reads: sys.hierarchy.dram().reads(),
            dram_writes: sys.hierarchy.dram().writes(),
            xptp_enabled_fraction: sys.xptp_enabled_fraction(),
        }
    }

    /// Runs warmup, the tier segments and the rest of the run; returns
    /// the tier schedule it followed.
    fn execute(&mut self) -> TierSchedule {
        self.run_until(|t| t.warmup);
        self.measurement_boundary();
        // `from_sources` admits non-flat schedules on one thread only.
        let schedule = self.threads[0].tiers();
        let mut salt = 0u64;
        for tier in Tier::segments(&schedule) {
            match tier {
                Tier::FastForward { instructions } => {
                    self.fast_forward(0, salt, instructions);
                    salt += 1;
                }
                Tier::Window { instructions } => {
                    let until = self.threads[0].produced + instructions;
                    self.run_until(|_| until);
                }
            }
        }
        self.run_until(|t| t.target);
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use itpx_core::presets::BuildConfig;
    use itpx_core::Preset;

    fn engine(specs: &[WorkloadSpec]) -> Engine {
        let cfg = SystemConfig::asplos25();
        let bundle = Preset::ItpXptp.build(&cfg.dims(), &BuildConfig::default());
        Engine::new(System::new(cfg, bundle, specs.len()), specs)
    }

    /// Every mount announces exactly the draws that follow it, so the
    /// supply never fills a stream past the point where it is parked:
    /// at a switch, a window end, the end of a warm tail or the run's end.
    #[test]
    fn parked_streams_hold_nothing_generated_ahead() {
        let tenants = |quantum| {
            ContextSchedule::round_robin(4, quantum, SwitchPolicy::FlushAsid).shootdowns(700)
        };
        let base = WorkloadSpec::server_like(5).warmup(3_000);
        let tiered = base.clone().tiers(TierSchedule::tiered(2_000, 20_000, 3));
        let runs = [
            ("flat", vec![base.clone().instructions(9_000)]),
            (
                "SMT",
                vec![
                    WorkloadSpec::server_like(1)
                        .warmup(2_000)
                        .instructions(6_000),
                    WorkloadSpec::spec_like(2).warmup(2_000).instructions(6_000),
                ],
            ),
            (
                "flat tenants",
                vec![base.clone().contexts(tenants(1_500)).instructions(9_000)],
            ),
            ("tiered", vec![tiered.clone()]),
            // Switches inside windows and warm tails, and (past the warm
            // cap) inside the free skip.
            ("tiered tenants", vec![tiered.contexts(tenants(1_500))]),
            (
                "tiered tenants with a skip",
                vec![base
                    .tiers(TierSchedule::tiered(1_000, FF_WARM_CAP + 7_000, 2))
                    .contexts(tenants(60_000))],
            ),
        ];
        for (what, specs) in runs {
            let mut e = engine(&specs);
            e.execute();
            assert_eq!(e.supply.parked_peak(), 0, "{what}");
        }
    }
}
