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
use crate::system::{Mmu, System, WarmRef};
use itpx_trace::{
    ContextSchedule, InstructionStream, SupplyStream, SwitchPolicy, TierSchedule, TraceGenerator,
    TraceInst, WorkloadSource, WorkloadSpec,
};
use itpx_types::{Asid, Cycle, LevelId, PageSize, ThreadId, TranslationKind, VirtAddr};
use itpx_vm::page_table::LEVELS;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};

/// Ring size for dependency tracking (dep distances are `u8`).
const DEP_RING: usize = 256;

/// Cap on the warm tail of a fast-forward segment.
///
/// A fast-forward of N instructions splits into a *free skip* of
/// `N - min(N, FF_WARM_CAP)` (the phase fork re-seeds the generator, so
/// skipped instructions cost nothing) and a *warm tail* that drives the
/// machine's own TLBs, PSCs, caches and branch predictor through their
/// untimed warm paths.
///
/// The cap bounds wall-clock; it does not make the tail long enough.
/// With 2M-instruction gaps on `server_like` 3 and 11, iTP+xPTP's IPC
/// uplift over LRU measured +7.9% to +11.3% at this cap against +14.2%
/// to +16.4% with every gap instruction warmed: the machine is still
/// warming when a window starts. ROADMAP's warm-state convergence item
/// is to choose the tail by measurement.
const FF_WARM_CAP: u64 = 250_000;

/// Events per chunk a fast-forward's producer stage hands over at once.
const WARM_CHUNK: usize = 2048;

/// Chunk buffers in a fast-forward's pool, which bounds how far the
/// producer runs ahead: 8 × 2048 events of 24 bytes, 384 KiB.
const WARM_CHUNKS: usize = 8;
const _: () = assert!(std::mem::size_of::<WarmEvent>() == 24);

/// The most events one warm instruction emits: a fetch and a data
/// access, each behind a walk of up to [`LEVELS`] PTE references, and a
/// branch.
const WARM_EVENTS_PER_INST: usize = 2 * (LEVELS as usize + 1) + 1;

/// Warm-stage producer threads started in this process, and those
/// still running.
static WARM_STARTED: AtomicU64 = AtomicU64::new(0);
static WARM_RUNNING: AtomicU64 = AtomicU64::new(0);

/// Times in this process a warm stage found no chunk waiting: the
/// consumer for a filled one, the producer for an empty one.
static WARM_CONSUMER_WAITS: AtomicU64 = AtomicU64::new(0);
static WARM_PRODUCER_WAITS: AtomicU64 = AtomicU64::new(0);

/// Chunk waits of the two warm stages, process-wide (see
/// [`Engine::warm_stalls`]). The stage that waits less sets the pace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStalls {
    /// Times the engine's thread found no filled chunk waiting.
    pub consumer: u64,
    /// Times a producer found no empty chunk waiting.
    pub producer: u64,
}

/// The next chunk from `rx`, counting a wait in `waits` when none is
/// there yet; `None` once the other stage is gone.
fn recv_chunk<T>(rx: &Receiver<T>, waits: &AtomicU64) -> Option<T> {
    match rx.try_recv() {
        Ok(chunk) => Some(chunk),
        Err(TryRecvError::Disconnected) => None,
        Err(TryRecvError::Empty) => {
            waits.fetch_add(1, Ordering::Relaxed);
            rx.recv().ok()
        }
    }
}

/// Counts a producer thread as running until it is dropped, unwinding
/// included.
struct WarmRunning;

impl Drop for WarmRunning {
    fn drop(&mut self) {
        WARM_RUNNING.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One event of a warm tail, in program order: what the producer stage
/// hands the consumer stage.
#[derive(Debug, Clone, Copy)]
enum WarmEvent {
    /// A reference into the cache hierarchy.
    Ref(WarmRef),
    /// A branch outcome for the thread's predictor.
    Branch { pc: u64, taken: bool },
}

/// The producer stage of a fast-forward: draws each tenant's phase
/// fork, applies the schedule (switches, shootdowns, churn) and runs the
/// translation half, turning the warm tail into an ordered stream of
/// [`WarmEvent`]s. Everything it touches is the translation half's or
/// the schedule's; the hierarchy and the predictor stay with the
/// consumer.
struct WarmProducer<'a> {
    mmu: &'a mut Mmu,
    ctx: Option<&'a mut ContextState>,
    /// The pipe's stream, whose source a switch swaps for the incoming
    /// tenant's.
    stream: &'a mut SupplyStream,
    origins: &'a [TraceGenerator],
    thread: ThreadId,
    va_offset: u64,
    salt: u64,
}

impl WarmProducer<'_> {
    /// Runs a free skip of `skip` instructions, then a warm tail of
    /// `warm`, filling chunks taken from `free` and sending each to
    /// `full` in order. Stops early if the consumer is gone. Returns
    /// whether the schedule switched tenants, and `free` for the
    /// consumer to take its buffers back.
    fn run(
        self,
        skip: u64,
        warm: u64,
        free: Receiver<Vec<WarmEvent>>,
        full: SyncSender<Vec<WarmEvent>>,
    ) -> (bool, Receiver<Vec<WarmEvent>>) {
        let Self {
            mmu,
            mut ctx,
            stream,
            origins,
            thread,
            va_offset,
            salt,
        } = self;
        let mut rotated = false;
        // The free skip advances the schedule clock too: switch
        // boundaries crossed inside it still rotate tenants (and flush,
        // per policy); cadence events are executed-instruction driven, so
        // they re-arm without firing.
        if let Some(ctx) = ctx.as_deref_mut() {
            for _ in 0..ctx.skip(skip) {
                let (asid, flush) = ctx.rotate(stream);
                mmu.context_switch(asid, flush);
                rotated = true;
            }
        }
        // One phase fork per tenant (a single one when the run is
        // single-tenant), drawn from when its tenant first runs: the
        // schedule keeps firing through the fast-forward, so both tiers
        // see switches at the same program points.
        let mut forks: Vec<Option<TraceGenerator>> = origins.iter().map(|_| None).collect();
        let Some(mut chunk) = recv_chunk(&free, &WARM_PRODUCER_WAITS) else {
            return (rotated, free);
        };
        let mut cur_block = u64::MAX;
        for _ in 0..warm {
            if chunk.len() + WARM_EVENTS_PER_INST > WARM_CHUNK {
                if full.send(chunk).is_err() {
                    return (rotated, free);
                }
                chunk = match recv_chunk(&free, &WARM_PRODUCER_WAITS) {
                    Some(next) => next,
                    None => return (rotated, free),
                };
            }
            if let Some(ctx) = ctx.as_deref_mut() {
                if ctx.switch_due() {
                    let (asid, flush) = ctx.rotate(stream);
                    mmu.context_switch(asid, flush);
                    rotated = true;
                    cur_block = u64::MAX;
                }
            }
            let tenant = ctx.as_ref().map_or(0, |c| c.current);
            let inst = forks[tenant]
                .get_or_insert_with(|| origins[tenant].phase_fork(salt))
                .next_inst();
            let pc = inst.pc + va_offset;
            let mut emit = |r| chunk.push(WarmEvent::Ref(r));
            let block = pc >> 6;
            if block != cur_block {
                cur_block = block;
                mmu.warm_fetch(VirtAddr::new(pc), thread, &mut emit);
            }
            if let Some(m) = inst.mem {
                let va = VirtAddr::new(m.addr + va_offset);
                // Cadence events mirror the cycle tier: target the VA of
                // the instruction they fire on, before it translates.
                if let Some(ctx) = ctx.as_deref_mut() {
                    if ctx.shootdown_due() {
                        mmu.shootdown(va, ctx.asid());
                    }
                    if ctx.churn_due() {
                        mmu.churn_region(thread, va.vpn(PageSize::Huge2M).0);
                    }
                }
                mmu.warm_data(va, pc, thread, m.store, &mut emit);
            }
            if let Some(b) = inst.branch {
                chunk.push(WarmEvent::Branch { pc, taken: b.taken });
            }
            if let Some(ctx) = ctx.as_deref_mut() {
                ctx.clock += 1;
            }
        }
        // A consumer that is gone has nothing left to apply.
        let _ = full.send(chunk);
        (rotated, free)
    }
}

/// One segment of a tiered run (the engine's execution-tier abstraction).
///
/// A run is a schedule of segments: [`Tier::FastForward`] advances
/// program state through the warm paths of the machine's own structures
/// (no timing, no statistics; plus the free skip beyond
/// `FF_WARM_CAP`), and [`Tier::Window`] measures cycle-accurately.
/// [`Tier::segments`] lowers a [`TierSchedule`] into this form.
///
/// Measured on a 2-vCPU x86-64 host with `tiered-tenants`-shaped runs
/// (four flushing tenants, 12 × (200k warm + 10k window), LRU and
/// iTP+xPTP; full runs timed against zero-gap runs, 10 interleaved
/// rounds): a warm-tail instruction costs a median 96 ns (83–101),
/// synthesis included, against 114 ns (87–158) before synthesis
/// decided its draws with integer thresholds and warm translation read
/// the page table only on a walk. A cycle-tier instruction costs about
/// 300–340 ns. Skipped instructions cost nothing.
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
#[derive(Debug)]
struct ContextState {
    schedule: ContextSchedule,
    /// The other tenants' sources, in the order they run next. The
    /// executing tenant's source is on the pipe's stream.
    parked: VecDeque<Box<dyn InstructionStream>>,
    /// Tenant currently executing.
    current: usize,
    /// Executed program instructions, both tiers.
    clock: u64,
    next_switch: u64,
    next_shootdown: u64,
    next_churn: u64,
}

impl ContextState {
    /// Whether a switch boundary has been reached.
    fn switch_due(&self) -> bool {
        self.clock >= self.next_switch
    }

    /// Advances to the next tenant round-robin: parks the pipe's
    /// instruction `stream` and swaps the incoming tenant's source onto
    /// it. The stream stays parked until the caller mounts it, and the
    /// caller discards the pipe's front-end state
    /// ([`ThreadPipe::discard_frontend`]). Returns the incoming tenant's
    /// ASID; the caller applies the tier-appropriate TLB/PSC effects,
    /// flushing the incoming tenant's cached translations when the
    /// returned flag is set.
    fn rotate(&mut self, stream: &mut SupplyStream) -> (Asid, bool) {
        self.next_switch += self.schedule.quantum;
        // A non-flat schedule has at least two tenants.
        let incoming = self.parked.pop_front().expect("a parked tenant");
        stream.mount(0);
        // itpx-allow: hot-alloc pop_front just freed a slot, so the deque never grows
        self.parked.push_back(stream.replace_source(incoming));
        self.current = (self.current + 1) % usize::from(self.schedule.tenants);
        let flush = self.schedule.policy == SwitchPolicy::FlushAsid;
        (self.asid(), flush)
    }

    /// The executing tenant's ASID.
    fn asid(&self) -> Asid {
        // itpx-allow: arith-width current is below the u16 tenant count
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
    /// The instruction supply, generated ahead on the pipe's own supply
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
    fn new(source: WorkloadSource, id: ThreadId, rob_size: usize, ftq_entries: usize) -> Self {
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
            stream: SupplyStream::new(stream, limit),
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

    /// A context switch's front-end half: the FTQ holds the outgoing
    /// tenant's speculative path, so the switch discards it.
    fn discard_frontend(&mut self) {
        self.lookahead.clear();
        self.cur_block = u64::MAX;
        self.group_count = 0;
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
    /// Chunk buffers of the fast-forward stages, kept across segments.
    // itpx-allow: nested-vec each buffer moves between the stages on its own, so they cannot share one grid
    warm_pool: Vec<Vec<WarmEvent>>,
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
        let threads: Vec<ThreadPipe> = sources
            .into_iter()
            .enumerate()
            .map(|(i, s)| ThreadPipe::new(s, ThreadId(i as u8), rob_per_thread, ftq))
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
            // Tenant 0's source is on the pipe's stream.
            let parked = threads[0].origins[1..]
                .iter()
                .map(|g| Box::new(g.clone()) as Box<dyn InstructionStream>)
                .collect();
            Some(ContextState {
                schedule: contexts,
                parked,
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
            warm_pool: Vec::new(),
        }
    }

    /// Executes one instruction on thread `ti`.
    fn step(&mut self, ti: usize, smt_active: bool) {
        // A due context switch lands before the instruction: rotate the
        // tenant streams and apply the switch to the cycle structures.
        let cfg = self.system.config;
        if let Some(ctx) = self.ctx.as_mut() {
            if ctx.switch_due() {
                let t = &mut self.threads[ti];
                let (asid, flush) = ctx.rotate(&mut t.stream);
                t.discard_frontend();
                self.system.context_switch(asid, flush);
                t.mount(ctx.to_switch(), cfg.ftq_entries);
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
    /// and branch predictor through their warm paths, so every
    /// replacement policy keeps the state it builds. No simulated time
    /// passes and no statistics accrue; [`System::settle`] at the
    /// segment edge leaves no in-flight work for the next window.
    ///
    /// The tail runs in two stages. A scoped producer thread
    /// ([`WarmProducer`]) draws the forks, applies the schedule and runs
    /// the translation half; this thread applies the [`WarmEvent`]s it
    /// sends, in order, to the hierarchy and the predictor. The
    /// translation half reads nothing either of those writes, so the
    /// result equals running both halves inline ([`System::warm_fetch`],
    /// [`System::warm_data`], [`HashedPerceptron::train`]).
    fn fast_forward(&mut self, ti: usize, salt: u64, instructions: u64) {
        let warm = instructions.min(FF_WARM_CAP);
        let System { mmu, hierarchy, .. } = &mut self.system;
        let ThreadPipe {
            id,
            va_offset,
            origins,
            stream,
            bp,
            ..
        } = &mut self.threads[ti];
        let thread = *id;
        let producer = WarmProducer {
            mmu,
            ctx: self.ctx.as_mut(),
            stream,
            origins,
            thread,
            va_offset: *va_offset,
            salt,
        };
        let pool = &mut self.warm_pool;
        let rotated = std::thread::scope(|s| {
            // Each channel can hold the whole pool, so no send blocks.
            let (free_tx, free_rx) = mpsc::sync_channel(WARM_CHUNKS);
            let (full_tx, full_rx) = mpsc::sync_channel(WARM_CHUNKS);
            pool.resize_with(WARM_CHUNKS, || Vec::with_capacity(WARM_CHUNK));
            for chunk in pool.drain(..) {
                // The receiver is alive and the channel has room.
                free_tx.send(chunk).expect("empty chunk channel");
            }
            WARM_STARTED.fetch_add(1, Ordering::SeqCst);
            WARM_RUNNING.fetch_add(1, Ordering::SeqCst);
            let producer = std::thread::Builder::new()
                .name("itpx-warm".to_string())
                .spawn_scoped(s, move || {
                    let _running = WarmRunning;
                    producer.run(instructions - warm, warm, free_rx, full_tx)
                })
                // As with the supply: a host that cannot start a thread
                // cannot run the simulator.
                .expect("spawn warm-stage thread");
            while let Some(mut chunk) = recv_chunk(&full_rx, &WARM_CONSUMER_WAITS) {
                for event in &chunk {
                    match *event {
                        WarmEvent::Ref(r) => r.apply(hierarchy, thread),
                        WarmEvent::Branch { pc, taken } => {
                            bp.train(pc, taken);
                        }
                    }
                }
                chunk.clear();
                // Fails only if the producer panicked: the buffer is
                // dropped, and the pool refilled next segment.
                let _ = free_tx.send(chunk);
            }
            match producer.join() {
                Ok((rotated, free_rx)) => {
                    pool.extend(free_rx.try_iter());
                    rotated
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        });
        if rotated {
            self.threads[ti].discard_frontend();
        }
        self.system.settle();
    }

    /// Warm-stage producer threads started so far in this process: one
    /// per fast-forward segment.
    pub fn warm_threads_started() -> u64 {
        WARM_STARTED.load(Ordering::SeqCst)
    }

    /// Warm-stage producer threads of this process that have not yet
    /// exited.
    pub fn warm_threads_running() -> u64 {
        WARM_RUNNING.load(Ordering::SeqCst)
    }

    /// Chunk waits of the warm stages so far in this process: each time
    /// a stage's non-blocking receive found nothing and it blocked.
    pub fn warm_stalls() -> WarmStalls {
        WarmStalls {
            consumer: WARM_CONSUMER_WAITS.load(Ordering::Relaxed),
            producer: WARM_PRODUCER_WAITS.load(Ordering::Relaxed),
        }
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
    /// Consumes the engine, so the supply threads are joined before this
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
    /// at a switch (in a window, a warm tail or a free skip), a window
    /// end or the run's end. (`SupplyStream::replace_source` also
    /// asserts it at every switch.)
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
            for t in &e.threads {
                assert_eq!(t.stream.parked_peak(), 0, "{what}, thread {}", t.id.0);
            }
        }
    }
}
