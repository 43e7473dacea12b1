//! Instruction-stream abstraction: the simulator consumes instructions
//! from either a live synthetic generator or a recorded trace file.

use crate::gen::TraceGenerator;
use crate::profile::WorkloadSpec;
use crate::record::TraceInst;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// An endless source of dynamic instructions for one hardware thread.
///
/// Implementations must be infinite — the engine draws exactly as many
/// instructions as the run needs.
pub trait InstructionStream: std::fmt::Debug + Send {
    /// Produces the next dynamic instruction.
    fn next_inst(&mut self) -> TraceInst;
}

impl InstructionStream for TraceGenerator {
    fn next_inst(&mut self) -> TraceInst {
        // the Iterator impl below always returns Some
        self.next().expect("generator is infinite")
    }
}

/// Replays a recorded trace in a loop.
///
/// Because a finite trace ends mid-control-flow, the replay stitches the
/// wrap-around by rewriting the last instruction into an unconditional
/// branch back to the first instruction's PC — keeping the PC chain
/// consistent for the front end.
#[derive(Debug, Clone)]
pub struct TraceLoop {
    insts: Vec<TraceInst>,
    pos: usize,
}

impl TraceLoop {
    /// Creates a looping replay over `insts`.
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty.
    pub fn new(mut insts: Vec<TraceInst>) -> Self {
        assert!(!insts.is_empty(), "cannot replay an empty trace");
        let first_pc = insts[0].pc;
        // asserted non-empty above
        let last = insts.last_mut().expect("non-empty");
        last.branch = Some(crate::record::Branch {
            taken: true,
            target: first_pc,
        });
        Self { insts, pos: 0 }
    }

    /// Number of instructions in one loop iteration.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Always `false` (construction requires a non-empty trace).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

impl InstructionStream for TraceLoop {
    fn next_inst(&mut self) -> TraceInst {
        let inst = self.insts[self.pos];
        self.pos = (self.pos + 1) % self.insts.len();
        inst
    }
}

/// Instructions per chunk a [`Supply`] hands over at once.
pub const SUPPLY_CHUNK: usize = 512;

/// Filled chunks a [`Supply`] keeps ahead of a mounted stream, and the
/// buffers its shared pool holds. The consumer wakes the sleeping supply
/// thread once half the pool is free again (or its stream has run dry),
/// so the thread wakes about once per `SUPPLY_LEAD / 2` chunks drawn.
pub const SUPPLY_LEAD: usize = 8;

/// Supply threads started in this process, and those still running.
static STARTED: AtomicU64 = AtomicU64::new(0);
static RUNNING: AtomicU64 = AtomicU64::new(0);

/// One instruction-supply thread, shared by every stream of a run.
///
/// Each source is registered with a hard draw limit and comes back as a
/// [`SupplyStream`]. The thread fills chunks of [`TraceInst`] only for
/// *mounted* streams, and only up to the draws the consumer announced
/// with [`SupplyStream::mount`]; a parked stream gets nothing. Chunk
/// buffers come from one shared pool, allocated by whoever creates the
/// supply, so a run holds about [`SUPPLY_LEAD`] chunks plus the
/// partial chunk each stream is drawing from.
///
/// A refill that finds no filled chunk while the source is idle
/// generates the chunk on the consumer's own thread ("caller-runs")
/// instead of waiting for the supply thread to wake: a descheduled
/// supply thread never stalls the consumer, and on one CPU generation
/// simply runs inline. The consumer waits only for a chunk the supply
/// thread is generating at that moment.
///
/// Output equals the sources' own: only the thread holding a source
/// draws from it, each chunk is queued behind the ones drawn before it,
/// and a consumer takes chunks in queue order.
///
/// Dropping the supply joins its thread once the chunk in flight, if
/// any, is done. Streams outlive it safely: they generate every chunk
/// themselves from then on.
pub struct Supply {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

/// State shared by a supply's thread and its streams.
struct Shared {
    state: Mutex<State>,
    /// Wakes the supply thread: a mount, a drained chunk, shutdown.
    work: Condvar,
    /// Wakes a consumer waiting for a chunk the supply thread generates.
    ready: Condvar,
    chunk: usize,
}

struct State {
    /// Registered streams by id; `None` marks a free id.
    slots: Vec<Option<Slot>>,
    /// Empty chunk buffers.
    pool: Vec<Vec<TraceInst>>,
    /// The supply thread is waiting for work.
    idle: bool,
    /// Threads waiting on [`Shared::ready`].
    waiting: usize,
    shutdown: bool,
    /// The most instructions any stream held when it was parked.
    parked_peak: u64,
}

/// One registered stream, as the supply sees it.
struct Slot {
    /// `None` while a thread generates from it, or after it panicked.
    source: Option<Box<dyn InstructionStream>>,
    /// Filled chunks in draw order.
    filled: VecDeque<Vec<TraceInst>>,
    /// Instructions drawn from the source, in flight ones included.
    produced: u64,
    /// The supply thread fills up to here: the mount bound.
    until: u64,
    /// Drawing past this many instructions panics.
    limit: u64,
    /// The source's panic message.
    failed: Option<String>,
}

impl Slot {
    /// Whether the supply thread has a chunk to fill for this stream.
    fn wants(&self) -> bool {
        self.source.is_some() && self.produced < self.until && self.filled.len() < SUPPLY_LEAD
    }

    /// Instructions left to generate before `produced` reaches `end`.
    fn left(&self, end: u64) -> usize {
        usize::try_from(end.saturating_sub(self.produced)).unwrap_or(usize::MAX)
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Nothing panics while holding the lock; a poisoned one is whole.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, cv: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for the supply thread to finish the chunk it is generating.
    fn wait_ready<'a>(&self, mut state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        state.waiting += 1;
        state = self.wait(&self.ready, state);
        state.waiting -= 1;
        state
    }

    /// Takes stream `id`'s idle source and replaces `buf`'s contents with
    /// its next `n` instructions on the calling thread, outside the lock.
    /// The source goes back to the stream, or, if it panicked, its
    /// message becomes the stream's failure and is returned.
    fn generate<'a>(
        &'a self,
        mut state: MutexGuard<'a, State>,
        id: usize,
        n: usize,
        buf: &mut Vec<TraceInst>,
    ) -> (MutexGuard<'a, State>, Option<String>) {
        let slot = state.slot(id);
        // Both callers generate only from an idle source.
        let mut source = slot.source.take().expect("idle source");
        slot.produced += n as u64;
        drop(state);
        buf.clear();
        let back = std::panic::catch_unwind(AssertUnwindSafe(|| {
            buf.extend(std::iter::repeat_with(|| source.next_inst()).take(n));
        }))
        .map(|()| source)
        .map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string())
        });
        let mut state = self.lock();
        let slot = state.slot(id);
        let failure = match back {
            Ok(source) => {
                slot.source = Some(source);
                None
            }
            Err(reason) => {
                slot.failed = Some(reason.clone());
                Some(reason)
            }
        };
        (state, failure)
    }
}

impl State {
    fn slot(&mut self, id: usize) -> &mut Slot {
        // Ids index live slots: a stream frees its own only on drop.
        self.slots[id].as_mut().expect("registered stream")
    }

    /// Returns a buffer to the pool, freeing it once the pool is full.
    fn give_back(&mut self, buf: Vec<TraceInst>) {
        if buf.capacity() > 0 && self.pool.len() < SUPPLY_LEAD {
            self.pool.push(buf);
        }
    }

    /// Wakes the supply thread if it sleeps and a buffer is free.
    fn wake(&mut self, work: &Condvar) {
        if self.idle && !self.pool.is_empty() {
            self.idle = false;
            work.notify_one();
        }
    }

    /// The stream the supply thread fills next: the wanting one with
    /// the fewest filled chunks, lowest id first.
    fn next_job(&self) -> Option<usize> {
        if self.pool.is_empty() {
            return None;
        }
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, s)| {
                s.as_ref()
                    .filter(|s| s.wants())
                    .map(|s| (s.filled.len(), id))
            })
            .min()
            .map(|(_, id)| id)
    }
}

impl Supply {
    /// A supply handing over [`SUPPLY_CHUNK`] instructions at a time.
    pub fn new() -> Self {
        Self::with_chunk(SUPPLY_CHUNK)
    }

    /// A supply handing over `chunk` instructions at a time. Allocates
    /// the buffer pool and starts the supply thread.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero or the thread cannot be spawned.
    pub fn with_chunk(chunk: usize) -> Self {
        assert!(chunk > 0, "supply chunks hold at least one instruction");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                slots: Vec::new(),
                pool: (0..SUPPLY_LEAD)
                    .map(|_| Vec::with_capacity(chunk))
                    .collect(),
                idle: false,
                waiting: 0,
                shutdown: false,
                parked_peak: 0,
            }),
            work: Condvar::new(),
            ready: Condvar::new(),
            chunk,
        });
        let worker = Arc::clone(&shared);
        RUNNING.fetch_add(1, Ordering::SeqCst);
        let thread = std::thread::Builder::new()
            .name("itpx-supply".to_string())
            .spawn(move || {
                supply_loop(&worker);
                RUNNING.fetch_sub(1, Ordering::SeqCst);
            })
            // There is no inline fallback: a host that cannot start a
            // thread cannot run the simulator.
            .expect("spawn instruction-supply thread");
        STARTED.fetch_add(1, Ordering::SeqCst);
        Self {
            shared,
            thread: Some(thread),
        }
    }

    /// Registers `source`: the returned stream yields exactly the
    /// source's instructions and panics if drawn past `limit`
    /// (`u64::MAX` for no bound). It starts parked.
    pub fn register(&self, source: Box<dyn InstructionStream>, limit: u64) -> SupplyStream {
        let slot = Slot {
            source: Some(source),
            filled: VecDeque::with_capacity(SUPPLY_LEAD),
            produced: 0,
            until: 0,
            limit,
            failed: None,
        };
        let mut state = self.shared.lock();
        let id = match state.slots.iter().position(Option::is_none) {
            Some(free) => {
                state.slots[free] = Some(slot);
                free
            }
            None => {
                state.slots.push(Some(slot));
                state.slots.len() - 1
            }
        };
        SupplyStream {
            chunk: Vec::new(),
            pos: 0,
            taken: 0,
            id,
            shared: Arc::clone(&self.shared),
        }
    }

    /// The most instructions any stream of this supply held, filled
    /// ahead but not drawn, at the moment it was parked.
    pub fn parked_peak(&self) -> u64 {
        self.shared.lock().parked_peak
    }

    /// Supply threads started so far in this process.
    pub fn threads_started() -> u64 {
        STARTED.load(Ordering::SeqCst)
    }

    /// Supply threads of this process that have not yet exited.
    pub fn threads_running() -> u64 {
        RUNNING.load(Ordering::SeqCst)
    }
}

impl Default for Supply {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Supply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supply")
            .field("chunk", &self.shared.chunk)
            .finish_non_exhaustive()
    }
}

impl Drop for Supply {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_one();
        if let Some(thread) = self.thread.take() {
            // Source panics are caught in the loop, so the thread cannot
            // have panicked; never panic in drop anyway.
            let _ = thread.join();
        }
    }
}

/// The supply thread: fills the neediest mounted stream's next chunk,
/// one at a time, and sleeps when none wants one or no buffer is free.
fn supply_loop(shared: &Shared) {
    let mut state = shared.lock();
    while !state.shutdown {
        let Some(id) = state.next_job() else {
            state.idle = true;
            state = shared.wait(&shared.work, state);
            state.idle = false;
            continue;
        };
        // next_job found the pool non-empty.
        let mut buf = state.pool.pop().expect("free buffer");
        let slot = state.slot(id);
        let n = shared.chunk.min(slot.left(slot.until));
        let failure;
        (state, failure) = shared.generate(state, id, n, &mut buf);
        match failure {
            None => state.slot(id).filled.push_back(buf),
            Some(_) => state.give_back(buf),
        }
        if state.waiting > 0 {
            shared.ready.notify_all();
        }
    }
}

/// An [`InstructionStream`] registered with a [`Supply`].
///
/// The consumer tells the supply how far it will draw with
/// [`SupplyStream::mount`]; the supply thread then fills chunks up to
/// that point. A refill that finds nothing filled generates the next
/// chunk itself when the source is idle. A source panic surfaces as a
/// panic of the consumer's refill, `instruction-stream helper panicked:
/// <message>`, whichever thread was generating; a draw past the limit
/// panics with "instruction stream drawn past its limit".
///
/// Dropping the stream waits for a chunk in flight on the supply thread,
/// then drops its source: no source outlives its stream.
pub struct SupplyStream {
    chunk: Vec<TraceInst>,
    pos: usize,
    /// Instructions in every chunk this consumer has taken.
    taken: u64,
    id: usize,
    shared: Arc<Shared>,
}

impl SupplyStream {
    /// Announces that the consumer will draw at most `draws` more
    /// instructions before it next calls `mount`. The supply thread
    /// fills up to that point and no further; `mount(0)` parks the
    /// stream and hands a drained chunk buffer back to the pool.
    pub fn mount(&mut self, draws: u64) {
        let drawn = self.drawn();
        let shared = &*self.shared;
        let mut state = shared.lock();
        let slot = state.slot(self.id);
        slot.until = drawn.saturating_add(draws).min(slot.limit);
        let wake = slot.wants();
        if draws == 0 {
            let held = slot.produced - drawn;
            state.parked_peak = state.parked_peak.max(held);
            if self.pos == self.chunk.len() {
                self.pos = 0;
                state.give_back(std::mem::take(&mut self.chunk));
            }
        }
        if wake {
            state.wake(&shared.work);
        }
    }

    /// Instructions the consumer has drawn so far.
    fn drawn(&self) -> u64 {
        self.taken - (self.chunk.len() - self.pos) as u64
    }

    /// Takes the next chunk: a filled one if the supply thread is ahead,
    /// else one generated here if the source is idle, else the one the
    /// supply thread is generating, once it is done.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        let shared = &*self.shared;
        let mut drained = std::mem::take(&mut self.chunk);
        let mut state = shared.lock();
        loop {
            let slot = state.slot(self.id);
            if let Some(chunk) = slot.filled.pop_front() {
                let (wants, starving) = (slot.wants(), slot.filled.is_empty());
                self.taken += chunk.len() as u64;
                self.chunk = chunk;
                self.pos = 0;
                state.give_back(drained);
                // Wake the supply thread for a batch of chunks, or for
                // the next one if none is left.
                if wants && (starving || state.pool.len() >= SUPPLY_LEAD / 2) {
                    state.wake(&shared.work);
                }
                return;
            }
            if let Some(reason) = slot.failed.clone() {
                drop(state);
                panic!("instruction-stream helper panicked: {reason}");
            }
            if slot.source.is_some() {
                // Caller-runs: up to the mount bound, or past it in full
                // chunks when the consumer outruns its announcement.
                let end = if slot.produced < slot.until {
                    slot.until
                } else {
                    slot.limit
                };
                let n = shared.chunk.min(slot.left(end));
                if n == 0 {
                    drop(state);
                    panic!("instruction stream drawn past its limit");
                }
                if drained.capacity() == 0 {
                    drained = state
                        .pool
                        .pop()
                        .unwrap_or_else(|| Vec::with_capacity(shared.chunk));
                }
                let failure;
                (state, failure) = shared.generate(state, self.id, n, &mut drained);
                if let Some(reason) = failure {
                    state.give_back(drained);
                    drop(state);
                    panic!("instruction-stream helper panicked: {reason}");
                }
                self.taken += n as u64;
                self.chunk = drained;
                self.pos = 0;
                if state.slot(self.id).wants() {
                    state.wake(&shared.work);
                }
                return;
            }
            // The supply thread holds the source: its chunk is next.
            state = shared.wait_ready(state);
        }
    }
}

impl InstructionStream for SupplyStream {
    #[inline]
    fn next_inst(&mut self) -> TraceInst {
        if self.pos == self.chunk.len() {
            self.refill();
        }
        // refill leaves a non-empty chunk with pos 0 or does not return
        let inst = self.chunk[self.pos];
        self.pos += 1;
        inst
    }
}

impl std::fmt::Debug for SupplyStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupplyStream")
            .field("id", &self.id)
            .field("buffered", &(self.chunk.len() - self.pos))
            .finish_non_exhaustive()
    }
}

impl Drop for SupplyStream {
    fn drop(&mut self) {
        let shared = &*self.shared;
        let mut state = shared.lock();
        loop {
            let slot = state.slot(self.id);
            if slot.source.is_some() || slot.failed.is_some() {
                break;
            }
            state = shared.wait_ready(state);
        }
        // The loop above found the slot live.
        let slot = state.slots[self.id].take().expect("registered stream");
        for buf in slot.filled {
            state.give_back(buf);
        }
        state.give_back(std::mem::take(&mut self.chunk));
        drop(state);
        // The source drops here, outside the lock.
        drop(slot.source);
    }
}

/// A workload from either source, with the identity/run-length metadata
/// the engine needs.
#[derive(Debug)]
pub enum WorkloadSource {
    /// Synthesize instructions from a seeded spec.
    Synthetic(WorkloadSpec),
    /// Replay a recorded trace in a loop.
    Replay {
        /// Display name (e.g. the trace file name).
        name: String,
        /// The looping replayer.
        stream: TraceLoop,
        /// Instructions to measure.
        instructions: u64,
        /// Warmup instructions.
        warmup: u64,
    },
}

impl WorkloadSource {
    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadSource::Synthetic(w) => &w.name,
            WorkloadSource::Replay { name, .. } => name,
        }
    }

    /// Measured instruction count.
    pub fn instructions(&self) -> u64 {
        match self {
            WorkloadSource::Synthetic(w) => w.instructions,
            WorkloadSource::Replay { instructions, .. } => *instructions,
        }
    }

    /// Warmup instruction count.
    pub fn warmup(&self) -> u64 {
        match self {
            WorkloadSource::Synthetic(w) => w.warmup,
            WorkloadSource::Replay { warmup, .. } => *warmup,
        }
    }

    /// Consumes the source, producing the boxed stream.
    pub fn into_stream(self) -> Box<dyn InstructionStream> {
        match self {
            WorkloadSource::Synthetic(w) => Box::new(TraceGenerator::new(&w)),
            WorkloadSource::Replay { stream, .. } => Box::new(stream),
        }
    }
}

impl From<WorkloadSpec> for WorkloadSource {
    fn from(w: WorkloadSpec) -> Self {
        WorkloadSource::Synthetic(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;

    #[test]
    fn generator_stream_matches_iterator() {
        let spec = WorkloadSpec::server_like(1);
        let mut a = TraceGenerator::new(&spec);
        let b: Vec<TraceInst> = TraceGenerator::new(&spec).take(100).collect();
        for expect in b {
            assert_eq!(a.next_inst(), expect);
        }
    }

    #[test]
    fn trace_loop_wraps_with_consistent_pc_chain() {
        let spec = WorkloadSpec::server_like(2);
        let insts: Vec<TraceInst> = TraceGenerator::new(&spec).take(500).collect();
        let mut replay = TraceLoop::new(insts);
        let mut prev: Option<TraceInst> = None;
        for _ in 0..1500 {
            let i = replay.next_inst();
            if let Some(p) = prev {
                assert_eq!(i.pc, p.next_pc(), "chain broken at wrap");
            }
            prev = Some(i);
        }
    }

    #[test]
    fn replay_is_periodic() {
        let spec = WorkloadSpec::server_like(3);
        let insts: Vec<TraceInst> = TraceGenerator::new(&spec).take(64).collect();
        let mut replay = TraceLoop::new(insts);
        let first: Vec<TraceInst> = (0..64).map(|_| replay.next_inst()).collect();
        let second: Vec<TraceInst> = (0..64).map(|_| replay.next_inst()).collect();
        assert_eq!(first, second);
        assert_eq!(replay.len(), 64);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_trace_panics() {
        let _ = TraceLoop::new(Vec::new());
    }

    #[test]
    fn source_metadata_passthrough() {
        let spec = WorkloadSpec::spec_like(1).instructions(1234).warmup(56);
        let src = WorkloadSource::from(spec);
        assert_eq!(src.instructions(), 1234);
        assert_eq!(src.warmup(), 56);
        assert!(src.name().starts_with("spec_"));
    }
}
