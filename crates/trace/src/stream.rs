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
    #[inline]
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

/// Instructions per chunk a [`SupplyStream`] hands over at once.
pub const SUPPLY_CHUNK: usize = 512;

/// Filled chunks a mounted [`SupplyStream`] keeps ahead, and the buffers
/// its pool holds. The consumer wakes the sleeping supply thread once
/// half the pool is free again (or the stream has run dry), so the
/// thread wakes about once per `SUPPLY_LEAD / 2` chunks drawn.
pub const SUPPLY_LEAD: usize = 8;

/// Supply threads started in this process, and those still running.
static STARTED: AtomicU64 = AtomicU64::new(0);
static RUNNING: AtomicU64 = AtomicU64::new(0);

/// An [`InstructionStream`] generated ahead on a supply thread of its
/// own: one per hardware thread of a run.
///
/// The stream draws from one source at a time, up to a hard draw limit.
/// Its thread fills chunks of [`TraceInst`] only while the stream is
/// *mounted*, and only up to the draws the consumer announced with
/// [`SupplyStream::mount`]; a parked stream gets nothing. Chunk buffers
/// come from the stream's pool of [`SUPPLY_LEAD`], allocated by whoever
/// creates it, so a stream holds about that many chunks plus the
/// partial chunk it is drawing from.
///
/// A refill that finds no filled chunk while the source is idle
/// generates the chunk on the consumer's own thread ("caller-runs")
/// instead of waiting for the supply thread to wake: a descheduled
/// supply thread never stalls the consumer, and on one CPU generation
/// simply runs inline. The consumer waits only for a chunk the supply
/// thread is generating at that moment.
///
/// Output equals the sources' own: only the thread holding the source
/// draws from it, each chunk is queued behind the ones drawn before it,
/// and the consumer takes chunks in queue order. A context switch swaps
/// the source of the parked stream ([`SupplyStream::replace_source`]).
///
/// A source panic surfaces as a panic of the consumer's refill,
/// `instruction-stream helper panicked: <message>`, whichever thread was
/// generating; a draw past the limit panics with "instruction stream
/// drawn past its limit". Dropping the stream joins its thread once the
/// chunk in flight, if any, is done; the source drops with it.
pub struct SupplyStream {
    chunk: Vec<TraceInst>,
    pos: usize,
    /// Instructions in every chunk this consumer has taken.
    taken: u64,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

/// State shared by a stream and its supply thread.
struct Shared {
    state: Mutex<State>,
    /// Wakes the supply thread: a mount, a drained chunk, shutdown.
    work: Condvar,
    /// Wakes the consumer waiting for a chunk the supply thread generates.
    ready: Condvar,
    chunk: usize,
}

struct State {
    /// `None` while a thread generates from it, or after it panicked.
    source: Option<Box<dyn InstructionStream>>,
    /// Filled chunks in draw order.
    filled: VecDeque<Vec<TraceInst>>,
    /// Empty chunk buffers.
    pool: Vec<Vec<TraceInst>>,
    /// Instructions drawn from the sources, in flight ones included.
    produced: u64,
    /// The supply thread fills up to here: the mount bound.
    until: u64,
    /// Drawing past this many instructions panics.
    limit: u64,
    /// The source's panic message.
    failed: Option<String>,
    /// The supply thread is waiting for work.
    idle: bool,
    /// The consumer is waiting on [`Shared::ready`].
    waiting: bool,
    shutdown: bool,
    /// The most instructions the stream held when it was parked.
    parked_peak: u64,
}

impl State {
    /// Whether the supply thread has a chunk to fill and a buffer to
    /// fill it in.
    fn wants(&self) -> bool {
        self.source.is_some()
            && self.produced < self.until
            && self.filled.len() < SUPPLY_LEAD
            && !self.pool.is_empty()
    }

    /// Instructions left to generate before `produced` reaches `end`.
    fn left(&self, end: u64) -> usize {
        usize::try_from(end.saturating_sub(self.produced)).unwrap_or(usize::MAX)
    }

    /// Returns a buffer to the pool, freeing it once the pool is full.
    fn give_back(&mut self, buf: Vec<TraceInst>) {
        if buf.capacity() > 0 && self.pool.len() < SUPPLY_LEAD {
            self.pool.push(buf);
        }
    }

    /// Wakes the supply thread if it sleeps and has a chunk to fill.
    fn wake(&mut self, work: &Condvar) {
        if self.idle && self.wants() {
            self.idle = false;
            work.notify_one();
        }
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A panic under the lock changes nothing first; a poisoned one is
        // whole.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, cv: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the idle source and replaces `buf`'s contents with its next
    /// `n` instructions on the calling thread, outside the lock. The
    /// source goes back, or, if it panicked, its message becomes the
    /// stream's failure.
    fn generate<'a>(
        &'a self,
        mut state: MutexGuard<'a, State>,
        n: usize,
        buf: &mut Vec<TraceInst>,
    ) -> MutexGuard<'a, State> {
        // Both callers generate only from an idle source.
        let mut source = state.source.take().expect("idle source");
        state.produced += n as u64;
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
        match back {
            Ok(source) => state.source = Some(source),
            Err(reason) => state.failed = Some(reason),
        }
        state
    }
}

/// The supply thread: fills the stream's next chunk, one at a time, and
/// sleeps when it wants none or no buffer is free.
fn supply_loop(shared: &Shared) {
    let mut state = shared.lock();
    while !state.shutdown {
        if !state.wants() {
            state.idle = true;
            state = shared.wait(&shared.work, state);
            state.idle = false;
            continue;
        }
        // wants found the pool non-empty.
        let mut buf = state.pool.pop().expect("free buffer");
        let n = shared.chunk.min(state.left(state.until));
        state = shared.generate(state, n, &mut buf);
        if state.failed.is_none() {
            state.filled.push_back(buf);
        } else {
            state.give_back(buf);
        }
        if state.waiting {
            shared.ready.notify_one();
        }
    }
}

impl SupplyStream {
    /// A stream handing over [`SUPPLY_CHUNK`] instructions at a time
    /// (see [`SupplyStream::with_chunk`]).
    pub fn new(source: Box<dyn InstructionStream>, limit: u64) -> Self {
        Self::with_chunk(source, limit, SUPPLY_CHUNK)
    }

    /// A stream that yields exactly `source`'s instructions, `chunk` at
    /// a time, and panics if drawn past `limit` (`u64::MAX` for no
    /// bound). Allocates the buffer pool and starts the supply thread;
    /// the stream starts parked.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero or the thread cannot be spawned.
    pub fn with_chunk(source: Box<dyn InstructionStream>, limit: u64, chunk: usize) -> Self {
        assert!(chunk > 0, "supply chunks hold at least one instruction");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                source: Some(source),
                filled: VecDeque::with_capacity(SUPPLY_LEAD),
                pool: (0..SUPPLY_LEAD)
                    .map(|_| Vec::with_capacity(chunk))
                    .collect(),
                produced: 0,
                until: 0,
                limit,
                failed: None,
                idle: false,
                waiting: false,
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
            chunk: Vec::new(),
            pos: 0,
            taken: 0,
            shared,
            thread: Some(thread),
        }
    }

    /// Announces that the consumer will draw at most `draws` more
    /// instructions before it next calls `mount`. The supply thread
    /// fills up to that point and no further; `mount(0)` parks the
    /// stream and hands a drained chunk buffer back to the pool.
    pub fn mount(&mut self, draws: u64) {
        let drawn = self.drawn();
        let shared = &*self.shared;
        let mut state = shared.lock();
        state.until = drawn.saturating_add(draws).min(state.limit);
        if draws == 0 {
            state.parked_peak = state.parked_peak.max(state.produced - drawn);
            if self.pos == self.chunk.len() {
                self.pos = 0;
                state.give_back(std::mem::take(&mut self.chunk));
            }
        }
        state.wake(&shared.work);
    }

    /// Swaps in `source` and returns the outgoing one: the stream yields
    /// `source`'s instructions from here on. The draw limit counts the
    /// draws from every source.
    ///
    /// # Panics
    ///
    /// Panics if the outgoing source ran ahead of the consumer's draws:
    /// those instructions would be lost.
    pub fn replace_source(
        &mut self,
        source: Box<dyn InstructionStream>,
    ) -> Box<dyn InstructionStream> {
        let drawn = self.drawn();
        let mut state = self.shared.lock();
        let ahead = state.produced - drawn;
        assert!(
            ahead == 0,
            "replaced a source that ran ahead of its draws by {ahead}"
        );
        // Nothing generated ahead means no chunk in flight and no
        // failure: the source is idle.
        state.source.replace(source).expect("idle source")
    }

    /// The most instructions the stream held, filled ahead but not
    /// drawn, at the moment it was parked.
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
            if let Some(chunk) = state.filled.pop_front() {
                self.taken += chunk.len() as u64;
                self.chunk = chunk;
                self.pos = 0;
                state.give_back(drained);
                // Wake the supply thread for a batch of chunks, or for
                // the next one if none is left.
                if state.filled.is_empty() || state.pool.len() >= SUPPLY_LEAD / 2 {
                    state.wake(&shared.work);
                }
                return;
            }
            if let Some(reason) = state.failed.clone() {
                drop(state);
                panic!("instruction-stream helper panicked: {reason}");
            }
            if state.source.is_some() {
                // Caller-runs: up to the mount bound, or past it in full
                // chunks when the consumer outruns its announcement.
                let end = if state.produced < state.until {
                    state.until
                } else {
                    state.limit
                };
                let n = shared.chunk.min(state.left(end));
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
                state = shared.generate(state, n, &mut drained);
                if state.failed.is_some() {
                    // The next pass reports it.
                    continue;
                }
                self.taken += n as u64;
                self.chunk = drained;
                self.pos = 0;
                state.wake(&shared.work);
                return;
            }
            // The supply thread holds the source: its chunk is next.
            state.waiting = true;
            state = shared.wait(&shared.ready, state);
            state.waiting = false;
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
            .field("chunk", &self.shared.chunk)
            .field("buffered", &(self.chunk.len() - self.pos))
            .finish_non_exhaustive()
    }
}

impl Drop for SupplyStream {
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
