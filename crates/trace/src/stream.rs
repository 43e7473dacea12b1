//! Instruction-stream abstraction: the simulator consumes instructions
//! from either a live synthetic generator or a recorded trace file.

use crate::gen::TraceGenerator;
use crate::profile::WorkloadSpec;
use crate::record::TraceInst;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
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

/// Instructions per chunk a [`HelperStream`] hands over at once.
pub const HELPER_CHUNK: usize = 512;

/// Drained chunks a [`HelperStream`] returns to its helper at once. The
/// helper sleeps between batches, so it is woken once per
/// `HELPER_BATCH × chunk` instructions. Two batches circulate besides
/// the chunk being consumed: at most `(2 × HELPER_BATCH + 1) × chunk`
/// instructions exist per stream.
pub const HELPER_BATCH: usize = 4;

/// Empty chunk buffers travelling back to the helper together.
type Batch = [Vec<TraceInst>; HELPER_BATCH];

/// An [`InstructionStream`] produced on a helper thread.
///
/// The helper owns the source and fills fixed-size chunks of
/// [`TraceInst`] ahead of the consumer, sending each through a channel
/// as soon as it is full. The consumer collects drained chunks and hands
/// them back a batch at a time, so the helper wakes once per batch, not
/// once per chunk: on a loaded host every wake-up preempts a simulation
/// thread. Steady state allocates nothing, and every buffer is allocated
/// on the consumer's thread. The source runs exactly as it would inline,
/// on another core, so the consumer sees the same sequence.
///
/// Dropping the stream disconnects both channels and joins the helper.
/// A panic in the source surfaces as a panic of the consumer's next
/// refill, carrying the source's panic message.
pub struct HelperStream {
    chunk: Vec<TraceInst>,
    pos: usize,
    /// Drained chunks not yet handed back; the first `spares` are set.
    spare: Batch,
    spares: usize,
    filled: Receiver<Vec<TraceInst>>,
    drained: SyncSender<Batch>,
    // Declared after both channel ends: fields drop in order, so the
    // helper sees the disconnect before `Helper::drop` joins it.
    helper: Helper,
}

impl HelperStream {
    /// Moves `source` onto a helper thread with the default chunk length.
    /// The consumer may draw at most `limit` instructions (`u64::MAX`
    /// for no bound); the helper produces no more than that, so it never
    /// runs past the end of a run.
    pub fn spawn(source: impl InstructionStream + 'static, limit: u64) -> Self {
        Self::with_chunk(source, limit, HELPER_CHUNK)
    }

    /// Moves `source` onto a helper thread that hands over `chunk`
    /// instructions at a time, [`HelperStream::spawn`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero or the helper thread cannot be spawned.
    /// Drawing more than `limit` instructions panics.
    pub fn with_chunk(
        mut source: impl InstructionStream + 'static,
        limit: u64,
        chunk: usize,
    ) -> Self {
        assert!(chunk > 0, "helper chunks hold at least one instruction");
        // Neither channel can fill: only 2 × HELPER_BATCH + 1 buffers exist.
        let (filled_tx, filled) = sync_channel::<Vec<TraceInst>>(2 * HELPER_BATCH);
        let (drained, drained_rx) = sync_channel::<Batch>(2);
        for _ in 0..2 {
            // The receiver is alive and the queue holds two batches.
            let _ = drained.send(std::array::from_fn(|_| Vec::with_capacity(chunk)));
        }
        let thread = std::thread::Builder::new()
            .name("itpx-stream".to_string())
            .spawn(move || {
                let mut left = limit;
                // Ends at the limit or when the consumer hangs up on
                // either channel.
                while let Ok(batch) = drained_rx.recv() {
                    for mut buf in batch {
                        let n = usize::try_from(left).map_or(chunk, |left| left.min(chunk));
                        if n == 0 {
                            return;
                        }
                        left -= n as u64;
                        buf.clear();
                        buf.extend(std::iter::repeat_with(|| source.next_inst()).take(n));
                        if filled_tx.send(buf).is_err() {
                            return;
                        }
                    }
                }
            })
            // There is no inline fallback: a host that cannot start a
            // thread cannot run the simulator.
            .expect("spawn instruction-stream helper");
        Self {
            chunk: Vec::with_capacity(chunk),
            pos: 0,
            spare: Batch::default(),
            spares: 0,
            filled,
            drained,
            helper: Helper(Some(thread)),
        }
    }

    /// Sets the drained chunk aside (handing a full batch back to the
    /// helper) and takes the next filled one, waiting for it if the
    /// helper is behind.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        // spares < HELPER_BATCH: it is reset whenever it reaches it
        self.spare[self.spares] = std::mem::take(&mut self.chunk);
        self.spares += 1;
        if self.spares == HELPER_BATCH {
            self.spares = 0;
            // A dead helper is reported by the receive below.
            let _ = self.drained.send(std::mem::take(&mut self.spare));
        }
        match self.filled.recv() {
            Ok(chunk) => {
                self.chunk = chunk;
                self.pos = 0;
            }
            Err(_) => self.helper.died(),
        }
    }
}

impl InstructionStream for HelperStream {
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

impl std::fmt::Debug for HelperStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HelperStream")
            .field("buffered", &(self.chunk.len() - self.pos))
            .finish_non_exhaustive()
    }
}

/// The helper thread of a [`HelperStream`]; joined on drop.
struct Helper(Option<JoinHandle<()>>);

impl Helper {
    /// Reports a helper that hung up on its consumer: it does so at the
    /// stream's limit, or by panicking.
    fn died(&mut self) -> ! {
        let payload = match self.0.take().map(JoinHandle::join) {
            Some(Err(payload)) => payload,
            _ => panic!("instruction stream drawn past its limit"),
        };
        let reason = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        panic!("instruction-stream helper panicked: {reason}");
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        if let Some(thread) = self.0.take() {
            // A helper panic has either been reported by the consumer
            // already or no longer matters; never panic in drop.
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
