//! The instruction supply: a stream yields exactly its inline sources,
//! whoever generates each chunk, however it is mounted and parked and
//! however its sources are swapped; a parked stream holds nothing
//! generated past its mount; dropping a stream joins its thread and
//! drops its source; a source panic reaches the consumer instead of
//! hanging it.

use itpx_trace::stream::{SUPPLY_CHUNK, SUPPLY_LEAD};
use itpx_trace::{InstructionStream, SupplyStream, TraceGenerator, TraceInst, WorkloadSpec};
use itpx_types::Rng64;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

const CHUNKS: [usize; 4] = [1, 7, SUPPLY_CHUNK, 4096];

/// Generators of every kind: live streams of both profiles, tenant
/// streams and phase forks.
fn generators() -> Vec<(String, TraceGenerator)> {
    let server = TraceGenerator::new(&WorkloadSpec::server_like(3));
    let mut out = vec![
        ("server_like".to_string(), server.clone()),
        (
            "spec_like".to_string(),
            TraceGenerator::new(&WorkloadSpec::spec_like(4)),
        ),
    ];
    for t in 1..3 {
        let spec = WorkloadSpec::server_like(3).tenant(t);
        out.push((format!("tenant {t}"), TraceGenerator::new(&spec)));
    }
    for salt in [0, 1, u64::MAX] {
        out.push((format!("fork {salt}"), server.phase_fork(salt)));
    }
    out
}

#[test]
fn a_stream_yields_exactly_its_inline_source() {
    // Long enough to cross many chunk boundaries at the default length.
    let n = (SUPPLY_LEAD + 3) * SUPPLY_CHUNK + 3;
    for (name, g) in generators() {
        for chunk in CHUNKS {
            // Parked throughout: the consumer generates every chunk.
            // Mounted for everything: the supply thread runs ahead.
            // Mounted in uneven stretches: both generate.
            for mode in ["parked", "mounted", "stretches"] {
                let mut s = SupplyStream::with_chunk(Box::new(g.clone()), n as u64, chunk);
                let mut inline = g.clone();
                if mode == "mounted" {
                    s.mount(n as u64);
                }
                let mut left = 0;
                for i in 0..n {
                    if mode == "stretches" && left == 0 {
                        left = (i % 997).clamp(1, n - i);
                        s.mount(left as u64);
                    }
                    left = left.saturating_sub(1);
                    assert_eq!(
                        s.next_inst(),
                        inline.next_inst(),
                        "{name}, chunk {chunk}, {mode}: {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_stream_continues_a_partly_run_source() {
    let mut g = TraceGenerator::new(&WorkloadSpec::server_like(9));
    for _ in 0..1234 {
        g.next_inst();
    }
    let mut s = SupplyStream::new(Box::new(g.clone()), u64::MAX);
    s.mount(4 * SUPPLY_CHUNK as u64);
    for i in 0..4 * SUPPLY_CHUNK {
        assert_eq!(s.next_inst(), g.next_inst(), "resumed: {i}");
    }
}

/// One stream in the engine's switch pattern: mounted for a quantum
/// announced exactly, parked, and its source swapped for the next
/// tenant's, round-robin over four tenants. Each tenant's instructions
/// must match its inline source across its quanta, and no park may
/// leave an instruction generated ahead (`replace_source` would panic).
#[test]
fn tenant_sources_swapped_at_exact_quanta_stay_exact() {
    for chunk in CHUNKS {
        let sources: Vec<TraceGenerator> = (0..4)
            .map(|t| TraceGenerator::new(&WorkloadSpec::server_like(11).tenant(t)))
            .collect();
        let mut inline = sources.clone();
        // Parked sources in the order they run next, as the engine keeps
        // them.
        let mut parked: VecDeque<Box<dyn InstructionStream>> = sources
            .into_iter()
            .map(|g| Box::new(g) as Box<dyn InstructionStream>)
            .collect();
        let first = parked.pop_front().expect("tenant 0");
        let mut s = SupplyStream::with_chunk(first, u64::MAX, chunk);
        let mut rng = Rng64::new(chunk as u64);
        for round in 0..40u64 {
            let t = (round % 4) as usize;
            let quantum = rng.range(1, 3 * SUPPLY_CHUNK as u64);
            s.mount(quantum);
            for i in 0..quantum {
                assert_eq!(
                    s.next_inst(),
                    inline[t].next_inst(),
                    "chunk {chunk}, round {round}, tenant {t}: {i}"
                );
            }
            s.mount(0);
            let incoming = parked.pop_front().expect("parked tenant");
            parked.push_back(s.replace_source(incoming));
        }
        assert_eq!(
            s.parked_peak(),
            0,
            "chunk {chunk}: parked stream held instructions"
        );
    }
}

#[test]
#[should_panic(expected = "replaced a source that ran")]
fn replacing_a_source_that_ran_ahead_panics() {
    let g = TraceGenerator::new(&WorkloadSpec::server_like(6));
    let mut s = SupplyStream::with_chunk(Box::new(g.clone()), u64::MAX, 8);
    // Caller-runs generates a whole chunk for the first draw.
    s.next_inst();
    s.replace_source(Box::new(g));
}

/// A source that owns `alive`, raises `entered` whenever it generates,
/// sleeps `delay` per instruction, and raises `dropped` when it is
/// dropped.
#[derive(Debug)]
struct Tracked {
    inner: TraceGenerator,
    _alive: Arc<()>,
    entered: Arc<AtomicBool>,
    delay: Duration,
    dropped: Arc<AtomicBool>,
}

impl InstructionStream for Tracked {
    fn next_inst(&mut self) -> TraceInst {
        self.entered.store(true, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        self.inner.next_inst()
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::SeqCst);
    }
}

/// A `Tracked` source and what it reports: a weak handle on what it
/// owns, whether it is generating, and whether it was dropped.
fn tracked(delay: Duration) -> (Tracked, Weak<()>, Arc<AtomicBool>, Arc<AtomicBool>) {
    let alive = Arc::new(());
    let weak = Arc::downgrade(&alive);
    let entered = Arc::new(AtomicBool::new(false));
    let dropped = Arc::new(AtomicBool::new(false));
    let source = Tracked {
        inner: TraceGenerator::new(&WorkloadSpec::server_like(1)),
        _alive: alive,
        entered: Arc::clone(&entered),
        delay,
        dropped: Arc::clone(&dropped),
    };
    (source, weak, entered, dropped)
}

#[test]
fn dropping_a_stream_drops_its_source() {
    let chunk = 8;
    for consumed in [0, 1, chunk + 5] {
        let (source, weak, _, dropped) = tracked(Duration::ZERO);
        let mut s = SupplyStream::with_chunk(Box::new(source), u64::MAX, chunk);
        for _ in 0..consumed {
            s.next_inst();
        }
        drop(s);
        assert!(
            weak.upgrade().is_none(),
            "{consumed} consumed: source outlived its stream"
        );
        assert!(dropped.load(Ordering::SeqCst), "{consumed} consumed");
    }
}

#[test]
fn dropping_a_stream_mid_chunk_joins_its_thread_and_drops_its_source() {
    // Slow enough that the drop below lands inside the source.
    let (source, weak, entered, dropped) = tracked(Duration::from_millis(1));
    let mut s = SupplyStream::with_chunk(Box::new(source), u64::MAX, 64);
    s.mount(u64::MAX);
    let start = Instant::now();
    while !entered.load(Ordering::SeqCst) {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "supply never ran"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
    drop(s);
    // The drop returned, so it joined the thread, which had put the
    // source back: the source went with the stream.
    assert!(weak.upgrade().is_none(), "source outlived its stream");
    assert!(dropped.load(Ordering::SeqCst), "source not dropped");
}

/// A source that panics after `left` instructions and records the name
/// of the thread it panicked on.
#[derive(Debug)]
struct Failing {
    left: u32,
    panicked_on: Arc<Mutex<Option<String>>>,
}

impl InstructionStream for Failing {
    fn next_inst(&mut self) -> TraceInst {
        if self.left == 0 {
            let name = std::thread::current().name().unwrap_or("").to_string();
            *self.panicked_on.lock().expect("record lock") = Some(name);
            panic!("source ran dry");
        }
        self.left -= 1;
        TraceInst::alu(0x1000)
    }
}

/// Puts `source` on a fresh stream, optionally mounts it for
/// `mount` draws and waits until `ready` holds, then draws until the
/// stream panics and returns the message. The consumer runs on its own
/// thread so a hang fails the test instead of stalling it.
fn panic_message<S: InstructionStream + 'static>(
    source: S,
    limit: u64,
    mount: Option<u64>,
    ready: impl Fn() -> bool + Send + 'static,
) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut s = SupplyStream::new(Box::new(source), limit);
            if let Some(draws) = mount {
                s.mount(draws);
                let start = Instant::now();
                while !ready() && start.elapsed() < Duration::from_secs(20) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            loop {
                s.next_inst();
            }
        }));
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("consumer hung on a dead source");
    let payload = result.expect_err("consumer must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn a_panicking_source_panics_the_consumer_with_its_reason() {
    for left in [0, 3, 2 * SUPPLY_CHUNK as u32] {
        // Parked, the consumer generates and meets the panic itself;
        // mounted, it waits until the supply thread has met it.
        for mounted in [false, true] {
            let panicked_on = Arc::new(Mutex::new(None));
            let seen = Arc::clone(&panicked_on);
            let msg = panic_message(
                Failing {
                    left,
                    panicked_on: Arc::clone(&panicked_on),
                },
                u64::MAX,
                mounted.then_some(u64::MAX),
                move || seen.lock().expect("record lock").is_some(),
            );
            assert!(
                msg.contains("instruction-stream helper panicked")
                    && msg.contains("source ran dry"),
                "left {left}, mounted {mounted}: unexpected panic message: {msg:?}"
            );
            let on = panicked_on
                .lock()
                .expect("record lock")
                .clone()
                .unwrap_or_default();
            if mounted {
                assert_eq!(
                    on, "itpx-supply",
                    "left {left}: panicked on the wrong thread"
                );
            } else {
                assert_ne!(
                    on, "itpx-supply",
                    "left {left}: a parked stream was generated ahead"
                );
            }
        }
    }
}

#[test]
fn drawing_past_the_limit_panics() {
    let chunk = SUPPLY_CHUNK as u64;
    for limit in [0, 1, chunk - 1, chunk, chunk + 1, 9 * chunk] {
        for mount in [None, Some(u64::MAX)] {
            // The source itself would run much longer.
            let source = Failing {
                left: u32::MAX,
                panicked_on: Arc::default(),
            };
            let msg = panic_message(source, limit, mount, || true);
            assert!(
                msg.contains("drawn past its limit"),
                "limit {limit}, mount {mount:?}: unexpected panic message: {msg:?}"
            );
        }
    }
}
