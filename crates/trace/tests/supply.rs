//! The instruction supply: every stream yields exactly its inline
//! source, whoever generates each chunk and however streams are mounted
//! and parked; a parked stream holds nothing generated past its mount;
//! dropping a stream drops its source; a source panic reaches the
//! consumer instead of hanging it.

use itpx_trace::stream::{SUPPLY_CHUNK, SUPPLY_LEAD};
use itpx_trace::{InstructionStream, Supply, TraceGenerator, TraceInst, WorkloadSpec};
use itpx_types::Rng64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

const CHUNKS: [usize; 4] = [1, 7, SUPPLY_CHUNK, 4096];

/// Every generator the engine registers: live streams of both profiles,
/// tenant streams and phase forks.
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
            let supply = Supply::with_chunk(chunk);
            // Parked throughout: the consumer generates every chunk.
            // Mounted for everything: the supply thread runs ahead.
            // Mounted in uneven stretches: both generate.
            for mode in ["parked", "mounted", "stretches"] {
                let mut s = supply.register(Box::new(g.clone()), n as u64);
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
    let supply = Supply::new();
    let mut s = supply.register(Box::new(g.clone()), u64::MAX);
    s.mount(4 * SUPPLY_CHUNK as u64);
    for i in 0..4 * SUPPLY_CHUNK {
        assert_eq!(s.next_inst(), g.next_inst(), "resumed: {i}");
    }
}

/// Streams mounted and parked in the engine's pattern: one tenant at a
/// time for a quantum announced exactly, plus forks mounted for a warm
/// tail, all on one supply. Every stream must match its inline source,
/// and none may hold an instruction generated past its mount.
#[test]
fn mount_and_park_interleavings_stay_exact() {
    let server = TraceGenerator::new(&WorkloadSpec::server_like(11));
    for chunk in CHUNKS {
        let supply = Supply::with_chunk(chunk);
        let sources: Vec<TraceGenerator> = (0..4)
            .map(|t| TraceGenerator::new(&WorkloadSpec::server_like(11).tenant(t)))
            .collect();
        let mut inline = sources.clone();
        let mut streams: Vec<_> = sources
            .into_iter()
            .map(|g| supply.register(Box::new(g), u64::MAX))
            .collect();
        let mut rng = Rng64::new(chunk as u64);
        for round in 0..40u64 {
            let t = (round % 4) as usize;
            let quantum = rng.range(1, 3 * SUPPLY_CHUNK as u64);
            streams[t].mount(quantum);
            for i in 0..quantum {
                assert_eq!(
                    streams[t].next_inst(),
                    inline[t].next_inst(),
                    "chunk {chunk}, round {round}, tenant {t}: {i}"
                );
            }
            streams[t].mount(0);
            if round % 9 == 0 {
                // A fast-forward: forks at the extreme salts, each mounted
                // for its tail and dropped part-way through it too.
                for salt in [0, 1, u64::MAX] {
                    let mut inline_fork = server.phase_fork(salt);
                    let tail = rng.range(1, 2 * SUPPLY_CHUNK as u64);
                    let mut fork = supply.register(Box::new(server.phase_fork(salt)), tail);
                    fork.mount(tail);
                    for i in 0..tail - round % 2 {
                        assert_eq!(
                            fork.next_inst(),
                            inline_fork.next_inst(),
                            "fork {salt}: {i}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            supply.parked_peak(),
            0,
            "chunk {chunk}: parked stream held instructions"
        );
    }
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

#[test]
fn dropping_a_stream_drops_its_source() {
    let chunk = 8;
    let supply = Supply::with_chunk(chunk);
    for mounted in [false, true] {
        for consumed in [0, 1, chunk + 5] {
            let alive = Arc::new(());
            let weak: Weak<()> = Arc::downgrade(&alive);
            let entered = Arc::new(AtomicBool::new(false));
            let dropped = Arc::new(AtomicBool::new(false));
            let source = Tracked {
                inner: TraceGenerator::new(&WorkloadSpec::server_like(1)),
                _alive: alive,
                entered: Arc::clone(&entered),
                // Slow enough that the drop below lands mid-chunk.
                delay: Duration::from_millis(u64::from(mounted)),
                dropped: Arc::clone(&dropped),
            };
            let mut s = supply.register(Box::new(source), u64::MAX);
            for _ in 0..consumed {
                s.next_inst();
            }
            if mounted {
                // Drop while the supply thread is inside the source.
                entered.store(false, Ordering::SeqCst);
                s.mount(u64::MAX);
                let start = Instant::now();
                while !entered.load(Ordering::SeqCst) {
                    assert!(
                        start.elapsed() < Duration::from_secs(20),
                        "supply never ran"
                    );
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            drop(s);
            let what = format!("mounted {mounted}, {consumed} consumed");
            assert!(
                weak.upgrade().is_none(),
                "source outlived its stream ({what})"
            );
            assert!(
                dropped.load(Ordering::SeqCst),
                "source not dropped ({what})"
            );
        }
    }
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

/// Registers `source` on a fresh supply, optionally mounts it for
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
            let supply = Supply::new();
            let mut s = supply.register(Box::new(source), limit);
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
