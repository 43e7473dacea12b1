//! The helper-thread stream adapter: the same instructions as the inline
//! source, a joined helper on drop, and a source panic that reaches the
//! consumer instead of hanging it.

use itpx_trace::stream::{HELPER_BATCH, HELPER_CHUNK};
use itpx_trace::{HelperStream, InstructionStream, TraceGenerator, TraceInst, WorkloadSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::time::Duration;

const CHUNKS: [usize; 4] = [1, 7, HELPER_CHUNK, 4096];

/// Takes `n` instructions from `a` and `b` and asserts they agree.
fn assert_same(mut a: impl InstructionStream, mut b: impl InstructionStream, n: usize, what: &str) {
    for i in 0..n {
        assert_eq!(a.next_inst(), b.next_inst(), "{what}: instruction {i}");
    }
}

/// Every generator the engine moves onto a helper: live streams of both
/// profiles, tenant streams and phase forks.
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
fn helper_yields_exactly_the_inline_stream() {
    // Long enough to cross many chunk boundaries at the default length.
    let n = (2 * HELPER_BATCH + 3) * HELPER_CHUNK + 3;
    for (name, g) in generators() {
        for chunk in CHUNKS {
            let what = format!("{name}, chunk {chunk}");
            // The limit is exactly what the test draws.
            assert_same(
                HelperStream::with_chunk(g.clone(), n as u64, chunk),
                g.clone(),
                n,
                &what,
            );
        }
    }
}

#[test]
fn helper_matches_a_partly_run_source() {
    // The adapter continues a source from wherever it stands.
    let mut g = TraceGenerator::new(&WorkloadSpec::server_like(9));
    for _ in 0..1234 {
        g.next_inst();
    }
    assert_same(
        HelperStream::spawn(g.clone(), u64::MAX),
        g,
        4 * HELPER_CHUNK,
        "resumed",
    );
}

/// A source that owns `alive` and raises `dropped` when it is dropped.
#[derive(Debug)]
struct Tracked {
    inner: TraceGenerator,
    _alive: Arc<()>,
    dropped: Arc<AtomicBool>,
}

impl InstructionStream for Tracked {
    fn next_inst(&mut self) -> TraceInst {
        self.inner.next_inst()
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::SeqCst);
    }
}

#[test]
fn dropping_a_partly_consumed_stream_joins_its_helper() {
    for consumed in [0, 1, HELPER_CHUNK + 5] {
        let alive = Arc::new(());
        let weak: Weak<()> = Arc::downgrade(&alive);
        let dropped = Arc::new(AtomicBool::new(false));
        let mut s = HelperStream::spawn(
            Tracked {
                inner: TraceGenerator::new(&WorkloadSpec::server_like(1)),
                _alive: alive,
                dropped: Arc::clone(&dropped),
            },
            u64::MAX,
        );
        for _ in 0..consumed {
            s.next_inst();
        }
        drop(s);
        // The helper owned the source; it is gone once drop returns.
        assert!(
            weak.upgrade().is_none(),
            "source outlived its stream ({consumed} consumed)"
        );
        assert!(
            dropped.load(Ordering::SeqCst),
            "source not dropped ({consumed} consumed)"
        );
    }
}

/// A source that panics after `left` instructions.
#[derive(Debug)]
struct Failing {
    left: u32,
}

impl InstructionStream for Failing {
    fn next_inst(&mut self) -> TraceInst {
        assert!(self.left > 0, "source ran dry");
        self.left -= 1;
        TraceInst::alu(0x1000)
    }
}

/// Draws from a fresh stream of `source` until it panics and returns the
/// panic message. The consumer runs on its own thread so a hang fails
/// the test instead of stalling it.
fn panic_message<S: InstructionStream + 'static>(source: S, limit: u64) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut s = HelperStream::spawn(source, limit);
            loop {
                s.next_inst();
            }
        }));
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("consumer hung on a dead helper");
    let payload = result.expect_err("consumer must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn a_panicking_source_panics_the_consumer_with_its_reason() {
    for left in [0, 3, 2 * HELPER_CHUNK as u32] {
        let msg = panic_message(Failing { left }, u64::MAX);
        assert!(
            msg.contains("instruction-stream helper panicked") && msg.contains("source ran dry"),
            "unexpected panic message: {msg:?}"
        );
    }
}

#[test]
fn drawing_past_the_limit_panics() {
    let chunk = HELPER_CHUNK as u64;
    for limit in [0, 1, chunk - 1, chunk, chunk + 1, 9 * chunk] {
        // The source itself would run much longer.
        let msg = panic_message(Failing { left: u32::MAX }, limit);
        assert!(
            msg.contains("drawn past its limit"),
            "limit {limit}: unexpected panic message: {msg:?}"
        );
    }
}
