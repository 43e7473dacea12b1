//! End-to-end exercise of the `itpx-serve` HTTP layer: raw TCP client,
//! real campaign behind it, warm requests byte-identical to cold ones.

use itpx_bench::{serve, Campaign, RunScale, SimCache};
use itpx_core::Preset;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_scale() -> RunScale {
    RunScale {
        workloads: 2,
        smt_pairs: 1,
        instructions: 2_000,
        warmup: 500,
        host_threads: 1,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itpx-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One blocking GET over a fresh connection; returns (status, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!("GET {path} HTTP/1.1\r\nHost: itpx\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body split")
        .1
        .to_string();
    (status, body)
}

#[test]
fn server_serves_figures_sims_and_metrics() {
    let dir = temp_dir("e2e");
    let campaign = Arc::new(Campaign::new(
        tiny_scale(),
        SimCache::new(Some(dir.clone())),
    ));
    // Port 0: the OS picks a free port, the handle reports it.
    let server = serve::start("127.0.0.1:0", campaign, 2).expect("bind");
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = get(addr, "/figures");
    assert_eq!(status, 200);
    assert!(body.lines().any(|l| l == "fig01"), "fig01 missing: {body}");

    let (status, body) = get(addr, "/figure/not-a-figure");
    assert_eq!(status, 404);
    assert!(body.contains("unknown figure"));

    // Cold then warm: the warm body must be byte-identical (the whole
    // point of serving from the store).
    let (status, cold) = get(addr, "/figure/fig02");
    assert_eq!(status, 200, "cold fig02 failed: {cold}");
    assert!(cold.contains("Figure 2"), "unexpected report: {cold}");
    let (status, warm) = get(addr, "/figure/fig02");
    assert_eq!(status, 200);
    assert_eq!(warm, cold, "warm body must be byte-identical to cold");

    // A single simulation, addressable by preset and workload.
    let (status, sim) = get(addr, "/sim?preset=itpxptp&workload=server:1");
    assert_eq!(status, 200, "sim failed: {sim}");
    assert!(sim.contains("preset: iTP+xPTP"), "sim body: {sim}");
    assert!(sim.contains("ipc:"), "sim body: {sim}");
    let (status, sim_again) = get(addr, "/sim?preset=itpxptp&workload=server:1");
    assert_eq!(status, 200);
    assert_eq!(sim_again, sim, "warm sim must be byte-identical");
    let (status, bad) = get(addr, "/sim?preset=bogus&workload=server:1");
    assert_eq!(status, 400, "bogus preset must 400: {bad}");
    for name in Preset::ALL.map(Preset::name) {
        assert!(bad.contains(name), "the 400 must list {name}: {bad}");
    }
    // Lengths whose sum wraps, or that would run for days, are refused
    // before anything runs or is stored.
    let (status, bad) = get(
        addr,
        "/sim?preset=lru&workload=server:1&instructions=18446744073709551615&warmup=1",
    );
    assert_eq!(status, 400, "overflowing lengths must 400: {bad}");
    let (status, bad) = get(
        addr,
        "/sim?preset=lru&workload=server:1&instructions=10000000000&warmup=1",
    );
    assert_eq!(status, 400, "overlong run must 400: {bad}");

    // Metrics reflect everything above.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("itpx_store_hits"), "metrics: {metrics}");
    assert!(metrics.contains("itpx_store_misses"), "metrics: {metrics}");
    assert!(
        metrics.contains("itpx_layouts_built "),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("itpx_layout_prefetch_hits "),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("itpx_http_queue_depth"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("itpx_http_rejected_total 0\n"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("itpx_figure_latency_ms_bucket{figure=\"fig02\""),
        "fig02 latency histogram missing: {metrics}"
    );
    assert!(
        metrics.contains("itpx_figure_latency_ms_count{figure=\"fig02\"} 2"),
        "fig02 must have been built twice: {metrics}"
    );

    // Non-GET methods are rejected, not crashed on.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /healthz HTTP/1.1\r\nHost: itpx\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 405"), "got: {response}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that connects and sends nothing holds the only worker until
/// the server's read timeout, then gets a 408 and no route; a second
/// client waiting behind it is served after that.
#[test]
fn a_silent_client_does_not_stall_a_one_worker_server() {
    let campaign = Arc::new(Campaign::new(tiny_scale(), SimCache::new(None)));
    let server = serve::start("127.0.0.1:0", campaign, 1).expect("bind");
    let mut silent = TcpStream::connect(server.addr()).expect("connect");
    let mut client = TcpStream::connect(server.addr()).expect("connect");
    // Far above the server's timeout: a stalled server fails the test
    // instead of hanging it.
    let patience = Some(Duration::from_secs(30));
    for stream in [&silent, &client] {
        stream.set_read_timeout(patience).expect("client timeout");
    }
    client
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: itpx\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    client
        .read_to_string(&mut response)
        .expect("the second client was never answered");
    assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
    assert!(response.ends_with("\r\n\r\nok\n"), "got: {response}");
    let mut response = String::new();
    silent.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 408"), "got: {response}");
    server.stop();
}

/// A one-worker server facing more silent connections than its worker
/// and its queue can hold answers the overflow 503 at once, rather than
/// queuing it behind clients that may each hold the worker for the read
/// timeout (2 s), and counts the rejection on `/metrics`. The worker takes
/// at most the first connection before the queue fills, so of
/// `MAX_QUEUED_CONNECTIONS + 2` connections at least one is over.
#[test]
fn a_full_connection_queue_answers_503_at_once() {
    let campaign = Arc::new(Campaign::new(tiny_scale(), SimCache::new(None)));
    let server = serve::start("127.0.0.1:0", campaign, 1).expect("bind");
    let addr = server.addr();
    let started = Instant::now();
    let clients: Vec<TcpStream> = (0..serve::MAX_QUEUED_CONNECTIONS + 2)
        .map(|_| {
            let c = TcpStream::connect(addr).expect("connect");
            c.set_nonblocking(true).expect("non-blocking client");
            c
        })
        .collect();
    // Nothing sends a byte, so within the read timeout only a rejection
    // can put data on any of these sockets.
    let answered = loop {
        let mut byte = [0u8; 1];
        if let Some(c) = clients
            .iter()
            .find(|c| c.peek(&mut byte).is_ok_and(|n| n > 0))
        {
            break c;
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "no connection beyond the queue was answered within 1 s"
        );
        std::thread::yield_now();
    };
    answered.set_nonblocking(false).expect("blocking client");
    let mut response = String::new();
    (&*answered)
        .read_to_string(&mut response)
        .expect("read the rejection");
    assert!(response.starts_with("HTTP/1.1 503"), "got: {response}");
    // Closed clients drain from the queue at once; /metrics queues behind
    // them.
    drop(clients);
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let rejected: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("itpx_http_rejected_total "))
        .expect("rejection counter")
        .parse()
        .expect("numeric counter");
    assert!(rejected >= 1, "metrics: {metrics}");
    server.stop();
}
