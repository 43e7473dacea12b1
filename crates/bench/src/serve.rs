//! Campaign-as-a-service: a dependency-free HTTP/1.1 front-end over the
//! campaign engine.
//!
//! The workspace is offline, so this is a hand-rolled server on
//! [`std::net::TcpListener`] — one accept thread feeding a small worker
//! pool over a bounded queue of [`MAX_QUEUED_CONNECTIONS`]; a connection
//! arriving while it is full gets a 503 from the accept thread and is
//! counted on `/metrics`. Warm requests are answered straight from
//! the segmented store; cold ones are scheduled onto the campaign's
//! runner pool and cached for every later caller.
//!
//! Routes (all `GET`):
//!
//! * `/healthz` — liveness probe.
//! * `/figures` — the reproducible figure names, one per line.
//! * `/figure/<name>` — builds (or re-serves) that figure's full text
//!   report.
//! * `/sim?preset=<name>&workload=server:<seed>|spec:<seed>` — one
//!   simulation; optional `instructions=` and `warmup=` override the
//!   campaign scale's run lengths (together at most
//!   `MAX_SIM_INSTRUCTIONS`).
//! * `/metrics` — Prometheus-style text: store hits/misses, queue
//!   depth and rejections, request totals, generator layout builds and prefetch hits,
//!   per-figure latency histograms.
//!
//! A connection that sends no byte of its request head, or takes none of
//! its response, for two seconds (`IO_TIMEOUT`) is dropped; a head cut short that way
//! gets a 408 and no route.
//!
//! Start it with the `itpx-serve` binary (`ITPX_SERVE_ADDR` picks the
//! bind address) or embed it with [`start`].

use crate::campaign::{Campaign, SimRequest};
use crate::figures;
use itpx_core::Preset;
use itpx_cpu::{SimulationOutput, SystemConfig};
use itpx_trace::{TraceGenerator, WorkloadSpec};
use itpx_types::stats::Histogram;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Buckets of the per-figure latency histogram. Bucket `i` holds
/// `[2^i, 2^(i+1))` ms (bucket 0 also holds 0), so its `le` bound is
/// `2^(i+1) - 1`; the last bucket, from 2^16 ms (about 65 s) up, saturates
/// and renders as `+Inf`.
const LATENCY_BUCKETS: usize = 17;

/// Largest request head (request line + headers) the server will read.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Longest a read of the request head or a write of the response may
/// wait on the client. A client that connects and sends nothing holds a
/// worker this long, not forever.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Connections accepted but not yet taken by a worker, at most. Far above
/// any worker count, so closed-loop clients never meet the bound; a
/// connection flood beyond it is answered 503 instead of queuing without
/// limit.
pub const MAX_QUEUED_CONNECTIONS: usize = 64;

/// One figure's latency: power-of-two buckets plus the sum, rendered in
/// Prometheus text exposition format.
#[derive(Debug, Clone)]
struct FigureLatency {
    hist: Histogram,
    sum_ms: u64,
}

impl FigureLatency {
    fn record(&mut self, ms: u64) {
        self.hist.record(ms);
        self.sum_ms += ms;
    }

    fn render(&self, figure: &str, out: &mut String) {
        let buckets = self.hist.buckets();
        let mut cumulative = 0;
        for (i, n) in buckets[..buckets.len() - 1].iter().enumerate() {
            cumulative += n;
            let le = (2u64 << i) - 1;
            out.push_str(&format!(
                "itpx_figure_latency_ms_bucket{{figure=\"{figure}\",le=\"{le}\"}} {cumulative}\n"
            ));
        }
        let count = self.hist.total();
        out.push_str(&format!(
            "itpx_figure_latency_ms_bucket{{figure=\"{figure}\",le=\"+Inf\"}} {count}\n\
             itpx_figure_latency_ms_sum{{figure=\"{figure}\"}} {}\n\
             itpx_figure_latency_ms_count{{figure=\"{figure}\"}} {count}\n",
            self.sum_ms
        ));
    }
}

/// Locks `mutex` even if a worker panicked while holding it. Every
/// guarded value here (latency histograms, the connection queue) stays
/// consistent across a panic, so a poisoned lock must not take the
/// other workers down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared server counters, scraped by `/metrics`.
#[derive(Debug, Default)]
struct Metrics {
    requests_total: AtomicU64,
    queue_depth: AtomicU64,
    rejected_total: AtomicU64,
    figure_latency: Mutex<BTreeMap<&'static str, FigureLatency>>,
}

impl Metrics {
    fn record_figure(&self, name: &'static str, ms: u64) {
        lock(&self.figure_latency)
            .entry(name)
            .or_insert_with(|| FigureLatency {
                hist: Histogram::new(LATENCY_BUCKETS),
                sum_ms: 0,
            })
            .record(ms);
    }

    fn render(&self, campaign: &Campaign) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter(
            "itpx_http_requests_total",
            "HTTP requests handled.",
            self.requests_total.load(Ordering::Relaxed),
        );
        counter(
            "itpx_http_rejected_total",
            "Connections answered 503 because the queue was full.",
            self.rejected_total.load(Ordering::Relaxed),
        );
        counter(
            "itpx_store_hits",
            "Simulation results served from the segmented store.",
            campaign.cache().hits(),
        );
        counter(
            "itpx_store_misses",
            "Simulation results not found in the store.",
            campaign.cache().misses(),
        );
        counter(
            "itpx_sims_executed",
            "Simulations executed by this process.",
            campaign.executed(),
        );
        counter(
            "itpx_layouts_built",
            "Generator layouts built by this process.",
            TraceGenerator::layouts_built(),
        );
        counter(
            "itpx_layout_prefetch_hits",
            "Generators that took a layout built ahead on an idle core.",
            TraceGenerator::layout_prefetch_hits(),
        );
        out.push_str(&format!(
            "# HELP itpx_http_queue_depth Connections waiting for a worker.\n\
             # TYPE itpx_http_queue_depth gauge\n\
             itpx_http_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP itpx_figure_latency_ms Figure build latency, milliseconds.\n\
             # TYPE itpx_figure_latency_ms histogram\n",
        );
        let hists = lock(&self.figure_latency);
        for (figure, latency) in hists.iter() {
            latency.render(figure, &mut out);
        }
        out
    }
}

/// A running server: address, stop switch, accept-thread handle.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, and joins the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); a throwaway self-connect
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

/// Binds `addr` and serves the campaign on `workers` handler threads.
///
/// Returns once the listener is bound and accepting; the handle's
/// [`ServerHandle::stop`] shuts the server down cleanly.
pub fn start(addr: &str, campaign: Arc<Campaign>, workers: usize) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(Metrics::default());
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(MAX_QUEUED_CONNECTIONS);
    let rx = Arc::new(Mutex::new(rx));
    for _ in 0..workers.max(1) {
        let rx = Arc::clone(&rx);
        let campaign = Arc::clone(&campaign);
        let metrics = Arc::clone(&metrics);
        std::thread::spawn(move || loop {
            let conn = lock(&rx).recv();
            let Ok(stream) = conn else { break };
            metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
            handle_connection(stream, &campaign, &metrics);
        });
    }
    let accept_stop = Arc::clone(&stop);
    let accept = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
            match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(mut stream)) => {
                    metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    metrics.rejected_total.fetch_add(1, Ordering::Relaxed);
                    // A fresh socket's send buffer holds the short answer,
                    // so this write does not wait on the client.
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    respond(&mut stream, 503, "server busy\n");
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
        // Dropping `tx` unblocks every worker's recv().
    });
    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept),
    })
}

/// Reads the request head, routes it, writes one response, closes.
fn handle_connection(mut stream: TcpStream, campaign: &Campaign, metrics: &Metrics) {
    let timeouts = stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)));
    if timeouts.is_err() {
        return;
    }
    let (method, target) = match read_request_head(&mut stream) {
        Ok(head) => head,
        Err(status) => {
            let body = match status {
                408 => "request head timed out\n",
                _ => "bad request\n",
            };
            respond(&mut stream, status, body);
            return;
        }
    };
    metrics.requests_total.fetch_add(1, Ordering::Relaxed);
    if method != "GET" {
        respond(&mut stream, 405, "only GET is served here\n");
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let (status, body) = route(path, query, campaign, metrics);
    respond(&mut stream, status, &body);
}

/// Parses `GET /path?query HTTP/1.1` plus headers (discarded), bounded
/// by [`MAX_REQUEST_BYTES`]. Fails with the status to answer: 408 when
/// the client went silent for [`IO_TIMEOUT`], 400 for a malformed head.
fn read_request_head(stream: &mut TcpStream) -> Result<(String, String), u16> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < MAX_REQUEST_BYTES {
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(408)
            }
            _ => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or_default().split_whitespace();
    match (parts.next(), parts.next()) {
        (Some(method), Some(target)) => Ok((method.to_string(), target.to_string())),
        _ => Err(400),
    }
}

/// Dispatches one parsed request to a route handler.
fn route(path: &str, query: &str, campaign: &Campaign, metrics: &Metrics) -> (u16, String) {
    match path {
        "/healthz" => (200, "ok\n".to_string()),
        "/figures" => {
            let names: Vec<&str> = figures::ALL.iter().map(|f| f.name).collect();
            (200, format!("{}\n", names.join("\n")))
        }
        "/metrics" => (200, metrics.render(campaign)),
        "/sim" => serve_sim(query, campaign),
        _ => match path.strip_prefix("/figure/") {
            Some(name) => serve_figure(name, campaign, metrics),
            None => (404, format!("no route for {path}\n")),
        },
    }
}

/// Builds (or re-serves from the store) one figure's text report.
fn serve_figure(name: &str, campaign: &Campaign, metrics: &Metrics) -> (u16, String) {
    let Some(figure) = figures::by_name(name) else {
        let known: Vec<&str> = figures::ALL.iter().map(|f| f.name).collect();
        return (
            404,
            format!("unknown figure {name:?}; try: {}\n", known.join(", ")),
        );
    };
    let started = Instant::now();
    let report = (figure.build)(campaign);
    let ms = started.elapsed().as_millis() as u64;
    metrics.record_figure(figure.name, ms);
    (200, report.text().to_string())
}

/// Most instructions, warmup plus measured, one `/sim` request may run:
/// about 67 times a paper-scale run (50M warmup + 100M measured, see
/// EXPERIMENTS.md), which is already hours of host time.
const MAX_SIM_INSTRUCTIONS: u64 = 10_000_000_000;

/// `/sim` — one simulation, campaign-cached like any figure request.
/// Lengths whose sum overflows or exceeds [`MAX_SIM_INSTRUCTIONS`] get a
/// 400 before anything runs or reaches the store.
fn serve_sim(query: &str, campaign: &Campaign) -> (u16, String) {
    let params = parse_query(query);
    let Some(preset) = params.get("preset").and_then(|p| preset_by_alias(p)) else {
        let known: Vec<String> = Preset::EVALUATED
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        return (
            400,
            format!("need preset=<name>; one of: {}\n", known.join(", ")),
        );
    };
    let Some(workload) = params.get("workload").and_then(|w| parse_workload(w)) else {
        return (
            400,
            "need workload=server:<seed> or workload=spec:<seed>\n".to_string(),
        );
    };
    let scale = campaign.scale();
    let parse_len = |key: &str, default: u64| {
        params
            .get(key)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(default)
            .max(1)
    };
    let instructions = parse_len("instructions", scale.instructions);
    let warmup = parse_len("warmup", scale.warmup);
    if warmup
        .checked_add(instructions)
        .is_none_or(|total| total > MAX_SIM_INSTRUCTIONS)
    {
        return (
            400,
            format!("warmup + instructions must be at most {MAX_SIM_INSTRUCTIONS}\n"),
        );
    }
    let workload = workload.instructions(instructions).warmup(warmup);
    let req = SimRequest::single(&SystemConfig::asplos25(), preset, &workload);
    let out = campaign.run_one(req);
    (200, render_sim(preset, &workload, &out))
}

/// Stable text rendering of one simulation result.
fn render_sim(preset: Preset, workload: &WorkloadSpec, out: &SimulationOutput) -> String {
    format!(
        "preset: {}\nworkload: {}\ninstructions: {}\nipc: {:.4}\n\
         stlb_mpki: {:.4}\nl2c_mpki: {:.4}\nllc_mpki: {:.4}\nitrans_stall: {:.4}\n",
        preset.name(),
        workload.name,
        out.instructions(),
        out.ipc(),
        out.stlb_mpki(),
        out.l2c_mpki(),
        out.llc_mpki(),
        out.itrans_stall_fraction(),
    )
}

/// Splits `a=1&b=2` into a map, minimally percent-decoding values.
fn parse_query(query: &str) -> BTreeMap<String, String> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .map(|(k, v)| (k.to_string(), percent_decode(v)))
        .collect()
}

/// Decodes `%XX` escapes and `+` spaces; junk escapes pass through.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Matches a preset by case-and-punctuation-insensitive name
/// (`itp+xptp`, `iTP%2BxPTP`, and `itpxptp` all resolve the same).
fn preset_by_alias(raw: &str) -> Option<Preset> {
    let strip = |s: &str| -> String {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect()
    };
    let wanted = strip(raw);
    Preset::EVALUATED
        .into_iter()
        .chain([Preset::ItpXptpStatic, Preset::ItpXptpEmissary])
        .find(|p| strip(p.name()) == wanted)
}

/// Parses `server:<seed>` / `spec:<seed>` workload selectors.
fn parse_workload(raw: &str) -> Option<WorkloadSpec> {
    let (family, seed) = raw.split_once(':')?;
    let seed: u64 = seed.parse().ok()?;
    match family {
        "server" => Some(WorkloadSpec::server_like(seed)),
        "spec" => Some(WorkloadSpec::spec_like(seed)),
        _ => None,
    }
}

/// Writes a complete HTTP/1.1 response and flushes.
fn respond(stream: &mut TcpStream, status: u16, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_decodes_escapes() {
        let q = parse_query("preset=iTP%2BxPTP&workload=server:3&x=a+b");
        assert_eq!(q["preset"], "iTP+xPTP");
        assert_eq!(q["workload"], "server:3");
        assert_eq!(q["x"], "a b");
    }

    #[test]
    fn preset_aliases_are_forgiving() {
        assert_eq!(preset_by_alias("iTP+xPTP"), Some(Preset::ItpXptp));
        assert_eq!(preset_by_alias("itpxptp"), Some(Preset::ItpXptp));
        assert_eq!(preset_by_alias("LRU"), Some(Preset::Lru));
        assert_eq!(preset_by_alias("chirp-tdrrip"), Some(Preset::ChirpTdrrip));
        assert_eq!(preset_by_alias("nonsense"), None);
    }

    #[test]
    fn workload_selectors_parse() {
        assert!(parse_workload("server:7").is_some());
        assert!(parse_workload("spec:1").is_some());
        assert!(parse_workload("desktop:1").is_none());
        assert!(parse_workload("server").is_none());
    }

    #[test]
    fn a_poisoned_metrics_lock_still_serves_metrics() {
        let metrics = Arc::new(Metrics::default());
        metrics.record_figure("fig02", 5);
        let holder = Arc::clone(&metrics);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.figure_latency.lock();
            panic!("worker dies holding the metrics lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(metrics.figure_latency.is_poisoned());
        let scale = crate::RunScale {
            workloads: 1,
            smt_pairs: 1,
            instructions: 1_000,
            warmup: 100,
            host_threads: 1,
        };
        let campaign = Campaign::new(scale, crate::SimCache::new(None));
        metrics.record_figure("fig02", 7);
        let (status, body) = route("/metrics", "", &campaign, &metrics);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("itpx_figure_latency_ms_count{figure=\"fig02\"} 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let metrics = Metrics::default();
        for ms in [0, 3, 100_000] {
            metrics.record_figure("fig02", ms);
        }
        let mut out = String::new();
        lock(&metrics.figure_latency)["fig02"].render("fig02", &mut out);
        let bucket = |le: &str| {
            let prefix = format!("itpx_figure_latency_ms_bucket{{figure=\"fig02\",le=\"{le}\"}} ");
            let count = out.lines().find_map(|l| l.strip_prefix(&prefix));
            count.expect(le).parse::<u64>().expect("count")
        };
        assert_eq!(bucket("1"), 1, "0 ms lands in the first bucket");
        assert_eq!(bucket("3"), 2, "3 ms lands in [2, 4)");
        assert_eq!(bucket("65535"), 2, "100 s is past the last finite bound");
        assert_eq!(bucket("+Inf"), 3);
        assert!(out.contains("itpx_figure_latency_ms_sum{figure=\"fig02\"} 100003\n"));
        assert!(out.contains("itpx_figure_latency_ms_count{figure=\"fig02\"} 3\n"));
    }
}
