//! `campaign-serve`: a cold `Campaign::run_batch` into a fresh store,
//! warm batch replays that read the store back, then closed-loop warm
//! `/sim` requests over raw TCP against `serve::start`.

use crate::calib::{at_reference, Calibrator, RoundTiming};
use crate::checks::Checks;
use crate::inputs::{self, ServiceItem};
use crate::spans::Tracer;
use itpx_bench::{serve, Campaign, RunScale, SegmentStore, SimCache, SimRequest, StoreConfig};
use itpx_cpu::SimulationOutput;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads: the benchmark host has two cores.
const SERVER_WORKERS: usize = 2;
/// Campaign pool threads. With two, the process's peak memory varied
/// twice as much between runs (two short simulations in flight at
/// once, in whichever allocator arenas their threads got), and the
/// batch time varied no less.
const CAMPAIGN_THREADS: usize = 1;
/// Warm batch replays per round.
const WARM_PASSES: usize = 20;
/// Closed-loop HTTP requests per round (one connection at a time).
const HTTP_REQUESTS: usize = 1_000;
/// A request not answered within this long counts as failed.
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

fn scale() -> RunScale {
    RunScale {
        workloads: 1,
        smt_pairs: 1,
        instructions: 1,
        warmup: 1,
        host_threads: CAMPAIGN_THREADS,
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct ServiceRound {
    /// Cold batch wall time as the work; one set-up figure (median
    /// back-to-back `Preset::build` + `System::new`, plus store open and
    /// server start); the host speed around store open and cold batch.
    pub timing: RoundTiming,
    /// Cold batch outputs, in request order.
    pub outs: Vec<SimulationOutput>,
    /// Wall time of each warm replay pass.
    pub warm_s: Vec<f64>,
    /// Cache hits over the warm passes.
    pub warm_hits: u64,
    /// Cache lookups over the warm passes.
    pub warm_lookups: u64,
    /// Latency of each HTTP request that got an answer, in seconds.
    pub http_latency_s: Vec<f64>,
    /// HTTP phase wall time.
    pub http_s: f64,
    /// HTTP requests attempted.
    pub http_attempted: u64,
    /// HTTP requests that failed (non-200, wrong body, connection error).
    pub http_failed: u64,
}

/// Reference bodies: the first answer seen for each request target.
pub type Bodies = BTreeMap<String, Vec<u8>>;

/// Runs one round in a fresh store under `dir` (removed afterwards).
/// Host speed is calibrated around the store open and the cold batch.
pub fn round(
    items: &[ServiceItem],
    dir: &Path,
    first: Option<&ServiceRound>,
    bodies: &mut Bodies,
    cal: &mut Calibrator,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> ServiceRound {
    let _ = std::fs::remove_dir_all(dir);
    let requests: Vec<SimRequest> = items.iter().map(|i| i.request.clone()).collect();
    let mut r = ServiceRound::default();
    tracer.next_request();
    tracer.open("round");

    // Set-up: machine builds, the store, the campaign.
    let (machine, _) = crate::sims::machine_setups(cal, tracer);
    let mut setup_s = crate::stats::median(&machine);
    let before = cal.speed();
    let t = Instant::now();
    let campaign = tracer.span("bench.store.open", || {
        Campaign::new(scale(), SimCache::new(Some(dir.to_path_buf())))
    });
    setup_s += t.elapsed().as_secs_f64();

    // Cold pass: every request simulates and is written to the store.
    let t = Instant::now();
    r.outs = tracer.span("bench.campaign.cold", || {
        campaign.run_batch(requests.clone())
    });
    let cold_s = t.elapsed().as_secs_f64();
    let speed = (before + cal.speed()) / 2.0;
    let executed_all = campaign.executed() == requests.len() as u64;
    for (i, (item, out)) in items.iter().zip(&r.outs).enumerate() {
        let repeat = first.map(|f| &f.outs[i]);
        checks.expect(
            executed_all
                && out.instructions() == inputs::requested(inputs::item_spec(item))
                && repeat.is_none_or(|f| f == out),
            || format!("cold {}: wrong or unrepeatable output", item.target),
        );
    }
    drop(campaign);

    // Warm replays: a fresh cache over the same store each pass, so
    // every result is read back from disk and decoded.
    for _ in 0..WARM_PASSES {
        let t = Instant::now();
        let (outs, hits, lookups) = tracer.span("bench.campaign.warm", || {
            let c = Campaign::new(scale(), SimCache::new(Some(dir.to_path_buf())));
            let outs = c.run_batch(requests.clone());
            let hits = c.cache().hits();
            (outs, hits, hits + c.cache().misses())
        });
        r.warm_s.push(t.elapsed().as_secs_f64());
        r.warm_hits += hits;
        r.warm_lookups += lookups;
        checks.expect(outs == r.outs, || {
            "warm replay differs from the cold pass".into()
        });
    }

    // Warm HTTP: closed loop, one connection at a time.
    let t = Instant::now();
    let campaign = Arc::new(Campaign::new(
        scale(),
        SimCache::new(Some(dir.to_path_buf())),
    ));
    let server = tracer.span("bench.serve.start", || {
        serve::start("127.0.0.1:0", campaign, SERVER_WORKERS)
    });
    setup_s += t.elapsed().as_secs_f64();
    match server {
        Ok(server) => {
            let t = Instant::now();
            for i in 0..HTTP_REQUESTS {
                let item = &items[i % items.len()];
                tracer.next_request();
                let sent = Instant::now();
                let reply = tracer.span("bench.serve.request", || get(server.addr(), &item.target));
                let latency = sent.elapsed().as_secs_f64();
                let ok = match reply {
                    Ok((200, body)) => {
                        let expected =
                            format!("instructions: {}\n", r.outs[i % items.len()].instructions());
                        let reference = bodies
                            .entry(item.target.clone())
                            .or_insert_with(|| body.clone());
                        *reference == body && contains(&body, expected.as_bytes())
                    }
                    _ => false,
                };
                r.http_attempted += 1;
                if ok {
                    r.http_latency_s.push(latency);
                } else {
                    r.http_failed += 1;
                }
                checks.expect(ok, || {
                    format!("GET {}: no identical 200 reply", item.target)
                });
            }
            r.http_s = t.elapsed().as_secs_f64();
            tracer.span("bench.serve.stop", || server.stop());
        }
        Err(e) => checks.expect(false, || format!("server failed to start: {e}")),
    }
    r.timing = RoundTiming {
        work_s: cold_s,
        work_ref_s: at_reference(cold_s, speed),
        setup_s: vec![setup_s],
        setup_ref_s: vec![at_reference(setup_s, speed)],
        speeds: vec![speed],
    };
    tracer.close();
    let _ = std::fs::remove_dir_all(dir);
    r
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// One `GET` over a fresh connection: status code and body.
fn get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, HTTP_TIMEOUT)?;
    stream.set_read_timeout(Some(HTTP_TIMEOUT))?;
    stream.set_write_timeout(Some(HTTP_TIMEOUT))?;
    stream.write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed reply");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// Store passes per replay: each opens fresh instances, so every pass
/// scans the segments again.
const STORE_PASSES: usize = 10;

/// Per-layer replay of the store under the cache: `SegmentStore::get`
/// of every result, `SegmentStore::insert` of the same entries into a
/// second store, and `SimCache::get` (store read plus decode) on a fresh
/// cache. Returns the number of keys.
pub fn store_replay(
    items: &[ServiceItem],
    outs: &[SimulationOutput],
    dir: &Path,
    tracer: &mut Tracer,
) -> usize {
    let (src, dst) = (dir.join("src"), dir.join("dst"));
    let _ = std::fs::remove_dir_all(dir);
    let keys: Vec<u64> = items.iter().map(|i| i.request.key()).collect();
    let cache = SimCache::new(Some(src.clone()));
    for (key, out) in keys.iter().zip(outs) {
        cache.insert(*key, out);
    }
    for pass in 0..STORE_PASSES {
        let store = SegmentStore::new(src.clone(), StoreConfig::default());
        let entries: Vec<Vec<u8>> = keys
            .iter()
            .map(|&k| {
                tracer
                    .span("bench.store.get", || store.get(k))
                    .unwrap_or_default()
            })
            .collect();
        let copy = SegmentStore::new(dst.join(pass.to_string()), StoreConfig::default());
        for (&k, e) in keys.iter().zip(&entries) {
            tracer.span("bench.store.insert", || copy.insert(k, e));
        }
        let fresh = SimCache::new(Some(src.clone()));
        for &k in &keys {
            drop(tracer.span("bench.simcache.get", || fresh.get(k)));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    keys.len()
}
