//! Validated parsing of `ITPX_*` environment variables.
//!
//! The knobs are documented on [`crate::harness::RunScale`] and
//! [`crate::simcache::SimCache`]. Historically a typo like
//! `ITPX_THREADS=eight` or a hostile `ITPX_THREADS=0` fell through
//! *silently* to the default (or worse, to a zero-thread sweep); the
//! parsers here validate, clamp, and report what they rejected. Each
//! distinct complaint is printed to stderr once per process — scale
//! variables are consulted by every figure and binary, and a warning per
//! consultation would drown the report output.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// Complaints already printed, so each is emitted once per process.
static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Prints `message` to stderr unless an identical message was already
/// printed by this process.
pub fn warn_once(message: &str) {
    let mut seen = WARNED.lock().expect("env warn set poisoned");
    if seen.insert(message.to_string()) {
        eprintln!("warning: {message}");
    }
}

/// Parses a numeric environment value. Returns the value to use and an
/// optional complaint:
///
/// * unset → `default`, no complaint;
/// * a valid number below `min` → clamped to `min`, with a complaint
///   (`ITPX_THREADS=0` means a sweep that can never run a job);
/// * non-numeric junk → `default`, with a complaint.
pub fn parse_count(name: &str, raw: Option<&str>, default: u64, min: u64) -> (u64, Option<String>) {
    let Some(raw) = raw else {
        return (default, None);
    };
    match raw.trim().parse::<u64>() {
        Ok(v) if v >= min => (v, None),
        Ok(v) => (
            min,
            Some(format!(
                "{name}={v} is below the minimum {min}; using {min}"
            )),
        ),
        Err(_) => (
            default,
            Some(format!(
                "{name}={raw:?} is not a number; using the default {default}"
            )),
        ),
    }
}

/// Parses a boolean switch. `0`, `false`, and `off` (case-insensitive)
/// disable; `1`, `true`, and `on` enable; unset keeps `default`; anything
/// else keeps `default` with a complaint.
pub fn parse_switch(name: &str, raw: Option<&str>, default: bool) -> (bool, Option<String>) {
    let Some(raw) = raw else {
        return (default, None);
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "0" | "false" | "off" => (false, None),
        "1" | "true" | "on" => (true, None),
        _ => (
            default,
            Some(format!(
                "{name}={raw:?} is not a recognized switch value \
                 (use 0/false/off or 1/true/on); using the default \
                 ({})",
                if default { "enabled" } else { "disabled" }
            )),
        ),
    }
}

/// Default listen address for `itpx-serve` (`ITPX_SERVE_ADDR`).
pub const SERVE_ADDR_DEFAULT: &str = "127.0.0.1:7425";

/// Parses the shard layout knobs. `ITPX_SHARDS` is the process-count the
/// campaign is split across (min 1, default 1 = classic single-process);
/// `ITPX_SHARD_INDEX` selects this process's key-range chunk and must be
/// below the shard count — an out-of-range index clamps to the last
/// shard with a complaint (running a *duplicate* of another shard would
/// silently waste a whole process). Returns `(shards, index)` plus the
/// complaints for the caller to route through [`warn_once`].
pub fn parse_shard_layout(
    shards_raw: Option<&str>,
    index_raw: Option<&str>,
) -> ((u64, u64), Vec<String>) {
    let mut complaints = Vec::new();
    let (shards, c) = parse_count("ITPX_SHARDS", shards_raw, 1, 1);
    complaints.extend(c);
    let (mut index, c) = parse_count("ITPX_SHARD_INDEX", index_raw, 0, 0);
    complaints.extend(c);
    if index >= shards {
        complaints.push(format!(
            "ITPX_SHARD_INDEX={index} is out of range for ITPX_SHARDS={shards}; \
             using the last shard ({})",
            shards - 1
        ));
        index = shards - 1;
    }
    ((shards, index), complaints)
}

/// [`parse_shard_layout`] applied to the live environment, with
/// complaints routed through [`warn_once`].
pub fn shard_layout_from_env() -> (u64, u64) {
    let shards = std::env::var("ITPX_SHARDS").ok();
    let index = std::env::var("ITPX_SHARD_INDEX").ok();
    let (layout, complaints) = parse_shard_layout(shards.as_deref(), index.as_deref());
    for c in &complaints {
        warn_once(c);
    }
    layout
}

/// Parses `ITPX_SERVE_ADDR`: any string that parses as a socket address
/// passes through; junk falls back to [`SERVE_ADDR_DEFAULT`] with a
/// complaint (a server silently binding the wrong port is worse than a
/// warning).
pub fn parse_serve_addr(raw: Option<&str>) -> (String, Option<String>) {
    let Some(raw) = raw else {
        return (SERVE_ADDR_DEFAULT.to_string(), None);
    };
    let trimmed = raw.trim();
    match trimmed.parse::<std::net::SocketAddr>() {
        Ok(addr) => (addr.to_string(), None),
        Err(_) => (
            SERVE_ADDR_DEFAULT.to_string(),
            Some(format!(
                "ITPX_SERVE_ADDR={raw:?} is not an <ip>:<port> address; \
                 using the default {SERVE_ADDR_DEFAULT}"
            )),
        ),
    }
}

/// [`parse_serve_addr`] applied to the live environment, with the
/// complaint routed through [`warn_once`].
pub fn serve_addr_from_env() -> String {
    let raw = std::env::var("ITPX_SERVE_ADDR").ok();
    let (addr, complaint) = parse_serve_addr(raw.as_deref());
    if let Some(c) = complaint {
        warn_once(&c);
    }
    addr
}

/// Parses `ITPX_SIMCACHE_MAX_MB` into an on-disk byte budget: unset or
/// `0` means unbounded (`None`), anything else caps the segmented store.
/// Junk keeps the default (unbounded) with a complaint.
pub fn parse_simcache_max_bytes(raw: Option<&str>) -> (Option<u64>, Option<String>) {
    let (mb, complaint) = parse_count("ITPX_SIMCACHE_MAX_MB", raw, 0, 0);
    (if mb == 0 { None } else { Some(mb << 20) }, complaint)
}

/// [`parse_simcache_max_bytes`] applied to the live environment, with
/// the complaint routed through [`warn_once`].
pub fn simcache_max_bytes_from_env() -> Option<u64> {
    let raw = std::env::var("ITPX_SIMCACHE_MAX_MB").ok();
    let (cap, complaint) = parse_simcache_max_bytes(raw.as_deref());
    if let Some(c) = complaint {
        warn_once(&c);
    }
    cap
}

/// [`parse_count`] applied to the live environment, with the complaint
/// routed through [`warn_once`].
pub fn count_from_env(name: &str, default: u64, min: u64) -> u64 {
    let raw = std::env::var(name).ok();
    let (value, complaint) = parse_count(name, raw.as_deref(), default, min);
    if let Some(c) = complaint {
        warn_once(&c);
    }
    value
}

/// [`parse_switch`] applied to the live environment, with the complaint
/// routed through [`warn_once`].
pub fn switch_from_env(name: &str, default: bool) -> bool {
    let raw = std::env::var(name).ok();
    let (value, complaint) = parse_switch(name, raw.as_deref(), default);
    if let Some(c) = complaint {
        warn_once(&c);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    // Only the pure parsers are tested: tests run concurrently in one
    // process, so mutating the real environment would race.

    #[test]
    fn unset_uses_the_default_silently() {
        assert_eq!(parse_count("ITPX_THREADS", None, 4, 1), (4, None));
        assert_eq!(parse_switch("ITPX_SIMCACHE", None, true), (true, None));
    }

    #[test]
    fn valid_values_pass_through_silently() {
        assert_eq!(parse_count("ITPX_THREADS", Some("8"), 4, 1), (8, None));
        assert_eq!(parse_count("ITPX_THREADS", Some(" 2 "), 4, 1), (2, None));
        assert_eq!(
            parse_switch("ITPX_SIMCACHE", Some("0"), true),
            (false, None)
        );
        assert_eq!(
            parse_switch("ITPX_SIMCACHE", Some("off"), true),
            (false, None)
        );
        assert_eq!(
            parse_switch("ITPX_SIMCACHE", Some("1"), false),
            (true, None)
        );
    }

    #[test]
    fn zero_threads_clamps_to_the_minimum_with_a_complaint() {
        let (v, complaint) = parse_count("ITPX_THREADS", Some("0"), 4, 1);
        assert_eq!(v, 1, "a zero-thread sweep can never run a job");
        let c = complaint.expect("clamping must be reported");
        assert!(c.contains("ITPX_THREADS=0"), "{c}");
    }

    #[test]
    fn junk_counts_fall_back_with_a_complaint() {
        for junk in ["eight", "", "-3", "1.5", "0x10"] {
            let (v, complaint) = parse_count("ITPX_WORKLOADS", Some(junk), 16, 1);
            assert_eq!(v, 16, "junk {junk:?} must keep the default");
            let c = complaint.expect("junk must be reported");
            assert!(c.contains("ITPX_WORKLOADS"), "{c}");
        }
    }

    #[test]
    fn junk_switches_keep_the_default_with_a_complaint() {
        let (v, complaint) = parse_switch("ITPX_SIMCACHE", Some("maybe"), true);
        assert!(v, "junk must keep the default");
        assert!(complaint.expect("junk must be reported").contains("maybe"));
        let (v, complaint) = parse_switch("ITPX_SIMCACHE", Some("2"), true);
        assert!(v);
        assert!(complaint.is_some());
    }

    #[test]
    fn shard_layout_defaults_to_one_unsharded_process() {
        assert_eq!(parse_shard_layout(None, None), ((1, 0), Vec::new()));
        let ((s, i), c) = parse_shard_layout(Some("4"), Some("2"));
        assert_eq!((s, i), (4, 2));
        assert!(c.is_empty());
    }

    #[test]
    fn shard_index_out_of_range_clamps_with_a_complaint() {
        // index == shards (one past the end) and far beyond both clamp
        // to the last shard; a duplicate shard would silently waste a
        // process.
        for idx in ["2", "17"] {
            let ((s, i), c) = parse_shard_layout(Some("2"), Some(idx));
            assert_eq!((s, i), (2, 1), "ITPX_SHARD_INDEX={idx}");
            assert_eq!(c.len(), 1);
            assert!(c[0].contains("ITPX_SHARD_INDEX"), "{}", c[0]);
        }
        // An unset index with sharding on is shard 0, silently.
        assert_eq!(parse_shard_layout(Some("2"), None), ((2, 0), Vec::new()));
    }

    #[test]
    fn shard_zero_clamps_to_one() {
        let ((s, i), c) = parse_shard_layout(Some("0"), None);
        assert_eq!((s, i), (1, 0), "a zero-shard campaign cannot run");
        assert_eq!(c.len(), 1);
        assert!(c[0].contains("ITPX_SHARDS=0"), "{}", c[0]);
    }

    #[test]
    fn shard_junk_falls_back_with_complaints() {
        let ((s, i), c) = parse_shard_layout(Some("many"), Some("first"));
        assert_eq!((s, i), (1, 0));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn serve_addr_accepts_socket_addresses() {
        assert_eq!(
            parse_serve_addr(None),
            (SERVE_ADDR_DEFAULT.to_string(), None)
        );
        assert_eq!(
            parse_serve_addr(Some("0.0.0.0:8080")),
            ("0.0.0.0:8080".to_string(), None)
        );
        assert_eq!(
            parse_serve_addr(Some(" 127.0.0.1:0 ")),
            ("127.0.0.1:0".to_string(), None)
        );
    }

    #[test]
    fn serve_addr_junk_falls_back_with_a_complaint() {
        for junk in ["localhost", "7425", "http://x:1", ""] {
            let (addr, complaint) = parse_serve_addr(Some(junk));
            assert_eq!(addr, SERVE_ADDR_DEFAULT, "junk {junk:?}");
            let c = complaint.expect("junk must be reported");
            assert!(c.contains("ITPX_SERVE_ADDR"), "{c}");
        }
    }

    #[test]
    fn simcache_cap_zero_and_unset_mean_unbounded() {
        assert_eq!(parse_simcache_max_bytes(None), (None, None));
        assert_eq!(parse_simcache_max_bytes(Some("0")), (None, None));
        let (cap, c) = parse_simcache_max_bytes(Some("64"));
        assert_eq!(cap, Some(64 << 20));
        assert!(c.is_none());
    }

    #[test]
    fn simcache_cap_junk_keeps_unbounded_with_a_complaint() {
        let (cap, complaint) = parse_simcache_max_bytes(Some("big"));
        assert_eq!(cap, None);
        assert!(complaint
            .expect("junk must be reported")
            .contains("ITPX_SIMCACHE_MAX_MB"));
    }

    #[test]
    fn warn_once_deduplicates() {
        // Purely behavioral: the second call must not panic and the set
        // must absorb duplicates (output itself goes to stderr).
        warn_once("difftest-env-test: duplicate complaint");
        warn_once("difftest-env-test: duplicate complaint");
        let seen = WARNED.lock().expect("env warn set poisoned");
        assert_eq!(
            seen.iter()
                .filter(|m| m.contains("difftest-env-test"))
                .count(),
            1
        );
    }
}
