//! Workload inputs, generated from the run seed alone.
//!
//! The simulator only ever sees the [`WorkloadSpec`]s, [`SimRequest`]s
//! and HTTP request lines built here; the same seed always builds the
//! same inputs. The reasons behind each workload's shape are in
//! `README.md` next to this file.

use itpx_bench::SimRequest;
use itpx_core::Preset;
use itpx_cpu::SystemConfig;
use itpx_trace::{ContextSchedule, Profile, SwitchPolicy, TierSchedule, WorkloadSpec};
use itpx_types::Rng64;

/// The two presets every workload compares: the baseline and the
/// paper's headline combination.
pub const PRESETS: [Preset; 2] = [Preset::Lru, Preset::ItpXptp];

/// Functionally executed tail of one fast-forward gap (the engine's
/// warm cap). Gaps at or below it are executed in full, never skipped.
pub const FF_WARM_CAP: u64 = 250_000;

/// `server-flat`: specs per run, and their run lengths.
const FLAT_SPECS: u64 = 2;
const FLAT_WARMUP: u64 = 50_000;
const FLAT_INSTRUCTIONS: u64 = 200_000;

/// `tiered-tenants`: specs per run, and the schedule shape.
const TIER_SPECS: u64 = 2;
const TIER_WARMUP: u64 = 20_000;
const TIER_WINDOW: u64 = 10_000;
const TIER_FF: u64 = 200_000;
const TIER_WINDOWS: u64 = 12;
const TENANTS: u16 = 4;
const QUANTUM: u64 = 50_000;
const SHOOTDOWN_EVERY: u64 = 5_000;

/// `campaign-serve`: distinct short simulations per batch (a quarter
/// each of server/SPEC-like × LRU/iTP+xPTP) and their run lengths.
const CAMPAIGN_SEEDS: u64 = 12;
const SHORT_WARMUP: u64 = 2_000;
const SHORT_INSTRUCTIONS: u64 = 8_000;

/// The i-th derived seed of a run, for the workload numbered `salt`.
/// The run seed is spread by an odd multiplier before the index is
/// added, so nearby run seeds never share derived seeds.
fn derive(seed: u64, salt: u64, i: u64) -> u64 {
    let mixed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
        .wrapping_add(i);
    Rng64::new(mixed).next_u64() % 1_000_000
}

/// A server-like spec with the canonical server profile: the seed picks
/// the concrete code and data pages and the instruction stream, not the
/// footprint, so runs with different seeds load the machine alike.
fn canonical_server(seed: u64) -> WorkloadSpec {
    let mut w = WorkloadSpec::server_like(seed);
    w.profile = Profile::server();
    w
}

/// `server-flat` specs: flat (cycle tier only) runs of the canonical
/// server profile.
pub fn server_flat(seed: u64) -> Vec<WorkloadSpec> {
    (0..FLAT_SPECS)
        .map(|i| {
            canonical_server(derive(seed, 1, i))
                .warmup(FLAT_WARMUP)
                .instructions(FLAT_INSTRUCTIONS)
        })
        .collect()
}

/// `tiered-tenants` specs: four tenants switched round-robin with
/// flushing switches and periodic shootdowns, on a tiered schedule whose
/// gaps stay under the warm cap.
pub fn tiered_tenants(seed: u64) -> Vec<WorkloadSpec> {
    (0..TIER_SPECS)
        .map(|i| {
            canonical_server(derive(seed, 2, i))
                .warmup(TIER_WARMUP)
                .instructions(TIER_WINDOW * TIER_WINDOWS)
                .tiers(TierSchedule::tiered(TIER_WINDOW, TIER_FF, TIER_WINDOWS))
                .contexts(
                    ContextSchedule::round_robin(TENANTS, QUANTUM, SwitchPolicy::FlushAsid)
                        .shootdowns(SHOOTDOWN_EVERY),
                )
        })
        .collect()
}

/// Instructions a spec asks the engine to measure.
pub fn requested(spec: &WorkloadSpec) -> u64 {
    if spec.tiers.is_flat() {
        spec.instructions
    } else {
        spec.tiers.measured_instructions()
    }
}

/// Instructions the engine executes for `spec`: warmup and measured
/// instructions on the cycle tier, plus the functionally executed part
/// of every fast-forward gap.
pub fn executed(spec: &WorkloadSpec) -> u64 {
    let t = spec.tiers;
    let warm_tails = t.windows * t.fast_forward.min(FF_WARM_CAP);
    spec.warmup + requested(spec) + warm_tails
}

/// Program instructions covered after warmup (measured instructions for
/// a flat run; windows plus gaps for a tiered one).
pub fn horizon(spec: &WorkloadSpec) -> u64 {
    if spec.tiers.is_flat() {
        spec.instructions
    } else {
        spec.tiers.horizon()
    }
}

/// One `campaign-serve` simulation: the campaign request and the HTTP
/// request line that names the same simulation.
#[derive(Debug, Clone)]
pub struct ServiceItem {
    /// The batch request.
    pub request: SimRequest,
    /// `/sim?...` target resolving to the same request key.
    pub target: String,
}

/// `campaign-serve` items: short server-like and SPEC-like simulations
/// under both presets, all distinct.
pub fn campaign_items(seed: u64) -> Vec<ServiceItem> {
    let cfg = SystemConfig::asplos25();
    let mut items = Vec::new();
    for i in 0..CAMPAIGN_SEEDS {
        let s = derive(seed, 3, i);
        let families = [
            ("server", WorkloadSpec::server_like(s)),
            ("spec", WorkloadSpec::spec_like(s)),
        ];
        for (family, w) in families {
            let w = w.warmup(SHORT_WARMUP).instructions(SHORT_INSTRUCTIONS);
            for preset in PRESETS {
                let alias: String = preset
                    .name()
                    .chars()
                    .filter(char::is_ascii_alphanumeric)
                    .collect();
                items.push(ServiceItem {
                    request: SimRequest::single(&cfg, preset, &w),
                    target: format!(
                        "/sim?preset={alias}&workload={family}:{s}\
                         &instructions={SHORT_INSTRUCTIONS}&warmup={SHORT_WARMUP}"
                    ),
                });
            }
        }
    }
    items
}

/// The workload spec behind a service item.
pub fn item_spec(item: &ServiceItem) -> &WorkloadSpec {
    match &item.request.unit {
        itpx_bench::SimUnit::Single(w) => w,
        itpx_bench::SimUnit::Pair(_) => unreachable!("service items are single-thread"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(server_flat(5), server_flat(5));
        assert_eq!(tiered_tenants(5), tiered_tenants(5));
        let keys = |s| -> Vec<u64> { campaign_items(s).iter().map(|i| i.request.key()).collect() };
        assert_eq!(keys(5), keys(5));
        assert_ne!(keys(5), keys(6));
    }

    #[test]
    fn nearby_seeds_share_no_inputs() {
        let mut names: Vec<String> = (1..=20).flat_map(server_flat).map(|w| w.name).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn campaign_items_are_distinct() {
        let mut keys: Vec<u64> = campaign_items(1).iter().map(|i| i.request.key()).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }

    #[test]
    fn tiered_gaps_are_executed_in_full() {
        for w in tiered_tenants(1) {
            assert!(w.tiers.fast_forward <= FF_WARM_CAP);
            assert_eq!(executed(&w), w.warmup + horizon(&w));
        }
    }
}
