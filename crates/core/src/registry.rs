//! A registry of every replacement policy in the workspace.
//!
//! `cargo xtask analyze` and the cross-policy test suites need to
//! instantiate *all* policies uniformly — for the hardware-budget audit,
//! for the [`itpx_policy::CheckedPolicy`] contract drive, for the
//! decision digests, and for the name-stability test. This module is the
//! single place that knows how to build each one, so a policy added to the
//! workspace only has to be registered here to be covered by every audit.
//! Each entry builds the enum engine the simulated machine runs, so every
//! audit drives exactly what the machine executes.
//!
//! Stochastic policies are built from fixed seeds; the registry is fully
//! deterministic.

use crate::adaptive::XptpSwitch;
use crate::itp::{Itp, ItpParams};
use crate::xptp::{Xptp, XptpParams};
use itpx_policy::{
    Brrip, CacheMeta, Chirp, Dip, Drrip, Lru, Mockingjay, PolicyMeta, ProbKeepInstrLru, Ptp,
    RandomEvict, Ship, Srrip, TlbMeta, TreePlru,
};

/// Seed used for every stochastic policy the registry builds.
pub const REGISTRY_SEED: u64 = 0x1735_c0de;

/// One registered policy: its stable name, how to size-and-build it, and
/// the policy whose storage it extends (for overhead-over-baseline
/// accounting in the budget audit).
pub struct PolicyEntry<M: PolicyMeta> {
    /// The policy's `name()` — stable across releases, used in reports.
    pub name: &'static str,
    /// Baseline policy (by registry name) the budget audit subtracts to get
    /// the *overhead* this policy adds; `None` for self-contained designs.
    pub baseline: Option<&'static str>,
    /// Geometry constraint: `true` when the policy's tree structure needs a
    /// power-of-two associativity (tree PLRU).
    pub pow2_ways_only: bool,
    /// Builds the policy for a `sets × ways` structure into its enum-engine
    /// variant — the form the simulated machine runs and every audit
    /// drives. `engine_covers_registry` asserts none falls back to the
    /// engines' `Dyn` escape hatch.
    pub build: fn(usize, usize) -> M::Engine,
}

impl<M: PolicyMeta> PolicyEntry<M> {
    /// Whether this policy can be built at the given associativity.
    pub fn supports_ways(&self, ways: usize) -> bool {
        ways >= 2 && (!self.pow2_ways_only || ways.is_power_of_two())
    }
}

impl<M: PolicyMeta> std::fmt::Debug for PolicyEntry<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyEntry")
            .field("name", &self.name)
            .field("baseline", &self.baseline)
            .finish()
    }
}

/// iTP parameters that satisfy `N < M < ways` for any associativity ≥ 2:
/// Table 1 defaults when they fit, proportionally scaled otherwise.
pub fn itp_params_for(ways: usize) -> ItpParams {
    let d = ItpParams::default();
    if d.m < ways {
        d
    } else {
        let n = ways / 3;
        ItpParams {
            n,
            m: (2 * ways / 3).max(n + 1).min(ways - 1),
            ..d
        }
    }
}

/// xPTP parameters for any associativity: Table 1's `K = 8` capped at the
/// number of ways (strict protection for narrower structures).
pub fn xptp_params_for(ways: usize) -> XptpParams {
    XptpParams {
        k: XptpParams::default().k.min(ways),
    }
}

/// Every cache replacement policy in the workspace (the Table 2 field, the
/// LLC comparators, and the paper's L2C proposals and extensions).
pub fn cache_policies() -> Vec<PolicyEntry<CacheMeta>> {
    vec![
        PolicyEntry {
            name: "lru",
            baseline: None,
            pow2_ways_only: false,
            build: |s, w| Lru::new(s, w).into(),
        },
        PolicyEntry {
            name: "tree-plru",
            baseline: None,
            pow2_ways_only: true,
            build: |s, w| TreePlru::new(s, w).into(),
        },
        PolicyEntry {
            name: "random",
            baseline: None,
            pow2_ways_only: false,
            build: |_, w| RandomEvict::new(w, REGISTRY_SEED).into(),
        },
        PolicyEntry {
            name: "srrip",
            baseline: None,
            pow2_ways_only: false,
            build: |s, w| Srrip::new(s, w).into(),
        },
        PolicyEntry {
            name: "brrip",
            baseline: None,
            pow2_ways_only: false,
            build: |s, w| Brrip::new(s, w, REGISTRY_SEED).into(),
        },
        PolicyEntry {
            name: "drrip",
            baseline: None,
            pow2_ways_only: false,
            build: |s, w| Drrip::new(s, w, REGISTRY_SEED).into(),
        },
        PolicyEntry {
            name: "dip",
            baseline: Some("lru"),
            pow2_ways_only: false,
            build: |s, w| Dip::new(s, w, REGISTRY_SEED).into(),
        },
        PolicyEntry {
            name: "ship",
            baseline: None,
            pow2_ways_only: false,
            build: |s, w| Ship::new(s, w).into(),
        },
        PolicyEntry {
            name: "tship",
            baseline: Some("ship"),
            pow2_ways_only: false,
            build: |s, w| Ship::translation_aware(s, w).into(),
        },
        PolicyEntry {
            name: "mockingjay",
            baseline: None,
            pow2_ways_only: false,
            build: |s, w| Mockingjay::new(s, w).into(),
        },
        PolicyEntry {
            name: "ptp",
            baseline: Some("lru"),
            pow2_ways_only: false,
            build: |s, w| Ptp::new(s, w).into(),
        },
        PolicyEntry {
            name: "tdrrip",
            baseline: Some("srrip"),
            pow2_ways_only: false,
            build: |s, w| Drrip::translation_aware(s, w, REGISTRY_SEED).into(),
        },
        PolicyEntry {
            name: "xptp",
            baseline: Some("lru"),
            pow2_ways_only: false,
            build: |s, w| Xptp::new(s, w, xptp_params_for(w)).into(),
        },
        PolicyEntry {
            name: "xptp/lru",
            baseline: Some("lru"),
            pow2_ways_only: false,
            build: |s, w| Xptp::adaptive(s, w, xptp_params_for(w), XptpSwitch::new()).into(),
        },
        PolicyEntry {
            name: "xptp+emissary",
            baseline: Some("lru"),
            pow2_ways_only: false,
            build: |s, w| Xptp::with_emissary(s, w, xptp_params_for(w)).into(),
        },
    ]
}

/// Every TLB replacement policy in the workspace.
pub fn tlb_policies() -> Vec<PolicyEntry<TlbMeta>> {
    vec![
        PolicyEntry {
            name: "lru",
            baseline: None,
            pow2_ways_only: false,
            build: |s, w| Lru::new(s, w).into(),
        },
        PolicyEntry {
            name: "tree-plru",
            baseline: None,
            pow2_ways_only: true,
            build: |s, w| TreePlru::new(s, w).into(),
        },
        PolicyEntry {
            name: "random",
            baseline: None,
            pow2_ways_only: false,
            build: |_, w| RandomEvict::new(w, REGISTRY_SEED).into(),
        },
        PolicyEntry {
            name: "chirp",
            baseline: Some("lru"),
            pow2_ways_only: false,
            build: |s, w| Chirp::new(s, w).into(),
        },
        PolicyEntry {
            name: "prob-keep-instr-lru",
            baseline: Some("lru"),
            pow2_ways_only: false,
            build: |s, w| ProbKeepInstrLru::new(s, w, 0.5, REGISTRY_SEED).into(),
        },
        PolicyEntry {
            name: "itp",
            baseline: Some("lru"),
            pow2_ways_only: false,
            build: |s, w| Itp::new(s, w, itp_params_for(w)).into(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_resolve_within_the_registry() {
        let cache: Vec<_> = cache_policies();
        for e in &cache {
            if let Some(b) = e.baseline {
                assert!(cache.iter().any(|o| o.name == b), "{}: {b}", e.name);
            }
        }
        let tlb: Vec<_> = tlb_policies();
        for e in &tlb {
            if let Some(b) = e.baseline {
                assert!(tlb.iter().any(|o| o.name == b), "{}: {b}", e.name);
            }
        }
    }

    #[test]
    fn itp_params_fit_small_associativities() {
        for ways in 2..=16 {
            itp_params_for(ways).validate(ways);
        }
    }

    #[test]
    fn xptp_params_fit_small_associativities() {
        for ways in 1..=16 {
            let p = xptp_params_for(ways);
            assert!(p.k >= 1 && p.k <= ways);
        }
    }
}
