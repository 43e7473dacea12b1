//! xPTP's Figure 6 semantics inside the real level chain: under L2C
//! eviction pressure, data-PTE blocks outlive payload blocks while the
//! switch is on, and are evicted in plain recency order while it is off.
//!
//! The policy-level unit tests in `itpx-policy`'s `xptp.rs` drive the
//! victim selector directly; this test goes through `Hierarchy` instead,
//! so the PTE `Type` bits are set by real `pte_access` traffic and the
//! pressure comes from real demand fills walking the chain.

use itpx_core::{Xptp, XptpParams, XptpSwitch};
use itpx_mem::hierarchy::{HierarchyPolicies, LevelHooks};
use itpx_mem::{Hierarchy, HierarchyConfig};
use itpx_policy::Lru;
use itpx_types::{Cycle, LevelId, PhysAddr, ThreadId, TranslationKind};

/// The L2C set the test targets. The chain has no frame allocator in the
/// way — physical addresses are chosen directly, so `block % 1024` pins
/// the set.
const TARGET_SET: u64 = 17;
/// L2C set count in `HierarchyConfig::asplos25()`.
const L2C_SETS: u64 = 1024;

/// A paper-shaped chain with an adaptive-xPTP L2C driven by `switch`
/// and prefetch hooks detached (hooks inject timing-driven fills that
/// would blur the eviction accounting).
fn chain_with(switch: XptpSwitch) -> Hierarchy {
    let cfg = HierarchyConfig::asplos25();
    let policies = HierarchyPolicies {
        l1i: Lru::new(64, 8).into(),
        l1d: Lru::new(64, 8).into(),
        l2: Xptp::adaptive(1024, 8, XptpParams::default(), switch).into(),
        llc: Lru::new(2048, 16).into(),
    };
    let mut chain = Hierarchy::new(&cfg, policies);
    for id in [LevelId::L1I, LevelId::L1D, LevelId::L2C, LevelId::Llc] {
        assert!(chain.set_hooks(id, LevelHooks::none()));
    }
    chain
}

/// The physical address of the `i`-th block landing in [`TARGET_SET`].
fn block_in_target_set(i: u64) -> PhysAddr {
    PhysAddr::new((TARGET_SET + i * L2C_SETS) << 6)
}

/// Fills [`TARGET_SET`] with 3 data PTEs, then pours 40 distinct payload
/// blocks through the same set; returns how many PTE blocks survived and
/// the chain itself for further assertions.
fn run_pressure(switch: XptpSwitch) -> (usize, Hierarchy) {
    let mut chain = chain_with(switch);
    let mut now: Cycle = 1;
    let pte_blocks: Vec<PhysAddr> = (0..3).map(block_in_target_set).collect();
    for pa in &pte_blocks {
        chain.pte_access(*pa, TranslationKind::Data, ThreadId(0), now);
        now += 1_000;
    }
    for j in 0..40 {
        // Loads only: clean L1D evictions, so the L2C set sees pure
        // demand-fill pressure.
        let pa = block_in_target_set(100 + j);
        chain.data_access(pa, 0x4000 + j, ThreadId(0), false, false, now);
        now += 1_000;
    }
    let l2c = chain
        .levels()
        .find(|(id, _)| *id == LevelId::L2C)
        .map(|(_, cache)| cache)
        .expect("the paper chain has an L2C");
    let survivors = pte_blocks
        .iter()
        .filter(|pa| l2c.contains(pa.block().index()))
        .count();
    (survivors, chain)
}

#[test]
fn enabled_xptp_keeps_data_ptes_resident_under_pressure() {
    let switch = XptpSwitch::new();
    switch.set(true);
    let (survivors, chain) = run_pressure(switch);
    assert_eq!(
        survivors, 3,
        "with xPTP on, every data PTE must outlive the payload storm"
    );
    let l2c = chain
        .levels()
        .find(|(id, _)| *id == LevelId::L2C)
        .map(|(_, cache)| cache)
        .expect("chain has an L2C");
    assert!(
        l2c.evictions() >= 30,
        "the payload storm must actually overflow the set \
         (got {} evictions)",
        l2c.evictions()
    );
}

#[test]
fn disabled_xptp_degenerates_to_lru_and_evicts_the_ptes() {
    let switch = XptpSwitch::new(); // off: plain LRU victim selection
    let (survivors, _) = run_pressure(switch);
    assert_eq!(
        survivors, 0,
        "with xPTP off, the PTEs are the coldest blocks and LRU evicts them"
    );
}

#[test]
fn flipping_the_switch_mid_run_changes_protection_immediately() {
    // Same pressure pattern, but the switch turns on only after the PTEs
    // have already been filled: the Type bits recorded while "off" must
    // still protect the blocks (paper Section 4.3.1 — no state is lost
    // across phase changes).
    let switch = XptpSwitch::new();
    let mut chain = chain_with(switch.clone());
    let mut now: Cycle = 1;
    let pte_blocks: Vec<PhysAddr> = (0..3).map(block_in_target_set).collect();
    for pa in &pte_blocks {
        chain.pte_access(*pa, TranslationKind::Data, ThreadId(0), now);
        now += 1_000;
    }
    switch.set(true);
    for j in 0..40 {
        let pa = block_in_target_set(100 + j);
        chain.data_access(pa, 0x4000 + j, ThreadId(0), false, false, now);
        now += 1_000;
    }
    let l2c = chain
        .levels()
        .find(|(id, _)| *id == LevelId::L2C)
        .map(|(_, cache)| cache)
        .expect("chain has an L2C");
    let survivors = pte_blocks
        .iter()
        .filter(|pa| l2c.contains(pa.block().index()))
        .count();
    assert_eq!(survivors, 3, "Type bits set before the phase change hold");
}
