//! The warm-path oracle: a fast-forward's warm path against the
//! functional reference.
//!
//! A tiered run's fast-forwards drive the cycle machine's own structures
//! through untimed warm paths (`System::warm_fetch`, `System::warm_data`).
//! Under LRU the functional reference machine is the obviously-correct
//! model of what those paths must leave behind, so after each fuzzed
//! event list every TLB entry, cache block and PSC node the list touched
//! must be resident in both machines or in neither (asked through the
//! non-mutating queries `Tlb::contains_tagged`, `Cache::contains` and
//! `SplitPscs::contains_vpn`), and every touched block dirty in both or
//! in neither (`Cache::is_dirty`): warm fills, victims, dirty-block
//! routing and flushes agree. The warm path must also count nothing.

use crate::driver::{check_with, system_for};
use crate::events::{tenants_in, Event, EventKind};
use crate::refmodel::RefMachine;
use crate::report::DiffReport;
use itpx_cpu::{System, SystemConfig};
use itpx_mem::HierarchyConfig;
use itpx_trace::fuzz::FuzzSpec;
use itpx_types::{Asid, PageSize, ThreadId, VirtAddr};
use itpx_vm::{namespaced_vpn, LastLevelTlb, Translation};

/// Executes one event on the optimized machine's warm path.
fn apply_warm(sys: &mut System, ev: &Event) {
    let va = VirtAddr::new(ev.va);
    match ev.kind {
        EventKind::Fetch => sys.warm_fetch(va, ThreadId(0)),
        EventKind::Load => sys.warm_data(va, ev.pc, ThreadId(0), false),
        EventKind::Store => sys.warm_data(va, ev.pc, ThreadId(0), true),
        EventKind::Switch { asid, flush } => sys.context_switch(asid, flush),
        EventKind::Shootdown { asid } => sys.shootdown(va, asid),
    }
}

/// Compares both machines on every structure key the access to `va`
/// under `asid`, translated as `tr`, touched; names each mismatch in
/// `out`.
fn compare_residency(
    sys: &System,
    reference: &RefMachine,
    (va, asid, tr): &(VirtAddr, Asid, Translation),
    out: &mut Vec<String>,
) {
    let m = reference.machine();
    let LastLevelTlb::Unified(stlb) = sys.stlb() else {
        out.push("the warm oracle compares a unified STLB".into());
        return;
    };
    for size in [PageSize::Base4K, PageSize::Huge2M] {
        let vpn = va.vpn(size).0;
        for (name, cycle, fun) in [
            ("itlb", sys.itlb(), &m.itlb),
            ("dtlb", sys.dtlb(), &m.dtlb),
            ("stlb", stlb, &m.stlb),
        ] {
            let got = cycle.contains_tagged(*va, size, *asid);
            let want = fun.contains(vpn, size, *asid);
            if got != want {
                out.push(format!(
                    "{name} {asid} vpn {vpn:#x} ({size:?}): warm resident {got}, reference {want}"
                ));
            }
        }
    }
    // The accessed block and every page-table block of its walk path.
    let pas = std::iter::once(tr.pa).chain(tr.path.steps().iter().map(|&(_, pa)| pa));
    for block in pas.map(|pa| pa.block().index()) {
        for ((id, cache), level) in sys.hierarchy.levels().zip(m.chain.levels()) {
            let got = (cache.contains(block), cache.is_dirty(block));
            let want = (level.contains(block), level.is_dirty(block));
            if got != want {
                out.push(format!(
                    "{} block {block:#x}: warm (resident, dirty) {got:?}, reference {want:?}",
                    id.name()
                ));
            }
        }
    }
    let vpn4k = namespaced_vpn(
        match tr.size {
            PageSize::Base4K => tr.vpn,
            PageSize::Huge2M => tr.vpn << 9,
        },
        tr.asid,
    );
    let (got, want) = (sys.pscs().contains_vpn(vpn4k), m.pscs.contains_vpn(vpn4k));
    if got != want {
        out.push(format!(
            "psc vpn {vpn4k:#x}: warm resident {got}, reference {want}"
        ));
    }
}

/// Runs `events` through the warm path and the reference; `Err` names
/// every divergence.
pub fn check_events(events: &[Event], hierarchy: &HierarchyConfig) -> Result<(), String> {
    let mut sys = system_for(events, hierarchy);
    let mut cfg = SystemConfig::asplos25();
    cfg.hierarchy = *hierarchy;
    let mut reference = RefMachine::with_tenants(&cfg, tenants_in(events));
    let mut touched = Vec::new();
    for ev in events {
        apply_warm(&mut sys, ev);
        reference.apply(ev);
        if let Some((asid, tr)) = reference.translation(ev) {
            touched.push((VirtAddr::new(ev.va), asid, tr));
        }
    }
    let mut problems = Vec::new();
    for key in &touched {
        compare_residency(&sys, &reference, key, &mut problems);
    }
    // A fresh machine's report: every counter zero.
    let fresh = DiffReport::from_system(&system_for(events, hierarchy));
    problems.extend(
        DiffReport::from_system(&sys)
            .diff(&fresh)
            .into_iter()
            .map(|d| format!("the warm path counted {d}")),
    );
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n  "))
    }
}

/// Fuzzes one spec against one hierarchy preset through the warm path; a
/// failing event list is shrunk as the differential check's is.
pub fn check_spec(
    spec: &FuzzSpec,
    preset_name: &str,
    hierarchy: &HierarchyConfig,
) -> Result<(), String> {
    check_with(
        spec,
        preset_name,
        hierarchy,
        check_events,
        "warm path and reference diverge",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_trace::fuzz::FuzzPattern;

    #[test]
    fn warm_path_matches_the_reference_on_all_depths_and_tenant_storms() {
        for pattern in [
            FuzzPattern::Mixed,
            FuzzPattern::ContextStorm,
            FuzzPattern::ShootdownStorm,
        ] {
            let spec = FuzzSpec {
                pattern,
                seed: 0x3a7e_5eed,
                instructions: 800,
            };
            for (name, h) in [
                ("asplos25", HierarchyConfig::asplos25()),
                ("asplos25_no_llc", HierarchyConfig::asplos25_no_llc()),
                ("asplos25_deep", HierarchyConfig::asplos25_deep()),
            ] {
                check_spec(&spec, name, &h).expect("warm path must agree");
            }
        }
    }
}
