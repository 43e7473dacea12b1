//! Drives the optimized pipeline and the reference model over one event
//! list and compares their reports.
//!
//! The optimized machine is exercised in *quiescent* mode: events are
//! spaced [`EVENT_SPACING`] cycles apart, far past the longest possible
//! miss chain, so every MSHR has retired and every in-flight fill has
//! landed before the next event arrives. Under quiescence the timing
//! machinery (MSHR merging, walker-register contention, fill-ready
//! waits) cannot change any count, and the optimized counts must equal
//! the timing-free reference bit for bit. Prefetch hooks are detached —
//! prefetching is timing-driven speculation with no functional
//! counterpart.

use crate::events::{events_from_spec, tenants_in, Event};
use crate::refmodel::RefMachine;
use crate::report::DiffReport;
use crate::shrink;
use itpx_core::presets::BuildConfig;
use itpx_core::Preset;
use itpx_cpu::{System, SystemConfig};
use itpx_mem::hierarchy::LevelHooks;
use itpx_mem::HierarchyConfig;
use itpx_trace::fuzz::FuzzSpec;
use itpx_types::{Cycle, LevelId, ThreadId, TranslationKind, VirtAddr};

/// Cycles between events: longer than any cold miss chain (a full walk
/// plus five DRAM-latency round trips is a few thousand cycles).
pub const EVENT_SPACING: Cycle = 100_000;

/// The base configuration the harness compares on, with `hierarchy`
/// substituted (depth presets share every translation structure).
fn config_with(hierarchy: &HierarchyConfig) -> SystemConfig {
    let mut cfg = SystemConfig::asplos25();
    cfg.hierarchy = *hierarchy;
    cfg
}

/// The optimized machine the harness drives: `hierarchy` under LRU, one
/// hardware thread, as many tenants as `events` name, and every prefetch
/// hook detached.
pub(crate) fn system_for(events: &[Event], hierarchy: &HierarchyConfig) -> System {
    let cfg = config_with(hierarchy);
    let bundle = Preset::Lru.build(&cfg.dims(), &BuildConfig::default());
    let mut sys = System::new(cfg, bundle, 1);
    let tenants = tenants_in(events);
    if tenants > 1 {
        sys.configure_address_spaces(tenants, 0.0, 0);
    }
    for id in [
        LevelId::L1I,
        LevelId::L1D,
        LevelId::L2C,
        LevelId::L3,
        LevelId::Llc,
    ] {
        // Returns false for levels this chain does not have.
        let _ = sys.hierarchy.set_hooks(id, LevelHooks::none());
    }
    sys
}

/// Runs the optimized pipeline over `events` in quiescent mode and
/// reports its counts.
pub fn run_system(events: &[Event], hierarchy: &HierarchyConfig) -> DiffReport {
    let mut sys = system_for(events, hierarchy);
    let mut now: Cycle = EVENT_SPACING;
    for ev in events {
        match ev.kind {
            crate::events::EventKind::Fetch => {
                let t = sys.translate(
                    VirtAddr::new(ev.va),
                    TranslationKind::Instruction,
                    ev.pc,
                    ThreadId(0),
                    now,
                );
                sys.hierarchy.instr_fetch(t.pa, ev.pc, ThreadId(0), now);
            }
            crate::events::EventKind::Load | crate::events::EventKind::Store => {
                let store = ev.kind == crate::events::EventKind::Store;
                let t = sys.translate(
                    VirtAddr::new(ev.va),
                    TranslationKind::Data,
                    ev.pc,
                    ThreadId(0),
                    now,
                );
                sys.hierarchy
                    .data_access(t.pa, ev.pc, ThreadId(0), store, t.stlb_miss, now);
            }
            crate::events::EventKind::Switch { asid, flush } => sys.context_switch(asid, flush),
            crate::events::EventKind::Shootdown { asid } => {
                sys.shootdown(VirtAddr::new(ev.va), asid);
            }
        }
        now += EVENT_SPACING;
    }
    DiffReport::from_system(&sys)
}

/// Runs the functional reference over `events` and reports its counts.
/// The tenant count is derived from the event list, exactly as
/// [`run_system`] derives it, so both machines build identical address
/// spaces for every shrink candidate.
pub fn run_reference(events: &[Event], hierarchy: &HierarchyConfig) -> DiffReport {
    let mut m = RefMachine::with_tenants(&config_with(hierarchy), tenants_in(events));
    m.run(events);
    m.report()
}

/// Compares both machines on `events`; `Err` carries one line per
/// divergent counter plus the conservation check.
pub fn check_events(events: &[Event], hierarchy: &HierarchyConfig) -> Result<(), String> {
    let sys = run_system(events, hierarchy);
    let reference = run_reference(events, hierarchy);
    let mut problems = sys.diff(&reference);
    if !sys.writebacks_conserved() {
        problems.push("optimized report violates writeback conservation".to_string());
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n  "))
    }
}

/// Fuzzes one spec against one hierarchy preset. On divergence the
/// failing event list is shrunk to a near-minimal reproducer and the
/// returned message describes spec, preset, reduced length, and every
/// divergent counter.
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
        "optimized and reference diverge",
    )
}

/// Runs `check` on `spec`'s event list; on failure shrinks the list while
/// `check` keeps failing and reports the reproducer under `what`.
pub(crate) fn check_with(
    spec: &FuzzSpec,
    preset_name: &str,
    hierarchy: &HierarchyConfig,
    check: fn(&[Event], &HierarchyConfig) -> Result<(), String>,
    what: &str,
) -> Result<(), String> {
    let events = events_from_spec(spec);
    match check(&events, hierarchy) {
        Ok(()) => Ok(()),
        Err(first) => {
            let minimized = shrink::minimize(&events, |cand| check(cand, hierarchy).is_err());
            let detail = match check(&minimized, hierarchy) {
                Err(d) => d,
                Ok(()) => first,
            };
            Err(format!(
                "{spec} on {preset_name}: {what} (shrunk {} -> {} events)\n  {detail}",
                events.len(),
                minimized.len(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
    use itpx_trace::fuzz::FuzzPattern;

    fn ev(kind: EventKind, va: u64) -> Event {
        Event { kind, va, pc: va }
    }

    #[test]
    fn optimized_matches_reference_on_a_tiny_trace() {
        let events = vec![
            ev(EventKind::Fetch, 0x51_0000_0000),
            ev(EventKind::Load, 0x62_0000_0000),
            ev(EventKind::Store, 0x62_0000_0040),
            ev(EventKind::Fetch, 0x51_0000_0040),
            ev(EventKind::Load, 0x62_0000_0000),
        ];
        check_events(&events, &HierarchyConfig::asplos25()).expect("tiny trace must agree");
    }

    #[test]
    fn optimized_matches_reference_on_all_depths() {
        let spec = FuzzSpec {
            pattern: FuzzPattern::Mixed,
            seed: 0xd1ff_7e57,
            instructions: 600,
        };
        for (name, h) in [
            ("asplos25", HierarchyConfig::asplos25()),
            ("asplos25_no_llc", HierarchyConfig::asplos25_no_llc()),
            ("asplos25_deep", HierarchyConfig::asplos25_deep()),
        ] {
            check_spec(&spec, name, &h).expect("fuzzed trace must agree");
        }
    }

    #[test]
    fn optimized_matches_reference_under_context_and_shootdown_storms() {
        for pattern in [FuzzPattern::ContextStorm, FuzzPattern::ShootdownStorm] {
            let spec = FuzzSpec {
                pattern,
                seed: 0x7e4a_4715,
                instructions: 600,
            };
            for (name, h) in [
                ("asplos25", HierarchyConfig::asplos25()),
                ("asplos25_no_llc", HierarchyConfig::asplos25_no_llc()),
                ("asplos25_deep", HierarchyConfig::asplos25_deep()),
            ] {
                check_spec(&spec, name, &h).expect("multi-tenant trace must agree");
            }
        }
    }

    #[test]
    fn switches_and_shootdowns_change_translation_counts() {
        // Same access pattern with and without control events: the
        // multi-tenant lowering must actually perturb translation
        // behavior, otherwise the new patterns test nothing.
        let spec = FuzzSpec {
            pattern: FuzzPattern::ContextStorm,
            seed: 0xbeef,
            instructions: 800,
        };
        let full = events_from_spec(&spec);
        let plain: Vec<Event> = full
            .iter()
            .copied()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Fetch | EventKind::Load | EventKind::Store
                )
            })
            .collect();
        let h = HierarchyConfig::asplos25();
        let with_ctx = run_system(&full, &h);
        let without = run_system(&plain, &h);
        assert!(
            with_ctx.walks > without.walks,
            "tenant rotation must force extra walks ({} vs {})",
            with_ctx.walks,
            without.walks
        );
    }

    #[test]
    fn reports_count_real_traffic() {
        let events = vec![
            ev(EventKind::Fetch, 0x51_0000_0000),
            ev(EventKind::Load, 0x62_0000_0000),
        ];
        let r = run_system(&events, &HierarchyConfig::asplos25());
        assert_eq!(r.walks, 2, "two cold pages walk");
        assert!(r.dram_reads >= 2, "cold blocks come from DRAM");
        assert_eq!(r.levels.len(), 4, "L1I, L1D, L2C, LLC");
    }
}
