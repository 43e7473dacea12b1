//! Name-stability tests: every policy name is unique within its structure
//! class, `name()` agrees with the registry, every entry builds its own
//! engine variant, and the preset table only builds registered policies.
//! Reports (`docs/hardware-budget.md`, the evaluation CSVs) key on these
//! strings, so renames are breaking changes.

use itpx_core::presets::{BuildConfig, LlcChoice, Preset, StructureDims};
use itpx_core::registry::{cache_policies, tlb_policies};
use itpx_policy::Policy;
use std::collections::BTreeSet;

fn dims() -> StructureDims {
    StructureDims {
        stlb: (128, 12),
        l2c: (1024, 8),
        llc: (2048, 16),
    }
}

#[test]
fn cache_registry_names_are_unique() {
    let mut seen = BTreeSet::new();
    for e in cache_policies() {
        assert!(
            seen.insert(e.name),
            "duplicate cache policy name {}",
            e.name
        );
    }
}

#[test]
fn tlb_registry_names_are_unique() {
    let mut seen = BTreeSet::new();
    for e in tlb_policies() {
        assert!(seen.insert(e.name), "duplicate TLB policy name {}", e.name);
    }
}

#[test]
fn built_policies_report_their_registry_name() {
    for e in cache_policies() {
        let built = (e.build)(16, 8);
        assert_eq!(built.name(), e.name, "cache registry/name mismatch");
    }
    for e in tlb_policies() {
        let built = (e.build)(16, 4);
        assert_eq!(built.name(), e.name, "TLB registry/name mismatch");
    }
}

/// No registered policy may dispatch through the engines' `Dyn` escape
/// hatch: the enum variant list (in `itpx_policy::engine`) must cover the
/// registry, which is the single source of truth for "every policy".
#[test]
fn engine_covers_registry() {
    for e in cache_policies() {
        assert!(
            !(e.build)(16, 8).is_dyn(),
            "cache policy {} has no engine variant",
            e.name
        );
    }
    for e in tlb_policies() {
        assert!(
            !(e.build)(16, 4).is_dyn(),
            "tlb policy {} has no engine variant",
            e.name
        );
    }
}

/// The registry must cover everything the preset table can build: every
/// policy name a preset produces resolves to a registry entry, so the
/// budget audit and contract drive cannot silently skip a preset policy.
#[test]
fn preset_table_builds_only_registered_policies() {
    let tlb_names: BTreeSet<&str> = tlb_policies().iter().map(|e| e.name).collect();
    let cache_names: BTreeSet<&str> = cache_policies().iter().map(|e| e.name).collect();
    let presets = [
        Preset::EVALUATED.as_slice(),
        &[Preset::ItpXptpStatic, Preset::ItpXptpEmissary],
    ]
    .concat();
    for llc in [
        LlcChoice::Lru,
        LlcChoice::Ship,
        LlcChoice::Mockingjay,
        LlcChoice::TShip,
    ] {
        let cfg = BuildConfig {
            llc,
            ..BuildConfig::default()
        };
        for p in &presets {
            let b = p.build(&dims(), &cfg);
            assert!(
                tlb_names.contains(b.stlb.name()),
                "{p}: STLB policy {} not in registry",
                b.stlb.name()
            );
            assert!(
                cache_names.contains(b.l2c.name()),
                "{p}: L2C policy {} not in registry",
                b.l2c.name()
            );
            assert!(
                cache_names.contains(b.llc.name()),
                "{p}: LLC policy {} not in registry",
                b.llc.name()
            );
        }
    }
}

/// The exact name strings are a stable interface; this list is the
/// change-detector.
#[test]
fn name_strings_are_stable() {
    let cache: Vec<&str> = cache_policies().iter().map(|e| e.name).collect();
    assert_eq!(
        cache,
        [
            "lru",
            "tree-plru",
            "random",
            "srrip",
            "brrip",
            "drrip",
            "dip",
            "ship",
            "tship",
            "mockingjay",
            "ptp",
            "tdrrip",
            "xptp",
            "xptp/lru",
            "xptp+emissary",
        ]
    );
    let tlb: Vec<&str> = tlb_policies().iter().map(|e| e.name).collect();
    assert_eq!(
        tlb,
        [
            "lru",
            "tree-plru",
            "random",
            "chirp",
            "prob-keep-instr-lru",
            "itp",
        ]
    );
}
