//! The policy/structure assignment matrix of the paper's Table 2.
//!
//! Each [`Preset`] names one row of Table 2: which replacement policy runs
//! at the STLB and which at the L2C (L1s always use LRU, the LLC policy is
//! chosen independently via [`LlcChoice`] for the Section 6.3 sensitivity
//! study). [`Preset::build`] manufactures the concrete policy objects sized
//! for a given system configuration.

use crate::adaptive::{StlbPressureMonitor, XptpSwitch};
use crate::itp::{Itp, ItpParams};
use crate::xptp::{Xptp, XptpParams};
use itpx_policy::{
    CachePolicyEngine, Chirp, Drrip, Lru, Mockingjay, ProbKeepInstrLru, Ptp, Ship, TlbPolicyEngine,
};
use itpx_types::fingerprint::{Fingerprint, Fnv1a};

/// One row of the paper's Table 2: the (STLB policy, L2C policy) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// LRU everywhere — the baseline all speedups are measured against.
    Lru,
    /// T-DRRIP at L2C (Vasudha & Panda).
    Tdrrip,
    /// PTP at L2C (Park et al.).
    Ptp,
    /// CHiRP at STLB (Mirbagher-Ajorpaz et al.).
    Chirp,
    /// CHiRP at STLB + T-DRRIP at L2C.
    ChirpTdrrip,
    /// CHiRP at STLB + PTP at L2C.
    ChirpPtp,
    /// iTP at STLB (Section 4.1) — the paper's first proposal.
    Itp,
    /// iTP at STLB + T-DRRIP at L2C.
    ItpTdrrip,
    /// iTP at STLB + PTP at L2C.
    ItpPtp,
    /// iTP at STLB + adaptive xPTP at L2C (Section 4.3) — the paper's
    /// headline proposal.
    ItpXptp,
    /// iTP at STLB + xPTP at L2C with the adaptive switch forced on
    /// (ablation of the Section 4.3.1 mechanism; not a Table 2 row).
    ItpXptpStatic,
    /// iTP at STLB + xPTP-with-Emissary-style code preservation at L2C —
    /// the extension the paper's Section 7 conjectures (not a Table 2
    /// row; see [`Xptp::with_emissary`]).
    ItpXptpEmissary,
    /// The Figure 3/4 motivation STLB: keeps instructions over data with
    /// probability P, given in tenths, drawing from [`BuildConfig::seed`];
    /// LRU at the caches. Built in code only: no name resolves to it.
    KeepInstr(u8),
}

impl Preset {
    /// The nine Table 2 rows the evaluation sweeps (Figure 8), in paper
    /// order, plus the LRU baseline at the front.
    pub const EVALUATED: [Preset; 10] = [
        Preset::Lru,
        Preset::Tdrrip,
        Preset::Ptp,
        Preset::Chirp,
        Preset::ChirpTdrrip,
        Preset::ChirpPtp,
        Preset::Itp,
        Preset::ItpTdrrip,
        Preset::ItpPtp,
        Preset::ItpXptp,
    ];

    /// Every preset a name resolves to: [`Preset::EVALUATED`] and the two
    /// iTP+xPTP variants.
    pub const ALL: [Preset; 12] = [
        Preset::Lru,
        Preset::Tdrrip,
        Preset::Ptp,
        Preset::Chirp,
        Preset::ChirpTdrrip,
        Preset::ChirpPtp,
        Preset::Itp,
        Preset::ItpTdrrip,
        Preset::ItpPtp,
        Preset::ItpXptp,
        Preset::ItpXptpStatic,
        Preset::ItpXptpEmissary,
    ];

    /// The preset of [`Preset::ALL`] named `raw`, ignoring case and
    /// non-alphanumerics (`iTP+xPTP`, `itp-xptp` and `itpxptp` all
    /// resolve the same).
    pub fn from_name(raw: &str) -> Option<Preset> {
        let strip = |s: &str| -> String {
            s.chars()
                .filter(char::is_ascii_alphanumeric)
                .map(|c| c.to_ascii_lowercase())
                .collect()
        };
        let wanted = strip(raw);
        Preset::ALL.into_iter().find(|p| strip(p.name()) == wanted)
    }

    /// Stable display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Lru => "LRU",
            Preset::Tdrrip => "TDRRIP",
            Preset::Ptp => "PTP",
            Preset::Chirp => "CHiRP",
            Preset::ChirpTdrrip => "CHiRP+TDRRIP",
            Preset::ChirpPtp => "CHiRP+PTP",
            Preset::Itp => "iTP",
            Preset::ItpTdrrip => "iTP+TDRRIP",
            Preset::ItpPtp => "iTP+PTP",
            Preset::ItpXptp => "iTP+xPTP",
            Preset::ItpXptpStatic => "iTP+xPTP(static)",
            Preset::ItpXptpEmissary => "iTP+xPTP+E",
            Preset::KeepInstr(_) => "KeepInstr",
        }
    }

    /// `true` if this preset runs iTP at the STLB.
    pub fn uses_itp(self) -> bool {
        matches!(
            self,
            Preset::Itp
                | Preset::ItpTdrrip
                | Preset::ItpPtp
                | Preset::ItpXptp
                | Preset::ItpXptpStatic
                | Preset::ItpXptpEmissary
        )
    }

    /// Builds the concrete policy objects for this preset.
    pub fn build(self, dims: &StructureDims, cfg: &BuildConfig) -> PolicyBundle {
        let (ss, sw) = dims.stlb;
        let (ls, lw) = dims.l2c;
        let stlb: TlbPolicyEngine = match self {
            Preset::Lru | Preset::Tdrrip | Preset::Ptp => Lru::new(ss, sw).into(),
            Preset::Chirp | Preset::ChirpTdrrip | Preset::ChirpPtp => Chirp::new(ss, sw).into(),
            Preset::Itp
            | Preset::ItpTdrrip
            | Preset::ItpPtp
            | Preset::ItpXptp
            | Preset::ItpXptpStatic
            | Preset::ItpXptpEmissary => Itp::new(ss, sw, cfg.itp).into(),
            Preset::KeepInstr(t) => {
                ProbKeepInstrLru::new(ss, sw, f64::from(t) / 10.0, cfg.seed).into()
            }
        };
        let mut monitor = None;
        let l2c: CachePolicyEngine = match self {
            Preset::Lru | Preset::Chirp | Preset::Itp | Preset::KeepInstr(_) => {
                Lru::new(ls, lw).into()
            }
            Preset::Tdrrip | Preset::ChirpTdrrip | Preset::ItpTdrrip => {
                Drrip::translation_aware(ls, lw, cfg.seed ^ 0x7d2).into()
            }
            Preset::Ptp | Preset::ChirpPtp | Preset::ItpPtp => Ptp::new(ls, lw).into(),
            Preset::ItpXptp => {
                let switch = XptpSwitch::new();
                monitor = Some(StlbPressureMonitor::with_params(
                    switch.clone(),
                    cfg.epoch_instructions,
                    cfg.t1,
                ));
                Xptp::adaptive(ls, lw, cfg.xptp, switch).into()
            }
            Preset::ItpXptpStatic => Xptp::new(ls, lw, cfg.xptp).into(),
            Preset::ItpXptpEmissary => Xptp::with_emissary(ls, lw, cfg.xptp).into(),
        };
        let (cs, cw) = dims.llc;
        let llc: CachePolicyEngine = match cfg.llc {
            LlcChoice::Lru => Lru::new(cs, cw).into(),
            LlcChoice::Ship => Ship::new(cs, cw).into(),
            LlcChoice::Mockingjay => Mockingjay::new(cs, cw).into(),
            LlcChoice::TShip => Ship::translation_aware(cs, cw).into(),
        };
        PolicyBundle {
            stlb,
            l2c,
            llc,
            monitor,
        }
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The LLC replacement policy, swept independently in Section 6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LlcChoice {
    /// True LRU (the default everywhere else in the evaluation).
    #[default]
    Lru,
    /// SHiP (Wu et al., MICRO'11).
    Ship,
    /// Simplified Mockingjay (Shah et al., HPCA'22).
    Mockingjay,
    /// T-SHiP (Vasudha & Panda, ISPASS'22) — the LLC half of the original
    /// T-DRRIP+T-SHiP proposal; an extension beyond the paper's Table 2.
    TShip,
}

impl LlcChoice {
    /// The three LLC policies of Figure 11.
    pub const ALL: [LlcChoice; 3] = [LlcChoice::Lru, LlcChoice::Ship, LlcChoice::Mockingjay];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            LlcChoice::Lru => "LRU",
            LlcChoice::Ship => "SHiP",
            LlcChoice::Mockingjay => "Mockingjay",
            LlcChoice::TShip => "T-SHiP",
        }
    }
}

impl Fingerprint for Preset {
    fn fingerprint(&self, h: &mut Fnv1a) {
        // The stable display name doubles as the cache-key identity.
        h.write_str(self.name());
        if let Preset::KeepInstr(t) = self {
            h.write_u8(*t);
        }
    }
}

impl Fingerprint for LlcChoice {
    fn fingerprint(&self, h: &mut Fnv1a) {
        // The stable display name doubles as the cache-key identity.
        h.write_str(self.name());
    }
}

/// (sets, ways) of each structure a preset needs to size its policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureDims {
    /// STLB geometry.
    pub stlb: (usize, usize),
    /// L2 cache geometry.
    pub l2c: (usize, usize),
    /// Last-level cache geometry.
    pub llc: (usize, usize),
}

/// Knobs shared by every preset build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildConfig {
    /// iTP parameters (Table 1 defaults).
    pub itp: ItpParams,
    /// xPTP parameters (Table 1 defaults).
    pub xptp: XptpParams,
    /// Adaptive-monitor epoch length in retired instructions.
    pub epoch_instructions: u64,
    /// Adaptive-monitor STLB-miss threshold `T1`.
    pub t1: u64,
    /// LLC replacement policy.
    pub llc: LlcChoice,
    /// Seed for stochastic policies (BRRIP's bimodal throttle, the
    /// keep-instructions STLB's coin of [`Preset::KeepInstr`]).
    pub seed: u64,
}

impl Default for BuildConfig {
    fn default() -> Self {
        Self {
            itp: ItpParams::default(),
            xptp: XptpParams::default(),
            epoch_instructions: crate::adaptive::DEFAULT_EPOCH_INSTRUCTIONS,
            t1: crate::adaptive::DEFAULT_T1,
            llc: LlcChoice::Lru,
            seed: 0x1735_c0de,
        }
    }
}

impl Fingerprint for BuildConfig {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_usize(self.itp.n);
        h.write_usize(self.itp.m);
        h.write_u32(self.itp.freq_bits);
        h.write_usize(self.xptp.k);
        h.write_u64(self.epoch_instructions);
        h.write_u64(self.t1);
        self.llc.fingerprint(h);
        h.write_u64(self.seed);
    }
}

/// The concrete policy objects for one simulated system.
///
/// The fields are enum-dispatched engines so `Cache`/`Tlb` can inline
/// policy calls; boxed policies still fit via the engines' `Dyn` variant
/// (`CachePolicyEngine::from(boxed)` or `::boxed(policy)`).
#[derive(Debug)]
pub struct PolicyBundle {
    /// STLB replacement policy.
    pub stlb: TlbPolicyEngine,
    /// L2C replacement policy.
    pub l2c: CachePolicyEngine,
    /// LLC replacement policy.
    pub llc: CachePolicyEngine,
    /// The STLB-pressure monitor, present only for [`Preset::ItpXptp`]; the
    /// simulated system feeds it retired-instruction and STLB-miss events.
    pub monitor: Option<StlbPressureMonitor>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_policy::Policy;

    fn dims() -> StructureDims {
        StructureDims {
            stlb: (128, 12),
            l2c: (1024, 8),
            llc: (2048, 16),
        }
    }

    #[test]
    fn table2_policy_names_per_structure() {
        let cfg = BuildConfig::default();
        let cases: [(Preset, &str, &str); 11] = [
            (Preset::Lru, "lru", "lru"),
            (Preset::Tdrrip, "lru", "tdrrip"),
            (Preset::Ptp, "lru", "ptp"),
            (Preset::Chirp, "chirp", "lru"),
            (Preset::ChirpTdrrip, "chirp", "tdrrip"),
            (Preset::ChirpPtp, "chirp", "ptp"),
            (Preset::Itp, "itp", "lru"),
            (Preset::ItpTdrrip, "itp", "tdrrip"),
            (Preset::ItpPtp, "itp", "ptp"),
            (Preset::ItpXptp, "itp", "xptp/lru"),
            (Preset::KeepInstr(8), "prob-keep-instr-lru", "lru"),
        ];
        for (preset, stlb, l2c) in cases {
            let b = preset.build(&dims(), &cfg);
            assert_eq!(b.stlb.name(), stlb, "{preset}");
            assert_eq!(b.l2c.name(), l2c, "{preset}");
            assert_eq!(b.llc.name(), "lru", "{preset}");
        }
    }

    #[test]
    fn only_itp_xptp_gets_a_monitor() {
        let cfg = BuildConfig::default();
        for p in Preset::ALL.into_iter().chain([Preset::KeepInstr(8)]) {
            let b = p.build(&dims(), &cfg);
            assert_eq!(b.monitor.is_some(), p == Preset::ItpXptp, "{p}");
        }
    }

    #[test]
    fn monitor_drives_the_built_policy() {
        let cfg = BuildConfig::default();
        let b = Preset::ItpXptp.build(&dims(), &cfg);
        let mut mon = b.monitor.expect("monitor");
        assert!(!mon.switch().is_enabled());
        for _ in 0..10 {
            mon.on_stlb_miss();
        }
        mon.on_retire(cfg.epoch_instructions);
        assert!(mon.switch().is_enabled());
    }

    #[test]
    fn llc_choices_build() {
        for llc in LlcChoice::ALL {
            let cfg = BuildConfig {
                llc,
                ..BuildConfig::default()
            };
            let b = Preset::Itp.build(&dims(), &cfg);
            let expect = match llc {
                LlcChoice::Lru => "lru",
                LlcChoice::Ship => "ship",
                LlcChoice::Mockingjay => "mockingjay",
                LlcChoice::TShip => "tship",
            };
            assert_eq!(b.llc.name(), expect);
        }
    }

    #[test]
    fn evaluated_contains_paper_order() {
        assert_eq!(Preset::EVALUATED.len(), 10);
        assert_eq!(Preset::EVALUATED[0], Preset::Lru);
        assert_eq!(Preset::EVALUATED[9], Preset::ItpXptp);
        assert_eq!(Preset::ALL[..10], Preset::EVALUATED);
    }

    #[test]
    fn uses_itp_flags() {
        assert!(Preset::ItpXptp.uses_itp());
        assert!(Preset::Itp.uses_itp());
        assert!(!Preset::Chirp.uses_itp());
        assert!(!Preset::Lru.uses_itp());
    }

    #[test]
    fn every_name_round_trips_and_keep_instr_has_none() {
        for p in Preset::ALL {
            assert_eq!(Preset::from_name(p.name()), Some(p));
        }
        assert_eq!(Preset::from_name("itp-xptp"), Some(Preset::ItpXptp));
        assert_eq!(Preset::from_name("itpxptp"), Some(Preset::ItpXptp));
        assert_eq!(Preset::from_name("chirp-tdrrip"), Some(Preset::ChirpTdrrip));
        assert_eq!(Preset::from_name("keepinstr"), None);
        assert_eq!(Preset::from_name("nonsense"), None);
    }

    #[test]
    fn static_variant_builds_plain_xptp() {
        let b = Preset::ItpXptpStatic.build(&dims(), &BuildConfig::default());
        assert_eq!(b.l2c.name(), "xptp");
        assert!(b.monitor.is_none());
    }
}
