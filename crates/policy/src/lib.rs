//! Baseline TLB and cache replacement policies, and the trait they share
//! with the paper's contributions.
//!
//! The paper ("Instruction-Aware Cooperative TLB and Cache Replacement
//! Policies", ASPLOS 2025) compares its proposals (iTP, xPTP — implemented
//! in `itpx-core`) against a field of prior policies. This crate implements
//! that field:
//!
//! | Policy | Structure | Reference |
//! |---|---|---|
//! | [`Lru`] | any | textbook true-LRU |
//! | [`TreePlru`] | any | tree pseudo-LRU |
//! | [`RandomEvict`] | any | random |
//! | [`Srrip`] / [`Brrip`] / [`Drrip`] | caches | Jaleel et al., ISCA'10 |
//! | [`Dip`] | caches | Qureshi et al., ISCA'07 |
//! | [`Ship`] | caches | Wu et al., MICRO'11 |
//! | [`Mockingjay`] | caches | Shah et al., HPCA'22 (simplified) |
//! | [`Ptp`] | L2C | Park et al., ASPLOS'22 |
//! | [`Drrip::translation_aware`] (T-DRRIP) | L2C | Vasudha & Panda, ISPASS'22 |
//! | [`Ship::translation_aware`] (T-SHiP) | LLC | Vasudha & Panda, ISPASS'22 (extension; the paper applies only T-DRRIP) |
//! | [`Chirp`] | STLB | Mirbagher-Ajorpaz et al., MICRO'20 (simplified) |
//! | [`ProbKeepInstrLru`] | STLB | the Figure-3 motivation policy |
//! | [`Itp`] | STLB | the paper's Section 4.1 proposal |
//! | [`Xptp`] / [`Xptp::adaptive`] / [`Xptp::with_emissary`] | L2C | Section 4.2 / 4.3.1 / Section 7 extension |
//!
//! Every policy implements [`Policy`] over either [`CacheMeta`] or
//! [`TlbMeta`]. The cache and TLB models in `itpx-mem`/`itpx-vm` store them
//! in the statically dispatched [`engine::CachePolicyEngine`] /
//! [`engine::TlbPolicyEngine`] enums (trait objects remain available via
//! the [`CachePolicy`]/[`TlbPolicy`] aliases and the engines' `Dyn`
//! escape hatch).
//!
//! # Examples
//!
//! ```
//! use itpx_policy::engine::TlbPolicyEngine;
//! use itpx_policy::{Lru, Policy, TlbMeta};
//! use itpx_types::TranslationKind;
//!
//! let mut policy = TlbPolicyEngine::from(Lru::new(4, 2));
//! let meta = TlbMeta::demand(0x10, TranslationKind::Data);
//! policy.on_fill(0, 0, &meta);
//! policy.on_fill(0, 1, &meta);
//! policy.on_hit(0, 0, &meta);
//! assert_eq!(policy.victim(0, &meta), 1); // way 0 was touched more recently
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod adaptive;
pub mod checked;
pub mod chirp;
pub mod dip;
pub mod engine;
pub mod itp;
pub mod lru;
pub mod meta;
pub mod mockingjay;
pub mod plru;
pub mod prob_lru;
pub mod ptp;
pub mod random;
pub mod recency;
pub mod rrip;
pub mod ship;
pub mod traits;
pub mod xptp;

pub use adaptive::{StlbPressureMonitor, XptpSwitch};
pub use checked::CheckedPolicy;
pub use chirp::Chirp;
pub use dip::Dip;
pub use engine::{CachePolicyEngine, PolicyMeta, TlbPolicyEngine};
pub use itp::{Itp, ItpParams};
pub use lru::Lru;
pub use meta::{CacheMeta, TlbMeta};
pub use mockingjay::Mockingjay;
pub use plru::TreePlru;
pub use prob_lru::ProbKeepInstrLru;
pub use ptp::Ptp;
pub use random::RandomEvict;
pub use recency::RecencyStack;
pub use rrip::{Brrip, Drrip, Srrip};
pub use ship::Ship;
pub use traits::{CachePolicy, Policy, TlbPolicy};
pub use xptp::{Xptp, XptpParams};
