//! Statically dispatched policy engines for the hot access path.
//!
//! `Cache` (itpx-mem) and `Tlb` (itpx-vm) call their replacement policy
//! three times per simulated access (`on_hit`/`victim`/`on_fill`). Holding
//! the policy as `Box<dyn Policy<M>>` makes each of those a virtual call,
//! which blocks inlining of the paper's deliberately tiny policies (iTP's
//! Type/Freq update, xPTP's PTE check) — at campaign scale the dispatch
//! costs more than the policy. [`CachePolicyEngine`] and
//! [`TlbPolicyEngine`] replace the box with an enum carrying one variant
//! per in-tree policy type — 11 for caches, 6 for TLBs — so dispatch is a
//! `match` instead of a virtual call. Configurations of one policy share
//! its variant: static, adaptive and Emissary xPTP are all
//! [`CachePolicyEngine::Xptp`], and T-DRRIP/T-SHiP are the
//! translation-aware [`Drrip`]/[`Ship`].
//!
//! The `match` inlines into its caller. The policy bodies behind it
//! cross the crate boundary only where they carry `#[inline]`: iTP's and
//! xPTP's hooks do, and so do `RecencyStack::lru`/`touch`, which LRU's
//! generic hooks call, so `itpx_mem::Cache` and `itpx_vm::Tlb` inline them
//! in a build without LTO. The other policies' hooks stay out of line; no
//! benchmarked configuration runs them. Attributes on one layer at a time
//! measured as noise, but on the whole per-access path at once they close
//! most of the gap to a fat-LTO build (DESIGN.md, "Inlining across
//! crates").
//!
//! The enums are generated by one macro invocation per metadata type, and
//! the variant list is cross-checked against `itpx-core`'s registry (the
//! single source of truth for "every policy in the workspace") by its
//! `engine_covers_registry` test: a policy registered without an
//! engine variant would build through [`Dyn`](CachePolicyEngine::Dyn) and
//! fail that test.
//!
//! The `Dyn` variant is the escape hatch for everything that genuinely
//! needs a trait object inside a structure — out-of-tree policies, or a
//! [`crate::CheckedPolicy`] wrapper installed in a `Cache`/`Tlb` — at the
//! usual virtual-call price.
//!
//! # Examples
//!
//! ```
//! use itpx_policy::engine::CachePolicyEngine;
//! use itpx_policy::{CacheMeta, Lru, Policy};
//! use itpx_types::FillClass;
//!
//! // In-tree policies convert into their own variant...
//! let mut engine = CachePolicyEngine::from(Lru::new(16, 4));
//! assert!(!engine.is_dyn());
//! engine.on_fill(0, 0, &CacheMeta::demand(0x40, FillClass::DataPayload));
//! assert_eq!(engine.name(), "lru");
//!
//! // ...while boxed policies land behind the escape hatch.
//! let boxed = CachePolicyEngine::boxed(Lru::new(16, 4));
//! assert!(boxed.is_dyn());
//! ```

use crate::chirp::Chirp;
use crate::dip::Dip;
use crate::itp::Itp;
use crate::lru::Lru;
use crate::meta::{CacheMeta, TlbMeta};
use crate::mockingjay::Mockingjay;
use crate::plru::TreePlru;
use crate::prob_lru::ProbKeepInstrLru;
use crate::ptp::Ptp;
use crate::random::RandomEvict;
use crate::rrip::{Brrip, Drrip, Srrip};
use crate::ship::Ship;
use crate::traits::Policy;
use crate::xptp::Xptp;

/// Ties a metadata type to its statically dispatched engine, so generic
/// code (the registry, `Cache`/`Tlb` constructors) can name "the engine
/// for `M`" without spelling out which enum that is.
pub trait PolicyMeta: Sized + 'static {
    /// The enum-dispatched engine over policies of this metadata type.
    type Engine: Policy<Self> + From<Box<dyn Policy<Self>>>;
}

impl PolicyMeta for CacheMeta {
    type Engine = CachePolicyEngine;
}

impl PolicyMeta for TlbMeta {
    type Engine = TlbPolicyEngine;
}

/// Generates an enum with one variant per in-tree policy (each variant
/// named after — and holding — its policy type) plus a `Dyn` trait-object
/// escape hatch, and implements [`Policy`] by `match` dispatch so every
/// arm inlines.
macro_rules! policy_engine {
    (
        $(#[$attr:meta])*
        $name:ident over $meta:ident { $($variant:ident),+ $(,)? }
    ) => {
        $(#[$attr])*
        #[derive(Debug)]
        pub enum $name {
            $(
                #[doc = concat!("Statically dispatched [`", stringify!($variant), "`].")]
                $variant($variant),
            )+
            /// Escape hatch for trait objects ([`crate::CheckedPolicy`]
            /// wrappers, out-of-tree policies); pays virtual dispatch.
            Dyn(Box<dyn Policy<$meta>>),
        }

        impl $name {
            /// Wraps `policy` behind the [`Self::Dyn`] escape hatch — for
            /// policies without a variant of their own (out-of-tree
            /// implementations, [`crate::CheckedPolicy`]).
            pub fn boxed<P: Policy<$meta> + 'static>(policy: P) -> Self {
                Self::Dyn(Box::new(policy))
            }

            /// Whether calls go through the [`Self::Dyn`] escape hatch
            /// (virtual dispatch) instead of an inlined variant.
            pub fn is_dyn(&self) -> bool {
                matches!(self, Self::Dyn(_))
            }
        }

        $(
            impl From<$variant> for $name {
                fn from(policy: $variant) -> Self {
                    Self::$variant(policy)
                }
            }
        )+

        impl From<Box<dyn Policy<$meta>>> for $name {
            fn from(policy: Box<dyn Policy<$meta>>) -> Self {
                Self::Dyn(policy)
            }
        }

        impl Policy<$meta> for $name {
            #[inline]
            fn on_fill(&mut self, set: usize, way: usize, meta: &$meta) {
                match self {
                    $(Self::$variant(p) => p.on_fill(set, way, meta),)+
                    Self::Dyn(p) => p.on_fill(set, way, meta),
                }
            }

            #[inline]
            fn on_hit(&mut self, set: usize, way: usize, meta: &$meta) {
                match self {
                    $(Self::$variant(p) => p.on_hit(set, way, meta),)+
                    Self::Dyn(p) => p.on_hit(set, way, meta),
                }
            }

            #[inline]
            fn victim(&mut self, set: usize, incoming: &$meta) -> usize {
                match self {
                    $(Self::$variant(p) => p.victim(set, incoming),)+
                    Self::Dyn(p) => p.victim(set, incoming),
                }
            }

            #[inline]
            fn on_evict(&mut self, set: usize, way: usize) {
                match self {
                    $(Self::$variant(p) => Policy::<$meta>::on_evict(p, set, way),)+
                    Self::Dyn(p) => p.on_evict(set, way),
                }
            }

            #[inline]
            fn name(&self) -> &'static str {
                match self {
                    $(Self::$variant(p) => Policy::<$meta>::name(p),)+
                    Self::Dyn(p) => p.name(),
                }
            }

            fn meta_bits(&self, sets: usize, ways: usize) -> u64 {
                match self {
                    $(Self::$variant(p) => Policy::<$meta>::meta_bits(p, sets, ways),)+
                    Self::Dyn(p) => p.meta_bits(sets, ways),
                }
            }
        }
    };
}

policy_engine! {
    /// Every cache replacement policy in the workspace, dispatched by
    /// `match` — the field of Table 2, the LLC comparators, and the
    /// paper's L2C proposals and extensions.
    CachePolicyEngine over CacheMeta {
        Lru,
        TreePlru,
        RandomEvict,
        Srrip,
        Brrip,
        Drrip,
        Dip,
        Ship,
        Mockingjay,
        Ptp,
        Xptp,
    }
}

policy_engine! {
    /// Every TLB replacement policy in the workspace, dispatched by
    /// `match`.
    TlbPolicyEngine over TlbMeta {
        Lru,
        TreePlru,
        RandomEvict,
        Chirp,
        ProbKeepInstrLru,
        Itp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_types::TranslationKind;

    #[test]
    fn enum_variant_matches_inner_policy() {
        let mut e = TlbPolicyEngine::from(Lru::new(4, 2));
        assert_eq!(e.name(), "lru");
        assert!(!e.is_dyn());
        let meta = TlbMeta::demand(0x10, TranslationKind::Data);
        e.on_fill(0, 0, &meta);
        e.on_fill(0, 1, &meta);
        e.on_hit(0, 0, &meta);
        assert_eq!(e.victim(0, &meta), 1);
    }

    #[test]
    fn boxed_policies_take_the_escape_hatch() {
        let boxed: Box<dyn Policy<CacheMeta>> = Box::new(Srrip::new(8, 4));
        let e = CachePolicyEngine::from(boxed);
        assert!(e.is_dyn());
        assert_eq!(e.name(), "srrip");

        let e = CachePolicyEngine::boxed(Srrip::new(8, 4));
        assert!(e.is_dyn());
    }

    #[test]
    fn meta_bits_passes_through() {
        let direct = Itp::new(16, 12, crate::ItpParams::default());
        let want = direct.meta_bits(16, 12);
        let e = TlbPolicyEngine::from(direct);
        assert_eq!(e.meta_bits(16, 12), want);
    }
}
